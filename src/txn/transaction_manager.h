#ifndef BRAHMA_TXN_TRANSACTION_MANAGER_H_
#define BRAHMA_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "txn/transaction.h"

namespace brahma {

// Creates transactions, tracks the active set, and notifies on
// completion. The reorganizer uses the active-set snapshot + wait to
// implement the paper's quiesce barrier ("the reorganization process
// waits for all transactions that are active at the time it started to
// complete, before starting the fuzzy traversal", Section 4.5) and the
// Section 4.1 wait-for-historical-lockers extension.
//
// The registry is sharded by TxnId, each shard with its own mutex and
// condition variable, so Begin and completion on different cores do not
// share a lock. ActiveTxns and MinActiveFirstLsn scan the shards one at a
// time; DESIGN.md §10 says why that still serves the quiesce barrier and
// the log-truncation floor.
class TransactionManager {
 public:
  explicit TransactionManager(TxnContext ctx)
      : ctx_(ctx), shards_(kRegistryShards) {}

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  std::unique_ptr<Transaction> Begin(LogSource source = LogSource::kUser);

  // Snapshot of currently active transaction ids.
  std::vector<TxnId> ActiveTxns() const;

  // Smallest first-record LSN among active transactions (their undo needs
  // the log from there on); kInvalidLsn if none has logged anything.
  Lsn MinActiveFirstLsn() const;

  bool IsActive(TxnId id) const;

  // Blocks until txn is no longer active (returns immediately if unknown).
  void WaitForTxn(TxnId id);
  void WaitForAll(const std::vector<TxnId>& ids);

  // Hooks invoked synchronously whenever a transaction that logged a
  // record commits or aborts. `on_complete` runs while it still holds its
  // locks (TRT purging, Section 4.5); `on_released` runs once its locks
  // are released and it is deregistered (log truncation, so that no lock
  // waiter waits out the frees). A transaction the log never saw has no
  // TRT tuple and pins no log, so it skips both.
  void SetCompletionHooks(
      std::function<void(TxnId, bool /*committed*/)> on_complete,
      std::function<void()> on_released) {
    completion_hook_ = std::move(on_complete);
    released_hook_ = std::move(on_released);
  }

  const TxnContext& ctx() const { return ctx_; }

  // Crash simulation: forgets all active transactions (their effects are
  // rolled back by restart recovery, not by in-memory undo) and empties
  // their held-lock tables, so an outstanding Transaction object that is
  // used afterwards fails every access as one without a lock.
  void Reset();

 private:
  friend class Transaction;

  // Called by Transaction at the end of commit/abort processing.
  // unstable_commit is the commit LSN of an early-release commit (not yet
  // stable): it is recorded with every exclusive lock released, and those
  // objects are kept in txn->released_early_.
  void OnComplete(Transaction* txn, bool committed,
                  Lsn unstable_commit = kInvalidLsn);

  // Called by Transaction::Abandon: deregisters without running the
  // completion hook or releasing locks (crash semantics).
  void OnAbandon(Transaction* txn);

  // Removes txn from its registry shard and wakes that shard's waiters.
  void Deregister(TxnId id);

  struct alignas(64) RegistryShard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<TxnId, Transaction*> txns;  // the active ones
    // WaitForTxn callers blocked on cv; a completion notifies only when
    // there is one.
    uint32_t waiters = 0;
  };

  static constexpr size_t kRegistryShards = 64;

  RegistryShard& ShardFor(TxnId id) { return shards_[id % kRegistryShards]; }
  const RegistryShard& ShardFor(TxnId id) const {
    return shards_[id % kRegistryShards];
  }

  TxnContext ctx_;
  std::function<void(TxnId, bool)> completion_hook_;
  std::function<void()> released_hook_;

  std::vector<RegistryShard> shards_;
  std::atomic<TxnId> next_id_{1};
};

}  // namespace brahma

#endif  // BRAHMA_TXN_TRANSACTION_MANAGER_H_
