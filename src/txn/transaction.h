#ifndef BRAHMA_TXN_TRANSACTION_H_
#define BRAHMA_TXN_TRANSACTION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/latch.h"
#include "common/params.h"
#include "common/status.h"
#include "storage/object_store.h"
#include "txn/lock_manager.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace brahma {

class EpochManager;
class SideEffectLog;
class TransactionManager;

// Shared wiring a transaction needs to do its work.
struct TxnContext {
  ObjectStore* store = nullptr;
  LogManager* log = nullptr;
  LockManager* locks = nullptr;
  // Mutators hold this shared around each (log append, apply) pair so a
  // checkpoint (exclusive) sees an arena image consistent with its LSN.
  SharedLatch* checkpoint_latch = nullptr;
  // Epoch-based reclamation for the latch-free read path (DESIGN.md §11).
  // When latchfree_reads is set, ReadRefs/ReadRef/ReadData run under an
  // epoch guard instead of requiring a logical lock: they resolve stale
  // ids through the store's relocation table and snapshot contents under
  // the per-object latch only. Frees route through epoch retirement so a
  // concurrent guard never observes recycled bytes.
  EpochManager* epoch = nullptr;
  bool latchfree_reads = false;
  std::chrono::milliseconds lock_timeout = kPaperLockTimeout;
  bool strict_2pl = true;
};

// A transaction against the object store.
//
// Per the paper's model (Section 2): a transaction obtains references
// only by following references from the persistent root (or objects it
// created); having locked an object it may copy references out of it,
// delete references out of it, and insert references into it, without
// locking the referenced objects. All updates follow the WAL protocol —
// the undo value is logged before the update is applied.
//
// Not thread-safe: a transaction belongs to one worker thread.
class Transaction {
 public:
  enum class State { kActive, kCommitted, kAborted };

  ~Transaction();

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxnId id() const { return id_; }
  LogSource source() const { return source_; }
  State state() const { return state_; }

  // --- locking -----------------------------------------------------------
  Status Lock(ObjectId oid, LockMode mode);
  Status LockWithTimeout(ObjectId oid, LockMode mode,
                         std::chrono::milliseconds timeout);
  // Early release (legal for non-strict-2PL transactions, and used by the
  // reorganizer to prune stale approximate parents, paper Figure 4).
  void Unlock(ObjectId oid);
  bool Holds(ObjectId oid) const { return held_.count(oid) > 0; }
  size_t num_locks_held() const { return held_.size(); }
  std::vector<ObjectId> held_locks() const {
    return {held_.begin(), held_.end()};
  }

  // --- reads -------------------------------------------------------------
  // Require a lock in any mode — unless the context enables latch-free
  // reads, in which case they need no lock at all: the read runs inside
  // an epoch guard, chases relocations, and snapshots under the object
  // latch (paper Section 5.2's reader-vs-migration stall, removed).
  Status ReadRefs(ObjectId oid, std::vector<ObjectId>* out);
  Status ReadRef(ObjectId oid, uint32_t slot, ObjectId* out);
  Status ReadData(ObjectId oid, std::vector<uint8_t>* out);

  // --- updates (require an exclusive lock) --------------------------------
  // Sets refs[slot] = new_ref. Covers both pointer insert (slot was
  // invalid) and pointer delete (new_ref invalid).
  Status SetRef(ObjectId oid, uint32_t slot, ObjectId new_ref);
  Status WriteData(ObjectId oid, const std::vector<uint8_t>& bytes);

  // Creates an object (locked X by this transaction).
  Status CreateObject(PartitionId p, uint32_t num_refs, uint32_t data_size,
                      ObjectId* out);
  // Creates an object pre-filled with the given references and data in a
  // single logged action (used by the reorganizer to produce O_new).
  Status CreateObjectWithContents(PartitionId p,
                                  const std::vector<ObjectId>& refs,
                                  const std::vector<uint8_t>& data,
                                  ObjectId* out,
                                  ObjectId reorg_old = ObjectId::Invalid());
  // Frees an object, logging full undo images.
  Status FreeObject(ObjectId oid);

  // --- completion ----------------------------------------------------------
  // Commit appends a commit record and waits for the group-commit force;
  // Abort undoes every update and appends an abort record. A transaction
  // that logged nothing does neither: it appends no record and never
  // forces (DESIGN.md §9). Both release the locks on completion.
  Status Commit();
  Status Abort();

  // Crash semantics: the transaction simply stops — no undo, no abort
  // record, no completion hook, locks left in the lock manager (a dead
  // process releases nothing). Used when a crash failpoint fires
  // mid-transaction: restart recovery, not in-memory undo, decides the
  // transaction's fate. Also models user threads cut off by the crash.
  // The object is deregistered so quiesce barriers do not wait on it;
  // SimulateCrash clears the leftover lock state.
  void Abandon();

  // Compensation log for non-WAL side effects (parent lists, ERTs, TRT,
  // relocation map) that reorganization code mutates under this
  // transaction. When set, Abort replays the owner's pending entries —
  // after WAL undo, before lock release, so no other thread observes
  // half-undone side tables — and Commit promotes them (drops pending,
  // keeps committed compensation). Abandon touches nothing: crash
  // semantics leave cleanup to restart recovery. Null for ordinary
  // transactions.
  void set_side_effect_log(SideEffectLog* log) { side_effect_log_ = log; }
  SideEffectLog* side_effect_log() const { return side_effect_log_; }

  // Transaction-local memory: references the transaction has copied out
  // of objects (paper Section 2). Maintained by ReadRefs/ReadRef and used
  // by workloads to pick legal reference targets.
  std::vector<ObjectId>& local_refs() { return local_refs_; }

  // LSN of this transaction's first log record (invalid if none yet).
  // Log truncation must retain everything from here on for undo.
  Lsn first_lsn() const {
    return first_lsn_.load(std::memory_order_acquire);
  }

 private:
  friend class TransactionManager;

  Transaction(TransactionManager* mgr, TxnContext ctx, TxnId id,
              LogSource source)
      : mgr_(mgr), ctx_(ctx), id_(id), source_(source) {}

  Status RequireHeld(ObjectId oid, LockMode min_mode) const;
  bool UseLatchfreeReads() const {
    return ctx_.latchfree_reads && ctx_.epoch != nullptr;
  }
  // Epoch-guarded resolve-and-snapshot: chases oid through the store's
  // relocation table (bounded hops), validates liveness and identity
  // under the per-object latch, then runs fn on the pinned header.
  Status LatchfreeSnapshot(ObjectId oid,
                           const std::function<Status(ObjectHeader*)>& fn);
  // Snapshot of this transaction for deadlock victim selection
  // (DESIGN.md §10), taken at each blocking Acquire.
  WaiterProfile VictimProfile() const;
  ObjectHeader* GetLive(ObjectId oid) const;
  Lsn AppendOwn(LogRecord rec);
  void UndoToEnd();

  TransactionManager* mgr_;
  TxnContext ctx_;
  TxnId id_;
  LogSource source_;
  State state_ = State::kActive;
  // Read by the log truncation path from other threads.
  std::atomic<Lsn> first_lsn_{kInvalidLsn};
  Lsn last_lsn_ = kInvalidLsn;
  // Begin time; Commit hands Begin-to-commit work to the group-commit
  // force, which aligns batches on it (DESIGN.md §9).
  const std::chrono::steady_clock::time_point begun_ =
      std::chrono::steady_clock::now();

  std::unordered_set<ObjectId> held_;
  std::vector<ObjectId> ever_locked_;
  std::vector<ObjectId> local_refs_;
  SideEffectLog* side_effect_log_ = nullptr;
};

}  // namespace brahma

#endif  // BRAHMA_TXN_TRANSACTION_H_
