#ifndef BRAHMA_TXN_LOCK_MANAGER_H_
#define BRAHMA_TXN_LOCK_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/params.h"
#include "common/status.h"
#include "storage/object_id.h"
#include "txn/deadlock.h"
#include "wal/log_record.h"

namespace brahma {

enum class LockMode : uint8_t { kShared, kExclusive };

// Object lock manager.
//
// Transactions follow strict two-phase locking by default: every lock is
// held until commit or abort (paper Section 2). Deadlocks are handled by
// a lock-wait timeout, set to one second in the paper's experiments
// (Section 5) — and, since DESIGN.md §10, by waits-for cycle detection
// layered underneath it: a blocked Acquire registers in a waits-for
// registry and, after kDeadlockDetectGrace, runs DFS cycle detection over
// the merged per-shard wait queues. On a cycle the cheapest member (reorg
// transactions before user transactions) has its pending request
// cancelled and its Acquire returns Status::DeadlockVictim — held locks
// intact, no timeout burned; the caller aborts (compensated, §8) and
// retries. The timeout remains the backstop for anything detection
// declines (all-no_victim cycles, cycles longer than
// kDeadlockMaxDfsDepth).
//
// Grant policy: FIFO among waiters (no barging), except that upgrade
// requests (S -> X by a current holder) are considered first. Re-entrant
// acquires of an already-held mode are no-ops. Two holders that both
// request an upgrade deadlock instantly (neither can ever be granted
// while the other holds S); Acquire recognizes this on the spot and
// fast-fails the cheapest rival under every DeadlockPolicy, timeout-only
// included.
//
// For the paper's Section 4.1 extension (transactions that release locks
// early), the lock manager can additionally record which active
// transactions have *ever* acquired a lock on each object; the
// reorganizer waits for all of them, which makes transactions behave as
// though they were strictly two-phase with respect to reorganization.
class LockManager {
 public:
  LockManager() : shards_(kNumShards) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Blocks until granted or until timeout elapses. `profile` describes
  // the requester for victim selection (defaults to a user transaction
  // holding nothing). On a grant, *released_at (if given) is raised to
  // the commit LSN of the latest early release of oid not yet known
  // stable (see Release).
  Status Acquire(TxnId txn, ObjectId oid, LockMode mode,
                 std::chrono::milliseconds timeout,
                 const WaiterProfile& profile = {},
                 Lsn* released_at = nullptr);

  // Releases txn's lock on oid (no-op if not held). `unstable_commit` is
  // the releaser's commit LSN when it releases before that commit is
  // stable (early lock release, DESIGN.md §9): it is recorded against oid
  // until ForgetEarlyReleases, so a later Acquire can report it.
  void Release(TxnId txn, ObjectId oid, Lsn unstable_commit = kInvalidLsn);

  // Drops the early-release records of `oids` whose commit LSN is at most
  // `stable` (a record raised by a later release stays). Called by the
  // releaser once its commit is stable.
  void ForgetEarlyReleases(const std::vector<ObjectId>& oids, Lsn stable);

  // True iff txn currently holds a lock on oid; *mode receives the mode.
  bool IsHeld(TxnId txn, ObjectId oid, LockMode* mode = nullptr) const;

  // Number of objects with at least one holder or waiter (lock-leak
  // checks in tests).
  size_t NumLockedObjects() const;

  // --- deadlock handling (DESIGN.md §10) --------------------------------
  void set_deadlock_policy(DeadlockPolicy p) {
    deadlock_policy_.store(p, std::memory_order_relaxed);
  }
  DeadlockPolicy deadlock_policy() const {
    return deadlock_policy_.load(std::memory_order_relaxed);
  }

  // Waits-for cycles broken (graph detection and upgrade fast-fail).
  uint64_t deadlocks_detected() const { return deadlocks_detected_.load(); }
  // Acquires cancelled with Status::DeadlockVictim, however chosen
  // (detector or fast-fail), and the subset whose profile was a
  // user transaction (tests assert this stays 0 when a reorg txn was
  // available in every cycle).
  uint64_t victims_aborted() const { return victims_aborted_.load(); }
  uint64_t user_victims() const { return user_victims_.load(); }
  // Cumulative lock-wait the victims did NOT burn: remaining time until
  // their timeout at the moment of victimization — what the paper's
  // timeout-only resolution would have stalled.
  uint64_t victim_wait_saved_ms() const { return victim_wait_saved_ms_.load(); }

  // --- lock history (Section 4.1 extension) -----------------------------
  void set_history_enabled(bool enabled) { history_enabled_ = enabled; }
  bool history_enabled() const { return history_enabled_; }

  // Active transactions that have ever locked oid since history was
  // enabled (excluding `except`).
  std::vector<TxnId> HistoricalHolders(ObjectId oid, TxnId except) const;

  // Drops txn from all history sets it appears in. `touched` is the set
  // of objects the transaction ever locked (tracked by the transaction).
  void ForgetTxn(TxnId txn, const std::vector<ObjectId>& touched);

  // Drops every lock, waiter, history and waits-for entry. Only used by
  // crash simulation (lock tables are volatile state); no threads may be
  // blocked in Acquire when this is called.
  void ClearAllState();

  // Enough shards that the few dozen objects concurrent transactions
  // lock rarely share one (DESIGN.md §10); about 0.2 MiB of shards. An
  // object's shard is ObjectIdHash{}(oid) % kNumShards.
  static constexpr size_t kNumShards = 1024;

 private:
  // One lock request; see Shard for how they are kept.
  struct Request {
    ObjectId oid;
    TxnId txn;
    bool has_held = false;
    LockMode held = LockMode::kShared;
    LockMode want = LockMode::kShared;
    bool waiting = false;
    // Set by the detector (under the shard mutex) when this pending
    // request is cancelled to break a cycle; the owning thread notices on
    // wakeup, withdraws, and returns Status::DeadlockVictim.
    bool victim = false;
    WaiterProfile profile;
  };

  // An early release (see Release): the object and the releaser's commit
  // LSN.
  struct EarlyRelease {
    ObjectId oid;
    Lsn commit;
  };

  // One cache line (or more) per shard, so two cores locking objects in
  // different shards never write the same line. `requests` holds every
  // request on the shard's objects in arrival order, so an object's FIFO
  // queue is its subsequence. It is erased in place, never swap-removed,
  // so each queue keeps its order; a waiter re-finds its request after
  // every wait, since the vector may have reallocated meanwhile. `cv` is shared by every waiter in the
  // shard: a wakeup meant for another object is re-checked and slept
  // through. `early` holds the shard's early releases whose commits are
  // not yet known stable: a few, each dropped by its releaser after its
  // force, so a flat vector scanned on grant.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::vector<Request> requests;
    std::vector<EarlyRelease> early;
    std::unordered_map<ObjectId, std::unordered_set<TxnId>> history;
  };

  // What a registered waiter is blocked on. The registry tells the
  // detector *which* (txn, object) pairs to inspect; the ground truth for
  // edges is always re-read from the shard queues under their mutexes.
  struct WaitRecord {
    ObjectId oid;
    WaiterProfile profile;
  };

  Shard& ShardFor(ObjectId oid) {
    return shards_[ObjectIdHash{}(oid) % kNumShards];
  }
  const Shard& ShardFor(ObjectId oid) const {
    return shards_[ObjectIdHash{}(oid) % kNumShards];
  }

  static bool Compatible(LockMode a, LockMode b) {
    return a == LockMode::kShared && b == LockMode::kShared;
  }

  // Grants whatever of oid's queue can be granted; returns true if
  // anything changed. Caller holds the shard mutex.
  static bool TryGrant(std::vector<Request>& requests, ObjectId oid);

  static Request* FindRequest(std::vector<Request>& requests, ObjectId oid,
                              TxnId txn);

  // Raises *released_at to oid's early-release LSN, if it has one. Caller
  // holds the shard mutex.
  static void NoteEarlyRelease(const Shard& shard, ObjectId oid,
                               Lsn* released_at);

  // Removes txn's pending request on oid — an upgrade reverts to its
  // originally held mode, a fresh request is erased — then re-grants.
  // The single exit path shared by timeout and deadlock-victim
  // cancellation, so neither can leave a strengthened waiter behind.
  // Caller holds the shard mutex.
  static void WithdrawRequest(Shard& shard, ObjectId oid, TxnId txn);

  // Waits-for registry (kDetect only). graph_mu_ is a strict leaf: it is
  // taken while holding a shard mutex (registration, victim exit) and
  // alone (snapshot); nothing is ever acquired under it.
  void RegisterWaiter(TxnId txn, ObjectId oid, const WaiterProfile& profile);
  void DeregisterWaiter(TxnId txn);

  // One detection pass on behalf of blocked transaction `self`. Caller
  // must NOT hold any shard mutex. Serialized by detector_mu_ (try-lock:
  // a concurrent pass is already scanning; self retries next grace
  // slice). Lock order: detector_mu_ -> one shard.mu at a time ->
  // graph_mu_.
  void RunDetection(TxnId self);

  std::vector<Shard> shards_;
  bool history_enabled_ = false;

  std::atomic<DeadlockPolicy> deadlock_policy_{kDefaultDeadlockPolicy};

  std::mutex graph_mu_;  // leaf; guards waiting_
  std::unordered_map<TxnId, WaitRecord> waiting_;
  std::mutex detector_mu_;  // serializes RunDetection passes

  std::atomic<uint64_t> deadlocks_detected_{0};
  std::atomic<uint64_t> victims_aborted_{0};
  std::atomic<uint64_t> user_victims_{0};
  std::atomic<uint64_t> victim_wait_saved_ms_{0};
};

}  // namespace brahma

#endif  // BRAHMA_TXN_LOCK_MANAGER_H_
