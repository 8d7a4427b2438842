#ifndef BRAHMA_CORE_IRA_H_
#define BRAHMA_CORE_IRA_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/params.h"
#include "common/status.h"
#include "core/relocation.h"
#include "core/reorg_checkpoint.h"
#include "core/side_effect_log.h"

namespace brahma {

class MigrationPipe;
class ReorgThrottle;

// Knobs for the Incremental Reorganization Algorithm.
struct IraOptions {
  // Section 4.2 extension: lock the object being migrated (old and new
  // locations) and the parents one at a time — at most two distinct
  // objects are locked at any point of time.
  bool two_lock_mode = false;

  // Section 4.3: migrations grouped per transaction to amortize logging.
  // In two-lock mode this instead groups parent updates per transaction.
  uint32_t group_size = 1;

  // Section 4.6: reclaim objects of the partition that the traversal did
  // not reach (they are garbage) after migration completes.
  bool collect_garbage = false;

  // Section 4.1 extension: transactions do not follow strict 2PL; after
  // locking an object the reorganizer additionally waits for every active
  // transaction that ever locked it. Requires LockManager history.
  bool wait_for_historical_lockers = false;

  // Lock-wait timeout for the reorganizer's own acquisitions (deadlocks
  // with user transactions are broken by timeout, Section 5).
  std::chrono::milliseconds lock_timeout = kPaperLockTimeout;

  // Safety valve on retries per object: requeues after a lock timeout,
  // a deadlock-victim abort or a clean abort, and two-lock mode's
  // per-parent lock retries. Exhausting it returns Status::RetryExhausted
  // with no reorganizer locks left held.
  uint32_t max_retries_per_object = 10000;

  // Exponential backoff between retries: a requeued migration (or a
  // two-lock parent retry) waits min(backoff_initial << attempt,
  // backoff_max), so a reorganizer losing deadlock breaks does not
  // spin-starve the user transactions it is losing to. backoff_initial of
  // zero disables.
  std::chrono::milliseconds backoff_initial{1};
  std::chrono::milliseconds backoff_max{64};

  // Graceful degradation: after this many cumulative lock timeouts the
  // run stops instead of retrying forever — every open migration group is
  // committed, a checkpoint is forced into checkpoint_sink (if any), and
  // Run/Resume return Status::Degraded. Completed migrations stay
  // durable; a later Resume from the checkpoint finishes the job when
  // contention subsides. 0 = unlimited (retry until
  // max_retries_per_object per object). The budget aggregates timeouts
  // across all workers.
  uint64_t contention_budget = 0;

  // Section 4.4: checkpoint the reorganization state (Traversed_Objects,
  // Parent_Lists, completed migrations) into *checkpoint_sink every
  // checkpoint_every migrations, so a failure does not force the
  // traversal to be redone. 0 disables.
  ReorgCheckpoint* checkpoint_sink = nullptr;
  uint32_t checkpoint_every = 0;

  // Migrator worker threads fed from one shared work queue (the
  // MigrationPipe) over the planner's order; 1 is the paper's sequential
  // reorganizer. Each worker drives its own reorg transactions through
  // MigrateBasic / MigrateTwoLock. A migration that times out on a lock,
  // is chosen as a deadlock victim or aborts cleanly is requeued with
  // exponential backoff (up to max_retries_per_object) while the worker
  // moves on; one whose footprint overlaps a sibling's in-flight
  // migration parks until that claim drops. Checkpoints are taken at a
  // barrier so they snapshot a consistent prefix (no worker is mid-group
  // while the snapshot is cut).
  uint32_t num_workers = 1;

  // SLO-driven admission control (DESIGN.md §14): when set, the pipeline's
  // worker count is additionally capped by this throttle — the serving
  // layer feeds it live user-latency samples and it sheds or paces
  // migration workers whenever the sliding-window p99 exceeds the SLO.
  // The pointer must outlive Run/Resume.
  ReorgThrottle* throttle = nullptr;
};

// The Incremental Reorganization Algorithm (paper Section 3): migrates
// every live object of a partition to planner-chosen locations while user
// transactions keep running, holding only the locks on the current
// object's parents (basic mode) or on at most two distinct objects
// (two-lock mode).
class IraReorganizer {
 public:
  explicit IraReorganizer(ReorgContext ctx) : ctx_(ctx) {}

  // Runs the full algorithm on partition p. Blocking; returns when every
  // live object of the partition has been migrated (and, optionally,
  // garbage reclaimed).
  Status Run(PartitionId p, RelocationPlanner* planner,
             const IraOptions& options, ReorgStats* stats);

  // Resumes a reorganization from a Section 4.4 checkpoint (typically
  // after restart recovery): the TRT is reconstructed from the log
  // generated since the checkpoint, the checkpointed traversal state is
  // patched for migrations that completed after the checkpoint, the
  // traversal is topped up from TRT-referenced objects only, and the
  // remaining objects are migrated.
  Status Resume(const ReorgCheckpoint& checkpoint, RelocationPlanner* planner,
                const IraOptions& options, ReorgStats* stats);

  // Footprint claims currently outstanding. Zero whenever no migration is
  // in flight — a claim that survives an abort is a leak (the abort
  // harness asserts this).
  size_t ActiveFootprintClaims() {
    std::lock_guard<std::mutex> g(claims_mu_);
    return claims_.size();
  }

 private:
  friend class MigrationPipe;

  // Per-worker migration state: the open Section 4.3 group transaction
  // and the compensation log its side effects are recorded in.
  struct MigratorState {
    std::unique_ptr<Transaction> group_txn;
    uint32_t in_group = 0;
    SideEffectLog side_effects;
  };

  // Clears the per-run relocation and claim tables.
  void ResetRunState();

  // Shared second step: migrate `objects` through the pipe (skipping
  // already-migrated / freed ones), then optionally sweep garbage and
  // disable the TRT.
  Status MigrateAllAndFinish(PartitionId p, RelocationPlanner* planner,
                             const IraOptions& options,
                             const std::unordered_set<ObjectId>& traversed,
                             std::vector<ObjectId> objects,
                             MigratedSet* migrated, ParentLists* plists,
                             ReorgStats* stats);

  // The migration loop: a work queue over the planner's order feeds
  // options.num_workers migrator workers. Returns the first non-ok status
  // any worker hit (crash wins over everything else).
  Status RunPipe(PartitionId p, RelocationPlanner* planner,
                 const IraOptions& options,
                 const std::unordered_set<ObjectId>& traversed,
                 const std::vector<ObjectId>& objects, MigratedSet* migrated,
                 ParentLists* plists, ReorgStats* stats);

  // One migrator worker: pops objects from the pipe, migrates them via
  // MigrateBasic / MigrateTwoLock, requeues losers with backoff, and
  // participates in checkpoint barriers.
  void WorkerMain(MigrationPipe* pipe, PartitionId p,
                  RelocationPlanner* planner, const IraOptions& options,
                  const std::unordered_set<ObjectId>& traversed,
                  MigratedSet* migrated, ParentLists* plists,
                  ReorgStats* stats);

  // Commits ws's open group and folds the commit status into `result`.
  // A crashed result abandons the group (a dead process commits nothing);
  // an Aborted result rolls the whole open group back — its transaction
  // aborts, replaying the group's side effects (accounted in *stats).
  static Status CloseGroup(MigratorState* ws, Status result,
                           ReorgStats* stats);

  // Snapshots the reorganization state into options.checkpoint_sink (if
  // any). Callers guarantee no migration group is open.
  void MaybeCheckpoint(PartitionId p, const IraOptions& options,
                       const std::unordered_set<ObjectId>& traversed,
                       const ParentLists& plists, const ReorgStats& stats);

  // Sleeps the exponential-backoff delay for the given retry attempt and
  // accounts for it in stats. No-op when backoff is disabled.
  void BackoffSleep(uint32_t attempt, const IraOptions& options,
                    ReorgStats* stats);

  // The backoff delay BackoffSleep would sleep for the given attempt.
  static std::chrono::milliseconds BackoffDelay(uint32_t attempt,
                                                const IraOptions& options);

  // True once stats->lock_timeouts has consumed options.contention_budget.
  static bool BudgetExhausted(const IraOptions& options,
                              const ReorgStats& stats) {
    return options.contention_budget > 0 &&
           stats.lock_timeouts >= options.contention_budget;
  }
  // Find_Exact_Parents (Figure 4). On success the exact parent set of oid
  // is locked by txn and recorded in plists; newly taken locks are listed
  // in *newly_locked so a timeout can release just this object's locks.
  Status FindExactParents(ObjectId oid, Transaction* txn,
                          const IraOptions& options, ParentLists* plists,
                          std::vector<ObjectId>* newly_locked,
                          ReorgStats* stats);

  // One migration attempt. A lock timeout returns Status::TimedOut with
  // every lock taken for this object released, so the pipe can requeue
  // the object with backoff. A footprint conflict returns Status::Busy
  // with *busy_blocker naming the anchor of the claim that blocked it, so
  // the pipe can park the item under exactly that claim.
  Status MigrateBasic(ObjectId oid, PartitionId p, RelocationPlanner* planner,
                      const IraOptions& options, MigratorState* ws,
                      MigratedSet* migrated, ParentLists* plists,
                      ReorgStats* stats, ObjectId* busy_blocker);

  // Two-lock mode retries a parent lock in place (the migration is
  // mid-flight by then) until `pipe` reports a crash.
  Status MigrateTwoLock(ObjectId oid, PartitionId p,
                        RelocationPlanner* planner, const IraOptions& options,
                        MigratedSet* migrated, ParentLists* plists,
                        ReorgStats* stats, MigrationPipe* pipe,
                        ObjectId* busy_blocker);

  // Parallel deadlock/livelock avoidance: a migration claims its anchor
  // and its initial parent snapshot before taking any lock; two claims
  // conflict iff their footprints intersect. Disjoint footprints mean no
  // two in-flight migrations ever wait on each other's locks — no
  // worker-worker deadlock, and cluster siblings (which share a tree
  // parent, and are adjacent in the traversal-ordered queue) defer
  // instead of serializing on the shared parent for a full migration
  // apiece. The loser returns false with *blocker naming the conflicting
  // claim's anchor (when non-null); the pipeline parks the object under
  // that claim, with no retry charge.
  bool TryClaimFootprint(ObjectId oid, const std::vector<ObjectId>& parents,
                         ObjectId* blocker = nullptr);
  void ReleaseFootprint(ObjectId oid);

  // Registers a Busy-deferred item with the pipe. Parks it under its
  // blocking claim when that claim is still outstanding — checked and
  // registered under claims_mu_, so ReleaseFootprint (same mutex) cannot
  // slip between the check and the park and strand the item. If the
  // blocker already released, the item is requeued ready immediately.
  void DeferOnClaim(MigrationPipe* pipe, ObjectId blocker, ObjectId oid,
                    uint32_t attempt);

  Status SweepGarbage(PartitionId p,
                      const std::unordered_set<ObjectId>& traversed,
                      const ReorgStats& stats_so_far, ReorgStats* stats);

  void WaitForHistoricalLockers(ObjectId oid, Transaction* txn);

  void RecordReverseRelocation(ObjectId onew, ObjectId oold);

  ReorgContext ctx_;
  // O_new -> O_old for this run. A transaction that copied a reference
  // out of an object before it migrated appears only in the lock history
  // of the old identity; Section 4.1 waits must chase pre-images.
  // Guarded by reloc_mu_ (N workers record and chase concurrently).
  std::mutex reloc_mu_;
  std::unordered_map<ObjectId, ObjectId> reverse_relocation_;
  // Active two-lock footprint claims: anchor -> {anchor} ∪ parents.
  std::mutex claims_mu_;
  std::unordered_map<ObjectId, std::unordered_set<ObjectId>> claims_;
  // Pipe to notify when a claim drops (claim-aware wakeup). Set by
  // RunPipe for the run's duration; guarded by claims_mu_. Lock
  // order is strictly claims_mu_ -> pipe mutex (the pipe never calls
  // back into the reorganizer), so release-and-wake is race-free.
  MigrationPipe* wake_pipe_ = nullptr;
};

}  // namespace brahma

#endif  // BRAHMA_CORE_IRA_H_
