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

  // Ablation knob: suppress the Section 4.5 TRT purge even under strict
  // 2PL (the TRT then only shrinks by drains).
  bool disable_trt_purge = false;

  // Lock-wait timeout for the reorganizer's own acquisitions (deadlocks
  // with user transactions are broken by timeout, Section 5).
  std::chrono::milliseconds lock_timeout = kPaperLockTimeout;

  // Safety valve on Find_Exact_Parents retries per object. Exhausting it
  // returns Status::RetryExhausted with no reorganizer locks left held.
  uint32_t max_retries_per_object = 10000;

  // Exponential backoff between lock-timeout retries: sleep
  // min(backoff_initial << attempt, backoff_max) before re-trying, so a
  // reorganizer losing deadlock breaks does not spin-starve the user
  // transactions it is losing to. backoff_initial of zero disables.
  std::chrono::milliseconds backoff_initial{1};
  std::chrono::milliseconds backoff_max{64};

  // Graceful degradation: after this many cumulative lock timeouts the
  // run stops instead of retrying forever — the open migration group is
  // committed, a checkpoint is forced into checkpoint_sink (if any), and
  // Run/Resume return Status::Degraded. Completed migrations stay
  // durable; a later Resume from the checkpoint finishes the job when
  // contention subsides. 0 = unlimited (retry until
  // max_retries_per_object per object). With num_workers > 1 the budget
  // aggregates timeouts across all workers.
  uint64_t contention_budget = 0;

  // Section 4.4: checkpoint the reorganization state (Traversed_Objects,
  // Parent_Lists, completed migrations) into *checkpoint_sink every
  // checkpoint_every migrations, so a failure does not force the
  // traversal to be redone. 0 disables.
  ReorgCheckpoint* checkpoint_sink = nullptr;
  uint32_t checkpoint_every = 0;

  // Parallel migration pipeline: number of migrator worker threads fed
  // from a shared work queue over the planner's order. 1 (default) runs
  // the classic sequential loop. With N > 1, each worker drives its own
  // reorg transaction through the same MigrateBasic / MigrateTwoLock
  // paths; a worker losing a lock race to a sibling defers — it requeues
  // the object with exponential backoff instead of blocking the pipeline.
  // Checkpoints are taken at a barrier so they snapshot a consistent
  // prefix (no worker is mid-group while the snapshot is cut).
  uint32_t num_workers = 1;

  // Claim-aware wakeup (parallel pipeline): a migration deferred by a
  // footprint conflict parks under the blocking claim and is woken the
  // instant ReleaseFootprint drops that claim, instead of polling on the
  // blind kMigrationRequeueDelay timer. Off = the PR 2 retry-timer
  // behavior (kept as a bench ablation knob).
  bool claim_wakeup = true;

  // Adaptive worker control (parallel pipeline): shed a worker when the
  // windowed claim_deferrals : objects_migrated ratio says the remaining
  // clusters are too entangled to parallelize, add one back when
  // deferrals fade. Thresholds come from params.h (kAdaptive*).
  bool adaptive_workers = false;

  // SLO-driven admission control (DESIGN.md §14): when set, the parallel
  // pipeline's worker count is additionally capped by this throttle —
  // the serving layer feeds it live user-latency samples and it sheds or
  // paces migration workers whenever the sliding-window p99 exceeds the
  // SLO. Ignored by the sequential path (num_workers <= 1). The pointer
  // must outlive Run/Resume.
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
  // and the compensation log its side effects are recorded in. The
  // sequential path uses a single instance; the parallel pipeline gives
  // each worker its own.
  struct MigratorState {
    std::unique_ptr<Transaction> group_txn;
    uint32_t in_group = 0;
    SideEffectLog side_effects;
  };

  // Shared second step: migrate `objects` (skipping already-migrated /
  // freed ones), then optionally sweep garbage and disable the TRT.
  Status MigrateAllAndFinish(PartitionId p, RelocationPlanner* planner,
                             const IraOptions& options,
                             const std::unordered_set<ObjectId>& traversed,
                             std::vector<ObjectId> objects,
                             MigratedSet* migrated, ParentLists* plists,
                             ReorgStats* stats);

  // Sequential migration loop (num_workers <= 1): today's behavior.
  Status MigrateSequential(PartitionId p, RelocationPlanner* planner,
                           const IraOptions& options,
                           const std::unordered_set<ObjectId>& traversed,
                           const std::vector<ObjectId>& objects,
                           MigratedSet* migrated, ParentLists* plists,
                           ReorgStats* stats);

  // Parallel migration pipeline (num_workers > 1): a work-stealing queue
  // over the planner's order feeds N migrator workers. Returns the first
  // non-ok status any worker hit (crash wins over everything else).
  Status MigrateParallel(PartitionId p, RelocationPlanner* planner,
                         const IraOptions& options,
                         const std::unordered_set<ObjectId>& traversed,
                         const std::vector<ObjectId>& objects,
                         MigratedSet* migrated, ParentLists* plists,
                         ReorgStats* stats);

  // One migrator worker: pops objects from the pipe, migrates them via
  // MigrateBasic / MigrateTwoLock with defer-on-conflict, requeues losers
  // with backoff, and participates in checkpoint barriers.
  void WorkerMain(MigrationPipe* pipe, PartitionId p,
                  RelocationPlanner* planner, const IraOptions& options,
                  const std::unordered_set<ObjectId>& traversed,
                  MigratedSet* migrated, ParentLists* plists,
                  ReorgStats* stats);

  // Commits ws's open group and folds the commit status into `result`.
  // A crashed result abandons the group (a dead process commits nothing);
  // an Aborted result rolls the whole open group back — its transaction
  // aborts, replaying the group's side effects (accounted in *stats when
  // provided).
  static Status CloseGroup(MigratorState* ws, Status result,
                           ReorgStats* stats = nullptr);

  void MaybeCheckpoint(PartitionId p, const IraOptions& options,
                       const std::unordered_set<ObjectId>& traversed,
                       const ParentLists& plists, const ReorgStats& stats,
                       bool force = false, const MigratorState* ws = nullptr);

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

  // defer_on_conflict (parallel pipeline): a lock timeout returns
  // Status::TimedOut immediately — with every lock taken for this object
  // released and the open group committed — instead of retrying
  // internally, so the caller can requeue the object with backoff. A
  // footprint conflict returns Status::Busy with *busy_blocker naming
  // the anchor of the claim that blocked it (when non-null), so the
  // pipeline can park the item under exactly that claim.
  Status MigrateBasic(ObjectId oid, PartitionId p, RelocationPlanner* planner,
                      const IraOptions& options, MigratorState* ws,
                      bool defer_on_conflict, MigratedSet* migrated,
                      ParentLists* plists, ReorgStats* stats,
                      ObjectId* busy_blocker = nullptr);

  Status MigrateTwoLock(ObjectId oid, PartitionId p,
                        RelocationPlanner* planner, const IraOptions& options,
                        bool defer_on_conflict, MigratedSet* migrated,
                        ParentLists* plists, ReorgStats* stats,
                        ObjectId* busy_blocker = nullptr);

  // Parallel deadlock/livelock avoidance: a migration claims its anchor
  // and its initial parent snapshot before taking any lock; two claims
  // conflict iff their footprints intersect. Disjoint footprints mean no
  // two in-flight migrations ever wait on each other's locks — no
  // worker-worker deadlock, and cluster siblings (which share a tree
  // parent, and are adjacent in the traversal-ordered queue) defer
  // instead of serializing on the shared parent for a full migration
  // apiece. The loser returns false with *blocker naming the conflicting
  // claim's anchor (when non-null); the pipeline parks the object under
  // that claim (claim_wakeup) or requeues it with a short constant delay
  // (ablation mode) — either way, no retry charge.
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
  // MigrateParallel for the run's duration; guarded by claims_mu_. Lock
  // order is strictly claims_mu_ -> pipe mutex (the pipe never calls
  // back into the reorganizer), so release-and-wake is race-free.
  MigrationPipe* wake_pipe_ = nullptr;
};

}  // namespace brahma

#endif  // BRAHMA_CORE_IRA_H_
