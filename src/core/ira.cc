#include "core/ira.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/epoch.h"
#include "common/failpoint.h"
#include "core/fuzzy_traversal.h"
#include "core/migration_pipe.h"
#include "core/reorg_throttle.h"

namespace brahma {

namespace {

// Follows the relocation map until the id names a live object (a TRT
// tuple recorded before its parent migrated may carry the stale parent).
ObjectId ResolveRelocated(const ObjectStore& store, const ReorgStats& stats,
                          ObjectId id) {
  while (!store.Validate(id)) {
    ObjectId next;
    if (!stats.Relocated(id, &next)) break;
    id = next;
  }
  return id;
}

template <typename F>
struct Cleanup {
  F fn;
  ~Cleanup() { fn(); }
};
template <typename F>
Cleanup<F> MakeCleanup(F fn) {
  return Cleanup<F>{std::move(fn)};
}

// Closes a Run/Resume's stats with its wall-clock. Retirements queued at
// the tail of the run get a drain pass first, now that the migration
// transactions are done: compaction accounting (and the fragmentation
// assertions in tests) wants O_old's holes back as soon as the last
// reader's grace period allows.
void FinishRun(const ReorgContext& ctx, const Stopwatch& sw,
               ReorgStats* stats) {
  stats->duration_ms = sw.ElapsedMillis();
  if (ctx.epoch != nullptr) ctx.epoch->AdvanceAndDrain();
}

}  // namespace

void IraReorganizer::ResetRunState() {
  {
    std::lock_guard<std::mutex> g(reloc_mu_);
    reverse_relocation_.clear();
  }
  std::lock_guard<std::mutex> g(claims_mu_);
  claims_.clear();
}

Status IraReorganizer::Run(PartitionId p, RelocationPlanner* planner,
                           const IraOptions& options, ReorgStats* stats) {
  if (options.wait_for_historical_lockers && !ctx_.locks->history_enabled()) {
    return Status::InvalidArgument(
        "wait_for_historical_lockers requires lock history");
  }
  Stopwatch sw;

  // Start collecting pointer inserts/deletes for the partition. Sync
  // first so pre-reorganization history (already reflected in the graph
  // and the ERTs) does not leak into the TRT. Delete tuples may be purged
  // on transaction completion only under strict 2PL (Section 4.5).
  const bool strict = ctx_.txns->ctx().strict_2pl;
  ctx_.analyzer->Sync();
  ctx_.trt->Enable(p, strict);

  // Quiesce barrier: wait for all transactions active at the time the
  // reorganization started, so all relevant updates are in the TRT
  // (Section 4.5).
  ctx_.txns->WaitForAll(ctx_.txns->ActiveTxns());

  // Step 1: Find_Objects_And_Approx_Parents.
  FuzzyTraversal traversal(ctx_.store, ctx_.erts, ctx_.trt, ctx_.analyzer,
                           ctx_.epoch);
  TraversalResult tr = traversal.Run(p);
  stats->traversal_visited = tr.objects_visited;

  ParentLists plists = std::move(tr.parents);
  std::vector<ObjectId> objects(tr.traversed.begin(), tr.traversed.end());
  planner->Order(&objects);

  // Step 2: for each object, find and lock the exact parents, then move.
  MigratedSet migrated;
  ResetRunState();
  Status result = MigrateAllAndFinish(p, planner, options, tr.traversed,
                                      std::move(objects), &migrated, &plists,
                                      stats);
  FinishRun(ctx_, sw, stats);
  return result;
}

Status IraReorganizer::Resume(const ReorgCheckpoint& checkpoint,
                              RelocationPlanner* planner,
                              const IraOptions& options, ReorgStats* stats) {
  if (!checkpoint.valid) {
    return Status::InvalidArgument("invalid reorg checkpoint");
  }
  if (options.wait_for_historical_lockers && !ctx_.locks->history_enabled()) {
    return Status::InvalidArgument(
        "wait_for_historical_lockers requires lock history");
  }
  Stopwatch sw;
  const PartitionId p = checkpoint.partition;
  const bool strict = ctx_.txns->ctx().strict_2pl;

  // Reconstruct the TRT from the log generated since the checkpoint
  // (Section 4.4), then let the live analyzer keep noting new updates.
  // (Records between restart and this call may be noted twice — extra
  // tuples only cost drain work.)
  ctx_.trt->Enable(p, strict);
  ReconstructTrt(ctx_.log, checkpoint.lsn, ctx_.trt);
  ctx_.analyzer->Sync();
  ctx_.txns->WaitForAll(ctx_.txns->ActiveTxns());

  // Restore the checkpointed traversal state.
  TraversalResult tr;
  tr.traversed = checkpoint.traversed;
  tr.parents = ParentLists::FromFlat(checkpoint.parents);
  MigratedSet migrated;
  ResetRunState();
  for (const auto& [old_id, new_id] : checkpoint.relocation) {
    migrated.Insert(old_id);
    stats->AddRelocation(old_id, new_id);
    // Re-arm the store-level chase table for latch-free readers holding
    // pre-crash ids (the table is volatile; the checkpoint is its redo).
    ctx_.store->PublishRelocation(old_id, new_id);
    RecordReverseRelocation(new_id, old_id);
  }
  // Patch for migrations that committed after the checkpoint: their old
  // identities are dead; parents recorded under them now live in the new
  // copies.
  for (const auto& [old_id, new_id] :
       PostCheckpointRelocations(ctx_.log, checkpoint.lsn)) {
    if (migrated.Contains(old_id)) continue;
    // Only a migration that stuck counts: old dead, new live. A rolled
    // back migration leaves the old copy live (WAL undo or compensation
    // recreated it) and the new one freed — it must be re-migrated, not
    // patched into the parent lists.
    if (ctx_.store->Validate(old_id) || !ctx_.store->Validate(new_id)) {
      continue;
    }
    migrated.Insert(old_id);
    stats->AddRelocation(old_id, new_id);
    ctx_.store->PublishRelocation(old_id, new_id);
    RecordReverseRelocation(new_id, old_id);
    tr.parents.ReplaceParentEverywhere(old_id, new_id);
    tr.parents.Erase(old_id);
  }

  // Top up the traversal from TRT-referenced objects only — the
  // checkpoint spares us the full partition traversal.
  FuzzyTraversal traversal(ctx_.store, ctx_.erts, ctx_.trt, ctx_.analyzer,
                           ctx_.epoch);
  traversal.TopUp(p, &tr);
  stats->traversal_visited = tr.traversed.size();

  std::vector<ObjectId> objects;
  objects.reserve(tr.traversed.size());
  for (ObjectId oid : tr.traversed) {
    if (!migrated.Contains(oid)) objects.push_back(oid);
  }
  planner->Order(&objects);
  Status result = MigrateAllAndFinish(p, planner, options, tr.traversed,
                                      std::move(objects), &migrated,
                                      &tr.parents, stats);
  FinishRun(ctx_, sw, stats);
  return result;
}

Status IraReorganizer::MigrateAllAndFinish(
    PartitionId p, RelocationPlanner* planner, const IraOptions& options,
    const std::unordered_set<ObjectId>& traversed,
    std::vector<ObjectId> objects, MigratedSet* migrated, ParentLists* plists,
    ReorgStats* stats) {
  Status result = RunPipe(p, planner, options, traversed, objects, migrated,
                          plists, stats);
  if (result.IsCrashed()) {
    // Simulated crash: a dead process commits nothing, releases nothing,
    // and never reaches the GC sweep. Groups were abandoned on the way
    // out so quiesce barriers do not wait on a ghost; restart recovery
    // owns the cleanup.
    return result;
  }

  if (result.IsDegraded() || result.IsRetryExhausted()) {
    // Clean early stop — graceful degradation or retry exhaustion. Every
    // completed migration is committed and every rolled-back one was
    // compensated, so the state is consistent: persist exactly how far we
    // got (bypassing the checkpoint cadence) so a later Resume finishes
    // the job when contention subsides.
    MaybeCheckpoint(p, options, traversed, *plists, *stats);
    ctx_.trt->Disable();
    return result;
  }

  // Section 4.6: everything allocated in the partition that the traversal
  // did not reach is garbage — reclaim it.
  if (result.ok() && options.collect_garbage) {
    result = SweepGarbage(p, traversed, *stats, stats);
    if (result.IsCrashed()) return result;
  }

  ctx_.trt->Disable();
  return result;
}

Status IraReorganizer::RunPipe(PartitionId p, RelocationPlanner* planner,
                               const IraOptions& options,
                               const std::unordered_set<ObjectId>& traversed,
                               const std::vector<ObjectId>& objects,
                               MigratedSet* migrated, ParentLists* plists,
                               ReorgStats* stats) {
  MigrationPipe::Options popt;
  popt.workers = std::max(options.num_workers, 1u);
  popt.checkpoint_every =
      options.checkpoint_sink != nullptr ? options.checkpoint_every : 0;
  MigrationPipe pipe(objects, popt);
  {
    std::lock_guard<std::mutex> g(claims_mu_);
    wake_pipe_ = &pipe;
  }
  if (options.throttle != nullptr) {
    options.throttle->AttachPipe(&pipe, popt.workers);
  }
  auto work = [&] {
    WorkerMain(&pipe, p, planner, options, traversed, migrated, plists,
               stats);
  };
  // The calling thread is worker 0, so a one-worker run starts no thread.
  std::vector<std::thread> siblings;
  siblings.reserve(popt.workers - 1);
  for (uint32_t i = 1; i < popt.workers; ++i) siblings.emplace_back(work);
  work();
  for (std::thread& t : siblings) t.join();
  if (options.throttle != nullptr) options.throttle->DetachPipe(&pipe);
  {
    std::lock_guard<std::mutex> g(claims_mu_);
    wake_pipe_ = nullptr;
  }
  // Pipe-local scheduling counters fold into the run's stats after the
  // join (the pipe dies with this frame).
  stats->claim_wakeups += pipe.claim_wakeups();
  return pipe.result();
}

void IraReorganizer::WorkerMain(MigrationPipe* pipe, PartitionId p,
                                RelocationPlanner* planner,
                                const IraOptions& options,
                                const std::unordered_set<ObjectId>& traversed,
                                MigratedSet* migrated, ParentLists* plists,
                                ReorgStats* stats) {
  MigratorState ws;
  // Attempt count of each object when this worker last popped it. Every
  // migration a rollback undoes re-enters the pipe one attempt further
  // on — the failing one and the earlier members of its group alike — so
  // an endless fault schedule always exhausts some object's retries.
  std::unordered_map<ObjectId, uint32_t> tries;
  // Requeues rolled-back migration `o` with backoff, or stops the pipe
  // once `o` has used up max_retries_per_object (false). `popped` is the
  // item this worker holds from Pop (Requeue balances that Pop; earlier
  // group members already left the pipe and are reinjected).
  auto retry = [&](ObjectId o, bool popped, const Status& why) -> bool {
    const uint32_t attempt = tries[o];
    if (attempt + 1 >= options.max_retries_per_object) {
      pipe->Stop(Status::RetryExhausted(
          "gave up migrating " + o.ToString() + " after " +
          std::to_string(options.max_retries_per_object) +
          " attempts, last: " + why.ToString()));
      return false;
    }
    const std::chrono::milliseconds delay = BackoffDelay(attempt, options);
    if (delay.count() > 0) {
      ++stats->backoff_sleeps;
      stats->backoff_total_ms += static_cast<uint64_t>(delay.count());
    }
    if (popped) {
      pipe->Requeue(o, attempt + 1, delay);
    } else {
      pipe->Reinject(o, attempt + 1, delay);
    }
    return true;
  };
  // Commits the open group outside the per-item migration path (barrier,
  // timed-out lock race, drain). A *clean* commit failure — an injected
  // abort at a commit site — already rolled the whole group back in
  // CloseGroup, so the undone migrations re-enter the pipe and the run
  // keeps going; only crashes and non-abort errors halt the pipeline.
  // Which CloseGroup a scheduled abort lands on is timing-dependent, so
  // every commit site must survive it, not just the group-size boundary.
  auto commit_open_group = [&](bool* reinjected = nullptr) -> Status {
    Status cs = CloseGroup(&ws, Status::Ok(), stats);
    if (!cs.IsAborted()) return cs;
    for (ObjectId o : ws.side_effects.TakeRolledBackMigrations()) {
      retry(o, /*popped=*/false, cs);
      if (reinjected != nullptr) *reinjected = true;
    }
    return Status::Ok();
  };
  // Stops the pipe with `st` and retires the popped item.
  auto stop_with = [&](Status st) {
    pipe->Stop(std::move(st));
    pipe->Done();
  };
  for (;;) {
    MigrationPipe::Item item;
    const MigrationPipe::Next next = pipe->Pop(&item);
    if (next == MigrationPipe::Next::kStopped) break;
    if (next == MigrationPipe::Next::kDrained) {
      // Commit the final group before leaving. If that commit aborted,
      // the rolled-back migrations re-entered the pipe and "drained" was
      // premature — keep popping.
      bool reinjected = false;
      Status cs = commit_open_group(&reinjected);
      if (!cs.ok()) {
        pipe->Stop(cs);
        break;
      }
      if (!reinjected) break;
      continue;
    }
    if (next == MigrationPipe::Next::kBarrier) {
      // Commit the open group first so the checkpoint only ever covers
      // committed migrations, then rendezvous with the other workers.
      Status cs = commit_open_group();
      if (!cs.ok()) {
        pipe->Stop(cs);
        continue;  // next Pop returns kStopped
      }
      if (pipe->ArriveBarrier()) {
        if (!pipe->stopped()) {
          MaybeCheckpoint(p, options, traversed, *plists, *stats);
        }
        pipe->BarrierCut(stats->objects_migrated + options.checkpoint_every);
      }
      continue;
    }
    AtomicMax(&stats->trt_peak_size, ctx_.trt->Size());
    if (!ctx_.store->Validate(item.oid)) {
      pipe->Done();
      continue;
    }
    tries[item.oid] = item.attempt;
    ObjectId busy_blocker = ObjectId::Invalid();
    Status s = options.two_lock_mode
                   ? MigrateTwoLock(item.oid, p, planner, options, migrated,
                                    plists, stats, pipe, &busy_blocker)
                   : MigrateBasic(item.oid, p, planner, options, &ws,
                                  migrated, plists, stats, &busy_blocker);
    if (s.IsBusy()) {
      // Footprint overlap with a sibling's in-flight migration. No lock
      // wait was burned and no lock is held for this object (no retry
      // charge: deferral is flow control, not contention). The item parks
      // under the blocking claim — ReleaseFootprint wakes exactly these
      // waiters — and this worker moves on to a disjoint item.
      DeferOnClaim(pipe, busy_blocker, item.oid, item.attempt);
      continue;
    }
    if (s.IsTimedOut() || s.IsAborted() || s.IsDeadlockVictim()) {
      if (s.IsTimedOut()) {
        // Lost a lock race — to a sibling worker or a user transaction.
        // Commit the open group so this worker retains no locks while the
        // object waits out its backoff.
        Status cs = commit_open_group();
        if (!cs.ok()) {
          stop_with(cs);
          continue;
        }
        if (BudgetExhausted(options, *stats)) {
          stop_with(Status::Degraded("contention budget exhausted at " +
                                     item.oid.ToString()));
          continue;
        }
      } else {
        // The migration transaction aborted cleanly — an injected abort,
        // or chosen to break a waits-for cycle — and WAL undo plus
        // side-effect replay restored the pre-migration state. Roll the
        // open group back too (its earlier migrations shared the aborted
        // path's transaction scope; a victim's callee already did) and
        // requeue every migration the rollback undid. A victim is charged
        // to neither lock_timeouts nor the contention budget: detection
        // saved the timeout, it did not burn one.
        if (s.IsAborted()) CloseGroup(&ws, s, stats);
        for (ObjectId o : ws.side_effects.TakeRolledBackMigrations()) {
          if (o != item.oid) retry(o, /*popped=*/false, s);
        }
      }
      if (!retry(item.oid, /*popped=*/true, s)) pipe->Done();
      continue;
    }
    if (!s.ok()) {
      stop_with(s);
      continue;
    }
    pipe->Done();
    if (options.checkpoint_sink != nullptr && options.checkpoint_every > 0 &&
        pipe->CheckpointDue(stats->objects_migrated)) {
      pipe->RequestCheckpoint();
    }
  }
  if (pipe->result().IsCrashed()) {
    // A crashed pipeline abandons open groups: a dead process commits
    // nothing.
    if (ws.group_txn != nullptr) {
      ws.group_txn->Abandon();
      ws.group_txn.reset();
    }
  } else {
    // Stopped exits (degraded, retry-exhausted, sibling failure): commit
    // the open group to keep finished migrations durable. A clean commit
    // abort here was already rolled back by CloseGroup — the run's first
    // failure stays the result (crash-wins aside), and the undone
    // migrations are simply left for the follow-up run or Resume.
    Status cs = CloseGroup(&ws, Status::Ok(), stats);
    if (!cs.ok() && !cs.IsAborted()) pipe->Stop(cs);
  }
  pipe->WorkerExit();
}

Status IraReorganizer::CloseGroup(MigratorState* ws, Status result,
                                  ReorgStats* stats) {
  if (result.IsCrashed()) {
    if (ws->group_txn != nullptr) {
      ws->group_txn->Abandon();
      ws->group_txn.reset();
    }
    ws->in_group = 0;
    return result;
  }
  if (result.IsAborted()) {
    // A voluntary abort rolls the whole open group back: the group is one
    // transaction, so its WAL undo and side-effect replay cover every
    // migration in it (including ones completed before the abort point —
    // their kMigrated markers land in the rolled-back list for requeue).
    if (ws->group_txn != nullptr) {
      ws->group_txn->Abort();
      ws->group_txn.reset();
      ++stats->aborts_rolled_back;
    }
    ws->in_group = 0;
    return result;
  }
  if (ws->group_txn != nullptr) {
    Status cs = ws->group_txn->Commit();
    if (cs.IsCrashed()) {
      ws->group_txn->Abandon();
      ws->group_txn.reset();
      ws->in_group = 0;
      return cs;
    }
    if (!cs.ok()) {
      // The commit itself failed cleanly (injected abort at a commit
      // site): the transaction is still active — roll it back so the
      // caller sees fully-compensated state, not a half-committed one.
      ws->group_txn->Abort();
      ++stats->aborts_rolled_back;
    }
    ws->group_txn.reset();
    if (result.ok() && !cs.ok()) result = cs;
  }
  ws->in_group = 0;
  return result;
}

std::chrono::milliseconds IraReorganizer::BackoffDelay(
    uint32_t attempt, const IraOptions& options) {
  if (options.backoff_initial.count() <= 0) {
    return std::chrono::milliseconds(0);
  }
  // Deterministic (no jitter) so fault schedules replay identically.
  uint64_t ms = static_cast<uint64_t>(options.backoff_initial.count());
  const uint64_t cap =
      static_cast<uint64_t>(std::max<int64_t>(options.backoff_max.count(), 1));
  for (uint32_t i = 0; i < attempt && ms < cap; ++i) ms <<= 1;
  ms = std::min(ms, cap);
  return std::chrono::milliseconds(ms);
}

void IraReorganizer::BackoffSleep(uint32_t attempt, const IraOptions& options,
                                  ReorgStats* stats) {
  const std::chrono::milliseconds delay = BackoffDelay(attempt, options);
  if (delay.count() <= 0) return;
  ++stats->backoff_sleeps;
  stats->backoff_total_ms += static_cast<uint64_t>(delay.count());
  std::this_thread::sleep_for(delay);
}

void IraReorganizer::MaybeCheckpoint(
    PartitionId p, const IraOptions& options,
    const std::unordered_set<ObjectId>& traversed, const ParentLists& plists,
    const ReorgStats& stats) {
  if (options.checkpoint_sink == nullptr) return;
  ReorgCheckpoint* ckpt = options.checkpoint_sink;
  ckpt->partition = p;
  ckpt->lsn = ctx_.log->last_lsn();
  ckpt->traversed = traversed;
  ckpt->parents = plists.Flatten();
  ckpt->relocation = stats.RelocationSnapshot();
  ckpt->valid = true;
}

void IraReorganizer::RecordReverseRelocation(ObjectId onew, ObjectId oold) {
  std::lock_guard<std::mutex> g(reloc_mu_);
  reverse_relocation_[onew] = oold;
}

void IraReorganizer::WaitForHistoricalLockers(ObjectId oid, Transaction* txn) {
  // Wait for every active transaction that ever locked this object —
  // under any identity it had during this run. A reader of the
  // pre-migration copy may still hold its references in local memory.
  for (;;) {
    for (TxnId t : ctx_.locks->HistoricalHolders(oid, txn->id())) {
      ctx_.txns->WaitForTxn(t);
    }
    bool has_prev = false;
    ObjectId prev;
    {
      std::lock_guard<std::mutex> g(reloc_mu_);
      auto it = reverse_relocation_.find(oid);
      if (it != reverse_relocation_.end()) {
        prev = it->second;
        has_prev = true;
      }
    }
    if (!has_prev) break;
    oid = prev;
  }
}

bool IraReorganizer::TryClaimFootprint(ObjectId oid,
                                       const std::vector<ObjectId>& parents,
                                       ObjectId* blocker) {
  std::lock_guard<std::mutex> g(claims_mu_);
  for (const auto& [anchor, footprint] : claims_) {
    // Conflict when the footprints intersect at all. The traversal feeds
    // workers cluster-ordered objects, so adjacent queue items are
    // siblings sharing a tree parent: letting both proceed would make
    // them serialize on (or deadlock over) the shared parent's lock for
    // a full migration apiece. Deferring the overlap up front costs a
    // map probe; the deferring worker skips ahead to a disjoint subtree.
    // Disjoint footprints also make worker-worker deadlock structurally
    // impossible — no two in-flight migrations ever want the same lock.
    bool conflict = footprint.count(oid) > 0;
    for (size_t i = 0; !conflict && i < parents.size(); ++i) {
      conflict = footprint.count(parents[i]) > 0;
    }
    if (conflict) {
      if (blocker != nullptr) *blocker = anchor;
      return false;
    }
  }
  auto& fp = claims_[oid];
  fp.insert(oid);
  fp.insert(parents.begin(), parents.end());
  return true;
}

void IraReorganizer::ReleaseFootprint(ObjectId oid) {
  std::lock_guard<std::mutex> g(claims_mu_);
  claims_.erase(oid);
  // Wake exactly the items this claim deferred — under the same mutex
  // the park was registered under, so no waiter can be stranded between
  // a failed claim and this release.
  if (wake_pipe_ != nullptr) wake_pipe_->OnClaimReleased(oid);
}

void IraReorganizer::DeferOnClaim(MigrationPipe* pipe, ObjectId blocker,
                                  ObjectId oid, uint32_t attempt) {
  std::lock_guard<std::mutex> g(claims_mu_);
  if (claims_.count(blocker) > 0) {
    pipe->ParkOnClaim(blocker, oid, attempt);
  } else {
    // The blocker released between the failed claim and here — its
    // wakeup already happened, so parking would strand the item. It is
    // ready right now.
    pipe->Requeue(oid, attempt, std::chrono::milliseconds(0));
  }
}

Status IraReorganizer::FindExactParents(ObjectId oid, Transaction* txn,
                                        const IraOptions& options,
                                        ParentLists* plists,
                                        std::vector<ObjectId>* newly_locked,
                                        ReorgStats* stats) {
  std::unordered_set<ObjectId> locked_here;
  auto lock_parent = [&](ObjectId r) -> Status {
    if (txn->Holds(r)) return Status::Ok();
    Status s = txn->LockWithTimeout(r, LockMode::kExclusive,
                                    options.lock_timeout);
    if (!s.ok()) {
      // Only genuine lock-wait timeouts count against the contention
      // budget; injected crashes/errors propagate untallied.
      if (s.IsTimedOut()) ++stats->lock_timeouts;
      return s;
    }
    newly_locked->push_back(r);
    locked_here.insert(r);
    if (options.wait_for_historical_lockers) {
      WaitForHistoricalLockers(r, txn);
    }
    return s;
  };
  auto unlock_here = [&](ObjectId r) {
    if (locked_here.erase(r) > 0) {
      txn->Unlock(r);
      newly_locked->erase(
          std::find(newly_locked->begin(), newly_locked->end(), r));
    }
  };

  for (;;) {
    // S1: lock the approximate parents, prune those that no longer hold a
    // reference (it was deleted after the fuzzy traversal saw them).
    // Locks are taken in ascending object order: cluster siblings share
    // parents (tree parent + glue), so two workers locking overlapping
    // parent sets in per-object hash order would deadlock against each
    // other and burn a full lock timeout apiece. A global acquisition
    // order makes worker-worker parent cycles impossible.
    std::vector<ObjectId> approx = plists->Get(oid);
    std::sort(approx.begin(), approx.end());
    for (ObjectId r : approx) {
      if (r == oid || txn->Holds(r)) continue;
      Status s = lock_parent(r);
      if (!s.ok()) return s;
      if (!IsParentOf(ctx_.store, r, oid)) {
        plists->RemoveParent(oid, r);
        unlock_here(r);
      }
    }

    // S2: drain TRT tuples naming oid as the referenced object. Each
    // round syncs the analyzer so a tuple logged by a completed
    // transaction cannot be missed (Lemma 3.2, case 2), then processes
    // the whole batch of tuples present — one-at-a-time draining could be
    // outpaced by new insertions on hot objects.
    for (;;) {
      ctx_.analyzer->Sync();
      std::vector<TrtTuple> batch = ctx_.trt->TuplesFor(oid);
      if (batch.empty()) break;
      for (const TrtTuple& t : batch) {
        ObjectId r = ResolveRelocated(*ctx_.store, *stats, t.parent);
        if (r != oid) {
          Status s = lock_parent(r);
          if (!s.ok()) return s;  // tuple stays; retry will reprocess it
        }
        ctx_.trt->EraseTuple(t);
        ++stats->trt_tuples_drained;
        if (r != oid && IsParentOf(ctx_.store, r, oid)) {
          plists->AddParent(oid, r);  // persists across retries
        } else if (r != oid && !plists->Contains(oid, r)) {
          unlock_here(r);
        }
      }
    }

    // Parallel stability check: while this worker was locking, a sibling
    // migrating one of oid's parents P replaced P by P_new in oid's list
    // (FinishMigration's child fix-up). The set is exact only once every
    // listed parent is held — at that point all of them are pinned, so no
    // concurrent migration can change the list anymore. One-worker runs
    // pass on the first iteration.
    bool stable = true;
    for (ObjectId r : plists->Get(oid)) {
      if (r != oid && !txn->Holds(r)) {
        stable = false;
        break;
      }
    }
    if (stable) break;
  }
  return Status::Ok();
}

Status IraReorganizer::MigrateBasic(ObjectId oid, PartitionId p,
                                    RelocationPlanner* planner,
                                    const IraOptions& options,
                                    MigratorState* ws, MigratedSet* migrated,
                                    ParentLists* plists, ReorgStats* stats,
                                    ObjectId* busy_blocker) {
  if (!TryClaimFootprint(oid, plists->Get(oid), busy_blocker)) {
    ++stats->claim_deferrals;
    return Status::Busy("deferred: conflicting migration footprint at " +
                        oid.ToString());
  }
  auto release_claim = MakeCleanup([&] { ReleaseFootprint(oid); });
  if (ws->group_txn == nullptr) {
    ws->group_txn = ctx_.txns->Begin(LogSource::kReorg);
    ws->in_group = 0;
    // Side-table mutations under this transaction record compensating
    // closures; an abort replays them before the locks drop.
    ws->side_effects.set_compensation_counter(
        &stats->side_effects_compensated);
    ws->group_txn->set_side_effect_log(&ws->side_effects);
  }
  Transaction* txn = ws->group_txn.get();
  std::vector<ObjectId> newly_locked;
  Status s = Status::Ok();
  if (options.num_workers > 1 && !txn->Holds(oid)) {
    // With sibling workers, basic mode must own-lock the object being
    // migrated: FreeObject is lock-free for reorg transactions, and a
    // sibling holding oid as a *parent* could otherwise rewrite its slots
    // between this worker's content copy and the free. One worker locks
    // exactly the paper's basic-mode set: the parents.
    s = txn->LockWithTimeout(oid, LockMode::kExclusive, options.lock_timeout);
    if (s.ok()) {
      newly_locked.push_back(oid);
      if (options.wait_for_historical_lockers) {
        WaitForHistoricalLockers(oid, txn);
      }
    } else if (s.IsTimedOut()) {
      ++stats->lock_timeouts;
    }
  }
  if (s.ok()) {
    s = FindExactParents(oid, txn, options, plists, &newly_locked, stats);
  }
  if (s.IsTimedOut()) {
    // Release only this object's locks; the pipe requeues the object with
    // backoff and Find_Exact_Parents reruns (the paper: it must be
    // reinvoked if it fails due to a deadlock).
    for (ObjectId l : newly_locked) txn->Unlock(l);
    ++stats->find_exact_retries;
    return s;
  }
  if (s.IsDeadlockVictim()) {
    // Selected to break a waits-for cycle: the cycle runs through locks
    // this group transaction HOLDS, so unlocking just this object's new
    // locks would not break it — abort the whole group. WAL undo plus
    // side-effect replay restore every member and release every lock;
    // the caller requeues the rolled-back migrations. Deliberately not
    // charged to lock_timeouts or the contention budget.
    ws->group_txn->Abort();
    ++stats->aborts_rolled_back;
    ws->group_txn.reset();
    ws->in_group = 0;
    return s;
  }
  if (!s.ok()) return s;
  // Crash here: exact parents locked, nothing moved yet. Recovery sees
  // only completed (uncommitted) group work, which it undoes.
  BRAHMA_FAILPOINT("ira:basic:after-parent-locks");

  ObjectId onew;
  s = MoveObjectAndUpdateRefs(ctx_, txn, oid, planner, plists->Get(oid), p,
                              migrated, plists, stats, &onew);
  if (!s.ok()) {
    if (s.IsCrashed()) {
      ws->group_txn->Abandon();
    } else {
      // Clean rollback: WAL undo restores object state, the side-effect
      // replay (triggered inside Abort, before lock release) restores
      // the side tables — including earlier migrations of this group.
      ws->group_txn->Abort();
      ++stats->aborts_rolled_back;
    }
    ws->group_txn.reset();
    ws->in_group = 0;
    return s;
  }
  migrated->Insert(oid);
  RecordReverseRelocation(onew, oid);
  {
    // The migration markers roll back with the group: replaying this
    // entry un-migrates the object and reports it for requeue.
    IraReorganizer* self = this;
    MigratedSet* mset = migrated;
    ws->side_effects.RecordMigrated(txn->id(), oid, [self, mset, oid, onew] {
      mset->Erase(oid);
      std::lock_guard<std::mutex> g(self->reloc_mu_);
      self->reverse_relocation_.erase(onew);
    });
  }
  AtomicMax(&stats->max_distinct_objects_locked, txn->num_locks_held());
  if (++ws->in_group >= options.group_size) {
    // Crash here: the whole group's migrations are in the (unflushed)
    // log without a commit record — recovery rolls them all back.
    BRAHMA_FAILPOINT("ira:basic:before-commit");
    return CloseGroup(ws, Status::Ok(), stats);
  }
  return Status::Ok();
}

Status IraReorganizer::MigrateTwoLock(ObjectId oid, PartitionId p,
                                      RelocationPlanner* planner,
                                      const IraOptions& options,
                                      MigratedSet* migrated,
                                      ParentLists* plists, ReorgStats* stats,
                                      MigrationPipe* pipe,
                                      ObjectId* busy_blocker) {
  // Claim before taking any lock: anchor locks are held to completion, so
  // overlapping in-flight migrations could wait on each other forever (or
  // at best serialize on a shared parent). A footprint conflict defers
  // instantly instead of burning a lock wait.
  if (!TryClaimFootprint(oid, plists->Get(oid), busy_blocker)) {
    ++stats->claim_deferrals;
    return Status::Busy("deferred: conflicting migration footprint at " +
                        oid.ToString());
  }
  auto release_claim = MakeCleanup([&] { ReleaseFootprint(oid); });
  // Compensation log for this migration. Two-lock mode commits O_new's
  // create and the parent rewrites in their own transactions mid-flight,
  // so rolling the migration back needs two phases: pending replay for
  // whatever the open transactions did (their aborts trigger it), then
  // physical reversal of the committed prefix (CompensateCommitted in
  // bail, while the anchor still holds both copies).
  SideEffectLog sel;
  sel.set_compensation_counter(&stats->side_effects_compensated);

  // Anchor transaction: lock the object being migrated, in both the old
  // and (once created) the new location, for the whole migration.
  std::unique_ptr<Transaction> anchor = ctx_.txns->Begin(LogSource::kReorg);
  {
    Status s = anchor->LockWithTimeout(oid, LockMode::kExclusive,
                                       options.lock_timeout);
    if (s.IsCrashed()) {
      anchor->Abandon();
      return s;
    }
    if (!s.ok()) {
      // Nothing is held for this object yet: abort the empty anchor and
      // let the pipe requeue the object with backoff. A deadlock victim
      // burned no timeout, so only a timeout is charged.
      if (s.IsTimedOut()) ++stats->lock_timeouts;
      anchor->Abort();
      return s;
    }
  }
  anchor->set_side_effect_log(&sel);
  if (options.wait_for_historical_lockers) {
    // Section 4.1: whenever the IRA locks an object it waits for every
    // active transaction that ever locked it. For the anchor lock this
    // also flushes the undo of any such transaction that later aborts —
    // undo writes bypass the lock manager, so they must all be complete
    // before O_old's contents are copied.
    WaitForHistoricalLockers(oid, anchor.get());
  }
  // Exits with matching crash semantics: an injected crash abandons open
  // transactions (no undo, no lock release — restart recovery owns the
  // cleanup); clean failures abort them, which replays their pending side
  // effects, then physically reverse the committed prefix (parent
  // rewrites newest-first, then the O_new create) while the anchor still
  // holds O_old and O_new — no other thread ever observes dual-copy
  // state, mirroring the reasoning at FinishMigration's publication.
  std::unique_ptr<Transaction> ptxn;
  auto bail = [&](Status s) -> Status {
    // Once a sibling worker's simulated crash stopped the pipe, this
    // worker belongs to a dead process too: abandon rather than
    // compensate against locks the crashed worker will never release.
    if (Status ps = pipe->result(); ps.IsCrashed()) s = ps;
    if (ptxn != nullptr) {
      if (s.IsCrashed()) {
        ptxn->Abandon();
      } else {
        ptxn->Abort();
      }
      ptxn.reset();
    }
    if (s.IsCrashed()) {
      anchor->Abandon();
      return s;
    }
    sel.CompensateCommitted();
    ++stats->aborts_rolled_back;
    anchor->Abort();
    return s;
  };
  {
    // Crash here: anchor holds O_old's lock, nothing copied yet.
    Status fp = failpoint::Check("ira:twolock:after-anchor-lock");
    if (!fp.ok()) return bail(fp);
  }

  // Copy the contents and durably create O_new in its own transaction, so
  // a crash between parent updates never leaves committed references to a
  // rolled-back O_new.
  std::vector<ObjectId> refs;
  std::vector<uint8_t> data;
  {
    EpochGuard epoch_guard(ctx_.epoch);
    ObjectHeader* h = ctx_.store->Get(oid);
    if (h == nullptr) return bail(Status::NotFound("two-lock source vanished"));
    SharedLatchGuard g(&h->latch);
    refs.assign(h->refs(), h->refs() + h->num_refs);
    data.assign(h->data(), h->data() + h->data_size);
  }
  ObjectId onew;
  {
    std::vector<ObjectId> new_refs = refs;
    std::vector<uint8_t> new_data = data;
    planner->Transform(oid, &new_refs, &new_data);
    std::unique_ptr<Transaction> ctxn = ctx_.txns->Begin(LogSource::kReorg);
    ctxn->set_side_effect_log(&sel);
    Status s = ctxn->CreateObjectWithContents(planner->Target(oid), new_refs,
                                              new_data, &onew, oid);
    if (!s.ok()) {
      if (s.IsCrashed()) {
        ctxn->Abandon();
      } else {
        ctxn->Abort();
      }
      return bail(s);
    }
    // Once the create commits, the WAL can no longer undo it — a later
    // bail must free O_new with a fresh transaction. No pending undo: an
    // uncommitted create is fully reversed by ctxn's own WAL undo. The
    // only ERT entries for O_new's out-edges are FinishMigration's, which
    // are pending in the anchor and leave with its abort (bail aborts the
    // anchor after compensating), so the free is the entire reversal.
    // Compensation order guarantees every parent has been re-pointed at
    // O_old before this runs.
    sel.RecordCompensable(
        ctxn->id(), SideEffectLog::Kind::kCommittedCreate,
        /*undo=*/nullptr, /*compensate=*/[this, onew]() -> Status {
          std::unique_ptr<Transaction> t = ctx_.txns->Begin(LogSource::kReorg);
          Status fs = t->FreeObject(onew);  // lock-free for reorg source
          if (!fs.ok()) {
            t->Abort();
            return fs;
          }
          return t->Commit();
        });
    s = ctxn->Commit();
    if (s.IsCrashed()) {
      ctxn->Abandon();
      return bail(s);
    }
    if (!s.ok()) return bail(s);
  }
  {
    // Crash here: O_new's create is committed (and flushed) while every
    // parent still references O_old — the earliest Section 4.2
    // interrupted-migration state FindInterruptedMigrations must detect.
    Status fp = failpoint::Check("ira:twolock:after-create");
    if (!fp.ok()) return bail(fp);
  }
  anchor->Lock(onew, LockMode::kExclusive);  // uncontended: unreachable yet

  // Process parents one at a time: at most two distinct objects (O and
  // one parent) are ever locked. Parent updates run in their own
  // transactions, optionally grouped (Section 4.3).
  uint32_t in_group = 0;
  auto commit_group = [&]() -> Status {
    if (ptxn == nullptr) return Status::Ok();
    Status cs = ptxn->Commit();
    if (cs.IsCrashed()) ptxn->Abandon();
    ptxn.reset();
    in_group = 0;
    return cs;
  };
  auto process_parent = [&](ObjectId r) -> Status {
    for (uint32_t attempt = 0; attempt < options.max_retries_per_object;
         ++attempt) {
      // A sibling worker may migrate this parent at any point before we
      // hold its lock — chase the relocation each attempt so the rewrite
      // lands on the live copy (the sibling's O_new carries the copied
      // reference to oid; rewriting the freed O_old would silently miss
      // it and leave a dangling edge once oid is freed).
      r = ResolveRelocated(*ctx_.store, *stats, r);
      if (r == oid || r == onew) return Status::Ok();
      if (ptxn == nullptr) {
        ptxn = ctx_.txns->Begin(LogSource::kReorg);
        ptxn->set_side_effect_log(&sel);
      }
      Status s = ptxn->LockWithTimeout(r, LockMode::kExclusive,
                                       options.lock_timeout);
      if (s.IsCrashed()) {
        ptxn->Abandon();
        ptxn.reset();
        return s;
      }
      if (s.IsDeadlockVictim()) {
        // The cycle runs through locks ptxn and the anchor HOLD; retrying
        // this parent without releasing them would deadlock again
        // immediately. Surface to the caller, whose bail aborts ptxn,
        // physically compensates the committed prefix, and aborts the
        // anchor — the whole migration rolls back and the pipe requeues
        // it. Not a timeout: no budget charge.
        return s;
      }
      if (!s.ok()) {
        ++stats->lock_timeouts;
        // The lock may belong to a sibling that crashed (its abandoned
        // transactions never release): stop retrying once the pipe says
        // the process is dead. bail abandons this migration.
        if (Status ps = pipe->result(); ps.IsCrashed()) return ps;
        // Keep completed parent updates; retry this parent afresh.
        Status cs = commit_group();
        if (!cs.ok()) return cs;
        if (attempt + 1 < options.max_retries_per_object) {
          BackoffSleep(attempt, options, stats);
        }
        continue;
      }
      if (!ctx_.store->Validate(r)) {
        // Freed between the resolve and the lock grant. If it migrated,
        // the relocation map now names the live copy (published before
        // the free); retry resolves and rewrites it. If it is genuinely
        // gone it references nothing — no edge left to rewrite.
        ptxn->Unlock(r);
        if (ResolveRelocated(*ctx_.store, *stats, r) == r) {
          return Status::Ok();
        }
        continue;
      }
      if (options.wait_for_historical_lockers) {
        WaitForHistoricalLockers(r, ptxn.get());
      }
      // Writers of r completed before the lock was granted; sync so the
      // ERT reflects their edits before this rewrite adjusts it.
      ctx_.analyzer->Sync();
      s = RewriteParentEdge(ctx_, ptxn.get(), r, oid, onew, p, nullptr);
      if (!s.ok()) {
        if (s.IsCrashed()) {
          ptxn->Abandon();
        } else {
          ptxn->Abort();
        }
        ptxn.reset();
        return s;
      }
      {
        // While ptxn is open, the plists removal reverses in memory (the
        // rewrite's slot + ERT undo ride ptxn's WAL and the entry
        // RewriteParentEdge just recorded). Once ptxn commits, only a
        // physical reversal remains possible: re-lock the (possibly
        // since-relocated) parent with a fresh transaction and rewrite
        // its slots back from O_new to O_old — the argument swap also
        // reverses the ERT adjustments. Runs during bail only, while the
        // anchor still pins O_old and O_new; lock waits retry until
        // granted (holders complete — user timeouts break any cycle).
        ParentLists* pl = plists;
        const ObjectId parent = r;
        sel.RecordCompensable(
            ptxn->id(), SideEffectLog::Kind::kCommittedRewrite,
            /*undo=*/[pl, oid, parent] { pl->AddParent(oid, parent); },
            /*compensate=*/[this, pl, oid, onew, parent, stats]() -> Status {
              std::unique_ptr<Transaction> t =
                  ctx_.txns->Begin(LogSource::kReorg);
              ObjectId rr = parent;
              for (;;) {
                rr = ResolveRelocated(*ctx_.store, *stats, rr);
                if (rr == oid || rr == onew) break;
                Status ls = t->LockWithTimeout(rr, LockMode::kExclusive,
                                               ctx_.txns->ctx().lock_timeout);
                // Compensation runs under ScopedSuppress, so its profile
                // is no_victim and the detector will not pick it; the
                // victim check is defensive (upgrade fast-fail could
                // still cancel it) — retrying is always safe here because
                // t holds at most this one lock.
                if (ls.IsTimedOut() || ls.IsDeadlockVictim()) continue;
                if (!ls.ok()) {
                  t->Abort();
                  return ls;
                }
                if (!ctx_.store->Validate(rr)) {
                  t->Unlock(rr);
                  if (ResolveRelocated(*ctx_.store, *stats, rr) == rr) break;
                  continue;
                }
                // As in process_parent: a user transaction may have
                // edited rr since the forward rewrite committed (e.g.
                // moved the O_new reference to another slot). Sync so its
                // records reach the ERT before this rewrite adjusts it;
                // otherwise the analyzer would later replay them onto an
                // ERT that no longer lists O_new and leave a stale entry.
                ctx_.analyzer->Sync();
                Status rs = RewriteParentEdge(ctx_, t.get(), rr, onew, oid,
                                              onew.partition(), nullptr);
                if (!rs.ok()) {
                  t->Abort();
                  return rs;
                }
                pl->AddParent(oid, rr);
                break;
              }
              return t->Commit();
            });
      }
      plists->RemoveParent(oid, r);
      AtomicMax(&stats->max_distinct_objects_locked,
                1 /* O_old + O_new */ + ptxn->num_locks_held());
      if (++in_group >= options.group_size) {
        Status cs = commit_group();
        if (!cs.ok()) return cs;
      }
      // Crash here: a prefix of the parents reference O_new (committed),
      // the rest still reference O_old; both copies live.
      Status fp = failpoint::Check("ira:twolock:mid-parents");
      if (!fp.ok()) return fp;
      return Status::Ok();
    }
    return Status::RetryExhausted("gave up on parent " + r.ToString());
  };

  for (ObjectId r : plists->Get(oid)) {
    if (r == oid) continue;
    Status s = process_parent(r);
    // No commit of the open group on a clean failure: bail aborts it,
    // replaying its side effects, and compensates the committed prefix —
    // the migration rolls back whole rather than rolling forward half.
    if (!s.ok()) return bail(s);
  }

  // Drain the TRT for oid, locking one parent at a time (batched per
  // sync so hot objects cannot out-insert the drain).
  for (;;) {
    ctx_.analyzer->Sync();
    std::vector<TrtTuple> batch = ctx_.trt->TuplesFor(oid);
    if (batch.empty()) break;
    for (const TrtTuple& t : batch) {
      ObjectId r = ResolveRelocated(*ctx_.store, *stats, t.parent);
      if (r != oid && r != onew) {
        Status s = process_parent(r);
        if (!s.ok()) return bail(s);
      }
      ctx_.trt->EraseTuple(t);
      ++stats->trt_tuples_drained;
    }
  }
  {
    Status cs = commit_group();
    if (!cs.ok()) return bail(cs);
  }
  {
    // Crash here: every parent references O_new, O_old still live — the
    // fully-rewritten Section 4.2 interrupted state.
    Status fp = failpoint::Check("ira:twolock:before-finish");
    if (!fp.ok()) return bail(fp);
  }

  // Finish inside the anchor transaction (it holds the locks on O_old and
  // O_new): children bookkeeping, TRT rename, free O_old. A crash before
  // this commit leaves the recoverable interrupted-migration state of
  // Section 4.2 (both copies live, parents already on O_new), detected by
  // FindInterruptedMigrations.
  Status s = FinishMigration(ctx_, anchor.get(), oid, onew, refs, p,
                             migrated, plists, stats);
  if (!s.ok()) return bail(s);
  {
    // Crash here: O_old's free is logged but unflushed and uncommitted —
    // recovery rolls the anchor back, reviving the interrupted state.
    Status fp = failpoint::Check("ira:twolock:before-commit");
    if (!fp.ok()) return bail(fp);
  }
  s = anchor->Commit();
  if (s.IsCrashed()) {
    anchor->Abandon();
    return s;
  }
  if (!s.ok()) return bail(s);
  migrated->Insert(oid);
  RecordReverseRelocation(onew, oid);
  return Status::Ok();
}

Status IraReorganizer::SweepGarbage(
    PartitionId p, const std::unordered_set<ObjectId>& traversed,
    const ReorgStats& stats_so_far, ReorgStats* stats) {
  // Everything still live in the partition that was neither traversed nor
  // created by this reorganization (a same-partition migration target) is
  // unreachable: reclaim it.
  std::unordered_set<ObjectId> keep;
  for (const auto& [from, to] : stats_so_far.RelocationSnapshot()) {
    (void)from;
    if (to.partition() == p) keep.insert(to);
  }
  std::vector<ObjectId> garbage;
  Partition& part = ctx_.store->partition(p);
  part.ForEachLiveObject([&](uint64_t offset) {
    ObjectId oid(p, offset);
    if (traversed.count(oid) == 0 && keep.count(oid) == 0) {
      garbage.push_back(oid);
    }
  });
  if (garbage.empty()) return Status::Ok();

  std::unique_ptr<Transaction> gtxn = ctx_.txns->Begin(LogSource::kReorg);
  SideEffectLog sel;
  sel.set_compensation_counter(&stats->side_effects_compensated);
  gtxn->set_side_effect_log(&sel);
  ErtSet* erts = ctx_.erts;
  std::vector<ObjectId> refs;
  for (ObjectId oid : garbage) {
    // Garbage may reference live objects in other partitions; drop the
    // corresponding ERT back pointers before freeing. The removals roll
    // back with the sweep transaction (the frees are undone by the WAL,
    // which would otherwise revive garbage whose back pointers are gone).
    if (ReadRefsLatched(ctx_.store, oid, &refs)) {
      std::vector<ObjectId> removed;
      for (ObjectId child : refs) {
        if (child.partition() != p) {
          if (erts->For(child.partition()).RemoveRef(child, oid)) {
            removed.push_back(child);
          }
        }
      }
      if (!removed.empty()) {
        sel.Record(gtxn->id(), SideEffectLog::Kind::kErtAdjust,
                   [erts, oid, removed] {
                     for (ObjectId child : removed) {
                       erts->For(child.partition()).AddRef(child, oid);
                     }
                   });
      }
    }
    Status s = gtxn->FreeObject(oid);
    if (!s.ok()) {
      gtxn->Abort();
      ++stats->aborts_rolled_back;
      return s;
    }
    ++stats->garbage_collected;
  }
  Status cs = gtxn->Commit();
  if (cs.IsCrashed()) {
    gtxn->Abandon();
    return cs;
  }
  return cs;
}

}  // namespace brahma
