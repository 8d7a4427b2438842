#ifndef BRAHMA_CORE_MIGRATION_PIPE_H_
#define BRAHMA_CORE_MIGRATION_PIPE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/object_id.h"

namespace brahma {

// Work queue plus checkpoint barrier shared by the migrator workers of
// an IRA run (one or more). Objects enter in planner order; a worker that
// loses a lock race requeues its object with a backoff deadline instead
// of blocking, so the ready work behind it migrates in the meantime.
//
// Claim-aware scheduling: a migration deferred because its footprint
// overlapped a sibling's in-flight claim parks under the blocking anchor
// (ParkOnClaim) and is moved back to the ready queue the instant that
// claim drops (OnClaimReleased) — no retry timer, no spurious wakeups.
//
// Worker cap: an external controller (ReorgThrottle) may cap how many
// workers run; surplus workers park in Pop. Parked workers hold no locks
// or claims and still participate in checkpoint barriers and drain/stop
// detection.
class MigrationPipe {
 public:
  struct Options {
    uint32_t workers = 1;
    uint32_t checkpoint_every = 0;  // 0 = no checkpoint cadence
  };

  struct Item {
    ObjectId oid;
    uint32_t attempt = 0;
  };

  enum class Next { kItem, kBarrier, kDrained, kStopped };

  MigrationPipe(const std::vector<ObjectId>& objects, const Options& opts);

  // Blocks until an item is ready (kItem), a checkpoint rendezvous is
  // requested (kBarrier), the pipe ran dry (kDrained), or Stop was called
  // (kStopped). Workers above the worker cap park inside this call.
  Next Pop(Item* out);

  // The popped item migrated (or was skipped): it leaves the pipe.
  void Done();

  // The popped item lost a lock race: it re-enters the pipe after the
  // backoff delay. The worker holds no locks while the item waits.
  void Requeue(ObjectId oid, uint32_t attempt,
               std::chrono::milliseconds delay);

  // Re-injects an object that already left the pipe (Done() was called
  // for it) but whose migration was rolled back afterwards — a group
  // abort undoes every migration in the group, including ones whose items
  // completed earlier. Unlike Requeue this does not balance a Pop, so
  // in_flight_ is untouched.
  void Reinject(ObjectId oid, uint32_t attempt,
                std::chrono::milliseconds delay);

  // The popped item's footprint overlapped the in-flight claim anchored
  // at `blocker`: park it under that anchor. Balances the Pop (like
  // Requeue). The caller must guarantee the blocking claim is still
  // outstanding at the time of the call — IraReorganizer registers the
  // park while holding its claims mutex — or the item would wait for a
  // release that already happened.
  void ParkOnClaim(ObjectId blocker, ObjectId oid, uint32_t attempt);

  // The claim anchored at `blocker` dropped: move every item parked under
  // it to the ready queue and wake the workers.
  void OnClaimReleased(ObjectId blocker);

  // External worker cap (ReorgThrottle, DESIGN.md §14): at most `cap`
  // workers run; surplus workers park in Pop, holding no locks or
  // claims, still honoring checkpoint barriers and stop. A cap of 0
  // pauses the pipeline until the cap rises.
  void SetWorkerCap(uint32_t cap);
  uint32_t worker_cap();

  // First failure wins, except a simulated crash always wins: a crashed
  // run must surface as crashed no matter what the other workers hit
  // while the pipeline unwound.
  void Stop(Status s);

  bool stopped();
  Status result();

  bool CheckpointDue(uint64_t migrated_now);
  void RequestCheckpoint();

  // Checkpoint rendezvous. Every worker that sees kBarrier commits its
  // open group, then arrives here. Once all active workers have paused,
  // exactly one is elected cutter (returns true) and snapshots the
  // checkpoint while the others stay parked; the cutter then calls
  // BarrierCut to release them.
  bool ArriveBarrier();
  void BarrierCut(uint64_t next_target);

  void WorkerExit();

  // Introspection (tests, post-run stats aggregation).
  uint64_t claim_wakeups();
  size_t parked_on_claims();

 private:
  struct Deferred {
    ObjectId oid;
    uint32_t attempt;
    std::chrono::steady_clock::time_point ready_at;
  };

  // Ready, deferred, claim-parked, and popped-but-unfinished items all
  // count as outstanding work.
  bool AllWorkDoneLocked() const {
    return ready_.empty() && deferred_.empty() && claim_parked_ == 0 &&
           in_flight_ == 0;
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Item> ready_;
  std::vector<Deferred> deferred_;
  // Items parked under the footprint claim that deferred them, keyed by
  // the claim's anchor object.
  std::unordered_map<ObjectId, std::vector<Item>> claim_waiters_;
  size_t claim_parked_ = 0;
  uint32_t in_flight_ = 0;
  uint32_t active_;   // workers that have not exited
  uint32_t running_;  // workers not parked by the worker cap
  // External throttle cap (SetWorkerCap); UINT32_MAX = uncapped.
  uint32_t external_cap_ = 0xFFFFFFFFu;
  uint32_t paused_ = 0;
  bool ckpt_requested_ = false;
  bool cutter_elected_ = false;
  bool stopped_ = false;
  Status result_ = Status::Ok();
  uint64_t next_ckpt_at_;
  uint64_t claim_wakeups_ = 0;
};

}  // namespace brahma

#endif  // BRAHMA_CORE_MIGRATION_PIPE_H_
