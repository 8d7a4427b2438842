#ifndef BRAHMA_COMMON_STATS_H_
#define BRAHMA_COMMON_STATS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "storage/object_id.h"

namespace brahma {

// Lock-free maximum update for monotone gauges (peak sizes etc.).
inline void AtomicMax(std::atomic<uint64_t>* gauge, uint64_t value) {
  uint64_t cur = gauge->load(std::memory_order_relaxed);
  while (cur < value &&
         !gauge->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// Migration statistics (also records the old -> new identity mapping).
// Only counters the reorganizer increments itself live here; the log,
// lock manager, epoch manager, buffer pool, fault injectors and recovery
// scrub each report their own (read them before and after a run for its
// delta). Thread-safe for the parallel migration pipeline: counters
// are atomics (workers bump them concurrently), the relocation map is
// guarded by an internal mutex — use AddRelocation/Relocated/
// RelocationSnapshot on concurrent paths; direct access to `relocation`
// is fine only while a single thread owns the stats (setup, post-run
// assertions).
struct ReorgStats {
  std::atomic<uint64_t> objects_migrated{0};
  std::atomic<uint64_t> garbage_collected{0};
  std::atomic<uint64_t> bytes_moved{0};
  std::atomic<uint64_t> find_exact_retries{0};
  std::atomic<uint64_t> lock_timeouts{0};
  std::atomic<uint64_t> trt_tuples_drained{0};
  std::atomic<uint64_t> traversal_visited{0};
  std::atomic<uint64_t> trt_peak_size{0};
  std::atomic<uint64_t> max_distinct_objects_locked{0};
  // Contention-handling accounting: exponential-backoff delays taken
  // before retries (requeued migrations and two-lock parent retries), and
  // their cumulative duration.
  std::atomic<uint64_t> backoff_sleeps{0};
  std::atomic<uint64_t> backoff_total_ms{0};
  // Parallel pipeline: migrations deferred up front because their
  // footprint (object + approximate parents) overlapped a sibling
  // worker's in-flight migration. Cheap — no lock wait is burned.
  std::atomic<uint64_t> claim_deferrals{0};
  // Abort churn: migration transactions that aborted cleanly (not
  // crashed) and had their side effects rolled back, and the individual
  // compensating actions replayed doing so (SideEffectLog entries —
  // pending replays plus committed compensations). Degraded-mode
  // decisions can watch these the same way they watch lock_timeouts.
  std::atomic<uint64_t> aborts_rolled_back{0};
  std::atomic<uint64_t> side_effects_compensated{0};
  // Claim-aware pipeline scheduling: deferred migrations woken exactly by
  // the release of the footprint claim that blocked them.
  std::atomic<uint64_t> claim_wakeups{0};
  double duration_ms = 0;
  std::unordered_map<ObjectId, ObjectId> relocation;

  ReorgStats() = default;
  ReorgStats(const ReorgStats& other) { *this = other; }
  ReorgStats& operator=(const ReorgStats& other) {
    if (this == &other) return *this;
    objects_migrated.store(other.objects_migrated.load());
    garbage_collected.store(other.garbage_collected.load());
    bytes_moved.store(other.bytes_moved.load());
    find_exact_retries.store(other.find_exact_retries.load());
    lock_timeouts.store(other.lock_timeouts.load());
    trt_tuples_drained.store(other.trt_tuples_drained.load());
    traversal_visited.store(other.traversal_visited.load());
    trt_peak_size.store(other.trt_peak_size.load());
    max_distinct_objects_locked.store(other.max_distinct_objects_locked.load());
    backoff_sleeps.store(other.backoff_sleeps.load());
    backoff_total_ms.store(other.backoff_total_ms.load());
    claim_deferrals.store(other.claim_deferrals.load());
    aborts_rolled_back.store(other.aborts_rolled_back.load());
    side_effects_compensated.store(other.side_effects_compensated.load());
    claim_wakeups.store(other.claim_wakeups.load());
    duration_ms = other.duration_ms;
    std::scoped_lock l(relocation_mu_, other.relocation_mu_);
    relocation = other.relocation;
    return *this;
  }

  void AddRelocation(ObjectId from, ObjectId to) {
    std::lock_guard<std::mutex> g(relocation_mu_);
    relocation[from] = to;
  }
  // Compensating action for AddRelocation: an aborted migration must
  // retract its publication or a sibling would chase old -> new into a
  // rolled-back copy.
  void RemoveRelocation(ObjectId from) {
    std::lock_guard<std::mutex> g(relocation_mu_);
    relocation.erase(from);
  }
  // True (and *to filled in) when `from` was relocated by this run.
  bool Relocated(ObjectId from, ObjectId* to) const {
    std::lock_guard<std::mutex> g(relocation_mu_);
    auto it = relocation.find(from);
    if (it == relocation.end()) return false;
    *to = it->second;
    return true;
  }
  std::unordered_map<ObjectId, ObjectId> RelocationSnapshot() const {
    std::lock_guard<std::mutex> g(relocation_mu_);
    return relocation;
  }

 private:
  mutable std::mutex relocation_mu_;
};

}  // namespace brahma

#endif  // BRAHMA_COMMON_STATS_H_
