#ifndef BRAHMA_COMMON_STATS_H_
#define BRAHMA_COMMON_STATS_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

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
// Thread-safe for the parallel migration pipeline: counters are atomics
// (workers bump them concurrently), the relocation map is guarded by an
// internal mutex — use AddRelocation/Relocated/RelocationSnapshot on
// concurrent paths; direct access to `relocation` is fine only while a
// single thread owns the stats (setup, post-run assertions).
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
  // Group commit (delta of the shared LogManager counters over this run,
  // like faults_injected: concurrent user commits that batched with reorg
  // forces are attributed to the run they overlapped): batches = elected
  // flushers that performed a device force; forces_absorbed = committers
  // whose durability was covered by another committer's force.
  std::atomic<uint64_t> group_commit_batches{0};
  std::atomic<uint64_t> forces_absorbed{0};
  // Batch alignment (same deltas): flushers that held their force for
  // returning committers, and holds that ended at the one-force bound.
  std::atomic<uint64_t> group_commit_gathers{0};
  std::atomic<uint64_t> group_commit_gather_timeouts{0};
  // Claim-aware pipeline scheduling: deferred migrations woken exactly by
  // the release of the footprint claim that blocked them.
  std::atomic<uint64_t> claim_wakeups{0};
  // Deadlock handling (delta of the shared LockManager counters over this
  // run, like group_commit_batches): waits-for cycles found, transactions
  // surgically aborted to break them, and the cumulative lock-wait time
  // those victims did NOT burn (remaining-until-timeout at victimization —
  // the paper's timeout-only baseline would have stalled that long).
  std::atomic<uint64_t> deadlocks_detected{0};
  std::atomic<uint64_t> victims_aborted{0};
  std::atomic<uint64_t> victim_wait_ms_saved{0};
  // Latch-free read path (delta of the shared EpochManager counters over
  // this run, like group_commit_batches): user reads served with zero
  // lock-manager traffic under an epoch guard, global epoch advances,
  // and retired arena ranges whose grace period elapsed and were
  // returned to the allocator.
  std::atomic<uint64_t> latchfree_reads{0};
  std::atomic<uint64_t> epoch_advances{0};
  std::atomic<uint64_t> retire_drains{0};
  // Failpoint triggers observed during this run (delta of the global
  // trigger counter; attributes concurrent-mutator triggers to the run
  // they overlapped, which is what fault-injection reports want).
  std::atomic<uint64_t> faults_injected{0};
  // Durability layer (DESIGN.md §12). fsyncs and media_faults_injected
  // are deltas of shared monotone counters over this run (like
  // group_commit_batches); the scrub counters are filled by
  // Database::Recover from the corruption-aware scan.
  std::atomic<uint64_t> wal_records_verified{0};
  std::atomic<uint64_t> torn_tails_truncated{0};
  std::atomic<uint64_t> checkpoint_generations_discarded{0};
  std::atomic<uint64_t> fsyncs{0};
  std::atomic<uint64_t> media_faults_injected{0};
  // Disk data backing (DESIGN.md §13; deltas of the shared BufferPool
  // counters over this run, like group_commit_batches): frame pool hits
  // and misses, frames evicted by CLOCK, and dirty frames written back
  // to the data file. All zero in kMemory mode.
  std::atomic<uint64_t> pool_hits{0};
  std::atomic<uint64_t> pool_misses{0};
  std::atomic<uint64_t> frames_evicted{0};
  std::atomic<uint64_t> dirty_writebacks{0};
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
    group_commit_batches.store(other.group_commit_batches.load());
    forces_absorbed.store(other.forces_absorbed.load());
    group_commit_gathers.store(other.group_commit_gathers.load());
    group_commit_gather_timeouts.store(
        other.group_commit_gather_timeouts.load());
    claim_wakeups.store(other.claim_wakeups.load());
    deadlocks_detected.store(other.deadlocks_detected.load());
    victims_aborted.store(other.victims_aborted.load());
    victim_wait_ms_saved.store(other.victim_wait_ms_saved.load());
    latchfree_reads.store(other.latchfree_reads.load());
    epoch_advances.store(other.epoch_advances.load());
    retire_drains.store(other.retire_drains.load());
    faults_injected.store(other.faults_injected.load());
    wal_records_verified.store(other.wal_records_verified.load());
    torn_tails_truncated.store(other.torn_tails_truncated.load());
    checkpoint_generations_discarded.store(
        other.checkpoint_generations_discarded.load());
    fsyncs.store(other.fsyncs.load());
    media_faults_injected.store(other.media_faults_injected.load());
    pool_hits.store(other.pool_hits.load());
    pool_misses.store(other.pool_misses.load());
    frames_evicted.store(other.frames_evicted.load());
    dirty_writebacks.store(other.dirty_writebacks.load());
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

// Streaming summary of a sample (Welford's algorithm) plus retained raw
// values for percentiles/max. Used for response-time analysis (paper
// Table 2 reports avg, max, and standard deviation of response times).
class SampleStats {
 public:
  void Add(double x) {
    values_.push_back(x);
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  void Merge(const SampleStats& other) {
    for (double v : other.values_) Add(v);
  }

  int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double max() const {
    if (values_.empty()) return 0.0;
    return *std::max_element(values_.begin(), values_.end());
  }
  double min() const {
    if (values_.empty()) return 0.0;
    return *std::min_element(values_.begin(), values_.end());
  }

  // q in [0, 1]. Returns the q-th percentile of the sample.
  double Percentile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    double idx = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

  // Mean of the k largest samples (the paper notes the trend holds for
  // "the average of the top 10 response times").
  double MeanOfTop(size_t k) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    k = std::min(k, sorted.size());
    double sum = 0;
    for (size_t i = 0; i < k; ++i) sum += sorted[i];
    return sum / static_cast<double>(k);
  }

 private:
  std::vector<double> values_;
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace brahma

#endif  // BRAHMA_COMMON_STATS_H_
