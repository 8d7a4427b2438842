#ifndef BRAHMA_CORE_REORG_THROTTLE_H_
#define BRAHMA_CORE_REORG_THROTTLE_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/histogram.h"

namespace brahma {

class MigrationPipe;

// Admission control for on-line reorganization (DESIGN.md §14): keep the
// user-facing latency SLO while a reorganization runs, in the spirit of
// the reorganize-only-when-benefit-exceeds-cost rule of "Dynamic Data
// Layout Optimization with Worst-case Guarantees" (arXiv 2405.04984) —
// here the cost signal is live tail latency, not a model.
struct ReorgThrottleOptions {
  // The SLO: sliding-window p99 of user request latency must stay at or
  // below this. Above it the throttle sheds one migration worker per
  // control decision; at or below slo_p99_ms * resume_fraction it adds
  // one back (the gap is hysteresis).
  double slo_p99_ms = 50.0;
  double resume_fraction = 0.8;
  // Control setpoint as a fraction of the SLO. A governor that sheds
  // only once the window p99 crosses the limit itself holds the system
  // *at* the limit, so the aggregate tail lands slightly above it; a
  // setpoint below 1.0 keeps a guard band between where the controller
  // regulates and where the SLO is breached. Sheds trigger above
  // slo_p99_ms * setpoint_fraction; boosts below that times
  // resume_fraction.
  double setpoint_fraction = 1.0;
  // Sheds act immediately; boosts require this many consecutive control
  // decisions at or below the resume threshold. 1 restores a worker per
  // quiet decision, which under a live swarm oscillates shed/boost every
  // few windows and sprays latency bursts at each recovery — a larger
  // hold makes the controller shed-fast / boost-slow.
  uint32_t boost_hold = 1;
  // Sliding window of the most recent user-op latencies the p99 is
  // computed over, and how many new samples arrive between control
  // decisions (an evaluation scans the window's histogram buckets; 1/8
  // of the window keeps the controller responsive).
  size_t window = 1024;
  size_t eval_every = 128;
  // Floor for the worker cap. 1 keeps the reorganization progressing
  // (shed mode); 0 lets the throttle pause it entirely until the tail
  // recovers (pace mode) — every worker parks, holding no locks.
  uint32_t min_workers = 1;
  // Worker cap at attach time. 0 starts at max_workers (optimistic:
  // full speed until the tail complains). A nonzero value slow-starts
  // the run at that many workers and earns the rest through quiet
  // control decisions — the optimistic start costs one full-damage
  // burst per attach before the first sheds land, which a latency-SLO
  // deployment may not want to pay.
  uint32_t initial_workers = 0;
};

// Sliding-window p99 governor over the parallel migration pipeline.
//
// The server's request workers call Record() with each completed user
// operation's latency; the reorganizer attaches its MigrationPipe for
// the duration of a run (IraOptions::throttle). Every eval_every
// samples the throttle compares the window p99 against the SLO and
// steps the pipe's worker cap (MigrationPipe::SetWorkerCap) down or up
// one worker at a time; a capped worker parks holding no locks or claims
// and still participates in checkpoint barriers.
//
// Thread-safe: Record arrives from N server threads concurrently while
// the reorganizer attaches/detaches from its own thread.
class ReorgThrottle {
 public:
  explicit ReorgThrottle(const ReorgThrottleOptions& options);

  // One completed user operation took latency_ms. The server measures
  // from frame parse to reply write; time spent waiting for a free
  // session thread sits in the kernel socket buffer and is not included.
  void Record(double latency_ms);

  // Reorganization lifecycle (called by IraReorganizer::RunPipe
  // when IraOptions::throttle is set). Attach resets the cap to
  // max_workers (or initial_workers when set) — by default each run
  // starts optimistic and sheds on evidence.
  void AttachPipe(MigrationPipe* pipe, uint32_t max_workers);
  void DetachPipe(MigrationPipe* pipe);

  // Introspection (bench reporting, tests).
  uint32_t current_cap() const;
  uint64_t sheds() const;
  uint64_t boosts() const;
  double WindowP99() const;  // 0 until the window has any samples

 private:
  void EvaluateLocked();

  const ReorgThrottleOptions opts_;
  mutable std::mutex mu_;
  // The window: the ring holds its samples in arrival order so the
  // oldest can leave the histogram as a new one enters.
  std::vector<double> ring_;
  size_t ring_next_ = 0;
  Histogram window_;
  size_t since_eval_ = 0;
  MigrationPipe* pipe_ = nullptr;
  uint32_t max_workers_ = 0;
  uint32_t cap_ = 0;
  uint32_t quiet_streak_ = 0;
  uint64_t sheds_ = 0;
  uint64_t boosts_ = 0;
};

}  // namespace brahma

#endif  // BRAHMA_CORE_REORG_THROTTLE_H_
