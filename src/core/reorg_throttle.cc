#include "core/reorg_throttle.h"

#include <algorithm>

#include "core/migration_pipe.h"

namespace brahma {

ReorgThrottle::ReorgThrottle(const ReorgThrottleOptions& options)
    : opts_(options) {
  ring_.resize(std::max<size_t>(opts_.window, 8));
}

void ReorgThrottle::Record(double latency_ms) {
  std::lock_guard<std::mutex> g(mu_);
  if (window_.count() == ring_.size()) window_.Remove(ring_[ring_next_]);
  ring_[ring_next_] = latency_ms;
  window_.Add(latency_ms);
  ring_next_ = (ring_next_ + 1) % ring_.size();
  if (++since_eval_ < std::max<size_t>(opts_.eval_every, 1)) return;
  since_eval_ = 0;
  EvaluateLocked();
}

void ReorgThrottle::EvaluateLocked() {
  if (pipe_ == nullptr || window_.count() == 0) return;
  const double p99 = window_.Percentile(0.99);
  const double target = opts_.slo_p99_ms * opts_.setpoint_fraction;
  uint32_t cap = cap_;
  if (p99 > target) {
    quiet_streak_ = 0;
    // Over the setpoint: shed one worker. A cap of 0 (pace mode) parks
    // the whole pipeline until the tail recovers.
    if (cap > opts_.min_workers) {
      --cap;
      ++sheds_;
    }
  } else if (p99 <= target * opts_.resume_fraction &&
             cap < max_workers_) {
    if (++quiet_streak_ >= std::max<uint32_t>(opts_.boost_hold, 1)) {
      quiet_streak_ = 0;
      ++cap;
      ++boosts_;
    }
  } else {
    // In the hysteresis band: neither shed nor accumulate confidence.
    quiet_streak_ = 0;
  }
  if (cap != cap_) {
    cap_ = cap;
    pipe_->SetWorkerCap(cap);
  }
}

void ReorgThrottle::AttachPipe(MigrationPipe* pipe, uint32_t max_workers) {
  std::lock_guard<std::mutex> g(mu_);
  pipe_ = pipe;
  max_workers_ = max_workers;
  cap_ = opts_.initial_workers == 0
             ? max_workers
             : std::min(opts_.initial_workers, max_workers);
  since_eval_ = 0;
  quiet_streak_ = 0;
  pipe_->SetWorkerCap(cap_);
}

void ReorgThrottle::DetachPipe(MigrationPipe* pipe) {
  std::lock_guard<std::mutex> g(mu_);
  if (pipe_ == pipe) {
    // Leave the pipe uncapped: the throttle's authority ends with the
    // run it was attached for.
    pipe_->SetWorkerCap(0xFFFFFFFFu);
    pipe_ = nullptr;
    max_workers_ = 0;
  }
}

uint32_t ReorgThrottle::current_cap() const {
  std::lock_guard<std::mutex> g(mu_);
  return cap_;
}

uint64_t ReorgThrottle::sheds() const {
  std::lock_guard<std::mutex> g(mu_);
  return sheds_;
}

uint64_t ReorgThrottle::boosts() const {
  std::lock_guard<std::mutex> g(mu_);
  return boosts_;
}

double ReorgThrottle::WindowP99() const {
  std::lock_guard<std::mutex> g(mu_);
  return window_.Percentile(0.99);
}

}  // namespace brahma
