#include "core/migration_pipe.h"

#include <algorithm>

namespace brahma {

MigrationPipe::MigrationPipe(const std::vector<ObjectId>& objects,
                             const Options& opts)
    : active_(opts.workers),
      running_(opts.workers),
      next_ckpt_at_(opts.checkpoint_every) {
  for (ObjectId oid : objects) ready_.push_back(Item{oid, 0});
}

MigrationPipe::Next MigrationPipe::Pop(Item* out) {
  std::unique_lock<std::mutex> l(mu_);
  for (;;) {
    if (stopped_) return Next::kStopped;
    if (ckpt_requested_) return Next::kBarrier;
    // Workers above the cap park here, holding no locks or claims. They
    // wake for checkpoints and stop (they must rendezvous / exit like
    // everyone else), when the cap rises, or when the pipe runs dry (so
    // they drain out normally).
    if (running_ > external_cap_ && !AllWorkDoneLocked()) {
      --running_;
      cv_.wait(l, [&] {
        return stopped_ || ckpt_requested_ || running_ < external_cap_ ||
               AllWorkDoneLocked();
      });
      ++running_;
      continue;
    }
    if (!ready_.empty()) {
      *out = ready_.front();
      ready_.pop_front();
      ++in_flight_;
      return Next::kItem;
    }
    // Promote deferred items whose backoff elapsed.
    const auto now = std::chrono::steady_clock::now();
    bool promoted = false;
    for (size_t i = 0; i < deferred_.size();) {
      if (deferred_[i].ready_at <= now) {
        ready_.push_back(Item{deferred_[i].oid, deferred_[i].attempt});
        deferred_[i] = deferred_.back();
        deferred_.pop_back();
        promoted = true;
      } else {
        ++i;
      }
    }
    if (promoted) continue;
    if (deferred_.empty()) {
      if (in_flight_ == 0) {
        if (claim_parked_ == 0) return Next::kDrained;
        // Failsafe: claim waiters with no in-flight migration left to
        // release their blocker. Unreachable when parks are registered
        // under the claims mutex (the blocker was in flight and its
        // release wakes them first); promoting instead of deadlocking
        // keeps a standalone pipe (unit tests) safe by construction.
        for (auto& [blocker, items] : claim_waiters_) {
          (void)blocker;
          for (const Item& item : items) ready_.push_back(item);
        }
        claim_waiters_.clear();
        claim_parked_ = 0;
        continue;
      }
      cv_.wait(l);
    } else {
      auto earliest = deferred_.front().ready_at;
      for (const Deferred& d : deferred_) {
        earliest = std::min(earliest, d.ready_at);
      }
      cv_.wait_until(l, earliest);
    }
  }
}

void MigrationPipe::Done() {
  std::lock_guard<std::mutex> l(mu_);
  --in_flight_;
  cv_.notify_all();
}

void MigrationPipe::Requeue(ObjectId oid, uint32_t attempt,
                            std::chrono::milliseconds delay) {
  std::lock_guard<std::mutex> l(mu_);
  --in_flight_;
  if (delay.count() <= 0) {
    ready_.push_back(Item{oid, attempt});
  } else {
    deferred_.push_back(
        Deferred{oid, attempt, std::chrono::steady_clock::now() + delay});
  }
  cv_.notify_all();
}

void MigrationPipe::Reinject(ObjectId oid, uint32_t attempt,
                             std::chrono::milliseconds delay) {
  std::lock_guard<std::mutex> l(mu_);
  if (delay.count() <= 0) {
    ready_.push_back(Item{oid, attempt});
  } else {
    deferred_.push_back(
        Deferred{oid, attempt, std::chrono::steady_clock::now() + delay});
  }
  cv_.notify_all();
}

void MigrationPipe::ParkOnClaim(ObjectId blocker, ObjectId oid,
                                uint32_t attempt) {
  std::lock_guard<std::mutex> l(mu_);
  --in_flight_;
  claim_waiters_[blocker].push_back(Item{oid, attempt});
  ++claim_parked_;
  cv_.notify_all();
}

void MigrationPipe::OnClaimReleased(ObjectId blocker) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = claim_waiters_.find(blocker);
  if (it == claim_waiters_.end()) return;
  for (const Item& item : it->second) {
    ready_.push_back(item);
    ++claim_wakeups_;
    --claim_parked_;
  }
  claim_waiters_.erase(it);
  cv_.notify_all();
}

void MigrationPipe::SetWorkerCap(uint32_t cap) {
  std::lock_guard<std::mutex> l(mu_);
  external_cap_ = cap;
  cv_.notify_all();  // parked workers re-check the cap
}

uint32_t MigrationPipe::worker_cap() {
  std::lock_guard<std::mutex> l(mu_);
  return external_cap_;
}

void MigrationPipe::Stop(Status s) {
  std::lock_guard<std::mutex> l(mu_);
  if (!stopped_) {
    result_ = s;
  } else if (s.IsCrashed() && !result_.IsCrashed()) {
    result_ = s;
  }
  stopped_ = true;
  cv_.notify_all();
}

bool MigrationPipe::stopped() {
  std::lock_guard<std::mutex> l(mu_);
  return stopped_;
}

Status MigrationPipe::result() {
  std::lock_guard<std::mutex> l(mu_);
  return stopped_ ? result_ : Status::Ok();
}

bool MigrationPipe::CheckpointDue(uint64_t migrated_now) {
  std::lock_guard<std::mutex> l(mu_);
  return next_ckpt_at_ != 0 && migrated_now >= next_ckpt_at_;
}

void MigrationPipe::RequestCheckpoint() {
  std::lock_guard<std::mutex> l(mu_);
  ckpt_requested_ = true;
  cv_.notify_all();
}

bool MigrationPipe::ArriveBarrier() {
  std::unique_lock<std::mutex> l(mu_);
  if (!ckpt_requested_ || stopped_) return false;
  ++paused_;
  cv_.notify_all();
  cv_.wait(l, [&] {
    return !ckpt_requested_ || stopped_ ||
           (paused_ == active_ && !cutter_elected_);
  });
  if (ckpt_requested_ && !stopped_ && paused_ == active_ &&
      !cutter_elected_) {
    cutter_elected_ = true;
    return true;  // cutter keeps its paused slot until BarrierCut
  }
  --paused_;
  cv_.notify_all();
  return false;
}

void MigrationPipe::BarrierCut(uint64_t next_target) {
  std::lock_guard<std::mutex> l(mu_);
  ckpt_requested_ = false;
  cutter_elected_ = false;
  next_ckpt_at_ = next_target;
  --paused_;
  cv_.notify_all();
}

void MigrationPipe::WorkerExit() {
  std::lock_guard<std::mutex> l(mu_);
  --active_;
  cv_.notify_all();
}

uint64_t MigrationPipe::claim_wakeups() {
  std::lock_guard<std::mutex> l(mu_);
  return claim_wakeups_;
}

size_t MigrationPipe::parked_on_claims() {
  std::lock_guard<std::mutex> l(mu_);
  return claim_parked_;
}

}  // namespace brahma
