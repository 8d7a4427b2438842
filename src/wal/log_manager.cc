#include "wal/log_manager.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "common/failpoint.h"
#include "wal/disk_log.h"

namespace brahma {

Lsn LogManager::Append(LogRecord record) {
  // Delay-only site (Append cannot fail): models a stalled log device.
  // Deliberately outside mu_ so an injected stall does not serialize
  // unrelated appenders more than a real device would.
  BRAHMA_FAILPOINT_HIT("wal:append");
  std::unique_lock<std::mutex> l(mu_);
  record.lsn = next_lsn_++;
  Lsn lsn = record.lsn;
  records_.push_back(record);
  // Mirror into the disk backend under mu_ so frames carry append order.
  if (dlog_ != nullptr) dlog_->Buffer(records_.back());
  if (observer_) observer_(records_.back());
  return lsn;
}

Status LogManager::DevicePay(std::chrono::nanoseconds* took) {
  const auto start = std::chrono::steady_clock::now();
  if (flush_latency_.count() > 0) {
    std::this_thread::sleep_for(flush_latency_);
  }
  Status s = dlog_ != nullptr ? dlog_->Force() : Status::Ok();
  *took = std::chrono::steady_clock::now() - start;
  return s;
}

void LogManager::Flush(Lsn target) { FlushInternal(target); }

Status LogManager::FlushInternal(Lsn target) {
  // Delay-only site: a slow force at commit time (group-commit stall).
  BRAHMA_FAILPOINT_HIT("wal:flush");
  std::unique_lock<std::mutex> l(mu_);
  if (failed_) return Status::Crashed("log failed");
  const Lsn capped = std::min(target, next_lsn_ - 1);
  if (capped <= stable_lsn_) return Status::Ok();  // already durable
  // The log device is one disk head: forces serialize, and without group
  // commit they do NOT coalesce — every committer that found its records
  // unstable pays a full force of its own, strictly FIFO, even if a
  // force that lands while it queues happens to cover its LSN. That is
  // the classic one-I/O-per-commit discipline group commit was invented
  // to fix (and the one the daemon in ForceCommit batches away): under
  // it the force queue, not the migration work, gates commit throughput.
  while (force_in_progress_) force_cv_.wait(l);
  force_in_progress_ = true;
  l.unlock();
  // Pay the device *before* the records become stable: a commit must not
  // observe durability until the force actually completes.
  std::chrono::nanoseconds took;
  Status dev = DevicePay(&took);
  l.lock();
  last_force_ = took;
  force_in_progress_ = false;
  if (dev.ok() && failed_) dev = Status::Crashed("log failed");
  if (dev.ok()) stable_lsn_ = std::max(stable_lsn_, capped);
  force_cv_.notify_all();
  return dev;
}

Status LogManager::ForceCommit(Lsn target, std::chrono::nanoseconds work,
                               bool rider) {
  if (!group_commit_) {
    // Ablation / legacy mode: every committer queues for a serial force
    // of its own. FlushInternal hits the "wal:flush" delay site itself;
    // a device failure propagates so the commit is never acknowledged.
    return FlushInternal(target);
  }
  // Same delay-only site as Flush — a stalled device stalls the batch.
  BRAHMA_FAILPOINT_HIT("wal:flush");
  std::unique_lock<std::mutex> l(mu_);
  if (failed_) return Status::Crashed("log failed");
  Lsn capped = std::min(target, next_lsn_ - 1);
  if (capped <= stable_lsn_) return Status::Ok();  // already durable
  requested_max_ = std::max(requested_max_, capped);
  // Registered until we return, so a holding flusher can count us. A
  // rider is never counted: no batch waits for a reorganizer.
  if (!rider) {
    waiting_.push_back({capped, work});
    if (gathering_) gather_cv_.notify_one();
  }
  // If a force is already in flight we cannot ride it — the device write
  // may have started before our records were appended. Wait for it to
  // finish; if its batch covered us (it grabbed requested_max_ after our
  // update above), we are absorbed and never touch the device.
  while (force_in_progress_) {
    force_cv_.wait(l);
    if (capped <= stable_lsn_) {
      if (!rider) Unregister(capped);
      gc_absorbed_.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    }
  }
  // Elected flusher: reserve the device, let the last batch's returning
  // members join, then force the whole batch accumulated so far.
  force_in_progress_ = true;
  GatherBatch(l);
  const Lsn batch_target = requested_max_;
  gc_batches_.fetch_add(1, std::memory_order_relaxed);
  l.unlock();
  // Device force, paid outside the mutex (appends continue meanwhile).
  std::chrono::nanoseconds took;
  Status dev = DevicePay(&took);
  // Crash window between the device force and the durability
  // acknowledgement: records may be on disk but stable_lsn_ never
  // advances, so neither the flusher nor any absorbed waiter may treat
  // its transaction as committed.
  Status fp = failpoint::Check("wal:group-commit:after-force");
  if (!dev.ok()) fp = dev;  // a failed force trumps the crash window
  l.lock();
  if (fp.ok() && failed_) fp = Status::Crashed("log failed");
  last_force_ = took;
  force_in_progress_ = false;  // cleared even on crash: waiters re-elect
  if (fp.ok()) {
    // The batch shape the next flusher aligns to: everyone waiting now
    // that no earlier force covered, and how long the members this force
    // covers worked before they asked — they return about that late.
    last_waiting_ = UncoveredWaiters();
    last_slowest_ = std::chrono::nanoseconds(0);
    for (const Waiter& w : waiting_) {
      if (w.lsn <= stable_lsn_ || w.lsn > batch_target) continue;
      last_slowest_ = std::max(last_slowest_,
                               w.work.count() > 0
                                   ? w.work
                                   : std::chrono::nanoseconds::max());
    }
    stable_lsn_ = std::max(stable_lsn_, batch_target);
  } else {
    last_waiting_ = 0;  // nobody returns from a failed batch: never hold
  }
  if (!rider) Unregister(capped);
  force_cv_.notify_all();
  return fp;
}

void LogManager::GatherBatch(std::unique_lock<std::mutex>& l) {
  const size_t waiting = UncoveredWaiters();
  if (waiting >= last_waiting_ || last_slowest_ >= last_force_) return;
  // A returner is back about last_slowest_ after the last force ended.
  // Held, it saves the rest of the force it would otherwise wait out;
  // each committer already waiting loses about last_slowest_.
  const size_t returning = last_waiting_ - waiting;
  if (static_cast<double>(returning) * (last_force_ - last_slowest_).count() <
      static_cast<double>(waiting) * last_slowest_.count()) {
    return;
  }
  gc_gathers_.fetch_add(1, std::memory_order_relaxed);
  gathering_ = true;
  // stable_lsn_ cannot move while we hold the device, so the count only
  // grows as committers register and notify.
  const bool full = gather_cv_.wait_for(
      l, last_force_, [this] { return UncoveredWaiters() >= last_waiting_; });
  gathering_ = false;
  if (!full) gc_gather_timeouts_.fetch_add(1, std::memory_order_relaxed);
}

size_t LogManager::UncoveredWaiters() const {
  return static_cast<size_t>(
      std::count_if(waiting_.begin(), waiting_.end(),
                    [this](const Waiter& w) { return w.lsn > stable_lsn_; }));
}

void LogManager::Unregister(Lsn lsn) {
  auto it = std::find_if(waiting_.begin(), waiting_.end(),
                         [lsn](const Waiter& w) { return w.lsn == lsn; });
  *it = waiting_.back();
  waiting_.pop_back();
}

void LogManager::Fail() {
  std::unique_lock<std::mutex> l(mu_);
  failed_ = true;
}

bool LogManager::failed() const {
  std::unique_lock<std::mutex> l(mu_);
  return failed_;
}

uint64_t LogManager::fsyncs() const {
  return dlog_ != nullptr ? dlog_->fsyncs() : 0;
}

void LogManager::ResetFromRecovered(std::vector<LogRecord> records,
                                    Lsn next_if_empty) {
  std::unique_lock<std::mutex> l(mu_);
  failed_ = false;
  records_.assign(records.begin(), records.end());
  if (records_.empty()) {
    first_lsn_ = next_if_empty;
    next_lsn_ = next_if_empty;
    stable_lsn_ = next_if_empty - 1;
  } else {
    first_lsn_ = records_.front().lsn;
    next_lsn_ = records_.back().lsn + 1;
    stable_lsn_ = records_.back().lsn;
  }
  assert(next_lsn_ == first_lsn_ + static_cast<Lsn>(records_.size()));
}

Lsn LogManager::last_lsn() const {
  std::unique_lock<std::mutex> l(mu_);
  return next_lsn_ - 1;
}

Lsn LogManager::stable_lsn() const {
  std::unique_lock<std::mutex> l(mu_);
  return stable_lsn_;
}

Lsn LogManager::ReadAfter(Lsn after, std::vector<LogRecord>* out) const {
  std::unique_lock<std::mutex> l(mu_);
  Lsn from = std::max(after + 1, first_lsn_);
  Lsn hi = next_lsn_ - 1;
  for (Lsn lsn = from; lsn <= hi; ++lsn) {
    out->push_back(records_[lsn - first_lsn_]);
  }
  return hi;
}

bool LogManager::GetRecord(Lsn lsn, LogRecord* out) const {
  std::unique_lock<std::mutex> l(mu_);
  if (lsn < first_lsn_ || lsn >= next_lsn_) return false;
  *out = records_[lsn - first_lsn_];
  return true;
}

void LogManager::DiscardUnflushed() {
  std::unique_lock<std::mutex> l(mu_);
  failed_ = false;  // the restarted process starts from the stable log
  while (!records_.empty() && records_.back().lsn > stable_lsn_) {
    records_.pop_back();
  }
  // A truncation may already have dropped records *past* the stable
  // point (first_lsn_ > stable_lsn_ + 1); rewinding next_lsn_ below
  // first_lsn_ would break the records_[lsn - first_lsn_] indexing that
  // ReadAfter/GetRecord rely on.
  next_lsn_ = std::max(stable_lsn_ + 1, first_lsn_);
  assert(next_lsn_ == first_lsn_ + static_cast<Lsn>(records_.size()));
}

std::vector<LogRecord> LogManager::StableRecordsFrom(Lsn from) const {
  std::unique_lock<std::mutex> l(mu_);
  std::vector<LogRecord> out;
  for (const LogRecord& r : records_) {
    if (r.lsn >= from && r.lsn <= stable_lsn_) out.push_back(r);
  }
  return out;
}

size_t LogManager::NumRecords() const {
  std::unique_lock<std::mutex> l(mu_);
  return records_.size();
}

void LogManager::Truncate(Lsn upto) {
  // Receives the dropped records; destroyed after unlocking, when it goes
  // out of scope. Freeing ~100k records' payloads under mu_ stalled every
  // Append and ForceCommit for milliseconds.
  std::deque<LogRecord> dropped;
  {
    std::unique_lock<std::mutex> l(mu_);
    const size_t n = upto > first_lsn_
                         ? std::min(records_.size(),
                                    static_cast<size_t>(upto - first_lsn_))
                         : 0;
    const auto cut = records_.begin() + static_cast<std::ptrdiff_t>(n);
    if (n > 0 && n <= records_.size() - n) {
      // Move the dropped prefix out; erasing moved-from records frees no
      // payload.
      dropped.assign(std::make_move_iterator(records_.begin()),
                     std::make_move_iterator(cut));
      records_.erase(records_.begin(), cut);
    } else if (n > 0) {
      // Move the kept suffix into a fresh deque; the old one, dropped
      // prefix and all, leaves with `dropped`.
      std::deque<LogRecord> kept(std::make_move_iterator(cut),
                                 std::make_move_iterator(records_.end()));
      records_.swap(kept);
      dropped.swap(kept);
    }
    first_lsn_ += static_cast<Lsn>(n);
  }
  // Disk truncation outside mu_: recycling segments can touch the
  // directory and must not stall appenders.
  if (dlog_ != nullptr) dlog_->TruncateThrough(upto);
}

}  // namespace brahma
