#ifndef BRAHMA_WAL_LOG_MANAGER_H_
#define BRAHMA_WAL_LOG_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "wal/log_record.h"

namespace brahma {

class DiskLog;

// Write-ahead log. Transactions follow the WAL protocol of the paper
// (Section 2): the undo value is logged before the update is performed;
// the redo value may be logged any time before the lock on the object is
// released. Committing a transaction that logged anything forces the log
// to "disk" — a configurable flush latency models the commit-time I/O
// that gives the paper's systems CPU / I/O parallelism (Section 5.3.1:
// throughput does not peak at MPL 1 because logs are flushed to disk at
// commit time). A transaction that logged nothing never reaches the log
// at all: no commit record, no force (DESIGN.md §9).
//
// The log also feeds the log analyzer (paper Section 3.3): an optional
// append observer sees every record the moment it is handed to the
// logging subsystem, and cursor reads let an analyzer thread tail the log.
class LogManager {
 public:
  explicit LogManager(std::chrono::microseconds flush_latency =
                          std::chrono::microseconds(0))
      : flush_latency_(flush_latency) {}

  // Appends a record; assigns and returns its LSN. If an append observer
  // is installed it runs synchronously under the log mutex.
  Lsn Append(LogRecord record);

  // Forces all records with lsn <= target to the stable log. The log
  // device is serial (one disk head): at most one force is in flight,
  // and without group commit each committer queues for a full force of
  // its own with no coalescing — the classic one-I/O-per-commit
  // discipline. The simulated latency is paid before stable_lsn_ advances:
  // durability is only observable once the force completes.
  void Flush(Lsn target);

  // Commit-time force with group commit. When group commit is enabled
  // (the default in Database), concurrent committers enqueue on a shared
  // batch: one is elected flusher and performs a single device force to
  // the highest LSN requested so far; the rest sleep on the batch and
  // are absorbed — they observe durability without paying a force of
  // their own. When disabled this degrades to Flush (each committer
  // pays its own overlapping force), which is the pre-group-commit
  // model and the bench ablation baseline.
  //
  // work is the committer's Begin-to-commit-request time (zero when
  // unknown). It drives batch alignment (DESIGN.md §9). Committers
  // released by the last force are about to return; without a hold they
  // would miss this force, wait out all of it, and then pay their own. So
  // the elected flusher holds the device force back when the returners
  // gain more than the committers already waiting lose: with w the
  // longest work reported by the last batch and F the last device force,
  // when returners * (F - w) >= waiting * w. The hold ends when the
  // returners have requested, or after one measured device force at most,
  // so no commit waits longer than it could already wait behind a force
  // in flight. A committer with unknown work, or with work longer than
  // the force, never causes a hold.
  //
  // Returns non-OK only when the "wal:group-commit:after-force" crash
  // failpoint fires in the window between the device force and the
  // stable_lsn_ advance: the records were (maybe) written but durability
  // was never acknowledged, so the committer must NOT treat the
  // transaction as committed. Absorbed waiters of a crashed flusher are
  // woken and re-elect (or crash out themselves if the site is armed
  // unlimited) — no waiter ever observes durability before a force
  // actually completed and advanced stable_lsn_.
  Status ForceCommit(Lsn target, std::chrono::nanoseconds work =
                                     std::chrono::nanoseconds(0));

  void set_group_commit(bool on) { group_commit_ = on; }
  bool group_commit() const { return group_commit_; }

  // Durability backend (DESIGN.md §12). When attached, every append is
  // mirrored into the DiskLog's pending queue under the log mutex (so
  // frames carry LSN order) and a force becomes a real device write +
  // fsync instead of the modeled latency; stable_lsn_ advances only when
  // the device force succeeds. Install before any activity.
  void AttachDiskLog(DiskLog* dlog) { dlog_ = dlog; }

  // fsyncs performed by the attached backend (0 when in-memory).
  uint64_t fsyncs() const;

  // Rebuilds in-memory state from the records a recovery scan salvaged
  // (all of them are on stable storage, so stable_lsn_ = the last one).
  // next_if_empty seeds the LSN sequence when nothing survived.
  void ResetFromRecovered(std::vector<LogRecord> records, Lsn next_if_empty);

  // Group-commit accounting (monotone; readers take deltas per run).
  uint64_t group_commit_batches() const {
    return gc_batches_.load(std::memory_order_relaxed);
  }
  uint64_t group_commit_forces_absorbed() const {
    return gc_absorbed_.load(std::memory_order_relaxed);
  }
  // Flushers that held their force back for returning committers, and
  // the holds that ended at the one-force bound instead.
  uint64_t group_commit_gathers() const {
    return gc_gathers_.load(std::memory_order_relaxed);
  }
  uint64_t group_commit_gather_timeouts() const {
    return gc_gather_timeouts_.load(std::memory_order_relaxed);
  }

  Lsn last_lsn() const;
  Lsn stable_lsn() const;

  // Reads records with LSN in (after, last_lsn] into out. Returns the
  // highest LSN read. Used by the analyzer thread to tail the log.
  Lsn ReadAfter(Lsn after, std::vector<LogRecord>* out) const;

  // Returns a copy of the record with the given LSN (records are never
  // mutated after append). Returns false if truncated or unknown.
  bool GetRecord(Lsn lsn, LogRecord* out) const;

  // Synchronous analyzer hook: called with each appended record. Install
  // before any activity; not thread-safe to change while running.
  void SetAppendObserver(std::function<void(const LogRecord&)> observer) {
    observer_ = std::move(observer);
  }

  // Crash simulation: drops every record not yet flushed to the stable
  // log (they were lost in the failure).
  void DiscardUnflushed();

  // Returns copies of all stable records with lsn >= from (for recovery).
  std::vector<LogRecord> StableRecordsFrom(Lsn from) const;

  // Drops stable records with lsn < upto (checkpoint truncation).
  void Truncate(Lsn upto);

  // Number of records currently retained in memory.
  size_t NumRecords() const;

  void set_flush_latency(std::chrono::microseconds us) {
    flush_latency_ = us;
  }

 private:
  // Serial device force shared by Flush and ForceCommit: pays the
  // modeled latency and/or the attached DiskLog's real write+fsync.
  // Called with mu_ NOT held; stores the time it took in *took (the
  // caller publishes it as last_force_). Non-ok means durability was not
  // achieved and stable_lsn_ must not advance.
  Status DevicePay(std::chrono::nanoseconds* took);
  Status FlushInternal(Lsn target);
  // Batch alignment, called with mu_ held by the elected flusher before
  // it samples its batch target: waits on gather_cv_ (bounded by
  // last_force_) when the rule in ForceCommit's comment says to hold.
  void GatherBatch(std::unique_lock<std::mutex>& l);
  // Committers registered in waiting_ that no finished force covered.
  size_t UncoveredWaiters() const;
  // Removes the committer that registered lsn from waiting_.
  void Unregister(Lsn lsn);

  mutable std::mutex mu_;
  std::deque<LogRecord> records_;  // records_[i].lsn == first_lsn_ + i
  DiskLog* dlog_ = nullptr;
  Lsn first_lsn_ = 1;
  Lsn next_lsn_ = 1;
  Lsn stable_lsn_ = 0;
  std::chrono::microseconds flush_latency_;
  std::function<void(const LogRecord&)> observer_;

  // Serial-device and group-commit daemon state (all under mu_).
  // force_in_progress_ models the device's exclusivity for Flush and
  // ForceCommit alike; with group commit on, later committers fold
  // their target into requested_max_ and wait on force_cv_ instead of
  // queueing a force of their own.
  bool group_commit_ = false;
  bool force_in_progress_ = false;
  Lsn requested_max_ = 0;
  std::condition_variable force_cv_;
  std::atomic<uint64_t> gc_batches_{0};
  std::atomic<uint64_t> gc_absorbed_{0};

  // Batch alignment state (all under mu_). waiting_ holds every
  // committer inside ForceCommit: the LSN it needs stable and its
  // Begin-to-commit work (unordered; a vector so that steady state
  // allocates nothing under mu_). When a batch force ends, last_waiting_
  // records how many of them no earlier force covered and last_slowest_
  // the longest work among the batch it covered (max() if one was
  // unknown). last_force_ is the duration of the last DevicePay.
  struct Waiter {
    Lsn lsn;
    std::chrono::nanoseconds work;
  };
  std::vector<Waiter> waiting_;
  size_t last_waiting_ = 0;
  std::chrono::nanoseconds last_slowest_{0};
  std::chrono::nanoseconds last_force_{0};
  bool gathering_ = false;
  std::condition_variable gather_cv_;
  std::atomic<uint64_t> gc_gathers_{0};
  std::atomic<uint64_t> gc_gather_timeouts_{0};
};

}  // namespace brahma

#endif  // BRAHMA_WAL_LOG_MANAGER_H_
