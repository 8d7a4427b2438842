#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "histogram.h"

namespace perfbench {

// Every span the traced run records: one per public call the benchmark
// makes into a library layer, plus the root spans it wraps around them.
enum class Kind : uint8_t {
  kTxn,            // logical user transaction, first attempt to commit
  kAttempt,        // one attempt of it
  kLock,           // Transaction::Lock
  kRead,           // Transaction::ReadRefs / ReadRef / ReadData
  kWrite,          // Transaction::WriteData / SetRef
  kCommit,         // Transaction::Commit
  kAbort,          // Transaction::Abort
  kNetBegin,       // NetClient::Begin
  kNetRead,        // NetClient::Read
  kNetUpdate,      // NetClient::Update
  kNetCommit,      // NetClient::Commit
  kNetAbort,       // NetClient::Abort
  kReorgPass,      // IraReorganizer::Run
  kReorgTraverse,  // Run start to the planner's Order() call
  kReorgMigrate,   // Order() to Run's return
  kTarget,         // instant: RelocationPlanner::Target
  kCount
};
inline constexpr size_t kNumKinds = static_cast<size_t>(Kind::kCount);

const char* KindName(Kind k);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One thread's share of the trace. Only its owner thread writes it; the
// Tracer reads it after every recording thread has stopped.
class ThreadTrace {
 public:
  struct Event {
    int64_t start_ns;
    int64_t dur_ns;  // 0 for an instant event
    uint64_t id;     // logical transaction id or reorg pass number
    Kind kind;
  };

  ThreadTrace(std::string name, uint32_t tid, size_t capacity)
      : name_(std::move(name)), tid_(tid) {
    events_.reserve(capacity);
  }

  // Records a finished span. child_ns is the part of it that its child
  // spans covered; the rest is the span's self time.
  void Record(Kind k, int64_t start_ns, int64_t end_ns, uint64_t id,
              int64_t child_ns) {
    const int64_t dur = end_ns - start_ns;
    const size_t i = static_cast<size_t>(k);
    hist_[i].Add(static_cast<uint64_t>(dur));
    self_ns_[i] += dur - child_ns;
    Push({start_ns, dur, id, k});
  }
  void Instant(Kind k, int64_t at_ns, uint64_t id) {
    ++instants_[static_cast<size_t>(k)];
    Push({at_ns, 0, id, k});
  }
  // Gap between consecutive Target() calls of one migration worker.
  void AddMigrateGap(int64_t ns) { migrate_gap_.Add(static_cast<uint64_t>(ns)); }

  // Open-span stack, so nested RAII spans learn how much of their time
  // their children covered (spans of one thread never overlap).
  void Open() { child_ns_stack_[depth_++] = 0; }
  int64_t Close(int64_t dur_ns) {
    const int64_t child = child_ns_stack_[--depth_];
    if (depth_ > 0) child_ns_stack_[depth_ - 1] += dur_ns;
    return child;
  }

 private:
  friend class Tracer;
  void Push(const Event& e) {
    if (events_.size() < events_.capacity()) {
      events_.push_back(e);
    } else {
      ++dropped_;
    }
  }

  std::string name_;
  uint32_t tid_;
  std::vector<Event> events_;
  uint64_t dropped_ = 0;
  std::array<Histogram, kNumKinds> hist_{};
  std::array<int64_t, kNumKinds> self_ns_{};
  std::array<uint64_t, kNumKinds> instants_{};
  Histogram migrate_gap_;
  std::array<int64_t, 8> child_ns_stack_{};
  size_t depth_ = 0;
};

// Summary of one span kind over every thread.
struct KindSummary {
  Histogram hist;
  int64_t self_ns = 0;
  uint64_t instants = 0;
};

// Owns the per-thread buffers of a traced window. Threads register once
// (a mutex-guarded append); after that recording touches only the
// thread's own buffer. Summaries and the trace file are produced after
// the recording threads are done.
class Tracer {
 public:
  // events_per_thread bounds each thread's preallocated event buffer;
  // events past it are counted as dropped (histograms and self times
  // still see them).
  explicit Tracer(size_t events_per_thread) : capacity_(events_per_thread) {}

  ThreadTrace* Register(const std::string& name);

  std::array<KindSummary, kNumKinds> Summarize() const;
  Histogram MigrateGaps() const;
  uint64_t dropped() const;

  // Writes the Chrome trace-event JSON that Perfetto (ui.perfetto.dev)
  // and chrome://tracing open. Times are relative to origin_ns.
  bool WriteChromeTrace(const std::string& path, int64_t origin_ns) const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

// RAII span on the calling thread's trace; a no-op when t is null, which
// is how untraced runs execute the same code.
class Span {
 public:
  Span(ThreadTrace* t, Kind k, uint64_t id) : t_(t), k_(k), id_(id) {
    if (t_ != nullptr) {
      t_->Open();
      start_ = NowNs();
    }
  }
  ~Span() {
    if (t_ != nullptr) {
      const int64_t end = NowNs();
      const int64_t child = t_->Close(end - start_);
      t_->Record(k_, start_, end, id_, child);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* t_;
  Kind k_;
  uint64_t id_;
  int64_t start_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
