#ifndef BRAHMA_CORE_LOG_ANALYZER_H_
#define BRAHMA_CORE_LOG_ANALYZER_H_

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/ert.h"
#include "core/trt.h"
#include "wal/log_manager.h"

namespace brahma {

// The log analyzer (paper Section 3.3): a separate process that consumes
// update logs as soon as they are handed to the logging subsystem and
// maintains the ERT and (while reorganization is in progress) the TRT.
// The paper chose a log-processing process precisely to show this
// analysis can be added to an existing system without touching user code;
// we reproduce that, plus a synchronous mode (the footnote's alternative
// of hooking the pointer-update functions) that updates the tables inside
// the log append — useful as an oracle and as an ablation.
//
// In thread mode the tables lag the log; reorganization calls Sync() at
// the points where its correctness argument needs the tables to reflect
// everything already logged (e.g., before each TRT emptiness check in
// Find_Exact_Parents).
class LogAnalyzer {
 public:
  enum class Mode { kSynchronous, kThread };

  LogAnalyzer(LogManager* log, ErtSet* erts, Trt* trt)
      : log_(log), erts_(erts), trt_(trt) {}

  ~LogAnalyzer() { Stop(); }

  LogAnalyzer(const LogAnalyzer&) = delete;
  LogAnalyzer& operator=(const LogAnalyzer&) = delete;

  // Starts analysis. In kSynchronous mode installs an append observer on
  // the log; in kThread mode starts the tailer thread.
  void Start(Mode mode);

  void Stop();

  // Ensures every record appended before this call has been processed.
  // The calling thread processes the backlog itself (work stealing), so
  // the latency is the processing cost, not a polling interval. No-op in
  // synchronous mode.
  void Sync();

  Lsn processed_lsn() const {
    return processed_.load(std::memory_order_acquire);
  }

  // Resets the cursor to the log's current end without processing the
  // skipped records (used after restart recovery, which rebuilds the ERT
  // by scanning the database instead).
  void SkipToEnd();

  uint64_t records_processed() const { return records_processed_.load(); }

  // Applies one record's effect on the ERT/TRT. Public so recovery-time
  // TRT reconstruction (paper Section 4.4) can reuse it.
  void ProcessRecord(const LogRecord& rec);

 private:
  void ThreadMain();
  void ProcessUpTo(Lsn target);
  void HandleRefChange(TxnId txn, ObjectId parent, ObjectId old_child,
                       ObjectId new_child);

  LogManager* log_;
  ErtSet* erts_;
  Trt* trt_;

  Mode mode_ = Mode::kThread;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<Lsn> processed_{0};
  std::atomic<uint64_t> records_processed_{0};
  std::mutex process_mu_;  // one processor at a time; keeps log order
};

}  // namespace brahma

#endif  // BRAHMA_CORE_LOG_ANALYZER_H_
