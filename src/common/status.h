#ifndef BRAHMA_COMMON_STATUS_H_
#define BRAHMA_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace brahma {

// Error-code-based status type (RocksDB/LevelDB idiom; the codebase does
// not use exceptions). A Status is either OK or carries a code and a
// human-readable message.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kNotFound,
    kCorruption,
    kInvalidArgument,
    kTimedOut,      // lock wait timed out (deadlock resolution, Section 5)
    kAborted,       // voluntary transaction abort: WAL undo ran, side
                    // tables were compensated (SideEffectLog), locks were
                    // released — the migration pipeline requeues the
                    // object. Contrast kCrashed: nothing ran, restart
                    // recovery owns the cleanup.
    kBusy,          // resource (e.g., upgrade conflict) busy
    kNoSpace,       // partition arena exhausted
    kInternal,
    kRetryExhausted,  // a bounded retry loop gave up (Find_Exact_Parents)
    kDegraded,      // reorganization stopped early under its contention
                    // budget; partial progress + checkpoint are usable
    kCrashed,       // fault injection: simulated crash at a failpoint;
                    // propagate without undo, then SimulateCrash/Recover
    kDeadlockVictim,  // the waits-for detector picked this transaction to
                      // break a cycle: the pending Acquire was cancelled
                      // (held locks intact) — abort, compensate, retry.
                      // Contrast kTimedOut: no timeout was burned.
  };

  Status() : code_(Code::kOk) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  // Durability-layer spelling of Corruption (DESIGN.md §12): stable data
  // — records at or below the recovery floor, or every checkpoint
  // generation — failed verification, so recovery cannot proceed.
  static Status Corrupted(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status NoSpace(std::string msg = "") {
    return Status(Code::kNoSpace, std::move(msg));
  }
  static Status Internal(std::string msg = "") {
    return Status(Code::kInternal, std::move(msg));
  }
  static Status RetryExhausted(std::string msg = "") {
    return Status(Code::kRetryExhausted, std::move(msg));
  }
  static Status Degraded(std::string msg = "") {
    return Status(Code::kDegraded, std::move(msg));
  }
  static Status Crashed(std::string msg = "") {
    return Status(Code::kCrashed, std::move(msg));
  }
  static Status DeadlockVictim(std::string msg = "") {
    return Status(Code::kDeadlockVictim, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsNoSpace() const { return code_ == Code::kNoSpace; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsCorrupted() const { return code_ == Code::kCorruption; }
  bool IsRetryExhausted() const { return code_ == Code::kRetryExhausted; }
  bool IsDegraded() const { return code_ == Code::kDegraded; }
  bool IsCrashed() const { return code_ == Code::kCrashed; }
  bool IsDeadlockVictim() const { return code_ == Code::kDeadlockVictim; }
  bool IsInternal() const { return code_ == Code::kInternal; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "unknown";
    switch (code_) {
      case Code::kOk: name = "OK"; break;
      case Code::kNotFound: name = "NotFound"; break;
      case Code::kCorruption: name = "Corruption"; break;
      case Code::kInvalidArgument: name = "InvalidArgument"; break;
      case Code::kTimedOut: name = "TimedOut"; break;
      case Code::kAborted: name = "Aborted"; break;
      case Code::kBusy: name = "Busy"; break;
      case Code::kNoSpace: name = "NoSpace"; break;
      case Code::kInternal: name = "Internal"; break;
      case Code::kRetryExhausted: name = "RetryExhausted"; break;
      case Code::kDegraded: name = "Degraded"; break;
      case Code::kCrashed: name = "Crashed"; break;
      case Code::kDeadlockVictim: name = "DeadlockVictim"; break;
    }
    return msg_.empty() ? std::string(name) : std::string(name) + ": " + msg_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_;
  std::string msg_;
};

}  // namespace brahma

#endif  // BRAHMA_COMMON_STATUS_H_
