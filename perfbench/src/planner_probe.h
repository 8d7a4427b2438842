#ifndef PERFBENCH_PLANNER_PROBE_H_
#define PERFBENCH_PLANNER_PROBE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/relocation.h"
#include "trace.h"

namespace perfbench {

// A RelocationPlanner that delegates every decision to CopyOutPlanner and
// timestamps the reorganizer's calls into it: Order() marks the end of
// the traversal phase of IraReorganizer::Run, and each Target() call (one
// per migration attempt, on the migrating worker's thread) becomes an
// instant event plus a sample of the gap since that worker's previous
// Target() in the same pass. With a null tracer it only delegates.
class ProbePlanner : public brahma::RelocationPlanner {
 public:
  ProbePlanner(brahma::PartitionId destination, uint64_t pass, Tracer* tracer)
      : inner_(destination), pass_(pass), tracer_(tracer) {}

  brahma::PartitionId Target(brahma::ObjectId oid) override {
    if (tracer_ != nullptr) {
      // Worker threads belong to the library; each registers on its
      // first call. The benchmark creates one Tracer per process, so a
      // thread's registration never refers to a dead tracer.
      thread_local ThreadTrace* trace = nullptr;
      thread_local uint64_t last_pass = 0;
      thread_local int64_t last_ns = 0;
      if (trace == nullptr) trace = tracer_->Register("ira-worker");
      const int64_t now = NowNs();
      if (last_pass == pass_) trace->AddMigrateGap(now - last_ns);
      last_pass = pass_;
      last_ns = now;
      trace->Instant(Kind::kTarget, now, pass_);
    }
    return inner_.Target(oid);
  }

  void Order(std::vector<brahma::ObjectId>* objects) override {
    order_ns_ = NowNs();
    inner_.Order(objects);
  }

  void Transform(brahma::ObjectId oid, std::vector<brahma::ObjectId>* refs,
                 std::vector<uint8_t>* data) override {
    inner_.Transform(oid, refs, data);
  }

  // When Run called Order(); 0 if it has not. Read on the thread that
  // called Run, after Run returned.
  int64_t order_ns() const { return order_ns_; }

 private:
  brahma::CopyOutPlanner inner_;
  const uint64_t pass_;
  Tracer* const tracer_;
  int64_t order_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_PLANNER_PROBE_H_
