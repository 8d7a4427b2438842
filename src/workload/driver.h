#ifndef BRAHMA_WORKLOAD_DRIVER_H_
#define BRAHMA_WORKLOAD_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/histogram.h"
#include "core/database.h"
#include "workload/graph_builder.h"

namespace brahma {

// Aggregate result of one driver run.
struct DriverResult {
  Histogram response_ms;  // per committed logical transaction
  uint64_t committed = 0;
  uint64_t timeout_aborts = 0;  // attempts aborted by lock timeout
  uint64_t other_aborts = 0;
  double elapsed_s = 0;

  double throughput_tps() const {
    return elapsed_s > 0 ? static_cast<double>(committed) / elapsed_s : 0;
  }
};

// Fixed multiprogramming level: MPL threads each submit transactions
// back-to-back against their home partition (threads are assigned to
// partitions uniformly, Section 5.2). A logical transaction that aborts
// on a lock timeout is retried until it commits; its response time spans
// first attempt to commit, so reorganization-induced blocking shows up in
// the response-time distribution exactly as in the paper's Table 2.
class WorkloadDriver {
 public:
  WorkloadDriver(Database* db, const WorkloadParams& params,
                 const BuiltGraph& graph)
      : db_(db), params_(params), graph_(&graph) {}

  // Runs until should_stop() returns true (checked between logical
  // transactions) or every thread has committed max_txns_per_thread
  // (0 = unlimited). Blocking.
  DriverResult Run(const std::function<bool()>& should_stop,
                   uint64_t max_txns_per_thread);

 private:
  Database* db_;
  WorkloadParams params_;
  const BuiltGraph* graph_;
};

}  // namespace brahma

#endif  // BRAHMA_WORKLOAD_DRIVER_H_
