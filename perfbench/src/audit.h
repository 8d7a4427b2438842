#ifndef PERFBENCH_AUDIT_H_
#define PERFBENCH_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"

namespace perfbench {

// Counts the live objects of every partition.
uint64_t CountLive(brahma::ObjectStore* store);

// Full consistency audit of a quiescent database (no client, server or
// reorganizer thread running), through public APIs only:
//  - no stored reference dangles;
//  - every partition's ERT equals the cross-partition edges a full scan
//    finds;
//  - the live-object count equals expected_live;
//  - every live object is reachable from the persistent root.
// Returns one line per problem found; empty means the database is sound.
std::vector<std::string> AuditDatabase(brahma::Database* db,
                                       uint64_t expected_live);

}  // namespace perfbench

#endif  // PERFBENCH_AUDIT_H_
