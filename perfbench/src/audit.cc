#include "audit.h"

#include <deque>
#include <set>
#include <unordered_map>
#include <utility>

namespace perfbench {

using brahma::ObjectHeader;
using brahma::ObjectId;
using brahma::ObjectStore;
using brahma::Partition;
using brahma::PartitionId;

uint64_t CountLive(ObjectStore* store) {
  uint64_t n = 0;
  for (uint32_t p = 0; p < store->num_partitions(); ++p) {
    store->partition(static_cast<PartitionId>(p))
        .ForEachLiveObject([&n](uint64_t) { ++n; });
  }
  return n;
}

std::vector<std::string> AuditDatabase(brahma::Database* db,
                                       uint64_t expected_live) {
  std::vector<std::string> problems;
  auto note = [&problems](std::string s) {
    // Enough to diagnose; a broken run can otherwise print thousands.
    if (problems.size() < 20) problems.push_back(std::move(s));
  };
  ObjectStore* store = &db->store();
  const uint32_t np = store->num_partitions();

  // One scan: every live object's valid references, and the
  // cross-partition edges (child, parent) each ERT should hold.
  std::unordered_map<ObjectId, std::vector<ObjectId>> graph;
  std::vector<std::set<std::pair<ObjectId, ObjectId>>> truth(np);
  uint64_t dangling = 0;
  for (uint32_t p = 0; p < np; ++p) {
    Partition& part = store->partition(static_cast<PartitionId>(p));
    part.ForEachLiveObject([&](uint64_t offset) {
      const ObjectHeader* h = part.HeaderAt(offset);
      const ObjectId self(static_cast<PartitionId>(p), offset);
      std::vector<ObjectId>& out = graph[self];
      for (uint32_t i = 0; i < h->num_refs; ++i) {
        const ObjectId r = h->refs()[i];
        if (!r.valid()) continue;
        if (!store->Validate(r)) {
          if (++dangling <= 5) {
            note("dangling reference " + self.ToString() + " slot " +
                 std::to_string(i) + " -> " + r.ToString());
          }
          continue;
        }
        out.push_back(r);
        if (r.partition() != p && r.partition() < np) {
          truth[r.partition()].insert({r, self});
        }
      }
    });
  }
  if (dangling > 0) note(std::to_string(dangling) + " dangling references");

  for (uint32_t p = 0; p < np; ++p) {
    std::set<std::pair<ObjectId, ObjectId>> noted;
    for (const auto& e : db->erts().For(static_cast<PartitionId>(p)).Entries()) {
      noted.insert(e);
    }
    uint64_t missing = 0, extra = 0;
    for (const auto& e : truth[p]) missing += noted.count(e) == 0;
    for (const auto& e : noted) extra += truth[p].count(e) == 0;
    if (missing + extra > 0) {
      note("ERT of partition " + std::to_string(p) + ": " +
           std::to_string(missing) + " edges missing, " +
           std::to_string(extra) + " stale");
    }
  }

  if (graph.size() != expected_live) {
    note("live objects: " + std::to_string(graph.size()) + ", built " +
         std::to_string(expected_live));
  }

  std::unordered_map<ObjectId, bool> seen;
  std::deque<ObjectId> queue;
  const ObjectId root = store->persistent_root();
  if (graph.count(root) == 0) {
    note("persistent root " + root.ToString() + " is not live");
  } else {
    seen[root] = true;
    queue.push_back(root);
  }
  while (!queue.empty()) {
    const ObjectId cur = queue.front();
    queue.pop_front();
    for (ObjectId c : graph[cur]) {
      if (seen.emplace(c, true).second) queue.push_back(c);
    }
  }
  if (seen.size() != graph.size()) {
    note(std::to_string(graph.size() - seen.size()) +
         " live objects unreachable from the persistent root");
  }
  return problems;
}

}  // namespace perfbench
