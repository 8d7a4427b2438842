#include "txn/deadlock.h"

#include <algorithm>
#include <unordered_set>

namespace brahma {
namespace deadlock {

std::vector<TxnId> FindCycleFrom(const WaitsForGraph& graph, TxnId start,
                                 uint32_t max_depth) {
  struct Frame {
    TxnId node;
    size_t next_edge;
  };
  std::vector<TxnId> path{start};
  std::unordered_set<TxnId> on_path{start};
  // Nodes fully explored *within the depth budget*; nodes popped because
  // the path hit max_depth are deliberately not marked, so a shallower
  // route may revisit them.
  std::unordered_set<TxnId> exhausted;
  std::vector<Frame> stack{{start, 0}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    auto it = graph.find(f.node);
    // The node at depth max_depth still has its edges scanned (a cycle of
    // exactly max_depth members is detectable); it just may not go deeper.
    bool truncated = path.size() > max_depth;
    if (it == graph.end() || f.next_edge >= it->second.size() || truncated) {
      if (!truncated) exhausted.insert(f.node);
      on_path.erase(f.node);
      path.pop_back();
      stack.pop_back();
      continue;
    }
    TxnId next = it->second[f.next_edge++];
    if (next == start) return path;
    if (on_path.count(next) != 0) {
      // A cycle that does not pass through `start` — still a deadlock;
      // return just its members.
      auto pos = std::find(path.begin(), path.end(), next);
      return std::vector<TxnId>(pos, path.end());
    }
    if (exhausted.count(next) != 0) continue;
    path.push_back(next);
    on_path.insert(next);
    stack.push_back({next, 0});
  }
  return {};
}

TxnId SelectVictim(const std::vector<TxnId>& cycle,
                   const std::unordered_map<TxnId, WaiterProfile>& profiles) {
  auto profile_of = [&profiles](TxnId t) {
    auto it = profiles.find(t);
    return it != profiles.end() ? it->second : WaiterProfile{};
  };
  auto cheaper = [](TxnId a, const WaiterProfile& pa, TxnId b,
                    const WaiterProfile& pb) {
    if (pa.reorg != pb.reorg) return pa.reorg;
    if (pa.side_effects != pb.side_effects) {
      return pa.side_effects < pb.side_effects;
    }
    if (pa.locks_held != pb.locks_held) return pa.locks_held < pb.locks_held;
    return a > b;  // youngest last (TxnIds are assigned monotonically)
  };
  TxnId best = kInvalidTxn;
  WaiterProfile best_p;
  for (TxnId t : cycle) {
    WaiterProfile p = profile_of(t);
    if (p.no_victim) continue;
    if (best == kInvalidTxn || cheaper(t, p, best, best_p)) {
      best = t;
      best_p = p;
    }
  }
  return best;
}

}  // namespace deadlock
}  // namespace brahma
