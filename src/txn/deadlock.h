#ifndef BRAHMA_TXN_DEADLOCK_H_
#define BRAHMA_TXN_DEADLOCK_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/params.h"
#include "wal/log_record.h"

namespace brahma {

// Who a blocked lock request is, snapshotted at block time and carried in
// the request itself so victim selection never touches live Transaction
// objects (no lifetime coupling between the detector and the txn layer).
//
// Victim-selection cost model: reorg transactions (IRA migrations, PQR
// partition txns, GC sweeps) are always cheaper than user transactions —
// the paper's invariant is that reorganization must not degrade user
// service, and aborting a reorg txn is fully compensated (DESIGN.md §8) —
// then fewest side-effect-log entries (undo cost), then fewest locks held
// (re-acquisition cost), then youngest.
struct WaiterProfile {
  bool reorg = false;         // IRA migration / PQR partition txn / GC sweep
  uint64_t side_effects = 0;  // SideEffectLog entries at block time
  uint64_t locks_held = 0;    // locks held at block time
  bool no_victim = false;     // compensation in progress ("undo is never
                              // undone"): exempt; all-exempt cycles fall
                              // back to the lock-wait timeout
};

namespace deadlock {

// Waits-for edges: txn -> the txns it cannot proceed past (incompatible
// holders, plus earlier still-waiting fresh requests under FIFO no-barge).
using WaitsForGraph = std::unordered_map<TxnId, std::vector<TxnId>>;

// Depth-capped DFS from `start`. Returns the members of the first cycle
// reachable from `start` (each txn once, unspecified rotation); empty when
// none is found within `max_depth`.
std::vector<TxnId> FindCycleFrom(const WaitsForGraph& graph, TxnId start,
                                 uint32_t max_depth);

// Picks the cheapest member of `cycle` under the cost model above.
// Members missing from `profiles` are treated as default-constructed (user
// txn). Returns kInvalidTxn when every member is no_victim.
TxnId SelectVictim(const std::vector<TxnId>& cycle,
                   const std::unordered_map<TxnId, WaiterProfile>& profiles);

}  // namespace deadlock
}  // namespace brahma

#endif  // BRAHMA_TXN_DEADLOCK_H_
