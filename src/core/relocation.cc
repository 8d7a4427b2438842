#include "core/relocation.h"

#include <algorithm>
#include <deque>

#include "common/epoch.h"
#include "common/failpoint.h"
#include "core/fuzzy_traversal.h"
#include "core/side_effect_log.h"

namespace brahma {

void RelocationPlanner::Order(std::vector<ObjectId>* objects) {
  std::sort(objects->begin(), objects->end());
}

void ClusteringPlanner::Order(std::vector<ObjectId>* objects) {
  std::unordered_set<ObjectId> pending(objects->begin(), objects->end());
  std::vector<ObjectId> ordered;
  ordered.reserve(objects->size());
  std::unordered_set<ObjectId> seen;
  std::vector<ObjectId> refs;
  // One complete cluster at a time: BFS from each root over the cluster
  // slots only.
  for (ObjectId r : roots_) {
    if (pending.count(r) == 0 || !seen.insert(r).second) continue;
    std::deque<ObjectId> queue{r};
    while (!queue.empty()) {
      ObjectId cur = queue.front();
      queue.pop_front();
      ordered.push_back(cur);
      if (!ReadRefSlotsLatched(store_, cur, &refs)) continue;
      for (uint32_t i = 0; i < refs.size() && i < follow_slots_; ++i) {
        ObjectId c = refs[i];
        if (c.valid() && pending.count(c) > 0 && seen.insert(c).second) {
          queue.push_back(c);
        }
      }
    }
  }
  // Anything unreachable from the given roots keeps address order at the
  // end.
  std::vector<ObjectId> rest;
  for (ObjectId o : *objects) {
    if (seen.count(o) == 0) rest.push_back(o);
  }
  std::sort(rest.begin(), rest.end());
  ordered.insert(ordered.end(), rest.begin(), rest.end());
  *objects = std::move(ordered);
}

bool IsParentOf(ObjectStore* store, ObjectId parent, ObjectId child) {
  // Epoch pin: keeps the Get -> latch window safe against a sibling
  // retiring, draining, and reinitializing this block (see DESIGN.md §11).
  EpochGuard epoch_guard(store->epoch_manager());
  ObjectHeader* h = store->Get(parent);
  if (h == nullptr) return false;
  SharedLatchGuard g(&h->latch);
  if (!h->IsLive() || h->self != parent.raw()) return false;
  for (uint32_t i = 0; i < h->num_refs; ++i) {
    if (h->refs()[i] == child) return true;
  }
  return false;
}

Status RewriteParentEdge(const ReorgContext& ctx, Transaction* txn,
                         ObjectId parent, ObjectId oid, ObjectId onew,
                         PartitionId reorg_partition, bool* had_edge) {
  if (had_edge != nullptr) *had_edge = false;
  std::vector<uint32_t> slots;
  {
    EpochGuard epoch_guard(ctx.store->epoch_manager());
    ObjectHeader* ph = ctx.store->Get(parent);
    if (ph == nullptr) return Status::Ok();  // pruned/stale parent
    SharedLatchGuard g(&ph->latch);
    if (!ph->IsLive() || ph->self != parent.raw()) return Status::Ok();
    for (uint32_t i = 0; i < ph->num_refs; ++i) {
      if (ph->refs()[i] == oid) slots.push_back(i);
    }
  }
  if (slots.empty()) return Status::Ok();
  for (uint32_t slot : slots) {
    Status s = txn->SetRef(parent, slot, onew);
    if (!s.ok()) return s;
  }
  if (had_edge != nullptr) *had_edge = true;
  // Update the ERTs of the partitions where O_old and O_new reside. The
  // ERT is a multiset (one entry per referencing slot), so adjust it once
  // per rewritten slot.
  size_t removed = 0;
  size_t added = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (parent.partition() != reorg_partition) {
      if (ctx.erts->For(reorg_partition).RemoveRef(oid, parent)) {
        ++removed;
      }
    }
    if (parent.partition() != onew.partition()) {
      ctx.erts->For(onew.partition()).AddRef(onew, parent);
      ++added;
    }
  }
  // The analyzer skips reorg-sourced records, so an abort's CLRs restore
  // the slots but never the ERT entries adjusted above — log the exact
  // counts for compensating replay.
  SideEffectLog* sel = txn->side_effect_log();
  if (sel != nullptr && (removed > 0 || added > 0)) {
    ErtSet* erts = ctx.erts;
    sel->Record(txn->id(), SideEffectLog::Kind::kErtAdjust,
                [erts, oid, onew, parent, reorg_partition, removed, added] {
                  for (size_t i = 0; i < added; ++i) {
                    erts->For(onew.partition()).RemoveRef(onew, parent);
                  }
                  for (size_t i = 0; i < removed; ++i) {
                    erts->For(reorg_partition).AddRef(oid, parent);
                  }
                });
  }
  return Status::Ok();
}

Status FinishMigration(const ReorgContext& ctx, Transaction* txn,
                       ObjectId oid, ObjectId onew,
                       const std::vector<ObjectId>& refs_of_old,
                       PartitionId reorg_partition,
                       const MigratedSet* migrated, ParentLists* plists,
                       ReorgStats* stats) {
  // Crash here: parents already point at O_new, ERTs/parent-lists still
  // carry O_old's out-edges, both copies live.
  BRAHMA_FAILPOINT("ira:finish:before-ert-fixup");
  // Sync the analyzer first: every user operation that touched O_old's
  // references completed before the migration took over (its writers all
  // held and released locks we then acquired), so after this sync the
  // ERTs reflect O_old's final out-edges and the TRT holds every tuple
  // that can ever name O_old — the child-edge fix-ups and the parent
  // rename below miss nothing.
  ctx.analyzer->Sync();

  // Resolve any self references in O_new first (they must follow the
  // object to its new identity).
  {
    std::vector<uint32_t> self_slots;
    {
      EpochGuard epoch_guard(ctx.store->epoch_manager());
      ObjectHeader* nh = ctx.store->Get(onew);
      if (nh == nullptr) return Status::Internal("O_new vanished");
      SharedLatchGuard g(&nh->latch);
      for (uint32_t i = 0; i < nh->num_refs; ++i) {
        if (nh->refs()[i] == oid) self_slots.push_back(i);
      }
    }
    for (uint32_t slot : self_slots) {
      Status s = txn->SetRef(onew, slot, onew);
      if (!s.ok()) return s;
    }
  }
  // O_new's out-edges as stored (post-transform, post-self-fixup).
  std::vector<ObjectId> refs_of_new;
  if (!ReadRefSlotsLatched(ctx.store, onew, &refs_of_new)) {
    return Status::Internal("O_new unreadable");
  }

  // Non-WAL mutations from here on record compensating closures with the
  // transaction's SideEffectLog (when attached): the analyzer skips reorg
  // records, so an abort's CLRs restore object state but none of the
  // side tables. Entries are recorded in forward order; replay runs
  // newest-first, reversing them exactly.
  SideEffectLog* sel = txn->side_effect_log();
  ErtSet* erts = ctx.erts;

  // New out-edges FIRST: O_new's entries enter the ERTs, and children's
  // parent lists learn O_new. (With the default identity Transform this
  // is the same edge set under the new identity; a schema-evolution
  // Transform may have dropped or kept slots.) Order matters under
  // sibling workers: if the old entries were removed before the new ones
  // were added, a sibling migrating child X could read plists(X) in the
  // window where it lists NEITHER this object nor its copy, lock no
  // parent that pins this migration, and free X while O_new still holds
  // an un-rewritten edge to it. Adding before removing keeps plists a
  // superset at every instant — the sibling sees at least one of the two
  // identities, and locking either blocks on this migration's locks.
  {
    std::vector<ObjectId> ert_added;
    std::vector<ObjectId> plist_added;
    for (ObjectId child : refs_of_new) {
      if (!child.valid() || child == onew) continue;
      if (child.partition() != onew.partition()) {
        ctx.erts->For(child.partition()).AddRef(child, onew);
        ert_added.push_back(child);
      }
      if (child.partition() == reorg_partition && plists != nullptr &&
          (migrated == nullptr || !migrated->Contains(child))) {
        plists->AddParent(child, onew);
        plist_added.push_back(child);
      }
    }
    if (sel != nullptr && (!ert_added.empty() || !plist_added.empty())) {
      sel->Record(txn->id(), SideEffectLog::Kind::kErtAdjust,
                  [erts, plists, onew, ert_added, plist_added] {
                    for (ObjectId child : ert_added) {
                      erts->For(child.partition()).RemoveRef(child, onew);
                    }
                    for (ObjectId child : plist_added) {
                      plists->RemoveParent(child, onew);
                    }
                  });
    }
  }
  // Old out-edges: O_old's entries leave the ERTs, and children's parent
  // lists forget O_old.
  {
    std::vector<ObjectId> ert_removed;
    std::vector<ObjectId> plist_removed;
    for (ObjectId child : refs_of_old) {
      if (!child.valid() || child == oid) continue;
      if (child.partition() != reorg_partition) {
        if (ctx.erts->For(child.partition()).RemoveRef(child, oid)) {
          ert_removed.push_back(child);
        }
      }
      if (child.partition() == reorg_partition && plists != nullptr &&
          (migrated == nullptr || !migrated->Contains(child))) {
        if (plists->Contains(child, oid)) plist_removed.push_back(child);
        plists->RemoveParent(child, oid);
      }
    }
    if (sel != nullptr && (!ert_removed.empty() || !plist_removed.empty())) {
      sel->Record(txn->id(), SideEffectLog::Kind::kErtAdjust,
                  [erts, plists, oid, ert_removed, plist_removed] {
                    for (ObjectId child : ert_removed) {
                      erts->For(child.partition()).AddRef(child, oid);
                    }
                    for (ObjectId child : plist_removed) {
                      plists->AddParent(child, oid);
                    }
                  });
    }
  }

  // TRT tuples naming O_old as the *parent* now physically live in O_new.
  ctx.trt->RenameParent(oid, onew);
  if (sel != nullptr) {
    Trt* trt = ctx.trt;
    sel->Record(txn->id(), SideEffectLog::Kind::kTrtRename,
                [trt, oid, onew] { trt->RenameParent(onew, oid); });
  }

  // Crash here: everything done except freeing O_old — the canonical
  // Section 4.2 interrupted state (both copies live, parents on O_new).
  BRAHMA_FAILPOINT("ira:finish:before-free");
  // Publish the relocation BEFORE freeing O_old: a sibling worker that
  // observes O_old dead (under its header latch) must be able to chase
  // O_old -> O_new in the relocation map, or it would silently skip the
  // rewrite of a parent that now lives under the new identity.
  // The store-level table additionally serves latch-free readers: a
  // reader that loses the race against the free below sees O_old
  // poisoned and chases this entry to O_new instead of aborting. An
  // aborted migration MUST retract it before O_new is rolled back or a
  // reader would chase into a retired copy (the retraction runs before
  // lock release, and the undo of O_new's create is itself
  // epoch-deferred, so a reader already past the chase stays safe).
  ctx.store->PublishRelocation(oid, onew);
  if (sel != nullptr) {
    ObjectStore* store = ctx.store;
    sel->Record(txn->id(), SideEffectLog::Kind::kRelocation,
                [store, oid] { store->RetractRelocation(oid); });
  }
  if (stats != nullptr) {
    stats->AddRelocation(oid, onew);
    if (sel != nullptr) {
      sel->Record(txn->id(), SideEffectLog::Kind::kRelocation,
                  [stats, oid] { stats->RemoveRelocation(oid); });
    }
  }
  // Delete O_old. The free is epoch-deferred (Transaction::FreeObject
  // retires rather than frees), closing the publish-before-free window:
  // a reader holding O_old's header pointer across the flip observes
  // stable poison, never recycled bytes.
  Status s = txn->FreeObject(oid);
  if (!s.ok()) return s;

  if (plists != nullptr) {
    std::vector<ObjectId> old_parents = plists->Get(oid);
    plists->Erase(oid);
    if (sel != nullptr) {
      sel->Record(txn->id(), SideEffectLog::Kind::kParentLists,
                  [plists, oid, old_parents] {
                    for (ObjectId r : old_parents) plists->AddParent(oid, r);
                  });
    }
  }
  if (stats != nullptr) {
    ++stats->objects_migrated;
    uint64_t moved = 0;
    const ObjectHeader* nh = ctx.store->Get(onew);
    if (nh != nullptr) {
      moved = nh->block_size;
      stats->bytes_moved += moved;
    }
    if (sel != nullptr) {
      sel->Record(txn->id(), SideEffectLog::Kind::kCounters, [stats, moved] {
        --stats->objects_migrated;
        stats->bytes_moved -= moved;
      });
    }
  }
  return Status::Ok();
}

Status CompleteInterruptedMigration(const ReorgContext& ctx, ObjectId old_id,
                                    ObjectId new_id) {
  if (!ctx.store->Validate(old_id) || !ctx.store->Validate(new_id)) {
    return Status::InvalidArgument("migration pair not live");
  }
  const PartitionId p = old_id.partition();
  std::unique_ptr<Transaction> txn = ctx.txns->Begin(LogSource::kReorg);

  // Find every remaining parent of O_old by scanning the database (the
  // database is quiescent during restart recovery, so this is exact).
  std::vector<ObjectId> parents;
  for (uint32_t q = 0; q < ctx.store->num_partitions(); ++q) {
    Partition& part = ctx.store->partition(static_cast<PartitionId>(q));
    part.ForEachLiveObject([&](uint64_t offset) {
      const ObjectHeader* h = part.HeaderAt(offset);
      for (uint32_t i = 0; i < h->num_refs; ++i) {
        if (h->refs()[i] == old_id) {
          parents.push_back(ObjectId(static_cast<PartitionId>(q), offset));
          break;
        }
      }
    });
  }
  for (ObjectId parent : parents) {
    // Recovery runs quiesced, so contention (and thus timeout or
    // deadlock-victim status) is not expected here; if it does surface,
    // abort-and-return both releases every lock this transaction holds —
    // breaking any waits-for cycle — and leaves O_old authoritative for
    // a clean retry.
    Status s = txn->Lock(parent, LockMode::kExclusive);
    if (!s.ok()) {
      txn->Abort();
      return s;
    }
    s = RewriteParentEdge(ctx, txn.get(), parent, old_id, new_id, p, nullptr);
    if (!s.ok()) {
      txn->Abort();
      return s;
    }
  }

  // Drop O_old's out-edge back pointers and free it (O_new's out-edges
  // are already in the ERTs — restart recovery rebuilt them by scanning).
  std::vector<ObjectId> refs;
  if (ReadRefsLatched(ctx.store, old_id, &refs)) {
    for (ObjectId child : refs) {
      if (child.partition() != p) {
        ctx.erts->For(child.partition()).RemoveRef(child, old_id);
      }
    }
  }
  ctx.store->PublishRelocation(old_id, new_id);
  Status s = txn->FreeObject(old_id);
  if (!s.ok()) {
    txn->Abort();
    return s;
  }
  txn->Commit();
  return Status::Ok();
}

Status MoveObjectAndUpdateRefs(const ReorgContext& ctx, Transaction* txn,
                               ObjectId oid, RelocationPlanner* planner,
                               const std::vector<ObjectId>& parents,
                               PartitionId reorg_partition,
                               const MigratedSet* migrated,
                               ParentLists* plists, ReorgStats* stats,
                               ObjectId* new_id) {
  // Copy O_old's contents (parents are all locked; latch anyway, under an
  // epoch pin so the block cannot be recycled between Get and the latch).
  std::vector<ObjectId> refs;
  std::vector<uint8_t> data;
  {
    EpochGuard epoch_guard(ctx.store->epoch_manager());
    ObjectHeader* h = ctx.store->Get(oid);
    if (h == nullptr) {
      return Status::NotFound("migration source not live: " + oid.ToString());
    }
    SharedLatchGuard g(&h->latch);
    refs.assign(h->refs(), h->refs() + h->num_refs);
    data.assign(h->data(), h->data() + h->data_size);
  }

  // Copy O_old to the new location O_new, applying the planner's schema
  // transformation (identity unless the driving operation is schema
  // evolution). FinishMigration reconciles the ERTs and parent lists from
  // the old and new edge sets independently, so transforms may drop,
  // keep, or add reference slots.
  std::vector<ObjectId> new_refs = refs;
  std::vector<uint8_t> new_data = data;
  planner->Transform(oid, &new_refs, &new_data);
  ObjectId onew;
  Status s =
      txn->CreateObjectWithContents(planner->Target(oid), new_refs, new_data,
                                    &onew, oid);
  if (!s.ok()) return s;
  // Hold O_new's lock until this transaction resolves (uncontended: the
  // object is unreachable). Sibling migrators learn of O_new through the
  // parent-list fix-ups below *before* this transaction commits; the lock
  // makes them block until the copy is durable rather than read or
  // rewrite an uncommitted object.
  txn->Lock(onew, LockMode::kExclusive);
  // Crash here: O_new exists but is uncommitted — recovery undoes the
  // whole migration transaction and O_old stays authoritative.
  BRAHMA_FAILPOINT("ira:move:after-copy");

  // Change the reference in each parent to point to O_new.
  for (ObjectId parent : parents) {
    if (parent == oid) continue;  // self references are handled below
    s = RewriteParentEdge(ctx, txn, parent, oid, onew, reorg_partition,
                          nullptr);
    if (!s.ok()) return s;
    // Crash here: some parents rewritten, some not, all uncommitted.
    BRAHMA_FAILPOINT("ira:move:mid-parent-rewrite");
  }

  s = FinishMigration(ctx, txn, oid, onew, refs, reorg_partition, migrated,
                      plists, stats);
  if (!s.ok()) return s;
  *new_id = onew;
  return Status::Ok();
}

}  // namespace brahma
