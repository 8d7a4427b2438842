#include "wal/recovery.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/failpoint.h"

namespace brahma {

namespace {

void FillObject(ObjectStore* store, ObjectId oid,
                const std::vector<ObjectId>& refs,
                const std::vector<uint8_t>& data) {
  ObjectHeader* h = store->Get(oid);
  if (h == nullptr) return;
  ObjectStore::GuardForWrite wg(store, oid);
  for (uint32_t i = 0; i < h->num_refs && i < refs.size(); ++i) {
    h->refs()[i] = refs[i];
  }
  if (!data.empty() && data.size() == h->data_size) {
    std::memcpy(h->data(), data.data(), data.size());
  }
}

// Recovery-time in-place slot/data rewrite: resolves the object and
// applies fn under a write pin so a disk-backed arena cannot evict or
// write back the frame mid-mutation. Recovery is single-threaded; the
// pin is about frame lifecycle, not concurrency.
template <typename Fn>
void ApplyInPlace(ObjectStore* store, ObjectId oid, Fn fn) {
  ObjectHeader* h = store->Get(oid);
  if (h == nullptr) return;
  ObjectStore::GuardForWrite wg(store, oid);
  fn(h);
}

// The CLR that logs the undo of rec (same payload conventions as
// Transaction::UndoToEnd: the fields describe the compensating action).
// Records that need no undo yield a record whose type is not kClr.
LogRecord CompensationFor(const LogRecord& rec) {
  LogRecord clr;
  switch (rec.type) {
    case LogRecordType::kSetRef:
      clr.old_ref = rec.new_ref;
      clr.new_ref = rec.old_ref;
      clr.slot = rec.slot;
      break;
    case LogRecordType::kUpdateData:
      clr.old_data = rec.new_data;
      clr.new_data = rec.old_data;
      break;
    case LogRecordType::kCreate:
      clr.num_refs = rec.num_refs;
      clr.data_size = rec.data_size;
      break;
    case LogRecordType::kFree:
      clr.num_refs = rec.num_refs;
      clr.data_size = rec.data_size;
      clr.refs_image = rec.refs_image;
      clr.new_data = rec.old_data;
      break;
    default:
      return clr;
  }
  clr.type = LogRecordType::kClr;
  clr.compensates = rec.type;
  clr.txn = rec.txn;
  clr.source = rec.source;
  clr.oid = rec.oid;
  clr.undo_next_lsn = rec.prev_lsn;
  return clr;
}

}  // namespace

void RedoApply(ObjectStore* store, const LogRecord& rec) {
  switch (rec.type) {
    case LogRecordType::kCreate:
      if (!store->Validate(rec.oid)) {
        store->CreateObjectAt(rec.oid, rec.num_refs, rec.data_size);
      }
      FillObject(store, rec.oid, rec.refs_image, rec.new_data);
      break;
    case LogRecordType::kFree:
      if (store->Validate(rec.oid)) store->FreeObject(rec.oid);
      break;
    case LogRecordType::kSetRef:
      ApplyInPlace(store, rec.oid, [&rec](ObjectHeader* h) {
        if (rec.slot < h->num_refs) h->refs()[rec.slot] = rec.new_ref;
      });
      break;
    case LogRecordType::kUpdateData:
      ApplyInPlace(store, rec.oid, [&rec](ObjectHeader* h) {
        if (rec.new_data.size() == h->data_size) {
          std::memcpy(h->data(), rec.new_data.data(), rec.new_data.size());
        }
      });
      break;
    case LogRecordType::kClr:
      // CLR payloads describe the compensating action: redo it forward.
      switch (rec.compensates) {
        case LogRecordType::kSetRef:
          ApplyInPlace(store, rec.oid, [&rec](ObjectHeader* h) {
            if (rec.slot < h->num_refs) h->refs()[rec.slot] = rec.new_ref;
          });
          break;
        case LogRecordType::kUpdateData:
          ApplyInPlace(store, rec.oid, [&rec](ObjectHeader* h) {
            if (rec.new_data.size() == h->data_size) {
              std::memcpy(h->data(), rec.new_data.data(),
                          rec.new_data.size());
            }
          });
          break;
        case LogRecordType::kCreate:  // compensating action: free
          if (store->Validate(rec.oid)) store->FreeObject(rec.oid);
          break;
        case LogRecordType::kFree:  // compensating action: recreate
          if (!store->Validate(rec.oid)) {
            store->CreateObjectAt(rec.oid, rec.num_refs, rec.data_size);
          }
          FillObject(store, rec.oid, rec.refs_image, rec.new_data);
          break;
        default:
          break;
      }
      break;
    default:
      break;
  }
}

void UndoApply(ObjectStore* store, const LogRecord& rec) {
  switch (rec.type) {
    case LogRecordType::kCreate:
      if (store->Validate(rec.oid)) store->FreeObject(rec.oid);
      break;
    case LogRecordType::kFree:
      if (!store->Validate(rec.oid)) {
        store->CreateObjectAt(rec.oid, rec.num_refs, rec.data_size);
      }
      FillObject(store, rec.oid, rec.refs_image, rec.old_data);
      break;
    case LogRecordType::kSetRef:
      ApplyInPlace(store, rec.oid, [&rec](ObjectHeader* h) {
        if (rec.slot < h->num_refs) h->refs()[rec.slot] = rec.old_ref;
      });
      break;
    case LogRecordType::kUpdateData:
      ApplyInPlace(store, rec.oid, [&rec](ObjectHeader* h) {
        if (rec.old_data.size() == h->data_size) {
          std::memcpy(h->data(), rec.old_data.data(), rec.old_data.size());
        }
      });
      break;
    default:
      break;
  }
}

Status RunRestartRecovery(ObjectStore* store, LogManager* log,
                          const CheckpointImage* checkpoint) {
  // Error injection here exercises "recovery itself fails" surfacing
  // (a second crash during restart is the classic double-fault case).
  BRAHMA_FAILPOINT("recovery:start");
  // 1. Restore the last checkpoint image (or empty arenas).
  Lsn redo_from = 1;
  if (checkpoint != nullptr && checkpoint->valid) {
    if (checkpoint->images.size() != store->num_partitions()) {
      return Status::Corruption("checkpoint partition count mismatch");
    }
    for (uint32_t p = 0; p < store->num_partitions(); ++p) {
      store->partition(static_cast<PartitionId>(p))
          .Restore(checkpoint->images[p]);
    }
    store->set_persistent_root(checkpoint->persistent_root);
    redo_from = checkpoint->lsn + 1;
  } else {
    Partition::Image empty;
    empty.high_water = Partition::kBaseOffset;
    for (uint32_t p = 0; p < store->num_partitions(); ++p) {
      store->partition(static_cast<PartitionId>(p)).Restore(empty);
    }
  }

  // 2. Redo: repeat history forward from the checkpoint.
  BRAHMA_FAILPOINT("recovery:before-redo");
  for (const LogRecord& rec : log->StableRecordsFrom(redo_from)) {
    RedoApply(store, rec);
  }
  BRAHMA_FAILPOINT("recovery:before-undo");

  // 3. Analysis over the whole stable log: find losers and their last
  // record.
  std::unordered_map<TxnId, Lsn> last_lsn;
  std::unordered_set<TxnId> completed;
  for (const LogRecord& rec : log->StableRecordsFrom(1)) {
    if (rec.txn == kInvalidTxn) continue;
    last_lsn[rec.txn] = std::max(last_lsn[rec.txn], rec.lsn);
    if (rec.type == LogRecordType::kCommit ||
        rec.type == LogRecordType::kAbort) {
      completed.insert(rec.txn);
    }
  }

  // 4. Undo losers in reverse global LSN order, honouring CLR skips.
  // Every undone record is logged as a CLR and every loser ends with an
  // abort record, exactly like an in-process abort: a later restart then
  // redoes the compensation instead of undoing the loser again over
  // whatever committed after this recovery.
  std::set<Lsn> to_undo;
  std::unordered_map<TxnId, Lsn> tail;  // each loser's newest record
  for (const auto& [txn, lsn] : last_lsn) {
    if (completed.count(txn) == 0) {
      to_undo.insert(lsn);
      tail[txn] = lsn;
    }
  }
  while (!to_undo.empty()) {
    Lsn lsn = *to_undo.rbegin();
    to_undo.erase(lsn);
    LogRecord rec;
    if (!log->GetRecord(lsn, &rec)) continue;  // truncated: nothing older
    if (rec.type == LogRecordType::kClr) {
      if (rec.undo_next_lsn != kInvalidLsn) to_undo.insert(rec.undo_next_lsn);
    } else {
      LogRecord clr = CompensationFor(rec);
      if (clr.type == LogRecordType::kClr) {
        clr.prev_lsn = tail[rec.txn];
        tail[rec.txn] = log->Append(clr);
      }
      UndoApply(store, rec);
      if (rec.prev_lsn != kInvalidLsn) to_undo.insert(rec.prev_lsn);
    }
  }
  for (const auto& [txn, lsn] : tail) {
    LogRecord abort;
    abort.type = LogRecordType::kAbort;
    abort.txn = txn;
    abort.prev_lsn = lsn;
    log->Append(std::move(abort));
  }
  return Status::Ok();
}

void RebuildErts(ObjectStore* store, ErtSet* erts) {
  erts->ClearAll();
  for (uint32_t p = 0; p < store->num_partitions(); ++p) {
    Partition& part = store->partition(static_cast<PartitionId>(p));
    part.ForEachLiveObject([&](uint64_t offset) {
      const ObjectHeader* h = part.HeaderAt(offset);
      ObjectId parent(static_cast<PartitionId>(p), offset);
      for (uint32_t i = 0; i < h->num_refs; ++i) {
        ObjectId child = h->refs()[i];
        if (child.valid() && child.partition() != p) {
          erts->For(child.partition()).AddRef(child, parent);
        }
      }
    });
  }
}

std::vector<InterruptedMigration> FindInterruptedMigrations(ObjectStore* store,
                                                            LogManager* log) {
  std::unordered_set<TxnId> committed;
  for (const LogRecord& rec : log->StableRecordsFrom(1)) {
    if (rec.type == LogRecordType::kCommit) committed.insert(rec.txn);
  }
  std::vector<InterruptedMigration> out;
  for (const LogRecord& rec : log->StableRecordsFrom(1)) {
    if (rec.type != LogRecordType::kCreate ||
        rec.source != LogSource::kReorg || !rec.reorg_old.valid()) {
      continue;
    }
    if (committed.count(rec.txn) == 0) continue;
    // O_new committed; if O_old is still live the migration never
    // finished and both copies exist.
    if (store->Validate(rec.reorg_old) && store->Validate(rec.oid)) {
      out.push_back(InterruptedMigration{rec.reorg_old, rec.oid});
    }
  }
  return out;
}

}  // namespace brahma
