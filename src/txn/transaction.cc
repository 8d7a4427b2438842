#include "txn/transaction.h"

#include <cstring>

#include "common/epoch.h"
#include "common/failpoint.h"
#include "core/side_effect_log.h"
#include "txn/transaction_manager.h"

namespace brahma {

namespace {
// Up to this many held locks, one flat vector scanned linearly costs a
// whole transaction no more than a hash map's allocation per entry; the
// two break even at 24-32 locks (EXPERIMENTS.md). Past it the entries
// move into a hash map.
constexpr size_t kHeldLocksScanLimit = 32;
// First allocation of a transaction's held-lock vector: a user walk's
// locks fit without regrowing.
constexpr size_t kHeldLocksInitial = 16;
}  // namespace

const LockMode* Transaction::HeldLocks::Find(ObjectId oid) const {
  if (!large_.empty()) {
    auto it = large_.find(oid);
    return it != large_.end() ? &it->second : nullptr;
  }
  for (const auto& e : small_) {
    if (e.first == oid) return &e.second;
  }
  return nullptr;
}

bool Transaction::HeldLocks::Set(ObjectId oid, LockMode mode) {
  if (!large_.empty()) {
    auto [it, inserted] = large_.try_emplace(oid, mode);
    it->second = mode;
    return inserted;
  }
  for (auto& e : small_) {
    if (e.first == oid) {
      e.second = mode;
      return false;
    }
  }
  if (small_.size() < kHeldLocksScanLimit) {
    if (small_.empty()) small_.reserve(kHeldLocksInitial);
    small_.emplace_back(oid, mode);
    return true;
  }
  large_.reserve(2 * kHeldLocksScanLimit);
  large_.insert(small_.begin(), small_.end());
  small_.clear();
  large_.emplace(oid, mode);
  return true;
}

bool Transaction::HeldLocks::Erase(ObjectId oid) {
  if (!large_.empty()) return large_.erase(oid) > 0;
  for (size_t i = 0; i < small_.size(); ++i) {
    if (small_[i].first != oid) continue;
    small_[i] = small_.back();
    small_.pop_back();
    return true;
  }
  return false;
}

void Transaction::HeldLocks::Clear() {
  small_.clear();
  large_.clear();
}

Transaction::~Transaction() {
  if (state_ == State::kActive) {
    Abort();
  }
}

Status Transaction::Lock(ObjectId oid, LockMode mode) {
  return LockWithTimeout(oid, mode, ctx_.lock_timeout);
}

Status Transaction::LockWithTimeout(ObjectId oid, LockMode mode,
                                    std::chrono::milliseconds timeout) {
  if (state_ != State::kActive) return Status::Aborted("txn not active");
  // Re-entrant on a mode at least as strong: answered from this
  // transaction's own table, without the shared lock table (and without
  // the lock:acquire failpoint).
  const LockMode* held = held_.Find(oid);
  if (held != nullptr && (*held == LockMode::kExclusive || *held == mode)) {
    return Status::Ok();
  }
  Status s = ctx_.locks->Acquire(id_, oid, mode, timeout, VictimProfile(),
                                 &read_dep_);
  if (!s.ok()) return s;  // a failed upgrade keeps the S mode it had
  NoteGranted(oid, mode);
  return Status::Ok();
}

void Transaction::NoteGranted(ObjectId oid, LockMode mode) {
  if (held_.Set(oid, mode) && ctx_.locks->history_enabled()) {
    ever_locked_.push_back(oid);
  }
}

WaiterProfile Transaction::VictimProfile() const {
  WaiterProfile p;
  p.reorg = source_ == LogSource::kReorg;
  p.side_effects =
      side_effect_log_ != nullptr ? side_effect_log_->entries() : 0;
  p.locks_held = held_.size();
  // Compensation in flight ("undo is never undone", §8): whatever lock
  // this path needs, it must not itself be sacrificed mid-rollback.
  p.no_victim = failpoint::ScopedSuppress::active();
  return p;
}

void Transaction::Unlock(ObjectId oid) {
  if (held_.Erase(oid)) {
    ctx_.locks->Release(id_, oid);
  }
}

Status Transaction::RequireHeld(ObjectId oid, LockMode min_mode) const {
  const LockMode* held = held_.Find(oid);
  if (held == nullptr) {
    return Status::Internal("object accessed without lock: " +
                            oid.ToString());
  }
  if (min_mode == LockMode::kExclusive && *held != LockMode::kExclusive) {
    return Status::Internal("exclusive access under shared lock: " +
                            oid.ToString());
  }
  return Status::Ok();
}

ObjectHeader* Transaction::GetLive(ObjectId oid) const {
  return ctx_.store->Get(oid);
}

Lsn Transaction::AppendOwn(LogRecord rec) {
  rec.txn = id_;
  rec.source = source_;
  rec.prev_lsn = last_lsn_;
  const bool first = last_lsn_ == kInvalidLsn;
  // Publish a floor before the first record exists: a log truncation that
  // sees the record (it reads last_lsn() first) then also sees the floor,
  // so it cannot drop the record this transaction may need for undo.
  if (first) {
    first_lsn_.store(ctx_.log->last_lsn() + 1, std::memory_order_release);
  }
  last_lsn_ = ctx_.log->Append(std::move(rec));
  if (first) first_lsn_.store(last_lsn_, std::memory_order_release);
  return last_lsn_;
}

// Zero-lock read path (DESIGN.md §11). The epoch guard pins reclamation:
// any block observed live after the pin cannot have its bytes recycled
// before the guard closes, because its retirement would be tagged with an
// epoch >= ours and the drain waits for us. The per-object latch is still
// taken for the duration of the copy — that is the paper's physical-
// consistency latch (Section 3.4), held for nanoseconds, not the logical
// lock held for the transaction's lifetime that queues readers behind
// migrations. Identity is re-validated under the latch: a block poisoned
// between Get and the latch acquisition reads as non-live and we fall
// through to the relocation table, which migration populates before it
// retires O_old — so a reader either wins the race to O_old (still a
// correct pre-move snapshot) or chases to O_new.
Status Transaction::LatchfreeSnapshot(
    ObjectId oid, const std::function<Status(ObjectHeader*)>& fn) {
  EpochGuard guard(ctx_.epoch);
  ObjectId cur = oid;
  for (uint32_t hop = 0; hop <= kEpochRelocationMaxHops; ++hop) {
    ObjectHeader* h = ctx_.store->Get(cur);  // acquire-loads the magic
    if (h != nullptr) {
      SharedLatchGuard g(&h->latch);
      if (h->IsLive() && h->self == cur.raw()) {
        Status s = fn(h);
        ctx_.epoch->NoteLatchfreeRead();
        return s;
      }
    }
    ObjectId next;
    if (!ctx_.store->ChaseRelocation(cur, &next)) break;
    cur = next;
  }
  return Status::Aborted("stale reference " + oid.ToString());
}

Status Transaction::ReadRefs(ObjectId oid, std::vector<ObjectId>* out) {
  out->clear();
  if (UseLatchfreeReads()) {
    Status s = LatchfreeSnapshot(oid, [out](ObjectHeader* h) {
      // Snapshot (num_refs, refs) together under the latch: a migrated
      // copy produced by RelocationPlanner::Transform may have a
      // different fan-out, and reading the count from one incarnation
      // and the slots from another tears the read.
      out->assign(h->refs(), h->refs() + h->num_refs);
      return Status::Ok();
    });
    if (!s.ok()) return s;
  } else {
    Status s = RequireHeld(oid, LockMode::kShared);
    if (!s.ok()) return s;
    // The logical lock does not stop the reorganizer from freeing O_old
    // (it frees lock-free once all parents are locked); the epoch pin
    // keeps the block's memory stable across the lookup -> latch window.
    EpochGuard epoch_guard(ctx_.epoch);
    ObjectHeader* h = GetLive(oid);
    if (h == nullptr) {
      return Status::Aborted("stale reference " + oid.ToString());
    }
    SharedLatchGuard g(&h->latch);
    out->assign(h->refs(), h->refs() + h->num_refs);
  }
  for (ObjectId r : *out) {
    if (r.valid()) local_refs_.push_back(r);
  }
  return Status::Ok();
}

Status Transaction::ReadRef(ObjectId oid, uint32_t slot, ObjectId* out) {
  if (UseLatchfreeReads()) {
    Status s = LatchfreeSnapshot(oid, [slot, out](ObjectHeader* h) {
      // The slot bound must come from the same latched incarnation as
      // the slot value (Transform can shrink the fan-out).
      if (slot >= h->num_refs) return Status::InvalidArgument("bad slot");
      *out = h->refs()[slot];
      return Status::Ok();
    });
    if (!s.ok()) return s;
    if (out->valid()) local_refs_.push_back(*out);
    return Status::Ok();
  }
  Status s = RequireHeld(oid, LockMode::kShared);
  if (!s.ok()) return s;
  EpochGuard epoch_guard(ctx_.epoch);
  ObjectHeader* h = GetLive(oid);
  if (h == nullptr) return Status::Aborted("stale reference " + oid.ToString());
  if (slot >= h->num_refs) return Status::InvalidArgument("bad slot");
  {
    SharedLatchGuard g(&h->latch);
    *out = h->refs()[slot];
  }
  if (out->valid()) local_refs_.push_back(*out);
  return Status::Ok();
}

Status Transaction::ReadData(ObjectId oid, std::vector<uint8_t>* out) {
  if (UseLatchfreeReads()) {
    return LatchfreeSnapshot(oid, [out](ObjectHeader* h) {
      out->assign(h->data(), h->data() + h->data_size);
      return Status::Ok();
    });
  }
  Status s = RequireHeld(oid, LockMode::kShared);
  if (!s.ok()) return s;
  EpochGuard epoch_guard(ctx_.epoch);
  ObjectHeader* h = GetLive(oid);
  if (h == nullptr) return Status::Aborted("stale reference " + oid.ToString());
  SharedLatchGuard g(&h->latch);
  out->assign(h->data(), h->data() + h->data_size);
  return Status::Ok();
}

Status Transaction::SetRef(ObjectId oid, uint32_t slot, ObjectId new_ref) {
  Status s = RequireHeld(oid, LockMode::kExclusive);
  if (!s.ok()) return s;
  EpochGuard epoch_guard(ctx_.epoch);
  ObjectHeader* h = GetLive(oid);
  if (h == nullptr) return Status::Aborted("stale reference " + oid.ToString());
  if (slot >= h->num_refs) return Status::InvalidArgument("bad slot");
  // Write pin: the block's frames stay resident (and un-written-back)
  // for the duration of the in-place mutation below.
  ObjectStore::GuardForWrite wg(ctx_.store, oid);
  if (!wg.ok()) return Status::Internal("data page pin failed");
  SharedLatchGuard ck(ctx_.checkpoint_latch);
  ExclusiveLatchGuard g(&h->latch);
  ObjectId old_ref = h->refs()[slot];
  if (old_ref == new_ref) return Status::Ok();
  // WAL: the pointer delete is noted (via the log analyzer) before the
  // pointer is actually deleted (paper Section 3.3).
  LogRecord rec;
  rec.type = LogRecordType::kSetRef;
  rec.oid = oid;
  rec.slot = slot;
  rec.old_ref = old_ref;
  rec.new_ref = new_ref;
  AppendOwn(std::move(rec));
  h->refs()[slot] = new_ref;
  return Status::Ok();
}

Status Transaction::WriteData(ObjectId oid, const std::vector<uint8_t>& bytes) {
  Status s = RequireHeld(oid, LockMode::kExclusive);
  if (!s.ok()) return s;
  EpochGuard epoch_guard(ctx_.epoch);
  ObjectHeader* h = GetLive(oid);
  if (h == nullptr) return Status::Aborted("stale reference " + oid.ToString());
  if (bytes.size() != h->data_size) {
    return Status::InvalidArgument("data size mismatch");
  }
  ObjectStore::GuardForWrite wg(ctx_.store, oid);
  if (!wg.ok()) return Status::Internal("data page pin failed");
  SharedLatchGuard ck(ctx_.checkpoint_latch);
  ExclusiveLatchGuard g(&h->latch);
  LogRecord rec;
  rec.type = LogRecordType::kUpdateData;
  rec.oid = oid;
  rec.old_data.assign(h->data(), h->data() + h->data_size);
  rec.new_data = bytes;
  AppendOwn(std::move(rec));
  std::memcpy(h->data(), bytes.data(), bytes.size());
  return Status::Ok();
}

Status Transaction::CreateObject(PartitionId p, uint32_t num_refs,
                                 uint32_t data_size, ObjectId* out) {
  std::vector<ObjectId> refs(num_refs, ObjectId::Invalid());
  std::vector<uint8_t> data(data_size, 0);
  return CreateObjectWithContents(p, refs, data, out);
}

Status Transaction::CreateObjectWithContents(
    PartitionId p, const std::vector<ObjectId>& refs,
    const std::vector<uint8_t>& data, ObjectId* out, ObjectId reorg_old) {
  if (state_ != State::kActive) return Status::Aborted("txn not active");
  SharedLatchGuard ck(ctx_.checkpoint_latch);
  ObjectId oid;
  Status s = ctx_.store->CreateObject(p, static_cast<uint32_t>(refs.size()),
                                      static_cast<uint32_t>(data.size()),
                                      &oid);
  if (!s.ok()) return s;
  ObjectHeader* h = ctx_.store->Get(oid);
  LogRecord rec;
  rec.type = LogRecordType::kCreate;
  rec.oid = oid;
  rec.num_refs = h->num_refs;
  rec.data_size = h->data_size;
  rec.refs_image = refs;
  rec.new_data = data;
  rec.reorg_old = reorg_old;
  AppendOwn(std::move(rec));
  {
    ObjectStore::GuardForWrite wg(ctx_.store, oid);
    // Fill under the object latch: if the allocation reused an arena
    // offset, the ObjectId is the same as the freed object's and a
    // latch-free reader still holding that id will validate successfully
    // against this block — its latched snapshot must see either the
    // published empty state or the full contents, never a torn fill.
    ExclusiveLatchGuard g(&h->latch);
    for (uint32_t i = 0; i < h->num_refs; ++i) h->refs()[i] = refs[i];
    if (!data.empty()) std::memcpy(h->data(), data.data(), data.size());
  }
  // The creator owns the object until it completes.
  Status ls = ctx_.locks->Acquire(id_, oid, LockMode::kExclusive,
                                  ctx_.lock_timeout, VictimProfile());
  if (ls.ok()) NoteGranted(oid, LockMode::kExclusive);
  *out = oid;
  return Status::Ok();
}

Status Transaction::FreeObject(ObjectId oid) {
  Status s = RequireHeld(oid, LockMode::kExclusive);
  // The reorganizer frees O_old without locking it (no transaction can
  // reach it once all parents are locked, paper Section 3.5) — allow
  // lock-free frees for reorg transactions.
  if (!s.ok() && source_ != LogSource::kReorg) return s;
  EpochGuard epoch_guard(ctx_.epoch);
  ObjectHeader* h = GetLive(oid);
  if (h == nullptr) return Status::Aborted("stale reference " + oid.ToString());
  SharedLatchGuard ck(ctx_.checkpoint_latch);
  LogRecord rec;
  rec.type = LogRecordType::kFree;
  rec.oid = oid;
  rec.num_refs = h->num_refs;
  rec.data_size = h->data_size;
  rec.refs_image.assign(h->refs(), h->refs() + h->num_refs);
  rec.old_data.assign(h->data(), h->data() + h->data_size);
  AppendOwn(std::move(rec));
  // Epoch-deferred: a latch-free reader may still hold the raw header
  // pointer; the arena range is recycled only after its grace period.
  return ctx_.store->RetireObject(oid);
}

Status Transaction::Commit() {
  if (state_ != State::kActive) return Status::Aborted("txn not active");
  // Crash before the commit record exists: the transaction is a loser
  // and restart recovery undoes it from the stable log.
  BRAHMA_FAILPOINT(source_ == LogSource::kReorg ? "txn:reorg-commit:begin"
                                                : "txn:commit:begin");
  // The commit LSN of a reorganizer that releases its locks before its
  // force (DESIGN.md §9, "Early lock release").
  Lsn early_release = kInvalidLsn;
  if (last_lsn_ != kInvalidLsn) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    Lsn lsn = AppendOwn(std::move(rec));
    // Crash after the commit record is appended but before the force: the
    // record is discarded unless a concurrent committer's flush already
    // made it stable — both outcomes are legal recovery inputs.
    BRAHMA_FAILPOINT(source_ == LogSource::kReorg
                         ? "txn:reorg-commit:before-flush"
                         : "txn:commit:before-flush");
    if (source_ == LogSource::kReorg) {
      early_release = lsn;
    } else {
      // Group-commit force: may batch with concurrent committers, aligned
      // on how long this transaction worked before asking. A crash
      // injected between the device force and the durability
      // acknowledgement propagates here — the transaction is NOT
      // committed (recovery decides its fate from the stable log) and the
      // caller abandons it.
      Status fs = ctx_.log->ForceCommit(
          lsn, std::chrono::steady_clock::now() - begun_);
      if (!fs.ok()) return fs;
    }
  } else if (read_dep_ != kInvalidLsn) {
    // Logged nothing, but locked an object a reorganizer released before
    // its commit was stable: what this transaction read is durable only
    // once that commit is. Usually it already is, and this returns at
    // once. A rider: its next transaction rarely has a force to wait
    // for, so no batch should hold for it to come back.
    Status fs = ctx_.log->ForceCommit(read_dep_, {}, /*rider=*/true);
    if (!fs.ok()) return fs;
  }
  state_ = State::kCommitted;
  // Side effects become permanent with the transaction: pending entries
  // are dropped, compensable ones kept for a later committed reversal.
  if (side_effect_log_ != nullptr) side_effect_log_->PromoteFor(id_);
  mgr_->OnComplete(this, /*committed=*/true, early_release);
  if (early_release != kInvalidLsn) return AwaitReleasedCommit(early_release);
  return Status::Ok();
}

Status Transaction::AwaitReleasedCommit(Lsn lsn) {
  // Crash with the locks released and the commit not yet forced: other
  // transactions may already have read this one's writes. Any commit of
  // theirs that depends on them forces this record too.
  Status s = failpoint::Check("txn:early-release:before-force");
  if (s.ok()) {
    s = ctx_.log->ForceCommit(lsn, {}, /*rider=*/true);
  }
  if (!s.ok()) {
    // The release cannot be taken back, so a failure here is a crash: no
    // later commit may be acknowledged (it could rest on these writes).
    ctx_.log->Fail();
    return s.IsCrashed() ? s
                         : Status::Crashed("force failed after early lock "
                                           "release: " + s.ToString());
  }
  ctx_.locks->ForgetEarlyReleases(released_early_, lsn);
  released_early_.clear();
  return Status::Ok();
}

void Transaction::Abandon() {
  if (state_ != State::kActive) return;
  state_ = State::kAborted;
  // The locks stay in the shared table until SimulateCrash clears it, but
  // this transaction no longer owns them: every later access fails
  // RequireHeld, as one without a lock does.
  held_.Clear();
  mgr_->OnAbandon(this);
}

Status Transaction::Abort() {
  if (state_ != State::kActive) return Status::Aborted("txn not active");
  UndoToEnd();
  // Reverse this transaction's non-WAL side effects (side tables) before
  // OnComplete releases the locks: once a lock drops, another thread may
  // read the parent lists / ERTs, and they must already be back to the
  // pre-migration state.
  if (side_effect_log_ != nullptr) side_effect_log_->ReplayPendingFor(id_);
  // Like Commit: a transaction the log never saw leaves no abort record.
  if (last_lsn_ != kInvalidLsn) {
    LogRecord rec;
    rec.type = LogRecordType::kAbort;
    AppendOwn(std::move(rec));
  }
  state_ = State::kAborted;
  mgr_->OnComplete(this, /*committed=*/false);
  return Status::Ok();
}

// Applies undo for every update of this transaction, newest first,
// appending a compensation record per undone action. CLR payloads
// describe the compensating (i.e., applied) action so the log analyzer
// and recovery redo treat them exactly like forward records — an abort
// that reintroduces a deleted reference is an insertion (Section 4.5).
void Transaction::UndoToEnd() {
  // One pin for the whole (bounded) undo chain: every kSetRef/kUpdateData
  // case does a lookup -> latch probe on an object this transaction may
  // have already unlocked (early lock release), so the block must not be
  // recycled mid-undo.
  EpochGuard epoch_guard(ctx_.epoch);
  Lsn cursor = last_lsn_;
  while (cursor != kInvalidLsn) {
    LogRecord rec;
    if (!ctx_.log->GetRecord(cursor, &rec)) break;
    Lsn next = rec.prev_lsn;
    switch (rec.type) {
      case LogRecordType::kSetRef: {
        ObjectHeader* h = GetLive(rec.oid);
        if (h != nullptr) {
          SharedLatchGuard ck(ctx_.checkpoint_latch);
          ExclusiveLatchGuard g(&h->latch);
          // Re-validate under the latch: with early lock release
          // (Section 4.1) the object may have been migrated away between
          // the lookup and here; undoing into a freed block would corrupt
          // a later allocation.
          if (!h->IsLive() || h->self != rec.oid.raw()) break;
          LogRecord clr;
          clr.type = LogRecordType::kClr;
          clr.compensates = LogRecordType::kSetRef;
          clr.oid = rec.oid;
          clr.slot = rec.slot;
          clr.old_ref = rec.new_ref;  // compensating action: new -> old
          clr.new_ref = rec.old_ref;
          clr.undo_next_lsn = next;
          AppendOwn(std::move(clr));
          ObjectStore::GuardForWrite wg(ctx_.store, rec.oid);
          h->refs()[rec.slot] = rec.old_ref;
        }
        break;
      }
      case LogRecordType::kUpdateData: {
        ObjectHeader* h = GetLive(rec.oid);
        if (h != nullptr) {
          SharedLatchGuard ck(ctx_.checkpoint_latch);
          ExclusiveLatchGuard g(&h->latch);
          if (!h->IsLive() || h->self != rec.oid.raw()) break;
          LogRecord clr;
          clr.type = LogRecordType::kClr;
          clr.compensates = LogRecordType::kUpdateData;
          clr.oid = rec.oid;
          clr.old_data = rec.new_data;
          clr.new_data = rec.old_data;
          clr.undo_next_lsn = next;
          AppendOwn(std::move(clr));
          ObjectStore::GuardForWrite wg(ctx_.store, rec.oid);
          std::memcpy(h->data(), rec.old_data.data(), rec.old_data.size());
        }
        break;
      }
      case LogRecordType::kCreate: {
        SharedLatchGuard ck(ctx_.checkpoint_latch);
        LogRecord clr;
        clr.type = LogRecordType::kClr;
        clr.compensates = LogRecordType::kCreate;
        clr.oid = rec.oid;
        clr.num_refs = rec.num_refs;
        clr.data_size = rec.data_size;
        clr.undo_next_lsn = next;
        AppendOwn(std::move(clr));
        // Epoch-deferred for the same reason as FreeObject: an aborting
        // migration retracts its relocation entry, but a reader that
        // already chased old -> new may still be latching O_new.
        ctx_.store->RetireObject(rec.oid);
        break;
      }
      case LogRecordType::kFree: {
        SharedLatchGuard ck(ctx_.checkpoint_latch);
        LogRecord clr;
        clr.type = LogRecordType::kClr;
        clr.compensates = LogRecordType::kFree;
        clr.oid = rec.oid;
        clr.num_refs = rec.num_refs;
        clr.data_size = rec.data_size;
        clr.refs_image = rec.refs_image;
        clr.new_data = rec.old_data;
        clr.undo_next_lsn = next;
        AppendOwn(std::move(clr));
        Status s = ctx_.store->CreateObjectAt(rec.oid, rec.num_refs,
                                              rec.data_size);
        if (s.ok()) {
          ObjectHeader* h = ctx_.store->Get(rec.oid);
          ObjectStore::GuardForWrite wg(ctx_.store, rec.oid);
          // Latched fill: the resurrected block bears the same ObjectId
          // the freed object had, so a latch-free reader that kept the
          // id can validate against it mid-undo.
          ExclusiveLatchGuard g(&h->latch);
          for (uint32_t i = 0; i < rec.num_refs; ++i) {
            h->refs()[i] = rec.refs_image[i];
          }
          if (rec.data_size > 0) {
            std::memcpy(h->data(), rec.old_data.data(), rec.data_size);
          }
        }
        break;
      }
      default:
        break;
    }
    cursor = next;
  }
}

}  // namespace brahma
