#include "core/database.h"

#include <algorithm>

#include "common/failpoint.h"

namespace brahma {

Database::Database(const DatabaseOptions& options) : options_(options) {
  epoch_ = std::make_unique<EpochManager>();
  store_ = std::make_unique<ObjectStore>(options.num_data_partitions,
                                         options.partition_capacity);
  store_->set_epoch_manager(epoch_.get());
  if (options.data_backing == DataBacking::kDisk) {
    const uint64_t ps = options.data_page_size;
    if (options.data_dir.empty()) {
      data_status_ =
          Status::InvalidArgument("kDisk data backing requires data_dir");
    } else if (ps == 0 || (ps & (ps - 1)) != 0) {
      data_status_ =
          Status::InvalidArgument("data_page_size must be a power of two");
    } else if (options.buffer_pool_frames < kBufferPoolMinFrames) {
      data_status_ = Status::InvalidArgument(
          "buffer_pool_frames must be >= kBufferPoolMinFrames");
    } else if (options.partition_capacity % ps != 0) {
      data_status_ = Status::InvalidArgument(
          "partition_capacity must be a multiple of data_page_size");
    } else {
      DiskManager::Options mo;
      mo.dir = options.data_dir;
      mo.page_size = ps;
      mo.pages = (uint64_t{options.num_data_partitions} + 1) *
                 (options.partition_capacity / ps);
      mo.fsync_mode = options.fsync_mode;
      disk_data_ = std::make_unique<DiskManager>(std::move(mo));
      data_status_ = disk_data_->Open();
    }
    if (data_status_.ok()) {
      BufferPool::Options po;
      po.page_size = ps;
      po.frames = options.buffer_pool_frames;
      pool_ =
          std::make_unique<BufferPool>(po, disk_data_.get(), epoch_.get());
      store_->AttachBufferPool(pool_.get());
    } else {
      // Fall back to fully in-memory arenas; the caller decides whether
      // that is acceptable via data_status().
      disk_data_.reset();
    }
  }
  log_ = std::make_unique<LogManager>(options.commit_flush_latency);
  log_->set_group_commit(options.group_commit);
  if (options.durability == Durability::kDisk) {
    if (options.wal_dir.empty()) {
      durability_status_ =
          Status::InvalidArgument("kDisk durability requires wal_dir");
    } else {
      DiskLog::Options dopts;
      dopts.dir = options.wal_dir;
      dopts.segment_bytes = options.wal_segment_bytes;
      dopts.fsync_mode = options.fsync_mode;
      disk_log_ = std::make_unique<DiskLog>(dopts);
      durability_status_ = disk_log_->Open();
      CheckpointStore::Options copts;
      copts.dir = options.wal_dir;
      copts.fsync_mode = options.fsync_mode;
      ckpt_store_ = std::make_unique<CheckpointStore>(std::move(copts));
      if (durability_status_.ok()) {
        durability_status_ = ckpt_store_->Open(&ckpt_generation_);
      }
      if (durability_status_.ok()) {
        log_->AttachDiskLog(disk_log_.get());
      } else {
        // Fall back to in-memory logging; the caller decides whether a
        // non-durable database is acceptable via durability_status().
        disk_log_.reset();
        ckpt_store_.reset();
      }
    }
  }
  locks_ = std::make_unique<LockManager>();
  locks_->set_history_enabled(options.enable_lock_history);
  locks_->set_deadlock_policy(options.deadlock_policy);
  erts_ = std::make_unique<ErtSet>(store_->num_partitions());
  trt_ = std::make_unique<Trt>();
  analyzer_ = std::make_unique<LogAnalyzer>(log_.get(), erts_.get(),
                                            trt_.get());

  TxnContext ctx;
  ctx.store = store_.get();
  ctx.log = log_.get();
  ctx.locks = locks_.get();
  ctx.checkpoint_latch = &checkpoint_latch_;
  ctx.epoch = epoch_.get();
  ctx.latchfree_reads = options.latchfree_reads;
  ctx.lock_timeout = options.lock_timeout;
  ctx.strict_2pl = options.strict_2pl;
  txns_ = std::make_unique<TransactionManager>(ctx);
  txns_->SetCompletionHooks(
      [this](TxnId txn, bool committed) {
        trt_->OnTxnComplete(txn, committed);
      },
      [this] { MaybeTruncateLog(); });

  analyzer_->Start(options.analyzer_mode);
}

Database::~Database() {
  analyzer_->Stop();
  // All client threads are gone; hand the pool's queued frame releases
  // to the epoch manager, then release every retired arena range while
  // the store (whose partitions the callbacks reference) and the pool
  // are both still alive.
  if (pool_ != nullptr) pool_->FlushRetirements();
  epoch_->ForceDrainAll();
}

void Database::MaybeTruncateLog() {
  if (options_.log_truncate_threshold == 0) return;
  // Cheap gate: only one completer at a time bothers, and only when the
  // retained log is past the threshold.
  if (truncating_.exchange(true)) return;
  if (log_->NumRecords() > options_.log_truncate_threshold) {
    // Keep everything an active transaction may still undo and everything
    // the analyzer has not yet digested.
    Lsn safe = log_->last_lsn() + 1;
    Lsn oldest_active = txns_->MinActiveFirstLsn();
    if (oldest_active != kInvalidLsn) safe = std::min(safe, oldest_active);
    safe = std::min(safe, analyzer_->processed_lsn() + 1);
    // Only stable history is droppable.
    safe = std::min(safe, log_->stable_lsn() + 1);
    log_->Truncate(safe);
  }
  truncating_.store(false);
}

Status Database::Checkpoint() {
  // Delay-only site: a slow checkpoint stretches the quiesce window.
  BRAHMA_FAILPOINT_HIT("db:checkpoint");
  CheckpointImage img;
  Lsn rec_lsn = kInvalidLsn;
  {
    // Exclusive against every (append, apply) pair: the image is exactly
    // the state after all records with lsn <= img.lsn.
    ExclusiveLatchGuard g(&checkpoint_latch_);
    for (uint32_t p = 0; p < store_->num_partitions(); ++p) {
      Partition::Image pi;
      Status ss =
          store_->partition(static_cast<PartitionId>(p)).SnapshotInto(&pi);
      // A cold page that cannot be read back verified poisons the whole
      // image; the previous checkpoint stays in force.
      if (!ss.ok()) return ss;
      img.images.push_back(std::move(pi));
    }
    img.lsn = log_->last_lsn();
    img.persistent_root = store_->persistent_root();
    img.valid = true;
    LogRecord rec;
    rec.type = LogRecordType::kCheckpoint;
    rec.checkpoint_lsn = img.lsn;
    rec_lsn = log_->Append(std::move(rec));
  }
  log_->Flush(log_->last_lsn());
  // A failed device force leaves stable_lsn_ behind the checkpoint
  // record; publishing the image anyway would let Recover use a floor
  // the log cannot back.
  if (log_->stable_lsn() < rec_lsn) {
    return Status::Internal("checkpoint log force failed");
  }
  if (ckpt_store_ != nullptr) {
    Status cs = ckpt_store_->Save(img, ckpt_generation_ + 1);
    if (!cs.ok()) return cs;  // previous generation remains in force
    ++ckpt_generation_;
  }
  checkpoint_ = std::move(img);
  return Status::Ok();
}

void Database::SimulateCrash() {
  analyzer_->Stop();
  log_->DiscardUnflushed();
  locks_->ClearAllState();
  txns_->Reset();
  trt_->Disable();
  if (disk_log_ != nullptr) {
    // The disk is the only survivor: queued frames die with the process
    // and the in-memory checkpoint image is volatile — Recover reloads
    // whatever generation actually got published.
    disk_log_->CrashClose();
    checkpoint_ = CheckpointImage();
  }
  if (pool_ != nullptr) {
    // The frame cache dies with the process: scramble every materialized
    // page and distrust the data file. Recover()'s Restore repopulates
    // the arenas from the checkpoint image + WAL redo.
    pool_->SimulateCrashLoseFrames(options_.num_data_partitions + 1);
  }
  // Grace periods are volatile state: every reader thread died with the
  // crash, so all pending retirements drain now. Recovery then works on
  // an arena whose free list is exact (redo may AllocateAt into ranges
  // that were still awaiting their grace period).
  epoch_->ForceDrainAll();
}

Status Database::Recover() {
  if (disk_log_ != nullptr) {
    ScrubReport report;
    CheckpointImage img;
    uint64_t gen = 0;
    Status cs = ckpt_store_->LoadLatest(&img, &gen, &report);
    if (cs.ok()) {
      checkpoint_ = std::move(img);
      ckpt_generation_ = gen;
    } else if (cs.IsNotFound()) {
      // No usable generation: recover from the log alone. The stamp
      // counter keeps counting up so a later Save never reuses a
      // discarded generation's name.
      checkpoint_ = CheckpointImage();
    }
    const Lsn floor = checkpoint_.valid ? checkpoint_.lsn : 0;
    std::vector<LogRecord> recovered;
    Status ds =
        cs.ok() || cs.IsNotFound()
            ? disk_log_->Recover(floor, &recovered, &report)
            : cs;
    // Fold the scrub counters whether or not the scan succeeded — a
    // refused recovery still reports what it saw.
    scrub_.Add(report);
    if (!ds.ok()) return ds;
    if (!checkpoint_.valid && !recovered.empty() &&
        recovered.front().lsn != 1) {
      // The log head was truncated under a checkpoint, but no checkpoint
      // generation survived: history is unreconstructible.
      return Status::Corrupted("log head truncated and no usable checkpoint");
    }
    log_->ResetFromRecovered(std::move(recovered), floor + 1);
  }
  Status s = RunRestartRecovery(store_.get(), log_.get(),
                                checkpoint_.valid ? &checkpoint_ : nullptr);
  if (!s.ok()) return s;
  if (disk_log_ != nullptr) {
    // Undo of losers appended CLR/abort records; make them durable
    // before the database is reopened for business. A failed force
    // leaves them behind stable_lsn_, as in Checkpoint.
    log_->Flush(log_->last_lsn());
    if (log_->stable_lsn() < log_->last_lsn()) {
      return Status::Internal("recovery log force failed");
    }
  }
  RebuildErts(store_.get(), erts_.get());
  analyzer_->SkipToEnd();
  analyzer_->Start(options_.analyzer_mode);
  return Status::Ok();
}

}  // namespace brahma
