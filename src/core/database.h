#ifndef BRAHMA_CORE_DATABASE_H_
#define BRAHMA_CORE_DATABASE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "common/epoch.h"
#include "common/latch.h"
#include "common/params.h"
#include "core/ert.h"
#include "core/ira.h"
#include "core/log_analyzer.h"
#include "core/offline_reorg.h"
#include "core/pqr.h"
#include "core/relocation.h"
#include "core/trt.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/object_store.h"
#include "txn/lock_manager.h"
#include "txn/transaction_manager.h"
#include "common/stats.h"
#include "wal/checkpoint_store.h"
#include "wal/disk_log.h"
#include "wal/log_manager.h"
#include "wal/recovery.h"

namespace brahma {

struct DatabaseOptions {
  // Data partitions; partition 0 (the root partition) is added on top.
  uint32_t num_data_partitions = 10;
  uint64_t partition_capacity = 8ull << 20;

  // Commit-time log force latency (models the disk I/O the paper's
  // systems pay at commit; 0 disables the wait). Benches use
  // kCommitForceLatency from common/params.h.
  std::chrono::microseconds commit_flush_latency{0};

  // Group commit: concurrent committers batch on a shared force — one
  // elected flusher forces to the highest requested LSN and the rest are
  // absorbed. Off = every committer pays its own (overlapping) force,
  // the pre-group-commit model.
  bool group_commit = true;

  // Lock-wait timeout for deadlock resolution (1 s in the paper; see
  // common/params.h for the shared defaults).
  std::chrono::milliseconds lock_timeout = kPaperLockTimeout;

  // How lock waits detect and break deadlocks before the timeout fires:
  // waits-for graph detection (default) or the paper's timeout-only
  // baseline. See common/params.h and DESIGN.md §10.
  DeadlockPolicy deadlock_policy = kDefaultDeadlockPolicy;

  // Epoch-protected latch-free read path (DESIGN.md §11): ReadRefs/
  // ReadRef/ReadData need no logical lock — they run under an epoch
  // guard, chase the store's relocation table past in-flight migrations,
  // and snapshot under the short per-object latch only. Removes the
  // reader-vs-migration lock queueing the paper's Section 5 experiments
  // pay for; kept as a knob so benches can ablate it. Readers may observe
  // uncommitted (dirty) state — equivalent to degree-1 isolation for
  // reads — which the read-mostly navigation workloads here accept.
  bool latchfree_reads = false;

  // If false, transactions may release object locks early (Section 4.1);
  // the reorganizer must then run with wait_for_historical_lockers and
  // lock history must be enabled.
  bool strict_2pl = true;
  bool enable_lock_history = false;

  LogAnalyzer::Mode analyzer_mode = LogAnalyzer::Mode::kThread;

  // Durability substrate (DESIGN.md §12). kInMemory is the fast default
  // every existing test runs under: the stable log is a deque and a
  // force is the modeled commit_flush_latency. kDisk puts WAL segment
  // files and generation-stamped checkpoint images under wal_dir, with
  // real fsyncs (per fsync_mode) and a corruption-aware recovery scan.
  // Check durability_status() after construction in kDisk mode.
  Durability durability = Durability::kInMemory;
  std::string wal_dir;
  uint64_t wal_segment_bytes = kWalSegmentBytes;
  FsyncMode fsync_mode = FsyncMode::kFull;

  // Data backing (DESIGN.md §13). kMemory keeps every arena page
  // permanently materialized — the seed's model and the fast default.
  // kDisk bounds residency to buffer_pool_frames frames of
  // data_page_size bytes and spills the rest to a data file under
  // data_dir, making reorg's clustering I/O win (fewer page fetches per
  // traversal, paper Section 5/Figure 6) measurable against real page
  // traffic. Orthogonal to `durability`: the data file is an
  // operational cache, not a recovery source. partition_capacity must
  // be a multiple of data_page_size (a power of two); check
  // data_status() after construction.
  DataBacking data_backing = DataBacking::kMemory;
  std::string data_dir;
  uint64_t data_page_size = kDataPageSize;
  uint64_t buffer_pool_frames = kBufferPoolFrames;

  // If > 0, retained log records are trimmed whenever their count exceeds
  // this threshold, keeping everything still needed for active-transaction
  // undo and for the analyzer. Trades away restart recovery from old
  // checkpoints (the paper makes the same kind of logging-overhead
  // trade-off for the ERT, Section 4.4) — long-running benchmarks enable
  // it, recovery tests leave it off.
  size_t log_truncate_threshold = 0;
};

// The Brahmā-style storage manager facade: object store + WAL + strict
// 2PL transactions + log analyzer maintaining the ERT/TRT + the on-line
// reorganization utilities. This is the public entry point of the
// library; see examples/quickstart.cc.
class Database {
 public:
  explicit Database(const DatabaseOptions& options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const DatabaseOptions& options() const { return options_; }

  std::unique_ptr<Transaction> Begin(LogSource source = LogSource::kUser) {
    return txns_->Begin(source);
  }

  ObjectStore& store() { return *store_; }
  LogManager& log() { return *log_; }
  LockManager& locks() { return *locks_; }
  TransactionManager& txns() { return *txns_; }
  ErtSet& erts() { return *erts_; }
  Trt& trt() { return *trt_; }
  LogAnalyzer& analyzer() { return *analyzer_; }
  EpochManager& epoch() { return *epoch_; }

  ReorgContext reorg_context() {
    return ReorgContext{store_.get(),    txns_.get(), locks_.get(),
                        log_.get(),      erts_.get(), trt_.get(),
                        analyzer_.get(), epoch_.get()};
  }

  // Convenience runners.
  Status RunIra(PartitionId p, RelocationPlanner* planner,
                const IraOptions& options, ReorgStats* stats) {
    IraReorganizer ira(reorg_context());
    return ira.Run(p, planner, options, stats);
  }
  Status RunPqr(PartitionId p, RelocationPlanner* planner,
                const PqrOptions& options, ReorgStats* stats) {
    PqrReorganizer pqr(reorg_context());
    return pqr.Run(p, planner, options, stats);
  }

  // --- durability ---------------------------------------------------------
  // Takes a sharp checkpoint (quiesces (append, apply) pairs briefly).
  // In kDisk mode the image is additionally serialized and published
  // atomically as the next generation; a failure leaves the previous
  // on-disk generation (and the previous in-memory image) in force.
  Status Checkpoint();
  const CheckpointImage& checkpoint() const { return checkpoint_; }

  // Non-OK when kDisk initialization failed (bad wal_dir, injected open
  // fault): the database falls back to in-memory logging.
  const Status& durability_status() const { return durability_status_; }

  // Non-OK when kDisk data backing could not be set up (bad geometry,
  // missing data_dir, data file open fault): the database falls back to
  // fully in-memory arenas, mirroring durability_status().
  const Status& data_status() const { return data_status_; }

  // Null unless data_backing == kDisk initialized successfully.
  BufferPool* buffer_pool() { return pool_.get(); }
  DiskManager* disk_data() { return disk_data_.get(); }

  // Crash simulation: all client threads must be stopped. Drops every
  // record not flushed to the stable log and all volatile state (locks,
  // active transactions, TRT, analyzer cursor — and, in kDisk mode, the
  // volatile checkpoint image and queued WAL frames: the disk is the
  // only survivor). Call Recover() next.
  void SimulateCrash();

  // Restart recovery: in kDisk mode first reloads the newest checkpoint
  // generation that verifies and scans the WAL segments (CRC + LSN
  // chain, truncating an unacknowledged torn tail, Status::Corrupted if
  // stable data is damaged); then restores the checkpoint image, redoes
  // history, undoes losers, rebuilds ERTs, and restarts the analyzer.
  // The scan's counters accumulate in scrub().
  Status Recover();

  // Cumulative scrub counters across every Recover on this database.
  const ScrubReport& scrub() const { return scrub_; }
  DiskLog* disk_log() { return disk_log_.get(); }

 private:
  void MaybeTruncateLog();

  DatabaseOptions options_;
  std::atomic<bool> truncating_{false};
  // Declared before store_: retire callbacks reference partition arenas,
  // so the epoch manager (whose destructor drains them) must be destroyed
  // only after ~Database has already force-drained, and must never
  // outlive a store that is still queueing retirements.
  std::unique_ptr<EpochManager> epoch_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<ErtSet> erts_;
  std::unique_ptr<Trt> trt_;
  std::unique_ptr<LogAnalyzer> analyzer_;
  std::unique_ptr<TransactionManager> txns_;
  SharedLatch checkpoint_latch_;
  CheckpointImage checkpoint_;

  // kDisk mode (DESIGN.md §12): null in kInMemory mode.
  std::unique_ptr<DiskLog> disk_log_;
  std::unique_ptr<CheckpointStore> ckpt_store_;
  uint64_t ckpt_generation_ = 0;
  Status durability_status_;
  ScrubReport scrub_;

  // Disk data backing (DESIGN.md §13): null in kMemory mode. Destroyed
  // before store_ and epoch_; ~Database drains the epoch manager while
  // the pool is still alive, so no release callback outlives it.
  std::unique_ptr<DiskManager> disk_data_;
  std::unique_ptr<BufferPool> pool_;
  Status data_status_;
};

}  // namespace brahma

#endif  // BRAHMA_CORE_DATABASE_H_
