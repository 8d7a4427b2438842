#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "core/database.h"
#include "core/ira.h"
#include "tests/test_util.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

using testing::ScopedTempDir;

constexpr uint64_t kPage = 512;

// Direct pool harness: one fake arena of `pages` pages over a tiny
// DiskManager, no epoch manager (releases run inline at flush — fine
// single-threaded).
class PoolHarness {
 public:
  PoolHarness(const std::string& dir, uint64_t frames, uint64_t pages,
              EpochManager* epoch = nullptr)
      : arena_bytes_(pages * kPage) {
    DiskManager::Options d;
    d.dir = dir;
    d.page_size = kPage;
    d.pages = pages;
    d.fsync_mode = FsyncMode::kNoop;
    disk_ = std::make_unique<DiskManager>(std::move(d));
    EXPECT_TRUE(disk_->Open().ok());
    BufferPool::Options p;
    p.page_size = kPage;
    p.frames = frames;
    pool_ = std::make_unique<BufferPool>(p, disk_.get(), epoch);
    arena_ = static_cast<uint8_t*>(std::aligned_alloc(4096, arena_bytes_));
    std::memset(arena_, 0, arena_bytes_);
    pool_->RegisterPartition(0, arena_, arena_bytes_);
  }
  ~PoolHarness() { std::free(arena_); }

  BufferPool* pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  uint8_t* arena() { return arena_; }

 private:
  uint64_t arena_bytes_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  uint8_t* arena_ = nullptr;
};

TEST(BufferPoolTest, ColdMissThenHit) {
  ScopedTempDir dir("bp");
  PoolHarness h(dir.path(), /*frames=*/4, /*pages=*/8);
  ASSERT_TRUE(h.pool()->EnsureRange(0, 0, kPage).ok());
  EXPECT_EQ(h.pool()->pool_misses(), 1u);
  EXPECT_EQ(h.pool()->pool_hits(), 0u);
  ASSERT_TRUE(h.pool()->EnsureRange(0, 0, kPage).ok());
  EXPECT_EQ(h.pool()->pool_misses(), 1u);
  EXPECT_EQ(h.pool()->pool_hits(), 1u);
  // Never-written page: the cold fetch is a zero fill, not a pread.
  EXPECT_EQ(h.disk()->pages_read(), 0u);
}

TEST(BufferPoolTest, RangeSpanningPagesCountsEachPage) {
  ScopedTempDir dir("bp");
  PoolHarness h(dir.path(), /*frames=*/4, /*pages=*/8);
  // [kPage - 8, kPage + 8) overlaps pages 0 and 1.
  ASSERT_TRUE(h.pool()->EnsureRange(0, kPage - 8, 16).ok());
  EXPECT_EQ(h.pool()->pool_misses(), 2u);
}

TEST(BufferPoolTest, FrameBudgetRespected) {
  ScopedTempDir dir("bp");
  PoolHarness h(dir.path(), /*frames=*/4, /*pages=*/16);
  for (uint64_t p = 0; p < 16; ++p) {
    ASSERT_TRUE(h.pool()->EnsureRange(0, p * kPage, kPage).ok());
    EXPECT_LE(h.pool()->frames_resident(), 4u);
  }
  EXPECT_EQ(h.pool()->pool_misses(), 16u);
  EXPECT_GE(h.pool()->frames_evicted(), 12u);
}

TEST(BufferPoolTest, DirtyPageWrittenBackAndRefetched) {
  ScopedTempDir dir("bp");
  PoolHarness h(dir.path(), /*frames=*/4, /*pages=*/8);
  ASSERT_TRUE(h.pool()->PinRangeForWrite(0, 2 * kPage, kPage).ok());
  std::memset(h.arena() + 2 * kPage, 0xAB, kPage);
  h.pool()->UnpinRange(0, 2 * kPage, kPage);

  ASSERT_TRUE(h.pool()->FlushAll().ok());
  EXPECT_GE(h.pool()->dirty_writebacks(), 1u);
  // Cold: the arena bytes were released.
  EXPECT_EQ(h.arena()[2 * kPage], 0u);

  ASSERT_TRUE(h.pool()->EnsureRange(0, 2 * kPage, kPage).ok());
  EXPECT_GE(h.disk()->pages_read(), 1u);
  for (uint64_t i = 0; i < kPage; ++i) {
    ASSERT_EQ(h.arena()[2 * kPage + i], 0xAB);
  }
}

TEST(BufferPoolTest, PinnedPageNeverEvicted) {
  ScopedTempDir dir("bp");
  PoolHarness h(dir.path(), /*frames=*/2, /*pages=*/16);
  ASSERT_TRUE(h.pool()->PinRangeForWrite(0, 0, kPage).ok());
  std::memset(h.arena(), 0xCD, kPage);
  // Heavy pressure on a 2-frame pool: the pinned page must survive with
  // its bytes intact (eviction would release them to zeros).
  for (int round = 0; round < 3; ++round) {
    for (uint64_t p = 1; p < 16; ++p) {
      ASSERT_TRUE(h.pool()->EnsureRange(0, p * kPage, kPage).ok());
    }
  }
  EXPECT_GE(h.pool()->frames_evicted(), 10u);
  for (uint64_t i = 0; i < kPage; ++i) {
    ASSERT_EQ(h.arena()[i], 0xCD);
  }
  h.pool()->UnpinRange(0, 0, kPage);
  ASSERT_TRUE(h.pool()->FlushAll().ok());
  // After unpin it evicts normally — and comes back from disk.
  EXPECT_EQ(h.arena()[0], 0u);
  ASSERT_TRUE(h.pool()->EnsureRange(0, 0, kPage).ok());
  EXPECT_EQ(h.arena()[0], 0xCD);
}

TEST(BufferPoolTest, WarmPageRescuedWithoutRead) {
  ScopedTempDir dir("bp");
  PoolHarness h(dir.path(), /*frames=*/2, /*pages=*/8);
  ASSERT_TRUE(h.pool()->PinRangeForWrite(0, 0, kPage).ok());
  std::memset(h.arena(), 0x5A, kPage);
  h.pool()->UnpinRange(0, 0, kPage);
  // Push page 0 out: it goes Warm (bytes intact, still dirty — the
  // writeback runs with the queued release, which has not yet flushed
  // to the epoch manager).
  for (uint64_t p = 1; p < 8; ++p) {
    ASSERT_TRUE(h.pool()->EnsureRange(0, p * kPage, kPage).ok());
  }
  const uint64_t reads_before = h.disk()->pages_read();
  ASSERT_TRUE(h.pool()->EnsureRange(0, 0, kPage).ok());
  EXPECT_GE(h.pool()->warm_rescues(), 1u);
  EXPECT_EQ(h.disk()->pages_read(), reads_before);  // no pread: rescued
  EXPECT_EQ(h.arena()[0], 0x5A);
}

TEST(BufferPoolTest, EpochGuardDefersRelease) {
  ScopedTempDir dir("bp");
  EpochManager epoch;
  PoolHarness h(dir.path(), /*frames=*/2, /*pages=*/8, &epoch);
  ASSERT_TRUE(h.pool()->PinRangeForWrite(0, 0, kPage).ok());
  std::memset(h.arena(), 0xEE, kPage);
  h.pool()->UnpinRange(0, 0, kPage);
  {
    // A reader resolved a pointer into page 0 before the eviction.
    EpochGuard guard(&epoch);
    for (uint64_t p = 1; p < 8; ++p) {
      ASSERT_TRUE(h.pool()->EnsureRange(0, p * kPage, kPage).ok());
    }
    h.pool()->FlushRetirements();
    // Evicted (Warm) but the release is pinned behind our guard: the
    // bytes the reader can still see must be intact.
    EXPECT_EQ(h.arena()[0], 0xEE);
  }
  // Guard exited: drain runs the queued release.
  epoch.ForceDrainAll();
  EXPECT_EQ(h.arena()[0], 0u);
  // And the truth is on disk.
  ASSERT_TRUE(h.pool()->EnsureRange(0, 0, kPage).ok());
  EXPECT_EQ(h.arena()[0], 0xEE);
}

TEST(BufferPoolTest, ReadRangeBypassDoesNotDisturbResidency) {
  ScopedTempDir dir("bp");
  PoolHarness h(dir.path(), /*frames=*/4, /*pages=*/8);
  ASSERT_TRUE(h.pool()->PinRangeForWrite(0, 0, kPage).ok());
  std::memset(h.arena(), 0x77, kPage);
  h.pool()->UnpinRange(0, 0, kPage);
  ASSERT_TRUE(h.pool()->FlushAll().ok());  // page 0 now Cold, on disk

  const uint64_t misses_before = h.pool()->pool_misses();
  std::vector<uint8_t> dest(2 * kPage, 0);
  ASSERT_TRUE(h.pool()->ReadRangeBypass(0, 0, dest.size(), dest.data()).ok());
  EXPECT_EQ(dest[0], 0x77);          // cold page streamed from disk
  EXPECT_EQ(dest[kPage], 0u);        // never-written page reads as zeros
  EXPECT_EQ(h.pool()->pool_misses(), misses_before);  // no pool pollution
  EXPECT_EQ(h.pool()->frames_resident(), 0u);
}

TEST(BufferPoolTest, CrcFailureDetectedOnColdFetch) {
  ScopedTempDir dir("bp");
  PoolHarness h(dir.path(), /*frames=*/4, /*pages=*/8);
  ASSERT_TRUE(h.pool()->PinRangeForWrite(0, 3 * kPage, kPage).ok());
  std::memset(h.arena() + 3 * kPage, 0x42, kPage);
  h.pool()->UnpinRange(0, 3 * kPage, kPage);
  ASSERT_TRUE(h.pool()->FlushAll().ok());

  // Arena page 3 of partition 0 lives at file page 3, one header page
  // in: flip a bit in the middle of it.
  const uint64_t bit = ((3 + 1) * kPage + kPage / 2) * 8;
  ASSERT_TRUE(
      InjectFileFault(h.disk()->path(), FileFaultKind::kBitFlip, bit).ok());

  Status s = h.pool()->EnsureRange(0, 3 * kPage, kPage);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorrupted()) << s.ToString();
  EXPECT_EQ(h.pool()->crc_failures(), 1u);
}

TEST(BufferPoolTest, SimulateCrashLosesFrames) {
  ScopedTempDir dir("bp");
  PoolHarness h(dir.path(), /*frames=*/4, /*pages=*/8);
  ASSERT_TRUE(h.pool()->PinRangeForWrite(0, 0, kPage).ok());
  std::memset(h.arena(), 0x99, kPage);
  h.pool()->UnpinRange(0, 0, kPage);
  // Dirty, never written back — a crash must not resurrect it from the
  // data file.
  h.pool()->SimulateCrashLoseFrames(/*seed=*/123);
  ASSERT_TRUE(h.pool()->EnsureRange(0, 0, kPage).ok());
  EXPECT_EQ(h.arena()[0], 0u);  // nothing on disk: zero fill
}

// --- Database-level wiring ------------------------------------------------

DatabaseOptions DiskBackedOptions(const std::string& dir,
                                  uint64_t frames = 8) {
  DatabaseOptions opt = testing::SmallDbOptions(4);
  opt.data_backing = DataBacking::kDisk;
  opt.data_dir = dir;
  opt.buffer_pool_frames = frames;
  opt.latchfree_reads = true;
  return opt;
}

TEST(BufferPoolDatabaseTest, OptionsValidation) {
  {
    DatabaseOptions opt = testing::SmallDbOptions(2);
    opt.data_backing = DataBacking::kDisk;  // no data_dir
    Database db(opt);
    EXPECT_TRUE(db.data_status().IsInvalidArgument());
    EXPECT_EQ(db.buffer_pool(), nullptr);  // fell back to in-memory
  }
  {
    ScopedTempDir dir("bpv");
    DatabaseOptions opt = DiskBackedOptions(dir.path());
    opt.data_page_size = 3000;  // not a power of two
    Database db(opt);
    EXPECT_TRUE(db.data_status().IsInvalidArgument());
  }
  {
    ScopedTempDir dir("bpv");
    DatabaseOptions opt = DiskBackedOptions(dir.path());
    opt.buffer_pool_frames = 1;  // below kBufferPoolMinFrames
    Database db(opt);
    EXPECT_TRUE(db.data_status().IsInvalidArgument());
  }
  {
    ScopedTempDir dir("bpv");
    DatabaseOptions opt = DiskBackedOptions(dir.path());
    opt.data_page_size = 8ull << 20;  // larger than partition_capacity
    Database db(opt);
    EXPECT_TRUE(db.data_status().IsInvalidArgument());
  }
  {
    // In-memory default: no pool, OK status.
    Database db(testing::SmallDbOptions(2));
    EXPECT_TRUE(db.data_status().ok());
    EXPECT_EQ(db.buffer_pool(), nullptr);
  }
}

TEST(BufferPoolDatabaseTest, DiskBackedGraphSurvivesEvictionChurn) {
  ScopedTempDir dir("bpdb");
  Database db(DiskBackedOptions(dir.path(), /*frames=*/8));
  ASSERT_TRUE(db.data_status().ok()) << db.data_status().ToString();
  ASSERT_NE(db.buffer_pool(), nullptr);

  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());

  auto before = testing::CollectReachable(&db.store());
  ASSERT_TRUE(db.buffer_pool()->FlushAll().ok());
  // Everything is Cold now; re-reading the whole graph through an
  // 8-frame pool forces constant miss/evict/refetch traffic.
  auto after = testing::CollectReachable(&db.store());
  EXPECT_EQ(after.size(), before.size());
  EXPECT_EQ(testing::CountDanglingRefs(&db.store()), 0);
  EXPECT_GT(db.buffer_pool()->pool_misses(), 0u);
  EXPECT_GT(db.disk_data()->pages_read(), 0u);
}

TEST(BufferPoolDatabaseTest, ReorgMissesAndEvictsInTinyPool) {
  ScopedTempDir dir("bpdb");
  Database db(DiskBackedOptions(dir.path(), /*frames=*/8));
  ASSERT_TRUE(db.data_status().ok());

  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  ASSERT_TRUE(db.buffer_pool()->FlushAll().ok());

  CopyOutPlanner planner(4);
  IraOptions iopt;
  iopt.lock_timeout = std::chrono::milliseconds(200);
  ReorgStats stats;
  const uint64_t misses = db.buffer_pool()->pool_misses();
  const uint64_t evicted = db.buffer_pool()->frames_evicted();
  ASSERT_TRUE(db.RunIra(1, &planner, iopt, &stats).ok());
  EXPECT_GT(stats.objects_migrated, 0u);
  // The reorg ran against an 8-frame pool over megabytes of arena: it
  // must have missed and (given the tiny budget) evicted.
  EXPECT_GT(db.buffer_pool()->pool_misses(), misses);
  EXPECT_GT(db.buffer_pool()->frames_evicted(), evicted);
  EXPECT_EQ(testing::CountDanglingRefs(&db.store()), 0);
}

TEST(BufferPoolDatabaseTest, CrashWithDirtyFramesRecoversFromWal) {
  ScopedTempDir data_dir("bpcrash-data");
  ScopedTempDir wal_dir("bpcrash-wal");
  DatabaseOptions opt = DiskBackedOptions(data_dir.path(), /*frames=*/4);
  opt.durability = Durability::kDisk;
  opt.wal_dir = wal_dir.path();
  Database db(opt);
  ASSERT_TRUE(db.durability_status().ok()) << db.durability_status().ToString();
  ASSERT_TRUE(db.data_status().ok()) << db.data_status().ToString();

  ObjectId a, b;
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->CreateObject(1, 2, 8, &a).ok());
    ASSERT_TRUE(txn->CreateObject(2, 2, 8, &b).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->Lock(a, LockMode::kExclusive).ok());
    ASSERT_TRUE(txn->SetRef(a, 0, b).ok());
    ASSERT_TRUE(txn->WriteData(a, std::vector<uint8_t>(8, 0x5A)).ok());
    ASSERT_TRUE(txn->Commit().ok());
  }
  // The mutations above live in dirty frames (and possibly on the data
  // file); the crash scrambles every frame and forgets the data file.
  db.SimulateCrash();
  ASSERT_TRUE(db.Recover().ok());
  ASSERT_TRUE(db.store().Validate(a));
  ASSERT_TRUE(db.store().Validate(b));
  auto txn = db.Begin();
  ObjectId child;
  ASSERT_TRUE(txn->ReadRef(a, 0, &child).ok());
  EXPECT_EQ(child, b);
  std::vector<uint8_t> data;
  ASSERT_TRUE(txn->ReadData(a, &data).ok());
  ASSERT_EQ(data.size(), 8u);
  EXPECT_EQ(data[0], 0x5A);
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(testing::CountDanglingRefs(&db.store()), 0);
}

// TSan-targeted: parallel IRA + latch-free readers + forced eviction
// churn against a tiny disk-backed pool. The assertions are light; the
// value is the interleaving under -fsanitize=thread.
TEST(BufferPoolDatabaseTest, ConcurrentReadersReorgAndEviction) {
  ScopedTempDir dir("bpconc");
  Database db(DiskBackedOptions(dir.path(), /*frames=*/16));
  ASSERT_TRUE(db.data_status().ok());

  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());

  std::vector<ObjectId> ids;
  db.store().partition(1).ForEachLiveObject(
      [&](uint64_t off) { ids.push_back(ObjectId(1, off)); });
  ASSERT_FALSE(ids.empty());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&db, &ids, &stop, t]() {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto txn = db.Begin();
        std::vector<ObjectId> refs;
        (void)txn->ReadRefs(ids[i % ids.size()], &refs);
        std::vector<uint8_t> data;
        for (ObjectId r : refs) {
          if (r.valid()) (void)txn->ReadData(r, &data);
        }
        (void)txn->Commit();
        ++i;
      }
    });
  }
  std::thread evictor([&db, &stop]() {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)db.buffer_pool()->FlushAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  CopyOutPlanner planner(4);
  IraOptions iopt;
  iopt.num_workers = 2;
  iopt.lock_timeout = std::chrono::milliseconds(200);
  ReorgStats stats;
  Status s = db.RunIra(1, &planner, iopt, &stats);
  stop.store(true);
  for (auto& t : readers) t.join();
  evictor.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(testing::CountDanglingRefs(&db.store()), 0);
  EXPECT_EQ(testing::CountLiveObjects(&db.store(), 1), 0u);
}

}  // namespace
}  // namespace brahma
