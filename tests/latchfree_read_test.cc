#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/ira.h"
#include "tests/test_util.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

using ::brahma::testing::CountDanglingRefs;
using ::brahma::testing::CountErtDiscrepancies;
using ::brahma::testing::CountLiveObjects;

// The epoch-protected latch-free read path (DESIGN.md §11): readers take
// no logical lock, chase the store's relocation table past migrations,
// and snapshot under the short per-object latch only.

DatabaseOptions LatchfreeOptions(uint32_t partitions = 5) {
  DatabaseOptions opt = testing::SmallDbOptions(partitions);
  opt.latchfree_reads = true;
  return opt;
}

std::vector<ObjectId> LiveIds(ObjectStore* store, PartitionId p) {
  std::vector<ObjectId> ids;
  store->partition(p).ForEachLiveObject(
      [&](uint64_t off) { ids.push_back(ObjectId(p, off)); });
  return ids;
}

TEST(LatchfreeReadTest, ReadsNeedNoLock) {
  Database db(LatchfreeOptions());
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());

  auto txn = db.Begin();
  std::vector<ObjectId> refs;
  // No Lock() call anywhere — the seed's RequireHeld tripwire would
  // return Internal("object accessed without lock").
  ASSERT_TRUE(txn->ReadRefs(graph.partition_dirs[0], &refs).ok());
  EXPECT_FALSE(refs.empty());
  ObjectId child;
  ASSERT_TRUE(
      txn->ReadRef(graph.partition_dirs[0], 0, &child).ok());
  ASSERT_TRUE(child.valid());
  std::vector<uint8_t> data;
  ASSERT_TRUE(txn->ReadData(child, &data).ok());
  ASSERT_TRUE(txn->Commit().ok());
  EXPECT_EQ(db.locks().NumLockedObjects(), 0u);
  EXPECT_GE(db.epoch().latchfree_reads(), 3u);
}

TEST(LatchfreeReadTest, LockedModeStillEnforcesLocks) {
  Database db(testing::SmallDbOptions());  // knob off
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  auto txn = db.Begin();
  std::vector<ObjectId> refs;
  Status s = txn->ReadRefs(graph.partition_dirs[0], &refs);
  EXPECT_FALSE(s.ok());  // the ablation baseline keeps the tripwire
  txn->Abort();
}

// A reader holding ids from before a reorganization keeps reading after
// it: every stale id chases old -> new through the store table.
TEST(LatchfreeReadTest, StaleIdsChaseAcrossMigration) {
  Database db(LatchfreeOptions());
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const std::vector<ObjectId> old_ids = LiveIds(&db.store(), 1);
  ASSERT_FALSE(old_ids.empty());

  CopyOutPlanner planner(5);
  ReorgStats stats;
  const uint64_t advances = db.epoch().epochs_advanced();
  const uint64_t drains = db.epoch().retire_drains();
  ASSERT_TRUE(db.RunIra(1, &planner, IraOptions{}, &stats).ok());
  ASSERT_EQ(CountLiveObjects(&db.store(), 1), 0u);  // all moved away

  auto txn = db.Begin();
  for (ObjectId old_id : old_ids) {
    std::vector<ObjectId> refs;
    ASSERT_TRUE(txn->ReadRefs(old_id, &refs).ok())
        << "stale id did not chase: " << old_id.ToString();
    EXPECT_EQ(refs.size(), WorkloadParams::kNumRefSlots);
  }
  ASSERT_TRUE(txn->Commit().ok());
  // The run advanced the epoch and drained retirements (every O_old
  // drained by the end-of-run pass).
  EXPECT_GT(db.epoch().epochs_advanced(), advances);
  EXPECT_GT(db.epoch().retire_drains(), drains);
}

// Satellite regression: RelocationPlanner::Transform resizes the ref
// array mid-reorg while latch-free readers pointer-chase through the
// partition. The (num_refs, refs) pair must be snapshotted under one
// latch acquisition — a torn read would yield a size belonging to one
// incarnation and slots from the other.
TEST(LatchfreeReadTest, TransformResizeUnderReadersIsNeverTorn) {
  Database db(LatchfreeOptions());
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const std::vector<ObjectId> ids = LiveIds(&db.store(), 1);
  const uint32_t old_fanout = WorkloadParams::kNumRefSlots;
  const uint32_t new_fanout = old_fanout + 2;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_reads{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto txn = db.Begin();
        for (size_t i = 0; i < ids.size() && !stop.load(); ++i) {
          std::vector<ObjectId> refs;
          Status s = txn->ReadRefs(ids[i], &refs);
          if (!s.ok()) continue;  // clean miss is legal mid-migration
          if (refs.size() != old_fanout && refs.size() != new_fanout) {
            torn.fetch_add(1);
          }
          ObjectId r;
          // The glue slot exists in both incarnations; the read must be
          // a clean value or a clean error, never a wild pointer.
          Status rs = txn->ReadRef(ids[i], WorkloadParams::kGlueSlot, &r);
          if (rs.ok() && r.valid() &&
              r.partition() >= db.store().num_partitions()) {
            torn.fetch_add(1);
          }
          ok_reads.fetch_add(1);
        }
        txn->Abort();
      }
    });
  }

  // Under machine load the migration of a small partition can finish
  // before the reader threads are even scheduled; wait for read traffic
  // so the reorg genuinely runs against concurrent readers.
  while (ok_reads.load() == 0) std::this_thread::yield();

  TransformPlanner planner(
      5, [&](ObjectId, std::vector<ObjectId>* refs, std::vector<uint8_t>*) {
        refs->resize(new_fanout, ObjectId::Invalid());
      });
  ReorgStats stats;
  Status s = db.RunIra(1, &planner, IraOptions{}, &stats);
  stop.store(true);
  for (auto& th : readers) th.join();
  ASSERT_TRUE(s.ok()) << s.ToString();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(ok_reads.load(), 0u);
  EXPECT_EQ(stats.objects_migrated, params.objects_per_partition);
  db.analyzer().Sync();
  EXPECT_EQ(CountDanglingRefs(&db.store()), 0);
  EXPECT_EQ(CountErtDiscrepancies(&db.store(), &db.erts()), 0);
  // Readers ran: their traffic lands in the epoch system's global
  // counter. (A delta over the Run window alone may be empty, depending
  // on scheduling.)
  EXPECT_GT(db.epoch().latchfree_reads(), 0u);
}

// Shrinking transform: a reader chasing to the slimmer copy must get a
// clean "bad slot" for slots that no longer exist, with the bound and
// the value taken from the same latched incarnation.
TEST(LatchfreeReadTest, ShrinkingTransformYieldsCleanBadSlot) {
  Database db(LatchfreeOptions());
  WorkloadParams params = testing::SmallWorkload(2);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  const std::vector<ObjectId> ids = LiveIds(&db.store(), 1);

  TransformPlanner planner(
      5, [](ObjectId, std::vector<ObjectId>* refs, std::vector<uint8_t>*) {
        refs->resize(WorkloadParams::kGlueSlot);  // drop the glue slot
      });
  ReorgStats stats;
  ASSERT_TRUE(db.RunIra(1, &planner, IraOptions{}, &stats).ok());

  auto txn = db.Begin();
  for (ObjectId old_id : ids) {
    ObjectId r;
    Status s = txn->ReadRef(old_id, WorkloadParams::kGlueSlot, &r);
    // The slot is gone in the migrated incarnation: the chase lands on
    // the new copy and the bound check there must reject it.
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  }
  txn->Abort();
}

}  // namespace
}  // namespace brahma
