#include "core/ira.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <unordered_map>

#include "core/database.h"
#include "tests/test_util.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

// Single-threaded (no concurrent transactions) IRA behaviour across the
// option matrix: basic vs. two-lock, group sizes, planners.
struct IraConfig {
  bool two_lock;
  uint32_t group_size;
};

class IraTest : public ::testing::TestWithParam<IraConfig> {
 protected:
  IraTest() : db_(testing::SmallDbOptions(5)) {}

  void BuildGraph(uint32_t partitions = 3) {
    params_ = testing::SmallWorkload(partitions);
    GraphBuilder builder(&db_);
    ASSERT_TRUE(builder.Build(params_, &graph_).ok());
  }

  IraOptions Options() const {
    IraOptions opt;
    opt.two_lock_mode = GetParam().two_lock;
    opt.group_size = GetParam().group_size;
    opt.lock_timeout = std::chrono::milliseconds(200);
    return opt;
  }

  Database db_;
  WorkloadParams params_;
  BuiltGraph graph_;
};

TEST_P(IraTest, CopyOutMigratesEverything) {
  BuildGraph();
  const PartitionId src = 1, dst = 5;
  auto before = testing::CollectReachable(&db_.store());
  uint64_t live_before = testing::CountLiveObjects(&db_.store(), src);
  EXPECT_EQ(live_before, params_.objects_per_partition);

  CopyOutPlanner planner(dst);
  ReorgStats stats;
  ASSERT_TRUE(db_.RunIra(src, &planner, Options(), &stats).ok());

  EXPECT_EQ(stats.objects_migrated, live_before);
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), src), 0u);
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), dst), live_before);

  // Graph shape preserved: the reachable set maps 1:1 through the
  // relocation map.
  auto after = testing::CollectReachable(&db_.store());
  EXPECT_EQ(after.size(), before.size());
  for (ObjectId o : before) {
    auto it = stats.relocation.find(o);
    ObjectId mapped = it != stats.relocation.end() ? it->second : o;
    EXPECT_TRUE(after.count(mapped)) << o.ToString();
  }
  EXPECT_EQ(testing::CountDanglingRefs(&db_.store()), 0);
  EXPECT_EQ(testing::CountErtDiscrepancies(&db_.store(), &db_.erts()), 0);
  // No lock leaks, TRT disabled again.
  EXPECT_EQ(db_.locks().NumLockedObjects(), 0u);
  EXPECT_FALSE(db_.trt().enabled());
}

TEST_P(IraTest, CompactionPacksPartition) {
  BuildGraph();
  const PartitionId p = 2;
  // Punch holes: free every third object through reorg transactions after
  // disconnecting them (delete incoming refs first to keep consistency).
  // Simpler: compact the intact partition and verify stability first.
  FragmentationStats before = db_.store().partition(p).GetFragmentationStats();
  CompactionPlanner planner;
  ReorgStats stats;
  ASSERT_TRUE(db_.RunIra(p, &planner, Options(), &stats).ok());
  EXPECT_EQ(stats.objects_migrated, params_.objects_per_partition);
  EXPECT_EQ(testing::CountLiveObjects(&db_.store(), p),
            params_.objects_per_partition);
  EXPECT_EQ(testing::CountDanglingRefs(&db_.store()), 0);
  EXPECT_EQ(testing::CountErtDiscrepancies(&db_.store(), &db_.erts()), 0);
  FragmentationStats after = db_.store().partition(p).GetFragmentationStats();
  EXPECT_EQ(after.num_live_objects, before.num_live_objects);
}

TEST_P(IraTest, ReachabilityIdenticalModuloRelocation) {
  BuildGraph(2);
  const PartitionId src = 1, dst = 5;
  // Record the out-edge structure (as cluster/data payload) per object.
  std::unordered_map<ObjectId, std::vector<uint8_t>> payload_before;
  db_.store().partition(src).ForEachLiveObject([&](uint64_t off) {
    const ObjectHeader* h = db_.store().partition(src).HeaderAt(off);
    payload_before[ObjectId(src, off)] =
        std::vector<uint8_t>(h->data(), h->data() + h->data_size);
  });
  CopyOutPlanner planner(dst);
  ReorgStats stats;
  ASSERT_TRUE(db_.RunIra(src, &planner, Options(), &stats).ok());
  for (const auto& [old_id, data] : payload_before) {
    auto it = stats.relocation.find(old_id);
    ASSERT_NE(it, stats.relocation.end());
    const ObjectHeader* h = db_.store().Get(it->second);
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(std::vector<uint8_t>(h->data(), h->data() + h->data_size),
              data);
  }
}

TEST_P(IraTest, SecondRunOnEmptyPartitionIsNoop) {
  BuildGraph(2);
  CopyOutPlanner planner(5);
  ReorgStats stats;
  ASSERT_TRUE(db_.RunIra(1, &planner, Options(), &stats).ok());
  ReorgStats stats2;
  ASSERT_TRUE(db_.RunIra(1, &planner, Options(), &stats2).ok());
  EXPECT_EQ(stats2.objects_migrated, 0u);
}

TEST_P(IraTest, MigratedPartitionStillWalkable) {
  BuildGraph(2);
  CopyOutPlanner planner(5);
  ReorgStats stats;
  ASSERT_TRUE(db_.RunIra(1, &planner, Options(), &stats).ok());
  // A user transaction can still walk from the persistent root through
  // the directory into the (relocated) clusters.
  auto txn = db_.Begin();
  ASSERT_TRUE(txn->Lock(graph_.partition_dirs[0], LockMode::kShared).ok());
  std::vector<ObjectId> roots;
  ASSERT_TRUE(txn->ReadRefs(graph_.partition_dirs[0], &roots).ok());
  ASSERT_FALSE(roots.empty());
  for (ObjectId root : roots) {
    EXPECT_EQ(root.partition(), 5);  // directory now points at the copies
    ASSERT_TRUE(txn->Lock(root, LockMode::kShared).ok());
    std::vector<ObjectId> refs;
    EXPECT_TRUE(txn->ReadRefs(root, &refs).ok());
  }
  txn->Commit();
}

TEST_P(IraTest, ClusteringPlannerKeepsClustersAdjacent) {
  BuildGraph(2);
  ClusteringPlanner planner(&db_.store(), 5, graph_.cluster_roots[0]);
  ReorgStats stats;
  ASSERT_TRUE(db_.RunIra(1, &planner, Options(), &stats).ok());
  EXPECT_EQ(stats.objects_migrated, params_.objects_per_partition);
  EXPECT_EQ(testing::CountDanglingRefs(&db_.store()), 0);
  // The first cluster's 85 objects were migrated first: they occupy the
  // lowest addresses of the destination.
  ObjectId first_root_new = stats.relocation[graph_.cluster_roots[0][0]];
  EXPECT_EQ(first_root_new.offset(), Partition::kBaseOffset);
}

TEST_P(IraTest, TwoLockModeHoldsAtMostTwoDistinctObjects) {
  if (!GetParam().two_lock || GetParam().group_size != 1) {
    GTEST_SKIP() << "only meaningful for two-lock, ungrouped";
  }
  BuildGraph(2);
  CopyOutPlanner planner(5);
  ReorgStats stats;
  ASSERT_TRUE(db_.RunIra(1, &planner, Options(), &stats).ok());
  EXPECT_LE(stats.max_distinct_objects_locked, 2u);
}

TEST_P(IraTest, StatsPopulated) {
  BuildGraph(2);
  CopyOutPlanner planner(5);
  ReorgStats stats;
  ASSERT_TRUE(db_.RunIra(1, &planner, Options(), &stats).ok());
  EXPECT_GT(stats.duration_ms, 0.0);
  EXPECT_GT(stats.bytes_moved, 0u);
  EXPECT_EQ(stats.traversal_visited, params_.objects_per_partition);
  EXPECT_EQ(stats.relocation.size(), stats.objects_migrated);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, IraTest,
    ::testing::Values(IraConfig{false, 1}, IraConfig{false, 8},
                      IraConfig{true, 1}, IraConfig{true, 4}),
    [](const ::testing::TestParamInfo<IraConfig>& info) {
      return std::string(info.param.two_lock ? "TwoLock" : "Basic") +
             "Group" + std::to_string(info.param.group_size);
    });

TEST(IraSpecialTest, EmptyPartitionOk) {
  Database db(testing::SmallDbOptions(3));
  CopyOutPlanner planner(2);
  ReorgStats stats;
  ASSERT_TRUE(db.RunIra(1, &planner, IraOptions{}, &stats).ok());
  EXPECT_EQ(stats.objects_migrated, 0u);
}

TEST(IraSpecialTest, HistoricalLockersRequiresHistory) {
  Database db(testing::SmallDbOptions(3));
  CopyOutPlanner planner(2);
  IraOptions opt;
  opt.wait_for_historical_lockers = true;
  ReorgStats stats;
  EXPECT_FALSE(db.RunIra(1, &planner, opt, &stats).ok());
}

TEST(IraSpecialTest, NoSpaceInDestinationFails) {
  DatabaseOptions dopt = testing::SmallDbOptions(3);
  Database db(dopt);
  WorkloadParams params = testing::SmallWorkload(1);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());
  // Fill the destination partition completely (progressively smaller
  // objects until even a tiny one no longer fits).
  {
    auto txn = db.Begin();
    ObjectId filler;
    for (uint32_t size : {60000u, 4096u, 256u, 16u, 0u}) {
      while (txn->CreateObject(3, 0, size, &filler).ok()) {
      }
    }
    txn->Commit();
  }
  CopyOutPlanner planner(3);
  ReorgStats stats;
  Status s = db.RunIra(1, &planner, IraOptions{}, &stats);
  EXPECT_TRUE(s.IsNoSpace());
  // Partial migration is fine, but no dangling references may exist.
  EXPECT_EQ(testing::CountDanglingRefs(&db.store()), 0);
}

TEST(IraSpecialTest, SelfReferenceHandled) {
  Database db(testing::SmallDbOptions(3));
  ObjectId ext, a;
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->CreateObject(2, 1, 8, &ext).ok());
    ASSERT_TRUE(txn->CreateObject(1, 2, 8, &a).ok());
    ASSERT_TRUE(txn->SetRef(ext, 0, a).ok());
    ASSERT_TRUE(txn->SetRef(a, 0, a).ok());  // self loop
    txn->Commit();
  }
  CopyOutPlanner planner(3);
  ReorgStats stats;
  ASSERT_TRUE(db.RunIra(1, &planner, IraOptions{}, &stats).ok());
  ObjectId anew = stats.relocation[a];
  const ObjectHeader* h = db.store().Get(anew);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->refs()[0], anew);  // self loop follows the object
  EXPECT_EQ(db.store().Get(ext)->refs()[0], anew);
  EXPECT_EQ(testing::CountDanglingRefs(&db.store()), 0);
}

TEST(IraSpecialTest, CrossPartitionCycleHandled) {
  Database db(testing::SmallDbOptions(4));
  ObjectId a, b, ext;
  {
    auto txn = db.Begin();
    ASSERT_TRUE(txn->CreateObject(2, 1, 8, &ext).ok());
    ASSERT_TRUE(txn->CreateObject(1, 1, 8, &a).ok());
    ASSERT_TRUE(txn->CreateObject(2, 1, 8, &b).ok());
    ASSERT_TRUE(txn->SetRef(ext, 0, a).ok());
    ASSERT_TRUE(txn->SetRef(a, 0, b).ok());
    ASSERT_TRUE(txn->SetRef(b, 0, a).ok());
    txn->Commit();
  }
  CopyOutPlanner planner(3);
  ReorgStats stats;
  ASSERT_TRUE(db.RunIra(1, &planner, IraOptions{}, &stats).ok());
  ObjectId anew = stats.relocation[a];
  EXPECT_EQ(db.store().Get(b)->refs()[0], anew);
  EXPECT_EQ(db.store().Get(anew)->refs()[0], b);
  EXPECT_EQ(testing::CountErtDiscrepancies(&db.store(), &db.erts()), 0);
}

// Copy-out planner that, once the migration order is fixed, starts a user
// transaction holding an X lock on the first object's parent. The user
// releases it only after every other object has migrated, or after a
// deadline, recording how many migrations completed while it held on.
class BlockFirstParentPlanner : public CopyOutPlanner {
 public:
  BlockFirstParentPlanner(Database* db, PartitionId dest,
                          std::unordered_map<ObjectId, ObjectId> parent_of,
                          const ReorgStats* stats)
      : CopyOutPlanner(dest),
        db_(db),
        parent_of_(std::move(parent_of)),
        stats_(stats) {}
  ~BlockFirstParentPlanner() override {
    if (user_.joinable()) user_.join();
  }
  BlockFirstParentPlanner(const BlockFirstParentPlanner&) = delete;
  BlockFirstParentPlanner& operator=(const BlockFirstParentPlanner&) = delete;

  void Order(std::vector<ObjectId>* objects) override {
    RelocationPlanner::Order(objects);
    first = objects->front();
    const ObjectId parent = parent_of_.at(first);
    const uint64_t others = objects->size() - 1;
    std::promise<void> locked;
    std::future<void> locked_f = locked.get_future();
    user_ = std::thread([this, parent, others,
                         locked = std::move(locked)]() mutable {
      auto txn = db_->Begin();
      lock_ok = txn->Lock(parent, LockMode::kExclusive).ok();
      locked.set_value();
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(3);
      while (stats_->objects_migrated.load() < others &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      migrated_while_held = stats_->objects_migrated.load();
      first_live_at_release = db_->store().Validate(first);
      txn->Commit();
    });
    locked_f.wait();
  }

  void JoinUser() { user_.join(); }

  ObjectId first;
  bool lock_ok = false;
  uint64_t migrated_while_held = 0;
  bool first_live_at_release = false;

 private:
  Database* db_;
  std::unordered_map<ObjectId, ObjectId> parent_of_;
  const ReorgStats* stats_;
  std::thread user_;
};

// One worker, basic mode: the first object in migration order cannot
// lock its parent (a user transaction holds it X). Instead of retrying
// in place, the object backs off while the rest of the partition
// migrates; it then finishes once the user releases the lock.
TEST(IraSpecialTest, OneWorkerMigratesPastBlockedObject) {
  constexpr int kChildren = 8;
  Database db(testing::SmallDbOptions(3));
  std::unordered_map<ObjectId, ObjectId> parent_of;
  {
    auto txn = db.Begin();
    for (int i = 0; i < kChildren; ++i) {
      ObjectId parent, child;
      ASSERT_TRUE(txn->CreateObject(2, 1, 8, &parent).ok());
      ASSERT_TRUE(txn->CreateObject(1, 0, 8, &child).ok());
      ASSERT_TRUE(txn->SetRef(parent, 0, child).ok());
      parent_of[child] = parent;
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  db.analyzer().Sync();

  ReorgStats stats;
  BlockFirstParentPlanner planner(&db, 3, parent_of, &stats);
  IraOptions opt;
  opt.num_workers = 1;
  opt.lock_timeout = std::chrono::milliseconds(20);
  IraReorganizer ira(db.reorg_context());
  Status s = ira.Run(1, &planner, opt, &stats);
  planner.JoinUser();
  ASSERT_TRUE(s.ok()) << s.ToString();

  ASSERT_TRUE(planner.lock_ok);
  // Everything but the blocked object migrated while the lock was held.
  EXPECT_EQ(planner.migrated_while_held, kChildren - 1u);
  EXPECT_TRUE(planner.first_live_at_release);
  EXPECT_GE(stats.lock_timeouts, 1u);
  // After the release the blocked object migrated too.
  EXPECT_EQ(stats.objects_migrated, static_cast<uint64_t>(kChildren));
  EXPECT_EQ(stats.relocation.count(planner.first), 1u);
  EXPECT_EQ(testing::CountLiveObjects(&db.store(), 1), 0u);
  EXPECT_EQ(testing::CountDanglingRefs(&db.store()), 0);
  EXPECT_EQ(testing::CountErtDiscrepancies(&db.store(), &db.erts()), 0);
  EXPECT_EQ(db.locks().NumLockedObjects(), 0u);
}

}  // namespace
}  // namespace brahma
