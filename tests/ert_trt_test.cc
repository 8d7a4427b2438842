#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/ert.h"
#include "core/trt.h"
#include "tests/test_util.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

const ObjectId kChildA(1, 64);
const ObjectId kChildB(1, 128);
const ObjectId kParentX(2, 64);
const ObjectId kParentY(3, 64);

TEST(ErtTest, AddRemoveParents) {
  Ert ert;
  ert.AddRef(kChildA, kParentX);
  ert.AddRef(kChildA, kParentY);
  std::vector<ObjectId> parents = ert.ParentsOf(kChildA);
  std::sort(parents.begin(), parents.end());
  EXPECT_EQ(parents, (std::vector<ObjectId>{kParentX, kParentY}));
  EXPECT_TRUE(ert.RemoveRef(kChildA, kParentX));
  EXPECT_FALSE(ert.RemoveRef(kChildA, kParentX));
  EXPECT_EQ(ert.ParentsOf(kChildA), std::vector<ObjectId>{kParentY});
}

TEST(ErtTest, MultiplicityOfRepeatedEdges) {
  // A parent can reference a child from two slots: two entries, removed
  // one at a time.
  Ert ert;
  ert.AddRef(kChildA, kParentX);
  ert.AddRef(kChildA, kParentX);
  EXPECT_EQ(ert.ParentsOf(kChildA).size(), 2u);
  ert.RemoveRef(kChildA, kParentX);
  EXPECT_EQ(ert.ParentsOf(kChildA).size(), 1u);
}

TEST(ErtTest, ReferencedObjectsDistinct) {
  Ert ert;
  ert.AddRef(kChildA, kParentX);
  ert.AddRef(kChildA, kParentY);
  ert.AddRef(kChildB, kParentX);
  std::vector<ObjectId> objs = ert.ReferencedObjects();
  std::sort(objs.begin(), objs.end());
  EXPECT_EQ(objs, (std::vector<ObjectId>{kChildA, kChildB}));
}

TEST(ErtTest, HasEntryAndSizeAndClear) {
  Ert ert;
  ert.AddRef(kChildA, kParentX);
  EXPECT_TRUE(ert.HasEntry(kChildA, kParentX));
  EXPECT_FALSE(ert.HasEntry(kChildA, kParentY));
  EXPECT_EQ(ert.Size(), 1u);
  ert.Clear();
  EXPECT_EQ(ert.Size(), 0u);
}

TEST(ErtSetTest, PerPartitionInstances) {
  ErtSet erts(4);
  erts.For(1).AddRef(kChildA, kParentX);
  EXPECT_EQ(erts.For(1).Size(), 1u);
  EXPECT_EQ(erts.For(2).Size(), 0u);
  erts.ClearAll();
  EXPECT_EQ(erts.For(1).Size(), 0u);
}

TEST(TrtTest, DisabledByDefault) {
  Trt trt;
  EXPECT_FALSE(trt.enabled());
  EXPECT_FALSE(trt.EnabledFor(1));
}

TEST(TrtTest, EnableForOnePartition) {
  Trt trt;
  trt.Enable(2, /*purge=*/true);
  EXPECT_TRUE(trt.EnabledFor(2));
  EXPECT_FALSE(trt.EnabledFor(1));
  trt.Disable();
  EXPECT_FALSE(trt.EnabledFor(2));
}

TEST(TrtTest, NoteAndDrain) {
  Trt trt;
  trt.Enable(1, true);
  trt.NoteInsert(kChildA, kParentX, 10);
  trt.NoteDelete(kChildA, kParentY, 11);
  EXPECT_TRUE(trt.HasTuplesFor(kChildA));
  EXPECT_EQ(trt.Size(), 2u);

  int drained = 0;
  while (auto t = trt.AnyTupleFor(kChildA)) {
    EXPECT_TRUE(trt.EraseTuple(*t));
    ++drained;
  }
  EXPECT_EQ(drained, 2);
  EXPECT_FALSE(trt.HasTuplesFor(kChildA));
}

TEST(TrtTest, ReferencedObjectsAndParents) {
  Trt trt;
  trt.Enable(1, true);
  trt.NoteInsert(kChildA, kParentX, 1);
  trt.NoteDelete(kChildB, kParentY, 2);
  auto children = trt.ReferencedObjects();
  std::sort(children.begin(), children.end());
  EXPECT_EQ(children, (std::vector<ObjectId>{kChildA, kChildB}));
  auto parents = trt.AllParents();
  std::sort(parents.begin(), parents.end());
  EXPECT_EQ(parents, (std::vector<ObjectId>{kParentX, kParentY}));
}

TEST(TrtTest, RenameParent) {
  Trt trt;
  trt.Enable(1, true);
  trt.NoteInsert(kChildA, kParentX, 1);
  trt.NoteDelete(kChildB, kParentX, 2);
  trt.NoteInsert(kChildB, kParentY, 3);
  ObjectId new_parent(2, 999);
  trt.RenameParent(kParentX, new_parent);
  for (ObjectId child : {kChildA, kChildB}) {
    auto t = trt.AnyTupleFor(child);
    ASSERT_TRUE(t.has_value());
  }
  auto parents = trt.AllParents();
  std::sort(parents.begin(), parents.end());
  std::vector<ObjectId> expect{kParentY, new_parent};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(parents, expect);
  EXPECT_EQ(trt.Size(), 3u);
}

TEST(TrtTest, PurgeDeletesOnCompletion) {
  // Section 4.5: delete tuples purged when their transaction completes.
  Trt trt;
  trt.Enable(1, /*purge=*/true);
  trt.NoteDelete(kChildA, kParentX, 10);
  trt.NoteDelete(kChildB, kParentY, 11);
  trt.OnTxnComplete(10, /*committed=*/false);  // abort also purges deletes
  EXPECT_FALSE(trt.HasTuplesFor(kChildA));
  EXPECT_TRUE(trt.HasTuplesFor(kChildB));
}

TEST(TrtTest, CommitPurgesMatchingInsert) {
  // When the deleter of R -> O commits, a matching insert tuple goes too.
  Trt trt;
  trt.Enable(1, true);
  trt.NoteInsert(kChildA, kParentX, 9);   // some earlier inserter
  trt.NoteDelete(kChildA, kParentX, 10);  // the deleter
  trt.NoteInsert(kChildA, kParentY, 9);   // different parent: must survive
  trt.OnTxnComplete(10, /*committed=*/true);
  auto t = trt.AnyTupleFor(kChildA);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->parent, kParentY);
  EXPECT_EQ(trt.Size(), 1u);
}

TEST(TrtTest, AbortDoesNotPurgeMatchingInsert) {
  Trt trt;
  trt.Enable(1, true);
  trt.NoteInsert(kChildA, kParentX, 9);
  trt.NoteDelete(kChildA, kParentX, 10);
  trt.OnTxnComplete(10, /*committed=*/false);
  // Delete tuple gone, insert remains (the abort may have reintroduced
  // the reference; its CLR insert is logged separately).
  auto t = trt.AnyTupleFor(kChildA);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->action, TrtTuple::Action::kInsert);
}

TEST(TrtTest, PurgeDisabled) {
  // Without strict 2PL, delete tuples must not be purged (Section 4.5).
  Trt trt;
  trt.Enable(1, /*purge=*/false);
  trt.NoteDelete(kChildA, kParentX, 10);
  trt.OnTxnComplete(10, true);
  EXPECT_TRUE(trt.HasTuplesFor(kChildA));
}

TEST(TrtTest, EnableClearsOldState) {
  Trt trt;
  trt.Enable(1, true);
  trt.NoteInsert(kChildA, kParentX, 1);
  trt.Disable();
  trt.Enable(1, true);
  EXPECT_EQ(trt.Size(), 0u);
}

// Erase/re-insert churn (the reorganizer's fix-up pattern, and the
// side-effect log's undo pattern) racing a balanced add/remove feed (the
// log analyzer's pattern). Multiset semantics must hold exactly: the
// stable entries keep multiplicity 1, the transient ones vanish.
TEST(ErtTest, ConcurrentEraseReinsertKeepsMultiplicityExact) {
  Ert ert;
  constexpr int kChildren = 32;
  const ObjectId kStableParent(3, 64);
  std::vector<ObjectId> children;
  for (int i = 0; i < kChildren; ++i) {
    children.emplace_back(1, 64 * (i + 1));
    ert.AddRef(children.back(), kStableParent);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Churn threads: remove-if-found-then-re-add the stable entry — the
  // compensating-undo shape. Count-preserving under any interleaving.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&ert, &children, &stop, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        ObjectId child = children[i++ % children.size()];
        if (ert.RemoveRef(child, ObjectId(3, 64))) {
          ert.AddRef(child, ObjectId(3, 64));
        }
      }
    });
  }
  // Feed threads: balanced add-then-remove of a transient per-thread
  // parent, the analyzer's committed insert/delete stream.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&ert, &children, t] {
      const ObjectId parent(2, 64 * (t + 1));
      for (int iter = 0; iter < 4000; ++iter) {
        ObjectId child = children[static_cast<size_t>(iter) % children.size()];
        ert.AddRef(child, parent);
        EXPECT_TRUE(ert.RemoveRef(child, parent));
      }
    });
  }
  threads[2].join();
  threads[3].join();
  stop.store(true);
  threads[0].join();
  threads[1].join();

  for (ObjectId child : children) {
    std::vector<ObjectId> parents = ert.ParentsOf(child);
    ASSERT_EQ(parents.size(), 1u) << child.ToString();
    EXPECT_EQ(parents[0], kStableParent);
  }
  EXPECT_EQ(ert.Size(), static_cast<size_t>(kChildren));
}

// The same churn against a live database: user transactions feed the log
// analyzer (which adds/removes ERT entries concurrently) while a
// reorganizer-style thread erases and re-inserts entries of edges the
// mutators never touch. The ERT must end exactly consistent with the
// physical graph.
TEST(ErtSetTest, EraseReinsertUnderConcurrentAnalyzerFeed) {
  Database db(testing::SmallDbOptions(5));
  WorkloadParams params = testing::SmallWorkload(3);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());

  // Plant partition-3 -> partition-1 edges to churn. The mutators only
  // rewrite partition-2 objects, so these edges' ERT entries change only
  // under our churn — their final multiplicity must be exactly one.
  std::vector<ObjectId> p3, p1;
  db.store().partition(3).ForEachLiveObject([&](uint64_t off) {
    if (p3.size() < 8 &&
        db.store().partition(3).HeaderAt(off)->num_refs >= 1) {
      p3.emplace_back(3, off);
    }
  });
  db.store().partition(1).ForEachLiveObject([&](uint64_t off) {
    if (p1.size() < 8) p1.emplace_back(1, off);
  });
  ASSERT_GE(p3.size(), 4u);
  ASSERT_GE(p1.size(), 4u);
  const size_t edges = std::min(p3.size(), p1.size());
  std::vector<std::pair<ObjectId, ObjectId>> churn;  // (child, parent)
  {
    auto txn = db.Begin();
    for (size_t i = 0; i < edges; ++i) {
      ASSERT_TRUE(txn->Lock(p3[i], LockMode::kExclusive).ok());
      ASSERT_TRUE(txn->SetRef(p3[i], 0, p1[i]).ok());
      churn.emplace_back(p1[i], p3[i]);
    }
    ASSERT_TRUE(txn->Commit().ok());
  }
  db.analyzer().Sync();
  Ert& ert1 = db.erts().For(1);
  auto multiplicity_of = [&ert1](ObjectId child, ObjectId parent) {
    int n = 0;
    for (ObjectId p : ert1.ParentsOf(child)) {
      if (p == parent) ++n;
    }
    return n;
  };
  std::vector<int> before;
  for (const auto& [child, parent] : churn) {
    ASSERT_TRUE(ert1.HasEntry(child, parent));
    before.push_back(multiplicity_of(child, parent));
  }

  testing::SlotSwapMutators mutators(&db, 2, /*threads=*/2);
  for (int iter = 0; iter < 2000; ++iter) {
    for (const auto& [child, parent] : churn) {
      if (ert1.RemoveRef(child, parent)) {
        ert1.AddRef(child, parent);
      }
    }
  }
  mutators.StopAndJoin();
  db.analyzer().Sync();

  // Churn is count-preserving: every edge keeps its pre-churn
  // multiplicity no matter how the analyzer feed interleaved.
  for (size_t i = 0; i < churn.size(); ++i) {
    EXPECT_EQ(multiplicity_of(churn[i].first, churn[i].second), before[i])
        << churn[i].first.ToString() << " <- " << churn[i].second.ToString();
  }
  EXPECT_EQ(testing::CountErtDiscrepancies(&db.store(), &db.erts()), 0);
}

TEST(TrtTest, Counters) {
  Trt trt;
  trt.Enable(1, true);
  trt.NoteInsert(kChildA, kParentX, 1);
  trt.NoteDelete(kChildA, kParentX, 2);
  EXPECT_EQ(trt.inserts_noted(), 1u);
  EXPECT_EQ(trt.deletes_noted(), 1u);
  trt.OnTxnComplete(2, true);
  EXPECT_EQ(trt.purged(), 2u);  // delete + matched insert
}

}  // namespace
}  // namespace brahma
