// Disk-backed frame pool (DESIGN.md §13): the paper's Figure-6 style
// traversal workload against a dataset ~4x the pool, before vs after an
// IRA clustering reorganization.
//
// The setup deliberately reproduces the I/O problem reorganization
// exists to fix: NC cluster trees are CREATED interleaved, so each
// cluster's 85 objects are smeared across the whole source partition —
// a cluster traversal touches almost as many pages as objects. The IRA
// pass copies every cluster out in BFS order (ClusteringPlanner), which
// packs each cluster into a handful of contiguous pages. Against a pool
// holding a quarter of the data, that turns most traversal page misses
// into hits: page reads per traversal drop and the hit rate rises,
// while user latency (p50/p99) follows. The memory mode runs the same
// schedule with no pool at all — its rows pin down how much of the
// latency change is layout vs paging.
//
// Emits BENCH_buffer_pool.json in the working directory:
//   {mode_disk, after, traversals, reads_per_traversal, hit_rate,
//    p50_ms, p99_ms, reorg_ok}
// CI asserts reorg_ok == 1 and that disk-mode reads_per_traversal
// strictly drops (and hit_rate rises) from before to after.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/file_util.h"
#include "common/histogram.h"
#include "core/relocation.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace brahma {
namespace bench {
namespace {

struct PoolBenchConfig {
  bool disk = true;
  uint32_t clusters = 48;       // NC
  uint32_t fanout = 4;          // 85-node 4-ary trees: 1+4+16+64
  uint32_t tree_nodes = 85;
  uint32_t data_size = 920;     // ~1 KiB blocks: 4 objects per 4 KiB page
  uint64_t frames = 256;        // 1 MiB pool vs ~4.2 MiB of objects
  int traversal_rounds = 3;     // full passes over all clusters per phase
};

struct PhaseResult {
  double reads_per_traversal = 0;
  double hit_rate = 1.0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint32_t traversals = 0;
};

// Read-only traversal transaction: DFS over one cluster tree following
// the tree-child slots, ReadData at every node.
uint32_t TraverseCluster(Database* db, ObjectId root, uint32_t fanout) {
  auto txn = db->Begin();
  uint32_t visited = 0;
  std::vector<ObjectId> stack{root};
  std::vector<ObjectId> refs;
  std::vector<uint8_t> data;
  while (!stack.empty()) {
    ObjectId cur = stack.back();
    stack.pop_back();
    if (!txn->ReadData(cur, &data).ok()) continue;
    ++visited;
    if (!txn->ReadRefs(cur, &refs).ok()) continue;
    for (uint32_t i = 0; i < refs.size() && i < fanout; ++i) {
      if (refs[i].valid()) stack.push_back(refs[i]);
    }
  }
  (void)txn->Commit();
  return visited;
}

PhaseResult MeasurePhase(Database* db, const std::vector<ObjectId>& roots,
                         const PoolBenchConfig& cfg) {
  PhaseResult r;
  BufferPool* pool = db->buffer_pool();
  if (pool != nullptr) {
    // Phase isolation: start cold so the phase pays its own misses.
    Status s = pool->FlushAll();
    if (!s.ok()) {
      std::fprintf(stderr, "FlushAll failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  const uint64_t reads0 =
      db->disk_data() != nullptr ? db->disk_data()->pages_read() : 0;
  const uint64_t hits0 = pool != nullptr ? pool->pool_hits() : 0;
  const uint64_t miss0 = pool != nullptr ? pool->pool_misses() : 0;

  // Random cluster per traversal (deterministic xorshift, identical
  // sequence in every phase and mode). Visiting clusters in creation
  // order would ride the interleaving instead of suffering it: adjacent
  // clusters share pages four-to-a-page in the scattered layout, so a
  // round-robin schedule inherits its predecessor's residency and the
  // scatter cost vanishes from the measurement.
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  Histogram lat_ms;
  const uint32_t traversals =
      static_cast<uint32_t>(cfg.traversal_rounds) *
      static_cast<uint32_t>(roots.size());
  for (uint32_t t = 0; t < traversals; ++t) {
    {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      ObjectId root = roots[rng % roots.size()];
      Stopwatch sw;
      uint32_t visited = TraverseCluster(db, root, cfg.fanout);
      lat_ms.Add(sw.ElapsedMillis());
      if (visited != cfg.tree_nodes) {
        std::fprintf(stderr, "traversal visited %u != %u nodes\n", visited,
                     cfg.tree_nodes);
        std::exit(1);
      }
      if (pool != nullptr) {
        // Run the epoch-deferred Warm -> Cold releases between
        // traversals (outside the latency window): without this, every
        // evicted page lingers Warm until some reader drains the epoch
        // and gets rescued for free — the pool would silently hold the
        // whole dataset in memory and hide the paging cost the frame
        // budget is supposed to impose.
        pool->FlushRetirements();
        db->epoch().ForceDrainAll();
      }
    }
  }

  r.traversals = static_cast<uint32_t>(lat_ms.count());
  if (db->disk_data() != nullptr) {
    r.reads_per_traversal =
        static_cast<double>(db->disk_data()->pages_read() - reads0) /
        static_cast<double>(r.traversals);
  }
  if (pool != nullptr) {
    const double hits = static_cast<double>(pool->pool_hits() - hits0);
    const double misses = static_cast<double>(pool->pool_misses() - miss0);
    r.hit_rate = hits + misses > 0 ? hits / (hits + misses) : 1.0;
  }
  r.p50_ms = lat_ms.Percentile(0.50);
  r.p99_ms = lat_ms.Percentile(0.99);
  return r;
}

void RunMode(const PoolBenchConfig& cfg, JsonBenchWriter* json) {
  DatabaseOptions dopt;
  // Partition 1: source (interleaved clusters). Partition 2: the
  // directory of cluster roots (their external parent — exercises ERT
  // fix-ups during the reorg). Partition 3: clustering destination.
  dopt.num_data_partitions = 3;
  dopt.partition_capacity = 16ull << 20;
  dopt.latchfree_reads = true;
  dopt.commit_flush_latency = std::chrono::microseconds(0);
  dopt.lock_timeout = std::chrono::milliseconds(200);
  const std::string data_dir = "./tmp-bench-buffer-pool-data";
  if (cfg.disk) {
    dopt.data_backing = DataBacking::kDisk;
    dopt.data_dir = data_dir;
    dopt.buffer_pool_frames = cfg.frames;
  }
  Database db(dopt);
  if (!db.data_status().ok()) {
    std::fprintf(stderr, "data init failed: %s\n",
                 db.data_status().ToString().c_str());
    std::exit(1);
  }

  // --- Build: allocate tree nodes round-robin ACROSS clusters so every
  // cluster is smeared over the partition, then wire each tree.
  const uint32_t n = cfg.tree_nodes;
  std::vector<std::vector<ObjectId>> nodes(cfg.clusters,
                                           std::vector<ObjectId>(n));
  for (uint32_t j = 0; j < n; ++j) {
    auto txn = db.Begin();
    for (uint32_t c = 0; c < cfg.clusters; ++c) {
      if (!txn->CreateObject(1, cfg.fanout, cfg.data_size, &nodes[c][j])
               .ok()) {
        std::fprintf(stderr, "create failed\n");
        std::exit(1);
      }
    }
    if (!txn->Commit().ok()) {
      std::fprintf(stderr, "create commit failed\n");
      std::exit(1);
    }
  }
  std::vector<ObjectId> roots;
  for (uint32_t c = 0; c < cfg.clusters; ++c) {
    roots.push_back(nodes[c][0]);
    auto txn = db.Begin();
    for (uint32_t j = 0; j < n; ++j) {
      if (!txn->Lock(nodes[c][j], LockMode::kExclusive).ok()) {
        std::fprintf(stderr, "lock failed\n");
        std::exit(1);
      }
      for (uint32_t k = 0; k < cfg.fanout; ++k) {
        uint32_t child = j * cfg.fanout + k + 1;
        if (child >= n) break;
        if (!txn->SetRef(nodes[c][j], k, nodes[c][child]).ok()) {
          std::fprintf(stderr, "wire failed\n");
          std::exit(1);
        }
      }
    }
    if (!txn->Commit().ok()) {
      std::fprintf(stderr, "wire commit failed\n");
      std::exit(1);
    }
  }
  {
    // Directory of roots in partition 2: the clusters' external parent.
    auto txn = db.Begin();
    ObjectId dir_obj;
    if (!txn->CreateObject(2, cfg.clusters, 8, &dir_obj).ok()) {
      std::fprintf(stderr, "directory create failed\n");
      std::exit(1);
    }
    for (uint32_t c = 0; c < cfg.clusters; ++c) {
      if (!txn->SetRef(dir_obj, c, roots[c]).ok()) {
        std::fprintf(stderr, "directory wire failed\n");
        std::exit(1);
      }
    }
    if (!txn->Commit().ok()) {
      std::fprintf(stderr, "directory commit failed\n");
      std::exit(1);
    }
  }
  db.analyzer().Sync();

  // --- Before.
  PhaseResult before = MeasurePhase(&db, roots, cfg);

  // --- IRA clustering reorganization: copy out in BFS order from the
  // cluster roots, tree-child slots only.
  ClusteringPlanner planner(&db.store(), 3, roots, cfg.fanout);
  IraOptions iopt;
  iopt.group_size = 8;
  iopt.lock_timeout = std::chrono::milliseconds(200);
  ReorgStats stats;
  Stopwatch reorg_sw;
  const RunCounters before_reorg = ReadRunCounters(db);
  Status rs = db.RunIra(1, &planner, iopt, &stats);
  const RunCounters during = RunCountersSince(before_reorg, db);
  const double reorg_ms = reorg_sw.ElapsedMillis();
  const bool reorg_ok = rs.ok() && stats.objects_migrated ==
                                       static_cast<uint64_t>(cfg.clusters) * n;
  if (!rs.ok()) {
    std::fprintf(stderr, "reorg failed: %s\n", rs.ToString().c_str());
  }

  // --- After (stale root ids chase the relocation map transparently).
  PhaseResult after = MeasurePhase(&db, roots, cfg);

  for (int phase = 0; phase < 2; ++phase) {
    const PhaseResult& r = phase == 0 ? before : after;
    json->BeginRow();
    json->Add("mode_disk", cfg.disk ? 1 : 0);
    json->Add("after", phase);
    json->Add("traversals", r.traversals);
    json->Add("reads_per_traversal", r.reads_per_traversal);
    json->Add("hit_rate", r.hit_rate);
    json->Add("p50_ms", r.p50_ms);
    json->Add("p99_ms", r.p99_ms);
    json->Add("reorg_ok", reorg_ok ? 1 : 0);
    std::printf(
        "%-6s %-6s traversals=%u reads/trav=%.2f hit_rate=%.3f "
        "p50=%.3fms p99=%.3fms%s\n",
        cfg.disk ? "disk" : "memory", phase == 0 ? "before" : "after",
        r.traversals, r.reads_per_traversal, r.hit_rate, r.p50_ms, r.p99_ms,
        phase == 1 ? (reorg_ok ? " [reorg ok]" : " [REORG FAILED]") : "");
  }
  if (cfg.disk) {
    std::printf(
        "reorg: %.1fms, migrated=%llu, pool misses during reorg=%llu, "
        "evictions=%llu, writebacks=%llu\n",
        reorg_ms, static_cast<unsigned long long>(stats.objects_migrated),
        static_cast<unsigned long long>(during.pool_misses),
        static_cast<unsigned long long>(during.frames_evicted),
        static_cast<unsigned long long>(during.dirty_writebacks));
  }
}

void Run() {
  PoolBenchConfig cfg;
  if (SmokeMode()) {
    cfg.clusters = 12;
    cfg.frames = 64;
    cfg.traversal_rounds = 2;
  }
  // Dataset vs pool: clusters * 85 nodes * ~1 KiB vs frames * 4 KiB.
  const double data_mb = static_cast<double>(cfg.clusters) * cfg.tree_nodes *
                         1024.0 / (1 << 20);
  const double pool_mb =
      static_cast<double>(cfg.frames) * 4096.0 / (1 << 20);
  std::printf("# Buffer pool — Fig-6 traversal workload, %.1f MiB of "
              "clusters vs %.1f MiB pool (%.1fx)\n",
              data_mb, pool_mb, data_mb / pool_mb);

  JsonBenchWriter json("buffer_pool");
  PoolBenchConfig disk_cfg = cfg;
  disk_cfg.disk = true;
  RunMode(disk_cfg, &json);
  PoolBenchConfig mem_cfg = cfg;
  mem_cfg.disk = false;
  RunMode(mem_cfg, &json);
  RemoveDirRecursive("./tmp-bench-buffer-pool-data");
  if (!json.WriteFile("BENCH_buffer_pool.json")) {
    std::fprintf(stderr, "failed to write BENCH_buffer_pool.json\n");
    NoteFailure();
    std::exit(1);
  }
  std::printf("wrote BENCH_buffer_pool.json\n");
}

}  // namespace
}  // namespace bench
}  // namespace brahma

int main() {
  brahma::bench::Run();
  // Nonzero when any experiment's reorganization failed or a JSON
  // artifact could not be written: CI must fail the step instead of
  // validating zeroed stats.
  return brahma::bench::ExitCode();
}
