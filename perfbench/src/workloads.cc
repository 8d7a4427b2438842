#include "workloads.h"

#include <pthread.h>
#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "audit.h"
#include "common/file_util.h"
#include "common/params.h"
#include "common/random.h"
#include "core/database.h"
#include "core/ira.h"
#include "histogram.h"
#include "net/client.h"
#include "net/server.h"
#include "planner_probe.h"
#include "trace.h"
#include "workload/graph_builder.h"

namespace perfbench {
namespace {

using brahma::BuiltGraph;
using brahma::Database;
using brahma::DatabaseOptions;
using brahma::IraOptions;
using brahma::IraReorganizer;
using brahma::LockMode;
using brahma::ObjectId;
using brahma::PartitionId;
using brahma::Random;
using brahma::ReorgStats;
using brahma::Status;
using brahma::Transaction;
using brahma::WorkloadParams;

// Load model shared by every workload (closed loop, zero think time).
constexpr uint32_t kClients = 4;
constexpr uint32_t kServerWorkers = 4;
constexpr double kWarmupS = 0.5;
// Set-ups timed per run (setup_s is their median); the run uses the last.
constexpr int kSetups = 3;
// Keeps the retained in-memory log bounded over a run.
constexpr size_t kLogTruncateThreshold = 100000;
// About 0.5 MiB of objects per partition; the slack absorbs the holes a
// partition accumulates while it is moved out and back pass after pass.
constexpr uint64_t kPartitionCapacity = 4ull << 20;
// A logical transaction that still has not committed after this many
// attempts counts as failed.
constexpr uint64_t kMaxAttempts = 1000;
constexpr size_t kTraceEventsPerThread = size_t{1} << 15;
// Each window is cut into this many equal slices; the end-to-end metrics
// are medians over the slices, so a burst of host noise that hits a few
// slices does not move them.
constexpr size_t kSlices = 20;
// Table 1 defaults: 10 partitions plus one spare as migration target.
constexpr PartitionId kMovingPartition = 1;
constexpr PartitionId kSparePartition = 11;

struct Spec {
  const char* name;
  double update_prob;
  uint32_t ira_workers;  // 0 = no reorganization
  bool served;           // NetServer on loopback, disk-backed data + WAL
};

// Why each workload exists is in perfbench/README.md.
constexpr Spec kSpecs[] = {
    {"walk_ira", 0.5, 2, false},
    {"walk_read", 0.0, 0, false},
    {"served_disk_ira", 0.5, 1, true},
};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Set-up: open the database, build the Section 5.2 graph, start the server.

DatabaseOptions MakeOptions(const Spec& spec, const std::string& workdir) {
  DatabaseOptions o;
  o.num_data_partitions = kSparePartition;
  o.partition_capacity = kPartitionCapacity;
  o.commit_flush_latency = brahma::kCommitForceLatency;
  o.group_commit = true;
  o.lock_timeout = brahma::kCalibratedLockTimeout;
  o.log_truncate_threshold = kLogTruncateThreshold;
  if (spec.served) {
    o.data_backing = brahma::DataBacking::kDisk;
    o.data_dir = workdir + "/data";
    o.durability = brahma::Durability::kDisk;
    o.wal_dir = workdir + "/wal";
    o.fsync_mode = brahma::FsyncMode::kNoop;
  }
  return o;
}

struct Instance {
  std::unique_ptr<Database> db;
  BuiltGraph graph;
  std::unique_ptr<brahma::net::NetServer> server;

  void Reset() {
    if (server != nullptr) server->Stop();
    server.reset();
    db.reset();
    graph = BuiltGraph();
  }
};

struct SetupTimes {
  double open_s = 0, build_s = 0, server_s = 0, total_s = 0;
};

Status SetUp(const Spec& spec, const DatabaseOptions& opts,
             const WorkloadParams& params, const std::string& workdir,
             Instance* inst, SetupTimes* times) {
  inst->Reset();
  if (spec.served) {
    brahma::RemoveDirRecursive(workdir);
    Status s = brahma::MakeDirs(workdir);
    if (!s.ok()) return s;
  }
  const int64_t t0 = NowNs();
  inst->db = std::make_unique<Database>(opts);
  const int64_t t1 = NowNs();
  if (!inst->db->durability_status().ok()) return inst->db->durability_status();
  if (!inst->db->data_status().ok()) return inst->db->data_status();
  brahma::GraphBuilder builder(inst->db.get());
  Status s = builder.Build(params, &inst->graph);
  if (!s.ok()) return s;
  const int64_t t2 = NowNs();
  if (spec.served) {
    brahma::net::ServerOptions so;
    so.num_workers = kServerWorkers;
    so.graph = &inst->graph;
    so.workload = params;
    inst->server =
        std::make_unique<brahma::net::NetServer>(inst->db.get(), so);
    s = inst->server->Start();
    if (!s.ok()) return s;
  }
  const int64_t t3 = NowNs();
  times->open_s = static_cast<double>(t1 - t0) / 1e9;
  times->build_s = static_cast<double>(t2 - t1) / 1e9;
  times->server_s = static_cast<double>(t3 - t2) / 1e9;
  times->total_s = static_cast<double>(t3 - t0) / 1e9;
  return Status::Ok();
}

// Distinct data pages holding live objects of the given partitions.
uint64_t PagesTouched(brahma::ObjectStore* store,
                      const std::vector<PartitionId>& parts) {
  uint64_t pages = 0;
  for (PartitionId p : parts) {
    brahma::Partition& part = store->partition(p);
    std::set<uint64_t> seen;
    part.ForEachLiveObject([&](uint64_t off) {
      const uint64_t end = off + part.HeaderAt(off)->block_size - 1;
      for (uint64_t pg = off / brahma::kDataPageSize;
           pg <= end / brahma::kDataPageSize; ++pg) {
        seen.insert(pg);
      }
    });
    pages += seen.size();
  }
  return pages;
}

// ---------------------------------------------------------------------------
// Reorganization: IRA moves partition 1 to the spare and back, pass after
// pass, until asked to stop; the pass in flight then runs to completion.

struct ReorgTotals {
  uint64_t migrated = 0, lock_timeouts = 0, retries = 0, trt_drained = 0,
           trt_peak = 0, deferrals = 0, wakeups = 0, backoff_ms = 0,
           aborts = 0;
};

class ReorgLoop {
 public:
  ReorgLoop(Database* db, uint32_t workers, bool* moved_out, Tracer* tracer)
      : ira_(db->reorg_context()),
        workers_(workers),
        moved_out_(moved_out),
        tracer_(tracer) {
    thread_ = std::thread([this] { Main(); });
  }
  ~ReorgLoop() { StopAndJoin(); }
  ReorgLoop(const ReorgLoop&) = delete;
  ReorgLoop& operator=(const ReorgLoop&) = delete;

  void StopAndJoin() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  // Live sums over this loop's passes, the running one included.
  ReorgTotals Totals() {
    std::lock_guard<std::mutex> g(mu_);
    ReorgTotals t;
    for (const ReorgStats& s : stats_) {
      t.migrated += s.objects_migrated.load();
      t.lock_timeouts += s.lock_timeouts.load();
      t.retries += s.find_exact_retries.load();
      t.trt_drained += s.trt_tuples_drained.load();
      t.trt_peak = std::max<uint64_t>(t.trt_peak, s.trt_peak_size.load());
      t.deferrals += s.claim_deferrals.load();
      t.wakeups += s.claim_wakeups.load();
      t.backoff_ms += s.backoff_total_ms.load();
      t.aborts += s.aborts_rolled_back.load();
    }
    return t;
  }

  // Valid after StopAndJoin.
  const std::vector<std::string>& failures() const { return failures_; }
  size_t passes() const { return passes_; }

 private:
  void Main() {
    pthread_setname_np(pthread_self(), "pb-reorg");
    ThreadTrace* trace =
        tracer_ != nullptr ? tracer_->Register("reorg-loop") : nullptr;
    IraOptions opt;
    opt.num_workers = workers_;
    opt.lock_timeout = brahma::kCalibratedLockTimeout;
    while (!stop_.load()) {
      ReorgStats* st;
      {
        std::lock_guard<std::mutex> g(mu_);
        st = &stats_.emplace_back();
      }
      const PartitionId from = *moved_out_ ? kSparePartition : kMovingPartition;
      const PartitionId to = *moved_out_ ? kMovingPartition : kSparePartition;
      const uint64_t pass = ++passes_;
      ProbePlanner planner(to, pass, tracer_);
      const int64_t t0 = NowNs();
      Status s = ira_.Run(from, &planner, opt, st);
      const int64_t t1 = NowNs();
      if (trace != nullptr) {
        const int64_t order = planner.order_ns() > 0 ? planner.order_ns() : t1;
        trace->Record(Kind::kReorgTraverse, t0, order, pass, 0);
        trace->Record(Kind::kReorgMigrate, order, t1, pass, 0);
        trace->Record(Kind::kReorgPass, t0, t1, pass, t1 - t0);
      }
      if (!s.ok()) {
        failures_.push_back("reorg pass " + std::to_string(pass) + ": " +
                            s.ToString());
        return;
      }
      if (ira_.ActiveFootprintClaims() != 0) {
        failures_.push_back("reorg pass " + std::to_string(pass) + " left " +
                            std::to_string(ira_.ActiveFootprintClaims()) +
                            " footprint claims");
      }
      *moved_out_ = !*moved_out_;
    }
  }

  IraReorganizer ira_;
  const uint32_t workers_;
  bool* moved_out_;  // owned by the caller; touched only by this thread
  Tracer* tracer_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::deque<ReorgStats> stats_;  // deque: elements never move
  std::vector<std::string> failures_;
  size_t passes_ = 0;
  std::thread thread_;  // last: started after every member it uses
};

// ---------------------------------------------------------------------------
// Clients.

struct WindowStats {
  Histogram latency;  // ns, committed logical transactions
  uint64_t committed = 0;
  uint64_t failed_txns = 0;
  uint64_t attempts = 0;
  uint64_t failed_attempts = 0;
};

void MergeInto(WindowStats* dst, const WindowStats& src) {
  dst->latency.Merge(src.latency);
  dst->committed += src.committed;
  dst->failed_txns += src.failed_txns;
  dst->attempts += src.attempts;
  dst->failed_attempts += src.failed_attempts;
}

using Slices = std::array<WindowStats, kSlices>;

struct ClientState {
  Slices window[2];
  std::string problem;  // first wrong output or unexpected error
  ThreadTrace* trace = nullptr;
};

struct Shared {
  const Spec* spec = nullptr;
  Database* db = nullptr;
  const BuiltGraph* graph = nullptr;
  WorkloadParams params;
  uint16_t port = 0;
  Tracer* tracer = nullptr;
  std::atomic<bool> stop{false};
  std::atomic<int> window{-1};  // index of the open window, -1 = none
  // Set before `window` opens a window.
  std::atomic<int64_t> window_start_ns{0};
  std::atomic<int64_t> slice_ns{1};
  std::atomic<bool> tracing{false};
};

bool Retryable(const Status& s) {
  return s.IsTimedOut() || s.IsAborted() || s.IsBusy() ||
         s.IsDeadlockVictim();
}

// One attempt of the paper's Section 5.2 walk, in process: reach a
// cluster root through the home partition's directory, then 8 steps, each
// taking an S or X lock; an update rewrites the payload and with
// probability ref_mutation_prob re-points the glue slot.
Status WalkAttempt(const Shared& sh, ClientState* cs, PartitionId home,
                   Random* rng, ThreadTrace* t, uint64_t id) {
  std::unique_ptr<Transaction> txn = sh.db->Begin();
  auto fail = [&](Status s) {
    Span sp(t, Kind::kAbort, id);
    txn->Abort();
    return s;
  };
  auto bad = [&](std::string what) {
    if (cs->problem.empty()) cs->problem = std::move(what);
    return fail(Status::InvalidArgument("wrong output"));
  };
  const ObjectId dir = sh.graph->partition_dirs[home - 1];
  Status s;
  {
    Span sp(t, Kind::kLock, id);
    s = txn->Lock(dir, LockMode::kShared);
  }
  if (!s.ok()) return fail(s);
  std::vector<ObjectId> refs;
  {
    Span sp(t, Kind::kRead, id);
    s = txn->ReadRefs(dir, &refs);
  }
  if (!s.ok()) return fail(s);
  if (refs.size() != sh.params.clusters_per_partition()) {
    return bad("directory of partition " + std::to_string(home) + " has " +
               std::to_string(refs.size()) + " slots");
  }
  ObjectId cur = refs[rng->Uniform(refs.size())];
  if (!cur.valid()) return bad("invalid cluster root in directory");

  std::vector<uint8_t> payload(sh.params.data_size);
  std::vector<ObjectId> valid;
  for (uint32_t step = 0; step < sh.params.ops_per_txn; ++step) {
    const bool update = rng->Bernoulli(sh.params.update_prob);
    {
      Span sp(t, Kind::kLock, id);
      s = txn->Lock(cur, update ? LockMode::kExclusive : LockMode::kShared);
    }
    if (!s.ok()) return fail(s);
    {
      Span sp(t, Kind::kRead, id);
      s = txn->ReadRefs(cur, &refs);
    }
    if (!s.ok()) return fail(s);
    if (refs.size() != WorkloadParams::kNumRefSlots) {
      return bad("object " + cur.ToString() + " has " +
                 std::to_string(refs.size()) + " slots");
    }
    if (update) {
      for (auto& b : payload) b = static_cast<uint8_t>(rng->Next());
      {
        Span sp(t, Kind::kWrite, id);
        s = txn->WriteData(cur, payload);
      }
      if (!s.ok()) return fail(s);
      if (rng->Bernoulli(sh.params.ref_mutation_prob) &&
          !txn->local_refs().empty()) {
        // Delete the glue reference, then insert one copied from local
        // memory (half the time the same one: paper Figure 2's pattern).
        ObjectId old_glue;
        {
          Span sp(t, Kind::kRead, id);
          s = txn->ReadRef(cur, WorkloadParams::kGlueSlot, &old_glue);
        }
        if (!s.ok()) return fail(s);
        const ObjectId target =
            rng->Bernoulli(0.5) && old_glue.valid()
                ? old_glue
                : txn->local_refs()[rng->Uniform(txn->local_refs().size())];
        {
          Span sp(t, Kind::kWrite, id);
          s = txn->SetRef(cur, WorkloadParams::kGlueSlot, ObjectId::Invalid());
        }
        if (!s.ok()) return fail(s);
        {
          Span sp(t, Kind::kWrite, id);
          s = txn->SetRef(cur, WorkloadParams::kGlueSlot, target);
        }
        if (!s.ok()) return fail(s);
      }
    }
    valid.clear();
    for (ObjectId r : refs) {
      if (r.valid()) valid.push_back(r);
    }
    if (valid.empty()) return bad("object " + cur.ToString() + " has no refs");
    cur = valid[rng->Uniform(valid.size())];
  }
  Span sp(t, Kind::kCommit, id);
  return txn->Commit();
}

bool TransportError(const Status& s) {
  return s.code() == Status::Code::kInternal || s.IsCorruption();
}

// The same walk as an interactive served transaction: Begin, Read of the
// directory, 8 x (Read, plus an Update with probability UPDATEPROB),
// Commit. The wire has no SetRef, so updates rewrite payloads only.
Status ServedAttempt(const Shared& sh, ClientState* cs,
                     brahma::net::NetClient* c, PartitionId home, Random* rng,
                     ThreadTrace* t, uint64_t id) {
  Status s;
  {
    Span sp(t, Kind::kNetBegin, id);
    s = c->Begin();
  }
  if (!s.ok()) return s;
  auto fail = [&](Status s) {
    if (TransportError(s)) return s;  // the session is gone
    Span sp(t, Kind::kNetAbort, id);
    Status a = c->Abort();
    return a.ok() ? s : a;
  };
  auto bad = [&](std::string what) {
    if (cs->problem.empty()) cs->problem = std::move(what);
    return fail(Status::InvalidArgument("wrong output"));
  };
  std::vector<ObjectId> refs;
  std::vector<uint8_t> data;
  {
    Span sp(t, Kind::kNetRead, id);
    s = c->Read(sh.graph->partition_dirs[home - 1], &refs, &data);
  }
  if (!s.ok()) return fail(s);
  if (refs.size() != sh.params.clusters_per_partition()) {
    return bad("served directory has " + std::to_string(refs.size()) +
               " slots");
  }
  ObjectId cur = refs[rng->Uniform(refs.size())];
  if (!cur.valid()) return bad("invalid cluster root in served directory");
  std::vector<uint8_t> payload(sh.params.data_size);
  std::vector<ObjectId> valid;
  for (uint32_t step = 0; step < sh.params.ops_per_txn; ++step) {
    {
      Span sp(t, Kind::kNetRead, id);
      s = c->Read(cur, &refs, &data);
    }
    if (!s.ok()) return fail(s);
    if (refs.size() != WorkloadParams::kNumRefSlots ||
        data.size() != sh.params.data_size) {
      return bad("served object " + cur.ToString() + " has " +
                 std::to_string(refs.size()) + " slots and " +
                 std::to_string(data.size()) + " data bytes");
    }
    if (rng->Bernoulli(sh.params.update_prob)) {
      for (auto& b : payload) b = static_cast<uint8_t>(rng->Next());
      {
        Span sp(t, Kind::kNetUpdate, id);
        s = c->Update(cur, payload);
      }
      if (!s.ok()) return fail(s);
    }
    valid.clear();
    for (ObjectId r : refs) {
      if (r.valid()) valid.push_back(r);
    }
    if (valid.empty()) return bad("served object has no refs");
    cur = valid[rng->Uniform(valid.size())];
  }
  Span sp(t, Kind::kNetCommit, id);
  return c->Commit();
}

void ClientMain(Shared* sh, ClientState* cs, uint32_t idx) {
  pthread_setname_np(pthread_self(), ("pb-client-" + std::to_string(idx)).c_str());
  Random rng(Mix(sh->params.seed, idx + 1));
  const PartitionId home = static_cast<PartitionId>(idx + 1);
  brahma::net::NetClient conn;
  if (sh->spec->served) {
    Status s = conn.Connect("127.0.0.1", sh->port);
    if (!s.ok()) {
      cs->problem = "connect: " + s.ToString();
      return;
    }
  }
  uint64_t seq = 0;
  while (!sh->stop.load(std::memory_order_relaxed) && cs->problem.empty()) {
    ThreadTrace* t = nullptr;
    if (sh->tracing.load(std::memory_order_acquire)) {
      if (cs->trace == nullptr) {
        cs->trace = sh->tracer->Register("client-" + std::to_string(idx));
      }
      t = cs->trace;
    }
    const uint64_t id = (uint64_t{idx + 1} << 40) | ++seq;
    const int64_t start = NowNs();
    uint64_t attempts = 0, failed = 0;
    bool committed = false;
    {
      Span root(t, Kind::kTxn, id);
      while (true) {
        ++attempts;
        Status s;
        {
          Span a(t, Kind::kAttempt, id);
          s = sh->spec->served ? ServedAttempt(*sh, cs, &conn, home, &rng, t, id)
                               : WalkAttempt(*sh, cs, home, &rng, t, id);
        }
        if (s.ok()) {
          committed = true;
          break;
        }
        ++failed;
        if (!cs->problem.empty()) break;
        if (sh->spec->served && TransportError(s)) {
          // A failed reconnect fails the next attempt the same way.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          conn.Connect("127.0.0.1", sh->port);
        } else if (!Retryable(s)) {
          cs->problem = "unexpected error: " + s.ToString();
          break;
        }
        if (attempts >= kMaxAttempts ||
            sh->stop.load(std::memory_order_relaxed)) {
          break;
        }
      }
    }
    const int64_t end = NowNs();
    const int w = sh->window.load(std::memory_order_acquire);
    if (w < 0) continue;
    const size_t slice = std::min<size_t>(
        kSlices - 1,
        static_cast<size_t>(std::max<int64_t>(0, end - sh->window_start_ns.load()) /
                            sh->slice_ns.load()));
    WindowStats& ws = cs->window[w][slice];
    ws.attempts += attempts;
    ws.failed_attempts += failed;
    if (committed) {
      ++ws.committed;
      ws.latency.Add(static_cast<uint64_t>(end - start));
    } else {
      ++ws.failed_txns;
    }
  }
}

// ---------------------------------------------------------------------------
// Counters each layer already exposes, read at the edges of a window.

struct Counters {
  uint64_t deadlocks = 0, victims = 0, user_victims = 0;
  uint64_t force_batches = 0, forces_absorbed = 0, last_lsn = 0, fsyncs = 0;
  uint64_t retained_records = 0;
  uint64_t analyzer_records = 0, trt_inserts = 0, trt_deletes = 0,
           trt_purged = 0;
  uint64_t pool_hits = 0, pool_misses = 0, evictions = 0, writebacks = 0;
  uint64_t pages_read = 0, pages_written = 0;
  uint64_t retire_drains = 0;
  uint64_t requests = 0, sessions_dropped = 0, frames_rejected = 0;
  ReorgTotals reorg;
};

Counters ReadCounters(Database* db, brahma::net::NetServer* server,
                      ReorgLoop* reorg) {
  Counters c;
  c.deadlocks = db->locks().deadlocks_detected();
  c.victims = db->locks().victims_aborted();
  c.user_victims = db->locks().user_victims();
  c.force_batches = db->log().group_commit_batches();
  c.forces_absorbed = db->log().group_commit_forces_absorbed();
  c.last_lsn = db->log().last_lsn();
  c.fsyncs = db->log().fsyncs();
  c.retained_records = db->log().NumRecords();
  c.analyzer_records = db->analyzer().records_processed();
  c.trt_inserts = db->trt().inserts_noted();
  c.trt_deletes = db->trt().deletes_noted();
  c.trt_purged = db->trt().purged();
  if (brahma::BufferPool* pool = db->buffer_pool()) {
    c.pool_hits = pool->pool_hits();
    c.pool_misses = pool->pool_misses();
    c.evictions = pool->frames_evicted();
    c.writebacks = pool->dirty_writebacks();
  }
  if (brahma::DiskManager* disk = db->disk_data()) {
    c.pages_read = disk->pages_read();
    c.pages_written = disk->pages_written();
  }
  c.retire_drains = db->epoch().retire_drains();
  if (server != nullptr) {
    c.requests = server->requests_served();
    c.sessions_dropped = server->sessions_dropped();
    c.frames_rejected = server->frames_rejected();
  }
  if (reorg != nullptr) c.reorg = reorg->Totals();
  return c;
}

struct Window {
  double seconds = 0;
  Counters begin, end;
  WindowStats users;  // merged over clients and slices
  Slices slices;      // merged over clients
  uint64_t passes = 0;
};

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    std::string out;
    for (char ch : s) {
      if (ch != '"' && ch != '\\') out += ch;
    }
    return out;
  }
#endif
  return "unknown";
}

// One busy thread per CPU at SCHED_IDLE priority, for the life of a run.
// It yields to every runnable benchmark or library thread at once, but it
// keeps each virtual CPU from halting while the benchmark sleeps in a
// modeled force or a socket wait. On a virtual machine a halted vCPU
// wakes only when the host schedules it again, and that delay depends on
// the host's other tenants: without the spinners, served_disk_ira ran at
// 310 to 1190 txn/s on one 4-vCPU VM as its steal time moved between 5%
// and 26%; with them steal stayed near 1%. A thread that cannot lower its
// priority exits rather than compete with the benchmark.
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        pthread_setname_np(pthread_self(), "pb-idle-spin");
        sched_param sp{};
        if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp) != 0) return;
        running_.fetch_add(1);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  unsigned running() const { return running_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<unsigned> running_{0};
  std::vector<std::thread> threads_;  // last: the threads use the atomics
};

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

RunResult RunWorkload(const RunArgs& args) {
  RunResult r;
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    r.problems.push_back("unknown workload '" + args.workload + "'");
    return r;
  }

  IdleSpinners spinners;
  WorkloadParams params;  // Table 1 defaults: 10 x 4080 objects, glue 0.05
  params.update_prob = spec->update_prob;
  params.mpl = kClients;
  params.seed = args.seed;
  const DatabaseOptions opts = MakeOptions(*spec, args.workdir);

  Instance inst;
  std::vector<double> open_s, build_s, server_s, total_s;
  for (int i = 0; i < kSetups; ++i) {
    SetupTimes st;
    Status s = SetUp(*spec, opts, params, args.workdir, &inst, &st);
    if (!s.ok()) {
      r.problems.push_back("set-up failed: " + s.ToString());
      inst.Reset();
      return r;
    }
    open_s.push_back(st.open_s);
    build_s.push_back(st.build_s);
    server_s.push_back(st.server_s);
    total_s.push_back(st.total_s);
  }
  Database* db = inst.db.get();
  const uint64_t built_live = CountLive(&db->store());
  const uint64_t pages_touched =
      PagesTouched(&db->store(), {0, 1, 2, 3, 4}) +
      PagesTouched(&db->store(), {kMovingPartition});

  Shared sh;
  sh.spec = spec;
  sh.db = db;
  sh.graph = &inst.graph;
  sh.params = params;
  sh.port = inst.server != nullptr ? inst.server->port() : 0;
  Tracer tracer(kTraceEventsPerThread);
  sh.tracer = &tracer;

  std::vector<ClientState> clients(kClients);
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < kClients; ++i) {
    threads.emplace_back(ClientMain, &sh, &clients[i], i);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));

  bool moved_out = false;
  std::vector<std::string> reorg_failures;
  int64_t trace_origin = 0;
  // Each window starts a fresh reorganization loop at its first instant,
  // so every window sees the same sequence of reorg phases.
  auto measure = [&](int w, bool traced, double seconds) {
    Window win;
    if (traced) {
      trace_origin = NowNs();
      sh.tracing.store(true, std::memory_order_release);
    }
    std::unique_ptr<ReorgLoop> reorg;
    if (spec->ira_workers > 0) {
      reorg = std::make_unique<ReorgLoop>(db, spec->ira_workers, &moved_out,
                                          traced ? &tracer : nullptr);
    }
    win.begin = ReadCounters(db, inst.server.get(), reorg.get());
    const int64_t t0 = NowNs();
    sh.window_start_ns.store(t0);
    sh.slice_ns.store(std::max<int64_t>(
        1, static_cast<int64_t>(seconds * 1e9 / static_cast<double>(kSlices))));
    sh.window.store(w, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    sh.window.store(-1, std::memory_order_release);
    const int64_t t1 = NowNs();
    win.end = ReadCounters(db, inst.server.get(), reorg.get());
    sh.tracing.store(false, std::memory_order_release);
    win.seconds = static_cast<double>(t1 - t0) / 1e9;
    if (reorg != nullptr) {
      reorg->StopAndJoin();
      win.passes = reorg->passes();
      for (const std::string& f : reorg->failures()) {
        reorg_failures.push_back(f);
      }
    }
    return win;
  };
  Window plain, traced;
  if (args.trace) {
    plain = measure(0, false, args.seconds / 2);
    traced = measure(1, true, args.seconds / 2);
  } else {
    plain = measure(0, false, args.seconds);
  }
  sh.stop.store(true);
  for (auto& t : threads) t.join();
  if (inst.server != nullptr) inst.server->Stop();

  for (ClientState& c : clients) {
    for (int w = 0; w < 2; ++w) {
      Window& dst = w == 0 ? plain : traced;
      for (size_t i = 0; i < kSlices; ++i) {
        MergeInto(&dst.slices[i], c.window[w][i]);
        MergeInto(&dst.users, c.window[w][i]);
      }
    }
    if (!c.problem.empty()) r.problems.push_back("client: " + c.problem);
  }
  for (const std::string& f : reorg_failures) r.problems.push_back(f);
  for (std::string& p : AuditDatabase(db, built_live)) {
    r.problems.push_back("audit: " + p);
  }

  // --- end-to-end metrics (tracing off) -------------------------------
  const WindowStats& u = plain.users;
  r.attempted = u.committed + u.failed_txns;
  r.failed = u.failed_txns;
  const double tps = Ratio(static_cast<double>(u.committed), plain.seconds);
  auto e2e = [&r](std::string n, double v, const char* unit, uint64_t k) {
    r.end_to_end.push_back({std::move(n), v, unit, k});
  };
  std::vector<double> slice_tps, slice_p50, slice_mean;
  for (const WindowStats& sl : plain.slices) {
    slice_tps.push_back(Ratio(static_cast<double>(sl.committed),
                              plain.seconds / static_cast<double>(kSlices)));
    slice_p50.push_back(sl.latency.Percentile(0.50) / 1e6);
    slice_mean.push_back(sl.latency.mean() / 1e6);
  }
  e2e("txn_tps", Median(slice_tps), "txn/s", u.committed);
  e2e("txn_p50_ms", Median(slice_p50), "ms", u.latency.count());
  e2e("txn_mean_ms", Median(slice_mean), "ms", u.latency.count());
  e2e("txn_p99_ms", u.latency.Percentile(0.99) / 1e6, "ms", u.latency.count());
  e2e("txn_fail_frac",
      Ratio(static_cast<double>(u.failed_attempts),
            static_cast<double>(u.attempts)),
      "ratio", u.attempts);
  const uint64_t plain_migrated =
      plain.end.reorg.migrated - plain.begin.reorg.migrated;
  if (spec->ira_workers > 0) {
    e2e("reorg_objs_per_s", Ratio(static_cast<double>(plain_migrated),
                                  plain.seconds),
        "obj/s", plain_migrated);
  }
  e2e("setup_s", Median(total_s), "s", total_s.size());
  e2e("peak_rss_mb", PeakRssMiB(), "MiB", 0);

  // --- layer self-check: each workload works the layers it claims -------
  const Counters d0 = [&] {
    Counters d;
    d.trt_inserts = plain.end.trt_inserts - plain.begin.trt_inserts;
    d.trt_deletes = plain.end.trt_deletes - plain.begin.trt_deletes;
    d.pool_hits = plain.end.pool_hits - plain.begin.pool_hits;
    d.pool_misses = plain.end.pool_misses - plain.begin.pool_misses;
    d.requests = plain.end.requests - plain.begin.requests;
    return d;
  }();
  auto claim = [&r, spec](bool ok, const std::string& what) {
    if (!ok) {
      r.problems.push_back(std::string("self-check (") + spec->name +
                           "): " + what);
    }
  };
  if (spec->ira_workers > 0) {
    claim(plain_migrated > 0, "no object migrated in the window");
  } else {
    claim(plain_migrated == 0, "objects migrated without a reorganizer");
    claim(d0.trt_inserts + d0.trt_deletes == 0, "TRT tuples were noted");
  }
  if (spec->served) {
    claim(d0.pool_misses > 0, "no buffer-pool miss");
    claim(Ratio(static_cast<double>(d0.requests),
                static_cast<double>(u.committed)) >= 10.0,
          "fewer than 10 requests per transaction");
  } else {
    claim(d0.pool_hits + d0.pool_misses == 0, "buffer pool was used");
    claim(d0.requests == 0, "server requests were served");
  }

  // --- per-layer metrics (traced window) --------------------------------
  if (args.trace) {
    const auto kinds = tracer.Summarize();
    const Counters& b = traced.begin;
    const Counters& e = traced.end;
    const WindowStats& tu = traced.users;
    const double commits = static_cast<double>(tu.committed);
    auto pl = [&r](std::string n, double v, const char* unit, uint64_t k = 0) {
      r.per_layer.push_back({std::move(n), v, unit, k});
    };
    auto span = [&](Kind k) -> const KindSummary& {
      return kinds[static_cast<size_t>(k)];
    };
    auto us = [](const Histogram& h, double q) { return h.Percentile(q) / 1e3; };
    auto ms = [](int64_t ns) { return static_cast<double>(ns) / 1e6; };
    // Root spans: their own time is what the calls inside them do not cover.
    for (Kind k : {Kind::kTxn, Kind::kAttempt}) {
      const KindSummary& s = span(k);
      const std::string n = KindName(k);
      pl(n + ".count", static_cast<double>(s.hist.count()), "count");
      pl(n + ".p50_us", us(s.hist, 0.50), "us", s.hist.count());
      pl(n + ".p99_us", us(s.hist, 0.99), "us", s.hist.count());
      pl(n + ".self_ms", ms(s.self_ns), "ms", s.hist.count());
    }
    // Leaf spans: one per public call; their self time is their total.
    for (Kind k : {Kind::kLock, Kind::kRead, Kind::kWrite, Kind::kCommit,
                   Kind::kNetBegin, Kind::kNetRead, Kind::kNetUpdate,
                   Kind::kNetCommit, Kind::kNetAbort, Kind::kAbort}) {
      const KindSummary& s = span(k);
      const std::string n = KindName(k);
      pl(n + ".count", static_cast<double>(s.hist.count()), "count");
      pl(n + ".p50_us", us(s.hist, 0.50), "us", s.hist.count());
      pl(n + ".p99_us", us(s.hist, 0.99), "us", s.hist.count());
      pl(n + ".total_ms", ms(static_cast<int64_t>(s.hist.sum())), "ms",
         s.hist.count());
    }
    pl("lock.deadlocks", static_cast<double>(e.deadlocks - b.deadlocks), "count");
    pl("lock.victims", static_cast<double>(e.victims - b.victims), "count");
    pl("lock.user_victims",
       static_cast<double>(e.user_victims - b.user_victims), "count");
    const double batches = static_cast<double>(e.force_batches - b.force_batches);
    const double absorbed =
        static_cast<double>(e.forces_absorbed - b.forces_absorbed);
    pl("wal.force_batches", batches, "count");
    pl("wal.forces_absorbed", absorbed, "count");
    pl("wal.absorb_ratio", Ratio(absorbed, batches + absorbed), "ratio");
    pl("wal.records_per_commit",
       Ratio(static_cast<double>(e.last_lsn - b.last_lsn), commits), "count");
    pl("wal.retained_records", static_cast<double>(e.retained_records), "count");
    pl("wal.fsyncs", static_cast<double>(e.fsyncs - b.fsyncs), "count");
    pl("analyzer.records",
       static_cast<double>(e.analyzer_records - b.analyzer_records), "count");
    const double trt_ins = static_cast<double>(e.trt_inserts - b.trt_inserts);
    const double trt_del = static_cast<double>(e.trt_deletes - b.trt_deletes);
    pl("trt.inserts", trt_ins, "count");
    pl("trt.deletes", trt_del, "count");
    pl("trt.purged", static_cast<double>(e.trt_purged - b.trt_purged), "count");
    const double hits = static_cast<double>(e.pool_hits - b.pool_hits);
    const double misses = static_cast<double>(e.pool_misses - b.pool_misses);
    pl("pool.hits", hits, "count");
    pl("pool.misses", misses, "count");
    pl("pool.hit_rate", Ratio(hits, hits + misses), "ratio");
    pl("pool.misses_per_txn", Ratio(misses, commits), "count");
    pl("pool.evictions", static_cast<double>(e.evictions - b.evictions), "count");
    pl("pool.writebacks", static_cast<double>(e.writebacks - b.writebacks),
       "count");
    pl("disk.pages_read", static_cast<double>(e.pages_read - b.pages_read),
       "count");
    pl("disk.pages_written",
       static_cast<double>(e.pages_written - b.pages_written), "count");

    const KindSummary& pass = span(Kind::kReorgPass);
    pl("reorg.pass.count", static_cast<double>(pass.hist.count()), "count");
    pl("reorg.pass.p50_ms", pass.hist.Percentile(0.5) / 1e6, "ms",
       pass.hist.count());
    const KindSummary& trav = span(Kind::kReorgTraverse);
    pl("reorg.traverse.p50_ms", trav.hist.Percentile(0.5) / 1e6, "ms",
       trav.hist.count());
    pl("reorg.traverse.total_ms", ms(static_cast<int64_t>(trav.hist.sum())),
       "ms", trav.hist.count());
    const KindSummary& mig = span(Kind::kReorgMigrate);
    pl("reorg.migrate.p50_ms", mig.hist.Percentile(0.5) / 1e6, "ms",
       mig.hist.count());
    pl("reorg.migrate.total_ms", ms(static_cast<int64_t>(mig.hist.sum())),
       "ms", mig.hist.count());
    pl("reorg.targets", static_cast<double>(span(Kind::kTarget).instants),
       "count");
    const Histogram gaps = tracer.MigrateGaps();
    pl("reorg.migrate_gap.p50_us", us(gaps, 0.50), "us", gaps.count());
    pl("reorg.migrate_gap.p99_us", us(gaps, 0.99), "us", gaps.count());
    const ReorgTotals& rb = b.reorg;
    const ReorgTotals& re = e.reorg;
    const double migrated = static_cast<double>(re.migrated - rb.migrated);
    const double deferrals = static_cast<double>(re.deferrals - rb.deferrals);
    const double retries = static_cast<double>(re.retries - rb.retries);
    const double aborts = static_cast<double>(re.aborts - rb.aborts);
    pl("reorg_objs_per_s", Ratio(migrated, traced.seconds), "obj/s");
    pl("reorg.lock_timeouts",
       static_cast<double>(re.lock_timeouts - rb.lock_timeouts), "count");
    pl("reorg.find_exact_retries", retries, "count");
    pl("reorg.trt_drained",
       static_cast<double>(re.trt_drained - rb.trt_drained), "count");
    pl("reorg.trt_peak", static_cast<double>(re.trt_peak), "count");
    pl("reorg.claim_deferrals", deferrals, "count");
    pl("reorg.claim_wakeups", static_cast<double>(re.wakeups - rb.wakeups),
       "count");
    pl("reorg.backoff_ms", static_cast<double>(re.backoff_ms - rb.backoff_ms),
       "ms");
    pl("reorg.aborts", aborts, "count");
    pl("reorg.useful_ratio",
       Ratio(migrated, migrated + deferrals + retries + aborts), "ratio");
    pl("epoch.retire_drains",
       static_cast<double>(e.retire_drains - b.retire_drains), "count");

    const double requests = static_cast<double>(e.requests - b.requests);
    pl("net.rpcs_per_txn", Ratio(requests, commits), "count");
    pl("net.requests_served", requests, "count");
    pl("net.sessions_dropped",
       static_cast<double>(e.sessions_dropped - b.sessions_dropped), "count");
    pl("net.frames_rejected",
       static_cast<double>(e.frames_rejected - b.frames_rejected), "count");

    pl("setup.open_s", Median(open_s), "s", open_s.size());
    pl("setup.build_s", Median(build_s), "s", build_s.size());
    pl("setup.server_s", Median(server_s), "s", server_s.size());
    pl("txn_fail_frac",
       Ratio(static_cast<double>(tu.failed_attempts),
             static_cast<double>(tu.attempts)),
       "ratio", tu.attempts);
    const double traced_tps = Ratio(commits, traced.seconds);
    pl("trace.overhead_frac", tps > 0 ? 1.0 - traced_tps / tps : 0.0, "ratio");
    pl("trace.events_dropped", static_cast<double>(tracer.dropped()), "count");

    if (spec->ira_workers == 0) {
      claim(span(Kind::kWrite).hist.count() == 0, "write spans recorded");
    } else if (!spec->served) {
      claim(span(Kind::kWrite).hist.count() > 0, "no write span recorded");
    }
    if (!args.trace_out.empty() &&
        !tracer.WriteChromeTrace(args.trace_out, trace_origin)) {
      r.problems.push_back("could not write trace file " + args.trace_out);
    }
  }

  char desc[1024];
  std::snprintf(
      desc, sizeof(desc),
      "{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%.3f,\"trace\":%s,"
      "\"source\":\"%s\",\"nproc\":%u,\"cpu_model\":\"%s\","
      "\"modeled_force_us\":%lld,\"group_commit\":true,"
      "\"durability\":\"%s\",\"fsync_mode\":\"%s\",\"data_backing\":\"%s\","
      "\"pool_frames\":%llu,\"data_pages_touched\":%llu,"
      "\"lock_timeout_ms\":%lld,\"deadlock_policy\":\"waits-for detection\","
      "\"clients\":%u,\"ira_workers\":%u,\"server_workers\":%u,"
      "\"objects\":%llu,\"setups\":%zu,\"reorg_passes\":%llu,"
      "\"idle_spinners\":%u}",
      spec->name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? "true" : "false", args.source_id.c_str(),
      std::thread::hardware_concurrency(), CpuModel().c_str(),
      static_cast<long long>(brahma::kCommitForceLatency.count()),
      spec->served ? "disk" : "in-memory",
      spec->served ? "noop" : "none (in-memory log)",
      spec->served ? "disk" : "memory",
      static_cast<unsigned long long>(spec->served ? opts.buffer_pool_frames
                                                   : 0),
      static_cast<unsigned long long>(pages_touched),
      static_cast<long long>(opts.lock_timeout.count()), kClients,
      spec->ira_workers, spec->served ? kServerWorkers : 0,
      static_cast<unsigned long long>(built_live), total_s.size(),
      static_cast<unsigned long long>(plain.passes + traced.passes),
      spinners.running());
  r.descriptor_json = desc;

  inst.Reset();
  if (spec->served) brahma::RemoveDirRecursive(args.workdir);
  r.correct = r.problems.empty();
  return r;
}

}  // namespace perfbench
