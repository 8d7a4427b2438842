// Networked server under a multi-process client swarm (DESIGN.md §14):
// user-facing tail latency before / during / after an on-line
// reorganization, with the ReorgThrottle off vs on.
//
// The bench hosts the Database + NetServer in-process, forks
// `procs` swarm_client processes (examples/swarm_client.cpp) that
// together ramp `connections` concurrent connections of closed-loop
// traverse transactions, then runs a parallel IRA against partition 1
// while the swarm hammers the same objects. Each child logs every
// committed user transaction as `<CLOCK_REALTIME us> <latency us>`;
// the parent stamps the reorganization window against the same clock
// and splits the merged samples into the three phases.
//
// Round 1 runs unthrottled to expose the damage and calibrate an SLO
// between the quiet p99 and the unthrottled during-reorg p99. Round 2
// reruns with a ReorgThrottle holding that SLO wired into both the
// server (latency feed) and the IRA (worker cap): the throttle must
// shed migration workers until the during-reorg p99 drops back inside
// the SLO that the unthrottled run exceeded.
//
// One extra victim child is kill -9'd mid-reorganization: the server
// must keep serving every other connection (no process death, no
// leaked sessions) — the swarm-scale version of the SIGPIPE
// regression test.
//
// Emits BENCH_net_server.json in the working directory.

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/histogram.h"
#include "core/reorg_throttle.h"
#include "net/client.h"
#include "net/server.h"

namespace brahma {
namespace bench {
namespace {

int64_t RealUs() {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return ts.tv_sec * 1000000LL + ts.tv_nsec / 1000;
}

std::string FindSwarmClient() {
  const char* env = std::getenv("BRAHMA_SWARM_CLIENT");
  if (env != nullptr && ::access(env, X_OK) == 0) return env;
  const char* candidates[] = {
      "./examples/swarm_client", "../examples/swarm_client",
      "examples/swarm_client", "./swarm_client",
      "./build/examples/swarm_client"};
  for (const char* c : candidates) {
    if (::access(c, X_OK) == 0) return c;
  }
  return "";
}

struct SwarmConfig {
  uint32_t connections = 1000;
  uint32_t procs = 8;
  double before_s = 3.0;   // quiet window measured ahead of the reorg
  double after_s = 2.0;    // quiet window measured after it
  double settle_s = 3.0;   // connection ramp excluded from "before"
  uint32_t steps = 8;
  uint32_t update_permille = 500;
  uint32_t ref_mut_permille = 200;
  // Mean exponential think time per connection — open-loop-ish load.
  // Two constraints: a saturated closed loop turns p99 into pure
  // queueing noise (drowning the reorg signal the SLO governor needs),
  // while an offered load far below the *during-reorg* capacity never
  // gets hurt by the reorganizer at all. 50 ms puts the swarm at ~75%
  // of quiet capacity and ~120% of unthrottled during-reorg capacity:
  // quiet tails stay low, and an unthrottled reorganizer makes queues
  // genuinely explode.
  double think_ms = 50.0;
  uint32_t server_workers = 4;
  // More migration threads than cores: the damage the throttle exists to
  // contain is CPU steal + lock contention from an over-eager
  // reorganizer, which a worker count above the core count guarantees.
  uint32_t ira_workers = 8;
  // One copy-out pass over a paper-sized partition is only ~300 ms of
  // migration here — shorter than a meaningful latency-control horizon —
  // so the bench ping-pongs the partition between its home and the spare
  // and measures the whole multi-pass window as "during".
  uint32_t reorg_passes = 6;
};

struct PhaseStats {
  Histogram latency_ms;
  double duration_s = 0;
  double tps() const {
    return duration_s > 0
               ? static_cast<double>(latency_ms.count()) / duration_s
               : 0;
  }
};

struct RoundResult {
  PhaseStats before, during, after;
  double reorg_ms = 0;
  bool reorg_ok = false;
  uint64_t objects_migrated = 0;
  uint64_t sheds = 0;
  uint64_t boosts = 0;
  uint32_t final_cap = 0;
  uint64_t sessions_accepted = 0;
  uint64_t sessions_after_kill = 0;
  uint64_t requests_served = 0;
  uint64_t sessions_dropped = 0;
  bool victim_killed = false;
  bool server_alive_after = false;
};

pid_t SpawnChild(const std::string& exe, uint16_t port,
                 const SwarmConfig& cfg, uint32_t conns, uint64_t seed,
                 uint32_t partitions, const std::string& out) {
  pid_t pid = fork();
  if (pid != 0) return pid;
  // Children outlive any single phase; the parent stops them with
  // SIGTERM (graceful flush) or SIGKILL (the victim).
  char port_s[16], conns_s[16], dur_s[16], steps_s[16], upd_s[16],
      ref_s[16], seed_s[32], parts_s[16], think_s[24];
  snprintf(port_s, sizeof(port_s), "%u", port);
  snprintf(conns_s, sizeof(conns_s), "%u", conns);
  snprintf(dur_s, sizeof(dur_s), "%d", 3600);
  snprintf(steps_s, sizeof(steps_s), "%u", cfg.steps);
  snprintf(upd_s, sizeof(upd_s), "%u", cfg.update_permille);
  snprintf(ref_s, sizeof(ref_s), "%u", cfg.ref_mut_permille);
  snprintf(seed_s, sizeof(seed_s), "%llu",
           static_cast<unsigned long long>(seed));
  snprintf(parts_s, sizeof(parts_s), "%u", partitions);
  snprintf(think_s, sizeof(think_s), "%.3f", cfg.think_ms);
  execl(exe.c_str(), exe.c_str(), "--port", port_s, "--connections",
        conns_s, "--duration-s", dur_s, "--steps", steps_s,
        "--update-permille", upd_s, "--ref-mut-permille", ref_s, "--seed",
        seed_s, "--partitions", parts_s, "--think-ms", think_s, "--out",
        out.c_str(), static_cast<char*>(nullptr));
  perror("execl swarm_client");
  _exit(127);
}

void LoadSamples(const std::string& path, int64_t lo_us, int64_t hi_us,
                 PhaseStats* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return;
  char line[128];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == '#') continue;
    long long t_us = 0, lat_us = 0;
    if (std::sscanf(line, "%lld %lld", &t_us, &lat_us) != 2) continue;
    if (t_us >= lo_us && t_us < hi_us) {
      out->latency_ms.Add(static_cast<double>(lat_us) / 1000.0);
    }
  }
  std::fclose(f);
}

// One full swarm-vs-reorg round. slo_ms <= 0 runs unthrottled.
RoundResult RunRound(const SwarmConfig& cfg, const WorkloadParams& base,
                     double slo_ms, const std::string& tag) {
  RoundResult out;

  DatabaseOptions dopt;
  dopt.num_data_partitions = base.num_partitions + 1;
  dopt.partition_capacity = std::max<uint64_t>(
      8ull << 20, base.objects_per_partition * 512ull);
  dopt.lock_timeout = std::chrono::milliseconds(200);
  // Frequent small WAL truncations: at the swarm's record rate a 500k
  // threshold compacts ~once per run in a single ~200 ms stall that
  // lands as an unthrottleable spike in whatever phase it hits.
  dopt.log_truncate_threshold = 100000;
  Database db(dopt);
  BuiltGraph graph;
  GraphBuilder builder(&db);
  Status s = builder.Build(base, &graph);
  if (!s.ok()) {
    std::fprintf(stderr, "graph build failed: %s\n", s.ToString().c_str());
    NoteFailure();
    return out;
  }

  ReorgThrottleOptions topt;
  topt.slo_p99_ms = slo_ms;
  // Scale the measurement to the sample rate: at ~15k user ops/s a
  // 64-sample eval cadence fires every ~4 ms — faster than a cap change
  // can even reach the window — and the controller thrashes. 8k/1k
  // gives a ~0.5 s window and ~70 ms between control decisions.
  topt.window = 8192;
  topt.eval_every = 1024;
  // Regulate below the SLO with slow boosts: the phase-aggregate p99
  // must land under the limit, not ride it, and each premature boost
  // sprays a latency burst into the measurement.
  topt.setpoint_fraction = 0.6;
  topt.boost_hold = 4;
  // Slow-start at one worker: the default optimistic attach runs the
  // pipeline at full width until the first sheds land, which costs one
  // full-damage burst inside the measured window.
  topt.initial_workers = 1;
  // Pace mode: on one CPU even a single migration worker keeps user p99
  // pinned above any SLO between the quiet and damaged tails, so the
  // governor must be allowed to park the whole pipeline and duty-cycle.
  topt.min_workers = 0;
  ReorgThrottle throttle(topt);
  const bool throttled = slo_ms > 0;

  net::ServerOptions sopt;
  sopt.num_workers = cfg.server_workers;
  sopt.graph = &graph;
  sopt.workload = base;
  sopt.throttle = throttled ? &throttle : nullptr;
  net::NetServer server(&db, sopt);
  s = server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    NoteFailure();
    return out;
  }

  const std::string exe = FindSwarmClient();
  if (exe.empty()) {
    std::fprintf(stderr,
                 "swarm_client binary not found (set BRAHMA_SWARM_CLIENT)\n");
    NoteFailure();
    server.Stop();
    return out;
  }

  // Fork the swarm: `procs` measured children splitting the connection
  // count, plus one victim to be kill -9'd mid-reorg.
  std::vector<pid_t> children;
  std::vector<std::string> sample_files;
  const uint32_t per_proc = std::max(1u, cfg.connections / cfg.procs);
  for (uint32_t p = 0; p < cfg.procs; ++p) {
    std::string outfile = "swarm_" + tag + "_" + std::to_string(p) +
                          ".samples";
    sample_files.push_back(outfile);
    children.push_back(SpawnChild(exe, server.port(), cfg, per_proc,
                                  10007 * (p + 1), base.num_partitions,
                                  outfile));
  }
  const std::string victim_file = "swarm_" + tag + "_victim.samples";
  pid_t victim = SpawnChild(exe, server.port(), cfg,
                            std::max(4u, per_proc / 4), 777,
                            base.num_partitions, victim_file);

  // Quiet window (connection ramp excluded from measurement).
  std::this_thread::sleep_for(
      std::chrono::duration<double>(cfg.settle_s + cfg.before_s));

  // Reorganize partition 1 into the spare while the swarm runs.
  const int64_t reorg_start_us = RealUs();
  IraOptions iopt;
  iopt.num_workers = cfg.ira_workers;
  iopt.lock_timeout = std::chrono::milliseconds(200);
  if (throttled) iopt.throttle = &throttle;
  IraReorganizer ira(db.reorg_context());
  Stopwatch sw;
  std::thread killer([&] {
    // kill -9 the victim child mid-reorganization: its connections drop
    // with unread server replies in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    kill(victim, SIGKILL);
  });
  const PartitionId home = 1;
  const PartitionId spare =
      static_cast<PartitionId>(base.num_partitions + 1);
  Status reorg_status;
  for (uint32_t pass = 0; pass < cfg.reorg_passes && reorg_status.ok();
       ++pass) {
    const bool out_pass = (pass % 2 == 0);
    CopyOutPlanner planner(out_pass ? spare : home);
    ReorgStats pass_stats;
    reorg_status =
        ira.Run(out_pass ? home : spare, &planner, iopt, &pass_stats);
    out.objects_migrated += pass_stats.objects_migrated;
  }
  killer.join();
  out.reorg_ms = sw.ElapsedMillis();
  const int64_t reorg_end_us = RealUs();
  out.reorg_ok = reorg_status.ok();
  if (!reorg_status.ok()) {
    std::fprintf(stderr, "reorg failed: %s\n",
                 reorg_status.ToString().c_str());
    NoteFailure();
  }
  out.victim_killed = true;
  int victim_status = 0;
  waitpid(victim, &victim_status, 0);

  // Quiet tail, then stop the measured children gracefully.
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.after_s));
  const int64_t end_us = RealUs();
  for (pid_t pid : children) kill(pid, SIGTERM);
  for (pid_t pid : children) {
    int st = 0;
    waitpid(pid, &st, 0);
    if (!WIFEXITED(st) || WEXITSTATUS(st) != 0) {
      std::fprintf(stderr, "swarm child %d exited abnormally\n",
                   static_cast<int>(pid));
      NoteFailure();
    }
  }

  // The server must have outlived the kill -9: still answering, no
  // leaked sessions beyond the (now gone) swarm's.
  {
    net::NetClient probe;
    out.server_alive_after =
        probe.Connect("127.0.0.1", server.port()).ok() && probe.Ping().ok();
  }
  out.sessions_accepted = server.sessions_accepted();
  out.sessions_after_kill = server.active_sessions();
  out.requests_served = server.requests_served();
  out.sessions_dropped = server.sessions_dropped();
  out.sheds = throttle.sheds();
  out.boosts = throttle.boosts();
  out.final_cap = throttled ? throttle.current_cap() : 0;
  server.Stop();

  const int64_t before_lo = reorg_start_us -
      static_cast<int64_t>(cfg.before_s * 1e6);
  out.before.duration_s = cfg.before_s;
  out.during.duration_s = (reorg_end_us - reorg_start_us) / 1e6;
  out.after.duration_s = (end_us - reorg_end_us) / 1e6;
  const bool keep_samples = std::getenv("BRAHMA_SWARM_KEEP") != nullptr;
  if (keep_samples) {
    std::FILE* mf = std::fopen(("swarm_" + tag + ".marks").c_str(), "w");
    if (mf != nullptr) {
      std::fprintf(mf, "reorg_start_us %lld\nreorg_end_us %lld\n",
                   static_cast<long long>(reorg_start_us),
                   static_cast<long long>(reorg_end_us));
      std::fclose(mf);
    }
  }
  for (const std::string& f : sample_files) {
    LoadSamples(f, before_lo, reorg_start_us, &out.before);
    LoadSamples(f, reorg_start_us, reorg_end_us, &out.during);
    LoadSamples(f, reorg_end_us, end_us, &out.after);
    if (!keep_samples) std::remove(f.c_str());
  }
  if (!keep_samples) std::remove(victim_file.c_str());
  return out;
}

void AddPhase(JsonBenchWriter* json, const char* name,
              const PhaseStats& p) {
  std::string prefix(name);
  json->Add(prefix + "_tps", p.tps());
  json->Add(prefix + "_p50_ms", p.latency_ms.Percentile(0.50));
  json->Add(prefix + "_p99_ms", p.latency_ms.Percentile(0.99));
  json->Add(prefix + "_p999_ms", p.latency_ms.Percentile(0.999));
  json->Add(prefix + "_txns", static_cast<double>(p.latency_ms.count()));
}

void AddRow(JsonBenchWriter* json, const SwarmConfig& cfg, int throttled,
            double slo_ms, const RoundResult& r) {
  json->BeginRow();
  json->Add("throttle", throttled);
  json->Add("connections", cfg.connections);
  json->Add("procs", cfg.procs);
  json->Add("server_workers", cfg.server_workers);
  json->Add("ira_workers", cfg.ira_workers);
  json->Add("slo_ms", slo_ms);
  AddPhase(json, "before", r.before);
  AddPhase(json, "during", r.during);
  AddPhase(json, "after", r.after);
  json->Add("reorg_ms", r.reorg_ms);
  json->Add("reorg_ok", r.reorg_ok ? 1 : 0);
  json->Add("objects_migrated", static_cast<double>(r.objects_migrated));
  json->Add("throttle_sheds", static_cast<double>(r.sheds));
  json->Add("throttle_boosts", static_cast<double>(r.boosts));
  json->Add("throttle_final_cap", r.final_cap);
  json->Add("sessions_accepted", static_cast<double>(r.sessions_accepted));
  json->Add("requests_served", static_cast<double>(r.requests_served));
  json->Add("sessions_dropped", static_cast<double>(r.sessions_dropped));
  json->Add("victim_killed", r.victim_killed ? 1 : 0);
  json->Add("server_alive_after", r.server_alive_after ? 1 : 0);
}

void Run() {
  SwarmConfig cfg;
  WorkloadParams base;
  base.num_partitions = 6;
  // The paper's NUMOBJS (4080). Duration comes from cfg.reorg_passes
  // ping-ponging this partition, not from inflating it: at 5x the size
  // under this connection load the analysis/migration phase degrades
  // pathologically on one CPU (see ROADMAP follow-on).
  base.objects_per_partition = 85 * 48;
  if (SmokeMode()) {
    cfg.connections = 64;
    cfg.procs = 2;
    cfg.before_s = 1.0;
    cfg.after_s = 1.0;
    cfg.settle_s = 0.5;
    cfg.reorg_passes = 2;
    base.num_partitions = 3;
    base.objects_per_partition = 85 * 4;
  } else if (FullMode()) {
    cfg.connections = 2000;
    cfg.procs = 8;
    cfg.before_s = 4.0;
    cfg.after_s = 4.0;
    cfg.reorg_passes = 8;
    cfg.think_ms = 100.0;  // same offered-load ratio at twice the swarm
  }

  std::printf("# Net server swarm — user tail latency before/during/after "
              "IRA, throttle off vs on (%u connections, %u procs)\n",
              cfg.connections, cfg.procs);
  PrintSeriesHeader("throttle",
                    {"before_p99_ms", "during_p99_ms", "after_p99_ms",
                     "during_tps", "reorg_ms", "sheds"});
  JsonBenchWriter json("net_server");

  // Round 1: unthrottled — expose the during-reorg damage and calibrate
  // the SLO between the quiet and damaged p99s, so it is a target the
  // unthrottled run provably exceeds and the quiet system satisfies.
  RoundResult off = RunRound(cfg, base, /*slo_ms=*/0, "off");
  const double quiet_p99 = off.before.latency_ms.Percentile(0.99);
  const double damaged_p99 = off.during.latency_ms.Percentile(0.99);
  double slo_ms = std::max(quiet_p99 * 1.3,
                           quiet_p99 + (damaged_p99 - quiet_p99) * 0.6);
  AddRow(&json, cfg, 0, slo_ms, off);
  PrintSeriesRow(0, {quiet_p99, damaged_p99,
                     off.after.latency_ms.Percentile(0.99),
                     off.during.tps(), off.reorg_ms, 0});

  // Round 2: same swarm, same reorg, throttle on with the calibrated
  // SLO feeding IraOptions::throttle.
  RoundResult on = RunRound(cfg, base, slo_ms, "on");
  AddRow(&json, cfg, 1, slo_ms, on);
  PrintSeriesRow(1, {on.before.latency_ms.Percentile(0.99),
                     on.during.latency_ms.Percentile(0.99),
                     on.after.latency_ms.Percentile(0.99),
                     on.during.tps(), on.reorg_ms,
                     static_cast<double>(on.sheds)});

  std::printf("# slo %.2f ms: unthrottled during-p99 %.2f ms, throttled "
              "%.2f ms (sheds %llu, final cap %u)\n",
              slo_ms, damaged_p99,
              on.during.latency_ms.Percentile(0.99),
              static_cast<unsigned long long>(on.sheds), on.final_cap);

  if (!off.server_alive_after || !on.server_alive_after) {
    std::fprintf(stderr, "server did not survive the swarm/kill -9\n");
    NoteFailure();
  }
  if (!json.WriteFile("BENCH_net_server.json")) {
    std::fprintf(stderr, "failed to write BENCH_net_server.json\n");
    NoteFailure();
  }
}

}  // namespace
}  // namespace bench
}  // namespace brahma

int main() {
  brahma::bench::Run();
  // Nonzero when the reorg failed, a child crashed, the server died, or
  // the JSON artifact could not be written: CI must fail the step.
  return brahma::bench::ExitCode();
}
