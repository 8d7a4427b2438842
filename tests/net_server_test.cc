#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "core/ira.h"
#include "core/migration_pipe.h"
#include "core/relocation.h"
#include "core/reorg_throttle.h"
#include "net/client.h"
#include "net/server.h"
#include "tests/test_util.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace {

using net::NetClient;
using net::NetServer;
using net::ServerOptions;
using net::ServerStatsReply;
using net::TraverseRequest;

// Database + built Section 5.2 graph + running server, torn down in
// reverse order.
struct ServerHarness {
  // commit_force is the modeled commit force the server runs with; the
  // graph is built before it applies.
  explicit ServerHarness(uint32_t data_partitions = 4,
                         uint32_t graph_partitions = 2,
                         ReorgThrottle* throttle = nullptr,
                         std::chrono::microseconds commit_force = {})
      : db(testing::SmallDbOptions(data_partitions)) {
    params = testing::SmallWorkload(graph_partitions);
    GraphBuilder builder(&db);
    Status s = builder.Build(params, &graph);
    EXPECT_TRUE(s.ok()) << s.ToString();
    db.log().set_flush_latency(commit_force);
    ServerOptions opts;
    opts.num_workers = 2;
    opts.graph = &graph;
    opts.workload = params;
    opts.throttle = throttle;
    server = std::make_unique<NetServer>(&db, opts);
    s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ~ServerHarness() { server->Stop(); }

  NetClient MakeClient() {
    NetClient c;
    Status s = c.Connect("127.0.0.1", server->port());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return c;
  }

  Database db;
  WorkloadParams params;
  BuiltGraph graph;
  std::unique_ptr<NetServer> server;
};

// Sends an RST on close instead of a FIN — the socket-level equivalent
// of the peer process being killed -9 mid-exchange. The fd is closed
// once, by the client: the server's accepted sockets live in this
// process too, so a second close() could hit one that reused the number.
void HardClose(NetClient* c) {
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  setsockopt(c->fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  c->Close();
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST(NetServerTest, StartStopPingStats) {
  ServerHarness h;
  EXPECT_NE(h.server->port(), 0);
  NetClient c = h.MakeClient();
  EXPECT_TRUE(c.Ping().ok());

  ServerStatsReply stats;
  ASSERT_TRUE(c.Stats(&stats).ok());
  EXPECT_EQ(stats.sessions_accepted, 1u);
  EXPECT_EQ(stats.active_sessions, 1u);
  EXPECT_GE(stats.requests_served, 1u);
  c.Close();
}

TEST(NetServerTest, TransactionLifecycle) {
  ServerHarness h;
  NetClient c = h.MakeClient();

  // Commit/abort without a transaction are client errors.
  EXPECT_TRUE(c.Commit().IsInvalidArgument());
  EXPECT_TRUE(c.Abort().IsInvalidArgument());

  uint64_t txn_id = 0;
  ASSERT_TRUE(c.Begin(&txn_id).ok());
  EXPECT_NE(txn_id, 0u);
  // One open transaction per session.
  EXPECT_TRUE(c.Begin(nullptr).IsInvalidArgument());

  const ObjectId root = h.graph.cluster_roots[0][0];
  std::vector<uint8_t> payload(h.params.data_size, 0x5A);
  ASSERT_TRUE(c.Update(root, payload).ok());
  ASSERT_TRUE(c.Commit().ok());

  // The committed payload is visible to a fresh auto-commit read.
  std::vector<ObjectId> refs;
  std::vector<uint8_t> data;
  ASSERT_TRUE(c.Read(root, &refs, &data).ok());
  EXPECT_EQ(data, payload);
  EXPECT_FALSE(refs.empty());  // a cluster root has children

  // Abort path: the overwrite must not stick.
  ASSERT_TRUE(c.Begin(nullptr).ok());
  std::vector<uint8_t> other(h.params.data_size, 0xA5);
  ASSERT_TRUE(c.Update(root, other).ok());
  ASSERT_TRUE(c.Abort().ok());
  ASSERT_TRUE(c.Read(root, nullptr, &data).ok());
  EXPECT_EQ(data, payload);
  c.Close();
}

TEST(NetServerTest, ReadOnlySessionsSkipTheCommitForce) {
  // Under a 50 ms modeled force, read-only work never waits for one: a
  // Begin/Read/Commit session and an auto-commit Read both log nothing.
  constexpr auto kForce = std::chrono::milliseconds(50);
  ServerHarness h(4, 2, nullptr, kForce);
  NetClient c = h.MakeClient();
  const ObjectId root = h.graph.cluster_roots[0][0];
  const Lsn last = h.db.log().last_lsn();
  std::vector<ObjectId> refs;
  std::vector<uint8_t> data;

  auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(c.Begin(nullptr).ok());
  ASSERT_TRUE(c.Read(root, &refs, &data).ok());
  ASSERT_TRUE(c.Commit().ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, kForce);

  t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(c.Read(root, &refs, &data).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, kForce);
  EXPECT_EQ(h.db.log().last_lsn(), last);

  // A served write still pays the force.
  t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(c.Begin(nullptr).ok());
  ASSERT_TRUE(c.Update(root, data).ok());
  ASSERT_TRUE(c.Commit().ok());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, kForce);
  c.Close();
}

TEST(NetServerTest, ReadOfBogusOidFails) {
  ServerHarness h;
  NetClient c = h.MakeClient();
  Status st = c.Read(ObjectId::FromRaw(0x0001FFFFFFFFF000ull), nullptr,
                     nullptr);
  EXPECT_FALSE(st.ok());
  // The error is returned on the wire; the session stays usable.
  EXPECT_TRUE(c.Ping().ok());
  c.Close();
}

TEST(NetServerTest, ListRootsAndTraverse) {
  ServerHarness h;
  NetClient c = h.MakeClient();

  std::vector<ObjectId> roots;
  ASSERT_TRUE(c.ListRoots(1, &roots).ok());
  EXPECT_EQ(roots.size(), h.params.clusters_per_partition());
  EXPECT_EQ(roots, h.graph.cluster_roots[0]);

  EXPECT_TRUE(c.ListRoots(0, nullptr).IsInvalidArgument());
  EXPECT_TRUE(c.ListRoots(99, nullptr).IsInvalidArgument());

  TraverseRequest req;
  req.home_partition = 1;
  req.steps = 8;
  req.update_permille = 500;
  req.ref_mutation_permille = 200;
  req.seed = 17;
  // Retry-until-commit, like a real client: an uncontended server may
  // still abort a walk on a stale reference race with... nothing here,
  // so expect success within a few attempts.
  Status st;
  for (int attempt = 0; attempt < 10; ++attempt) {
    st = c.Traverse(req);
    if (st.ok()) break;
    ++req.seed;
  }
  EXPECT_TRUE(st.ok()) << st.ToString();

  req.home_partition = 99;
  EXPECT_TRUE(c.Traverse(req).IsInvalidArgument());
  c.Close();
}

// The SIGPIPE regression (satellite 1): a client that vanishes with an
// RST while the server is mid-conversation must cost one session, not
// the process. Before SIG_IGN/MSG_NOSIGNAL, the first send() into the
// dead socket would raise SIGPIPE and kill the server.
TEST(NetServerTest, ClientHardCloseMidExchangeServerSurvives) {
  ServerHarness h;
  NetClient survivor = h.MakeClient();

  for (int round = 0; round < 8; ++round) {
    NetClient victim = h.MakeClient();
    // Fire a burst of requests and die without reading any replies: the
    // server's reply sends land on a reset connection.
    for (int i = 0; i < 16; ++i) {
      std::vector<uint8_t> frame;
      net::AppendFrame(&frame, static_cast<uint8_t>(net::Op::kPing),
                       nullptr, 0);
      ASSERT_EQ(send(victim.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(frame.size()));
    }
    HardClose(&victim);
  }

  // The surviving session still gets answers, and the dead sessions are
  // reaped (no leaks).
  EXPECT_TRUE(survivor.Ping().ok());
  EXPECT_TRUE(WaitFor([&] { return h.server->active_sessions() == 1; }))
      << "leaked sessions: " << h.server->active_sessions();
  survivor.Close();
}

// A poisoned byte stream (garbage that fails CRC) drops that session
// only.
TEST(NetServerTest, GarbageBytesDropSessionOnly) {
  ServerHarness h;
  NetClient good = h.MakeClient();
  NetClient bad = h.MakeClient();

  uint8_t junk[64];
  for (size_t i = 0; i < sizeof(junk); ++i) junk[i] = static_cast<uint8_t>(i);
  ASSERT_GT(send(bad.fd(), junk, sizeof(junk), MSG_NOSIGNAL), 0);

  EXPECT_TRUE(WaitFor([&] { return h.server->frames_rejected() > 0; }));
  EXPECT_TRUE(WaitFor([&] { return h.server->active_sessions() == 1; }));
  EXPECT_TRUE(good.Ping().ok());
  good.Close();
  bad.Close();
}

// A dead client's open transaction must be aborted — its exclusive locks
// released — or it would wedge every later writer of those objects.
TEST(NetServerTest, DisconnectReleasesLocks) {
  ServerHarness h;
  const ObjectId contested = h.graph.cluster_roots[0][0];
  std::vector<uint8_t> payload(h.params.data_size, 0x11);

  NetClient locker = h.MakeClient();
  ASSERT_TRUE(locker.Begin(nullptr).ok());
  ASSERT_TRUE(locker.Update(contested, payload).ok());  // X lock held
  HardClose(&locker);

  NetClient writer = h.MakeClient();
  // The abort happens when a session thread receives the RST event and
  // closes the session; retry across lock timeouts until then.
  Status st;
  ASSERT_TRUE(WaitFor([&] {
    st = writer.Begin(nullptr);
    if (!st.ok()) return false;
    st = writer.Update(contested, payload);
    Status fin = st.ok() ? writer.Commit() : writer.Abort();
    return st.ok() && fin.ok();
  })) << st.ToString();
  writer.Close();
}

// A session blocked in a lock wait holds one session thread, not the
// server: with two threads, a third session is answered while the
// second waits on the first's exclusive lock.
TEST(NetServerTest, LockWaitLeavesOtherSessionsServed) {
  ServerHarness h;  // num_workers = 2, 200 ms lock timeout
  const ObjectId contested = h.graph.cluster_roots[0][0];
  std::vector<uint8_t> payload(h.params.data_size, 0x22);
  NetClient holder = h.MakeClient();
  NetClient waiter = h.MakeClient();
  NetClient pinger = h.MakeClient();
  ASSERT_TRUE(pinger.Ping().ok());
  ASSERT_TRUE(holder.Begin(nullptr).ok());
  ASSERT_TRUE(holder.Update(contested, payload).ok());  // X lock held
  ASSERT_TRUE(waiter.Begin(nullptr).ok());

  std::atomic<bool> waiter_done{false};
  Status waited;
  std::thread t([&] {
    waited = waiter.Update(contested, payload);
    waiter_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(pinger.Ping().ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Answered while the waiter still waits, well inside its timeout.
  EXPECT_FALSE(waiter_done.load());
  EXPECT_LT(elapsed, std::chrono::milliseconds(100));
  t.join();
  EXPECT_TRUE(waited.IsTimedOut() || waited.IsDeadlockVictim())
      << waited.ToString();
  EXPECT_TRUE(waiter.Abort().ok());
  EXPECT_TRUE(holder.Commit().ok());
  holder.Close();
  waiter.Close();
  pinger.Close();
}

// A client that pipelines requests and reads no reply fills its reply
// path (server send buffer, its own receive buffer); the server must
// then stop reading that session instead of buffering its replies
// without bound, keep serving other sessions, and, once the client
// reads, deliver every reply in order.
TEST(NetServerTest, StalledReaderIsBackpressuredAndGetsEveryReplyInOrder) {
  ServerHarness h;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  // Small client buffers, set before connect, keep the bytes in flight
  // (and the test) small.
  const int small = 16 * 1024;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(h.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Every 64th request is a Stats, whose requests_served must rise
  // strictly from reply to reply if replies come back in order. Both
  // request kinds have empty payloads, so every frame is
  // kFrameHeaderSize bytes.
  auto op_of = [](uint64_t i) {
    return static_cast<uint8_t>(i % 64 == 63 ? net::Op::kStats
                                             : net::Op::kPing);
  };
  std::vector<uint8_t> chunk;
  constexpr uint64_t kChunkFrames = 4096;  // a multiple of 64
  for (uint64_t i = 0; i < kChunkFrames; ++i) {
    net::AppendFrame(&chunk, op_of(i), nullptr, 0);
  }
  ASSERT_EQ(chunk.size(), kChunkFrames * net::kFrameHeaderSize);

  // 96 chunks: 3.75 MiB of requests whose replies (5.9 MiB) overfill
  // the reply path even at the largest default TCP send buffer (4 MiB).
  // Send until everything is out or the socket stays full for 300 ms,
  // which happens once the server stops reading.
  constexpr uint64_t kChunks = 96;
  const uint64_t frames = kChunks * kChunkFrames;
  const uint64_t total = frames * net::kFrameHeaderSize;
  uint64_t sent = 0;
  while (sent < total) {
    const size_t at = sent % chunk.size();
    const ssize_t n = send(fd, chunk.data() + at, chunk.size() - at,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<uint64_t>(n);
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
    pollfd p{fd, POLLOUT, 0};
    if (poll(&p, 1, 300) == 0) break;
  }
  // Another session is served while the first is stalled.
  NetClient other = h.MakeClient();
  EXPECT_TRUE(other.Ping().ok());
  other.Close();

  // Send the rest while reading every reply.
  std::vector<uint8_t> in;
  uint64_t replies = 0;
  uint64_t last_served = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (replies < frames && std::chrono::steady_clock::now() < deadline) {
    pollfd p{fd, static_cast<short>(POLLIN | (sent < total ? POLLOUT : 0)),
             0};
    poll(&p, 1, 100);
    if (sent < total) {
      const size_t at = sent % chunk.size();
      const ssize_t n = send(fd, chunk.data() + at, chunk.size() - at,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) sent += static_cast<uint64_t>(n);
    }
    uint8_t buf[64 * 1024];
    const ssize_t n = recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n <= 0) {
      ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          << "connection lost after " << replies << " replies";
      continue;
    }
    in.insert(in.end(), buf, buf + n);
    size_t off = 0;
    for (;;) {
      uint8_t op;
      const uint8_t* payload;
      uint32_t len;
      size_t frame_len;
      const net::FrameResult r = net::ParseFrame(
          in.data() + off, in.size() - off, &op, &payload, &len, &frame_len);
      if (r == net::FrameResult::kNeedMore) break;
      ASSERT_EQ(r, net::FrameResult::kFrame);
      ASSERT_EQ(op, op_of(replies) | net::kReplyBit) << "reply " << replies;
      net::PayloadReader pr(payload, len);
      Status st;
      ASSERT_TRUE(net::DecodeStatus(&pr, &st));
      ASSERT_TRUE(st.ok()) << st.ToString();
      if (op_of(replies) == static_cast<uint8_t>(net::Op::kStats)) {
        ServerStatsReply stats;
        ASSERT_TRUE(net::DecodeServerStats(&pr, &stats));
        EXPECT_GT(stats.requests_served, last_served);
        last_served = stats.requests_served;
      }
      ++replies;
      off += frame_len;
    }
    in.erase(in.begin(), in.begin() + static_cast<long>(off));
  }
  EXPECT_EQ(replies, frames);
  EXPECT_GT(last_served, 0u);
  close(fd);
}

// Stop while a session waits on a lock: Stop returns (the waiting thread
// leaves at its lock timeout), and every open transaction is aborted,
// so no lock survives the server.
TEST(NetServerTest, StopDuringLockWaitAbortsOpenTransactions) {
  ServerHarness h;  // 200 ms lock timeout
  const ObjectId contested = h.graph.cluster_roots[0][0];
  std::vector<uint8_t> payload(h.params.data_size, 0x33);
  NetClient holder = h.MakeClient();
  NetClient waiter = h.MakeClient();
  ASSERT_TRUE(holder.Begin(nullptr).ok());
  ASSERT_TRUE(holder.Update(contested, payload).ok());
  ASSERT_TRUE(waiter.Begin(nullptr).ok());
  std::thread t([&] { (void)waiter.Update(contested, payload); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GT(h.db.locks().NumLockedObjects(), 0u);

  const auto t0 = std::chrono::steady_clock::now();
  h.server->Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  t.join();
  EXPECT_EQ(h.db.locks().NumLockedObjects(), 0u);
  EXPECT_EQ(h.server->active_sessions(), 0u);
  holder.Close();
  waiter.Close();
}

// N client threads hammer traverses while a parallel IRA migrates the
// partition under them and a failpoint randomly kills sessions
// server-side mid-request. The server must survive everything: clients
// reconnect and keep committing, IRA completes, and the session table
// returns to baseline.
TEST(NetServerTest, SwarmVsLiveIraWithInjectedSessionFaults) {
  ServerHarness h(/*data_partitions=*/5, /*graph_partitions=*/2);
  FailPoints::Instance().Reset();
  ASSERT_TRUE(FailPoints::Instance()
                  .ArmFromString(
                      "net:session:request=error(internal).prob(0.02)")
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> reconnects{0};
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      NetClient c;
      bool connected = c.Connect("127.0.0.1", h.server->port()).ok();
      TraverseRequest req;
      req.home_partition = 1 + (t % h.params.num_partitions);
      req.steps = 6;
      req.update_permille = 500;
      req.ref_mutation_permille = 200;
      req.seed = 1000 + t;
      while (!stop.load()) {
        if (!connected) {
          connected = c.Connect("127.0.0.1", h.server->port()).ok();
          if (!connected) continue;
          ++reconnects;
        }
        Status st = c.Traverse(req);
        ++req.seed;
        if (st.ok()) {
          ++commits;
        } else if (st.code() == Status::Code::kInternal ||
                   st.IsCorruption()) {
          // Session was killed (injected fault or drop): reconnect.
          c.Close();
          connected = false;
        }
      }
    });
  }

  IraOptions opt;
  opt.num_workers = 2;
  opt.lock_timeout = std::chrono::milliseconds(100);
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(h.db.reorg_context());
  Status reorg = ira.Run(1, &planner, opt, &stats);

  // Let the swarm run a beat past the reorg, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : clients) t.join();
  FailPoints::Instance().Reset();

  EXPECT_TRUE(reorg.ok()) << reorg.ToString();
  EXPECT_GT(commits.load(), 0u);
  // The fault probability guarantees some sessions died; the server must
  // have dropped them cleanly and accepted the replacements.
  EXPECT_GT(h.server->sessions_dropped(), 0u);
  EXPECT_GT(reconnects.load(), 0u);
  EXPECT_TRUE(WaitFor([&] { return h.server->active_sessions() == 0; }));
  // And it is still a working server.
  NetClient c = h.MakeClient();
  EXPECT_TRUE(c.Ping().ok());
  c.Close();
}

// ReorgThrottle control law against a real MigrationPipe: high p99 sheds
// the cap one worker per decision down to the floor; recovery boosts it
// back. The cap must clamp the pipe.
TEST(ReorgThrottleTest, ShedsAndBoostsAgainstPipe) {
  ReorgThrottleOptions topt;
  topt.slo_p99_ms = 10.0;
  topt.resume_fraction = 0.5;
  topt.window = 64;
  topt.eval_every = 16;
  topt.min_workers = 1;
  ReorgThrottle throttle(topt);

  std::vector<ObjectId> items = {ObjectId(1, 64), ObjectId(1, 128)};
  MigrationPipe::Options popt;
  popt.workers = 4;
  MigrationPipe pipe(items, popt);

  throttle.AttachPipe(&pipe, 4);
  EXPECT_EQ(throttle.current_cap(), 4u);
  EXPECT_EQ(pipe.worker_cap(), 4u);

  // A window of 50 ms latencies against a 10 ms SLO: every decision
  // sheds one worker until the floor.
  for (int i = 0; i < 64; ++i) throttle.Record(50.0);
  EXPECT_EQ(throttle.current_cap(), 1u);
  EXPECT_EQ(pipe.worker_cap(), 1u);
  EXPECT_GE(throttle.sheds(), 3u);
  EXPECT_GT(throttle.WindowP99(), 10.0);

  // Recovery below slo * resume_fraction: boosts back to max.
  for (int i = 0; i < 128; ++i) throttle.Record(1.0);
  EXPECT_EQ(throttle.current_cap(), 4u);
  EXPECT_EQ(pipe.worker_cap(), 4u);
  EXPECT_GE(throttle.boosts(), 3u);

  // Detach restores an uncapped pipe.
  throttle.DetachPipe(&pipe);
  EXPECT_EQ(pipe.worker_cap(), 0xFFFFFFFFu);
  pipe.Stop(Status::Ok());
}

// The window p99 tracks the ring after it wraps: samples leaving the
// ring leave the histogram too, so a tail that scrolled out of the
// window no longer counts. Checked against a sorted copy of the window.
TEST(ReorgThrottleTest, WindowP99FollowsRingAfterWrap) {
  ReorgThrottleOptions topt;
  topt.window = 64;
  ReorgThrottle throttle(topt);
  std::vector<double> all;
  std::mt19937_64 rng(11);
  std::lognormal_distribution<double> slow(4.0, 0.5);  // ~55 ms
  std::lognormal_distribution<double> fast(0.0, 0.5);  // ~1 ms
  for (int i = 0; i < 64 * 5 + 17; ++i) {
    all.push_back(i < 100 ? slow(rng) : fast(rng));
    throttle.Record(all.back());
    std::vector<double> window(
        all.end() - std::min<long>(static_cast<long>(all.size()), 64),
        all.end());
    std::sort(window.begin(), window.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(0.99 * static_cast<double>(window.size())));
    const double exact = window[std::max<size_t>(rank, 1) - 1];
    ASSERT_NEAR(throttle.WindowP99(), exact,
                exact / Histogram::kSub + 1.0 / Histogram::kTicksPerUnit)
        << "after sample " << i;
  }
  EXPECT_LT(throttle.WindowP99(), 10.0);  // the slow phase scrolled out
}

// Pace mode (min_workers = 0): sustained SLO violation parks the whole
// pipeline; recovery resumes it.
TEST(ReorgThrottleTest, PaceModePausesPipeline) {
  ReorgThrottleOptions topt;
  topt.slo_p99_ms = 10.0;
  topt.window = 32;
  topt.eval_every = 8;
  topt.min_workers = 0;
  ReorgThrottle throttle(topt);

  std::vector<ObjectId> items = {ObjectId(1, 64)};
  MigrationPipe::Options popt;
  popt.workers = 2;
  MigrationPipe pipe(items, popt);
  throttle.AttachPipe(&pipe, 2);

  for (int i = 0; i < 64; ++i) throttle.Record(100.0);
  EXPECT_EQ(throttle.current_cap(), 0u);
  EXPECT_EQ(pipe.worker_cap(), 0u);

  for (int i = 0; i < 64; ++i) throttle.Record(1.0);
  EXPECT_GE(throttle.current_cap(), 1u);
  throttle.DetachPipe(&pipe);
  pipe.Stop(Status::Ok());
}

// Slow-start (initial_workers) attaches below max, and boost_hold makes
// the controller earn each extra worker over several quiet decisions.
TEST(ReorgThrottleTest, SlowStartEarnsWorkersSlowly) {
  ReorgThrottleOptions topt;
  topt.slo_p99_ms = 10.0;
  topt.window = 32;
  topt.eval_every = 8;
  topt.min_workers = 0;
  topt.initial_workers = 1;
  topt.boost_hold = 4;
  ReorgThrottle throttle(topt);

  std::vector<ObjectId> items = {ObjectId(1, 64)};
  MigrationPipe::Options popt;
  popt.workers = 4;
  MigrationPipe pipe(items, popt);
  throttle.AttachPipe(&pipe, 4);
  EXPECT_EQ(throttle.current_cap(), 1u);
  EXPECT_EQ(pipe.worker_cap(), 1u);

  // Three quiet decisions: not yet enough consecutive evidence.
  for (int i = 0; i < 24; ++i) throttle.Record(1.0);
  EXPECT_EQ(throttle.current_cap(), 1u);
  // The fourth completes the hold and releases exactly one boost.
  for (int i = 0; i < 8; ++i) throttle.Record(1.0);
  EXPECT_EQ(throttle.current_cap(), 2u);
  EXPECT_EQ(throttle.boosts(), 1u);

  // A single over-target decision sheds immediately — no hold on the
  // way down.
  for (int i = 0; i < 8; ++i) throttle.Record(50.0);
  EXPECT_EQ(throttle.current_cap(), 1u);
  EXPECT_EQ(throttle.sheds(), 1u);

  throttle.DetachPipe(&pipe);
  pipe.Stop(Status::Ok());
}

// End to end: a throttled parallel IRA under synthetic latency pressure
// still completes, and the throttle actually exercised the cap.
TEST(ReorgThrottleTest, ThrottledIraCompletes) {
  Database db(testing::SmallDbOptions(5));
  WorkloadParams params = testing::SmallWorkload(2);
  // Enough objects that the reorg outlasts several control decisions
  // even on a single-core machine.
  params.objects_per_partition = 85 * 16;
  BuiltGraph graph;
  GraphBuilder builder(&db);
  ASSERT_TRUE(builder.Build(params, &graph).ok());

  ReorgThrottleOptions topt;
  topt.slo_p99_ms = 5.0;
  topt.window = 16;
  topt.eval_every = 1;  // every sample is a control decision
  topt.min_workers = 1;
  ReorgThrottle throttle(topt);

  std::atomic<bool> stop{false};
  // Synthetic latency feed breaching the SLO the whole run — tight loop
  // so control decisions land even if the reorg finishes in a few ms.
  std::thread feeder([&] {
    while (!stop.load()) {
      throttle.Record(50.0);
      std::this_thread::yield();
    }
  });

  IraOptions opt;
  opt.num_workers = 3;
  opt.lock_timeout = std::chrono::milliseconds(100);
  opt.throttle = &throttle;
  CopyOutPlanner planner(5);
  ReorgStats stats;
  IraReorganizer ira(db.reorg_context());
  Status s = ira.Run(1, &planner, opt, &stats);
  stop.store(true);
  feeder.join();

  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(throttle.sheds(), 0u);
  EXPECT_EQ(testing::CountDanglingRefs(&db.store()), 0);
}

}  // namespace
}  // namespace brahma
