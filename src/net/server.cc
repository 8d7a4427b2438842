#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "workload/random_walk.h"

namespace brahma {
namespace net {

namespace {
constexpr int kListenBacklog = 1024;
// Replies of pipelined frames are sent in batches of about this size,
// and no further frame runs while a batch is unsent.
constexpr size_t kReplyBatch = 64 * 1024;
}  // namespace

NetServer::Session::~Session() {
  // Destroyed by its owning thread (or by Stop after every thread is
  // joined), so the single-owner Transaction is safe to abort here. A
  // session that dies mid-transaction (client crash, kill -9, protocol
  // fault) releases every lock it held — no leaked sessions, no user
  // transaction stuck behind a dead client's locks.
  if (txn != nullptr && txn->state() == Transaction::State::kActive) {
    txn->Abort();
  }
  ::close(fd);
}

NetServer::NetServer(Database* db, const ServerOptions& options)
    : db_(db), opts_(options) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  // The first client that disconnects mid-response would otherwise kill
  // the process: write(2) to a half-closed socket raises SIGPIPE whose
  // default disposition is terminal. Every send below also passes
  // MSG_NOSIGNAL; this covers any stray write path.
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.host.c_str(), &addr.sin_addr) != 1) {
    Stop();
    return Status::InvalidArgument("bad host: " + opts_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::Internal("bind: " + std::string(strerror(errno)));
    Stop();
    return s;
  }
  socklen_t alen = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    Status s = Status::Internal("listen: " + std::string(strerror(errno)));
    Stop();
    return s;
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Stop();
    return Status::Internal("epoll/eventfd setup failed");
  }
  // The listen socket is one-shot like a session: the thread that wakes
  // for it accepts every waiting connection, then re-arms it. The wake
  // eventfd is level-triggered, so once Stop signals it every waiter
  // wakes.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.ptr = &listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.events = EPOLLIN;
  ev.data.ptr = &wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  stop_.store(false);
  started_ = true;
  const uint32_t n = opts_.num_workers == 0 ? 1 : opts_.num_workers;
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  return Status::Ok();
}

void NetServer::Stop() {
  if (started_) {
    stop_.store(true);
    const uint64_t one = 1;
    ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    (void)n;
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    started_ = false;
  }
  {
    // Tear down surviving sessions (open transactions abort in ~Session).
    std::lock_guard<std::mutex> g(sessions_mu_);
    sessions_.clear();
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  wake_fd_ = epoll_fd_ = listen_fd_ = -1;
}

uint64_t NetServer::active_sessions() const {
  std::lock_guard<std::mutex> g(sessions_mu_);
  return sessions_.size();
}

void NetServer::WorkerMain() {
  epoll_event ev{};
  while (!stop_.load()) {
    if (::epoll_wait(epoll_fd_, &ev, 1, -1) != 1) continue;  // EINTR
    if (ev.data.ptr == &wake_fd_) continue;
    if (ev.data.ptr == &listen_fd_) {
      AcceptReady();
    } else {
      Serve(static_cast<Session*>(ev.data.ptr), ev.events);
    }
  }
}

void NetServer::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN or transient accept failure
    BRAHMA_FAILPOINT_HIT("net:server:accept");
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto owned = std::make_unique<Session>(fd);
    Session* s = owned.get();
    {
      std::lock_guard<std::mutex> g(sessions_mu_);
      sessions_.emplace(s, std::move(owned));
    }
    sessions_accepted_.fetch_add(1);
    // From here on the session belongs to whichever thread receives its
    // first event.
    Arm(s, EPOLLIN);
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.ptr = &listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
}

void NetServer::Serve(Session* s, uint32_t events) {
  if (events & (EPOLLHUP | EPOLLERR)) return Close(s);
  bool read = false;
  for (;;) {
    // A reply backlog is sent before another frame runs. A peer that
    // stops reading gets EPOLLOUT interest only: the session reads and
    // executes nothing more until its output drains, so its output
    // stays within one reply batch.
    if (!FlushOut(s)) return Close(s);
    if (!s->out.empty()) return Arm(s, EPOLLOUT);
    if (!ExecuteFrames(s)) return Close(s);
    if (!s->out.empty()) continue;
    // No complete frame is buffered. Read once per turn, so that one
    // streaming client cannot hold its thread; re-arming re-checks
    // readiness, and bytes still waiting fire the next event at once.
    if (read) return Arm(s, EPOLLIN);
    read = true;
    uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(s->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      s->in.insert(s->in.end(), buf, buf + n);
      continue;
    }
    // n == 0 is an orderly shutdown; ECONNRESET from a killed client
    // lands here too.
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      return Close(s);
    }
    return Arm(s, EPOLLIN);
  }
}

bool NetServer::ExecuteFrames(Session* s) {
  size_t off = 0;
  while (s->out.size() < kReplyBatch) {
    uint8_t op;
    const uint8_t* payload;
    uint32_t payload_len;
    size_t frame_len;
    const FrameResult r =
        ParseFrame(s->in.data() + off, s->in.size() - off, &op, &payload,
                   &payload_len, &frame_len);
    if (r == FrameResult::kNeedMore) break;
    if (r != FrameResult::kFrame) {  // poisoned byte stream
      frames_rejected_.fetch_add(1);
      sessions_dropped_.fetch_add(1);
      return false;
    }
    if (!Execute(s, op, payload, payload_len)) return false;
    off += frame_len;
  }
  s->in.erase(s->in.begin(), s->in.begin() + static_cast<long>(off));
  return true;
}

bool NetServer::Execute(Session* s, uint8_t op, const uint8_t* payload,
                        size_t len) {
  const int64_t parsed_us = NowMicros();
  // Injected session fault (tests): the session drops abruptly —
  // exactly what a server-side failure mid-request looks like to the
  // client — while the rest of the server keeps serving.
  if (!failpoint::Check("net:session:request").ok()) {
    sessions_dropped_.fetch_add(1);
    return false;
  }

  PayloadReader r(payload, len);
  Status st = Status::Ok();
  std::vector<uint8_t> body;
  switch (static_cast<Op>(op)) {
    case Op::kPing:
      break;
    case Op::kBegin:
      if (s->txn != nullptr) {
        st = Status::InvalidArgument("transaction already open");
      } else {
        s->txn = db_->Begin();
        PutU64(&body, s->txn->id());
      }
      break;
    case Op::kCommit:
      if (s->txn == nullptr) {
        st = Status::InvalidArgument("no open transaction");
      } else {
        st = s->txn->Commit();
        s->txn.reset();
      }
      break;
    case Op::kAbort:
      if (s->txn == nullptr) {
        st = Status::InvalidArgument("no open transaction");
      } else {
        st = s->txn->Abort();
        s->txn.reset();
      }
      break;
    case Op::kRead:
      st = DoRead(s, &r, &body);
      break;
    case Op::kUpdate:
      st = DoUpdate(s, &r);
      break;
    case Op::kTraverse:
      st = DoTraverse(&r);
      break;
    case Op::kListRoots:
      st = DoListRoots(&r, &body);
      break;
    case Op::kStats: {
      ServerStatsReply stats;
      stats.sessions_accepted = sessions_accepted_.load();
      stats.active_sessions = active_sessions();
      stats.requests_served = requests_served_.load();
      stats.frames_rejected = frames_rejected_.load();
      stats.sessions_dropped = sessions_dropped_.load();
      stats.throttle_cap =
          opts_.throttle != nullptr ? opts_.throttle->current_cap() : 0;
      EncodeServerStats(&body, stats);
      break;
    }
    default:
      st = Status::InvalidArgument("unknown opcode " +
                                   std::to_string(op));
      break;
  }
  requests_served_.fetch_add(1);
  std::vector<uint8_t> reply;
  reply.reserve(body.size() + 16);
  EncodeStatus(&reply, st);
  reply.insert(reply.end(), body.begin(), body.end());
  AppendFrame(&s->out, op | kReplyBit, reply);
  if (opts_.throttle != nullptr) {
    opts_.throttle->Record(MicrosToMillis(NowMicros() - parsed_us));
  }
  return true;
}

Status NetServer::DoRead(Session* s, PayloadReader* r,
                         std::vector<uint8_t>* body) {
  uint64_t raw;
  if (!r->GetU64(&raw)) return Status::InvalidArgument("short read request");
  const ObjectId oid = ObjectId::FromRaw(raw);
  std::unique_ptr<Transaction> auto_txn;
  Transaction* t = s->txn.get();
  if (t == nullptr) {
    auto_txn = db_->Begin();
    t = auto_txn.get();
  }
  const bool latchfree = db_->options().latchfree_reads;
  Status st;
  if (!latchfree) {
    st = t->Lock(oid, LockMode::kShared);
    if (!st.ok()) {
      if (auto_txn != nullptr) auto_txn->Abort();
      return st;
    }
  }
  std::vector<ObjectId> refs;
  std::vector<uint8_t> data;
  st = t->ReadRefs(oid, &refs);
  if (st.ok()) st = t->ReadData(oid, &data);
  if (!st.ok()) {
    if (auto_txn != nullptr) auto_txn->Abort();
    return st;
  }
  if (auto_txn != nullptr) {
    st = auto_txn->Commit();
    if (!st.ok()) return st;
  }
  PutU32(body, static_cast<uint32_t>(refs.size()));
  for (ObjectId ref : refs) PutU64(body, ref.raw());
  PutU32(body, static_cast<uint32_t>(data.size()));
  body->insert(body->end(), data.begin(), data.end());
  return Status::Ok();
}

Status NetServer::DoUpdate(Session* s, PayloadReader* r) {
  uint64_t raw;
  uint32_t len;
  if (!r->GetU64(&raw) || !r->GetU32(&len)) {
    return Status::InvalidArgument("short update request");
  }
  std::vector<uint8_t> data;
  if (!r->GetBytes(&data, len)) {
    return Status::InvalidArgument("short update payload");
  }
  const ObjectId oid = ObjectId::FromRaw(raw);
  std::unique_ptr<Transaction> auto_txn;
  Transaction* t = s->txn.get();
  if (t == nullptr) {
    auto_txn = db_->Begin();
    t = auto_txn.get();
  }
  Status st = t->Lock(oid, LockMode::kExclusive);
  if (st.ok()) st = t->WriteData(oid, data);
  if (!st.ok()) {
    if (auto_txn != nullptr) auto_txn->Abort();
    return st;
  }
  if (auto_txn != nullptr) return auto_txn->Commit();
  return Status::Ok();
}

Status NetServer::DoTraverse(PayloadReader* r) {
  TraverseRequest req;
  if (!DecodeTraverseRequest(r, &req)) {
    return Status::InvalidArgument("short traverse request");
  }
  if (opts_.graph == nullptr) {
    return Status::InvalidArgument("server has no graph");
  }
  if (req.home_partition == 0 ||
      req.home_partition > opts_.graph->partition_dirs.size()) {
    return Status::InvalidArgument("bad home partition");
  }
  WorkloadParams params = opts_.workload;
  params.ops_per_txn = req.steps;
  params.update_prob = static_cast<double>(req.update_permille) / 1000.0;
  params.ref_mutation_prob =
      static_cast<double>(req.ref_mutation_permille) / 1000.0;
  params.abort_prob = 0;
  Random rng(req.seed);
  // One paper-style user transaction (Section 5.2), lock waits and all;
  // TimedOut/Aborted propagate and the client retries — response time
  // accumulates client-side across retries exactly like the in-process
  // driver's retry-until-commit loop.
  return RunWalkOnce(db_, params, *opts_.graph, req.home_partition, &rng);
}

Status NetServer::DoListRoots(PayloadReader* r, std::vector<uint8_t>* body) {
  uint32_t partition;
  if (!r->GetU32(&partition)) {
    return Status::InvalidArgument("short list-roots request");
  }
  if (opts_.graph == nullptr) {
    return Status::InvalidArgument("server has no graph");
  }
  if (partition == 0 || partition > opts_.graph->cluster_roots.size()) {
    return Status::InvalidArgument("bad partition");
  }
  const std::vector<ObjectId>& roots =
      opts_.graph->cluster_roots[partition - 1];
  PutU32(body, static_cast<uint32_t>(roots.size()));
  for (ObjectId root : roots) PutU64(body, root.raw());
  return Status::Ok();
}

bool NetServer::FlushOut(Session* s) {
  while (s->out_off < s->out.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-response yields EPIPE, not
    // a process-killing SIGPIPE.
    ssize_t n = ::send(s->fd, s->out.data() + s->out_off,
                       s->out.size() - s->out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      s->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // EPIPE / ECONNRESET: the one session dies, not us
  }
  s->out.clear();
  s->out_off = 0;
  return true;
}

void NetServer::Arm(Session* s, uint32_t events) {
  // Registered afresh (DEL, then ADD) rather than re-armed with
  // EPOLL_CTL_MOD: ThreadSanitizer treats ADD, not MOD, as a release that
  // the next epoll_wait acquires, so only this way does it see the next
  // owner's turn, and that owner's close of the fd, ordered after this
  // one. It costs about 1 us a turn. DEL fails harmlessly on a session
  // not yet registered.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s->fd, nullptr);
  epoll_event ev{};
  ev.events = events | EPOLLONESHOT;
  ev.data.ptr = s;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, s->fd, &ev) != 0) Close(s);
}

void NetServer::Close(Session* s) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s->fd, nullptr);
  decltype(sessions_)::node_type dead;
  {
    std::lock_guard<std::mutex> g(sessions_mu_);
    dead = sessions_.extract(s);
  }
  // dead goes out of scope here, outside the table mutex: ~Session
  // aborts the open transaction and closes the fd.
}

}  // namespace net
}  // namespace brahma
