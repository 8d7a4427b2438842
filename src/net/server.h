#ifndef BRAHMA_NET_SERVER_H_
#define BRAHMA_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "core/reorg_throttle.h"
#include "net/wire.h"
#include "workload/graph_builder.h"

namespace brahma {
namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; the bound port is port() after Start
  // Session threads. Each one waits on the shared epoll set and serves
  // the session it wakes for: reads its requests, runs every Database
  // op and writes the replies. A request arriving while all of them are
  // busy waits in its socket's kernel buffer.
  uint32_t num_workers = 4;
  // Enables kTraverse / kListRoots: the built Section 5.2 graph and the
  // workload parameters traverse transactions use (payload size etc.).
  // Both must outlive the server.
  const BuiltGraph* graph = nullptr;
  WorkloadParams workload;
  // When set, every completed request's latency (frame parse to reply
  // write; the wait for a free thread sits in the kernel socket buffer
  // before that and is not included) feeds this throttle, and a
  // reorganization run with IraOptions::throttle pointing at the same
  // object is shed/paced to keep the user p99 inside its SLO. Must
  // outlive the server.
  ReorgThrottle* throttle = nullptr;
};

// The networked object server (DESIGN.md §14): a socket front end
// exposing read/update/traverse/begin/commit/abort over the CRC'd
// length-prefixed wire protocol of net/wire.h, multiplexing thousands
// of concurrent non-blocking connections onto num_workers threads that
// share one epoll set (leader/followers) and drive the shared Database.
//
// Session model: each connection owns at most one open Transaction
// (kBegin..kCommit/kAbort). Sessions are registered EPOLLONESHOT, so
// the thread that receives a session's event owns it until it re-arms
// it: requests of one session execute in arrival order and never
// concurrently, which makes the non-thread-safe Transaction safe. A
// disconnect (graceful FIN, RST, or a kill -9'd client) is closed by
// the owning thread, which aborts the open transaction, releasing its
// locks; the remaining sessions keep being served. SIGPIPE is ignored
// process-wide at Start (and every send also passes MSG_NOSIGNAL): a
// client vanishing mid-response costs one session, never the process.
class NetServer {
 public:
  explicit NetServer(Database* db, const ServerOptions& options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens and spawns the session threads.
  Status Start();
  // Wakes and joins every thread (one blocked in a lock wait returns at
  // its timeout); open sessions are torn down (their transactions
  // aborted). Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

  // Introspection (tests, bench).
  uint64_t sessions_accepted() const { return sessions_accepted_.load(); }
  uint64_t active_sessions() const;
  uint64_t requests_served() const { return requests_served_.load(); }
  uint64_t frames_rejected() const { return frames_rejected_.load(); }
  uint64_t sessions_dropped() const { return sessions_dropped_.load(); }

 private:
  // One client connection. Only the thread that holds its EPOLLONESHOT
  // event touches it.
  struct Session {
    explicit Session(int fd_in) : fd(fd_in) {}
    ~Session();

    const int fd;
    std::vector<uint8_t> in;   // received bytes not yet executed
    std::vector<uint8_t> out;  // reply bytes not yet sent
    size_t out_off = 0;        // first unsent byte of out
    std::unique_ptr<Transaction> txn;
  };

  void WorkerMain();
  void AcceptReady();
  // One turn of the owning thread: sends backlogged replies, executes
  // buffered frames, reads once, and re-arms or closes the session.
  void Serve(Session* s, uint32_t events);
  // Executes the complete frames buffered in s->in, in order, until the
  // reply batch is full; false when the session must close (poisoned
  // byte stream or injected session fault).
  bool ExecuteFrames(Session* s);
  // False when the session must close (send failure).
  bool FlushOut(Session* s);
  // Registers the session for one event and gives up ownership; closes
  // it if epoll refuses.
  void Arm(Session* s, uint32_t events);
  // Unregisters and destroys the session on its owning thread;
  // ~Session aborts the open transaction and closes the fd.
  void Close(Session* s);

  // Executes one request, appending its reply to s->out; false when an
  // injected fault drops the session instead.
  bool Execute(Session* s, uint8_t op, const uint8_t* payload, size_t len);
  Status DoRead(Session* s, PayloadReader* r, std::vector<uint8_t>* body);
  Status DoUpdate(Session* s, PayloadReader* r);
  Status DoTraverse(PayloadReader* r);
  Status DoListRoots(PayloadReader* r, std::vector<uint8_t>* body);

  Database* db_;
  ServerOptions opts_;
  uint16_t port_ = 0;

  // The addresses of listen_fd_ and wake_fd_ tag their epoll events;
  // every other event carries its Session*.
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop signals it and never drains it
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::vector<std::thread> workers_;

  mutable std::mutex sessions_mu_;
  std::unordered_map<Session*, std::unique_ptr<Session>> sessions_;

  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> frames_rejected_{0};
  std::atomic<uint64_t> sessions_dropped_{0};
};

}  // namespace net
}  // namespace brahma

#endif  // BRAHMA_NET_SERVER_H_
