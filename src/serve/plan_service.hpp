// The socket transport of the serving stack: PlanServiceHost exposes a
// PlanServer behind a loopback TCP listener, RemotePlanClient speaks the
// wire codec to it with the same submit -> future surface — the last layer
// of ROADMAP's distributed fan-out (requests cross process boundaries; the
// portable requestKey discipline from PR 3 keeps caches coherent on the
// far side).
//
// Frame protocol (length-prefixed, fixed 10-byte header):
//
//   offset 0  4 bytes  magic "FSWF"
//   offset 4  1 byte   frame version (kFrameVersion)
//   offset 5  1 byte   type: 'Q' request, 'R' result, 'E' error
//   offset 6  4 bytes  payload length, big-endian
//   offset 10 payload  a binary wire-codec block (src/io/serialize.hpp);
//                      for 'E', a human-readable message.
//
// Failure discipline: a malformed *payload* (bad codec magic/version,
// truncated block, unknown portfolio) is answered with an 'E' frame and
// the connection stays up — the length prefix kept the stream in sync. A
// malformed *frame* (bad magic, oversized length, truncated header or
// body) means the stream itself cannot be trusted: the host drops the
// connection; a version-mismatched frame is answered with 'E' first, then
// dropped. The client surfaces 'E' frames and lost connections as
// RemotePlanError through the returned future — never a misparse, never a
// hang.
//
// Scope: one request at a time per connection (synchronous RPC);
// concurrency comes from multiple connections/clients, which the
// PlanServer behind the host coalesces and batches as usual. POSIX
// sockets, loopback-oriented (IPv4 literals).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/frame_io.hpp"
#include "src/serve/plan_server.hpp"

namespace fsw {

/// A solve that failed on the far side (an 'E' frame) or a transport
/// failure (lost/garbled connection), delivered through the future.
/// `transport()` separates the two: a transport failure means the
/// *connection* broke (the request may never have been seen, and a pure
/// solve is idempotent), so a router can retry it on another host; a
/// remote error is the host's deterministic answer for this payload and
/// would recur anywhere — it must not be retried.
class RemotePlanError : public std::runtime_error {
 public:
  explicit RemotePlanError(const std::string& what, bool transport = false)
      : std::runtime_error(what), transport_(transport) {}

  [[nodiscard]] bool transport() const noexcept { return transport_; }

 private:
  bool transport_ = false;
};

struct ServiceHostConfig {
  /// The served front end (not owned). nullptr = the host owns a private
  /// PlanServer built from `serverConfig`.
  PlanServer* server = nullptr;
  ServerConfig serverConfig{};
  /// Listening port on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// via port() — the loopback-pair pattern the tests and example use).
  std::uint16_t port = 0;
  /// The epoll reactor's knobs: O(1) host threads in the number of
  /// connections, bounded write queues, optional accept gate and idle
  /// reaping.
  frameio::TransportConfig transport{};
  /// Resolves a wire portfolio name to a locally registered portfolio.
  /// The reserved token "-" (default portfolio) never reaches this hook.
  /// "builtin" always resolves to CandidateRegistry::builtin() when the
  /// resolver is unset or returns nullptr for it — a resolver extends the
  /// name space (and may shadow "builtin"), it never revokes the default.
  /// A name that resolves nowhere is answered with an error frame.
  std::function<const CandidateRegistry*(const std::string&)>
      resolvePortfolio;
};

/// The listening side. The shared frameio::SocketService transport
/// (epoll reactor by default) delivers each request frame to handleFrame
/// on a handler thread: decode -> resolve portfolio -> PlanServer::submit
/// -> await -> encode -> result frame. Stats are locked; stop() (and the
/// destructor) drains in-flight requests, closes every connection, then
/// joins.
class PlanServiceHost : public frameio::SocketService {
 public:
  struct Stats {
    std::size_t connections = 0;  ///< connections accepted
    std::size_t requests = 0;     ///< request frames served with a result
    std::size_t errors = 0;       ///< error frames sent + dropped streams
    /// Frame traffic across every connection, headers included.
    std::size_t framesIn = 0;
    std::size_t bytesIn = 0;
    std::size_t framesOut = 0;
    std::size_t bytesOut = 0;
    /// Transport counters (see frameio::TransportTotals).
    std::size_t refusedOverLimit = 0;
    std::size_t idleClosed = 0;
    std::size_t peakWriteQueueBytes = 0;
    std::size_t transportThreads = 0;
  };

  explicit PlanServiceHost(ServiceHostConfig config);
  ~PlanServiceHost();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] PlanServer& server() noexcept { return *server_; }

  /// Stops accepting, drops live connections, joins every thread.
  /// Idempotent. The wrapped PlanServer is left running (its owner — or
  /// the host destructor, for an owned server — shuts it down).
  void stop() { stopService(); }

 private:
  void handleFrame(Responder& out, frameio::Frame frame) override;

  ServiceHostConfig config_;
  std::unique_ptr<PlanServer> ownedServer_;
  PlanServer* server_ = nullptr;

  mutable std::mutex mu_;  ///< guards stats_
  Stats stats_{};
};

/// The connecting side: the same submit -> future surface as PlanServer,
/// spoken over one socket. submit() encodes eagerly (throwing
/// std::invalid_argument for a non-portable unnamed portfolio, like the
/// codec) and queues the frame; a sender thread performs the RPCs in
/// submit order, fulfilling each future with the decoded plan or a
/// RemotePlanError. One in-flight request per client — run several clients
/// for concurrency (the host serves each connection on its own thread).
class RemotePlanClient {
 public:
  struct Stats {
    std::size_t submitted = 0;  ///< submit() calls accepted
    std::size_t served = 0;     ///< futures fulfilled with a plan
    std::size_t failed = 0;     ///< futures failed (error frame/transport)
    /// Wire bytes this client moved (frame headers included) — the
    /// per-peer ledger PlanRouter folds into its per-host stats.
    std::size_t bytesSent = 0;
    std::size_t bytesReceived = 0;
  };

  /// Connects to host:port (an IPv4 literal, e.g. "127.0.0.1"). Throws
  /// std::runtime_error when the connection cannot be established.
  /// `ioTimeoutMs` bounds every send/recv after the connect (and the
  /// connect itself): a black-holed host (SIGSTOP, partition without RST)
  /// surfaces as a transport-class RemotePlanError after the timeout
  /// instead of hanging the submit forever — and transport errors are the
  /// retryable kind, so a router fails the request over. <= 0 disables
  /// the bound (the pre-existing behavior): solves have no universal
  /// ceiling, so the DEFAULT stays unbounded and callers that know their
  /// latency budget (PlanRouter) opt in.
  RemotePlanClient(const std::string& host, std::uint16_t port,
                   int ioTimeoutMs = 0);
  ~RemotePlanClient();

  RemotePlanClient(const RemotePlanClient&) = delete;
  RemotePlanClient& operator=(const RemotePlanClient&) = delete;

  /// Queues one request; the future delivers the remote winner (with the
  /// far side's EngineStats — e.g. resultCacheHits = 1 on a warm repeat)
  /// or throws RemotePlanError.
  [[nodiscard]] std::future<OptimizedPlan> submit(const PlanRequest& request,
                                                  int priority = 0);

  /// Blocking convenience: submit(request, priority).get().
  [[nodiscard]] OptimizedPlan optimize(const PlanRequest& request,
                                       int priority = 0);

  [[nodiscard]] Stats stats() const;

  /// Fails queued work, closes the socket and joins the sender.
  /// Idempotent; the destructor calls it.
  void close();

 private:
  struct Pending {
    std::string payload;
    std::promise<OptimizedPlan> promise;
  };

  void senderLoop();

  int fd_ = -1;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Pending> queue_;
  bool stopping_ = false;
  Stats stats_{};
  frameio::IoCounters io_;  ///< wire bytes (sender thread writes, stats() reads)
  std::thread sender_;
};

}  // namespace fsw
