// The FSWF frame protocol and its shared plumbing — one implementation for
// every socket service in src/serve (PlanServiceHost/RemotePlanClient in
// plan_service.*, ResultStoreHost/RemoteResultStore in result_store.*).
// One implementation means one failure discipline: a malformed frame is
// ReadStatus::Bad everywhere, a version mismatch is answered before the
// drop everywhere, and a new service cannot drift from the protocol by
// re-implementing it.
//
// Frame layout (length-prefixed, fixed 10-byte header):
//
//   offset 0  4 bytes  magic "FSWF"
//   offset 4  1 byte   frame version (kFrameVersion)
//   offset 5  1 byte   type (FrameType)
//   offset 6  4 bytes  payload length, big-endian
//   offset 10 payload  a binary wire-codec block (src/io/serialize.hpp)
//                      or, for 'E', a human-readable message
//
// The protocol surface (magic, version, FrameType, encodeFrame) lives in
// namespace fsw; the plumbing (exact send/recv, frame reads, the shared
// service transport) in fsw::frameio.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace fsw {

inline constexpr char kFrameMagic[4] = {'F', 'S', 'W', 'F'};
inline constexpr std::uint8_t kFrameVersion = 1;
/// Frames above this payload size are protocol violations (the codec's
/// plans are far smaller; the cap keeps a corrupt length prefix from
/// looking like a multi-gigabyte allocation).
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : char {
  Request = 'Q',
  Result = 'R',
  Error = 'E',
  // The result-store service (src/serve/result_store.*) shares the frame
  // protocol: one header discipline, one failure contract, new verbs.
  StoreGet = 'G',    ///< result-store lookup by request key
  StorePut = 'P',    ///< result-store publish (winner + incumbent bound)
  StoreStats = 'S',  ///< result-store counters snapshot
};

/// Serializes one frame (header + payload) to bytes — exposed so tests can
/// craft byte-exact, truncated or version-tweaked frames.
[[nodiscard]] std::string encodeFrame(FrameType type,
                                      std::string_view payload);

}  // namespace fsw

namespace fsw::frameio {

inline constexpr std::size_t kFrameHeaderSize = 10;

/// Sends the whole buffer (MSG_NOSIGNAL: a peer that vanished mid-write is
/// an error return here, never a SIGPIPE). False on any failure.
bool sendAll(int fd, const char* data, std::size_t len);

/// Reads exactly `len` bytes. 1 = ok, 0 = clean EOF before the first byte,
/// -1 = error or EOF mid-buffer (a truncated frame).
int recvExact(int fd, char* data, std::size_t len);

enum class ReadStatus {
  Ok,            ///< a well-formed frame
  Eof,           ///< clean close at a frame boundary
  Bad,           ///< garbage/truncated/oversized — drop the connection
  WrongVersion,  ///< well-formed header, unsupported version
};

struct Frame {
  FrameType type = FrameType::Error;
  std::string payload;
};

/// Bytes-on-the-wire accounting, shared by every frame endpoint. Counters
/// include the 10-byte frame headers — they measure what actually crossed
/// (or, for a reactor host's replies, was committed to) the socket, not
/// just payload — and count only complete, well-formed frames (a truncated
/// read contributes nothing). Outbound frames are counted when the service
/// commits them to a connection (enqueue on the reactor, successful send on
/// the blocking paths): by the time a peer observes a reply, the counters
/// already include it. Atomic so one instance can sit behind a service's
/// concurrent threads.
struct IoCounters {
  std::atomic<std::size_t> framesIn{0};
  std::atomic<std::size_t> bytesIn{0};
  std::atomic<std::size_t> framesOut{0};
  std::atomic<std::size_t> bytesOut{0};
};

/// A plain snapshot of IoCounters (for stats structs).
struct IoTotals {
  std::size_t framesIn = 0;
  std::size_t bytesIn = 0;
  std::size_t framesOut = 0;
  std::size_t bytesOut = 0;
};
[[nodiscard]] IoTotals totals(const IoCounters& io);

/// `io`, when non-null, accumulates the frame and its header bytes on a
/// successful read/send.
ReadStatus readFrame(int fd, Frame& out, IoCounters* io = nullptr);

bool sendFrame(int fd, FrameType type, std::string_view payload,
               IoCounters* io = nullptr);

void closeFd(int fd);

/// Binds and listens on 127.0.0.1:`port` (0 = ephemeral), returning the
/// listening fd and the bound port. Throws std::runtime_error (prefixed
/// with `who`) on failure.
struct Listener {
  int fd = -1;
  std::uint16_t port = 0;
};
[[nodiscard]] Listener listenLoopback(std::uint16_t port, const char* who);

/// Connects to host:port (an IPv4 literal), returning the fd. Throws
/// std::runtime_error (prefixed with `who`) on failure. `timeoutMs`
/// bounds the connect itself (non-blocking connect + poll) so a
/// black-holed peer fails in seconds, not the kernel's multi-minute SYN
/// retry schedule; <= 0 means a plain blocking connect.
[[nodiscard]] int connectTcp(const std::string& host, std::uint16_t port,
                             const char* who, int timeoutMs = 10000);

/// Applies SO_RCVTIMEO/SO_SNDTIMEO so a peer that stops responding
/// (SIGSTOP, partition without RST) surfaces as a recv/send error after
/// `timeoutMs` instead of blocking forever. <= 0 leaves the socket
/// blocking.
void setIoTimeout(int fd, int timeoutMs);

/// The transport of every SocketService is a nonblocking epoll reactor: a
/// small fixed pool of event-loop threads owns every connection's state
/// machine (incremental frame assembly across partial reads, bounded write
/// queues flushed on EPOLLOUT), and a fixed handler pool runs handleFrame
/// so a blocking solve never stalls an event loop. Host thread count is
/// O(1) in the number of connections. These are its knobs, all with
/// serviceable defaults.
struct TransportConfig {
  /// Event-loop threads. Clamped to >= 1; loop 0 also accepts.
  std::size_t eventLoopThreads = 2;
  /// Handler threads running handleFrame. 0 = auto
  /// (max(2, min(8, hardware_concurrency()))). This bounds how many
  /// connections' frames are *being handled* at once; parsed frames wait
  /// in per-connection inboxes, connections themselves are only bounded
  /// by maxConnections.
  std::size_t handlerThreads = 0;
  /// Accept gate: live connections at or above this are refused with a
  /// best-effort error frame and a clean shutdown (counted in
  /// TransportTotals::refusedOverLimit). 0 = unbounded.
  std::size_t maxConnections = 0;
  /// A connection with no *complete* frame parsed and no handler or
  /// pending reply for this long is reaped (timer wheel; counted in
  /// idleClosed). Partial bytes do NOT refresh the clock — a slow-loris
  /// trickling a frame byte-by-byte is reaped like a silent peer. 0 =
  /// never reap.
  int idleTimeoutMs = 0;
  /// Per-connection queued-reply cap in bytes. At or above the cap the
  /// connection's reads are parked (backpressure) until the queue drains
  /// below it — a slow reader throttles itself, never an unbounded
  /// buffer.
  std::size_t writeQueueCap = 4u << 20;
  /// Parsed-but-unhandled frames per connection before reads park (the
  /// inbox half of backpressure; must stay above the store clients'
  /// pipeline window so batched GET/PUT keeps streaming).
  std::size_t maxPipelinedFrames = 64;
  /// stopService() drains gracefully: in-flight frames finish and their
  /// replies flush, bounded by this budget; stragglers are then
  /// force-closed.
  int drainTimeoutMs = 2000;
};

/// Transport-level counters for stats snapshots (per host; the
/// per-connection write-queue peak is folded into one high-water mark).
struct TransportTotals {
  std::size_t accepted = 0;          ///< connections accepted
  std::size_t refusedOverLimit = 0;  ///< accepts refused by the gate
  std::size_t idleClosed = 0;        ///< connections reaped by the idle timer
  std::size_t streamErrors = 0;      ///< bad frames + version mismatches
  std::size_t peakWriteQueueBytes = 0;  ///< max queued reply bytes (any conn)
  std::size_t liveConnections = 0;
  /// Threads the transport itself owns: event loops + handlers, fixed
  /// whatever the connection count (the E13 scaling bench gates on it).
  std::size_t transportThreads = 0;
};

/// The shared transport of an FSWF socket service (PlanServiceHost,
/// ResultStoreHost): bind + listen on loopback, move frames on the epoll
/// reactor, apply the shared frame discipline (garbage →
/// drop; wrong version → error frame, then drop), and hand every
/// well-formed frame to the derived handleFrame.
///
/// handleFrame runs on a handler-pool thread — never on an event loop — so
/// it may block (e.g. on
/// PlanServer::submit().get()). Frames from one connection are handled
/// strictly in arrival order, one at a time (replies stay in order for
/// pipelined peers); different connections are handled concurrently.
/// Subclasses MUST call stopService() from their destructor: the base
/// destructor cannot do it alone, because by the time it runs the derived
/// object (and with it the virtual handleFrame) is already gone while
/// handler threads could still be inside it.
class SocketService {
 public:
  SocketService(const SocketService&) = delete;
  SocketService& operator=(const SocketService&) = delete;

  /// The bound listening port (resolves an ephemeral request).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] IoTotals ioTotals() const { return totals(io_); }
  [[nodiscard]] TransportTotals transportTotals() const;

 protected:
  struct Conn;  // per-connection reactor state machine (frame_io.cpp)

  /// The reply seam handed to handleFrame. send() commits a frame to the
  /// connection's bounded write queue (the event loop flushes it, on
  /// EPOLLOUT when the socket stalls). False when the connection is
  /// already gone — handlers treat that as "peer lost interest", never an
  /// error.
  class Responder {
   public:
    bool send(FrameType type, std::string_view payload);
    /// Drop the connection once queued replies have flushed. Frames
    /// already parsed but not yet handled on this connection are
    /// discarded.
    void closeAfterReply() { close_ = true; }

   private:
    friend class SocketService;
    Responder(SocketService* svc, std::shared_ptr<Conn> conn)
        : svc_(svc), conn_(std::move(conn)) {}

    SocketService* svc_ = nullptr;
    std::shared_ptr<Conn> conn_;
    bool close_ = false;
  };

  SocketService();   ///< out-of-line: members need Reactor complete
  ~SocketService();  ///< backstop stopService(); derived must call it first

  /// Binds, listens and starts the transport threads. Throws
  /// std::runtime_error (prefixed with `who`) on failure.
  void startService(std::uint16_t port, const char* who,
                    TransportConfig transport = {});

  /// Stops accepting, drains in-flight frames (replies flush within
  /// drainTimeoutMs, then stragglers are force-closed), joins all
  /// threads. Idempotent; safe to call from the derived destructor.
  void stopService();

  /// One well-formed frame from one connection; runs off the event loops
  /// and may block. Must not throw — an escaping exception drops the
  /// connection.
  virtual void handleFrame(Responder& out, Frame frame) = 0;

  /// Connections accepted so far (for derived stats snapshots).
  [[nodiscard]] std::size_t acceptedConnections() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// The service-wide IO counters (ioTotals() snapshots them for stats).
  [[nodiscard]] IoCounters& ioCounters() noexcept { return io_; }

 private:
  struct Loop;     // one event loop: epoll fd + eventfd + timer wheel
  struct Reactor;  // the loops, the handler pool, the drain machinery

  void refuseOverLimit(int fd);
  void bumpPeakQueue(std::size_t depth);
  void loopMain(std::size_t index);
  void handlerMain();
  void acceptReady(Loop& loop);
  void registerConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  void handleReadable(Loop& loop, const std::shared_ptr<Conn>& conn);
  void parseFrames(Loop& loop, const std::shared_ptr<Conn>& conn);
  void flushConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  void updateInterest(Loop& loop, const std::shared_ptr<Conn>& conn);
  void closeConn(Loop& loop, const std::shared_ptr<Conn>& conn,
                 bool countIdle = false);
  void processWakes(Loop& loop);
  void wheelSchedule(Loop& loop, const std::shared_ptr<Conn>& conn);
  void wheelAdvance(Loop& loop);
  void wakeConn(const std::shared_ptr<Conn>& conn);
  void wakeLoop(Loop& loop);
  void enqueueHandlerWork(const std::shared_ptr<Conn>& conn);
  void stopReactor();

  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  TransportConfig cfg_{};
  IoCounters io_;

  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> refused_{0};
  std::atomic<std::size_t> idleClosed_{0};
  std::atomic<std::size_t> streamErrors_{0};
  std::atomic<std::size_t> peakWriteQueue_{0};
  std::atomic<std::size_t> live_{0};

  std::unique_ptr<Reactor> reactor_;

  std::mutex stopMu_;  ///< serializes the join phase of stopService()
  bool stopped_ = false;
};

}  // namespace fsw::frameio
