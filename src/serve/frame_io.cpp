#include "src/serve/frame_io.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fsw {

std::string encodeFrame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::invalid_argument("encodeFrame: payload exceeds frame cap");
  }
  std::string frame;
  frame.reserve(frameio::kFrameHeaderSize + payload.size());
  frame.append(kFrameMagic, sizeof(kFrameMagic));
  frame.push_back(static_cast<char>(kFrameVersion));
  frame.push_back(static_cast<char>(type));
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int shift = 24; shift >= 0; shift -= 8) {
    frame.push_back(static_cast<char>((len >> shift) & 0xff));
  }
  frame.append(payload);
  return frame;
}

}  // namespace fsw

namespace fsw::frameio {

bool sendAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t sent = ::send(fd, data, len, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data += sent;
    len -= static_cast<std::size_t>(sent);
  }
  return true;
}

int recvExact(int fd, char* data, std::size_t len) {
  bool any = false;
  while (len > 0) {
    const ssize_t got = ::recv(fd, data, len, 0);
    if (got == 0) return any ? -1 : 0;
    if (got < 0) {
      if (errno == EINTR) continue;
      return any ? -1 : 0;  // shutdown() surfaces as an error: treat as EOF
    }
    any = true;
    data += got;
    len -= static_cast<std::size_t>(got);
  }
  return 1;
}

IoTotals totals(const IoCounters& io) {
  IoTotals t;
  t.framesIn = io.framesIn.load(std::memory_order_relaxed);
  t.bytesIn = io.bytesIn.load(std::memory_order_relaxed);
  t.framesOut = io.framesOut.load(std::memory_order_relaxed);
  t.bytesOut = io.bytesOut.load(std::memory_order_relaxed);
  return t;
}

namespace {

bool frameTypeKnown(char type) {
  return type == static_cast<char>(FrameType::Request) ||
         type == static_cast<char>(FrameType::Result) ||
         type == static_cast<char>(FrameType::Error) ||
         type == static_cast<char>(FrameType::StoreGet) ||
         type == static_cast<char>(FrameType::StorePut) ||
         type == static_cast<char>(FrameType::StoreStats);
}

std::string wrongVersionMessage() {
  return "unsupported frame version (expected " +
         std::to_string(static_cast<int>(kFrameVersion)) + ")";
}

// epoll user-data tags for the two non-connection fds; connection events
// carry the Conn pointer (always > 2: pointers are aligned).
constexpr std::uint64_t kTagEventFd = 1;
constexpr std::uint64_t kTagListener = 2;

}  // namespace

ReadStatus readFrame(int fd, Frame& out, IoCounters* io) {
  char header[kFrameHeaderSize];
  const int got = recvExact(fd, header, sizeof(header));
  if (got == 0) return ReadStatus::Eof;
  if (got < 0) return ReadStatus::Bad;
  if (std::memcmp(header, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return ReadStatus::Bad;
  }
  if (static_cast<std::uint8_t>(header[4]) != kFrameVersion) {
    return ReadStatus::WrongVersion;
  }
  const char type = header[5];
  if (!frameTypeKnown(type)) {
    return ReadStatus::Bad;
  }
  std::uint32_t len = 0;
  for (std::size_t i = 6; i < kFrameHeaderSize; ++i) {
    len = (len << 8) | static_cast<std::uint8_t>(header[i]);
  }
  if (len > kMaxFramePayload) return ReadStatus::Bad;
  out.type = static_cast<FrameType>(type);
  out.payload.resize(len);
  if (len > 0 && recvExact(fd, out.payload.data(), len) != 1) {
    return ReadStatus::Bad;
  }
  if (io != nullptr) {
    io->framesIn.fetch_add(1, std::memory_order_relaxed);
    io->bytesIn.fetch_add(kFrameHeaderSize + len, std::memory_order_relaxed);
  }
  return ReadStatus::Ok;
}

bool sendFrame(int fd, FrameType type, std::string_view payload,
               IoCounters* io) {
  const std::string frame = encodeFrame(type, payload);
  if (!sendAll(fd, frame.data(), frame.size())) return false;
  if (io != nullptr) {
    io->framesOut.fetch_add(1, std::memory_order_relaxed);
    io->bytesOut.fetch_add(frame.size(), std::memory_order_relaxed);
  }
  return true;
}

void closeFd(int fd) {
  if (fd >= 0) ::close(fd);
}

Listener listenLoopback(std::uint16_t port, const char* who) {
  Listener listener;
  listener.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener.fd < 0) {
    throw std::runtime_error(std::string(who) + ": socket() failed");
  }
  const int one = 1;
  ::setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener.fd, 256) != 0) {
    closeFd(listener.fd);
    throw std::runtime_error(std::string(who) + ": bind/listen on 127.0.0.1:" +
                             std::to_string(port) + " failed");
  }
  sockaddr_in bound{};
  socklen_t boundLen = sizeof(bound);
  if (::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&bound),
                    &boundLen) != 0) {
    closeFd(listener.fd);
    throw std::runtime_error(std::string(who) + ": getsockname failed");
  }
  listener.port = ntohs(bound.sin_port);
  return listener;
}

int connectTcp(const std::string& host, std::uint16_t port, const char* who,
               int timeoutMs) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string(who) + ": socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    closeFd(fd);
    throw std::runtime_error(std::string(who) + ": bad IPv4 literal '" + host +
                             "'");
  }
  const auto fail = [&](const char* what) {
    closeFd(fd);
    throw std::runtime_error(std::string(who) + ": " + what + " " + host +
                             ":" + std::to_string(port) + " failed");
  };
  if (timeoutMs <= 0) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      fail("connect to");
    }
    return fd;
  }
  // Bounded connect: a black-holed peer (no RST) must fail in `timeoutMs`,
  // not the kernel's multi-minute SYN retry schedule — a router fails over
  // in seconds instead of stalling its slot.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail("configure socket for");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    if (errno != EINPROGRESS) fail("connect to");
    pollfd pending{};
    pending.fd = fd;
    pending.events = POLLOUT;
    int polled = 0;
    do {
      polled = ::poll(&pending, 1, timeoutMs);
    } while (polled < 0 && errno == EINTR);
    if (polled <= 0) fail("connect (timed out) to");
    int soError = 0;
    socklen_t len = sizeof(soError);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soError, &len) != 0 ||
        soError != 0) {
      fail("connect to");
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    fail("configure socket for");
  }
  return fd;
}

void setIoTimeout(int fd, int timeoutMs) {
  if (timeoutMs <= 0) return;
  timeval tv{};
  tv.tv_sec = timeoutMs / 1000;
  tv.tv_usec = (timeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

// ---- SocketService: shared state -------------------------------------------

/// One connection's state machine. Ownership/threading discipline:
///   * `fd` and `loopIndex` are immutable after creation.
///   * The read buffer, epoll-interest shadow (`armed`, `parked`,
///     `wantWrite`), and timer-wheel fields are touched ONLY by the owning
///     event loop.
///   * Everything under `mu` (inbox, outbox, flags) is the loop <-> handler
///     handoff. `closed` is additionally atomic so event dispatch can skip
///     dead connections without taking the lock.
struct SocketService::Conn {
  int fd = -1;
  std::size_t loopIndex = 0;

  // Event-loop-thread-only state.
  std::string rbuf;        ///< partial-frame assembly across reads
  std::size_t rpos = 0;    ///< parse offset into rbuf
  std::uint32_t armed = 0;  ///< epoll events currently registered
  bool parked = false;     ///< EPOLLIN disarmed (backpressure/drain/EOF)
  bool wantWrite = false;  ///< EPOLLOUT armed (kernel buffer was full)
  bool inWheel = false;
  std::chrono::steady_clock::time_point deadline{};

  // Loop <-> handler shared state.
  std::mutex mu;
  std::deque<Frame> inbox;  ///< parsed, unhandled frames (arrival order)
  bool handling = false;    ///< a handler thread owns this conn's inbox
  std::deque<std::string> outbox;  ///< encoded reply frames awaiting flush
  std::size_t outPos = 0;          ///< flushed bytes of outbox.front()
  std::size_t outBytes = 0;        ///< total queued reply bytes
  bool closeAfterFlush = false;
  bool readClosed = false;  ///< peer EOF seen (half-close: drain then close)
  std::atomic<bool> closed{false};
};

/// One event loop: an epoll instance, an eventfd for cross-thread wakes,
/// the connections it owns, and a lazy hashed timer wheel for idle reaping.
struct SocketService::Loop {
  static constexpr std::size_t kWheelSlots = 64;

  int epollFd = -1;
  int eventFd = -1;
  std::thread thread;

  // Loop-thread-only.
  std::unordered_map<int, std::shared_ptr<Conn>> conns;
  /// Conns closed during the current event batch; kept alive until the
  /// batch ends so stale `epoll_event.data.ptr`s in the same batch stay
  /// dereferenceable (their `closed` flag makes dispatch skip them).
  std::vector<std::shared_ptr<Conn>> graveyard;
  std::vector<std::vector<std::weak_ptr<Conn>>> wheel;
  std::size_t wheelCursor = 0;
  std::chrono::steady_clock::time_point wheelBase{};
  std::chrono::milliseconds tick{0};

  // Cross-thread handoff (guarded by mu, drained by the loop after an
  // eventfd wake).
  std::mutex mu;
  std::vector<std::shared_ptr<Conn>> incoming;  ///< freshly accepted conns
  std::vector<std::shared_ptr<Conn>> wakes;  ///< conns needing flush/unpark
};

struct SocketService::Reactor {
  std::vector<std::unique_ptr<Loop>> loops;
  std::size_t nextLoop = 0;  ///< round-robin conn placement (loop-0 only)
  std::atomic<bool> draining{false};
  std::atomic<bool> loopStop{false};
  std::atomic<bool> listenerClosed{false};

  std::vector<std::thread> handlers;
  std::mutex handlerMu;
  std::condition_variable handlerCv;
  std::deque<std::shared_ptr<Conn>> handlerQueue;
  bool handlerStop = false;

  /// Every live conn, for the drain-quiescence scan in stopService().
  std::mutex connsMu;
  std::unordered_set<std::shared_ptr<Conn>> allConns;
};

// ---- SocketService: lifecycle ----------------------------------------------

SocketService::SocketService() = default;

SocketService::~SocketService() {
  // Backstop only: a derived class that started the service must already
  // have called stopService() from its own destructor (see the class
  // comment); this call is then an idempotent no-op.
  stopService();
}

void SocketService::startService(std::uint16_t port, const char* who,
                                 TransportConfig transport) {
  cfg_ = transport;
  if (cfg_.eventLoopThreads == 0) cfg_.eventLoopThreads = 1;
  if (cfg_.handlerThreads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    cfg_.handlerThreads = std::max<std::size_t>(
        2, std::min<std::size_t>(8, hw == 0 ? 2 : hw));
  }
  if (cfg_.maxPipelinedFrames == 0) cfg_.maxPipelinedFrames = 1;

  const Listener listener = listenLoopback(port, who);
  listenFd_ = listener.fd;
  port_ = listener.port;

  const int flags = ::fcntl(listenFd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(listenFd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    closeFd(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error(std::string(who) +
                             ": nonblocking listener setup failed");
  }
  reactor_ = std::make_unique<Reactor>();
  try {
    for (std::size_t i = 0; i < cfg_.eventLoopThreads; ++i) {
      auto loop = std::make_unique<Loop>();
      loop->epollFd = ::epoll_create1(EPOLL_CLOEXEC);
      loop->eventFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
      if (loop->epollFd < 0 || loop->eventFd < 0) {
        closeFd(loop->epollFd);
        closeFd(loop->eventFd);
        throw std::runtime_error(std::string(who) +
                                 ": epoll/eventfd setup failed");
      }
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kTagEventFd;
      ::epoll_ctl(loop->epollFd, EPOLL_CTL_ADD, loop->eventFd, &ev);
      if (cfg_.idleTimeoutMs > 0) {
        loop->wheel.assign(Loop::kWheelSlots, {});
        loop->tick = std::chrono::milliseconds(
            std::clamp(cfg_.idleTimeoutMs / 16, 5, 1000));
        loop->wheelBase = std::chrono::steady_clock::now();
      }
      reactor_->loops.push_back(std::move(loop));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagListener;
    if (::epoll_ctl(reactor_->loops[0]->epollFd, EPOLL_CTL_ADD, listenFd_,
                    &ev) != 0) {
      throw std::runtime_error(std::string(who) +
                               ": registering the listener failed");
    }
  } catch (...) {
    for (auto& loop : reactor_->loops) {
      closeFd(loop->epollFd);
      closeFd(loop->eventFd);
    }
    reactor_.reset();
    closeFd(listenFd_);
    listenFd_ = -1;
    throw;
  }
  for (std::size_t i = 0; i < reactor_->loops.size(); ++i) {
    reactor_->loops[i]->thread = std::thread([this, i] { loopMain(i); });
  }
  for (std::size_t h = 0; h < cfg_.handlerThreads; ++h) {
    reactor_->handlers.emplace_back([this] { handlerMain(); });
  }
}

void SocketService::stopService() {
  const std::lock_guard<std::mutex> stopLock(stopMu_);
  if (stopped_) return;
  stopped_ = true;
  if (reactor_ != nullptr) stopReactor();
}

TransportTotals SocketService::transportTotals() const {
  TransportTotals t;
  t.accepted = accepted_.load(std::memory_order_relaxed);
  t.refusedOverLimit = refused_.load(std::memory_order_relaxed);
  t.idleClosed = idleClosed_.load(std::memory_order_relaxed);
  t.streamErrors = streamErrors_.load(std::memory_order_relaxed);
  t.peakWriteQueueBytes = peakWriteQueue_.load(std::memory_order_relaxed);
  t.liveConnections = live_.load(std::memory_order_relaxed);
  if (reactor_ != nullptr) {
    t.transportThreads = reactor_->loops.size() + reactor_->handlers.size();
  }
  return t;
}

void SocketService::refuseOverLimit(int fd) {
  refused_.fetch_add(1, std::memory_order_relaxed);
  // Best-effort refusal before the clean shutdown: a fresh connection's
  // send buffer is empty, so the tiny error frame goes out without
  // blocking even on a nonblocking fd. Deliberately not counted in the
  // IoCounters — refused connections never enter the frame stream.
  const std::string frame =
      fsw::encodeFrame(FrameType::Error, "service at connection capacity");
  (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_RDWR);
  closeFd(fd);
}

void SocketService::bumpPeakQueue(std::size_t depth) {
  std::size_t prev = peakWriteQueue_.load(std::memory_order_relaxed);
  while (depth > prev && !peakWriteQueue_.compare_exchange_weak(
                             prev, depth, std::memory_order_relaxed)) {
  }
}

// ---- SocketService: Responder ----------------------------------------------

bool SocketService::Responder::send(FrameType type, std::string_view payload) {
  std::string frame = fsw::encodeFrame(type, payload);
  const std::size_t size = frame.size();
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(conn_->mu);
    if (conn_->closed.load(std::memory_order_relaxed)) return false;
    conn_->outBytes += size;
    depth = conn_->outBytes;
    conn_->outbox.push_back(std::move(frame));
  }
  // Counted at the commit point (enqueue): by the time the peer holds the
  // reply, the host's counters already include it.
  svc_->io_.framesOut.fetch_add(1, std::memory_order_relaxed);
  svc_->io_.bytesOut.fetch_add(size, std::memory_order_relaxed);
  svc_->bumpPeakQueue(depth);
  svc_->wakeConn(conn_);
  return true;
}

// ---- SocketService: the epoll reactor --------------------------------------

void SocketService::loopMain(std::size_t index) {
  Loop& loop = *reactor_->loops[index];
  std::vector<epoll_event> events(64);
  bool drainSwept = false;
  for (;;) {
    int timeoutMs = -1;
    if (cfg_.idleTimeoutMs > 0 && !loop.conns.empty()) {
      timeoutMs = static_cast<int>(loop.tick.count());
    }
    const int n = ::epoll_wait(loop.epollFd, events.data(),
                               static_cast<int>(events.size()), timeoutMs);
    if (n < 0 && errno != EINTR) return;
    for (int i = 0; i < std::max(n, 0); ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u64 == kTagEventFd) {
        std::uint64_t token = 0;
        while (::read(loop.eventFd, &token, sizeof(token)) > 0) {
        }
        continue;
      }
      if (ev.data.u64 == kTagListener) {
        acceptReady(loop);
        continue;
      }
      Conn* raw = static_cast<Conn*>(ev.data.ptr);
      if (raw == nullptr || raw->closed.load(std::memory_order_acquire)) {
        continue;
      }
      const auto it = loop.conns.find(raw->fd);
      if (it == loop.conns.end() || it->second.get() != raw) continue;
      const std::shared_ptr<Conn> conn = it->second;
      if (ev.events & EPOLLERR) {
        closeConn(loop, conn);
        continue;
      }
      if (ev.events & EPOLLOUT) flushConn(loop, conn);
      if (conn->closed.load(std::memory_order_relaxed)) continue;
      if (ev.events & EPOLLIN) handleReadable(loop, conn);
      if (conn->closed.load(std::memory_order_relaxed)) continue;
      if ((ev.events & EPOLLHUP) && conn->parked) {
        // Full hangup on a parked connection: nothing can be read (reads
        // are disarmed) and nothing sent will be received — close, or a
        // level-triggered HUP would spin this loop forever.
        closeConn(loop, conn);
      }
    }
    processWakes(loop);
    if (cfg_.idleTimeoutMs > 0) wheelAdvance(loop);
    if (reactor_->draining.load(std::memory_order_acquire) && !drainSwept) {
      drainSwept = true;
      if (index == 0 && !reactor_->listenerClosed.exchange(true)) {
        ::epoll_ctl(loop.epollFd, EPOLL_CTL_DEL, listenFd_, nullptr);
        closeFd(listenFd_);
        listenFd_ = -1;
      }
      // Park every read and kick every flush: no new frames during drain,
      // queued replies keep going out.
      std::vector<std::shared_ptr<Conn>> conns;
      conns.reserve(loop.conns.size());
      for (const auto& [fd, c] : loop.conns) conns.push_back(c);
      for (const auto& c : conns) {
        updateInterest(loop, c);
        flushConn(loop, c);
      }
    }
    loop.graveyard.clear();
    if (reactor_->loopStop.load(std::memory_order_acquire)) {
      std::vector<std::shared_ptr<Conn>> conns;
      conns.reserve(loop.conns.size());
      for (const auto& [fd, c] : loop.conns) conns.push_back(c);
      for (const auto& c : conns) closeConn(loop, c);
      loop.graveyard.clear();
      return;
    }
  }
}

void SocketService::acceptReady(Loop& loop) {
  for (;;) {
    const int fd =
        ::accept4(listenFd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or the listener is gone
    }
    if (reactor_->draining.load(std::memory_order_acquire)) {
      closeFd(fd);
      continue;
    }
    if (cfg_.maxConnections > 0 &&
        live_.load(std::memory_order_relaxed) >= cfg_.maxConnections) {
      refuseOverLimit(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    live_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->loopIndex = reactor_->nextLoop++ % reactor_->loops.size();
    {
      const std::lock_guard<std::mutex> lock(reactor_->connsMu);
      reactor_->allConns.insert(conn);
    }
    if (conn->loopIndex == 0) {
      registerConn(loop, conn);  // we ARE loop 0
    } else {
      Loop& target = *reactor_->loops[conn->loopIndex];
      {
        const std::lock_guard<std::mutex> lock(target.mu);
        target.incoming.push_back(std::move(conn));
      }
      wakeLoop(target);
    }
  }
}

void SocketService::registerConn(Loop& loop,
                                 const std::shared_ptr<Conn>& conn) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(loop.epollFd, EPOLL_CTL_ADD, conn->fd, &ev) != 0) {
    conn->closed.store(true, std::memory_order_release);
    closeFd(conn->fd);
    {
      const std::lock_guard<std::mutex> lock(reactor_->connsMu);
      reactor_->allConns.erase(conn);
    }
    live_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  conn->armed = EPOLLIN;
  loop.conns[conn->fd] = conn;
  if (cfg_.idleTimeoutMs > 0) {
    conn->deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(cfg_.idleTimeoutMs);
    wheelSchedule(loop, conn);
  }
  updateInterest(loop, conn);  // parks immediately if a drain raced the add
}

void SocketService::handleReadable(Loop& loop,
                                   const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_relaxed) || conn->parked) return;
  bool eof = false;
  bool error = false;
  char buf[64 * 1024];
  std::size_t total = 0;
  for (;;) {
    const ssize_t got = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (got > 0) {
      conn->rbuf.append(buf, static_cast<std::size_t>(got));
      total += static_cast<std::size_t>(got);
      // Fairness cap: a firehose peer yields after 1 MiB; level-triggered
      // epoll re-reports the leftover on the next wait.
      if (static_cast<std::size_t>(got) < sizeof(buf) || total >= (1u << 20)) {
        break;
      }
      continue;
    }
    if (got == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    error = true;
    break;
  }
  parseFrames(loop, conn);
  if (conn->closed.load(std::memory_order_relaxed)) return;
  if (error) {
    closeConn(loop, conn);
    return;
  }
  if (eof) {
    if (conn->rbuf.size() > conn->rpos) {
      // EOF mid-frame: a truncated stream, same discipline as
      // ReadStatus::Bad.
      streamErrors_.fetch_add(1, std::memory_order_relaxed);
      closeConn(loop, conn);
      return;
    }
    {
      const std::lock_guard<std::mutex> lock(conn->mu);
      conn->readClosed = true;
    }
    updateInterest(loop, conn);  // half-close: reads off,
    flushConn(loop, conn);       // in-flight frames drain, then close
  }
}

void SocketService::parseFrames(Loop& loop,
                                const std::shared_ptr<Conn>& conn) {
  bool gotFrame = false;
  for (;;) {
    const std::size_t avail = conn->rbuf.size() - conn->rpos;
    if (avail < kFrameHeaderSize) break;
    const char* h = conn->rbuf.data() + conn->rpos;
    if (std::memcmp(h, kFrameMagic, sizeof(kFrameMagic)) != 0) {
      streamErrors_.fetch_add(1, std::memory_order_relaxed);
      closeConn(loop, conn);
      return;
    }
    if (static_cast<std::uint8_t>(h[4]) != kFrameVersion) {
      // Same discipline as ReadStatus::WrongVersion: answer, then drop
      // (once the error frame has flushed).
      streamErrors_.fetch_add(1, std::memory_order_relaxed);
      std::string frame =
          fsw::encodeFrame(FrameType::Error, wrongVersionMessage());
      const std::size_t size = frame.size();
      {
        const std::lock_guard<std::mutex> lock(conn->mu);
        conn->outBytes += size;
        conn->outbox.push_back(std::move(frame));
        conn->closeAfterFlush = true;
      }
      io_.framesOut.fetch_add(1, std::memory_order_relaxed);
      io_.bytesOut.fetch_add(size, std::memory_order_relaxed);
      updateInterest(loop, conn);
      flushConn(loop, conn);
      return;
    }
    const char type = h[5];
    if (!frameTypeKnown(type)) {
      streamErrors_.fetch_add(1, std::memory_order_relaxed);
      closeConn(loop, conn);
      return;
    }
    std::uint32_t len = 0;
    for (std::size_t i = 6; i < kFrameHeaderSize; ++i) {
      len = (len << 8) | static_cast<std::uint8_t>(h[i]);
    }
    if (len > kMaxFramePayload) {
      streamErrors_.fetch_add(1, std::memory_order_relaxed);
      closeConn(loop, conn);
      return;
    }
    if (avail < kFrameHeaderSize + len) break;  // partial frame: wait
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.payload.assign(h + kFrameHeaderSize, len);
    conn->rpos += kFrameHeaderSize + len;
    io_.framesIn.fetch_add(1, std::memory_order_relaxed);
    io_.bytesIn.fetch_add(kFrameHeaderSize + len, std::memory_order_relaxed);
    bool dispatch = false;
    {
      const std::lock_guard<std::mutex> lock(conn->mu);
      conn->inbox.push_back(std::move(frame));
      if (!conn->handling) {
        conn->handling = true;
        dispatch = true;
      }
    }
    if (dispatch) enqueueHandlerWork(conn);
    gotFrame = true;
  }
  if (conn->rpos > 0) {
    conn->rbuf.erase(0, conn->rpos);
    conn->rpos = 0;
  }
  if (gotFrame) {
    // The idle clock refreshes ONLY on complete parsed frames — a
    // slow-loris trickling bytes never resets it.
    if (cfg_.idleTimeoutMs > 0) {
      conn->deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(cfg_.idleTimeoutMs);
      wheelSchedule(loop, conn);
    }
    updateInterest(loop, conn);  // park if the inbox/outbox caps tripped
  }
}

void SocketService::flushConn(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  bool blocked = false;
  bool dead = false;
  bool finished = false;
  {
    const std::lock_guard<std::mutex> lock(conn->mu);
    while (!conn->outbox.empty()) {
      const std::string& front = conn->outbox.front();
      const ssize_t sent = ::send(conn->fd, front.data() + conn->outPos,
                                  front.size() - conn->outPos, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          blocked = true;  // kernel buffer full: EPOLLOUT resumes us
          break;
        }
        dead = true;  // peer gone mid-reply
        break;
      }
      conn->outPos += static_cast<std::size_t>(sent);
      conn->outBytes -= static_cast<std::size_t>(sent);
      if (conn->outPos == front.size()) {
        conn->outbox.pop_front();
        conn->outPos = 0;
      }
    }
    if (!dead && conn->outbox.empty()) {
      if (conn->closeAfterFlush) {
        dead = true;  // everything owed is out: drop as requested
      } else if (conn->readClosed && conn->inbox.empty() && !conn->handling) {
        finished = true;  // half-closed peer got every reply: finish
      }
    }
  }
  if (dead || finished) {
    closeConn(loop, conn);
    return;
  }
  conn->wantWrite = blocked;
  updateInterest(loop, conn);
}

void SocketService::updateInterest(Loop& loop,
                                   const std::shared_ptr<Conn>& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  bool park = reactor_->draining.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->readClosed || conn->closeAfterFlush) park = true;
    if (conn->inbox.size() >= cfg_.maxPipelinedFrames) park = true;
    if (conn->outBytes >= cfg_.writeQueueCap) park = true;
  }
  conn->parked = park;
  const std::uint32_t want =
      (park ? 0u : EPOLLIN) | (conn->wantWrite ? EPOLLOUT : 0u);
  if (want == conn->armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(loop.epollFd, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->armed = want;
  }
}

void SocketService::closeConn(Loop& loop, const std::shared_ptr<Conn>& conn,
                              bool countIdle) {
  {
    const std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed.load(std::memory_order_relaxed)) return;
    conn->closed.store(true, std::memory_order_release);
    conn->inbox.clear();
    conn->outbox.clear();
    conn->outPos = 0;
    conn->outBytes = 0;
  }
  if (countIdle) idleClosed_.fetch_add(1, std::memory_order_relaxed);
  ::epoll_ctl(loop.epollFd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::shutdown(conn->fd, SHUT_RDWR);
  closeFd(conn->fd);
  loop.conns.erase(conn->fd);
  loop.graveyard.push_back(conn);
  {
    const std::lock_guard<std::mutex> lock(reactor_->connsMu);
    reactor_->allConns.erase(conn);
  }
  live_.fetch_sub(1, std::memory_order_relaxed);
}

void SocketService::processWakes(Loop& loop) {
  std::vector<std::shared_ptr<Conn>> incoming;
  std::vector<std::shared_ptr<Conn>> wakes;
  {
    const std::lock_guard<std::mutex> lock(loop.mu);
    incoming.swap(loop.incoming);
    wakes.swap(loop.wakes);
  }
  for (const auto& conn : incoming) registerConn(loop, conn);
  for (const auto& conn : wakes) {
    if (conn->closed.load(std::memory_order_relaxed)) continue;
    flushConn(loop, conn);  // also unparks / closes-after-flush / finishes
    if (conn->closed.load(std::memory_order_relaxed)) continue;
    if (cfg_.idleTimeoutMs > 0) {
      // Handler/reply activity counts as liveness.
      conn->deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(cfg_.idleTimeoutMs);
      wheelSchedule(loop, conn);
    }
  }
}

void SocketService::wheelSchedule(Loop& loop,
                                  const std::shared_ptr<Conn>& conn) {
  if (cfg_.idleTimeoutMs <= 0 || conn->inWheel ||
      conn->closed.load(std::memory_order_relaxed)) {
    return;
  }
  // Lazy wheel: at most one entry per conn; the deadline field is the
  // truth, slots only bound when we look again.
  const auto delta = conn->deadline - loop.wheelBase;
  long ticks = loop.tick.count() > 0 ? delta / loop.tick + 1 : 1;
  ticks = std::clamp<long>(ticks, 1,
                           static_cast<long>(Loop::kWheelSlots) - 1);
  loop.wheel[(loop.wheelCursor + static_cast<std::size_t>(ticks)) %
             Loop::kWheelSlots]
      .push_back(conn);
  conn->inWheel = true;
}

void SocketService::wheelAdvance(Loop& loop) {
  const auto now = std::chrono::steady_clock::now();
  int steps = 0;
  while (loop.wheelBase + loop.tick <= now) {
    if (++steps > static_cast<int>(2 * Loop::kWheelSlots)) {
      loop.wheelBase = now;  // stalled (VM pause): rebase, deadlines decide
      break;
    }
    loop.wheelBase += loop.tick;
    loop.wheelCursor = (loop.wheelCursor + 1) % Loop::kWheelSlots;
    std::vector<std::weak_ptr<Conn>> due;
    due.swap(loop.wheel[loop.wheelCursor]);
    for (const auto& weak : due) {
      const std::shared_ptr<Conn> conn = weak.lock();
      if (!conn || conn->closed.load(std::memory_order_relaxed)) continue;
      conn->inWheel = false;
      if (conn->deadline > now) {
        wheelSchedule(loop, conn);
        continue;
      }
      bool idle = false;
      {
        const std::lock_guard<std::mutex> lock(conn->mu);
        idle = conn->inbox.empty() && !conn->handling && conn->outbox.empty();
      }
      if (idle) {
        closeConn(loop, conn, /*countIdle=*/true);
      } else {
        // A solve in flight or replies still flushing is not idle: push
        // the clock forward instead of reaping under the peer.
        conn->deadline =
            now + std::chrono::milliseconds(cfg_.idleTimeoutMs);
        wheelSchedule(loop, conn);
      }
    }
  }
}

void SocketService::wakeConn(const std::shared_ptr<Conn>& conn) {
  Loop& loop = *reactor_->loops[conn->loopIndex];
  {
    const std::lock_guard<std::mutex> lock(loop.mu);
    loop.wakes.push_back(conn);
  }
  wakeLoop(loop);
}

void SocketService::wakeLoop(Loop& loop) {
  const std::uint64_t one = 1;
  while (::write(loop.eventFd, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

void SocketService::enqueueHandlerWork(const std::shared_ptr<Conn>& conn) {
  {
    const std::lock_guard<std::mutex> lock(reactor_->handlerMu);
    reactor_->handlerQueue.push_back(conn);
  }
  reactor_->handlerCv.notify_one();
}

void SocketService::handlerMain() {
  Reactor& r = *reactor_;
  for (;;) {
    std::shared_ptr<Conn> conn;
    {
      std::unique_lock<std::mutex> lock(r.handlerMu);
      r.handlerCv.wait(lock,
                       [&] { return r.handlerStop || !r.handlerQueue.empty(); });
      if (r.handlerQueue.empty()) return;  // stopping, queue drained
      conn = std::move(r.handlerQueue.front());
      r.handlerQueue.pop_front();
    }
    // Drain this connection's inbox: one frame at a time, in arrival
    // order (replies for pipelined peers stay in order). `handling` keeps
    // exactly one handler on a connection.
    for (;;) {
      Frame frame;
      {
        const std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->inbox.empty() ||
            conn->closed.load(std::memory_order_relaxed) ||
            conn->closeAfterFlush) {
          conn->handling = false;
          break;
        }
        frame = std::move(conn->inbox.front());
        conn->inbox.pop_front();
      }
      Responder out(this, conn);
      try {
        handleFrame(out, std::move(frame));
      } catch (...) {
        out.close_ = true;  // an escaping handler poisons the connection
      }
      if (out.close_) {
        const std::lock_guard<std::mutex> lock(conn->mu);
        conn->closeAfterFlush = true;
        conn->inbox.clear();  // frames behind a close-worthy one are dropped
        conn->handling = false;
        break;
      }
    }
    wakeConn(conn);  // flush replies, unpark reads, or finish the close
  }
}

void SocketService::stopReactor() {
  Reactor& r = *reactor_;
  // 1. Stop accepting and park every read: no new frames enter.
  r.draining.store(true, std::memory_order_release);
  for (auto& loop : r.loops) wakeLoop(*loop);
  // 2. Finish in-flight frames: handlers drain every parsed inbox, then
  // exit. Deliberately unbounded — a frame mid-solve completes and its
  // reply is committed while the loops keep flushing.
  {
    const std::lock_guard<std::mutex> lock(r.handlerMu);
    r.handlerStop = true;
  }
  r.handlerCv.notify_all();
  for (auto& t : r.handlers) {
    if (t.joinable()) t.join();
  }
  // 3. Bounded flush: wait for every write queue to empty (or its peer to
  // vanish), up to drainTimeoutMs; stragglers are force-closed below.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(std::max(0, cfg_.drainTimeoutMs));
  for (;;) {
    bool quiescent = true;
    {
      const std::lock_guard<std::mutex> lock(r.connsMu);
      for (const auto& conn : r.allConns) {
        const std::lock_guard<std::mutex> cl(conn->mu);
        if (!conn->outbox.empty() || conn->handling ||
            !conn->inbox.empty()) {
          quiescent = false;
          break;
        }
      }
    }
    if (quiescent || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // 4. Tear the loops down; they force-close whatever is left.
  r.loopStop.store(true, std::memory_order_release);
  for (auto& loop : r.loops) wakeLoop(*loop);
  for (auto& loop : r.loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  if (!r.listenerClosed.load(std::memory_order_relaxed) && listenFd_ >= 0) {
    closeFd(listenFd_);  // the loops never ran the drain sweep
  }
  listenFd_ = -1;
  for (auto& loop : r.loops) {
    closeFd(loop->eventFd);
    closeFd(loop->epollFd);
    loop->conns.clear();
    loop->graveyard.clear();
  }
  const std::lock_guard<std::mutex> lock(r.connsMu);
  r.allConns.clear();
}

}  // namespace fsw::frameio
