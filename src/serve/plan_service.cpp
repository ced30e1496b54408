#include "src/serve/plan_service.hpp"

#include <sys/socket.h>

#include <utility>

#include "src/io/serialize.hpp"

namespace fsw {

using frameio::closeFd;
using frameio::Frame;
using frameio::readFrame;
using frameio::ReadStatus;
using frameio::sendFrame;

// ---- PlanServiceHost -------------------------------------------------------

PlanServiceHost::PlanServiceHost(ServiceHostConfig config)
    : config_(std::move(config)) {
  if (config_.server != nullptr) {
    server_ = config_.server;
  } else {
    ownedServer_ = std::make_unique<PlanServer>(config_.serverConfig);
    server_ = ownedServer_.get();
  }
  startService(config_.port, "PlanServiceHost", config_.transport);
}

PlanServiceHost::~PlanServiceHost() { stop(); }

void PlanServiceHost::handleFrame(Responder& out, Frame frame) {
  // Frame-level discipline (garbage/truncation -> drop, wrong version ->
  // error then drop) already ran in the shared transport; only
  // well-formed frames arrive here.
  if (frame.type != FrameType::Request) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.errors;
    }
    (void)out.send(FrameType::Error, "expected a request frame");
    out.closeAfterReply();
    return;
  }

  // From here the length prefix has kept the stream in sync, so payload
  // problems are answered with an error frame and the connection stays
  // serviceable.
  std::string error;
  try {
    WirePlanRequest wire = decodePlanRequest(frame.payload);
    if (wire.portfolio != "-") {
      const CandidateRegistry* registry =
          config_.resolvePortfolio ? config_.resolvePortfolio(wire.portfolio)
                                   : nullptr;
      // The built-in portfolio always resolves, resolver or not — a
      // custom resolver extends the name space, it never revokes the
      // default (a resolver may still shadow "builtin" by resolving it
      // itself).
      if (registry == nullptr &&
          wire.portfolio == CandidateRegistry::builtin().name()) {
        registry = &CandidateRegistry::builtin();
      }
      if (registry == nullptr) {
        throw std::runtime_error("unknown portfolio '" + wire.portfolio +
                                 "'");
      }
      wire.request.options.registry = registry;
    }
    const OptimizedPlan plan =
        server_->submit(std::move(wire.request), wire.priority).get();
    const std::string encoded = encodeOptimizedPlan(plan);
    {
      // Counted before the reply is committed (as the error path counts
      // before its frame): once a client holds the result, a stats()
      // snapshot must already include it.
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests;
    }
    (void)out.send(FrameType::Result, encoded);
    return;
  } catch (const std::exception& e) {
    error = e.what();
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.errors;
  }
  (void)out.send(FrameType::Error, error);
}

PlanServiceHost::Stats PlanServiceHost::stats() const {
  Stats snapshot;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snapshot = stats_;
  }
  snapshot.connections = acceptedConnections();
  const frameio::IoTotals io = ioTotals();
  snapshot.framesIn = io.framesIn;
  snapshot.bytesIn = io.bytesIn;
  snapshot.framesOut = io.framesOut;
  snapshot.bytesOut = io.bytesOut;
  const frameio::TransportTotals t = transportTotals();
  // Dropped streams (garbage, truncation, version mismatches) are counted
  // by the transport; fold them into the host's error ledger as before.
  snapshot.errors += t.streamErrors;
  snapshot.refusedOverLimit = t.refusedOverLimit;
  snapshot.idleClosed = t.idleClosed;
  snapshot.peakWriteQueueBytes = t.peakWriteQueueBytes;
  snapshot.transportThreads = t.transportThreads;
  return snapshot;
}

// ---- RemotePlanClient ------------------------------------------------------

RemotePlanClient::RemotePlanClient(const std::string& host,
                                   std::uint16_t port, int ioTimeoutMs) {
  // The connect is bounded either way (connectTcp's own default); when an
  // I/O timeout is configured it also caps the connect so a black-holed
  // host fails in ioTimeoutMs everywhere, not just after the handshake.
  fd_ = frameio::connectTcp(host, port, "RemotePlanClient",
                            ioTimeoutMs > 0 ? ioTimeoutMs : 10000);
  frameio::setIoTimeout(fd_, ioTimeoutMs);
  sender_ = std::thread([this] { senderLoop(); });
}

RemotePlanClient::~RemotePlanClient() { close(); }

std::future<OptimizedPlan> RemotePlanClient::submit(
    const PlanRequest& request, int priority) {
  // Encode eagerly: a non-portable request (unnamed portfolio) throws
  // std::invalid_argument here, synchronously, like the codec itself.
  Pending pending;
  pending.payload = encodePlanRequest(request, priority);
  std::future<OptimizedPlan> future = pending.promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      pending.promise.set_exception(std::make_exception_ptr(
          RemotePlanError("RemotePlanClient: submit after close",
                          /*transport=*/true)));
      return future;
    }
    ++stats_.submitted;
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

OptimizedPlan RemotePlanClient::optimize(const PlanRequest& request,
                                         int priority) {
  return submit(request, priority).get();
}

void RemotePlanClient::senderLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left queued
      pending = std::move(queue_.front());
      queue_.erase(queue_.begin());
    }

    std::exception_ptr failure;
    try {
      if (!sendFrame(fd_, FrameType::Request, pending.payload, &io_)) {
        throw RemotePlanError("RemotePlanClient: connection lost (send)",
                              /*transport=*/true);
      }
      Frame frame;
      const ReadStatus status = readFrame(fd_, frame, &io_);
      if (status != ReadStatus::Ok) {
        // Covers a clean drop AND a garbled/truncated result frame: a
        // stream that breaks mid-frame cannot be resynchronized, so the
        // future fails with a transport error — never a misparsed plan.
        throw RemotePlanError("RemotePlanClient: connection lost (recv)",
                              /*transport=*/true);
      }
      if (frame.type == FrameType::Error) {
        throw RemotePlanError("remote: " + frame.payload);
      }
      if (frame.type != FrameType::Result) {
        throw RemotePlanError("RemotePlanClient: unexpected frame type",
                              /*transport=*/true);
      }
      OptimizedPlan plan;
      try {
        plan = decodeOptimizedPlan(frame.payload);
      } catch (const std::exception& e) {
        // A well-framed but undecodable result: the host is not speaking
        // our codec. Transport-class — a retry elsewhere is sound because
        // solves are idempotent.
        throw RemotePlanError(
            std::string("RemotePlanClient: undecodable result (") + e.what() +
                ")",
            /*transport=*/true);
      }
      {
        const std::lock_guard<std::mutex> lock(mu_);
        ++stats_.served;
      }
      pending.promise.set_value(std::move(plan));
      continue;
    } catch (const RemotePlanError& e) {
      if (e.transport()) {
        // The stream cannot be resynchronized after a transport failure:
        // kill the socket so every later queued request fails fast with
        // the same error instead of blocking on a desynchronized fd.
        ::shutdown(fd_, SHUT_RDWR);
      }
      failure = std::current_exception();
    } catch (...) {
      failure = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.failed;
    }
    pending.promise.set_exception(failure);
  }
}

void RemotePlanClient::close() {
  std::vector<Pending> orphans;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    orphans.swap(queue_);
    stats_.failed += orphans.size();
  }
  cv_.notify_all();
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);  // unblocks the sender's recv
  if (sender_.joinable()) sender_.join();
  if (fd_ >= 0) {
    closeFd(fd_);
    fd_ = -1;
  }
  for (auto& orphan : orphans) {
    orphan.promise.set_exception(std::make_exception_ptr(
        RemotePlanError("RemotePlanClient: closed before dispatch",
                        /*transport=*/true)));
  }
}

RemotePlanClient::Stats RemotePlanClient::stats() const {
  Stats snapshot;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snapshot = stats_;
  }
  const frameio::IoTotals io = frameio::totals(io_);
  snapshot.bytesSent = io.bytesOut;
  snapshot.bytesReceived = io.bytesIn;
  return snapshot;
}

}  // namespace fsw
