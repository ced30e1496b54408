#include "src/serve/result_store.hpp"

#include <sys/socket.h>

#include <cmath>
#include <utility>

namespace fsw {

using frameio::closeFd;
using frameio::Frame;
using frameio::readFrame;
using frameio::ReadStatus;
using frameio::sendFrame;

// ---- ResultStoreHost -------------------------------------------------------

ResultStoreHost::ResultStoreHost(ResultStoreConfig config)
    : config_(config),
      results_(config.capacity),
      bounds_(config.boundCapacity) {
  startService(config_.port, "ResultStoreHost", config_.transport);
}

ResultStoreHost::~ResultStoreHost() { stop(); }

void ResultStoreHost::handleFrame(Responder& out, Frame frame) {
  // Frame-level discipline already ran in the shared transport; only
  // well-formed frames arrive here. The length prefix kept the stream in
  // sync: payload problems are answered with an error frame and the
  // connection stays serviceable.
  std::string error;
  try {
    std::string encoded;
    switch (frame.type) {
      case FrameType::StoreGet: {
        const StoreGet get = decodeStoreGet(frame.payload);
        if (get.near) {
          // Near (prefix) GET: `key` is a structural prefix; answer with
          // the most recently stored winner sharing it. NO bound travels —
          // a neighbor's value is not a bound for the asker's key; the
          // asker re-evaluates the plan under its own parameters.
          const auto neighbor = bounds_.nearestKey(get.key);
          const ResultCache::Entry entry =
              neighbor ? results_.lookup(*neighbor) : ResultCache::Entry{};
          const double noBound = std::numeric_limits<double>::infinity();
          encoded = encodeStoreReply(entry.get(), noBound);
          const std::lock_guard<std::mutex> lock(mu_);
          ++stats_.nearGets;
          if (entry != nullptr) ++stats_.nearHits;
          break;
        }
        // wantPlan = false is a bound-only probe (the asker re-solves by
        // policy): skip the result lookup so no plan is serialized just
        // to be discarded on the far side.
        const ResultCache::Entry entry =
            get.wantPlan ? results_.lookup(get.key) : ResultCache::Entry{};
        // The board's bound travels on every reply: a stored winner's
        // value IS its bound, and an evicted winner's bound survives on
        // the board — either way the asker learns the fleet incumbent.
        const double bound =
            bounds_.lookup(get.key).value_or(
                std::numeric_limits<double>::infinity());
        encoded = encodeStoreReply(entry.get(), bound);
        {
          const std::lock_guard<std::mutex> lock(mu_);
          ++stats_.gets;
          if (entry != nullptr) ++stats_.hits;
          if (std::isfinite(bound)) ++stats_.boundHits;
        }
        break;
      }
      case FrameType::StorePut: {
        StorePut put = decodeStorePut(frame.payload);
        (void)results_.insert(put.key, put.plan);
        bounds_.publish(put.key, put.plan.value);
        // The ack echoes the published value — frame sync for the
        // pipelined putter, no extra board lookup.
        encoded = encodeStoreReply(nullptr, put.plan.value);
        const std::lock_guard<std::mutex> lock(mu_);
        ++stats_.puts;
        break;
      }
      case FrameType::StoreStats: {
        StoreStatsWire wire;
        const ResultCache::Stats rs = results_.stats();
        wire.entries = results_.size();
        wire.evictions = rs.evictions;
        wire.bounds = bounds_.size();
        {
          const std::lock_guard<std::mutex> lock(mu_);
          wire.gets = stats_.gets;
          wire.hits = stats_.hits;
          wire.boundHits = stats_.boundHits;
          wire.puts = stats_.puts;
        }
        const frameio::IoTotals io = ioTotals();
        wire.framesIn = io.framesIn;
        wire.bytesIn = io.bytesIn;
        wire.framesOut = io.framesOut;
        wire.bytesOut = io.bytesOut;
        // The transport ledger (PR 8): who the store accepts, refuses and
        // reaps, and the backpressure high-water mark — the sparse
        // per-host accounting fleet operators read instead of attaching
        // heavyweight instrumentation.
        const frameio::TransportTotals t = transportTotals();
        wire.accepted = t.accepted;
        wire.refusedOverLimit = t.refusedOverLimit;
        wire.idleClosed = t.idleClosed;
        wire.peakWriteQueueBytes = t.peakWriteQueueBytes;
        encoded = encodeStoreStats(wire);
        break;
      }
      default:
        throw std::runtime_error("expected a store frame (GET/PUT/STATS)");
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

ResultStoreHost::Stats ResultStoreHost::stats() const {
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
  snapshot.errors += t.streamErrors;
  snapshot.refusedOverLimit = t.refusedOverLimit;
  snapshot.idleClosed = t.idleClosed;
  snapshot.peakWriteQueueBytes = t.peakWriteQueueBytes;
  snapshot.transportThreads = t.transportThreads;
  return snapshot;
}

// ---- RemoteResultStore -----------------------------------------------------

namespace {

/// Pipelined ops in flight per batch (getMany/putMany): enough to
/// amortize the round trip, small enough that the unread frames of either
/// direction can never fill both peers' socket buffers at once — the
/// write-everything-first alternative deadlocks via TCP flow control once
/// a large batch's frames exceed the buffers (client blocked in send,
/// host blocked in send, nobody reading).
constexpr std::size_t kPipelineWindow = 8;

}  // namespace

RemoteResultStore::RemoteResultStore(const std::string& host,
                                     std::uint16_t port, int ioTimeoutMs)
    : host_(host), port_(port), ioTimeoutMs_(ioTimeoutMs) {
  fd_ = frameio::connectTcp(host_, port_, "RemoteResultStore", ioTimeoutMs_);
  frameio::setIoTimeout(fd_, ioTimeoutMs_);
}

RemoteResultStore::~RemoteResultStore() { close(); }

bool RemoteResultStore::roundTrip(FrameType type, const std::string& payload,
                                  std::string& reply, std::string& error,
                                  bool& errorFrame) {
  // Caller holds mu_. Any transport failure closes the socket — the
  // stream cannot be resynchronized — and the client runs degraded until
  // reconnect().
  errorFrame = false;
  if (fd_ < 0) return false;
  const std::string frame = encodeFrame(type, payload);
  if (!frameio::sendAll(fd_, frame.data(), frame.size())) {
    closeFd(fd_);
    fd_ = -1;
    return false;
  }
  stats_.bytesSent += frame.size();
  Frame back;
  if (readFrame(fd_, back) != ReadStatus::Ok) {
    closeFd(fd_);
    fd_ = -1;
    return false;
  }
  stats_.bytesReceived += frameio::kFrameHeaderSize + back.payload.size();
  if (back.type == FrameType::Error) {
    errorFrame = true;
    error = std::move(back.payload);
    return true;
  }
  if (back.type != FrameType::Result) {
    closeFd(fd_);
    fd_ = -1;
    return false;
  }
  reply = std::move(back.payload);
  return true;
}

RemoteResultStore::Lookup RemoteResultStore::get(const std::string& key) {
  return std::move(getMany({key}).front());
}

RemoteResultStore::Lookup RemoteResultStore::getNear(
    const std::string& prefix) {
  Lookup lookup;
  const std::lock_guard<std::mutex> lock(mu_);
  ++stats_.nearGets;
  if (fd_ < 0) {
    ++stats_.failures;
    return lookup;  // degraded: a miss
  }
  const std::string payload =
      encodeStoreGet(prefix, /*wantPlan=*/true, /*near=*/true);
  const std::size_t sentBefore = stats_.bytesSent;
  const std::size_t receivedBefore = stats_.bytesReceived;
  std::string reply;
  std::string error;
  bool errorFrame = false;
  const bool ok = roundTrip(FrameType::StoreGet, payload, reply, error,
                            errorFrame);
  lookup.bytesSent = stats_.bytesSent - sentBefore;
  lookup.bytesReceived = stats_.bytesReceived - receivedBefore;
  if (!ok) {
    ++stats_.failures;
    return lookup;
  }
  if (errorFrame) {
    // The host rejected the payload with an error frame; the stream
    // stayed in sync, so only this hint degrades.
    ++stats_.failures;
    return lookup;
  }
  try {
    StoreReply decoded = decodeStoreReply(reply);
    // Any bound on a near reply is ignored by construction — a neighbor's
    // value is not a bound for the asker's key.
    if (decoded.found) {
      lookup.plan =
          std::make_shared<const OptimizedPlan>(std::move(decoded.plan));
      ++stats_.nearHits;
    }
  } catch (const std::exception&) {
    closeFd(fd_);
    fd_ = -1;
    ++stats_.failures;
  }
  return lookup;
}

std::vector<RemoteResultStore::Lookup> RemoteResultStore::getMany(
    const std::vector<std::string>& keys, bool wantPlans) {
  std::vector<Lookup> lookups(keys.size());
  if (keys.empty()) return lookups;

  const std::lock_guard<std::mutex> lock(mu_);
  stats_.gets += keys.size();
  if (fd_ < 0) {
    ++stats_.failures;
    return lookups;  // degraded: every key is a miss
  }
  // Pipelined with a bounded window: up to kPipelineWindow GET frames are
  // in flight before their replies are drained (the host answers in
  // order, so reply r belongs to key r). The window amortizes the round
  // trip like a full pipeline would, without the flow-control deadlock of
  // writing an unbounded batch before reading anything.
  std::size_t sent = 0;
  std::size_t received = 0;
  bool dead = false;
  while (received < keys.size() && !dead) {
    while (sent < keys.size() && sent - received < kPipelineWindow) {
      const std::string frame = encodeFrame(
          FrameType::StoreGet, encodeStoreGet(keys[sent], wantPlans));
      if (!frameio::sendAll(fd_, frame.data(), frame.size())) {
        dead = true;
        break;
      }
      // One frame per key each way: the wire cost attributes exactly.
      lookups[sent].bytesSent = frame.size();
      stats_.bytesSent += frame.size();
      ++sent;
    }
    if (dead || received >= sent) break;
    Frame back;
    if (readFrame(fd_, back) != ReadStatus::Ok) {
      dead = true;
      break;
    }
    const std::size_t replyBytes =
        frameio::kFrameHeaderSize + back.payload.size();
    lookups[received].bytesReceived = replyBytes;
    stats_.bytesReceived += replyBytes;
    if (back.type == FrameType::Error) {
      // A per-key payload error: the length prefix kept the stream in
      // sync, so only this key degrades.
      ++stats_.failures;
      ++received;
      continue;
    }
    if (back.type != FrameType::Result) {
      dead = true;
      break;
    }
    try {
      StoreReply decoded = decodeStoreReply(back.payload);
      lookups[received].bound = decoded.bound;
      if (decoded.found) {
        lookups[received].plan =
            std::make_shared<const OptimizedPlan>(std::move(decoded.plan));
        ++stats_.hits;
      }
      ++received;
    } catch (const std::exception&) {
      // An undecodable reply from a well-framed stream: the peer is not
      // speaking our codec — degrade.
      const std::size_t sentBytes = lookups[received].bytesSent;
      lookups[received] = Lookup{};
      lookups[received].bytesSent = sentBytes;
      lookups[received].bytesReceived = replyBytes;
      dead = true;
    }
  }
  if (dead) {
    closeFd(fd_);
    fd_ = -1;
    ++stats_.failures;  // the unanswered tail degrades to misses
  }
  return lookups;
}

void RemoteResultStore::put(const std::string& key,
                            const OptimizedPlan& plan) {
  putMany({key}, {&plan});
}

void RemoteResultStore::putMany(const std::vector<std::string>& keys,
                                const std::vector<const OptimizedPlan*>& plans,
                                std::vector<OpBytes>* perKey) {
  if (perKey != nullptr) {
    perKey->assign(keys.size(), OpBytes{});
  }
  if (keys.empty() || keys.size() != plans.size()) return;

  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    ++stats_.failures;
    return;  // degraded: publishes are no-ops
  }
  // Same bounded pipeline as getMany (acks are tiny, but the outbound PUT
  // frames are not — the window keeps the in-flight bytes under the
  // socket buffers in both directions).
  std::size_t sent = 0;
  std::size_t acked = 0;
  bool dead = false;
  while (acked < keys.size() && !dead) {
    while (sent < keys.size() && sent - acked < kPipelineWindow) {
      const std::string frame = encodeFrame(
          FrameType::StorePut, encodeStorePut(keys[sent], *plans[sent]));
      if (!frameio::sendAll(fd_, frame.data(), frame.size())) {
        dead = true;
        break;
      }
      if (perKey != nullptr) (*perKey)[sent].sent = frame.size();
      stats_.bytesSent += frame.size();
      ++sent;
    }
    if (dead || acked >= sent) break;
    Frame back;
    if (readFrame(fd_, back) != ReadStatus::Ok) {
      dead = true;
      break;
    }
    const std::size_t replyBytes =
        frameio::kFrameHeaderSize + back.payload.size();
    if (perKey != nullptr) (*perKey)[acked].received = replyBytes;
    stats_.bytesReceived += replyBytes;
    if (back.type == FrameType::Error) {
      ++stats_.failures;  // this key's publish was refused; stream lives
      ++acked;
      continue;
    }
    if (back.type != FrameType::Result) {
      dead = true;
      break;
    }
    ++stats_.puts;
    ++acked;
  }
  if (dead) {
    closeFd(fd_);
    fd_ = -1;
    ++stats_.failures;
  }
}

StoreStatsWire RemoteResultStore::remoteStats() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string reply;
  std::string error;
  bool errorFrame = false;
  // The STATS verb carries no payload: the frame type is the whole ask.
  if (!roundTrip(FrameType::StoreStats, std::string(), reply, error,
                 errorFrame)) {
    ++stats_.failures;
    throw RemotePlanError("RemoteResultStore: store unreachable",
                          /*transport=*/true);
  }
  if (errorFrame) {
    ++stats_.failures;
    throw RemotePlanError("remote: " + error);
  }
  return decodeStoreStats(reply);
}

bool RemoteResultStore::reconnect() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) return true;
  try {
    fd_ = frameio::connectTcp(host_, port_, "RemoteResultStore",
                              ioTimeoutMs_);
  } catch (const std::exception&) {
    return false;
  }
  frameio::setIoTimeout(fd_, ioTimeoutMs_);
  return true;
}

bool RemoteResultStore::connected() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0;
}

RemoteResultStore::Stats RemoteResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void RemoteResultStore::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    closeFd(fd_);
    fd_ = -1;
  }
}

}  // namespace fsw
