// The socket transport: client/host round trips over loopback TCP,
// bit-identity with serial solves, warm-cache repeats served with zero new
// orchestrations, concurrent clients sharing one pooled engine, and the
// frame-level rejection discipline (garbage, truncation,
// wrong versions) — the host never misparses and never wedges.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/io/binio.hpp"
#include "src/io/serialize.hpp"
#include "src/opt/optimizer.hpp"
#include "src/common/thread_pool.hpp"
#include "src/serve/plan_service.hpp"
#include "src/workload/generator.hpp"

namespace fsw {
namespace {

OptimizerOptions fastOptions() {
  OptimizerOptions opt;
  opt.exactForestMaxN = 5;
  opt.heuristics.iterations = 200;
  opt.heuristics.restarts = 2;
  opt.orchestrator.order.exactCap = 120;
  opt.orchestrator.outorder.restarts = 4;
  opt.orchestrator.outorder.bisectSteps = 4;
  return opt;
}

std::vector<PlanRequest> smallWorkload() {
  std::vector<PlanRequest> reqs;
  Prng rng(4242);
  for (const std::size_t n : {4u, 5u}) {
    WorkloadSpec spec;
    spec.n = n;
    const auto app = randomApplication(spec, rng);
    for (const CommModel m : kAllModels) {
      for (const Objective obj : {Objective::Period, Objective::Latency}) {
        reqs.push_back({app, m, obj, fastOptions()});
      }
    }
  }
  return reqs;
}

/// A raw loopback connection for protocol-violation tests.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Half-close: the host sees EOF after our last frame, replies to what
  /// it already has, then closes — so drain() terminates.
  void shutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until EOF (or `max` bytes), whatever the host sends back.
  std::string drain(std::size_t max = 1 << 20) {
    std::string out;
    char buf[4096];
    while (out.size() < max) {
      const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
      if (got <= 0) break;
      out.append(buf, static_cast<std::size_t>(got));
    }
    return out;
  }

 private:
  int fd_ = -1;
};

/// Splits a reply byte stream into (frame type, payload) pairs by the
/// frames' length prefixes.
std::vector<std::pair<char, std::string>> splitFrames(
    const std::string& replies) {
  std::vector<std::pair<char, std::string>> frames;
  for (std::size_t at = 0; at + 10 <= replies.size();) {
    std::uint32_t len = 0;
    for (std::size_t i = 6; i < 10; ++i) {
      len = (len << 8) | static_cast<std::uint8_t>(replies[at + i]);
    }
    EXPECT_LE(at + 10 + len, replies.size());
    if (at + 10 + len > replies.size()) break;
    frames.emplace_back(replies[at + 5], replies.substr(at + 10, len));
    at += 10 + len;
  }
  return frames;
}

/// A request payload whose one service has the given cost and selectivity,
/// bypassing Application's checks: the body of an empty-application
/// request ends with two zero counts, which are replaced by a hand-written
/// application.
std::string requestWithService(double cost, double selectivity) {
  PlanRequest empty;
  empty.options = fastOptions();
  const std::string block = encodePlanRequest(empty);
  const binio::Reader r = binio::openBlock(block, kBinPlanRequestKind,
                                           kBinPlanRequestVersion, "test");
  std::string body = block.substr(block.size() - r.remaining());
  body.resize(body.size() - 2);
  binio::Writer w;
  w.u64(1);
  w.str("C1");
  w.f64(cost);
  w.f64(selectivity);
  w.u64(0);
  body += w.take();
  return binio::finishBlock(kBinPlanRequestKind, kBinPlanRequestVersion,
                            std::move(body));
}

TEST(PlanService, RemoteWinnersMatchSerialAndWarmRepeatsSkipAllWork) {
  const auto reqs = smallWorkload();
  ServiceHostConfig hc;
  hc.serverConfig.maxBatch = 4;
  PlanServiceHost host{hc};
  ASSERT_GT(host.port(), 0);

  RemotePlanClient client("127.0.0.1", host.port());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const OptimizedPlan remote = client.optimize(reqs[i]);
    OptimizerOptions serial = reqs[i].options;
    serial.threads = 1;
    const OptimizedPlan local =
        optimizePlan(reqs[i].app, reqs[i].model, reqs[i].objective, serial);
    EXPECT_EQ(remote.value, local.value) << "request " << i;
    EXPECT_EQ(remote.strategy, local.strategy) << "request " << i;
    EXPECT_EQ(remote.surrogate, local.surrogate) << "request " << i;
    EXPECT_EQ(graphSignature(remote.plan.graph),
              graphSignature(local.plan.graph))
        << "request " << i;
    EXPECT_EQ(remote.stats.resultCacheHits, 0u) << "request " << i;
  }

  // The acceptance bar of the serving stack: a warm-cache repeat over the
  // wire does zero new orchestrations — the far side serves it wholesale
  // from the full-result store, and the stats that cross back prove it.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const OptimizedPlan warm = client.optimize(reqs[i]);
    EXPECT_EQ(warm.stats.resultCacheHits, 1u) << "request " << i;
    EXPECT_EQ(warm.stats.orchestrated, 0u) << "request " << i;
    EXPECT_EQ(warm.stats.generated, 0u) << "request " << i;
  }

  const auto cs = client.stats();
  EXPECT_EQ(cs.submitted, 2 * reqs.size());
  EXPECT_EQ(cs.served, 2 * reqs.size());
  EXPECT_EQ(cs.failed, 0u);
  const auto hs = host.stats();
  EXPECT_EQ(hs.requests, 2 * reqs.size());
  EXPECT_EQ(hs.errors, 0u);
}

TEST(PlanService, ConcurrentClientsOverOnePooledEngineStayBitIdentical) {
  const auto reqs = smallWorkload();

  std::vector<OptimizedPlan> expected;
  for (const auto& r : reqs) {
    OptimizerOptions serial = r.options;
    serial.threads = 1;
    expected.push_back(optimizePlan(r.app, r.model, r.objective, serial));
  }

  ThreadPool pool(4);
  PlanEngine engine{EngineConfig{.pool = &pool}};
  ServiceHostConfig hc;
  hc.serverConfig.solver = &engine;
  hc.serverConfig.maxBatch = 4;
  hc.serverConfig.drainThreads = 2;
  PlanServiceHost host{hc};

  const std::size_t kClients = 3;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        RemotePlanClient client("127.0.0.1", host.port());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          const std::size_t j = (i + c * 5) % reqs.size();
          const OptimizedPlan remote = client.optimize(reqs[j]);
          if (remote.value != expected[j].value ||
              remote.strategy != expected[j].strategy) {
            failures[c] = "client " + std::to_string(c) + " diverged on " +
                          std::to_string(j);
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& failure : failures) EXPECT_EQ(failure, "");

  EXPECT_EQ(host.stats().requests, kClients * reqs.size());
}

TEST(PlanService, PriorityAndPortfolioTravel) {
  ServiceHostConfig hc;
  PlanServiceHost host{hc};
  RemotePlanClient client("127.0.0.1", host.port());

  PlanRequest req;
  req.app.addService(2.0, 0.5);
  req.app.addService(1.0, 0.8);
  req.options = fastOptions();

  // An urgent submit and an explicit built-in portfolio both round-trip.
  const OptimizedPlan urgent = client.optimize(req, /*priority=*/5);
  EXPECT_TRUE(urgent.value > 0.0);
  req.options.registry = &CandidateRegistry::builtin();
  const OptimizedPlan viaName = client.optimize(req);
  EXPECT_EQ(viaName.value, urgent.value);
  EXPECT_EQ(viaName.strategy, urgent.strategy);
  // The builtin name canonicalizes to the same requestKey, so the second
  // call is a remote result-cache hit.
  EXPECT_EQ(viaName.stats.resultCacheHits, 1u);

  // A portfolio the host cannot resolve is a remote error, not a hang.
  CandidateRegistry unknown = CandidateRegistry::makeBuiltin();
  unknown.setName("nobody-registered-this");
  req.options.registry = &unknown;
  EXPECT_THROW((void)client.optimize(req), RemotePlanError);
  EXPECT_GT(host.stats().errors, 0u);

  // A custom resolver serves named portfolios of its choosing.
  CandidateRegistry custom = CandidateRegistry::makeBuiltin();
  custom.setName("prod-portfolio");
  ServiceHostConfig rc;
  rc.resolvePortfolio = [&](const std::string& name) {
    return name == "prod-portfolio" ? &custom : nullptr;
  };
  PlanServiceHost resolvingHost{rc};
  RemotePlanClient resolvingClient("127.0.0.1", resolvingHost.port());
  req.options.registry = &custom;
  const OptimizedPlan viaResolver = resolvingClient.optimize(req);
  EXPECT_EQ(viaResolver.value, urgent.value);

  // Installing a resolver must not revoke the built-in fallback: a
  // request naming "builtin" still resolves even though the resolver
  // returns nullptr for it.
  req.options.registry = &CandidateRegistry::builtin();
  const OptimizedPlan builtinFallback = resolvingClient.optimize(req);
  EXPECT_EQ(builtinFallback.value, urgent.value);
}

TEST(PlanService, GarbageBytesDropTheConnectionAndTheHostSurvives) {
  ServiceHostConfig hc;
  PlanServiceHost host{hc};

  {
    RawConnection raw(host.port());
    raw.send("this is definitely not a frame header at all............");
    EXPECT_EQ(raw.drain(), "");  // dropped without a reply
  }

  // A truncated frame (the header promises more payload than arrives)
  // is dropped too once the writer half-closes.
  {
    RawConnection raw(host.port());
    std::string frame = encodeFrame(FrameType::Request, "only-a-fragment");
    frame.resize(frame.size() - 4);
    raw.send(frame);
    raw.shutdownWrite();  // the host's recv sees EOF mid-payload
    EXPECT_EQ(raw.drain(), "");
  }

  // The host still serves real clients afterwards.
  RemotePlanClient client("127.0.0.1", host.port());
  PlanRequest req;
  req.app.addService(2.0, 0.5);
  req.app.addService(1.0, 0.8);
  req.options = fastOptions();
  const OptimizedPlan plan = client.optimize(req);
  EXPECT_TRUE(plan.value > 0.0);
  EXPECT_GE(host.stats().errors, 1u);
}

TEST(PlanService, WrongFrameVersionGetsAnErrorFrameThenTheBoot) {
  ServiceHostConfig hc;
  PlanServiceHost host{hc};
  RawConnection raw(host.port());

  PlanRequest req;
  req.app.addService(1.0, 0.5);
  std::string frame = encodeFrame(FrameType::Request, encodePlanRequest(req));
  frame[4] = static_cast<char>(kFrameVersion + 1);  // the version byte
  raw.send(frame);

  const std::string reply = raw.drain();
  ASSERT_GE(reply.size(), 10u);  // one error frame, then EOF
  EXPECT_EQ(reply.compare(0, 4, kFrameMagic, 4), 0);
  EXPECT_EQ(reply[5], static_cast<char>(FrameType::Error));
  EXPECT_NE(reply.find("unsupported frame version"), std::string::npos);
}

TEST(PlanService, MalformedPayloadGetsAnErrorFrameAndTheConnectionLives) {
  ServiceHostConfig hc;
  PlanServiceHost host{hc};
  RawConnection raw(host.port());

  // Well-framed requests whose payloads fail the codec's magic check —
  // garbage, and a request in the retired text dialect: each is answered
  // with an error frame, and the stream stays in sync...
  raw.send(encodeFrame(FrameType::Request, "not a codec payload"));
  raw.send(encodeFrame(FrameType::Request,
                       "fswplanreq 1\nrequest 0 OVERLAP PERIOD -\n"
                       "options 5 3\napplication 1\nservice A 2 0.5\n"));
  // ...so a valid request on the SAME connection still gets a result.
  PlanRequest req;
  req.app.addService(2.0, 0.5);
  req.app.addService(1.0, 0.8);
  req.options = fastOptions();
  raw.send(encodeFrame(FrameType::Request, encodePlanRequest(req)));
  raw.shutdownWrite();

  const auto frames = splitFrames(raw.drain(1 << 16));
  ASSERT_EQ(frames.size(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(frames[i].first, static_cast<char>(FrameType::Error));
    EXPECT_NE(frames[i].second.find("missing binary block magic byte"),
              std::string::npos)
        << frames[i].second;
  }
  EXPECT_EQ(frames[2].first, static_cast<char>(FrameType::Result));
  const OptimizedPlan plan = decodeOptimizedPlan(frames[2].second);
  EXPECT_TRUE(plan.value > 0.0);
}

TEST(PlanService, UnservableRequestsGetErrorFramesAndTheHostAnswersTheNext) {
  ServiceHostConfig hc;
  PlanServiceHost host{hc};
  PlanRequest valid;
  valid.app.addService(2.0, 0.5);
  valid.app.addService(1.0, 0.8);
  valid.options = fastOptions();

  // A zero-service request over the client: an error, not a dead host.
  {
    RemotePlanClient client("127.0.0.1", host.port());
    PlanRequest empty;
    empty.options = fastOptions();
    try {
      (void)client.optimize(empty);
      ADD_FAILURE() << "a zero-service request was served";
    } catch (const RemotePlanError& e) {
      EXPECT_FALSE(e.transport());
      EXPECT_NE(std::string(e.what()).find("no services"), std::string::npos)
          << e.what();
    }
    EXPECT_GT(client.optimize(valid).value, 0.0);

    // Finite parameters whose plan costs can overflow: an 'E' frame, and
    // the same connection serves the next request.
    PlanRequest overflowing;
    overflowing.app.addService(1.0, 1e200);
    overflowing.app.addService(1.0, 1e200);
    overflowing.app.addService(0.0, 0.5);
    overflowing.options = fastOptions();
    try {
      (void)client.optimize(overflowing);
      ADD_FAILURE() << "an overflowing request was served";
    } catch (const RemotePlanError& e) {
      EXPECT_FALSE(e.transport());
      EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
          << e.what();
    }
    EXPECT_GT(client.optimize(valid).value, 0.0);
  }

  // Non-finite service parameters on the wire: one error frame each, and
  // the same connection still serves a valid request.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> bad[] = {
      {nan, 0.5}, {1.0, nan}, {inf, 0.5}, {1.0, inf}, {1.0, -inf}};
  RawConnection raw(host.port());
  for (const auto& [cost, sel] : bad) {
    raw.send(encodeFrame(FrameType::Request, requestWithService(cost, sel)));
  }
  raw.send(encodeFrame(FrameType::Request, encodePlanRequest(valid)));
  raw.shutdownWrite();
  const auto frames = splitFrames(raw.drain(1 << 16));
  ASSERT_EQ(frames.size(), std::size(bad) + 1);
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    EXPECT_EQ(frames[i].first, static_cast<char>(FrameType::Error));
    EXPECT_NE(frames[i].second.find("must be finite and >= 0"),
              std::string::npos)
        << frames[i].second;
  }
  EXPECT_EQ(frames.back().first, static_cast<char>(FrameType::Result));
  EXPECT_GT(decodeOptimizedPlan(frames.back().second).value, 0.0);
  EXPECT_EQ(host.stats().errors, 2 + std::size(bad));
}

TEST(PlanService, TruncatedResultFrameFailsTheFutureCleanly) {
  // A fake host that reads one request frame, answers with a *truncated*
  // result frame (the header promises more payload than is sent), then
  // closes. The client future must fail with a clean transport error —
  // no hang, and never a misparsed plan.
  const auto listener = frameio::listenLoopback(0, "fake host");
  const int listenFd = listener.fd;
  const std::uint16_t port = listener.port;

  std::thread fakeHost([listenFd] {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) return;
    // Consume the request frame: 10-byte header, then its payload length.
    char header[10];
    std::size_t got = 0;
    while (got < sizeof(header)) {
      const ssize_t r = ::recv(fd, header + got, sizeof(header) - got, 0);
      if (r <= 0) break;
      got += static_cast<std::size_t>(r);
    }
    std::uint32_t len = 0;
    for (std::size_t i = 6; i < 10; ++i) {
      len = (len << 8) | static_cast<std::uint8_t>(header[i]);
    }
    std::vector<char> payload(len);
    std::size_t gotPayload = 0;
    while (gotPayload < len) {
      const ssize_t r =
          ::recv(fd, payload.data() + gotPayload, len - gotPayload, 0);
      if (r <= 0) break;
      gotPayload += static_cast<std::size_t>(r);
    }
    // A result frame whose header promises far more payload than follows.
    std::string frame =
        encodeFrame(FrameType::Result, "fswplanresp 1\nplan 1 1 chain\n");
    frame.resize(frame.size() / 2);
    (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    ::close(fd);
  });

  RemotePlanClient client("127.0.0.1", port);
  PlanRequest req;
  req.app.addService(2.0, 0.5);
  req.app.addService(1.0, 0.8);
  req.options = fastOptions();
  auto future = client.submit(req);
  bool threw = false;
  try {
    (void)future.get();
  } catch (const RemotePlanError& e) {
    threw = true;
    EXPECT_TRUE(e.transport());  // a stream failure, retryable elsewhere
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(client.stats().failed, 1u);
  EXPECT_EQ(client.stats().served, 0u);

  fakeHost.join();
  ::close(listenFd);
}

TEST(PlanService, DesynchronizedStreamFailsSubsequentSubmitsFast) {
  // A host that answers with garbage (bad magic) but keeps the connection
  // open: the first future fails with a transport error, and — because a
  // broken stream can never be resynchronized — every LATER submit on the
  // same client must fail fast too, not block on the dead fd.
  const auto listener = frameio::listenLoopback(0, "fake host");
  const int listenFd = listener.fd;

  std::promise<void> replied;
  std::thread fakeHost([listenFd, &replied] {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) return;
    const char garbage[16] = "no frame here..";
    (void)::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL);
    replied.set_value();
    // Stay open and silent: drain whatever else arrives until the client
    // gives up and closes.
    char buf[4096];
    while (::recv(fd, buf, sizeof(buf), 0) > 0) {
    }
    ::close(fd);
  });

  RemotePlanClient client("127.0.0.1", listener.port);
  PlanRequest req;
  req.app.addService(2.0, 0.5);
  req.options = fastOptions();
  replied.get_future().wait();
  EXPECT_THROW((void)client.optimize(req), RemotePlanError);
  // The poisoned stream fails the next submit promptly instead of
  // hanging in recv on bytes that will never align.
  EXPECT_THROW((void)client.optimize(req), RemotePlanError);
  EXPECT_EQ(client.stats().failed, 2u);

  client.close();
  fakeHost.join();
  ::close(listenFd);
}

TEST(PlanService, ClientCloseFailsPendingAndRejectsNewSubmits) {
  ServiceHostConfig hc;
  PlanServiceHost host{hc};
  auto client =
      std::make_unique<RemotePlanClient>("127.0.0.1", host.port());
  client->close();

  PlanRequest req;
  req.app.addService(1.0, 0.5);
  auto future = client->submit(req);
  EXPECT_THROW((void)future.get(), RemotePlanError);
}

TEST(PlanService, HostStopUnblocksClients) {
  auto host = std::make_unique<PlanServiceHost>(ServiceHostConfig{});
  RemotePlanClient client("127.0.0.1", host->port());
  host->stop();

  PlanRequest req;
  req.app.addService(1.0, 0.5);
  req.options = fastOptions();
  // The connection is gone: the future fails with a transport error
  // instead of hanging.
  auto future = client.submit(req);
  EXPECT_THROW((void)future.get(), RemotePlanError);
}

TEST(PlanService, ByteCountersTrackRequestTraffic) {
  PlanServiceHost host{ServiceHostConfig{}};
  RemotePlanClient client("127.0.0.1", host.port());
  const PlanRequest req = smallWorkload().front();
  (void)client.optimize(req);

  // Both ends kept a ledger, and they agree byte for byte: one request
  // frame in, one result frame out, headers included.
  const auto cs = client.stats();
  EXPECT_GT(cs.bytesSent, 0u);
  EXPECT_GT(cs.bytesReceived, 0u);
  const auto hs = host.stats();
  EXPECT_EQ(hs.framesIn, 1u);
  EXPECT_EQ(hs.framesOut, 1u);
  EXPECT_EQ(hs.bytesIn, cs.bytesSent);
  EXPECT_EQ(hs.bytesOut, cs.bytesReceived);
}

TEST(PlanService, IoTimeoutBoundsABlackHoledHost) {
  // A listener that never accepts: connects complete into the kernel's
  // backlog and the request frame buffers, but no reply ever comes — the
  // SIGSTOP/partition shape that error codes alone cannot surface. The
  // regression this pins: RemotePlanClient used to open its socket
  // without any I/O deadline, so this recv blocked forever.
  const frameio::Listener blackhole =
      frameio::listenLoopback(0, "blackhole-test");

  RemotePlanClient client("127.0.0.1", blackhole.port,
                          /*ioTimeoutMs=*/300);
  const PlanRequest req = smallWorkload().front();
  const auto start = std::chrono::steady_clock::now();
  auto future = client.submit(req);
  bool transport = false;
  try {
    (void)future.get();
  } catch (const RemotePlanError& e) {
    transport = e.transport();
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // Transport-class (retryable by a router), and bounded by the timeout
  // plus scheduling slack — not the kernel's multi-minute TCP patience.
  EXPECT_TRUE(transport);
  EXPECT_GE(elapsed.count(), 250);
  EXPECT_LT(elapsed.count(), 5000);
  client.close();
  frameio::closeFd(blackhole.fd);
}

}  // namespace
}  // namespace fsw
