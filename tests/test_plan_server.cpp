// The async serving front end: submit/future bit-identity against serial
// optimizePlan (concurrent submitters, pooled and serial engines, across
// drain/shutdown), coalescing onto queued and in-flight solves, bounded
// admission under both policies, priority draining, and the streaming
// onResult path. The timing-sensitive lifecycle tests gate the drainer on
// a CandidateSource that blocks until released, so queue states are
// observed deterministically rather than raced.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/opt/candidate.hpp"
#include "src/opt/optimizer.hpp"
#include "src/serve/plan_server.hpp"
#include "src/workload/generator.hpp"

namespace fsw {
namespace {

using namespace std::chrono_literals;

OptimizerOptions fastOptions() {
  OptimizerOptions opt;
  opt.exactForestMaxN = 5;
  opt.heuristics.iterations = 400;
  opt.heuristics.restarts = 2;
  opt.orchestrator.order.exactCap = 150;
  opt.orchestrator.outorder.restarts = 6;
  opt.orchestrator.outorder.bisectSteps = 5;
  return opt;
}

/// The engine test's mixed request set: distinct apps x models x
/// objectives; appended twice when `duplicated`.
std::vector<PlanRequest> mixedWorkload(bool duplicated) {
  std::vector<PlanRequest> reqs;
  Prng rng(515);
  for (const std::size_t n : {4u, 5u, 6u}) {
    WorkloadSpec spec;
    spec.n = n;
    spec.precedenceDensity = n == 6 ? 0.25 : 0.0;
    const auto app = randomApplication(spec, rng);
    for (const CommModel m : kAllModels) {
      for (const Objective obj : {Objective::Period, Objective::Latency}) {
        reqs.push_back({app, m, obj, fastOptions()});
      }
    }
  }
  if (duplicated) {
    const std::size_t unique = reqs.size();
    for (std::size_t i = 0; i < unique; ++i) reqs.push_back(reqs[i]);
  }
  return reqs;
}

/// A request whose key differs per `seed` (distinct service cost).
PlanRequest tinyRequest(double seed) {
  Application app;
  app.addService(1.0 + seed, 0.5);
  app.addService(2.0, 0.7);
  app.addService(0.5, 1.1);
  return {app, CommModel::Overlap, Objective::Period, fastOptions()};
}

/// Releases blocked GatedSource solves; auto-releases on destruction so a
/// failing test cannot wedge the server's drain thread.
struct Gate {
  std::promise<void> promise;
  std::shared_future<void> future = promise.get_future().share();
  bool released = false;
  void release() {
    if (!released) {
      released = true;
      promise.set_value();
    }
  }
  ~Gate() { release(); }
};

/// A source that blocks candidate generation until the gate opens —
/// turns "the drainer is busy solving" into a deterministic test state.
class GatedSource final : public CandidateSource {
 public:
  explicit GatedSource(std::shared_future<void> gate)
      : gate_(std::move(gate)) {}
  [[nodiscard]] std::string_view name() const override { return "gated"; }
  [[nodiscard]] std::vector<ExecutionGraph> generate(
      const CandidateContext&) const override {
    gate_.wait();
    return {};
  }

 private:
  std::shared_future<void> gate_;
};

CandidateRegistry gatedRegistry(std::shared_future<void> gate,
                                std::string name = "gated-test") {
  CandidateRegistry reg = CandidateRegistry::makeBuiltin();
  reg.setName(std::move(name));
  reg.add(std::make_unique<GatedSource>(std::move(gate)));
  return reg;
}

PlanRequest gatedRequest(const CandidateRegistry& reg, double seed = 7.0) {
  PlanRequest req = tinyRequest(seed);
  req.options.registry = &reg;
  return req;
}

template <typename Pred>
bool waitFor(Pred pred, std::chrono::milliseconds timeout = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(PlanServer, SubmitWinnersMatchSerialOptimizePlanOnBothEngines) {
  const auto reqs = mixedWorkload(/*duplicated=*/false);
  std::vector<OptimizedPlan> expected;
  expected.reserve(reqs.size());
  for (const auto& r : reqs) {
    OptimizerOptions serial = r.options;
    serial.threads = 1;
    expected.push_back(optimizePlan(r.app, r.model, r.objective, serial));
  }

  for (const bool serialEngine : {true, false}) {
    PlanEngine engine{
        EngineConfig{.threads = serialEngine ? std::size_t{1} : 0}};
    ServerConfig sc;
    sc.engine = &engine;
    sc.maxBatch = 4;
    sc.drainThreads = 2;
    PlanServer server{sc};

    std::vector<std::future<OptimizedPlan>> futures;
    futures.reserve(reqs.size());
    for (const auto& r : reqs) futures.push_back(server.submit(r));
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto r = futures[i].get();
      EXPECT_EQ(r.value, expected[i].value) << "request " << i;
      EXPECT_EQ(r.strategy, expected[i].strategy) << "request " << i;
      EXPECT_EQ(graphSignature(r.plan.graph),
                graphSignature(expected[i].plan.graph))
          << "request " << i;
    }
    server.drain();
    const auto st = server.stats();
    EXPECT_EQ(st.admitted, reqs.size());  // all keys distinct
    EXPECT_EQ(st.completed, st.admitted);
    EXPECT_EQ(st.rejected, 0u);
  }
}

TEST(PlanServer, UnservableSubmitFailsAloneAndNeverReachesABatch) {
  const auto reqs = mixedWorkload(/*duplicated=*/false);
  PlanEngine engine;
  ServerConfig sc;
  sc.engine = &engine;
  sc.maxBatch = 8;
  PlanServer server{sc};
  PlanRequest empty;
  empty.options = reqs.front().options;
  auto bad = server.submit(empty);
  auto good = server.submit(reqs.front());
  EXPECT_THROW((void)bad.get(), std::invalid_argument);
  OptimizerOptions serial = reqs.front().options;
  serial.threads = 1;
  EXPECT_EQ(good.get().value,
            optimizePlan(reqs.front().app, reqs.front().model,
                         reqs.front().objective, serial)
                .value);
  server.drain();
  EXPECT_EQ(server.stats().admitted, 1u);
}

TEST(PlanServer, OverflowingSubmitFailsAloneAndNeverReachesABatch) {
  const auto reqs = mixedWorkload(/*duplicated=*/false);
  PlanEngine engine;
  ServerConfig sc;
  sc.engine = &engine;
  PlanServer server{sc};
  PlanRequest overflowing;
  overflowing.app.addService(1.0, 1e200);
  overflowing.app.addService(1.0, 1e200);
  overflowing.app.addService(0.0, 0.5);
  overflowing.options = reqs.front().options;
  auto bad = server.submit(overflowing);
  auto good = server.submit(reqs.front());
  EXPECT_THROW((void)bad.get(), std::invalid_argument);
  EXPECT_GT(good.get().value, 0.0);
  server.drain();
  EXPECT_EQ(server.stats().admitted, 1u);
}

TEST(PlanServer, ConcurrentSubmittersGetBitIdenticalWinners) {
  const auto reqs = mixedWorkload(/*duplicated=*/false);
  std::vector<OptimizedPlan> expected;
  expected.reserve(reqs.size());
  for (const auto& r : reqs) {
    OptimizerOptions serial = r.options;
    serial.threads = 1;
    expected.push_back(optimizePlan(r.app, r.model, r.objective, serial));
  }

  ServerConfig sc;
  sc.maxBatch = 3;
  sc.drainThreads = 2;
  PlanServer server{sc};

  const std::size_t kThreads = 4;
  std::vector<std::vector<OptimizedPlan>> got(kThreads);
  std::atomic<bool> failed{false};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      try {
        std::vector<std::future<OptimizedPlan>> futures;
        futures.reserve(reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          // Each submitter walks the set from a different offset, so
          // identical keys are live concurrently and coalesce.
          futures.push_back(server.submit(reqs[(i + t * 5) % reqs.size()]));
        }
        for (auto& f : futures) got[t].push_back(f.get());
      } catch (...) {
        failed = true;
      }
    });
  }
  for (auto& t : submitters) t.join();
  ASSERT_FALSE(failed);

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const std::size_t j = (i + t * 5) % reqs.size();
      EXPECT_EQ(got[t][i].value, expected[j].value);
      EXPECT_EQ(got[t][i].strategy, expected[j].strategy);
      EXPECT_EQ(graphSignature(got[t][i].plan.graph),
                graphSignature(expected[j].plan.graph));
    }
  }
  server.drain();
  const auto st = server.stats();
  EXPECT_EQ(st.submitted, kThreads * reqs.size());
  EXPECT_EQ(st.admitted + st.coalesced, st.submitted);
  EXPECT_EQ(st.completed, st.admitted);
  EXPECT_EQ(st.rejected, 0u);
}

TEST(PlanServer, CoalescingAttachesToQueuedAndInFlightSolves) {
  Gate gate;
  const CandidateRegistry reg = gatedRegistry(gate.future);
  PlanEngine engine{EngineConfig{.threads = 1}};
  ServerConfig sc;
  sc.engine = &engine;
  sc.maxBatch = 1;
  sc.drainThreads = 1;
  PlanServer server{sc};

  auto f0 = server.submit(gatedRequest(reg));
  EXPECT_TRUE(waitFor([&] { return server.inFlight() == 1; }));

  // The drainer is pinned inside the gated solve: these queue states are
  // now deterministic.
  const PlanRequest reqA = tinyRequest(1.0);
  auto fA1 = server.submit(reqA);
  auto fA2 = server.submit(reqA);  // coalesces onto the queued solve
  auto fA3 = server.submit(reqA);
  EXPECT_EQ(server.queueDepth(), 1u);
  auto f0b = server.submit(gatedRequest(reg));  // attaches to the IN-FLIGHT solve
  auto st = server.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.coalesced, 3u);

  gate.release();
  server.drain();

  const auto r0 = f0.get();
  const auto r0b = f0b.get();
  EXPECT_EQ(r0.value, r0b.value);
  EXPECT_EQ(r0.strategy, r0b.strategy);
  const auto rA1 = fA1.get();
  const auto rA2 = fA2.get();
  const auto rA3 = fA3.get();
  EXPECT_EQ(rA1.value, rA2.value);
  EXPECT_EQ(rA1.value, rA3.value);
  EXPECT_EQ(graphSignature(rA1.plan.graph), graphSignature(rA2.plan.graph));

  st = server.stats();
  EXPECT_EQ(st.completed, 2u);  // one solve per admitted key, ever
  EXPECT_EQ(st.batches, 2u);
}

TEST(PlanServer, RejectPolicyFailsFastAtTheQueueBound) {
  Gate gate;
  const CandidateRegistry reg = gatedRegistry(gate.future);
  ServerConfig sc;
  sc.admission = AdmissionPolicy::Reject;
  sc.maxQueueDepth = 1;
  sc.maxBatch = 1;
  sc.drainThreads = 1;
  PlanServer server{sc};

  auto f0 = server.submit(gatedRequest(reg));
  EXPECT_TRUE(waitFor([&] { return server.inFlight() == 1; }));

  auto fA = server.submit(tinyRequest(1.0));  // fills the queue
  auto fB = server.submit(tinyRequest(2.0));  // over the bound: rejected
  EXPECT_THROW(fB.get(), RejectedSubmit);
  // A duplicate of queued work coalesces — no queue space needed, so the
  // full queue does not reject it.
  auto fA2 = server.submit(tinyRequest(1.0));

  gate.release();
  server.drain();
  EXPECT_EQ(fA.get().value, fA2.get().value);
  EXPECT_GT(f0.get().stats.sourcesRun, 0u);
  const auto st = server.stats();
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.coalesced, 1u);
}

TEST(PlanServer, BlockPolicyWaitsForSpace) {
  Gate gate;
  const CandidateRegistry reg = gatedRegistry(gate.future);
  ServerConfig sc;
  sc.admission = AdmissionPolicy::Block;
  sc.maxQueueDepth = 1;
  sc.maxBatch = 1;
  sc.drainThreads = 1;
  PlanServer server{sc};

  auto f0 = server.submit(gatedRequest(reg));
  EXPECT_TRUE(waitFor([&] { return server.inFlight() == 1; }));
  auto fA = server.submit(tinyRequest(1.0));  // fills the queue

  std::atomic<bool> admitted{false};
  std::future<OptimizedPlan> fB;
  std::thread blocked([&] {
    fB = server.submit(tinyRequest(2.0));  // blocks until space frees
    admitted = true;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(admitted.load());  // still parked at the admission bound
  EXPECT_EQ(server.queueDepth(), 1u);

  gate.release();  // the gated solve finishes; A drains; space frees
  blocked.join();
  EXPECT_TRUE(admitted.load());
  server.drain();

  EXPECT_GT(f0.get().stats.sourcesRun, 0u);
  EXPECT_TRUE(std::isfinite(fA.get().value));
  EXPECT_TRUE(std::isfinite(fB.get().value));
  const auto st = server.stats();
  EXPECT_EQ(st.admitted, 3u);
  EXPECT_EQ(st.rejected, 0u);
}

TEST(PlanServer, ShutdownRejectsBlockedAndNewSubmitsButDrainsAdmittedWork) {
  Gate gate;
  const CandidateRegistry reg = gatedRegistry(gate.future);
  ServerConfig sc;
  sc.admission = AdmissionPolicy::Block;
  sc.maxQueueDepth = 1;
  sc.maxBatch = 1;
  sc.drainThreads = 1;
  PlanServer server{sc};

  auto f0 = server.submit(gatedRequest(reg));
  EXPECT_TRUE(waitFor([&] { return server.inFlight() == 1; }));
  auto fA = server.submit(tinyRequest(1.0));

  std::future<OptimizedPlan> fB;
  std::thread blocked([&] { fB = server.submit(tinyRequest(2.0)); });
  std::this_thread::sleep_for(20ms);

  // Shutdown must (a) kick the blocked submitter out with a rejection and
  // (b) still complete the two admitted solves. It can only finish once
  // the gate opens, so run it from a helper thread.
  std::thread closer([&] { server.shutdown(); });
  blocked.join();  // woken by shutdown, rejected
  EXPECT_THROW(fB.get(), RejectedSubmit);

  gate.release();
  closer.join();

  // Admitted work survived the shutdown and the winners are intact.
  EXPECT_GT(f0.get().stats.sourcesRun, 0u);
  const auto serialRef = [&] {
    PlanRequest r = tinyRequest(1.0);
    r.options.threads = 1;
    return optimizePlan(r.app, r.model, r.objective, r.options);
  }();
  const auto rA = fA.get();
  EXPECT_EQ(rA.value, serialRef.value);
  EXPECT_EQ(rA.strategy, serialRef.strategy);

  // Post-shutdown: drain is a no-op, submits are rejected, shutdown is
  // idempotent.
  server.drain();
  auto late = server.submit(tinyRequest(3.0));
  EXPECT_THROW(late.get(), RejectedSubmit);
  server.shutdown();
  const auto st = server.stats();
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.rejected, 2u);  // the blocked submit and the late one
}

TEST(PlanServer, PriorityOrdersDrainingAndCoalescingRaisesIt) {
  Gate gate;
  const CandidateRegistry reg = gatedRegistry(gate.future);
  std::mutex mu;
  std::vector<std::string> completionOrder;
  ServerConfig sc;
  sc.maxBatch = 1;
  sc.drainThreads = 1;
  sc.onResult = [&](const PlanRequest& r, const OptimizedPlan&) {
    const std::lock_guard<std::mutex> lock(mu);
    completionOrder.push_back(PlanEngine::requestKey(r));
  };
  PlanServer server{sc};

  const PlanRequest gated = gatedRequest(reg);
  const PlanRequest x = tinyRequest(1.0);
  const PlanRequest y = tinyRequest(2.0);
  const PlanRequest z = tinyRequest(3.0);

  auto f0 = server.submit(gated);
  EXPECT_TRUE(waitFor([&] { return server.inFlight() == 1; }));
  auto fx = server.submit(x, /*priority=*/0);
  auto fy = server.submit(y, /*priority=*/5);
  auto fz = server.submit(z, /*priority=*/0);
  auto fx2 = server.submit(x, /*priority=*/9);  // raises x above y

  gate.release();
  server.drain();

  const std::vector<std::string> want = {
      PlanEngine::requestKey(gated), PlanEngine::requestKey(x),
      PlanEngine::requestKey(y), PlanEngine::requestKey(z)};
  {
    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(completionOrder, want);
  }
  EXPECT_EQ(fx.get().value, fx2.get().value);
  (void)f0.get();
  (void)fy.get();
  (void)fz.get();
}

TEST(PlanServer, OnResultStreamsEveryCompletedSolveBeforeItsFutures) {
  const auto reqs = mixedWorkload(/*duplicated=*/true);
  std::mutex mu;
  std::size_t streamed = 0;
  std::unordered_map<std::string, double> streamedValue;
  ServerConfig sc;
  sc.maxBatch = 4;
  sc.onResult = [&](const PlanRequest& r, const OptimizedPlan& plan) {
    const std::lock_guard<std::mutex> lock(mu);
    ++streamed;
    streamedValue[PlanEngine::requestKey(r)] = plan.value;
  };
  PlanServer server{sc};

  std::vector<std::future<OptimizedPlan>> futures;
  futures.reserve(reqs.size());
  for (const auto& r : reqs) futures.push_back(server.submit(r));
  server.drain();

  // Every future was ready at drain-return, and its value matches what the
  // stream saw for its key.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(0s), std::future_status::ready);
    const auto r = futures[i].get();
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = streamedValue.find(PlanEngine::requestKey(reqs[i]));
    ASSERT_NE(it, streamedValue.end());
    EXPECT_EQ(r.value, it->second);
  }
  const auto st = server.stats();
  EXPECT_EQ(streamed, st.completed);
  EXPECT_EQ(st.completed, st.admitted);
  EXPECT_EQ(st.submitted, reqs.size());
}

TEST(PlanServer, DrainIsASnapshotNotQuiescence) {
  Gate gateA;
  Gate gateB;
  const CandidateRegistry regA = gatedRegistry(gateA.future);
  const CandidateRegistry regB = gatedRegistry(gateB.future, "gated-test-b");
  ServerConfig sc;
  sc.maxBatch = 1;
  sc.drainThreads = 1;
  PlanServer server{sc};

  auto fA = server.submit(gatedRequest(regA, 7.0));
  EXPECT_TRUE(waitFor([&] { return server.inFlight() == 1; }));

  // drain() snapshots here: only A is admitted yet. The sleep gives the
  // drainer thread ample time to take its cutoff before B is admitted (a
  // slower start would include B in the snapshot and fail the waitFor
  // below — a clean failure, not a hang, because gateB opens before the
  // join either way).
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    server.drain();
    drained = true;
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(drained.load());  // A is still gated

  // B is admitted after the snapshot; it must not extend the wait even
  // though it will itself block on its own gate.
  auto fB = server.submit(gatedRequest(regB, 8.0));
  gateA.release();
  EXPECT_TRUE(waitFor([&] { return drained.load(); }));
  gateB.release();
  drainer.join();

  server.drain();  // full drain now covers B
  EXPECT_TRUE(std::isfinite(fA.get().value));
  EXPECT_TRUE(std::isfinite(fB.get().value));
}

TEST(PlanServer, ThrowingOnResultFailsTheFuturesNotTheServer) {
  std::atomic<std::size_t> calls{0};
  ServerConfig sc;
  sc.maxBatch = 1;
  sc.onResult = [&](const PlanRequest&, const OptimizedPlan&) {
    if (calls++ == 0) throw std::runtime_error("downstream publish failed");
  };
  PlanServer server{sc};

  auto f1 = server.submit(tinyRequest(1.0));
  server.drain();
  auto f2 = server.submit(tinyRequest(2.0));
  server.drain();

  // The first solve's callback threw: its future carries the exception,
  // but the drain thread survived and served the second solve normally.
  EXPECT_THROW(f1.get(), std::runtime_error);
  EXPECT_TRUE(std::isfinite(f2.get().value));
  const auto st = server.stats();
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(calls.load(), 2u);
}

}  // namespace
}  // namespace fsw
