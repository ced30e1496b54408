// E7 — MinPeriod / MinLatency (Theorems 2 and 4): exact forest search vs
// the heuristic portfolio on random instances — solution quality at small n
// (where exactness is affordable, per Prop 4's forest structure) and wall
// time as n grows.
//
// E7c measures the parallel plan-search engine: the same optimizePlan call
// with the shared thread pool vs fully serial (`--serial` forces every
// registered benchmark into serial mode so two runs of this binary can be
// compared externally; without the flag the table below times both modes
// in-process and checks the winners are identical).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.hpp"
#include "src/core/cost_model.hpp"
#include "src/opt/forest_search.hpp"
#include "src/opt/heuristics.hpp"
#include "src/opt/optimizer.hpp"
#include "src/serve/plan_engine.hpp"
#include "src/workload/generator.hpp"

namespace {

using namespace fsw;

bool g_serial = false;  ///< --serial: force every benchmark serial

OptimizerOptions engineOptions(std::size_t n) {
  OptimizerOptions opt;
  opt.exactForestMaxN = n <= 5 ? 5 : 0;
  opt.heuristics.iterations = 800;
  opt.orchestrator.order.exactCap = 100;
  opt.orchestrator.order.localSearchIters = 120;
  opt.orchestrator.outorder.restarts = 8;
  opt.threads = g_serial ? 1 : 0;
  return opt;
}

void printQualityTable() {
  std::printf("E7: heuristic vs exact forest search, OVERLAP MinPeriod\n");
  std::printf("%-6s %-10s %-10s %-10s %-10s\n", "trial", "exact", "greedy",
              "hillclimb", "anneal");
  for (int trial = 0; trial < 6; ++trial) {
    Prng rng(7100 + trial);
    WorkloadSpec spec;
    spec.n = 6;
    const auto app = randomApplication(spec, rng);
    const auto exact = exactForestMinPeriod(app, CommModel::Overlap);
    const auto g1 = greedyForest(app, CommModel::Overlap, Objective::Period);
    const auto g2 =
        hillClimbForest(app, CommModel::Overlap, Objective::Period, g1);
    HeuristicOptions ho;
    ho.seed = 7100 + trial;
    const auto g3 =
        annealForest(app, CommModel::Overlap, Objective::Period, ho);
    const auto score = [&](const ExecutionGraph& g) {
      return surrogateScore(app, g, CommModel::Overlap, Objective::Period);
    };
    std::printf("%-6d %-10.4f %-10.4f %-10.4f %-10.4f\n", trial, exact.value,
                score(g1), score(g2), score(g3));
  }
  std::printf("\n");
  std::printf("E7b: MinLatency (Algorithm 1 scoring on forests)\n");
  std::printf("%-6s %-10s %-10s %-10s\n", "trial", "exact", "greedy",
              "anneal");
  for (int trial = 0; trial < 6; ++trial) {
    Prng rng(7200 + trial);
    WorkloadSpec spec;
    spec.n = 6;
    const auto app = randomApplication(spec, rng);
    const auto exact = exactForestMinLatency(app);
    const auto g1 = greedyForest(app, CommModel::InOrder, Objective::Latency);
    HeuristicOptions ho;
    ho.seed = 7200 + trial;
    const auto g3 =
        annealForest(app, CommModel::InOrder, Objective::Latency, ho);
    const auto score = [&](const ExecutionGraph& g) {
      return surrogateScore(app, g, CommModel::InOrder, Objective::Latency);
    };
    std::printf("%-6d %-10.4f %-10.4f %-10.4f\n", trial, exact.value,
                score(g1), score(g3));
  }
  std::printf("\n");
}

/// E7c: engine wall-clock, pooled vs serial, with a winner-identity check.
/// Returns false when any pooled winner diverged from the serial one, so
/// CI can gate on the exit code.
[[nodiscard]] bool printEngineSpeedupTable() {
  bool allIdentical = true;
  std::printf("E7c: parallel engine speedup (%u hardware threads)\n",
              std::thread::hardware_concurrency());
  std::printf("%-4s %-10s %-12s %-12s %-9s %-9s\n", "n", "model",
              "serial[ms]", "pooled[ms]", "speedup", "identical");
  for (const std::size_t n : {12u, 16u}) {
    Prng rng(7400 + n);
    WorkloadSpec spec;
    spec.n = n;
    const auto app = randomApplication(spec, rng);
    for (const CommModel m : {CommModel::Overlap, CommModel::InOrder}) {
      OptimizerOptions serial = engineOptions(n);
      serial.threads = 1;
      OptimizerOptions pooled = engineOptions(n);
      pooled.threads = 0;

      // Dedicated cold engines per mode: the process-wide engine's
      // full-result cache would otherwise serve the second call from the
      // first one's winner, timing a lookup and checking it against
      // itself.
      PlanEngine serialEngine{
          EngineConfig{.threads = 1, .cacheFullResults = false}};
      PlanEngine pooledEngine{
          EngineConfig{.threads = 0, .cacheFullResults = false}};

      const auto t0 = std::chrono::steady_clock::now();
      const auto rs = serialEngine.optimize(app, m, Objective::Period, serial);
      const auto t1 = std::chrono::steady_clock::now();
      const auto rp = pooledEngine.optimize(app, m, Objective::Period, pooled);
      const auto t2 = std::chrono::steady_clock::now();

      const double serialMs =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      const double pooledMs =
          std::chrono::duration<double, std::milli>(t2 - t1).count();
      const bool identical =
          rs.value == rp.value && rs.strategy == rp.strategy;
      allIdentical = allIdentical && identical;
      std::printf("%-4zu %-10s %-12.1f %-12.1f %-9.2fx %-9s\n", n,
                  name(m).data(), serialMs, pooledMs, serialMs / pooledMs,
                  identical ? "yes" : "NO!");
    }
  }
  std::printf("\n");
  return allIdentical;
}

/// One exact search per iteration on a fixed random instance of size n.
/// `explored` (admissible forests per search) is a work count that does not
/// depend on the machine; forests/s relates it to the wall time.
template <typename Search>
void BM_ExactForestSearch(benchmark::State& state, Search search) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Prng rng(7300);
  WorkloadSpec spec;
  spec.n = n;
  const auto app = randomApplication(spec, rng);
  std::size_t explored = 0;
  for (auto _ : state) {
    auto r = search(app);
    explored = r.explored;
    benchmark::DoNotOptimize(r.value);
  }
  state.counters["explored"] = static_cast<double>(explored);
  state.counters["forests/s"] = benchmark::Counter(
      static_cast<double>(explored) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_ExactForestSearch, overlap_period,
                  [](const Application& app) {
                    return exactForestMinPeriod(app, CommModel::Overlap);
                  })
    ->DenseRange(3, 7);
BENCHMARK_CAPTURE(BM_ExactForestSearch, inorder_period,
                  [](const Application& app) {
                    return exactForestMinPeriod(app, CommModel::InOrder);
                  })
    ->DenseRange(3, 7);
BENCHMARK_CAPTURE(BM_ExactForestSearch, latency,
                  [](const Application& app) {
                    return exactForestMinLatency(app);
                  })
    ->DenseRange(3, 7);

void BM_GreedyForest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Prng rng(7301);
  WorkloadSpec spec;
  spec.n = n;
  const auto app = randomApplication(spec, rng);
  for (auto _ : state) {
    auto g = greedyForest(app, CommModel::Overlap, Objective::Period);
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_GreedyForest)->RangeMultiplier(2)->Range(4, 32);

void BM_AnnealForest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Prng rng(7302);
  WorkloadSpec spec;
  spec.n = n;
  const auto app = randomApplication(spec, rng);
  HeuristicOptions ho;
  ho.iterations = 1000;
  ho.restarts = 1;
  for (auto _ : state) {
    auto g = annealForest(app, CommModel::Overlap, Objective::Period, ho);
    benchmark::DoNotOptimize(g.size());
  }
}
BENCHMARK(BM_AnnealForest)->RangeMultiplier(2)->Range(4, 32);

void BM_FullOptimizer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Prng rng(7303);
  WorkloadSpec spec;
  spec.n = n;
  const auto app = randomApplication(spec, rng);
  OptimizerOptions opt = engineOptions(n);
  opt.exactForestMaxN = 5;
  opt.orchestrator.outorder.restarts = 4;
  // Full-result caching off: every iteration must run the whole pipeline
  // (the warm steady-state path is BM_WarmCacheOptimize in bench_serving).
  PlanEngine engine{EngineConfig{.cacheFullResults = false}};
  for (auto _ : state) {
    auto r = engine.optimize(app, CommModel::Overlap, Objective::Period, opt);
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_FullOptimizer)->DenseRange(4, 8, 2)->Arg(12)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  g_serial = fswbench::stripFlag(argc, argv, "--serial");
  printQualityTable();
  bool identical = true;
  if (g_serial) {
    std::printf("(--serial: engine pool disabled for all benchmarks)\n\n");
  } else {
    identical = printEngineSpeedupTable();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return identical ? 0 : 1;
}
