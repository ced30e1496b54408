// E5 — Theorem 1 as a scaling experiment: given an execution graph, the
// OVERLAP operation list is polynomial while exact one-port orchestration
// (order enumeration) is exponential in the port degrees; the heuristic's
// gap to the busy-time lower bound quantifies what the NP-hardness costs in
// practice.
//
// E5b measures the pooled order search: the exact enumeration and the
// seeded local-search restarts fan their constraint-system solves out over
// the shared thread pool and must return the serial result bit-identically.
// `--serial` forces every registered benchmark into serial mode.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/cost_model.hpp"
#include "src/sched/inorder.hpp"
#include "src/sched/outorder.hpp"
#include "src/sched/overlap.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_instances.hpp"

/// Every global operator new, counted. This is ground truth for the
/// memory-discipline tables: the engine's own scratchHeapAllocs counter
/// tracks buffer-growth events it knows about, while this counts every
/// heap allocation the process makes — temporaries, node-based containers,
/// anything the arena work missed.
std::atomic<std::size_t> g_heapNews{0};

void* operator new(std::size_t sz) {
  g_heapNews.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  g_heapNews.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (sz + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace fsw;

bool g_serial = false;  ///< --serial: force every benchmark serial

ThreadPool* benchPool() {
  return g_serial ? nullptr : &ThreadPool::shared();
}

Application makeApp(std::size_t n, std::uint64_t seed) {
  Prng rng(seed);
  WorkloadSpec spec;
  spec.n = n;
  return randomApplication(spec, rng);
}

void printGapTable() {
  std::printf(
      "E5: one-port orchestration, exact vs heuristic gap to the busy bound\n");
  std::printf("%-4s %-10s %-10s %-10s %-10s\n", "n", "bound", "exact",
              "heuristic", "combos");
  for (const std::size_t n : {3u, 4u, 5u, 6u}) {
    Prng rng(7000 + n);
    WorkloadSpec spec;
    spec.n = n;
    const auto app = randomApplication(spec, rng);
    const auto g = randomLayeredDag(app, 2, 3, rng);
    const CostModel cm(app, g);
    OrchestrationOptions exact;
    exact.exactCap = 2000000;
    exact.pool = benchPool();
    OrchestrationOptions heur;
    heur.exactCap = 1;  // force the heuristic path
    heur.localSearchIters = 100;
    heur.pool = benchPool();
    const auto re = inorderOrchestratePeriod(app, g, exact);
    const auto rh = inorderOrchestratePeriod(app, g, heur);
    std::printf("%-4zu %-10.4f %-10.4f %-10.4f %-10zu\n", n,
                cm.periodLowerBound(CommModel::InOrder), re.value, rh.value,
                countPortOrders(g, 2000000));
  }
  std::printf("\n");
}

/// Median wall time of `reps` runs of fn, in milliseconds.
template <typename Fn>
double medianMs(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// E5b: pooled vs serial order search on fixed execution graphs. The first
/// rows are large searches; the `cutoff` rows are small exact enumerations
/// on both sides of kPooledPeriodMinOrders / kPooledLatencyMinOrders, where
/// `caller` marks a pooled call that ran on the caller anyway. Returns
/// false when any pooled result diverged from the serial one.
[[nodiscard]] bool printOrderSearchSpeedupTable() {
  bool allIdentical = true;
  std::printf("E5b: pooled order search speedup (%u hardware threads)\n",
              std::thread::hardware_concurrency());
  std::printf("%-12s %-8s %-13s %-8s %-12s %-12s %-9s %-9s\n", "instance",
              "orders", "path", "obj", "serial[ms]", "pooled[ms]", "speedup",
              "identical");
  const auto row = [&](const std::string& label, const Application& app,
                       const ExecutionGraph& g, bool exactPath, bool period,
                       int reps) {
    OrchestrationOptions serial;
    serial.exactCap = exactPath ? 2000000 : 1;
    serial.localSearchIters = 300;
    OrchestrationOptions pooled = serial;
    pooled.pool = &ThreadPool::shared();
    const auto run = [&](const OrchestrationOptions& o) {
      return period ? inorderOrchestratePeriod(app, g, o)
                    : oneportOrchestrateLatency(app, g, o);
    };
    const auto rs = run(serial);
    const auto rp = run(pooled);
    const double serialMs = medianMs(reps, [&] { (void)run(serial); });
    const double pooledMs = medianMs(reps, [&] { (void)run(pooled); });
    const std::size_t orders = countPortOrders(g, 2000000);
    const bool onCaller =
        exactPath && orders < (period ? kPooledPeriodMinOrders
                                      : kPooledLatencyMinOrders);
    const bool same = rs.value == rp.value;
    allIdentical = allIdentical && same;
    std::printf("%-12s %-8zu %-13s %-8s %-12.3f %-12.3f %-9s %-9s\n",
                label.c_str(), orders,
                !exactPath ? "local-search" : onCaller ? "exact/caller"
                                                       : "exact",
                period ? "period" : "latency", serialMs, pooledMs,
                (std::to_string(serialMs / pooledMs).substr(0, 4) + "x")
                    .c_str(),
                same ? "yes" : "NO!");
  };
  for (const std::size_t n : {5u, 6u}) {
    Prng rng(7500 + n);
    const auto app = makeApp(n, 7500 + n);
    const auto g = randomLayeredDag(app, 2, 3, rng);
    for (const bool exactPath : {true, false}) {
      row("n=" + std::to_string(n), app, g, exactPath, /*period=*/true, 3);
    }
  }
  // Small exact enumerations around the serial cutoff: the paper's Section
  // 2.3 instance and layered DAGs of growing port degree.
  std::vector<std::pair<std::string, fsw::PaperInstance>> small;
  small.emplace_back("sec23", sec23Example());
  Prng rng(7600);
  for (const std::size_t layers : {4u, 3u, 2u}) {
    PaperInstance inst{makeApp(8, 7600 + layers), ExecutionGraph(0)};
    inst.graph = randomLayeredDag(inst.app, layers, 2, rng);
    small.emplace_back("dag/" + std::to_string(layers) + "layers",
                       std::move(inst));
  }
  for (const auto& [label, inst] : small) {
    for (const bool period : {true, false}) {
      row(label, inst.app, inst.graph, /*exactPath=*/true, period, 101);
    }
  }
  std::printf("\n");
  return allIdentical;
}

/// E5c: the hot-path memory discipline, measured two ways per search —
/// the engine's own growth-event counter (scratchHeapAllocs / evalProbes)
/// and ground-truth operator-new calls per probe. A steady-state search
/// should sit far below one allocation per probe on both columns.
void printMemoryDisciplineTable() {
  std::printf("E5c: order-search memory discipline (per-probe allocations)\n");
  std::printf("%-4s %-12s %-9s %-12s %-12s %-12s %-12s\n", "n", "path",
              "probes", "scratch", "scratch/p", "news/p", "arena[KiB]");
  struct Case {
    bool exactPath;
    std::size_t n;
  };
  for (const auto& [exactPath, n] :
       {Case{true, 5}, Case{true, 6}, Case{false, 8}, Case{false, 16}}) {
    {
      Prng rng(7500 + n);
      const auto app = makeApp(n, 7500 + n);
      const auto g = randomLayeredDag(app, 2, 3, rng);
      std::atomic<std::size_t> probes{0};
      std::atomic<std::size_t> scratch{0};
      std::atomic<std::size_t> arenaHigh{0};
      OrchestrationOptions opt;
      opt.exactCap = exactPath ? 2000000 : 1;
      opt.localSearchIters = 300;
      opt.pool = benchPool();
      opt.evalProbes = &probes;
      opt.scratchHeapAllocs = &scratch;
      opt.arenaBytesHighWater = &arenaHigh;
      // One warm run charges the pool/workload setup, then the measured
      // run starts from the allocator steady state a server would see.
      (void)inorderOrchestratePeriod(app, g, opt);
      probes.store(0);
      scratch.store(0);
      const std::size_t newsBefore =
          g_heapNews.load(std::memory_order_relaxed);
      const auto r = inorderOrchestratePeriod(app, g, opt);
      const std::size_t news =
          g_heapNews.load(std::memory_order_relaxed) - newsBefore;
      benchmark::DoNotOptimize(r.value);
      const double p = probes.load() > 0 ? static_cast<double>(probes.load())
                                         : 1.0;
      std::printf("%-4zu %-12s %-9zu %-12zu %-12.4f %-12.4f %-12.1f\n", n,
                  exactPath ? "exact" : "local-search", probes.load(),
                  scratch.load(), static_cast<double>(scratch.load()) / p,
                  static_cast<double>(news) / p,
                  static_cast<double>(arenaHigh.load()) / 1024.0);
    }
  }
  std::printf("\n");
}

/// E5d: sound incumbent pruning on the OUTORDER search — the engine's
/// portfolio scenario replayed directly against the orchestrator. Each case
/// solves a portfolio of candidate graphs twice: unbounded (the reference)
/// and with the running best final value as the incumbent (the seed/repair
/// bound split of OutorderOptions::upperBound). Soundness contract checked
/// per candidate: a bounded solve either returns the unbounded winner
/// bit-identically or prunes to +inf only when the reference value strictly
/// exceeds the incumbent it ran under — so the portfolio winner can never
/// change, only cost less. Returns false (-> exit 1) when any row breaks
/// identity or when no case recorded a seed-phase abort (the pruning
/// machinery silently dead). `jsonPath`, when set, receives the
/// deterministic counters for bench/check_pruning.py.
[[nodiscard]] bool printPruningTable(const char* jsonPath) {
  std::printf("E5d: OUTORDER incumbent pruning (seed/repair bound split)\n");
  std::printf("%-7s %-6s %-10s %-12s %-12s %-9s %-7s %-7s %-9s\n", "case",
              "cands", "winner", "unbnd[ms]", "bounded[ms]", "speedup",
              "seedAb", "repAb", "identical");

  struct Case {
    std::string name;
    Application app;
    std::vector<ExecutionGraph> graphs;
  };
  std::vector<Case> cases;
  {
    // The paper's Section 2.3 services, chain candidate first: the chain's
    // OUTORDER optimum (6) undercuts the diamond's (7), so the diamond runs
    // under a dominating incumbent and must prune — a deterministic
    // incumbent abort on a paper instance.
    const auto pi = sec23Example();
    Case c{"sec23", pi.app, {}};
    c.graphs.push_back(ExecutionGraph::chain({0, 1, 2, 3, 4}));
    c.graphs.push_back(pi.graph);
    cases.push_back(std::move(c));
  }
  for (const std::size_t n : {5u, 6u}) {
    Prng rng(8200 + n);
    Case c{"rand" + std::to_string(n), makeApp(n, 8200 + n), {}};
    for (int k = 0; k < 3; ++k) {
      c.graphs.push_back(randomLayeredDag(c.app, 2, 3, rng));
    }
    cases.push_back(std::move(c));
  }

  bool allIdentical = true;
  std::size_t totalSeedAborts = 0;
  std::string json =
      "{\n  \"schema\": \"fsw-bench-pruning\",\n  \"bench_version\": 1,\n";
  for (const Case& c : cases) {
    OutorderOptions base;
    base.inorder.exactCap = 20000;
    base.inorder.localSearchIters = 100;
    base.inorder.pool = benchPool();
    base.restarts = 8;
    base.repairIters = 200;
    base.bisectSteps = 8;
    base.seed = 17;
    base.pool = benchPool();

    // Reference pass: every candidate unbounded.
    std::vector<double> reference;
    const auto t0 = std::chrono::steady_clock::now();
    for (const ExecutionGraph& g : c.graphs) {
      reference.push_back(outorderOrchestratePeriod(c.app, g, base).value);
    }
    const auto t1 = std::chrono::steady_clock::now();

    // Bounded pass: the running best final value is the incumbent, exactly
    // as PlanEngine::solveOne threads its tightening bound through ranks.
    std::atomic<std::size_t> seedAborts{0};
    std::atomic<std::size_t> repairAborts{0};
    std::vector<double> bounded;
    bool identical = true;
    double incumbent = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < c.graphs.size(); ++k) {
      OutorderOptions opt = base;
      opt.upperBound = incumbent;
      opt.seedBoundAborts = &seedAborts;
      opt.repairBoundAborts = &repairAborts;
      const double v =
          outorderOrchestratePeriod(c.app, c.graphs[k], opt).value;
      bounded.push_back(v);
      if (std::isfinite(v)) {
        identical = identical && v == reference[k];
        incumbent = std::min(incumbent, v);
      } else {
        // A prune is sound only when the incumbent already dominated.
        identical = identical && reference[k] > incumbent;
      }
    }
    const auto t2 = std::chrono::steady_clock::now();

    // The portfolio winner must survive pruning untouched.
    double refBest = std::numeric_limits<double>::infinity();
    for (const double v : reference) refBest = std::min(refBest, v);
    identical = identical && incumbent == refBest;
    allIdentical = allIdentical && identical;
    totalSeedAborts += seedAborts.load();

    std::size_t pruned = 0;
    for (const double v : bounded) pruned += std::isfinite(v) ? 0 : 1;
    const double unboundedMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const double boundedMs =
        std::chrono::duration<double, std::milli>(t2 - t1).count();
    std::printf("%-7s %-6zu %-10.4f %-12.1f %-12.1f %-9.2fx %-7zu %-7zu %-9s\n",
                c.name.c_str(), c.graphs.size(), refBest, unboundedMs,
                boundedMs, unboundedMs / boundedMs, seedAborts.load(),
                repairAborts.load(), identical ? "yes" : "NO!");
    json += "  \"" + c.name +
            "_seed_aborts\": " + std::to_string(seedAborts.load()) + ",\n";
    json += "  \"" + c.name +
            "_repair_aborts\": " + std::to_string(repairAborts.load()) +
            ",\n";
    json += "  \"" + c.name + "_pruned\": " + std::to_string(pruned) + ",\n";
    json += "  \"" + c.name +
            "_identical\": " + std::string(identical ? "1" : "0") + ",\n";
  }
  json.replace(json.size() - 2, 1, "");  // drop the trailing comma
  json += "}\n";
  if (jsonPath != nullptr) {
    if (std::FILE* f = std::fopen(jsonPath, "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("(pruning counters written to %s)\n", jsonPath);
    } else {
      std::printf("(FAILED to open %s for the pruning counters)\n", jsonPath);
      allIdentical = false;
    }
  }
  if (totalSeedAborts == 0) {
    std::printf("E5d FAILURE: no seed-phase bound aborts recorded — the "
                "derived seed bound never pruned\n");
  }
  std::printf("\n");
  return allIdentical && totalSeedAborts > 0;
}

void BM_OverlapOrchestration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Prng rng(1234);
  const auto app = makeApp(n, 99);
  const auto g = randomLayeredDag(app, 3, 3, rng);
  for (auto _ : state) {
    auto ol = overlapPeriodSchedule(app, g);
    benchmark::DoNotOptimize(ol.period());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OverlapOrchestration)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_InorderExactOrchestration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Prng rng(77);
  const auto app = makeApp(n, 42);
  const auto g = randomLayeredDag(app, 2, 2, rng);
  std::atomic<std::size_t> probes{0};
  std::atomic<std::size_t> scratch{0};
  OrchestrationOptions opt;
  opt.exactCap = 200000;
  opt.pool = benchPool();
  opt.evalProbes = &probes;
  opt.scratchHeapAllocs = &scratch;
  const std::size_t newsBefore = g_heapNews.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto r = inorderOrchestratePeriod(app, g, opt);
    benchmark::DoNotOptimize(r.value);
  }
  const auto news = static_cast<double>(
      g_heapNews.load(std::memory_order_relaxed) - newsBefore);
  const auto p =
      probes.load() > 0 ? static_cast<double>(probes.load()) : 1.0;
  state.counters["probes"] = static_cast<double>(probes.load());
  state.counters["scratch_allocs_per_probe"] =
      static_cast<double>(scratch.load()) / p;
  state.counters["news_per_probe"] = news / p;
}
BENCHMARK(BM_InorderExactOrchestration)->DenseRange(3, 6);

void BM_InorderHeuristicOrchestration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Prng rng(78);
  const auto app = makeApp(n, 43);
  const auto g = randomLayeredDag(app, 3, 3, rng);
  std::atomic<std::size_t> probes{0};
  std::atomic<std::size_t> scratch{0};
  OrchestrationOptions opt;
  opt.exactCap = 1;
  opt.localSearchIters = 50;
  opt.pool = benchPool();
  opt.evalProbes = &probes;
  opt.scratchHeapAllocs = &scratch;
  const std::size_t newsBefore = g_heapNews.load(std::memory_order_relaxed);
  for (auto _ : state) {
    auto r = inorderOrchestratePeriod(app, g, opt);
    benchmark::DoNotOptimize(r.value);
  }
  const auto news = static_cast<double>(
      g_heapNews.load(std::memory_order_relaxed) - newsBefore);
  const auto p =
      probes.load() > 0 ? static_cast<double>(probes.load()) : 1.0;
  state.counters["probes"] = static_cast<double>(probes.load());
  state.counters["scratch_allocs_per_probe"] =
      static_cast<double>(scratch.load()) / p;
  state.counters["news_per_probe"] = news / p;
}
BENCHMARK(BM_InorderHeuristicOrchestration)->RangeMultiplier(2)->Range(8, 32);

}  // namespace

int main(int argc, char** argv) {
  g_serial = fswbench::stripFlag(argc, argv, "--serial");
  const char* pruningJson =
      fswbench::stripValueFlag(argc, argv, "--pruning_json");
  printGapTable();
  printMemoryDisciplineTable();
  bool identical = true;
  if (g_serial) {
    std::printf("(--serial: order-search pool disabled for all benchmarks)\n\n");
  } else {
    identical = printOrderSearchSpeedupTable();
  }
  identical = printPruningTable(pruningJson) && identical;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return identical ? 0 : 1;
}
