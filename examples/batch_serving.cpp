// Batched serving: stand up one long-lived PlanEngine, serve a mixed
// request stream through optimizePlanBatch, inspect the cross-request
// amortization counters, and persist the score cache for the next run.
//
//   $ ./batch_serving            # cold start
//   $ ./batch_serving            # warm start (loads fsw_cache.txt)
#include <cstdio>
#include <exception>
#include <fstream>

#include "src/core/application.hpp"
#include "src/serve/plan_engine.hpp"

int main() {
  using namespace fsw;

  // Two tenants of a serving process, each optimized under several
  // (model, objective) combinations — plus repeat traffic.
  Application ingest;
  ingest.addService(2.0, 0.5, "dedupe");
  ingest.addService(6.0, 0.3, "classify");
  ingest.addService(1.5, 1.0, "annotate");
  ingest.addService(3.0, 1.8, "enrich");

  Application search;
  search.addService(1.0, 0.6, "tokenize");
  search.addService(5.0, 0.4, "retrieve");
  search.addService(2.5, 0.9, "rerank");
  search.addService(4.0, 1.2, "expand");
  search.addService(0.5, 1.0, "render");
  search.addPrecedence(0, 1);  // tokenize before retrieve

  std::vector<PlanRequest> requests;
  for (const auto* app : {&ingest, &search}) {
    for (const CommModel m : kAllModels) {
      for (const Objective obj : {Objective::Period, Objective::Latency}) {
        requests.push_back({*app, m, obj});
      }
    }
  }
  // Repeat traffic: the same plans are requested again (think: the same
  // tenant re-deploying). These collapse onto the first occurrences.
  const std::size_t unique = requests.size();
  for (std::size_t i = 0; i < unique; i += 2) requests.push_back(requests[i]);

  // One engine for the process lifetime: shared pool, shared LRU score
  // cache. A previous run's cache dump warms it.
  PlanEngine engine;
  const char* cacheFile = "fsw_cache.txt";
  if (std::ifstream in(cacheFile); in.good()) {
    try {
      engine.loadCache(in);
      std::printf("warm start: loaded %zu cached scores from %s\n\n",
                  engine.cacheSize(), cacheFile);
    } catch (const std::exception& e) {
      // A dump from an older format version is rejected cleanly — serve
      // cold and overwrite it on exit rather than crash-looping.
      std::printf("cold start: ignoring stale %s (%s)\n\n", cacheFile,
                  e.what());
    }
  } else {
    std::printf("cold start (no %s yet)\n\n", cacheFile);
  }

  const auto plans = engine.optimizeBatch(requests);

  std::printf("%-4s %-8s %-8s %-10s %-16s %-6s %-6s %-6s\n", "#", "model",
              "obj", "value", "strategy", "xreq", "shared", "aborts");
  for (std::size_t i = 0; i < plans.size(); ++i) {
    std::printf("%-4zu %-8s %-8s %-10.4f %-16s %-6zu %-6zu %-6zu\n", i,
                name(requests[i].model).data(),
                name(requests[i].objective).data(), plans[i].value,
                plans[i].strategy.c_str(), plans[i].stats.crossRequestHits,
                plans[i].stats.sharedHits,
                plans[i].stats.seedBoundAborts +
                    plans[i].stats.repairBoundAborts);
  }

  const auto cs = engine.cacheStats();
  std::printf("\nshared cache: %zu entries, %zu hits / %zu misses, "
              "%zu evictions\n",
              engine.cacheSize(), cs.scoreHits, cs.scoreMisses, cs.evictions);

  if (std::ofstream out(cacheFile); out.good()) {
    engine.saveCache(out);
    std::printf("saved the score cache to %s — rerun for a warm start\n",
                cacheFile);
  }
  return 0;
}
