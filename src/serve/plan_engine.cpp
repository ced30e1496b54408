#include "src/serve/plan_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/io/serialize.hpp"
#include "src/sched/inorder.hpp"
#include "src/sched/orchestrator.hpp"
#include "src/sched/port_orders.hpp"
#include "src/serve/bound_board.hpp"
#include "src/serve/result_store.hpp"

namespace fsw {
namespace {

struct Candidate {
  ExecutionGraph graph{0};
  std::string signature;
  std::string strategy;
  double surrogate = std::numeric_limits<double>::infinity();
};

/// Value-affecting optimizer knobs, serialized into the request key. The
/// threads/pool fields are excluded: they change wall time, never winners.
std::string optionsFingerprint(const OptimizerOptions& o) {
  std::ostringstream os;
  os << std::setprecision(17) << 'o' << o.exactForestMaxN << ':'
     << o.orchestrateTop << ";h" << o.heuristics.restarts << ':'
     << o.heuristics.iterations << ':' << o.heuristics.initialTemperature
     << ':' << o.heuristics.seed << ";r" << o.orchestrator.order.exactCap
     << ':' << o.orchestrator.order.localSearchIters << ':'
     << o.orchestrator.order.localSearchRestarts << ':'
     << o.orchestrator.order.seed << ':' << o.orchestrator.order.upperBound
     << ";x" << o.orchestrator.outorder.repairIters << ':'
     << o.orchestrator.outorder.restarts << ':'
     << o.orchestrator.outorder.bisectSteps << ':'
     << o.orchestrator.outorder.seed;
  if (o.registry != nullptr) {
    if (o.registry->name().empty()) {
      // An unnamed portfolio is process-local: pointer identity keeps two
      // anonymous registries distinct even when their source names
      // collide (naming is the explicit opt-in to portable keys).
      os << ";reg" << static_cast<const void*>(o.registry);
    } else {
      // A named portfolio's *portable* identity — name plus ordered
      // source-name list, never the pointer — is part of the key. A
      // portfolio indistinguishable from the built-in is canonicalized
      // away, so explicitly passing (a copy of) the built-in keys
      // identically to the default.
      static const std::string builtinFp =
          portfolioFingerprint(CandidateRegistry::builtin());
      const std::string fp = portfolioFingerprint(*o.registry);
      if (fp != builtinFp) os << ";reg:" << fp;
    }
  }
  return os.str();
}

}  // namespace

PlanEngine::PlanEngine(EngineConfig config)
    : config_(config),
      cache_(config.cacheCapacity),
      results_(config.resultCacheCapacity) {
  if (config_.pool != nullptr) {
    pool_ = config_.pool;
  } else if (config_.threads == 1) {
    pool_ = nullptr;  // fully serial engine
  } else if (config_.threads == 0) {
    ThreadPool& sharedPool = ThreadPool::shared();
    pool_ = sharedPool.threadCount() > 1 ? &sharedPool : nullptr;
  } else {
    ownedPool_ = std::make_unique<ThreadPool>(config_.threads);
    pool_ = ownedPool_.get();
  }
}

bool PlanEngine::resultCacheable(const PlanRequest& request) const {
  // The full-result store is only sound when the request's key describes
  // the portfolio that actually solves it, beyond this call:
  //   * an *unnamed* request-level portfolio is keyed by pointer, which is
  //     only guaranteed live (and unique) while the caller's registry
  //     exists — sound for in-batch dedup, unsound for a store that
  //     outlives the call or is persisted;
  //   * an engine-level EngineConfig::registry override changes the
  //     effective portfolio of default requests while their key still
  //     reads "builtin" — caching (or serving) under that key would hand
  //     one portfolio's winner to another's request.
  const CandidateRegistry* reg = request.options.registry;
  if (reg == nullptr) return config_.registry == nullptr;
  return !reg->name().empty();
}

ThreadPool* PlanEngine::poolFor(const OptimizerOptions& opt) const {
  if (opt.threads == 1) return nullptr;  // the --serial escape hatch
  if (opt.pool != nullptr) return opt.pool;
  return pool_;
}

OptimizedPlan PlanEngine::solveOne(const Application& app, CommModel m,
                                   Objective obj, const OptimizerOptions& opt,
                                   double externalBound) {
  ThreadPool* pool = poolFor(opt);
  const CandidateRegistry& registry =
      opt.registry != nullptr
          ? *opt.registry
          : (config_.registry != nullptr ? *config_.registry
                                         : CandidateRegistry::builtin());
  HeuristicOptions heuristics = opt.heuristics;
  heuristics.pool = pool;  // anneal restarts share the engine pool
  const CandidateContext ctx{app, m, obj, opt.exactForestMaxN, heuristics};

  OptimizedPlan best;
  best.value = std::numeric_limits<double>::infinity();

  // 1. Fan candidate generation out across the applicable sources.
  std::vector<const CandidateSource*> active;
  for (const auto& source : registry.sources()) {
    if (source->applicable(ctx)) active.push_back(source.get());
  }
  best.stats.sourcesRun = active.size();
  auto proposals = parallelMap<std::vector<ExecutionGraph>>(
      pool, active.size(),
      [&](std::size_t i) { return active[i]->generate(ctx); });

  // 2. Flatten in registry order (the deterministic tie-break), drop graphs
  //    that do not respect the application, and dedup within the request.
  //    Dedup is request-local on purpose: the shared cache amortizes
  //    *scores* across requests, never a request's own candidate set.
  std::unordered_set<std::string> seen;
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < proposals.size(); ++i) {
    for (ExecutionGraph& g : proposals[i]) {
      ++best.stats.generated;
      if (!g.respects(app)) continue;
      std::string sig = graphSignature(g);
      if (!seen.insert(sig).second) {
        ++best.stats.duplicates;
        continue;
      }
      Candidate c;
      c.signature = std::move(sig);
      c.graph = std::move(g);
      c.strategy = std::string(active[i]->name());
      candidates.push_back(std::move(c));
    }
  }
  best.stats.unique = candidates.size();

  // 3. Surrogate-score through the shared cross-request cache. The probe
  //    and fill passes are serial and index-ordered, so LRU touch/eviction
  //    order is deterministic for a serial request sequence (concurrent
  //    requests interleave passes, which can reorder evictions but never
  //    change the memoized values); only the missing scores are computed,
  //    fanned out over the pool.
  const std::string keyPrefix = applicationSignature(app) + '#' +
                                std::string(name(m)) + '#' +
                                std::string(name(obj)) + '#';
  std::vector<std::string> keys(candidates.size());
  std::vector<std::size_t> misses;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    keys[k] = keyPrefix + candidates[k].signature;
    if (const auto hit = cache_.lookup(keys[k])) {
      candidates[k].surrogate = *hit;
      ++best.stats.sharedHits;
    } else {
      misses.push_back(k);
    }
  }
  const auto scores =
      parallelMap<double>(pool, misses.size(), [&](std::size_t i) {
        return surrogateScore(app, candidates[misses[i]].graph, m, obj);
      });
  for (std::size_t i = 0; i < misses.size(); ++i) {
    candidates[misses[i]].surrogate = scores[i];
    best.stats.evictions += cache_.insert(keys[misses[i]], scores[i]);
  }
  best.stats.scoreCacheHits = best.stats.duplicates + best.stats.sharedHits;

  // 4. Deterministic ranking: surrogate, then strategy name, then proposal
  //    order (stable sort preserves it).
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.surrogate != b.surrogate) {
                       return a.surrogate < b.surrogate;
                     }
                     return a.strategy < b.strategy;
                   });

  // 5. Orchestrate the top-K. The best-ranked candidate runs first and
  //    unbounded; its achieved value is threaded into the remaining
  //    orchestrations as an incumbent upper bound, so order-search solves
  //    that provably cannot beat it abort early. The bound is fixed before
  //    the parallel region, which keeps pooled and serial runs identical.
  OrchestratorOptions orch = opt.orchestrator;
  orch.order.pool = pool;
  orch.outorder.pool = pool;
  orch.outorder.inorder.pool = pool;  // the OUTORDER path's INORDER seed
  // Bound-abort accounting, split by phase: order searches (the plain
  // INORDER/latency enumerations and the OUTORDER seed's derived bound)
  // count as seed-phase; OUTORDER repair bisections cut short by the
  // final-value incumbent count as repair-phase. orchestrate() threads the
  // final-value incumbent (order.upperBound) into the OUTORDER search,
  // which derives its own sound seed bound from it — see
  // src/sched/outorder.hpp.
  std::atomic<std::size_t> seedAborts{0};
  std::atomic<std::size_t> repairAborts{0};
  orch.order.boundAborts = &seedAborts;
  orch.outorder.seedBoundAborts = &seedAborts;
  orch.outorder.repairBoundAborts = &repairAborts;
  // Memory-discipline counters, aggregated once per search (not per probe).
  std::atomic<std::size_t> probes{0};
  std::atomic<std::size_t> scratchAllocs{0};
  std::atomic<std::size_t> arenaHighWater{0};
  orch.order.evalProbes = &probes;
  orch.order.scratchHeapAllocs = &scratchAllocs;
  orch.order.arenaBytesHighWater = &arenaHighWater;
  orch.outorder.evalProbes = &probes;
  orch.outorder.scratchHeapAllocs = &scratchAllocs;
  orch.outorder.arenaBytesHighWater = &arenaHighWater;
  orch.outorder.inorder.evalProbes = &probes;
  orch.outorder.inorder.scratchHeapAllocs = &scratchAllocs;
  orch.outorder.inorder.arenaBytesHighWater = &arenaHighWater;
  const std::size_t top = std::min(opt.orchestrateTop, candidates.size());
  best.stats.orchestrated = top;

  // Early tightening: the candidate that runs first (the "lead") is the
  // one whose source has the highest observed win rate on this engine, so
  // the incumbent is as strong as history can make it before the tail
  // sources start. Strictly an *execution-order* choice: the reduce below
  // stays index-ordered over the step-4 ranking, so winners — and every
  // per-request stat except the abort counters — are independent of the
  // lead. Ties (including the empty-history engine, where every rate is
  // 0) keep the lowest index, i.e. the step-4 rank-0 candidate.
  std::size_t lead = 0;
  if (top > 1) {
    const std::lock_guard<std::mutex> lock(sourceMu_);
    double bestRate = -1.0;
    for (std::size_t k = 0; k < top; ++k) {
      double rate = 0.0;
      if (const auto it = sourceTallies_.find(candidates[k].strategy);
          it != sourceTallies_.end() && it->second.solves > 0) {
        rate = static_cast<double>(it->second.wins) /
               static_cast<double>(it->second.solves);
      }
      if (rate > bestRate) {
        bestRate = rate;
        lead = k;
      }
    }
  }

  std::vector<Orchestration> results(top);
  if (top > 0) {
    // A cross-engine incumbent for this request (the shared BoundBoard /
    // store, exact- or validated near-key) bounds even the lead, which the
    // within-request incumbent never can. Sound for an exact key because
    // the board value is this key's own deterministic winner value w: no
    // candidate achieves less, every candidate achieving exactly w is kept
    // bit-exact by the feasibility probe, and dominated solves (the
    // lead's included — it may return infinity and lose) abort without
    // ever having been able to win. Sound for a validated near key because
    // the bound is an achievable value under this request's own
    // parameters. Winners cannot change; only the abort counters grow —
    // and the post-reduce re-run below makes even an unsound bound
    // winner-preserving.
    OrchestratorOptions first = orch;
    first.order.upperBound = std::min(orch.order.upperBound, externalBound);
    results[lead] = orchestrate(app, candidates[lead].graph, m, obj, first);
  }
  if (top > 1) {
    OrchestratorOptions bounded = orch;
    bounded.order.upperBound =
        std::min({orch.order.upperBound, results[lead].result.value,
                  externalBound});
    auto rest = parallelMap<Orchestration>(pool, top - 1, [&](std::size_t j) {
      const std::size_t k = j < lead ? j : j + 1;
      return orchestrate(app, candidates[k].graph, m, obj, bounded);
    });
    for (std::size_t j = 0; j + 1 < top; ++j) {
      const std::size_t k = j < lead ? j : j + 1;
      results[k] = std::move(rest[j]);
    }
  }
  best.stats.seedBoundAborts = seedAborts.load(std::memory_order_relaxed);
  best.stats.repairBoundAborts = repairAborts.load(std::memory_order_relaxed);
  best.stats.evalProbes = probes.load(std::memory_order_relaxed);
  best.stats.scratchHeapAllocs = scratchAllocs.load(std::memory_order_relaxed);
  best.stats.arenaBytesHighWater =
      arenaHighWater.load(std::memory_order_relaxed);

  // 6. Deterministic winner: strictly lower value wins; ties keep the
  //    earliest candidate in the ranking of step 4.
  for (std::size_t k = 0; k < top; ++k) {
    if (results[k].result.value < best.value) {
      best.value = results[k].result.value;
      best.plan = {std::move(candidates[k].graph),
                   std::move(results[k].result.ol)};
      best.surrogate = candidates[k].surrogate;
      best.strategy = candidates[k].strategy;
    }
  }

  // Belt-and-braces for external bounds: a *sound* externalBound (an exact
  // key's own winner value, or a value achievable under this request's
  // parameters) can never end the reduce above itself — some candidate
  // achieves it. If the reduce DID end above a finite external bound, the
  // bound was too tight (it pruned the true winner), so re-run this one
  // solve unbounded: the re-run is byte-for-byte the reference solve, and
  // its stats (which describe the work that produced the returned winner)
  // replace the aborted attempt's.
  if (top > 0 && std::isfinite(externalBound) &&
      !(best.value <= externalBound)) {
    return solveOne(app, m, obj, opt,
                    std::numeric_limits<double>::infinity());
  }

  // Feed the per-source tallies (the early-tightening signal). Counted
  // after the re-run guard so a discarded bounded attempt never skews the
  // history that future lead choices read.
  {
    const std::lock_guard<std::mutex> lock(sourceMu_);
    for (std::size_t k = 0; k < top; ++k) {
      SourceTally& tally = sourceTallies_[candidates[k].strategy];
      ++tally.solves;
      if (!std::isfinite(results[k].result.value)) ++tally.aborts;
    }
    if (std::isfinite(best.value)) ++sourceTallies_[best.strategy].wins;
  }
  return best;
}

double PlanEngine::validatedWarmBound(const PlanRequest& r,
                                      const OptimizedPlan& neighbor) {
  // A neighbor's VALUE is meaningless under this request's parameters; its
  // ORDERS might still be good. Re-run the exact single-order evaluator on
  // them under r's costs/selectivities: whatever comes back is achievable
  // for r, hence a sound incumbent. Anything short of that certainty — a
  // size mismatch, a graph that misses a precedence, orders the evaluator
  // rejects — is "no information" (+inf), never a guess.
  constexpr double inf = std::numeric_limits<double>::infinity();
  try {
    if (!std::isfinite(neighbor.value)) return inf;
    const ExecutionGraph& graph = neighbor.plan.graph;
    if (graph.size() != r.app.size() || !graph.respects(r.app)) return inf;
    const PortOrders orders = ordersFromOperationList(graph, neighbor.plan.ol);
    // An INORDER-valid schedule is OUTORDER-achievable (OUTORDER only
    // relaxes sequencing), so the INORDER evaluator bounds both period
    // models; one-port latency is model-agnostic already. A wrapped
    // OUTORDER OL may induce cyclic orders — the evaluator answers nullopt
    // and the warm start simply yields nothing.
    if (r.model == CommModel::InOrder || r.model == CommModel::OutOrder) {
      if (r.objective == Objective::Period) {
        const auto probe = inorderPeriodForOrders(r.app, graph, orders);
        return probe ? probe->value : inf;
      }
      if (r.objective == Objective::Latency) {
        const auto probe = oneportLatencyForOrders(r.app, graph, orders);
        return probe ? probe->value : inf;
      }
    }
    return inf;
  } catch (...) {
    return inf;
  }
}

std::vector<std::pair<std::string, PlanEngine::SourceTally>>
PlanEngine::sourceStats() const {
  std::vector<std::pair<std::string, SourceTally>> out;
  const std::lock_guard<std::mutex> lock(sourceMu_);
  out.reserve(sourceTallies_.size());
  for (const auto& [source, tally] : sourceTallies_) {
    out.emplace_back(source, tally);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

OptimizedPlan PlanEngine::optimize(const PlanRequest& request) {
  // One code path: a single request is a one-element batch, so dedup,
  // result-cache, incumbent and stats accounting cannot drift between the
  // two entry points.
  return std::move(
      optimizeBatch(std::span<const PlanRequest>(&request, 1)).front());
}

OptimizedPlan PlanEngine::optimize(const Application& app, CommModel m,
                                   Objective obj,
                                   const OptimizerOptions& opt) {
  const PlanRequest request{app, m, obj, opt};
  return optimize(request);
}

std::vector<OptimizedPlan> PlanEngine::optimizeBatch(
    std::span<const PlanRequest> requests) {
  for (const PlanRequest& request : requests) checkRequest(request);
  const std::size_t n = requests.size();
  std::vector<OptimizedPlan> out(n);

  // Cross-request dedup: members with identical canonical keys collapse
  // onto the first occurrence's solve.
  std::unordered_map<std::string, std::size_t> firstOf;
  std::vector<std::string> keys(n);
  std::vector<std::size_t> representative(n);
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = dedupKey(requests[i]);
    const auto [it, inserted] = firstOf.emplace(keys[i], i);
    representative[i] = it->second;
    if (inserted) distinct.push_back(i);
  }

  // Serve whole solves from the full-result store where possible. The
  // probe pass is serial and index-ordered (like the score cache's), so
  // LRU order stays deterministic for serial request sequences; a hit is
  // sound because a solve is a pure function of its key.
  std::vector<std::size_t> pending;  // local misses, in distinct order
  pending.reserve(distinct.size());
  for (const std::size_t i : distinct) {
    if (config_.cacheFullResults && resultCacheable(requests[i])) {
      if (const auto hit = results_.lookup(keys[i])) {
        out[i] = *hit;  // the plan copy happens outside the cache lock
        out[i].stats.resultCacheHits = 1;
        continue;
      }
    }
    pending.push_back(i);
  }

  // Local misses fall through to the fleet-shared remote store (second
  // level) in ONE pipelined multi-GET: a winner another host already
  // computed is served wholesale — and cached locally — and even a remote
  // miss can carry the fleet's incumbent bound for the key, which prunes
  // the solve below exactly like a BoundBoard entry (it IS this key's own
  // winner value, posted by whichever host completed it). With full-result
  // caching off the store is asked for bounds only — no winner payloads
  // travel just to be discarded. Transport failures degrade to misses.
  std::unordered_map<std::size_t, RemoteResultStore::Lookup> remote;
  if (config_.resultStore != nullptr) {
    std::vector<std::size_t> ask;
    std::vector<std::string> askKeys;
    for (const std::size_t i : pending) {
      if (resultCacheable(requests[i])) {
        ask.push_back(i);
        askKeys.push_back(keys[i]);
      }
    }
    if (!ask.empty()) {
      auto lookups =
          config_.resultStore->getMany(askKeys, config_.cacheFullResults);
      for (std::size_t k = 0; k < ask.size(); ++k) {
        remote.emplace(ask[k], std::move(lookups[k]));
      }
    }
  }

  std::vector<std::size_t> misses;
  std::vector<double> externalBounds;
  misses.reserve(pending.size());
  externalBounds.reserve(pending.size());
  for (const std::size_t i : pending) {
    double external = std::numeric_limits<double>::infinity();
    if (const auto it = remote.find(i); it != remote.end()) {
      if (it->second.plan != nullptr && config_.cacheFullResults) {
        out[i] = *it->second.plan;
        out[i].stats = EngineStats{};
        out[i].stats.resultCacheHits = 1;
        // The wire cost of being served wholesale: this key's GET frame
        // and its winner-carrying reply.
        out[i].stats.storeBytesSent = it->second.bytesSent;
        out[i].stats.storeBytesReceived = it->second.bytesReceived;
        (void)results_.insert(keys[i], out[i]);
        continue;
      }
      external = it->second.bound;
    }
    // Fix every external incumbent in this serial, index-ordered pass —
    // before the parallel region — so pooled and serial batches consult
    // board and store identically. Exact key first (the board value IS
    // this key's winner); on an exact miss, a near-key warm start: fetch
    // the most recent winner sharing this request's structural prefix
    // (board hint + local results, then the remote store) and re-evaluate
    // its orders under THIS request's parameters. Only that certified
    // achievable value — never the neighbor's value or plan — joins the
    // incumbent min.
    const PlanRequest& r = requests[i];
    if (resultCacheable(r)) {
      if (config_.boundBoard != nullptr) {
        external = std::min(
            external,
            config_.boundBoard->lookup(keys[i]).value_or(
                std::numeric_limits<double>::infinity()));
      }
      if (!std::isfinite(external) &&
          (config_.boundBoard != nullptr || config_.resultStore != nullptr)) {
        const std::string prefix = structuralPrefixOfKey(keys[i]);
        std::shared_ptr<const OptimizedPlan> neighbor;
        if (config_.boundBoard != nullptr) {
          if (const auto nearKey = config_.boundBoard->nearestKey(prefix);
              nearKey && *nearKey != keys[i]) {
            neighbor = results_.lookup(*nearKey);
          }
        }
        if (neighbor == nullptr && config_.resultStore != nullptr) {
          auto lookup = config_.resultStore->getNear(prefix);
          neighbor = std::move(lookup.plan);
          remote[i].bytesSent += lookup.bytesSent;
          remote[i].bytesReceived += lookup.bytesReceived;
        }
        if (neighbor != nullptr) {
          external = std::min(external, validatedWarmBound(r, *neighbor));
        }
      }
    }
    misses.push_back(i);
    externalBounds.push_back(external);
  }

  // Fan the remaining solves out over the engine pool. Each solve nests
  // its own fan-out on the same workers; the pool's helping discipline
  // makes nested regions deadlock-free. Every external incumbent (board,
  // store, near-key warm start) was fixed in the serial pass above, so
  // the parallel region only reads.
  auto solved =
      parallelMap<OptimizedPlan>(pool_, misses.size(), [&](std::size_t k) {
        const PlanRequest& r = requests[misses[k]];
        return solveOne(r.app, r.model, r.objective, r.options,
                        externalBounds[k]);
      });
  std::vector<std::string> publishKeys;
  std::vector<const OptimizedPlan*> publishPlans;
  std::vector<std::size_t> publishIdx;
  for (std::size_t k = 0; k < misses.size(); ++k) {
    const std::size_t i = misses[k];
    out[i] = std::move(solved[k]);
    // A miss that still probed the store pays that probe's wire cost (its
    // GET frame and the bound-carrying reply).
    if (const auto it = remote.find(i); it != remote.end()) {
      out[i].stats.storeBytesSent += it->second.bytesSent;
      out[i].stats.storeBytesReceived += it->second.bytesReceived;
    }
    // Result-store evictions are engine-level state, reported through
    // resultCacheStats() — EngineStats::evictions stays score-cache-only.
    if (config_.cacheFullResults && resultCacheable(requests[i])) {
      (void)results_.insert(keys[i], out[i]);
    }
    if (config_.boundBoard != nullptr && resultCacheable(requests[i])) {
      config_.boundBoard->publish(keys[i], out[i].value);
    }
    if (config_.resultStore != nullptr && resultCacheable(requests[i])) {
      publishKeys.push_back(keys[i]);
      publishPlans.push_back(&out[i]);
      publishIdx.push_back(i);
    }
  }
  // Publish to the fleet store last, in one pipelined putMany (mirroring
  // the getMany probe): each PUT carries the winner AND its value (the
  // store posts it to the fleet bound board), so any host's later
  // same-key solve is served or tightened — and a cold batch's publishes
  // pay ~1 round trip, not one per solve. Each PUT's wire cost lands on
  // the request that published it (the representative — duplicates below
  // carry no bytes, so summing a batch counts every wire byte once).
  if (!publishKeys.empty()) {
    std::vector<RemoteResultStore::OpBytes> putBytes;
    config_.resultStore->putMany(publishKeys, publishPlans, &putBytes);
    for (std::size_t k = 0; k < publishIdx.size(); ++k) {
      out[publishIdx[k]].stats.storeBytesSent += putBytes[k].sent;
      out[publishIdx[k]].stats.storeBytesReceived += putBytes[k].received;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (representative[i] != i) {
      out[i] = out[representative[i]];
      // The work is accounted once, at the representative: a duplicate
      // carries only its cross-request marker so that summing stats over
      // the batch never double-counts hits, aborts or evictions.
      out[i].stats = EngineStats{};
      out[i].stats.crossRequestHits = 1;
    }
  }
  return out;
}

CandidateCache::Stats PlanEngine::cacheStats() const { return cache_.stats(); }

std::size_t PlanEngine::cacheSize() const { return cache_.size(); }

void PlanEngine::saveCache(std::ostream& os) const {
  writeCandidateCache(os, cache_);
}

void PlanEngine::loadCache(std::istream& is) {
  readCandidateCache(is, cache_);
}

ResultCache::Stats PlanEngine::resultCacheStats() const {
  return results_.stats();
}

std::size_t PlanEngine::resultCacheSize() const { return results_.size(); }

void PlanEngine::saveResults(std::ostream& os, std::size_t budget) const {
  writeResultCache(os, results_, budget);
}

void PlanEngine::loadResults(std::istream& is) {
  readResultCache(is, results_);
}

std::string PlanEngine::requestKey(const PlanRequest& request) {
  return applicationSignature(request.app) + '#' +
         std::string(name(request.model)) + '#' +
         std::string(name(request.objective)) + '#' +
         optionsFingerprint(request.options);
}

std::string PlanEngine::dedupKey(const PlanRequest& request) const {
  std::string key = requestKey(request);
  if (config_.registry != nullptr && request.options.registry == nullptr) {
    // Solved by the engine-level override, not the "builtin" the static
    // key describes: keep it apart from true builtin-portfolio requests.
    key += ";engreg";
  }
  return key;
}

PlanEngine& PlanEngine::shared() {
  static PlanEngine engine;
  return engine;
}

std::vector<OptimizedPlan> optimizePlanBatch(
    std::span<const PlanRequest> requests) {
  return PlanEngine::shared().optimizeBatch(requests);
}

}  // namespace fsw
