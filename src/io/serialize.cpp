#include "src/io/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/serve/result_cache.hpp"

namespace fsw {

namespace {

/// The non-degenerate slice of an LRU-first result-cache snapshot, trimmed
/// to the most recently used `budget` winners (0 = unbounded), still LRU
/// first. A non-finite value or empty strategy is a solve that found no
/// candidate — cheap to recompute, no reusable winner.
std::vector<const std::pair<std::string, ResultCache::Entry>*>
writableResultEntries(
    const std::vector<std::pair<std::string, ResultCache::Entry>>& entries,
    std::size_t budget) {
  std::vector<const std::pair<std::string, ResultCache::Entry>*> writable;
  writable.reserve(entries.size());
  for (const auto& entry : entries) {
    if (std::isfinite(entry.second->value) &&
        !entry.second->strategy.empty()) {
      writable.push_back(&entry);
    }
  }
  const std::size_t keep =
      budget == 0 ? writable.size() : std::min(budget, writable.size());
  writable.erase(writable.begin(),
                 writable.begin() +
                     static_cast<std::ptrdiff_t>(writable.size() - keep));
  return writable;
}

/// The wire token naming a request's portfolio: "-" for the default, the
/// portfolio's registered name otherwise. Unnamed portfolios are
/// process-local by contract (their key is a pointer), so they cannot
/// travel.
std::string portfolioToken(const OptimizerOptions& options) {
  if (options.registry == nullptr) return "-";
  if (options.registry->name().empty()) {
    throw std::invalid_argument(
        "encodePlanRequest: an unnamed portfolio is process-local and cannot "
        "cross the wire; name it (CandidateRegistry::setName) to opt in to "
        "portable keys");
  }
  return options.registry->name();
}

/// Bit-pattern double equality: the delta-coding exactness check. operator==
/// would call -0.0 == 0.0 and never match NaNs, both of which break the
/// byte-exact re-encode contract; the bits are the contract.
bool bitsEqual(double a, double b) {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

/// Delta arithmetic runs in uint64 with wraparound (signed overflow on a
/// hostile delta would be UB); callers bounds-check the result.
std::int64_t wrapAdd(std::int64_t prev, std::int64_t delta) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(prev) +
                                   static_cast<std::uint64_t>(delta));
}

/// Front coding: consecutive cache keys share long signature prefixes, so
/// each key is stored as (shared-prefix-length, suffix) against its
/// predecessor. The suffix itself is LZ-compressed — a request key lists
/// every service's cost:selectivity token, so even the unshared tail is
/// internally repetitive.
void putFrontCodedKey(binio::Writer& w, const std::string& prev,
                      const std::string& key) {
  std::size_t share = 0;
  const std::size_t lim = std::min(prev.size(), key.size());
  while (share < lim && prev[share] == key[share]) ++share;
  w.u64(share);
  w.zstr(std::string_view(key).substr(share));
}

std::string getFrontCodedKey(binio::Reader& r, const std::string& prev) {
  const std::uint64_t share = r.u64();
  if (share > prev.size()) {
    r.fail("front-coded key shares " + std::to_string(share) +
           " bytes but the previous key has only " +
           std::to_string(prev.size()));
  }
  std::string key = prev.substr(0, static_cast<std::size_t>(share));
  key.append(r.zstr());
  return key;
}

/// Calc/comm interval codec: begin travels as a delta against the previous
/// record's begin and end as a duration, each only when the delta
/// reconstructs the original bits exactly (flag bits 0/1; absolute f64
/// fallback otherwise, which also covers NaNs). The transformed values are
/// then pooled in a per-oplist dictionary of distinct bit patterns:
/// schedules repeat durations and alignment gaps relentlessly (B.1's 1208
/// interval values collapse to 5 distinct deltas), so each interval costs
/// a flags byte plus two short dictionary indices instead of two doubles.
/// Interning by bit pattern (not ==) keeps -0.0 and NaN payloads exact and
/// the dictionary order (first use) deterministic.
struct IntervalPool {
  std::vector<double> values;  ///< distinct doubles, first-use order
  std::unordered_map<std::uint64_t, std::size_t> index;

  std::size_t intern(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    const auto [it, fresh] = index.emplace(b, values.size());
    if (fresh) values.push_back(v);
    return it->second;
  }
};

struct CodedInterval {
  std::uint8_t flags = 0;
  std::size_t a = 0;  ///< pool slot of delta-begin (or absolute begin)
  std::size_t b = 0;  ///< pool slot of duration (or absolute end)
};

CodedInterval codeInterval(IntervalPool& pool, double begin, double end,
                           double& prevBegin) {
  const double db = begin - prevBegin;
  const double de = end - begin;
  CodedInterval c;
  if (bitsEqual(prevBegin + db, begin)) c.flags |= 1;
  if (bitsEqual(begin + de, end)) c.flags |= 2;
  c.a = pool.intern((c.flags & 1) != 0 ? db : begin);
  c.b = pool.intern((c.flags & 2) != 0 ? de : end);
  prevBegin = begin;
  return c;
}

bool operator==(const CodedInterval& x, const CodedInterval& y) {
  return x.flags == y.flags && x.a == y.a && x.b == y.b;
}

}  // namespace

void putApplication(binio::Writer& w, const Application& app) {
  w.u64(app.size());
  for (NodeId i = 0; i < app.size(); ++i) {
    const auto& s = app.service(i);
    // An unnamed service travels as its printed name "C<i+1>", so the
    // decoded Application re-encodes (and keys) byte-identically.
    w.str(s.name.empty() ? "C" + std::to_string(i + 1) : s.name);
    w.f64(s.cost);
    w.f64(s.selectivity);
  }
  const auto& precs = app.precedences();
  w.u64(precs.size());
  std::int64_t prevFrom = 0;
  std::int64_t prevTo = 0;
  for (const auto& e : precs) {
    w.i64(static_cast<std::int64_t>(e.from) - prevFrom);
    w.i64(static_cast<std::int64_t>(e.to) - prevTo);
    prevFrom = static_cast<std::int64_t>(e.from);
    prevTo = static_cast<std::int64_t>(e.to);
  }
}

Application getApplication(binio::Reader& r) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining()) {
    r.fail("application declares more services than bytes present");
  }
  Application app;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string name(r.str());
    const double cost = r.f64();
    const double sel = r.f64();
    try {
      app.addService(cost, sel, name);
    } catch (const std::invalid_argument& e) {
      r.fail(e.what());
    }
  }
  const std::uint64_t m = r.u64();
  if (m > r.remaining()) {
    r.fail("application declares more precedences than bytes present");
  }
  std::int64_t prevFrom = 0;
  std::int64_t prevTo = 0;
  for (std::uint64_t k = 0; k < m; ++k) {
    const std::int64_t from = wrapAdd(prevFrom, r.i64());
    const std::int64_t to = wrapAdd(prevTo, r.i64());
    if (from < 0 || static_cast<std::uint64_t>(from) >= n || to < 0 ||
        static_cast<std::uint64_t>(to) >= n) {
      r.fail("precedence endpoint out of range");
    }
    try {
      app.addPrecedence(static_cast<NodeId>(from), static_cast<NodeId>(to));
    } catch (const std::invalid_argument& e) {
      r.fail(e.what());
    }
    prevFrom = from;
    prevTo = to;
  }
  return app;
}

namespace {

/// Adjacency in STORED successor order (not sorted): decode rebuilds the
/// exact succ_/pred_ vectors, so a decoded plan re-serializes and signs
/// byte-identically to the original. Targets of one node are
/// near each other in practice, so zigzag deltas stay short anyway.
void putGraph(binio::Writer& w, const ExecutionGraph& g) {
  w.u64(g.size());
  w.u64(g.edgeCount());
  for (NodeId i = 0; i < g.size(); ++i) {
    const auto& succ = g.successors(i);
    w.u64(succ.size());
    std::int64_t prev = 0;
    for (const NodeId t : succ) {
      w.i64(static_cast<std::int64_t>(t) - prev);
      prev = static_cast<std::int64_t>(t);
    }
  }
}

ExecutionGraph getGraph(binio::Reader& r) {
  const std::uint64_t n = r.u64();
  const std::uint64_t m = r.u64();
  if (n > r.remaining()) {
    r.fail("graph declares more nodes than bytes present");
  }
  if (m > r.remaining()) {
    r.fail("graph declares more edges than bytes present");
  }
  ExecutionGraph g(static_cast<std::size_t>(n));
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t deg = r.u64();
    total += deg;
    if (total > m) r.fail("more edges than the declared edge count");
    std::int64_t prev = 0;
    for (std::uint64_t k = 0; k < deg; ++k) {
      const std::int64_t v = wrapAdd(prev, r.i64());
      if (v < 0 || static_cast<std::uint64_t>(v) >= n) {
        r.fail("edge target out of range");
      }
      try {
        g.addEdge(static_cast<NodeId>(i), static_cast<NodeId>(v));
      } catch (const std::invalid_argument& e) {
        r.fail(e.what());
      }
      prev = v;
    }
  }
  if (total != m) {
    r.fail("edge count mismatch (declared " + std::to_string(m) + ", found " +
           std::to_string(total) + ")");
  }
  return g;
}

void putOperationList(binio::Writer& w, const OperationList& ol) {
  // Pass 1: delta-transform every interval (calcs first, then comms) and
  // intern the transformed values. Pass 2 writes the dictionary, then the
  // coded intervals as one run-length stream — a schedule that repeats the
  // same duration back to back (every round-robin period does) codes as
  // one (run, flags, slot, slot) group — then the comm endpoints as zigzag
  // deltas against the previous comm (adjacent comms connect neighbouring
  // services, so the deltas are small).
  IntervalPool pool;
  std::vector<CodedInterval> coded;
  coded.reserve(ol.size() + ol.comms().size());
  double prevBegin = 0.0;
  for (NodeId i = 0; i < ol.size(); ++i) {
    coded.push_back(
        codeInterval(pool, ol.beginCalc(i), ol.endCalc(i), prevBegin));
  }
  for (const auto& c : ol.comms()) {
    coded.push_back(codeInterval(pool, c.begin, c.end, prevBegin));
  }

  w.u64(ol.size());
  w.f64(ol.lambda());
  w.u64(ol.comms().size());
  w.u64(pool.values.size());
  for (const double v : pool.values) w.f64(v);
  for (std::size_t k = 0; k < coded.size();) {
    std::size_t run = 1;
    while (k + run < coded.size() && coded[k + run] == coded[k]) ++run;
    w.u64(run);
    w.u8(coded[k].flags);
    w.u64(coded[k].a);
    w.u64(coded[k].b);
    k += run;
  }
  const auto enc = [](NodeId v) {
    return v == kWorld ? std::int64_t{-1} : static_cast<std::int64_t>(v);
  };
  std::int64_t prevFrom = 0;
  std::int64_t prevTo = 0;
  for (const auto& c : ol.comms()) {
    w.i64(enc(c.from) - prevFrom);
    w.i64(enc(c.to) - prevTo);
    prevFrom = enc(c.from);
    prevTo = enc(c.to);
  }
}

OperationList getOperationList(binio::Reader& r) {
  const std::uint64_t n = r.u64();
  const double lambda = r.f64();
  const std::uint64_t comms = r.u64();
  if (n > r.remaining()) {
    r.fail("oplist declares more calcs than bytes present");
  }
  if (comms > r.remaining()) {
    r.fail("oplist declares more comms than bytes present");
  }
  const std::uint64_t dict = r.u64();
  if (dict > r.remaining()) {
    r.fail("oplist declares more dictionary values than bytes present");
  }
  if (dict > 2 * (n + comms)) {
    r.fail("oplist dictionary larger than its interval count allows");
  }
  std::vector<double> pool;
  pool.reserve(static_cast<std::size_t>(dict));
  for (std::uint64_t i = 0; i < dict; ++i) pool.push_back(r.f64());

  // The run-length interval stream buffers into absolute (begin, end)
  // spans: calc spans land directly, comm spans wait for the endpoint
  // deltas that follow the stream.
  const std::uint64_t total = n + comms;
  std::vector<std::pair<double, double>> spans;
  spans.reserve(static_cast<std::size_t>(total));
  double prevBegin = 0.0;
  while (spans.size() < total) {
    const std::uint64_t run = r.u64();
    if (run == 0) r.fail("zero-length interval run");
    if (run > total - spans.size()) {
      r.fail("interval run overruns the declared calc+comm count");
    }
    const std::uint8_t flags = r.u8();
    if ((flags & ~3u) != 0) r.fail("unknown interval flag bits");
    const std::uint64_t ia = r.u64();
    const std::uint64_t ib = r.u64();
    if (ia >= pool.size() || ib >= pool.size()) {
      r.fail("interval value index out of dictionary range");
    }
    const double a = pool[static_cast<std::size_t>(ia)];
    const double b = pool[static_cast<std::size_t>(ib)];
    for (std::uint64_t j = 0; j < run; ++j) {
      const double begin = (flags & 1) != 0 ? prevBegin + a : a;
      const double end = (flags & 2) != 0 ? begin + b : b;
      spans.emplace_back(begin, end);
      prevBegin = begin;
    }
  }

  OperationList ol(static_cast<std::size_t>(n), lambda);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto& s = spans[static_cast<std::size_t>(i)];
    try {
      ol.setCalc(static_cast<NodeId>(i), s.first, s.second);
    } catch (const std::invalid_argument& ex) {
      r.fail(ex.what());
    }
  }
  const auto dec = [&](std::int64_t v) -> NodeId {
    if (v == -1) return kWorld;
    if (v < 0 || static_cast<std::uint64_t>(v) >= n) {
      r.fail("comm endpoint out of range");
    }
    return static_cast<NodeId>(v);
  };
  std::int64_t prevFrom = 0;
  std::int64_t prevTo = 0;
  for (std::uint64_t k = 0; k < comms; ++k) {
    const std::int64_t from = wrapAdd(prevFrom, r.i64());
    const std::int64_t to = wrapAdd(prevTo, r.i64());
    const auto& s = spans[static_cast<std::size_t>(n + k)];
    try {
      ol.setComm(dec(from), dec(to), s.first, s.second);
    } catch (const std::invalid_argument& ex) {
      r.fail(ex.what());
    }
    prevFrom = from;
    prevTo = to;
  }
  return ol;
}

void putStats(binio::Writer& w, const EngineStats& s) {
  w.u64(s.sourcesRun);
  w.u64(s.generated);
  w.u64(s.unique);
  w.u64(s.duplicates);
  w.u64(s.scoreCacheHits);
  w.u64(s.orchestrated);
  w.u64(s.sharedHits);
  w.u64(s.evictions);
  w.u64(s.crossRequestHits);
  w.u64(s.resultCacheHits);
  w.u64(s.evalProbes);
  w.u64(s.scratchHeapAllocs);
  w.u64(s.arenaBytesHighWater);
  w.u64(s.storeBytesSent);
  w.u64(s.storeBytesReceived);
  w.u64(s.seedBoundAborts);
  w.u64(s.repairBoundAborts);
}

void getStats(binio::Reader& r, EngineStats& s) {
  s.sourcesRun = static_cast<std::size_t>(r.u64());
  s.generated = static_cast<std::size_t>(r.u64());
  s.unique = static_cast<std::size_t>(r.u64());
  s.duplicates = static_cast<std::size_t>(r.u64());
  s.scoreCacheHits = static_cast<std::size_t>(r.u64());
  s.orchestrated = static_cast<std::size_t>(r.u64());
  s.sharedHits = static_cast<std::size_t>(r.u64());
  s.evictions = static_cast<std::size_t>(r.u64());
  s.crossRequestHits = static_cast<std::size_t>(r.u64());
  s.resultCacheHits = static_cast<std::size_t>(r.u64());
  s.evalProbes = static_cast<std::size_t>(r.u64());
  s.scratchHeapAllocs = static_cast<std::size_t>(r.u64());
  s.arenaBytesHighWater = static_cast<std::size_t>(r.u64());
  s.storeBytesSent = static_cast<std::size_t>(r.u64());
  s.storeBytesReceived = static_cast<std::size_t>(r.u64());
  s.seedBoundAborts = static_cast<std::size_t>(r.u64());
  s.repairBoundAborts = static_cast<std::size_t>(r.u64());
}

/// The winner without its stats — the result-cache entry body (the cache
/// clears stats on insert, so storing them would be dead bytes).
void putPlanCore(binio::Writer& w, const OptimizedPlan& plan) {
  w.f64(plan.value);
  w.f64(plan.surrogate);
  w.str(plan.strategy);
  putGraph(w, plan.plan.graph);
  putOperationList(w, plan.plan.ol);
}

void getPlanCore(binio::Reader& r, OptimizedPlan& plan) {
  plan.value = r.f64();
  plan.surrogate = r.f64();
  plan.strategy = std::string(r.str());
  plan.plan.graph = getGraph(r);
  plan.plan.ol = getOperationList(r);
}

/// The wire plan body: core + the 17 EngineStats counters (stats cross the
/// wire so a remote client observes the same counters a local caller
/// would).
void putPlanBody(binio::Writer& w, const OptimizedPlan& plan) {
  putPlanCore(w, plan);
  putStats(w, plan.stats);
}

OptimizedPlan getPlanBody(binio::Reader& r) {
  OptimizedPlan plan;
  getPlanCore(r, plan);
  getStats(r, plan.stats);
  return plan;
}

void putOrder(binio::Writer& w, const OrchestrationOptions& ord) {
  w.u64(ord.exactCap);
  w.u64(ord.localSearchIters);
  w.u64(ord.localSearchRestarts);
  w.u64(ord.seed);
  w.f64(ord.upperBound);
}

void getOrder(binio::Reader& r, OrchestrationOptions& ord) {
  ord.exactCap = static_cast<std::size_t>(r.u64());
  ord.localSearchIters = static_cast<std::size_t>(r.u64());
  ord.localSearchRestarts = static_cast<std::size_t>(r.u64());
  ord.seed = r.u64();
  ord.upperBound = r.f64();
}

void putPlanRequestBody(binio::Writer& w, const PlanRequest& request,
                        int priority) {
  const OptimizerOptions& o = request.options;
  const OutorderOptions& oo = o.orchestrator.outorder;
  w.i64(priority);
  w.str(name(request.model));
  w.str(name(request.objective));
  w.str(portfolioToken(o));  // "-" = default portfolio
  w.u64(o.exactForestMaxN);
  w.u64(o.orchestrateTop);
  w.u64(o.heuristics.restarts);
  w.u64(o.heuristics.iterations);
  w.f64(o.heuristics.initialTemperature);
  w.u64(o.heuristics.seed);
  putOrder(w, o.orchestrator.order);
  w.u64(oo.repairIters);
  w.u64(oo.restarts);
  w.u64(oo.bisectSteps);
  w.u64(oo.seed);
  putOrder(w, oo.inorder);
  putApplication(w, request.app);
}

WirePlanRequest getPlanRequestBody(binio::Reader& r) {
  WirePlanRequest wire;
  OptimizerOptions& o = wire.request.options;
  wire.priority = static_cast<int>(r.i64());
  const std::string model(r.str());
  const auto m = commModelFromName(model);
  if (!m) r.fail("unknown model '" + model + "'");
  wire.request.model = *m;
  const std::string objective(r.str());
  const auto obj = objectiveFromName(objective);
  if (!obj) r.fail("unknown objective '" + objective + "'");
  wire.request.objective = *obj;
  wire.portfolio = std::string(r.str());
  if (wire.portfolio.empty()) r.fail("empty portfolio token");
  o.exactForestMaxN = static_cast<std::size_t>(r.u64());
  o.orchestrateTop = static_cast<std::size_t>(r.u64());
  o.heuristics.restarts = static_cast<std::size_t>(r.u64());
  o.heuristics.iterations = static_cast<std::size_t>(r.u64());
  o.heuristics.initialTemperature = r.f64();
  o.heuristics.seed = r.u64();
  getOrder(r, o.orchestrator.order);
  OutorderOptions& oo = o.orchestrator.outorder;
  oo.repairIters = static_cast<std::size_t>(r.u64());
  oo.restarts = static_cast<std::size_t>(r.u64());
  oo.bisectSteps = static_cast<std::size_t>(r.u64());
  oo.seed = r.u64();
  getOrder(r, oo.inorder);
  wire.request.app = getApplication(r);
  return wire;
}

/// Pulls one binary artifact block off a stream and checks its identity.
binio::Block readArtifactBlock(std::istream& is, char kind, int version,
                               const char* where) {
  binio::Block block = binio::readBlock(is, where);
  if (block.kind != kind) {
    throw std::runtime_error(std::string(where) +
                             ": unexpected binary block kind '" + block.kind +
                             "' (expected '" + kind + "')");
  }
  if (block.version != static_cast<std::uint64_t>(version)) {
    throw std::runtime_error(
        std::string(where) + ": unsupported binary version " +
        std::to_string(block.version) + " (expected " +
        std::to_string(version) + ")");
  }
  return block;
}

/// Rethrows a Reader error with which-entry context appended.
[[noreturn]] void rethrowEntry(const std::runtime_error& e, std::uint64_t k,
                               std::uint64_t n) {
  throw std::runtime_error(std::string(e.what()) + " (entry " +
                           std::to_string(k + 1) + " of " +
                           std::to_string(n) + ")");
}

}  // namespace

void writeCandidateCache(std::ostream& os, const CandidateCache& cache) {
  const auto entries = cache.snapshot();  // LRU first
  binio::Writer body;
  body.u64(entries.size());
  std::string prev;
  for (const auto& [key, score] : entries) {
    putFrontCodedKey(body, prev, key);
    body.f64(score);
    prev = key;
  }
  const std::string block = binio::finishBlock(
      kBinScoreCacheKind, kBinScoreCacheVersion, body.take());
  os.write(block.data(), static_cast<std::streamsize>(block.size()));
}

void readCandidateCache(std::istream& is, CandidateCache& cache) {
  const binio::Block block = readArtifactBlock(
      is, kBinScoreCacheKind, kBinScoreCacheVersion, "readCandidateCache");
  binio::Reader r(block.body, "readCandidateCache");
  const std::uint64_t n = r.u64();
  std::string prev;
  for (std::uint64_t k = 0; k < n; ++k) {
    std::string key;
    double score = 0.0;
    try {
      key = getFrontCodedKey(r, prev);
      score = r.f64();
    } catch (const std::runtime_error& e) {
      rethrowEntry(e, k, n);
    }
    (void)cache.insert(key, score);
    prev = std::move(key);
  }
  r.expectEnd();
}

void writeResultCache(std::ostream& os, const ResultCache& cache,
                      std::size_t budget) {
  const auto entries = cache.snapshot();  // LRU first
  const auto writable = writableResultEntries(entries, budget);
  binio::Writer body;
  body.u64(writable.size());
  std::string prev;
  for (const auto* entry : writable) {
    const auto& [key, plan] = *entry;
    putFrontCodedKey(body, prev, key);
    putPlanCore(body, *plan);
    prev = key;
  }
  const std::string block = binio::finishBlock(
      kBinResultCacheKind, kBinResultCacheVersion, body.take());
  os.write(block.data(), static_cast<std::streamsize>(block.size()));
}

void readResultCache(std::istream& is, ResultCache& cache) {
  const binio::Block block = readArtifactBlock(
      is, kBinResultCacheKind, kBinResultCacheVersion, "readResultCache");
  binio::Reader r(block.body, "readResultCache");
  const std::uint64_t n = r.u64();
  std::string prev;
  for (std::uint64_t k = 0; k < n; ++k) {
    std::string key;
    OptimizedPlan plan;
    try {
      key = getFrontCodedKey(r, prev);
      getPlanCore(r, plan);
    } catch (const std::runtime_error& e) {
      rethrowEntry(e, k, n);
    }
    (void)cache.insert(key, plan);
    prev = std::move(key);
  }
  r.expectEnd();
}

std::string encodePlanRequest(const PlanRequest& request, int priority) {
  binio::Writer body;
  putPlanRequestBody(body, request, priority);
  return binio::finishBlock(kBinPlanRequestKind, kBinPlanRequestVersion,
                            body.take());
}

WirePlanRequest decodePlanRequest(std::string_view payload) {
  binio::Reader r = binio::openBlock(payload, kBinPlanRequestKind,
                                     kBinPlanRequestVersion,
                                     "decodePlanRequest");
  WirePlanRequest wire = getPlanRequestBody(r);
  r.expectEnd();
  return wire;
}

std::string encodeOptimizedPlan(const OptimizedPlan& plan) {
  binio::Writer body;
  putPlanBody(body, plan);
  return binio::finishBlock(kBinPlanResponseKind, kBinPlanResponseVersion,
                            body.take());
}

OptimizedPlan decodeOptimizedPlan(std::string_view payload) {
  binio::Reader r = binio::openBlock(payload, kBinPlanResponseKind,
                                     kBinPlanResponseVersion,
                                     "decodeOptimizedPlan");
  OptimizedPlan plan = getPlanBody(r);
  r.expectEnd();
  return plan;
}

std::string encodeStoreGet(const std::string& key, bool wantPlan, bool near) {
  binio::Writer body;
  body.zstr(key);
  body.u8(wantPlan ? 1 : 0);
  body.u8(near ? 1 : 0);
  return binio::finishBlock(kBinStoreGetKind, kBinStoreGetVersion,
                            body.take());
}

StoreGet decodeStoreGet(std::string_view payload) {
  binio::Reader r = binio::openBlock(payload, kBinStoreGetKind,
                                     kBinStoreGetVersion, "decodeStoreGet");
  StoreGet get;
  get.key = r.zstr();
  const std::uint8_t wantPlan = r.u8();
  if (wantPlan > 1) r.fail("bad wantPlan flag");
  get.wantPlan = wantPlan == 1;
  const std::uint8_t near = r.u8();
  if (near > 1) r.fail("bad near flag");
  get.near = near == 1;
  r.expectEnd();
  return get;
}

std::string encodeStorePut(const std::string& key, const OptimizedPlan& plan) {
  binio::Writer body;
  body.zstr(key);
  putPlanBody(body, plan);
  return binio::finishBlock(kBinStorePutKind, kBinStorePutVersion,
                            body.take());
}

StorePut decodeStorePut(std::string_view payload) {
  binio::Reader r = binio::openBlock(payload, kBinStorePutKind,
                                     kBinStorePutVersion, "decodeStorePut");
  StorePut put;
  put.key = r.zstr();
  put.plan = getPlanBody(r);
  r.expectEnd();
  return put;
}

std::string encodeStoreReply(const OptimizedPlan* plan, double bound) {
  binio::Writer body;
  body.u8(plan != nullptr ? 1 : 0);
  body.f64(bound);
  if (plan != nullptr) putPlanBody(body, *plan);
  return binio::finishBlock(kBinStoreReplyKind, kBinStoreReplyVersion,
                            body.take());
}

StoreReply decodeStoreReply(std::string_view payload) {
  binio::Reader r = binio::openBlock(payload, kBinStoreReplyKind,
                                     kBinStoreReplyVersion,
                                     "decodeStoreReply");
  StoreReply reply;
  const std::uint8_t found = r.u8();
  if (found > 1) r.fail("bad found flag");
  reply.found = found == 1;
  reply.bound = r.f64();
  if (reply.found) reply.plan = getPlanBody(r);
  r.expectEnd();
  return reply;
}

std::string encodeStoreStats(const StoreStatsWire& stats) {
  binio::Writer body;
  body.u64(stats.entries);
  body.u64(stats.gets);
  body.u64(stats.hits);
  body.u64(stats.boundHits);
  body.u64(stats.puts);
  body.u64(stats.evictions);
  body.u64(stats.bounds);
  body.u64(stats.framesIn);
  body.u64(stats.bytesIn);
  body.u64(stats.framesOut);
  body.u64(stats.bytesOut);
  body.u64(stats.accepted);
  body.u64(stats.refusedOverLimit);
  body.u64(stats.idleClosed);
  body.u64(stats.peakWriteQueueBytes);
  return binio::finishBlock(kBinStoreStatsKind, kBinStoreStatsVersion,
                            body.take());
}

StoreStatsWire decodeStoreStats(std::string_view payload) {
  binio::Reader r = binio::openBlock(payload, kBinStoreStatsKind,
                                     kBinStoreStatsVersion,
                                     "decodeStoreStats");
  StoreStatsWire stats;
  stats.entries = static_cast<std::size_t>(r.u64());
  stats.gets = static_cast<std::size_t>(r.u64());
  stats.hits = static_cast<std::size_t>(r.u64());
  stats.boundHits = static_cast<std::size_t>(r.u64());
  stats.puts = static_cast<std::size_t>(r.u64());
  stats.evictions = static_cast<std::size_t>(r.u64());
  stats.bounds = static_cast<std::size_t>(r.u64());
  stats.framesIn = static_cast<std::size_t>(r.u64());
  stats.bytesIn = static_cast<std::size_t>(r.u64());
  stats.framesOut = static_cast<std::size_t>(r.u64());
  stats.bytesOut = static_cast<std::size_t>(r.u64());
  stats.accepted = static_cast<std::size_t>(r.u64());
  stats.refusedOverLimit = static_cast<std::size_t>(r.u64());
  stats.idleClosed = static_cast<std::size_t>(r.u64());
  stats.peakWriteQueueBytes = static_cast<std::size_t>(r.u64());
  r.expectEnd();
  return stats;
}

ArtifactInfo inspectArtifact(std::istream& is) {
  const auto start = is.tellg();
  const binio::Block block = binio::readBlock(is, "inspectArtifact");
  is.clear();
  const auto end = is.tellg();
  ArtifactInfo info;
  info.version = block.version;
  if (start >= 0 && end >= 0) {
    info.bytes = static_cast<std::uint64_t>(end - start);
  }
  switch (block.kind) {
    case kBinScoreCacheKind:
      info.kind = "score-cache";
      break;
    case kBinResultCacheKind:
      info.kind = "result-cache";
      break;
    default:
      throw std::runtime_error(
          std::string("inspectArtifact: unrecognized binary block kind '") +
          block.kind + "'");
  }
  binio::Reader r(block.body, "inspectArtifact");
  info.entries = r.u64();
  return info;
}

std::string toString(const Application& app) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "application " << app.size() << "\n";
  for (NodeId i = 0; i < app.size(); ++i) {
    const auto& s = app.service(i);
    os << "service " << (s.name.empty() ? "C" + std::to_string(i + 1) : s.name)
       << " " << s.cost << " " << s.selectivity << "\n";
  }
  for (const auto& e : app.precedences()) {
    os << "precedence " << e.from << " " << e.to << "\n";
  }
  return os.str();
}

std::string toString(const ExecutionGraph& graph) {
  std::ostringstream os;
  os << "graph " << graph.size() << " " << graph.edgeCount() << "\n";
  for (const auto& e : graph.edges()) {
    os << "edge " << e.from << " " << e.to << "\n";
  }
  return os.str();
}

std::string toString(const OperationList& ol) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "oplist " << ol.size() << " " << ol.lambda() << " "
     << ol.comms().size() << "\n";
  for (NodeId i = 0; i < ol.size(); ++i) {
    os << "calc " << i << " " << ol.beginCalc(i) << " " << ol.endCalc(i)
       << "\n";
  }
  for (const auto& c : ol.comms()) {
    const auto enc = [](NodeId v) {
      return v == kWorld ? std::int64_t{-1} : static_cast<std::int64_t>(v);
    };
    os << "comm " << enc(c.from) << " " << enc(c.to) << " " << c.begin << " "
       << c.end << "\n";
  }
  return os.str();
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) os_ << ",";
    os_ << cells[i];
  }
  os_ << "\n";
}

}  // namespace fsw
