// Binary (de)serialization of cache artifacts and the serving wire
// payloads, plus plain-text printers for applications, execution graphs
// and operation lists.
//
// Every encoded unit is a binio block (src/io/binio.hpp): LEB128 varints,
// zigzag deltas for the structured sequences (graph adjacency, precedence
// pairs, operation intervals), front-coded cache keys and a bit-exact
// double codec. Each decoder accepts exactly one block kind at exactly its
// current version; anything else (another kind, another version, a text
// payload, trailing bytes) is a clean std::runtime_error naming what it
// found. decode(encode(x)) re-encodes to the identical byte string.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/application.hpp"
#include "src/core/execution_graph.hpp"
#include "src/io/binio.hpp"
#include "src/oplist/operation_list.hpp"
#include "src/opt/candidate.hpp"
#include "src/opt/optimizer.hpp"

namespace fsw {

/// ---- binary block registry -------------------------------------------------
///
/// Every binary unit is a binio block `0xFB <kind> <version> <len> <body>`.
/// Bump a version whenever its body layout or the meaning of its keys
/// changes; decoders then refuse the old one.
inline constexpr char kBinScoreCacheKind = 'C';
inline constexpr int kBinScoreCacheVersion = 3;
inline constexpr char kBinResultCacheKind = 'F';
inline constexpr int kBinResultCacheVersion = 2;
inline constexpr char kBinPlanRequestKind = 'Q';
inline constexpr int kBinPlanRequestVersion = 2;
/// Plan responses, PUTs and replies embed the plan body with its 17
/// EngineStats counters.
inline constexpr char kBinPlanResponseKind = 'R';
inline constexpr int kBinPlanResponseVersion = 5;
inline constexpr char kBinStorePutKind = 'P';
inline constexpr int kBinStorePutVersion = 4;
inline constexpr char kBinStoreReplyKind = 'Y';
inline constexpr int kBinStoreReplyVersion = 4;
inline constexpr char kBinStoreGetKind = 'G';
inline constexpr int kBinStoreGetVersion = 3;
inline constexpr char kBinStoreStatsKind = 'S';
inline constexpr int kBinStoreStatsVersion = 3;
/// Workload trace (src/workload/trace.hpp): timestamped arrival/mutation
/// events for the dynamic scenario engine, recordable and replayable
/// byte-exactly.
inline constexpr char kBinTraceKind = 'T';
inline constexpr int kBinTraceVersion = 1;

/// The shared binary application body: service (name, cost, selectivity)
/// records plus delta-coded precedence pairs — the encoding plan-request
/// blocks embed, exposed for other codecs that carry applications (the
/// workload trace's arrival events). getApplication throws via Reader on
/// malformed bodies (counts beyond the bytes present, negative or
/// non-finite costs and selectivities, out-of-range or cyclic precedences).
void putApplication(binio::Writer& w, const Application& app);
[[nodiscard]] Application getApplication(binio::Reader& r);

/// Binary score-cache artifact (v3, kind 'C'): one block whose body is the
/// entry count followed by (front-coded key, varint-double score) pairs,
/// LRU first — consecutive keys share long signature prefixes, so each is
/// stored as (shared-prefix-len, suffix). The cross-run memoization seam:
/// PlanEngine::saveCache / loadCache wrap these.
void writeCandidateCache(std::ostream& os, const CandidateCache& cache);
/// Inserts the dump's entries into `cache` (on top of current contents,
/// subject to its capacity bound). Throws std::runtime_error on a wrong
/// block kind or version, or malformed entries — naming the offending
/// entry and byte offset.
void readCandidateCache(std::istream& is, CandidateCache& cache);

class ResultCache;

/// Binary result-cache artifact (v2, kind 'F'): one block whose body is
/// the entry count followed by (front-coded key, plan body) records, LRU
/// first — each plan body delta-codes its graph adjacency and operation
/// intervals (see the codec notes at the top of this header).
/// `budget` is the on-disk entry budget (0 = unbounded): only the most
/// recently used `budget` winners are written, still LRU-first, so the
/// artifact stays sequential and size-bounded while a round trip
/// preserves the eviction order of what it keeps. Degenerate entries — a
/// non-finite value or empty strategy, i.e. a solve that found no
/// candidate — are skipped: they are cheap to recompute and carry no
/// reusable winner.
void writeResultCache(std::ostream& os, const ResultCache& cache,
                      std::size_t budget = 0);
/// Inserts the dump's winners into `cache` (on top of current contents,
/// subject to its capacity bound). Throws std::runtime_error on a wrong
/// block kind or version, or malformed entries — naming the offending
/// entry and byte offset.
void readResultCache(std::istream& is, ResultCache& cache);

/// ---- wire codec (cross-process serving) -----------------------------------
///
/// The byte-exact encoding of the two values that cross process boundaries
/// in distributed serving: a PlanRequest travelling to a remote
/// PlanServer, and the OptimizedPlan travelling back. Byte-exact means
/// encode(decode(encode(x))) == encode(x): doubles keep their bits
/// (including ±inf, NaN payloads and signed zeros), so a decoded request
/// computes the *identical* PlanEngine::requestKey on the far side — the
/// property the shared cross-process cache key space rests on.
///
/// Pointer-valued knobs never cross the wire: threads/pool are execution
/// placement (they change wall time, never winners — the host solves with
/// its own engine placement), and the portfolio travels as its *name*
/// ("-" reserved for the default/built-in portfolio; readers get the name
/// back and resolve it against their own process's registrations). An
/// unnamed request-level portfolio is process-local by contract, so
/// encodePlanRequest rejects it with std::invalid_argument.

/// A PlanRequest decoded from the wire. `request.options.registry` is left
/// null — `portfolio` carries the portfolio name ("-" = default) and the
/// transport layer resolves it against locally registered portfolios.
struct WirePlanRequest {
  PlanRequest request;
  std::string portfolio = "-";
  int priority = 0;
};

[[nodiscard]] std::string encodePlanRequest(const PlanRequest& request,
                                            int priority = 0);
[[nodiscard]] WirePlanRequest decodePlanRequest(std::string_view payload);
/// Stats cross the wire with the plan, so a remote client observes the
/// same counters a local caller would (e.g. resultCacheHits = 1 on a warm
/// repeat).
[[nodiscard]] std::string encodeOptimizedPlan(const OptimizedPlan& plan);
[[nodiscard]] OptimizedPlan decodeOptimizedPlan(std::string_view payload);

/// ---- result-store wire ops (cross-host shared result store) ---------------
///
/// The payloads of the result-store service (src/serve/result_store.*):
/// GET/PUT/STATS verbs riding the same FSWF frame protocol as plan
/// serving. Keys are the engine's canonical request keys
/// (PlanEngine::requestKey) — the portable cross-process key space — so a
/// winner PUT by one host is the byte-exact winner every other host GETs.

/// `wantPlan = false` asks for the incumbent bound only — the reply skips
/// the stored winner even on a hit, so an engine that re-solves by policy
/// (full-result caching off) does not download plans it would discard.
struct StoreGet {
  std::string key;
  bool wantPlan = true;
  /// `key` is a structural prefix (BoundBoard's structuralPrefixOfKey) and
  /// the host replies with the most recent winner whose key shares it — a
  /// warm-start hint, sent without a bound.
  bool near = false;
};

/// A publish: the plan's value doubles as the incumbent bound the store
/// forwards to later same-key GETs.
struct StorePut {
  std::string key;
  OptimizedPlan plan;
};

/// The reply to GET and PUT. `found` says whether a stored winner follows;
/// `bound` is the store's incumbent bound for the key (+inf = none posted)
/// — it travels even on a plan miss, so an evicted winner still tightens
/// the asker's abort thresholds. A PUT's ack simply echoes the published
/// value (frame sync for pipelined putters).
struct StoreReply {
  bool found = false;
  double bound = 0.0;  ///< +inf when the store has no bound for the key
  OptimizedPlan plan;  ///< meaningful only when `found`
};

/// The store's counters snapshot (the STATS verb).
struct StoreStatsWire {
  std::size_t entries = 0;      ///< winners currently stored
  std::size_t gets = 0;         ///< GET ops served
  std::size_t hits = 0;         ///< GETs that returned a stored winner
  std::size_t boundHits = 0;    ///< GETs that returned a finite bound
  std::size_t puts = 0;         ///< PUT ops applied
  std::size_t evictions = 0;    ///< winners dropped at the capacity bound
  std::size_t bounds = 0;       ///< bounds currently posted
  /// Host-side FSWF frame traffic (headers included), all connections
  /// combined.
  std::size_t framesIn = 0;
  std::size_t bytesIn = 0;
  std::size_t framesOut = 0;
  std::size_t bytesOut = 0;
  /// Transport ledger: connection admission and backpressure counters
  /// from frameio::TransportTotals.
  std::size_t accepted = 0;            ///< connections accepted
  std::size_t refusedOverLimit = 0;    ///< connections refused at the gate
  std::size_t idleClosed = 0;          ///< connections reaped by idle timer
  std::size_t peakWriteQueueBytes = 0; ///< deepest per-conn write queue
};

[[nodiscard]] std::string encodeStoreGet(const std::string& key,
                                         bool wantPlan = true,
                                         bool near = false);
[[nodiscard]] StoreGet decodeStoreGet(std::string_view payload);
[[nodiscard]] std::string encodeStorePut(const std::string& key,
                                         const OptimizedPlan& plan);
[[nodiscard]] StorePut decodeStorePut(std::string_view payload);
[[nodiscard]] std::string encodeStoreReply(const OptimizedPlan* plan,
                                           double bound);
[[nodiscard]] StoreReply decodeStoreReply(std::string_view payload);
[[nodiscard]] std::string encodeStoreStats(const StoreStatsWire& stats);
[[nodiscard]] StoreStatsWire decodeStoreStats(std::string_view payload);

/// ---- artifact inspection (tools/fsw_artifact) ------------------------------
///
/// A cheap structural summary of one artifact block at the stream's
/// current position: which format it is, its version, how many entries it
/// declares and how many encoded bytes it occupies (bodies are counted
/// without being fully decoded).
struct ArtifactInfo {
  std::string kind;          ///< "score-cache" or "result-cache"
  std::uint64_t version = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;   ///< encoded size of this block, header included
};
/// Throws std::runtime_error when the stream does not hold a score- or
/// result-cache block.
[[nodiscard]] ArtifactInfo inspectArtifact(std::istream& is);

/// Human-readable printers (diagnostics, mismatch notes, examples):
///   application <n> / service <name> <cost> <selectivity> /
///     precedence <from> <to>
///   graph <n> <edges> / edge <from> <to>
///   oplist <n> <lambda> <comms> / calc <i> <begin> <end> /
///     comm <from> <to> <begin> <end>   (-1 = world)
/// Doubles print at 17 significant digits.
[[nodiscard]] std::string toString(const Application& app);
[[nodiscard]] std::string toString(const ExecutionGraph& graph);
[[nodiscard]] std::string toString(const OperationList& ol);

/// Minimal CSV row writer (quotes nothing; callers pass clean cells).
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}
  void row(const std::vector<std::string>& cells);

 private:
  std::ostream& os_;
};

}  // namespace fsw
