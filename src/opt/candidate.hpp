// The pluggable candidate layer of the plan-search engine.
//
// Every way of proposing execution graphs — the polynomial chain greedies
// (Prop 8 / Prop 16), the no-communication baseline of [1], the forest
// heuristics, the exact forest enumeration (Prop 4) — implements one
// interface, CandidateSource, and registers in a CandidateRegistry. The
// optimizer facade no longer hard-codes its portfolio: the PlanEngine asks
// the registry for applicable sources, fans their generation out over a
// thread pool, dedups proposals within the request, and memoizes surrogate
// scores through a shared CandidateCache keyed by canonical application /
// ExecutionGraph signatures. New search strategies (future PRs: beam
// search, learned proposers) plug in by registering a source — no facade
// changes.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/lru_cache.hpp"
#include "src/core/application.hpp"
#include "src/core/execution_graph.hpp"
#include "src/core/model.hpp"
#include "src/opt/heuristics.hpp"

namespace fsw {

/// Everything a source may consult when proposing graphs.
struct CandidateContext {
  const Application& app;
  CommModel model;
  Objective objective;
  /// Exhaustive forest search cutoff; the source caps it at
  /// kExactForestMaxN (src/opt/forest_search.hpp).
  std::size_t exactForestMaxN = 6;
  HeuristicOptions heuristics{};
};

/// A named generator of candidate execution graphs. Implementations must be
/// deterministic functions of the context (all randomness seeded from
/// `heuristics.seed`) and safe to call concurrently with other sources.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;

  /// Stable identifier; doubles as the winning plan's `strategy` label and
  /// as a deterministic tie-break key, so keep names unique and meaningful.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Whether this source can propose anything for the context (e.g. the
  /// chain greedies require an application without precedences).
  [[nodiscard]] virtual bool applicable(const CandidateContext& ctx) const;

  /// Proposes zero or more candidate graphs. Graphs that do not respect the
  /// application are discarded by the engine, so sources may be optimistic.
  [[nodiscard]] virtual std::vector<ExecutionGraph> generate(
      const CandidateContext& ctx) const = 0;
};

/// An ordered collection of sources. Registration order is part of the
/// engine's deterministic tie-break (earlier sources win ties), so the
/// built-in order is fixed and extensions append.
///
/// Naming a portfolio is the explicit opt-in to *portable* request keys:
/// a named portfolio's identity is its name plus the ordered source-name
/// list (portfolioFingerprint), so two processes that register
/// behaviorally identical sources under the same names produce identical
/// keys — the precondition for a shared cross-process cache. The name is
/// a contract: it must identify the sources' behavior, so rename extended
/// or modified copies of the built-in. An *unnamed* registry stays
/// process-local — the serving layer falls back to pointer identity for
/// it, which keeps two anonymous registries distinct even when their
/// source names collide.
class CandidateRegistry {
 public:
  CandidateRegistry() = default;  ///< unnamed: process-local key identity
  /// A portfolio with a stable name (non-empty, no whitespace; throws
  /// std::invalid_argument otherwise).
  explicit CandidateRegistry(std::string name);
  CandidateRegistry(CandidateRegistry&&) = default;
  CandidateRegistry& operator=(CandidateRegistry&&) = default;

  /// Appends a source. Throws std::invalid_argument on a duplicate, empty
  /// or whitespace-containing name (names are file-format tokens).
  void add(std::unique_ptr<CandidateSource> source);

  /// The portfolio name; empty for an unnamed (process-local) registry.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Names the portfolio (opting in to portable keys); same validity
  /// rules as the constructor.
  void setName(std::string name);

  [[nodiscard]] const std::vector<std::unique_ptr<CandidateSource>>& sources()
      const noexcept {
    return sources_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return sources_.size(); }

  /// The source with the given name, or nullptr.
  [[nodiscard]] const CandidateSource* find(std::string_view name) const;

  /// The immutable built-in portfolio, named "builtin": chain-greedy,
  /// no-comm-baseline, greedy-forest, hill-climb, anneal, exact-forest
  /// (in that order).
  static const CandidateRegistry& builtin();

  /// A fresh copy of the built-in portfolio that callers may extend.
  /// Extended copies should be renamed — the fingerprint also covers the
  /// source list, but a distinct name keeps keys self-describing.
  static CandidateRegistry makeBuiltin();

 private:
  std::string name_;  ///< empty = unnamed (process-local)
  std::vector<std::unique_ptr<CandidateSource>> sources_;
};

/// The portable identity of a named portfolio: `name[src1,src2,...]` —
/// its name plus the ordered source-name list. A pure function of
/// registration (never of object identity), so it is stable across
/// processes and safe inside persisted cache keys. Whitespace-free by the
/// registry's naming rules. Only meaningful for named registries: the
/// serving layer keys unnamed ones by pointer instead.
[[nodiscard]] std::string portfolioFingerprint(const CandidateRegistry& registry);

/// Canonical signature of an execution graph: node count plus the sorted
/// edge list. Two graphs have equal signatures iff they are equal, so the
/// signature is a sound memoization key.
[[nodiscard]] std::string graphSignature(const ExecutionGraph& g);

/// Canonical signature of an application: service count, then each
/// service's (cost, selectivity) at full precision, then the sorted
/// precedence edges. Whitespace-free, so cache keys built on it stay
/// single tokens. Service names are excluded —
/// they never affect plan values.
///
/// Format contract (load-bearing for near-key warm starts): the signature
/// is ';'-separated segments where "a<n>" and the sorted ";p<from>><to>"
/// precedence segments are STRUCTURAL and the per-service "<cost>:<sel>"
/// segments are PARAMETRIC. structuralPrefixOfKey (src/serve/bound_board.hpp)
/// splits request keys on exactly this shape — two applications share a
/// structural prefix iff they differ only in costs/selectivities. Changing
/// the segment grammar here requires updating that splitter in lockstep.
[[nodiscard]] std::string applicationSignature(const Application& app);

/// Thread-safe surrogate-score memo. PR 1 instantiated one per optimizer
/// run; the PlanEngine now keeps a single long-lived instance shared
/// across requests, so the memo is LRU-bounded: `capacity` caps the
/// number of retained scores (0 = unbounded) and the least recently used
/// entry is evicted first. Eviction is a deterministic function of the
/// operation sequence (strict LRU, no sampling or timing dependence): the
/// engine probes and fills the cache in serial index-ordered passes
/// around its parallel scoring region, so a serial request sequence
/// always evicts identically. Concurrent requests interleave their passes
/// scheduler-dependently — that can reorder evictions and per-request hit
/// counters, never the memoized values (they are pure functions of the
/// key), so winners are unaffected. Counters are only exact once
/// concurrent callers have joined.
///
/// A thin domain wrapper over the shared LruCache machinery
/// (src/common/lru_cache.hpp) — the eviction/stats discipline the
/// determinism contract relies on has a single implementation, shared
/// with ResultCache.
class CandidateCache {
 public:
  struct Stats {
    std::size_t scoreHits = 0;   ///< probes served from the memo
    std::size_t scoreMisses = 0; ///< probes that missed (caller computes)
    std::size_t evictions = 0;   ///< LRU entries dropped at the capacity bound
  };

  explicit CandidateCache(std::size_t capacity = 0) : lru_(capacity) {}

  /// The memoized score for `key`, touching its LRU slot. Counts a hit or
  /// a miss; on a miss the caller computes the score and insert()s it.
  [[nodiscard]] std::optional<double> lookup(const std::string& key) {
    return lru_.lookup(key);
  }

  /// Memoizes `value` under `key` (touching the slot if already present)
  /// and returns how many entries the capacity bound evicted (0 or 1).
  /// Counts nothing — misses are counted by the failed lookup, so bulk
  /// restores (readCandidateCache) do not skew the hit/miss ratio.
  std::size_t insert(const std::string& key, double value) {
    return lru_.insert(key, value);
  }

  /// Memoized entries, least recently used first (the save/load order).
  [[nodiscard]] std::vector<std::pair<std::string, double>> snapshot() const {
    return lru_.snapshot();
  }

  [[nodiscard]] std::size_t size() const { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return lru_.capacity();
  }
  [[nodiscard]] Stats stats() const {
    const auto s = lru_.stats();
    return Stats{s.hits, s.misses, s.evictions};
  }

 private:
  LruCache<double> lru_;
};

}  // namespace fsw
