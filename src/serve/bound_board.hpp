// BoundBoard: the cross-engine incumbent store of the serving layer.
//
// Each PlanEngine already threads an incumbent upper bound *within* a
// request — the best-ranked candidate's achieved value aborts dominated
// order solves (Bounded-Dijkstra-style pruning, PR 2). The board extends
// that across engines: when any engine sharing it completes a solve, it
// publishes (requestKey -> winner value); a later solve of the *same key*
// — on any engine of the fleet, e.g. after an eviction, with full-result
// caching disabled, or warm-started from a published bounds set —
// consults the board and tightens its ranks-1+ incumbent before
// orchestration starts. Scale-out
// becomes a search-space reduction, not just more cores.
//
// Soundness (the bit-identity contract): a board entry is only ever the
// *deterministic winner value* w of its request key — every serving path
// returns bit-identical winners for a key, so w is THE value of that
// request, not an estimate. That is a strictly stronger guarantee than the
// within-request incumbent's (rank 0's achieved value), which is why the
// board bound may be applied to EVERY orchestration of the re-solve, rank
// 0 included: no candidate of the same key can achieve a value below w,
// every candidate achieving exactly w is kept bit-exact (the feasibility
// probe at the incumbent), and a candidate whose optimum exceeds w aborts
// without ever having been able to win — even if that candidate is rank 0
// (its orchestration then reports infinity and loses the reduce, exactly
// as it would have lost on value). The winner — value, strategy,
// surrogate, graph and operation list — is unchanged; only
// EngineStats::seedBoundAborts / repairBoundAborts grow. Publishing
// anything other than the key's own winner value would break this; the
// board therefore only accepts publishes keyed by the canonical
// requestKey of the solved request.
//
// Thread-safe and LRU-bounded (the keys — full request fingerprints,
// application signature included — dominate an entry's footprint, so a
// long-lived server streaming ever-new requests must not accumulate them
// forever). Eviction only ever forgets a *hint*: a re-solve of an evicted
// key runs exactly like a first solve, so the bound has no correctness
// face.
//
// Near-key reuse (the warm-start half): alongside the exact-key bounds the
// board keeps a prefix-indexed side table mapping a key's STRUCTURAL
// prefix — graph shape, precedences, model/objective and portfolio, i.e.
// everything but the cost/selectivity numbers (see structuralPrefixOfKey)
// — to the most recently published full key sharing it. A re-solve of a
// mutated application (same structure, drifted parameters) asks
// nearestKey() for that neighbor, fetches its stored winner, and
// RE-EVALUATES it under the new parameters to obtain a certified achievable
// value before using it as an incumbent. The contract is strict: a
// near-key answer is a *hint naming a key*, never a bound and never a
// servable plan — different parametric suffixes are different requests,
// and only a value re-certified under the asker's own parameters may prune
// anything. Which neighbor the table names may depend on publish order
// (concurrent posters race benignly); winners never do, because any
// validated value is a true bound and the engine re-runs unbounded in the
// (impossible-for-sound-bounds) event that a bound beats every candidate.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>

#include "src/common/lru_cache.hpp"

namespace fsw {

/// The structural prefix of a canonical request key
/// (PlanEngine::requestKey): the application's node count and precedence
/// segments plus everything from the model onward, with the per-service
/// cost:selectivity segments (the parametric suffix) dropped. Two requests
/// share a prefix iff they differ only in service costs/selectivities —
/// exactly the "mutated application" shape of an online re-solve. Pure
/// string surgery on the key format, so the engine and the store host
/// derive identical prefixes without new wire fields on PUT.
[[nodiscard]] std::string structuralPrefixOfKey(const std::string& key);

class BoundBoard {
 public:
  struct Stats {
    std::size_t published = 0;  ///< publish calls with a finite value
    std::size_t tightened = 0;  ///< publishes that created/lowered an entry
    std::size_t consulted = 0;  ///< lookups observed
    std::size_t hits = 0;       ///< lookups that found a bound
    std::size_t nearConsulted = 0;  ///< nearestKey calls observed
    std::size_t nearHits = 0;       ///< nearestKey calls that named a key
  };

  /// `capacity` caps the retained bounds, strict-LRU (0 = unbounded); the
  /// near-key side table shares the same cap (it holds at most one entry
  /// per distinct structural prefix, so it is never the larger of the two).
  explicit BoundBoard(std::size_t capacity = 1 << 16)
      : bounds_(capacity), near_(capacity) {}

  /// Records `value` as the winner of `key`, keeping the minimum if the
  /// key is already posted (identical winners make this a no-op re-post;
  /// the min is belt-and-braces, never a semantic branch). Non-finite
  /// values (a solve that found no candidate) are ignored.
  void publish(const std::string& key, double value);

  /// The posted bound for `key`, if any.
  [[nodiscard]] std::optional<double> lookup(const std::string& key);

  /// The most recently published full key whose structural prefix is
  /// `prefix`, if any. A HINT, not a bound: the caller must fetch that
  /// key's winner and re-evaluate it under its own parameters before using
  /// the result as an incumbent (see the header comment).
  [[nodiscard]] std::optional<std::string> nearestKey(
      const std::string& prefix);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats() const;

 private:
  mutable std::mutex mu_;        ///< guards stats_ (the caches lock themselves)
  LruCache<double> bounds_;      ///< the one strict-LRU implementation
  LruCache<std::string> near_;   ///< structural prefix -> latest full key
  Stats stats_{};
};

}  // namespace fsw
