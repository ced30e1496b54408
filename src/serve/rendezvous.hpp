// Rendezvous (highest-random-weight) consistent hashing — the one routing
// function of the distributed serving layer. PlanRouter ranks every host
// slot for a request's key, so a request can fail over to the next-ranked
// host when its first choice drops. The ranking is a pure function of
// (key, slot count): identical across processes and runs, so every router
// of a fleet agrees on where a key lives — and the rendezvous property
// guarantees that changing the slot count remaps only ~1/N of the key
// space.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fsw {

/// The rendezvous score of (key, slot): a FNV-1a key hash decorrelated per
/// slot by a SplitMix64 finalizer. Higher wins.
[[nodiscard]] std::uint64_t rendezvousScore(const std::string& key,
                                            std::size_t slot);

/// The winning slot among `slots` (argmax score; 0 when slots <= 1).
[[nodiscard]] std::size_t rendezvousPick(const std::string& key,
                                         std::size_t slots);

/// Every slot ranked by descending score (ties broken by lower index, for
/// a total order): rank[0] is rendezvousPick, rank[1] is the failover
/// target when rank[0] is down, and so on.
[[nodiscard]] std::vector<std::size_t> rendezvousRank(const std::string& key,
                                                      std::size_t slots);

}  // namespace fsw
