// Allocation-free scoring of forest execution graphs given as parent
// functions (parent[i] == kNoNode makes C_i a root).
//
// Exact forest search, greedy insertion, hill climbing and annealing score
// thousands of parent functions per request. Building an ExecutionGraph, a
// CostModel and a TreeLatency for each of them costs dozens of heap
// allocations before any arithmetic runs. A ForestScorer copies the
// application's costs, selectivities and precedences into flat arrays once
// and keeps scratch sized n, so a score allocates nothing.
//
// Contract: every score is bit-identical to the graph-based reference,
//   periodScore(p, m) == CostModel(app, fromParents(p)).periodLowerBound(m)
//   latencyScore(p)   == treeLatencyValue(app, fromParents(p))
// because the arithmetic runs in the same order: sigmaIn is the product of
// the ancestors' selectivities in ascending NodeId order starting from 1.0,
// Cin = 0.0 + sigmaOut(parent), Cout = max(1, children) * sigmaOut,
// Cexec is NodeCosts::cexec, and R(v) = (volIn + Ccomp) + tail with the
// children taken by non-increasing R (Algorithm 1).
//
// Two sources feed the same period and latency arithmetic. The heuristics
// walk each node's parents (any n). The exact search first records every
// node's ancestors as a 64-bit mask (n <= kMaxMaskedServices) and then
// multiplies the selectivities of the set bits from the lowest bit up, which
// is the same ascending-index product without a walk or a sort.
//
// A scorer holds mutable scratch: one instance per thread (each annealing
// chain owns its own).
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/application.hpp"
#include "src/core/model.hpp"
#include "src/core/service.hpp"

namespace fsw {

/// Largest application whose ancestor sets fit the 64-bit masks of
/// maskAncestors.
inline constexpr std::size_t kMaxMaskedServices = 63;

class ForestScorer {
 public:
  explicit ForestScorer(const Application& app);

  [[nodiscard]] std::size_t size() const noexcept { return cost_.size(); }

  /// Every entry is kNoNode or another service's id, and following parents
  /// from any node reaches a root.
  [[nodiscard]] bool acyclic(const std::vector<NodeId>& parent);

  /// Every precedence's source lies on the walk up from its target.
  /// Requires acyclic(parent).
  [[nodiscard]] bool respectsPrecedences(
      const std::vector<NodeId>& parent) const;

  /// max_k Cexec(k) under model m (the period lower bound). Requires
  /// acyclic(parent).
  [[nodiscard]] double periodScore(const std::vector<NodeId>& parent,
                                   CommModel m);

  /// Algorithm 1's optimal forest latency. Requires acyclic(parent).
  [[nodiscard]] double latencyScore(const std::vector<NodeId>& parent);

  /// The exact search's leaf test. Records every node's ancestor mask in
  /// one memoised pass and checks each precedence with one bit test; true
  /// when they all hold. Requires acyclic(parent); throws
  /// std::invalid_argument when size() > kMaxMaskedServices.
  [[nodiscard]] bool maskAncestors(const std::vector<NodeId>& parent);

  /// periodScore and latencyScore of the parent function last passed to
  /// maskAncestors, with sigmaIn taken from its masks.
  [[nodiscard]] double maskedPeriodScore(const std::vector<NodeId>& parent,
                                         CommModel m);
  [[nodiscard]] double maskedLatencyScore(const std::vector<NodeId>& parent);

 private:
  /// Throws std::invalid_argument unless parent.size() == size().
  void checkSize(const std::vector<NodeId>& parent) const;
  /// Fills sigmaOut_, ccomp_ and children_ for the forest `parent`;
  /// sigmaIn(k) is the product of k's ancestors' selectivities.
  template <typename SigmaIn>
  void computeCosts(const std::vector<NodeId>& parent, SigmaIn&& sigmaIn);
  /// sigmaIn of k by walking its parents (any n).
  double walkedSigmaIn(const std::vector<NodeId>& parent, NodeId k);
  /// sigmaIn of k from mask_[k].
  double maskedSigmaIn(NodeId k) const;
  /// The scores over the costs computeCosts left behind.
  double periodTail(const std::vector<NodeId>& parent, CommModel m) const;
  double latencyTail(const std::vector<NodeId>& parent);

  std::vector<double> cost_;
  std::vector<double> selectivity_;
  std::vector<Precedence> precedences_;

  // Scratch, sized n at construction.
  std::vector<unsigned char> state_;  // acyclic(): 0 new, 1 on walk, 2 done
  std::vector<NodeId> ancestors_;
  std::vector<std::uint64_t> mask_;  // maskAncestors(): bit a = ancestor a
  std::vector<double> sigmaOut_;
  std::vector<double> ccomp_;
  std::vector<std::size_t> children_;  // child count of each node
  // latencyTail(): each node's segment of childR_, how much of it its
  // children have filled, and the nodes whose children are all done.
  std::vector<std::size_t> segment_;
  std::vector<std::size_t> filled_;
  std::vector<NodeId> ready_;
  std::vector<double> childR_;
};

}  // namespace fsw
