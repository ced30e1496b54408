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
// A scorer holds mutable scratch: one instance per thread (each annealing
// chain owns its own).
#pragma once

#include <vector>

#include "src/core/application.hpp"
#include "src/core/model.hpp"
#include "src/core/service.hpp"

namespace fsw {

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

  /// acyclic(parent) && respectsPrecedences(parent): the parent function
  /// encodes a valid execution graph of the application.
  [[nodiscard]] bool admissible(const std::vector<NodeId>& parent);

  /// max_k Cexec(k) under model m (the period lower bound). Requires
  /// acyclic(parent).
  [[nodiscard]] double periodScore(const std::vector<NodeId>& parent,
                                   CommModel m);

  /// Algorithm 1's optimal forest latency. Requires acyclic(parent).
  [[nodiscard]] double latencyScore(const std::vector<NodeId>& parent);

 private:
  /// Throws std::invalid_argument unless parent.size() == size().
  void checkSize(const std::vector<NodeId>& parent) const;
  /// Fills sigmaOut_, ccomp_ and children_ for the forest `parent`.
  void computeCosts(const std::vector<NodeId>& parent);

  std::vector<double> cost_;
  std::vector<double> selectivity_;
  std::vector<Precedence> precedences_;

  // Scratch, sized n at construction.
  std::vector<unsigned char> state_;  // acyclic(): 0 new, 1 on walk, 2 done
  std::vector<NodeId> ancestors_;
  std::vector<double> sigmaOut_;
  std::vector<double> ccomp_;
  std::vector<double> r_;
  std::vector<std::size_t> children_;    // child count of each node
  std::vector<std::size_t> childStart_;  // CSR offsets into kids_ (n + 1)
  std::vector<NodeId> kids_;
  std::vector<NodeId> order_;  // roots first, then breadth-first
};

}  // namespace fsw
