#include "src/opt/forest_scorer.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/core/cost_model.hpp"

namespace fsw {

ForestScorer::ForestScorer(const Application& app)
    : precedences_(app.precedences()),
      state_(app.size()),
      ancestors_(app.size()),
      sigmaOut_(app.size()),
      ccomp_(app.size()),
      r_(app.size()),
      children_(app.size()),
      childStart_(app.size()),
      kids_(app.size()),
      order_(app.size()) {
  cost_.reserve(app.size());
  selectivity_.reserve(app.size());
  for (const Service& s : app.services()) {
    cost_.push_back(s.cost);
    selectivity_.push_back(s.selectivity);
  }
}

void ForestScorer::checkSize(const std::vector<NodeId>& parent) const {
  if (parent.size() != size()) {
    throw std::invalid_argument(
        "ForestScorer: parent/application size mismatch");
  }
}

bool ForestScorer::acyclic(const std::vector<NodeId>& parent) {
  checkSize(parent);
  const std::size_t n = size();
  for (const NodeId p : parent) {
    if (p != kNoNode && p >= n) return false;
  }
  std::fill(state_.begin(), state_.end(), 0);
  for (NodeId i = 0; i < n; ++i) {
    NodeId v = i;
    while (v != kNoNode && state_[v] == 0) {
      state_[v] = 1;
      v = parent[v];
    }
    if (v != kNoNode && state_[v] == 1) return false;  // closed a cycle
    for (NodeId u = i; u != kNoNode && state_[u] == 1; u = parent[u]) {
      state_[u] = 2;
    }
  }
  return true;
}

bool ForestScorer::respectsPrecedences(
    const std::vector<NodeId>& parent) const {
  checkSize(parent);
  for (const Precedence& e : precedences_) {
    NodeId a = parent[e.to];
    while (a != kNoNode && a != e.from) a = parent[a];
    if (a == kNoNode) return false;
  }
  return true;
}

bool ForestScorer::admissible(const std::vector<NodeId>& parent) {
  return acyclic(parent) && respectsPrecedences(parent);
}

void ForestScorer::computeCosts(const std::vector<NodeId>& parent) {
  checkSize(parent);
  const std::size_t n = size();
  std::fill(children_.begin(), children_.end(), 0);
  for (NodeId k = 0; k < n; ++k) {
    // sigmaIn multiplies the ancestors' selectivities in ascending index
    // order, as CostModel's sweep over its ancestor closure does:
    // floating-point products depend on the order.
    std::size_t depth = 0;
    for (NodeId a = parent[k]; a != kNoNode; a = parent[a]) {
      ancestors_[depth++] = a;
    }
    std::sort(ancestors_.begin(), ancestors_.begin() + depth);
    double prod = 1.0;
    for (std::size_t d = 0; d < depth; ++d) prod *= selectivity_[ancestors_[d]];
    sigmaOut_[k] = prod * selectivity_[k];
    ccomp_[k] = prod * cost_[k];
    if (parent[k] != kNoNode) ++children_[parent[k]];
  }
}

double ForestScorer::periodScore(const std::vector<NodeId>& parent,
                                 CommModel m) {
  computeCosts(parent);
  double lb = 0.0;
  for (NodeId k = 0; k < size(); ++k) {
    NodeCosts nc;
    nc.cin = parent[k] == kNoNode ? 1.0 : 0.0 + sigmaOut_[parent[k]];
    nc.ccomp = ccomp_[k];
    nc.cout = static_cast<double>(std::max<std::size_t>(1, children_[k])) *
              sigmaOut_[k];
    lb = std::max(lb, nc.cexec(m));
  }
  return lb;
}

double ForestScorer::latencyScore(const std::vector<NodeId>& parent) {
  computeCosts(parent);
  const std::size_t n = size();

  // Child lists in CSR form, ascending child index within each segment:
  // childStart_[v] starts as v's end offset and is decremented once per
  // child placed, so it ends at v's start offset.
  std::size_t end = 0;
  for (NodeId v = 0; v < n; ++v) {
    end += children_[v];
    childStart_[v] = end;
  }
  for (NodeId k = n; k-- > 0;) {
    if (parent[k] != kNoNode) kids_[--childStart_[parent[k]]] = k;
  }

  // Roots, then breadth-first: every node after its parent.
  std::size_t len = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (parent[v] == kNoNode) order_[len++] = v;
  }
  for (std::size_t i = 0; i < len; ++i) {
    const NodeId v = order_[i];
    for (std::size_t c = 0; c < children_[v]; ++c) {
      order_[len++] = kids_[childStart_[v] + c];
    }
  }

  // R(v) bottom-up, children fed by non-increasing R. Ties swap equal R
  // values, so the unstable sort cannot change the result.
  for (std::size_t i = len; i-- > 0;) {
    const NodeId v = order_[i];
    const double volIn = parent[v] == kNoNode ? 1.0 : sigmaOut_[parent[v]];
    const double sigmaOut = sigmaOut_[v];
    double tail = 0.0;
    if (children_[v] == 0) {
      tail = sigmaOut;
    } else {
      const auto first =
          kids_.begin() + static_cast<std::ptrdiff_t>(childStart_[v]);
      const auto last = first + static_cast<std::ptrdiff_t>(children_[v]);
      std::sort(first, last,
                [&](NodeId a, NodeId b) { return r_[a] > r_[b]; });
      for (std::size_t j = 0; j < children_[v]; ++j) {
        tail =
            std::max(tail, static_cast<double>(j) * sigmaOut + r_[first[j]]);
      }
    }
    r_[v] = volIn + ccomp_[v] + tail;
  }

  double latency = 0.0;
  for (NodeId v = 0; v < n; ++v) {
    if (parent[v] == kNoNode) latency = std::max(latency, r_[v]);
  }
  return latency;
}

}  // namespace fsw
