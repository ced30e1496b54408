#include "src/opt/forest_scorer.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/core/cost_model.hpp"

namespace fsw {

ForestScorer::ForestScorer(const Application& app)
    : precedences_(app.precedences()),
      state_(app.size()),
      ancestors_(app.size()),
      mask_(app.size()),
      sigmaOut_(app.size()),
      ccomp_(app.size()),
      children_(app.size()),
      segment_(app.size()),
      filled_(app.size()),
      ready_(app.size()),
      childR_(app.size()) {
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

template <typename SigmaIn>
void ForestScorer::computeCosts(const std::vector<NodeId>& parent,
                                SigmaIn&& sigmaIn) {
  const std::size_t n = size();
  std::fill(children_.begin(), children_.end(), 0);
  for (NodeId k = 0; k < n; ++k) {
    const double prod = sigmaIn(k);
    sigmaOut_[k] = prod * selectivity_[k];
    ccomp_[k] = prod * cost_[k];
    if (parent[k] != kNoNode) ++children_[parent[k]];
  }
}

double ForestScorer::walkedSigmaIn(const std::vector<NodeId>& parent,
                                   NodeId k) {
  // The ancestors' selectivities multiply in ascending index order, as
  // CostModel's sweep over its ancestor closure does: floating-point
  // products depend on the order.
  std::size_t depth = 0;
  for (NodeId a = parent[k]; a != kNoNode; a = parent[a]) {
    ancestors_[depth++] = a;
  }
  std::sort(ancestors_.begin(), ancestors_.begin() + depth);
  double prod = 1.0;
  for (std::size_t d = 0; d < depth; ++d) prod *= selectivity_[ancestors_[d]];
  return prod;
}

double ForestScorer::maskedSigmaIn(NodeId k) const {
  // Lowest bit first: the same ascending-index product as walkedSigmaIn.
  double prod = 1.0;
  for (std::uint64_t b = mask_[k]; b != 0; b &= b - 1) {
    prod *= selectivity_[static_cast<std::size_t>(std::countr_zero(b))];
  }
  return prod;
}

bool ForestScorer::maskAncestors(const std::vector<NodeId>& parent) {
  checkSize(parent);
  if (size() > kMaxMaskedServices) {
    throw std::invalid_argument("ForestScorer: too many services for masks");
  }
  const std::size_t n = size();
  std::uint64_t known = 0;  // nodes whose mask_ entry is final
  for (NodeId k = 0; k < n; ++k) {
    // Climb to a root or to a node already known, then fill the masks
    // back down the climbed path.
    std::size_t depth = 0;
    NodeId v = k;
    while (v != kNoNode && (known >> v & 1) == 0) {
      ancestors_[depth++] = v;
      v = parent[v];
    }
    std::uint64_t m = v == kNoNode ? 0 : mask_[v] | std::uint64_t{1} << v;
    while (depth > 0) {
      const NodeId u = ancestors_[--depth];
      mask_[u] = m;
      m |= std::uint64_t{1} << u;
      known |= std::uint64_t{1} << u;
    }
  }
  for (const Precedence& e : precedences_) {
    if ((mask_[e.to] >> e.from & 1) == 0) return false;
  }
  return true;
}

double ForestScorer::periodScore(const std::vector<NodeId>& parent,
                                 CommModel m) {
  checkSize(parent);
  computeCosts(parent, [&](NodeId k) { return walkedSigmaIn(parent, k); });
  return periodTail(parent, m);
}

double ForestScorer::latencyScore(const std::vector<NodeId>& parent) {
  checkSize(parent);
  computeCosts(parent, [&](NodeId k) { return walkedSigmaIn(parent, k); });
  return latencyTail(parent);
}

double ForestScorer::maskedPeriodScore(const std::vector<NodeId>& parent,
                                       CommModel m) {
  checkSize(parent);
  computeCosts(parent, [&](NodeId k) { return maskedSigmaIn(k); });
  return periodTail(parent, m);
}

double ForestScorer::maskedLatencyScore(const std::vector<NodeId>& parent) {
  checkSize(parent);
  computeCosts(parent, [&](NodeId k) { return maskedSigmaIn(k); });
  return latencyTail(parent);
}

double ForestScorer::periodTail(const std::vector<NodeId>& parent,
                                CommModel m) const {
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

double ForestScorer::latencyTail(const std::vector<NodeId>& parent) {
  const std::size_t n = size();

  // Each node's children leave their R values in its segment of childR_,
  // and a node is finished once its segment is full: children before
  // parents, from the leaves up, with no child lists.
  std::size_t start = 0;
  std::size_t top = 0;
  for (NodeId v = 0; v < n; ++v) {
    segment_[v] = start;
    start += children_[v];
    filled_[v] = 0;
    if (children_[v] == 0) ready_[top++] = v;
  }

  double latency = 0.0;
  while (top > 0) {
    const NodeId v = ready_[--top];
    const NodeId p = parent[v];
    const double volIn = p == kNoNode ? 1.0 : sigmaOut_[p];
    const double sigmaOut = sigmaOut_[v];
    double tail = 0.0;
    const std::size_t count = children_[v];
    if (count == 0) {
      tail = sigmaOut;
    } else {
      // Children fed by non-increasing R (Algorithm 1); ties are equal
      // values, so any sorting order gives the same sums.
      double* r = childR_.data() + segment_[v];
      for (std::size_t j = 1; j < count; ++j) {
        const double x = r[j];
        std::size_t k = j;
        for (; k > 0 && r[k - 1] < x; --k) r[k] = r[k - 1];
        r[k] = x;
      }
      for (std::size_t j = 0; j < count; ++j) {
        tail = std::max(tail, static_cast<double>(j) * sigmaOut + r[j]);
      }
    }
    const double rv = volIn + ccomp_[v] + tail;
    if (p == kNoNode) {
      latency = std::max(latency, rv);
    } else {
      childR_[segment_[p] + filled_[p]++] = rv;
      if (filled_[p] == children_[p]) ready_[top++] = p;
    }
  }
  return latency;
}

}  // namespace fsw
