// The target application A = (F, G): a set of services plus precedence
// constraints (Section 2.1).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/core/service.hpp"

namespace fsw {

/// A directed precedence edge: `from` must be an ancestor of `to` in every
/// execution graph.
struct Precedence {
  NodeId from;
  NodeId to;
  friend bool operator==(const Precedence&, const Precedence&) = default;
};

/// An application: services F = {C_1..C_n} and precedence constraints
/// G subset of F x F. Most of the paper's hardness results hold even with
/// G empty ("without dependence constraints").
class Application {
 public:
  Application() = default;
  explicit Application(std::vector<Service> services);

  /// Adds a service and returns its NodeId. Throws std::invalid_argument
  /// unless its cost and selectivity are finite and >= 0.
  NodeId addService(Service s);
  NodeId addService(double cost, double selectivity, std::string name = "");

  /// Adds a precedence constraint C_from -> C_to. Throws std::invalid_argument
  /// on out-of-range ids, self-loops, duplicate edges, or if the edge would
  /// create a cycle.
  void addPrecedence(NodeId from, NodeId to);

  [[nodiscard]] std::size_t size() const noexcept { return services_.size(); }
  [[nodiscard]] const Service& service(NodeId i) const {
    return services_.at(i);
  }
  [[nodiscard]] const std::vector<Service>& services() const noexcept {
    return services_;
  }
  [[nodiscard]] const std::vector<Precedence>& precedences() const noexcept {
    return precedences_;
  }
  [[nodiscard]] bool hasPrecedences() const noexcept {
    return !precedences_.empty();
  }

  /// Transitive "must precede" relation: true iff G forces `a` to be an
  /// ancestor of `b`.
  [[nodiscard]] bool mustPrecede(NodeId a, NodeId b) const;

  /// A topological order of the precedence DAG (identity order when G is
  /// empty).
  [[nodiscard]] std::vector<NodeId> topologicalOrder() const;

 private:
  [[nodiscard]] bool reachable(NodeId from, NodeId to) const;

  std::vector<Service> services_;
  std::vector<Precedence> precedences_;
  std::vector<std::vector<NodeId>> precSucc_;  // adjacency of G
};

}  // namespace fsw
