#include "src/core/application.hpp"

#include <cmath>
#include <queue>
#include <stdexcept>

namespace fsw {

Application::Application(std::vector<Service> services) {
  for (Service& s : services) addService(std::move(s));
}

NodeId Application::addService(Service s) {
  // NaN fails every comparison, so `x < 0` alone would let it through.
  if (!(std::isfinite(s.cost) && s.cost >= 0)) {
    throw std::invalid_argument("Service cost must be finite and >= 0");
  }
  if (!(std::isfinite(s.selectivity) && s.selectivity >= 0)) {
    throw std::invalid_argument("Service selectivity must be finite and >= 0");
  }
  services_.push_back(std::move(s));
  precSucc_.emplace_back();
  return services_.size() - 1;
}

NodeId Application::addService(double cost, double selectivity,
                               std::string name) {
  if (name.empty()) name = "C" + std::to_string(services_.size() + 1);
  return addService(Service{cost, selectivity, std::move(name)});
}

void Application::addPrecedence(NodeId from, NodeId to) {
  if (from >= size() || to >= size()) {
    throw std::invalid_argument("addPrecedence: node id out of range");
  }
  if (from == to) {
    throw std::invalid_argument("addPrecedence: self-loop");
  }
  for (const NodeId v : precSucc_[from]) {
    if (v == to) {
      throw std::invalid_argument("addPrecedence: duplicate edge");
    }
  }
  if (reachable(to, from)) {
    throw std::invalid_argument("addPrecedence: edge would create a cycle");
  }
  precedences_.push_back({from, to});
  precSucc_[from].push_back(to);
}

bool Application::reachable(NodeId from, NodeId to) const {
  if (from == to) return true;
  std::vector<bool> seen(size(), false);
  std::queue<NodeId> q;
  q.push(from);
  seen[from] = true;
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const NodeId v : precSucc_[u]) {
      if (v == to) return true;
      if (!seen[v]) {
        seen[v] = true;
        q.push(v);
      }
    }
  }
  return false;
}

bool Application::mustPrecede(NodeId a, NodeId b) const {
  if (a == b) return false;
  return reachable(a, b);
}

std::vector<NodeId> Application::topologicalOrder() const {
  std::vector<std::size_t> indeg(size(), 0);
  for (const auto& e : precedences_) ++indeg[e.to];
  std::queue<NodeId> q;
  for (NodeId i = 0; i < size(); ++i) {
    if (indeg[i] == 0) q.push(i);
  }
  std::vector<NodeId> order;
  order.reserve(size());
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    order.push_back(u);
    for (const NodeId v : precSucc_[u]) {
      if (--indeg[v] == 0) q.push(v);
    }
  }
  if (order.size() != size()) {
    throw std::logic_error("Application: precedence graph has a cycle");
  }
  return order;
}

}  // namespace fsw
