#include "src/opt/candidate.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/opt/chain.hpp"
#include "src/opt/forest_search.hpp"

namespace fsw {

bool CandidateSource::applicable(const CandidateContext&) const {
  return true;
}

namespace {

/// Prop 8 / Prop 16 linear chains; only defined without precedences.
class ChainGreedySource final : public CandidateSource {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "chain-greedy";
  }
  [[nodiscard]] bool applicable(const CandidateContext& ctx) const override {
    return !ctx.app.hasPrecedences() && ctx.app.size() > 0;
  }
  [[nodiscard]] std::vector<ExecutionGraph> generate(
      const CandidateContext& ctx) const override {
    const auto order = ctx.objective == Objective::Period
                           ? chainOrderPeriod(ctx.app, ctx.model)
                           : chainOrderLatency(ctx.app);
    std::vector<ExecutionGraph> out;
    out.push_back(ExecutionGraph::chain(order));
    return out;
  }
};

/// The classical no-communication optimum of Srivastava et al. [1].
class NoCommBaselineSource final : public CandidateSource {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "no-comm-baseline";
  }
  [[nodiscard]] bool applicable(const CandidateContext& ctx) const override {
    return !ctx.app.hasPrecedences() && ctx.app.size() > 0;
  }
  [[nodiscard]] std::vector<ExecutionGraph> generate(
      const CandidateContext& ctx) const override {
    std::vector<ExecutionGraph> out;
    out.push_back(noCommBaselineGraph(ctx.app));
    return out;
  }
};

class GreedyForestSource final : public CandidateSource {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "greedy-forest";
  }
  [[nodiscard]] std::vector<ExecutionGraph> generate(
      const CandidateContext& ctx) const override {
    std::vector<ExecutionGraph> out;
    out.push_back(greedyForest(ctx.app, ctx.model, ctx.objective));
    return out;
  }
};

class HillClimbSource final : public CandidateSource {
 public:
  [[nodiscard]] std::string_view name() const override { return "hill-climb"; }
  [[nodiscard]] std::vector<ExecutionGraph> generate(
      const CandidateContext& ctx) const override {
    std::vector<ExecutionGraph> out;
    out.push_back(hillClimbForest(ctx.app, ctx.model, ctx.objective,
                                  greedyForest(ctx.app, ctx.model,
                                               ctx.objective)));
    return out;
  }
};

class AnnealSource final : public CandidateSource {
 public:
  [[nodiscard]] std::string_view name() const override { return "anneal"; }
  [[nodiscard]] std::vector<ExecutionGraph> generate(
      const CandidateContext& ctx) const override {
    std::vector<ExecutionGraph> out;
    out.push_back(
        annealForest(ctx.app, ctx.model, ctx.objective, ctx.heuristics));
    return out;
  }
};

/// Exhaustive forest enumeration (exact for MinPeriod, Prop 4).
class ExactForestSource final : public CandidateSource {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "exact-forest";
  }
  [[nodiscard]] bool applicable(const CandidateContext& ctx) const override {
    return ctx.app.size() > 0 &&
           ctx.app.size() <= std::min(ctx.exactForestMaxN, kExactForestMaxN);
  }
  [[nodiscard]] std::vector<ExecutionGraph> generate(
      const CandidateContext& ctx) const override {
    std::vector<ExecutionGraph> out;
    if (ctx.objective == Objective::Period) {
      out.push_back(exactForestMinPeriod(ctx.app, ctx.model,
                                         /*orchestrated=*/false,
                                         /*maxN=*/ctx.exactForestMaxN)
                        .graph);
    } else {
      out.push_back(
          exactForestMinLatency(ctx.app, /*maxN=*/ctx.exactForestMaxN).graph);
    }
    return out;
  }
};

}  // namespace

namespace {

/// Portfolio and source names end up as tokens of cache keys and as
/// fields of the portfolio fingerprint, so they must be
/// non-empty, whitespace-free and free of the fingerprint delimiters —
/// otherwise a source named "a,b" would fingerprint identically to two
/// sources "a" and "b" and the portfolios could share cache keys.
void validateToken(std::string_view name, const char* what) {
  if (name.empty()) {
    throw std::invalid_argument(std::string("CandidateRegistry: empty ") +
                                what + " name");
  }
  if (name.find_first_of(" \t\n\r\f\v[],") != std::string_view::npos) {
    throw std::invalid_argument(
        std::string("CandidateRegistry: ") + what + " name '" +
        std::string(name) +
        "' contains whitespace or a fingerprint delimiter ('[', ']', ',')");
  }
}

}  // namespace

CandidateRegistry::CandidateRegistry(std::string name) {
  setName(std::move(name));
}

void CandidateRegistry::setName(std::string name) {
  validateToken(name, "portfolio");
  name_ = std::move(name);
}

void CandidateRegistry::add(std::unique_ptr<CandidateSource> source) {
  if (source == nullptr) {
    throw std::invalid_argument("CandidateRegistry: null source");
  }
  validateToken(source->name(), "source");
  if (find(source->name()) != nullptr) {
    throw std::invalid_argument("CandidateRegistry: duplicate source name '" +
                                std::string(source->name()) + "'");
  }
  sources_.push_back(std::move(source));
}

const CandidateSource* CandidateRegistry::find(std::string_view name) const {
  const auto it =
      std::find_if(sources_.begin(), sources_.end(),
                   [&](const auto& s) { return s->name() == name; });
  return it == sources_.end() ? nullptr : it->get();
}

CandidateRegistry CandidateRegistry::makeBuiltin() {
  CandidateRegistry r("builtin");
  r.add(std::make_unique<ChainGreedySource>());
  r.add(std::make_unique<NoCommBaselineSource>());
  r.add(std::make_unique<GreedyForestSource>());
  r.add(std::make_unique<HillClimbSource>());
  r.add(std::make_unique<AnnealSource>());
  r.add(std::make_unique<ExactForestSource>());
  return r;
}

const CandidateRegistry& CandidateRegistry::builtin() {
  static const CandidateRegistry registry = makeBuiltin();
  return registry;
}

std::string portfolioFingerprint(const CandidateRegistry& registry) {
  std::string fp = registry.name();
  fp += '[';
  for (std::size_t i = 0; i < registry.sources().size(); ++i) {
    if (i != 0) fp += ',';
    fp += registry.sources()[i]->name();
  }
  fp += ']';
  return fp;
}

std::string graphSignature(const ExecutionGraph& g) {
  std::vector<Edge> edges = g.edges();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  std::string sig(1, 'n');
  sig += std::to_string(g.size());
  for (const Edge& e : edges) {
    sig += '|';
    sig += std::to_string(e.from);
    sig += '>';
    sig += std::to_string(e.to);
  }
  return sig;
}

std::string applicationSignature(const Application& app) {
  std::ostringstream os;
  os << std::setprecision(17) << 'a' << app.size();
  for (NodeId i = 0; i < app.size(); ++i) {
    const Service& s = app.service(i);
    os << ';' << s.cost << ':' << s.selectivity;
  }
  std::vector<Precedence> precs = app.precedences();
  std::sort(precs.begin(), precs.end(),
            [](const Precedence& a, const Precedence& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
  for (const Precedence& p : precs) {
    os << ";p" << p.from << '>' << p.to;
  }
  return os.str();
}

}  // namespace fsw
