#include <gtest/gtest.h>

#include <limits>

#include "src/core/application.hpp"
#include "src/core/execution_graph.hpp"
#include "src/core/model.hpp"

namespace fsw {
namespace {

TEST(Application, AddServiceAssignsIdsAndDefaultNames) {
  Application app;
  EXPECT_EQ(app.addService(1.0, 0.5), 0u);
  EXPECT_EQ(app.addService(2.0, 1.5, "mine"), 1u);
  EXPECT_EQ(app.service(0).name, "C1");
  EXPECT_EQ(app.service(1).name, "mine");
  EXPECT_EQ(app.size(), 2u);
}

TEST(Application, RejectsNegativeParameters) {
  Application app;
  EXPECT_THROW(app.addService(-1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(app.addService(1.0, -0.5), std::invalid_argument);
  // Non-finite values: NaN fails every comparison, so it needs its own
  // check.
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double x : bad) {
    EXPECT_THROW(app.addService(x, 0.5), std::invalid_argument) << x;
    EXPECT_THROW(app.addService(1.0, x), std::invalid_argument) << x;
    EXPECT_THROW(app.addService(Service{x, 0.5, "C"}), std::invalid_argument)
        << x;
    EXPECT_THROW(Application({Service{1.0, x, "C"}}), std::invalid_argument)
        << x;
  }
  EXPECT_EQ(app.size(), 0u);
}

TEST(Application, FilterExpanderClassification) {
  Application app;
  app.addService(1.0, 0.5);
  app.addService(1.0, 1.0);
  app.addService(1.0, 2.0);
  EXPECT_TRUE(app.service(0).isFilter());
  EXPECT_FALSE(app.service(1).isFilter());
  EXPECT_FALSE(app.service(1).isExpander());
  EXPECT_TRUE(app.service(2).isExpander());
}

TEST(Application, PrecedenceValidation) {
  Application app;
  app.addService(1.0, 1.0);
  app.addService(1.0, 1.0);
  app.addService(1.0, 1.0);
  app.addPrecedence(0, 1);
  app.addPrecedence(1, 2);
  EXPECT_THROW(app.addPrecedence(2, 0), std::invalid_argument);  // cycle
  EXPECT_THROW(app.addPrecedence(0, 0), std::invalid_argument);  // self
  EXPECT_THROW(app.addPrecedence(0, 9), std::invalid_argument);  // range
}

TEST(Application, RejectsDuplicatePrecedences) {
  // Regression: duplicates used to be inserted twice, inflating precSucc_
  // and every precedences() consumer.
  Application app;
  app.addService(1.0, 1.0);
  app.addService(1.0, 1.0);
  app.addPrecedence(0, 1);
  EXPECT_THROW(app.addPrecedence(0, 1), std::invalid_argument);
  EXPECT_EQ(app.precedences().size(), 1u);
  // The transitive relation (1 reaches via another edge) is not a duplicate.
  app.addService(1.0, 1.0);
  app.addPrecedence(1, 2);
  app.addPrecedence(0, 2);  // parallel to the 0->1->2 path: allowed
  EXPECT_EQ(app.precedences().size(), 3u);
}

TEST(Application, MustPrecedeIsTransitive) {
  Application app;
  for (int i = 0; i < 4; ++i) app.addService(1.0, 1.0);
  app.addPrecedence(0, 1);
  app.addPrecedence(1, 2);
  EXPECT_TRUE(app.mustPrecede(0, 2));
  EXPECT_FALSE(app.mustPrecede(2, 0));
  EXPECT_FALSE(app.mustPrecede(0, 3));
  EXPECT_FALSE(app.mustPrecede(1, 1));
}

TEST(Application, TopologicalOrderRespectsPrecedences) {
  Application app;
  for (int i = 0; i < 4; ++i) app.addService(1.0, 1.0);
  app.addPrecedence(3, 0);
  app.addPrecedence(0, 2);
  const auto order = app.topologicalOrder();
  std::vector<std::size_t> pos(4);
  for (std::size_t k = 0; k < order.size(); ++k) pos[order[k]] = k;
  EXPECT_LT(pos[3], pos[0]);
  EXPECT_LT(pos[0], pos[2]);
}

TEST(ExecutionGraph, AddEdgeValidation) {
  ExecutionGraph g(3);
  g.addEdge(0, 1);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_THROW(g.addEdge(0, 1), std::invalid_argument);  // duplicate
  EXPECT_THROW(g.addEdge(1, 1), std::invalid_argument);  // self loop
  EXPECT_THROW(g.addEdge(0, 7), std::invalid_argument);  // range
  g.addEdge(1, 2);
  EXPECT_THROW(g.addEdge(2, 0), std::invalid_argument);  // cycle
}

TEST(ExecutionGraph, EntriesAndExits) {
  ExecutionGraph g(4);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  g.addEdge(1, 3);
  g.addEdge(2, 3);
  EXPECT_EQ(g.entries(), std::vector<NodeId>{0});
  EXPECT_EQ(g.exits(), std::vector<NodeId>{3});
  EXPECT_TRUE(g.isEntry(0));
  EXPECT_TRUE(g.isExit(3));
  EXPECT_FALSE(g.isExit(1));
}

TEST(ExecutionGraph, TopologicalOrderOfDiamond) {
  ExecutionGraph g(4);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  g.addEdge(1, 3);
  g.addEdge(2, 3);
  const auto topo = g.topologicalOrder();
  EXPECT_EQ(topo.front(), 0u);
  EXPECT_EQ(topo.back(), 3u);
}

TEST(ExecutionGraph, AncestorClosureOfDiamond) {
  ExecutionGraph g(4);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  g.addEdge(1, 3);
  g.addEdge(2, 3);
  const auto anc = g.ancestorClosure();
  EXPECT_TRUE(anc[3][0]);
  EXPECT_TRUE(anc[3][1]);
  EXPECT_TRUE(anc[3][2]);
  EXPECT_FALSE(anc[3][3]);
  EXPECT_TRUE(anc[1][0]);
  EXPECT_FALSE(anc[0][1]);
}

TEST(ExecutionGraph, RespectsPrecedencesViaTransitiveClosure) {
  Application app;
  for (int i = 0; i < 3; ++i) app.addService(1.0, 1.0);
  app.addPrecedence(0, 2);
  // 0 -> 1 -> 2 contains 0 -> 2 in its transitive closure.
  ExecutionGraph chain(3);
  chain.addEdge(0, 1);
  chain.addEdge(1, 2);
  EXPECT_TRUE(chain.respects(app));
  // 2 -> 0 -> 1 does not.
  ExecutionGraph bad(3);
  bad.addEdge(2, 0);
  bad.addEdge(0, 1);
  EXPECT_FALSE(bad.respects(app));
}

TEST(ExecutionGraph, ForestAndChainPredicates) {
  ExecutionGraph forest(4);
  forest.addEdge(0, 1);
  forest.addEdge(0, 2);
  EXPECT_TRUE(forest.isForest());
  EXPECT_FALSE(forest.isChain());

  const auto chain = ExecutionGraph::chain({2, 0, 1, 3});
  EXPECT_TRUE(chain.isChain());
  EXPECT_TRUE(chain.isForest());

  ExecutionGraph dag(3);
  dag.addEdge(0, 2);
  dag.addEdge(1, 2);
  EXPECT_FALSE(dag.isForest());
}

TEST(ExecutionGraph, FromParentsBuildsForest) {
  const std::vector<NodeId> parent = {kNoNode, 0, 0, 2};
  const auto g = ExecutionGraph::fromParents(parent);
  EXPECT_TRUE(g.isForest());
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(0, 2));
  EXPECT_TRUE(g.hasEdge(2, 3));
  EXPECT_EQ(g.edgeCount(), 3u);
}

TEST(ExecutionGraph, EqualityIgnoresEdgeOrder) {
  ExecutionGraph a(3);
  a.addEdge(0, 1);
  a.addEdge(0, 2);
  ExecutionGraph b(3);
  b.addEdge(0, 2);
  b.addEdge(0, 1);
  EXPECT_EQ(a, b);
  ExecutionGraph c(3);
  c.addEdge(1, 2);
  EXPECT_FALSE(a == c);
}

TEST(Model, Names) {
  EXPECT_EQ(name(CommModel::Overlap), "OVERLAP");
  EXPECT_EQ(name(CommModel::OutOrder), "OUTORDER");
  EXPECT_EQ(name(CommModel::InOrder), "INORDER");
  EXPECT_EQ(name(Objective::Period), "period");
  EXPECT_EQ(name(Objective::Latency), "latency");
}

}  // namespace
}  // namespace fsw
