#include <gtest/gtest.h>

#include <sstream>

#include "src/io/dot.hpp"
#include "src/io/gantt.hpp"
#include "src/io/serialize.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_instances.hpp"

namespace fsw {
namespace {

TEST(Serialize, ApplicationPrinterListsServicesAndPrecedences) {
  Application app;
  app.addService(2.5, 0.125, "alpha");
  app.addService(100.0 / 0.9999, 3.5);
  app.addPrecedence(0, 1);
  // Unnamed services print as C<i+1>; doubles print at 17 digits.
  EXPECT_EQ(toString(app),
            "application 2\n"
            "service alpha 2.5 0.125\n"
            "service C2 100.0100010001 3.5\n"
            "precedence 0 1\n");
}

TEST(Serialize, GraphPrinterListsEdges) {
  ExecutionGraph g(3);
  g.addEdge(0, 1);
  g.addEdge(0, 2);
  EXPECT_EQ(toString(g), "graph 3 2\nedge 0 1\nedge 0 2\n");
}

TEST(Dot, ContainsNodesAndEdges) {
  const auto pi = sec23Example();
  const auto dot = toDot(pi.app, pi.graph);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("in -> n0"), std::string::npos);
  EXPECT_NE(dot.find("n4 -> out"), std::string::npos);
}

TEST(Dot, PrecedenceGraph) {
  Application app;
  app.addService(1.0, 1.0, "a");
  app.addService(1.0, 1.0, "b");
  app.addPrecedence(0, 1);
  const auto dot = precedenceDot(app);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(Serialize, OperationListPrinterMarksWorldAsMinusOne) {
  OperationList ol(2, 7.5);
  ol.setCalc(0, 1.0, 3.0);
  ol.setCalc(1, 4.25, 6.0);
  ol.setComm(kWorld, 0, 0.0, 1.0);
  ol.setComm(0, 1, 3.0, 4.25);
  ol.setComm(1, kWorld, 6.0, 7.0);
  const std::string text = toString(ol);
  EXPECT_EQ(text.substr(0, text.find('\n')), "oplist 2 7.5 3");
  EXPECT_NE(text.find("calc 1 4.25 6\n"), std::string::npos) << text;
  EXPECT_NE(text.find("comm -1 0 0 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("comm 1 -1 6 7\n"), std::string::npos) << text;
}

TEST(Gantt, RendersAllRowsAndGlyphs) {
  const auto pi = sec23Example();
  OperationList ol(5, 21.0);
  ol.setCalc(0, 1, 5);
  ol.setCalc(1, 6, 10);
  ol.setCalc(2, 11, 15);
  ol.setCalc(3, 7, 11);
  ol.setCalc(4, 16, 20);
  ol.setComm(kWorld, 0, 0, 1);
  ol.setComm(0, 1, 5, 6);
  ol.setComm(0, 3, 6, 7);
  ol.setComm(1, 2, 10, 11);
  ol.setComm(2, 4, 15, 16);
  ol.setComm(3, 4, 11, 12);
  ol.setComm(4, kWorld, 20, 21);
  const auto text = renderGantt(pi.app, ol);
  // One row per service plus a header.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 6);
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find('>'), std::string::npos);
  EXPECT_NE(text.find('<'), std::string::npos);
}

TEST(Gantt, ClipsToMaxColumns) {
  Application app;
  app.addService(1000.0, 1.0, "slow");
  ExecutionGraph g(1);
  OperationList ol(1, 1002.0);
  ol.setCalc(0, 1, 1001);
  ol.setComm(kWorld, 0, 0, 1);
  ol.setComm(0, kWorld, 1001, 1002);
  GanttOptions opt;
  opt.maxColumns = 40;
  const auto text = renderGantt(app, ol, opt);
  for (const auto& line : {text.substr(text.find('\n') + 1)}) {
    EXPECT_LE(line.find('\n'), 60u);
  }
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.row({"a", "b", "c"});
  csv.row({"1", "2", "3"});
  EXPECT_EQ(os.str(), "a,b,c\n1,2,3\n");
}

}  // namespace
}  // namespace fsw
