#include "netlist/bench_io.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/error.hpp"
#include "dataset/embedded.hpp"

namespace deepseq {
namespace {

TEST(BenchIo, ParsesS27Structure) {
  const Circuit c = iscas89_s27();
  EXPECT_EQ(c.pis().size(), 4u);
  EXPECT_EQ(c.ffs().size(), 3u);
  EXPECT_EQ(c.pos().size(), 1u);
  EXPECT_EQ(c.num_nodes(), 17u);  // 4 PI + 3 FF + 10 gates
}

TEST(BenchIo, ForwardReferenceThroughFf) {
  // G5 = DFF(G10) appears before G10 is defined.
  const Circuit c = parse_bench_string(
      "INPUT(a)\nOUTPUT(o)\nq = DFF(g)\ng = AND(a, q)\no = NOT(g)\n");
  EXPECT_EQ(c.ffs().size(), 1u);
  const NodeId q = c.find_by_name("q");
  const NodeId g = c.find_by_name("g");
  EXPECT_EQ(c.fanin(q, 0), g);
}

TEST(BenchIo, CommentsAndBlankLines) {
  const Circuit c = parse_bench_string(
      "# a comment\n\nINPUT(a)\n  # indented comment\nOUTPUT(b)\nb = NOT(a)\n");
  EXPECT_EQ(c.num_nodes(), 2u);
}

TEST(BenchIo, CaseInsensitiveKeywords) {
  const Circuit c = parse_bench_string(
      "input(a)\noutput(b)\nb = not(a)\n");
  EXPECT_EQ(c.pis().size(), 1u);
  EXPECT_EQ(c.type(c.find_by_name("b")), GateType::kNot);
}

TEST(BenchIo, NaryAndExpandsToTree) {
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(y)\ny = AND(a, b, c, d)\n");
  // 4 PIs + 3 AND gates in a balanced tree.
  const auto counts = c.type_counts();
  EXPECT_EQ(counts[static_cast<int>(GateType::kAnd)], 3u);
  EXPECT_EQ(c.pos().size(), 1u);
}

TEST(BenchIo, NaryNorGetsInverter) {
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = NOR(a, b, c)\n");
  const NodeId y = c.pos()[0];
  EXPECT_EQ(c.type(y), GateType::kNot);  // NOR(a,b,c) = NOT(OR-tree)
}

TEST(BenchIo, MuxParses) {
  const Circuit c = parse_bench_string(
      "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(s, a, b)\n");
  EXPECT_EQ(c.type(c.pos()[0]), GateType::kMux);
}

TEST(BenchIo, ErrorsCarryLineNumbers) {
  try {
    parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("FROB"), std::string::npos);
  }
}

TEST(BenchIo, UndefinedSignalThrows) {
  EXPECT_THROW(
      parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"),
      ParseError);
}

TEST(BenchIo, RedefinedSignalThrows) {
  EXPECT_THROW(parse_bench_string(
                   "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(a)\n"),
               ParseError);
}

TEST(BenchIo, WrongFaninCountThrows) {
  EXPECT_THROW(parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = XOR(a)\n"),
               ParseError);
  EXPECT_THROW(parse_bench_string("INPUT(a)\nOUTPUT(y)\ny = DFF(a, a)\n"),
               ParseError);
}

TEST(BenchIo, RoundTripPreservesStructure) {
  const Circuit c = iscas89_s27();
  const Circuit c2 = parse_bench_string(write_bench_string(c), "s27rt");
  EXPECT_EQ(c2.num_nodes(), c.num_nodes());
  EXPECT_EQ(c2.pis().size(), c.pis().size());
  EXPECT_EQ(c2.ffs().size(), c.ffs().size());
  EXPECT_EQ(c2.pos().size(), c.pos().size());
  EXPECT_EQ(c2.type_counts(), c.type_counts());
}

TEST(BenchIo, UniqueNodeNamesAreUnique) {
  Circuit c;
  c.add_pi("x");
  c.add_pi("x");  // duplicate user names
  const NodeId a = c.add_and(0, 1);
  c.add_po(a, "o");
  const auto names = unique_node_names(c);
  EXPECT_NE(names[0], names[1]);
  EXPECT_FALSE(names[2].empty());
}

TEST(BenchIo, GeneratedNamesNeverClaimAnotherNodesName) {
  // A generated suffix or "n<id>" fallback must not reproduce a name that
  // another node carries itself: "a, a, a_1" once became "a, a_1, a_1".
  Circuit c;
  const NodeId a0 = c.add_pi("a");
  const NodeId a1 = c.add_pi("a");
  const NodeId a2 = c.add_pi("a_1");
  const NodeId g = c.add_and(a0, a1, "n4_1");
  const NodeId h = c.add_and(g, a2);  // unnamed: base "n4"
  c.add_and(h, a0, "n4");
  const auto names = unique_node_names(c);
  const std::set<std::string> distinct(names.begin(), names.end());
  EXPECT_EQ(distinct.size(), names.size());
  // Nodes whose name is their own and first keep it.
  EXPECT_EQ(names[a0], "a");
  EXPECT_EQ(names[a2], "a_1");
  EXPECT_EQ(names[g], "n4_1");
  EXPECT_EQ(names[h], "n4");
  // The written BENCH declares one net per node.
  const Circuit back = parse_bench_string(write_bench_string(c));
  EXPECT_EQ(back.num_nodes(), c.num_nodes());
}

TEST(BenchIo, FileRoundTrip) {
  const Circuit c = iscas89_s27();
  const std::string path = ::testing::TempDir() + "/s27.bench";
  write_bench_file(c, path);
  const Circuit c2 = parse_bench_file(path);
  EXPECT_EQ(c2.num_nodes(), c.num_nodes());
}

TEST(BenchIo, MissingFileThrows) {
  EXPECT_THROW(parse_bench_file("/nonexistent/file.bench"), ParseError);
}

}  // namespace
}  // namespace deepseq
