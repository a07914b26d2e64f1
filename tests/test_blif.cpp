#include <gtest/gtest.h>

#include "soidom/base/contracts.hpp"
#include "soidom/blif/blif.hpp"
#include "soidom/sim/sim.hpp"

namespace soidom {
namespace {

const char* kAdderBlif = R"(
# half adder
.model ha
.inputs a b
.outputs s c
.names a b s
01 1
10 1
.names a b c
11 1
.end
)";

/// The message parse_blif throws on `text`, or "" if it parses.
std::string parse_error(std::string_view text) {
  try {
    parse_blif(text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SopCover, AndEval) {
  const SopCover c = SopCover::and_n(3);
  EXPECT_TRUE(c.eval({true, true, true}));
  EXPECT_FALSE(c.eval({true, false, true}));
}

TEST(SopCover, OrEval) {
  const SopCover c = SopCover::or_n(3);
  EXPECT_FALSE(c.eval({false, false, false}));
  EXPECT_TRUE(c.eval({false, true, false}));
}

TEST(SopCover, InverterAndBuffer) {
  EXPECT_TRUE(SopCover::inverter().eval({false}));
  EXPECT_FALSE(SopCover::inverter().eval({true}));
  EXPECT_TRUE(SopCover::buffer().eval({true}));
  EXPECT_FALSE(SopCover::buffer().eval({false}));
}

TEST(SopCover, Constants) {
  bool v = false;
  EXPECT_TRUE(SopCover::const_zero().is_constant(v));
  EXPECT_FALSE(v);
  EXPECT_TRUE(SopCover::const_one().is_constant(v));
  EXPECT_TRUE(v);
  EXPECT_FALSE(SopCover::and_n(2).is_constant(v));
}

TEST(SopCover, OffSetSemantics) {
  // Off-set cover: f = !(a & !b)
  SopCover c{2, {}, false};
  c.cubes.push_back(Cube{{CubeLit::kPos, CubeLit::kNeg}});
  EXPECT_FALSE(c.eval({true, false}));
  EXPECT_TRUE(c.eval({true, true}));
  EXPECT_TRUE(c.eval({false, false}));
}

TEST(SopCover, SyntacticUnateness) {
  EXPECT_TRUE(SopCover::and_n(4).syntactically_unate());
  SopCover xo{2, {}, true};  // xor: binate in both
  xo.cubes.push_back(Cube{{CubeLit::kPos, CubeLit::kNeg}});
  xo.cubes.push_back(Cube{{CubeLit::kNeg, CubeLit::kPos}});
  EXPECT_FALSE(xo.syntactically_unate());
}

TEST(BlifParser, ParsesHalfAdder) {
  const BlifModel m = parse_blif(kAdderBlif);
  EXPECT_EQ(m.name, "ha");
  ASSERT_EQ(m.inputs.size(), 2u);
  ASSERT_EQ(m.outputs.size(), 2u);
  ASSERT_EQ(m.tables.size(), 2u);
  EXPECT_EQ(m.tables[0].output, "s");
  EXPECT_EQ(m.tables[0].cover.cubes.size(), 2u);
}

TEST(BlifParser, EvaluatesHalfAdder) {
  const BlifModel m = parse_blif(kAdderBlif);
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      const auto out = evaluate(m, {a, b});
      EXPECT_EQ(out[0], a != b);
      EXPECT_EQ(out[1], a && b);
    }
  }
}

TEST(BlifParser, HandlesContinuationAndComments) {
  const BlifModel m = parse_blif(
      ".model t # trailing comment\n"
      ".inputs a \\\n b c\n"
      ".outputs z\n"
      ".names a b \\\n c z\n"
      "111 1\n"
      ".end\n");
  EXPECT_EQ(m.inputs.size(), 3u);
  EXPECT_EQ(m.tables[0].inputs.size(), 3u);
}

TEST(BlifParser, ConstantTables) {
  const BlifModel m = parse_blif(
      ".model c\n.inputs a\n.outputs one zero\n"
      ".names one\n1\n"
      ".names zero\n"
      ".end\n");
  const auto out = evaluate(m, {false});
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
}

TEST(BlifParser, RejectsLatch) {
  EXPECT_THROW(
      parse_blif(".model s\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n"),
      Error);
}

TEST(BlifParser, RejectsSubckt) {
  EXPECT_THROW(parse_blif(".model s\n.inputs a\n.outputs q\n"
                          ".subckt sub x=a y=q\n.end\n"),
               Error);
}

TEST(BlifParser, RejectsMalformedCube) {
  EXPECT_THROW(parse_blif(".model m\n.inputs a b\n.outputs z\n"
                          ".names a b z\n1 1\n.end\n"),
               Error);
  EXPECT_THROW(parse_blif(".model m\n.inputs a b\n.outputs z\n"
                          ".names a b z\n1x 1\n.end\n"),
               Error);
}

TEST(BlifParser, RejectsUndefinedSignals) {
  EXPECT_EQ(parse_error(".model m\n.inputs a\n.outputs z\n.end\n"),
            "BLIF semantic error: output 'z' is never defined");
  EXPECT_EQ(parse_error(".model m\n.inputs a\n.outputs z\n"
                        ".names a ghost z\n11 1\n.end\n"),
            "BLIF semantic error: signal 'ghost' used by 'z' is never defined");
}

TEST(BlifParser, RejectsDoubleDefinition) {
  EXPECT_EQ(parse_error(".model m\n.inputs a\n.outputs z\n"
                        ".names a z\n1 1\n.names a z\n0 1\n.end\n"),
            "BLIF parse error at line 6: signal 'z' defined twice");
}

TEST(BlifParser, DoubleDefinitionIsReportedAtTheSecondNames) {
  // Raised while parsing, at the second .names: before the malformed cube
  // that follows it and before any semantic check (output 'y' and fanin
  // 'ghost' are never defined).
  EXPECT_EQ(parse_error(".model m\n.inputs a\n.outputs z y\n"
                        ".names a ghost t\n11 1\n"
                        ".names a u\n1 1\n"
                        "# comment line\n"
                        ".names a \\\n t\n"
                        "2 1\n.end\n"),
            "BLIF parse error at line 9: signal 't' defined twice");
}

TEST(BlifParser, FirstUndefinedOutputIsReported) {
  // Outputs are checked in .outputs order, before any table fanin.
  EXPECT_EQ(parse_error(".model m\n.inputs a\n.outputs p y z\n"
                        ".names a ghost p\n11 1\n.end\n"),
            "BLIF semantic error: output 'y' is never defined");
}

TEST(BlifParser, FirstUndefinedFaninInTableOrder) {
  // Tables are checked in file order and fanins in cube order, not in
  // dependency order: z's table comes first, and its defined fanin 't'
  // does not send the check into t's table.
  EXPECT_EQ(parse_error(".model m\n.inputs a\n.outputs z\n"
                        ".names t g2 z\n11 1\n"
                        ".names g1 a t\n11 1\n.end\n"),
            "BLIF semantic error: signal 'g2' used by 'z' is never defined");
}

TEST(BlifParser, NamesMayRedefinePrimaryInput) {
  // Parsing accepts a table whose output is also a primary input;
  // decompose() binds the name to the input (test_decomp.cpp).
  const BlifModel m = parse_blif(
      ".model m\n.inputs a b\n.outputs z\n"
      ".names b a\n1 1\n.names a z\n1 1\n.end\n");
  ASSERT_EQ(m.tables.size(), 2u);
  EXPECT_EQ(m.tables[0].output, "a");
  EXPECT_EQ(m.table_defining("a"), 0);
  EXPECT_EQ(m.table_defining("z"), 1);
  EXPECT_EQ(m.table_defining("b"), -1);
}

TEST(BlifParser, RejectsMixedPhases) {
  EXPECT_THROW(parse_blif(".model m\n.inputs a b\n.outputs z\n"
                          ".names a b z\n11 1\n00 0\n.end\n"),
               Error);
}

TEST(BlifParser, ErrorMentionsLineNumber) {
  try {
    parse_blif(".model m\n.inputs a\n.outputs z\n.names a z\n2 1\n.end\n");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos);
  }
}

TEST(BlifWriter, RoundTripsModel) {
  const BlifModel m = parse_blif(kAdderBlif);
  const BlifModel m2 = parse_blif(write_blif(m));
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      EXPECT_EQ(evaluate(m, {a != 0, b != 0}), evaluate(m2, {a != 0, b != 0}));
    }
  }
}

TEST(BlifWriter, WritesOffsetCover) {
  BlifModel m;
  m.name = "offs";
  m.inputs = {"a", "b"};
  m.outputs = {"z"};
  BlifTable t;
  t.inputs = {"a", "b"};
  t.output = "z";
  t.cover = SopCover{2, {Cube{{CubeLit::kPos, CubeLit::kPos}}}, false};
  m.tables.push_back(t);
  const BlifModel m2 = parse_blif(write_blif(m));
  EXPECT_EQ(evaluate(m2, {true, true})[0], false);
  EXPECT_EQ(evaluate(m2, {true, false})[0], true);
}

}  // namespace
}  // namespace soidom
