#include <gtest/gtest.h>

#include "soidom/base/rng.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/decomp/decompose.hpp"
#include "soidom/sim/sim.hpp"
#include "soidom/twolevel/cube_ops.hpp"
#include "soidom/twolevel/extract.hpp"

namespace soidom {
namespace {

void expect_model_equivalent(const BlifModel& a, const BlifModel& b,
                             int rounds = 64) {
  ASSERT_EQ(a.inputs.size(), b.inputs.size());
  Rng rng(0xE8);
  const std::size_t n = a.inputs.size();
  const int exhaustive = n <= 10 ? (1 << n) : 0;
  const int total = exhaustive ? exhaustive : rounds;
  for (int r = 0; r < total; ++r) {
    std::vector<bool> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = exhaustive ? ((r >> i) & 1) != 0 : rng.chance(1, 2);
    }
    ASSERT_EQ(evaluate(a, in), evaluate(b, in)) << "vector " << r;
  }
}

TEST(Extract, SharedCubeAcrossTables) {
  // a&b appears in three cubes across two tables: one divisor suffices.
  BlifModel model = parse_blif(
      ".model x\n.inputs a b c d\n.outputs y z\n"
      ".names a b c y\n111 1\n"
      ".names a b d z\n111 1\n110 1\n.end\n");
  const BlifModel original = model;
  const ExtractStats stats = extract_common_cubes(model);
  EXPECT_EQ(stats.divisors_extracted, 1);
  EXPECT_LT(stats.literals_after, stats.literals_before);
  expect_model_equivalent(original, model);
  // The divisor table computes a&b.
  const int div = model.table_defining("fx0");
  ASSERT_GE(div, 0);
  EXPECT_EQ(model.tables[static_cast<std::size_t>(div)].cover.cubes.size(), 1u);
}

TEST(Extract, RespectsPhases) {
  // The common pair is (a, !b): phases must fold into the divisor.
  BlifModel model = parse_blif(
      ".model x\n.inputs a b c d\n.outputs y z\n"
      ".names a b c y\n101 1\n"
      ".names a b d z\n101 1\n100 1\n.end\n");
  const BlifModel original = model;
  const ExtractStats stats = extract_common_cubes(model);
  EXPECT_EQ(stats.divisors_extracted, 1);
  expect_model_equivalent(original, model);
}

TEST(Extract, NoGainNoChange) {
  // Every pair occurs at most twice but gain = count - 2 = 0: no change.
  BlifModel model = parse_blif(
      ".model x\n.inputs a b c\n.outputs y\n"
      ".names a b c y\n11- 1\n--1 1\n.end\n");
  const int before = 0;
  (void)before;
  const ExtractStats stats = extract_common_cubes(model);
  EXPECT_EQ(stats.divisors_extracted, 0);
  EXPECT_EQ(stats.literals_after, stats.literals_before);
}

TEST(Extract, CascadedDivisors) {
  // a&b&c in many cubes: first extraction takes a pair, the next round
  // can pair the divisor with the remaining literal.
  BlifModel model = parse_blif(
      ".model x\n.inputs a b c d e\n.outputs v w y z\n"
      ".names a b c d v\n1111 1\n"
      ".names a b c e w\n1111 1\n"
      ".names a b c y\n111 1\n"
      ".names a b c d z\n1110 1\n.end\n");
  const BlifModel original = model;
  const ExtractStats stats = extract_common_cubes(model);
  EXPECT_GE(stats.divisors_extracted, 2);
  EXPECT_LT(stats.literals_after, stats.literals_before);
  expect_model_equivalent(original, model);
}

TEST(Extract, PrefixAvoidsCollision) {
  BlifModel model = parse_blif(
      ".model x\n.inputs fx0 a b\n.outputs y z\n"
      ".names fx0 a b y\n111 1\n"
      ".names fx0 a b z\n111 1\n110 1\n.end\n");
  const BlifModel original = model;
  const ExtractStats stats = extract_common_cubes(model);
  EXPECT_GE(stats.divisors_extracted, 1);
  // New divisors must not shadow the existing "fx0" input.
  EXPECT_EQ(model.table_defining("fx0"), -1);
  expect_model_equivalent(original, model);
}

TEST(Extract, ExtractedModelStillDecomposesAndMaps) {
  BlifModel model = parse_blif(
      ".model x\n.inputs a b c d e f\n.outputs p q r\n"
      ".names a b c d p\n11-1 1\n1101 1\n"
      ".names a b e q\n11- 1\n--1 1\n"
      ".names a b f r\n111 1\n"
      ".end\n");
  const BlifModel original = model;
  extract_common_cubes(model);
  const FlowResult r = run_flow(model, FlowOptions{});
  EXPECT_TRUE(r.ok());
  // And the mapped netlist still computes the ORIGINAL functions.
  const Network orig_net = decompose(original);
  Rng rng(12);
  for (int round = 0; round < 8; ++round) {
    const auto words = random_pi_words(orig_net.pis().size(), rng);
    EXPECT_EQ(simulate_outputs(orig_net, words), r.netlist.simulate(words));
  }
}

class ExtractRandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtractRandomProperty, PreservesFunctionAndNeverGrowsLiterals) {
  // Random multi-table models.
  Rng rng(GetParam());
  BlifModel model;
  model.name = "rand";
  const int num_inputs = 6;
  for (int i = 0; i < num_inputs; ++i) {
    model.inputs.push_back('x' + std::to_string(i));
  }
  const int tables = 2 + static_cast<int>(rng.next_below(4));
  for (int t = 0; t < tables; ++t) {
    BlifTable table;
    table.output = 'o' + std::to_string(t);
    table.inputs = model.inputs;
    table.cover.num_inputs = model.inputs.size();
    const int cubes = 1 + static_cast<int>(rng.next_below(5));
    for (int c = 0; c < cubes; ++c) {
      Cube cube;
      for (int v = 0; v < num_inputs; ++v) {
        switch (rng.next_below(3)) {
          case 0: cube.lits.push_back(CubeLit::kPos); break;
          case 1: cube.lits.push_back(CubeLit::kNeg); break;
          default: cube.lits.push_back(CubeLit::kDontCare); break;
        }
      }
      table.cover.cubes.push_back(std::move(cube));
    }
    model.tables.push_back(std::move(table));
    model.outputs.push_back('o' + std::to_string(t));
  }

  const BlifModel original = model;
  const ExtractStats stats = extract_common_cubes(model);
  EXPECT_LE(stats.literals_after, stats.literals_before);
  expect_model_equivalent(original, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtractRandomProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace soidom
