#include <gtest/gtest.h>

#include "helpers.hpp"
#include "soidom/bdd/bdd.hpp"
#include "soidom/bdd/equivalence.hpp"
#include "soidom/guard/guard.hpp"
#include "soidom/domino/exact.hpp"
#include "soidom/decomp/decompose.hpp"
#include "soidom/mapper/mapper.hpp"
#include "soidom/network/transform.hpp"
#include "soidom/sim/sim.hpp"
#include "soidom/unate/unate.hpp"

namespace soidom {
namespace {

TEST(Bdd, Terminals) {
  BddManager m(2);
  EXPECT_TRUE(m.is_const(BddManager::kFalse));
  EXPECT_TRUE(m.is_const(BddManager::kTrue));
  EXPECT_FALSE(m.eval(BddManager::kFalse, {false, false}));
  EXPECT_TRUE(m.eval(BddManager::kTrue, {false, false}));
}

TEST(Bdd, VarAndNvar) {
  BddManager m(2);
  const auto x = m.var(0);
  const auto nx = m.nvar(0);
  EXPECT_TRUE(m.eval(x, {true, false}));
  EXPECT_FALSE(m.eval(x, {false, false}));
  EXPECT_FALSE(m.eval(nx, {true, false}));
  EXPECT_EQ(m.negate(x), nx);  // canonicity
}

TEST(Bdd, CanonicityMergesEquivalentFunctions) {
  BddManager m(3);
  // (x & y) | (x & z) == x & (y | z)
  const auto lhs = m.apply_or(m.apply_and(m.var(0), m.var(1)),
                              m.apply_and(m.var(0), m.var(2)));
  const auto rhs = m.apply_and(m.var(0), m.apply_or(m.var(1), m.var(2)));
  EXPECT_EQ(lhs, rhs);
}

TEST(Bdd, OperatorsTruthTables) {
  BddManager m(2);
  const auto x = m.var(0);
  const auto y = m.var(1);
  const auto fand = m.apply_and(x, y);
  const auto forr = m.apply_or(x, y);
  const auto fxor = m.apply_xor(x, y);
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      EXPECT_EQ(m.eval(fand, {a, b}), a && b);
      EXPECT_EQ(m.eval(forr, {a, b}), a || b);
      EXPECT_EQ(m.eval(fxor, {a, b}), a != b);
    }
  }
}

TEST(Bdd, SelfOperations) {
  BddManager m(1);
  const auto x = m.var(0);
  EXPECT_EQ(m.apply_and(x, x), x);
  EXPECT_EQ(m.apply_or(x, x), x);
  EXPECT_EQ(m.apply_xor(x, x), BddManager::kFalse);
  EXPECT_EQ(m.apply_and(x, m.negate(x)), BddManager::kFalse);
  EXPECT_EQ(m.apply_or(x, m.negate(x)), BddManager::kTrue);
}

TEST(Bdd, SatCount) {
  BddManager m(3);
  EXPECT_DOUBLE_EQ(m.sat_count(BddManager::kTrue), 8.0);
  EXPECT_DOUBLE_EQ(m.sat_count(BddManager::kFalse), 0.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.var(0)), 4.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.apply_and(m.var(0), m.var(2))), 2.0);
  EXPECT_DOUBLE_EQ(m.sat_count(m.apply_xor(m.var(1), m.var(2))), 4.0);
}

TEST(Bdd, AnySat) {
  BddManager m(3);
  EXPECT_FALSE(m.any_sat(BddManager::kFalse).has_value());
  const auto f = m.apply_and(m.var(0), m.nvar(2));
  const auto sat = m.any_sat(f);
  ASSERT_TRUE(sat.has_value());
  EXPECT_TRUE(m.eval(f, *sat));
}

TEST(Bdd, NodeLimitThrows) {
  BddManager m(40, /*node_limit=*/64);
  // A product chain grows linearly, an XOR chain also, but the limit of 64
  // is hit quickly when building many distinct functions.
  EXPECT_THROW(
      {
        auto f = BddManager::kTrue;
        for (unsigned v = 0; v < 40; ++v) {
          f = m.apply_xor(f, m.var(v));
          // force distinct products too
          m.apply_and(f, m.var((v + 1) % 40));
        }
      },
      Error);
}

TEST(Bdd, MultiplierMiddleBitSurvivesCacheGrowth) {
  // Bit 7 of an 8x8 array multiplier, operands interleaved (a_i = var 2i,
  // b_i = var 2i+1).  Its BDD passes several computed-table sizes, and
  // each growth step happens deep inside an ite() recursion whose frames
  // still have to store their results.
  constexpr unsigned kBits = 8;
  constexpr unsigned kBit = 7;
  BddManager m(2 * kBits);
  // column[k]: the partial-product and carry bits of weight 2^k.
  std::vector<std::vector<BddManager::Ref>> column(kBit + 1);
  for (unsigned i = 0; i < kBits; ++i) {
    for (unsigned j = 0; i + j <= kBit; ++j) {
      column[i + j].push_back(m.apply_and(m.var(2 * i), m.var(2 * j + 1)));
    }
  }
  for (unsigned k = 0; k <= kBit; ++k) {
    // Reduce the column as a queue of half adders: each sum goes to the
    // back, each carry to column k + 1; the last sum is the column's bit.
    std::vector<BddManager::Ref>& bits = column[k];
    for (std::size_t i = 0; i + 1 < bits.size(); i += 2) {
      const auto x = bits[i];
      const auto y = bits[i + 1];
      bits.push_back(m.apply_xor(x, y));
      if (k < kBit) column[k + 1].push_back(m.apply_and(x, y));
    }
  }
  const BddManager::Ref bit = column[kBit].back();
  EXPECT_GT(m.node_count(), 2u * 4096) << "fewer than two growth steps";

  std::vector<bool> values(2 * kBits);
  for (unsigned a = 0; a < (1u << kBits); ++a) {
    for (unsigned b = 0; b < (1u << kBits); ++b) {
      for (unsigned i = 0; i < kBits; ++i) {
        values[2 * i] = ((a >> i) & 1u) != 0;
        values[2 * i + 1] = ((b >> i) & 1u) != 0;
      }
      ASSERT_EQ(m.eval(bit, values), (((a * b) >> kBit) & 1u) != 0)
          << a << " * " << b;
    }
  }
}

TEST(Bdd, OneIteCrossesSeveralCacheGrowthSteps) {
  // With x the binary number of the variables (var i has weight 2^i),
  // f = [x mod 61 < 30] and g = [x mod 67 < 33] have at most p nodes per
  // level.  Their conjunction tracks both residues and has over 16k
  // nodes, all created by one apply_and: the computed table grows from
  // 4096 to 8192 to 16384 entries inside that one recursion.
  constexpr unsigned kVars = 20;
  BddManager m(kVars);
  auto residue_below = [&m](unsigned p, unsigned t) {
    // level[r]: [(r + weight of the variables not yet added) mod p < t].
    std::vector<BddManager::Ref> level(p);
    for (unsigned r = 0; r < p; ++r) {
      level[r] = r < t ? BddManager::kTrue : BddManager::kFalse;
    }
    for (unsigned i = kVars; i-- > 0;) {
      std::vector<BddManager::Ref> next(p);
      for (unsigned r = 0; r < p; ++r) {
        next[r] = m.ite(m.var(i), level[(r + (1u << i)) % p], level[r]);
      }
      level = std::move(next);
    }
    return level[0];
  };
  const auto f = residue_below(61, 30);
  const auto g = residue_below(67, 33);
  const std::size_t before = m.node_count();
  const auto fg = m.apply_and(f, g);
  EXPECT_LT(before, 4096u);
  EXPECT_GT(m.node_count(), 2u * 4096) << "fewer than two growth steps";

  std::vector<bool> values(kVars);
  for (std::uint32_t x = 0; x < (1u << kVars); ++x) {
    for (unsigned i = 0; i < kVars; ++i) values[i] = ((x >> i) & 1u) != 0;
    ASSERT_EQ(m.eval(fg, values), x % 61 < 30 && x % 67 < 33) << x;
  }
}

TEST(Bdd, NodeLimitAboveTwoToThe24IsRejected) {
  // The unique table packs node refs into 24 bits.
  EXPECT_NO_THROW(BddManager(2, BddManager::kMaxNodeLimit));
  EXPECT_THROW(BddManager(2, BddManager::kMaxNodeLimit + 1), Error);
}

TEST(BddEquivalence, NetworkSelfEquivalence) {
  const Network net = testing::full_adder_network();
  EXPECT_EQ(equivalent_exact(net, net), std::optional<bool>(true));
}

TEST(BddEquivalence, DetectsInequivalence) {
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, y1), "z");
  NetworkBuilder b2;
  const NodeId x2 = b2.add_pi("x");
  const NodeId y2 = b2.add_pi("y");
  b2.add_output(b2.add_or(x2, y2), "z");
  EXPECT_EQ(equivalent_exact(std::move(b1).build(), std::move(b2).build()),
            std::optional<bool>(false));
}

TEST(BddEquivalence, AgreesWithSimulationOnRandomNetworks) {
  for (const std::uint64_t seed : {10u, 20u, 30u, 40u}) {
    const Network a = testing::random_network(8, 60, 4, seed);
    const Network b = soidom::clone(a);
    EXPECT_EQ(equivalent_exact(a, b), std::optional<bool>(true)) << seed;
  }
}

TEST(BddEquivalence, MappedNetlistExact) {
  for (const std::uint64_t seed : {3u, 5u, 7u}) {
    const Network source = testing::random_network(10, 90, 5, seed);
    const UnateResult unate = make_unate(source);
    for (const MappingEngine engine :
         {MappingEngine::kDominoMap, MappingEngine::kSoiDominoMap}) {
      MapperOptions opts;
      opts.engine = engine;
      const MappingResult result = map_to_domino(unate, opts);
      EXPECT_EQ(equivalent_exact(result.netlist, source),
                std::optional<bool>(true))
          << "seed " << seed;
    }
  }
}

TEST(BddEquivalence, MappedNetlistMismatchDetected) {
  const Network source = testing::fig2_network();
  const UnateResult unate = make_unate(source);
  MappingResult result = map_to_domino(unate, MapperOptions{});
  DominoNetlist broken;
  for (const auto& in : result.netlist.inputs()) broken.add_input(in);
  for (const auto& g : result.netlist.gates()) broken.add_gate(g);
  auto o = result.netlist.outputs()[0];
  o.inverted = !o.inverted;
  broken.add_output(o);
  EXPECT_EQ(equivalent_exact(broken, source), std::optional<bool>(false));
}

TEST(BddEquivalence, ReorderedInterfacesMatchByName) {
  // Same functions, PIs and POs declared in a different order: the
  // name-based matching must pair them up instead of comparing
  // positionally (which would report a spurious mismatch).
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, y1), "and");
  b1.add_output(b1.add_or(x1, y1), "or");
  NetworkBuilder b2;
  const NodeId y2 = b2.add_pi("y");
  const NodeId x2 = b2.add_pi("x");
  b2.add_output(b2.add_or(x2, y2), "or");
  b2.add_output(b2.add_and(x2, y2), "and");
  EXPECT_EQ(equivalent_exact(std::move(b1).build(), std::move(b2).build()),
            std::optional<bool>(true));
}

TEST(BddEquivalence, ReorderedAsymmetricFunctionIsNotPositional) {
  // x & !y vs (PIs swapped) x & !y: positionally these would wrongly
  // compare x & !y against y & !x and return false; name matching must
  // return true.  The dual check — matched names but genuinely different
  // functions — must still fail.
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, b1.add_inv(y1)), "z");
  const Network a = std::move(b1).build();

  NetworkBuilder b2;
  const NodeId y2 = b2.add_pi("y");
  const NodeId x2 = b2.add_pi("x");
  b2.add_output(b2.add_and(x2, b2.add_inv(y2)), "z");
  EXPECT_EQ(equivalent_exact(a, std::move(b2).build()),
            std::optional<bool>(true));

  NetworkBuilder b3;
  const NodeId y3 = b3.add_pi("y");
  const NodeId x3 = b3.add_pi("x");
  b3.add_output(b3.add_and(b3.add_inv(x3), y3), "z");
  EXPECT_EQ(equivalent_exact(a, std::move(b3).build()),
            std::optional<bool>(false));
}

TEST(BddEquivalence, InterfaceSizeMismatchThrows) {
  NetworkBuilder b1;
  b1.add_output(b1.add_pi("x"), "z");
  NetworkBuilder b2;
  const NodeId x = b2.add_pi("x");
  const NodeId y = b2.add_pi("y");
  b2.add_output(b2.add_and(x, y), "z");
  try {
    (void)equivalent_exact(std::move(b1).build(), std::move(b2).build());
    FAIL() << "expected GuardError";
  } catch (const GuardError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_EQ(e.stage(), FlowStage::kExact);
    EXPECT_NE(std::string(e.what()).find("PI count mismatch"),
              std::string::npos);
  }
}

TEST(BddEquivalence, MissingNameThrowsWithOffendingSignal) {
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, y1), "z");
  NetworkBuilder b2;
  const NodeId y2 = b2.add_pi("y");
  const NodeId w2 = b2.add_pi("w");  // no 'x' on side A
  b2.add_output(b2.add_and(w2, y2), "z");
  try {
    (void)equivalent_exact(std::move(b1).build(), std::move(b2).build());
    FAIL() << "expected GuardError";
  } catch (const GuardError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("'w'"), std::string::npos);
  }
}

TEST(BddEquivalence, DuplicateNamesUnmatchableWhenReordered) {
  // Two PIs named "x" cannot be paired by name; with different PI orders
  // the check must refuse rather than guess.
  auto build = [](bool swap) {
    NetworkBuilder b;
    const NodeId p = b.add_pi("x");
    const NodeId q = b.add_pi(swap ? "y" : "x");
    b.add_output(b.add_and(p, q), "z");
    return std::move(b).build();
  };
  try {
    (void)equivalent_exact(build(false), build(true));
    FAIL() << "expected GuardError";
  } catch (const GuardError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("duplicate 'x'"), std::string::npos);
  }
}

TEST(BddEquivalence, PositionalFastPathToleratesDuplicateNames) {
  // Identical (even degenerate) name sequences keep the positional fast
  // path: duplicates are fine when no reordering is needed.
  auto build = [] {
    NetworkBuilder b;
    const NodeId p = b.add_pi("x");
    const NodeId q = b.add_pi("x");
    b.add_output(b.add_or(p, q), "z");
    return std::move(b).build();
  };
  EXPECT_EQ(equivalent_exact(build(), build()), std::optional<bool>(true));
}

TEST(BddEquivalence, NodeLimitReturnsNullopt) {
  // A 24-variable XOR ladder times a product ladder with a 100-node cap
  // cannot complete.
  NetworkBuilder b;
  std::vector<NodeId> pis;
  for (int i = 0; i < 24; ++i) pis.push_back(b.add_pi('x' + std::to_string(i)));
  NodeId acc = pis[0];
  for (std::size_t i = 1; i < pis.size(); ++i) {
    acc = b.add_or(b.add_and(acc, b.add_inv(pis[i])),
                   b.add_and(b.add_inv(acc), pis[i]));
  }
  b.add_output(acc, "z");
  const Network net = std::move(b).build();
  EXPECT_EQ(equivalent_exact(net, net, /*node_limit=*/100), std::nullopt);
}

// ---------------------------------------------------------------------------
// equivalent_exact_cex: counterexample cube extraction.

/// Assert a counterexample actually distinguishes the two networks:
/// evaluating both on its cube yields different values at the named
/// output.  `b_pis` maps the cube (A's PI order) onto B by name when the
/// interfaces are reordered; identity when empty.
void expect_distinguishing(const Network& a, const Network& b,
                           const EquivalenceCounterexample& cex) {
  ASSERT_EQ(cex.pi_values.size(), a.pis().size());
  const std::vector<bool> va = evaluate(a, cex.pi_values);
  std::vector<bool> b_inputs(b.pis().size(), false);
  for (std::size_t k = 0; k < b.pis().size(); ++k) {
    // Match by name (the function's interface rule); positional when the
    // name sequences agree.
    const std::string& name = b.pi_name(b.pis()[k]);
    bool matched = false;
    for (std::size_t j = 0; j < a.pis().size(); ++j) {
      if (a.pi_name(a.pis()[j]) == name) {
        b_inputs[k] = cex.pi_values[j];
        matched = true;
        break;
      }
    }
    ASSERT_TRUE(matched) << "PI '" << name << "' missing from network A";
  }
  const std::vector<bool> vb = evaluate(b, b_inputs);
  ASSERT_LT(cex.output_index, va.size());
  // Find B's output of the same name to compare against.
  std::size_t b_out = cex.output_index;
  for (std::size_t j = 0; j < b.outputs().size(); ++j) {
    if (b.outputs()[j].name == cex.output) b_out = j;
  }
  EXPECT_NE(va[cex.output_index], vb[b_out])
      << "counterexample does not distinguish output '" << cex.output << "'";
}

TEST(BddCex, EquivalentNetworksHaveNoCounterexample) {
  const Network net = testing::full_adder_network();
  const auto check = equivalent_exact_cex(net, net);
  ASSERT_TRUE(check.has_value());
  EXPECT_TRUE(check->equivalent);
  EXPECT_FALSE(check->counterexample.has_value());
}

TEST(BddCex, AndVsOrYieldsDistinguishingCube) {
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, y1), "z");
  NetworkBuilder b2;
  const NodeId x2 = b2.add_pi("x");
  const NodeId y2 = b2.add_pi("y");
  b2.add_output(b2.add_or(x2, y2), "z");
  const Network a = std::move(b1).build();
  const Network b = std::move(b2).build();
  const auto check = equivalent_exact_cex(a, b);
  ASSERT_TRUE(check.has_value());
  ASSERT_FALSE(check->equivalent);
  ASSERT_TRUE(check->counterexample.has_value());
  EXPECT_EQ(check->counterexample->output, "z");
  expect_distinguishing(a, b, *check->counterexample);
}

TEST(BddCex, CubeNamesTheFirstMismatchingOutputOnly) {
  // First output agrees (x AND y both sides), second differs on exactly
  // one input vector (AND vs XOR at x=1 y=1 .. differs at (1,0),(0,1)).
  NetworkBuilder b1;
  NodeId x1 = b1.add_pi("x");
  NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, y1), "same");
  b1.add_output(b1.add_and(x1, y1), "diff");
  NetworkBuilder b2;
  NodeId x2 = b2.add_pi("x");
  NodeId y2 = b2.add_pi("y");
  b2.add_output(b2.add_and(x2, y2), "same");
  b2.add_output(b2.add_or(b2.add_and(x2, b2.add_inv(y2)),
                          b2.add_and(b2.add_inv(x2), y2)),
                "diff");
  const Network a = std::move(b1).build();
  const Network b = std::move(b2).build();
  const auto check = equivalent_exact_cex(a, b);
  ASSERT_TRUE(check.has_value());
  ASSERT_FALSE(check->equivalent);
  ASSERT_TRUE(check->counterexample.has_value());
  EXPECT_EQ(check->counterexample->output, "diff");
  expect_distinguishing(a, b, *check->counterexample);
}

TEST(BddCex, ReorderedInterfacesCubeIsInNetworkAOrder) {
  // Same asymmetric function, B's PIs declared in reverse: the cube must
  // come back in A's PI order and still distinguish after name matching.
  NetworkBuilder b1;
  const NodeId x1 = b1.add_pi("x");
  const NodeId y1 = b1.add_pi("y");
  b1.add_output(b1.add_and(x1, b1.add_inv(y1)), "z");
  NetworkBuilder b2;
  const NodeId y2 = b2.add_pi("y");
  const NodeId x2 = b2.add_pi("x");
  b2.add_output(b2.add_and(y2, b2.add_inv(x2)), "z");  // x/y swapped roles
  const Network a = std::move(b1).build();
  const Network b = std::move(b2).build();
  const auto check = equivalent_exact_cex(a, b);
  ASSERT_TRUE(check.has_value());
  ASSERT_FALSE(check->equivalent);
  ASSERT_TRUE(check->counterexample.has_value());
  expect_distinguishing(a, b, *check->counterexample);
}

TEST(BddCex, RandomMiscomparesAlwaysDistinguish) {
  // Independent random networks over the same interface (PI names x0..,
  // PO names z0..) almost surely differ; whenever they do, the extracted
  // cube must verify by simulation.  Clones must never yield a cube.
  int miscompares = 0;
  for (const std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    const Network a = testing::random_network(6, 30, 3, seed);
    const Network b = testing::random_network(6, 34, 3, seed + 1000);
    const auto check = equivalent_exact_cex(a, b);
    ASSERT_TRUE(check.has_value()) << "seed " << seed;
    if (!check->equivalent) {
      ASSERT_TRUE(check->counterexample.has_value()) << "seed " << seed;
      expect_distinguishing(a, b, *check->counterexample);
      ++miscompares;
    }
    const auto self = equivalent_exact_cex(a, soidom::clone(a));
    ASSERT_TRUE(self.has_value());
    EXPECT_TRUE(self->equivalent) << "seed " << seed;
    EXPECT_FALSE(self->counterexample.has_value()) << "seed " << seed;
  }
  EXPECT_GT(miscompares, 0) << "corpus produced no miscompare to verify";
}

TEST(BddCex, NodeLimitReturnsNulloptWithoutCube) {
  NetworkBuilder b;
  std::vector<NodeId> pis;
  for (int i = 0; i < 24; ++i) pis.push_back(b.add_pi('x' + std::to_string(i)));
  NodeId acc = pis[0];
  for (std::size_t i = 1; i < pis.size(); ++i) {
    acc = b.add_or(b.add_and(acc, b.add_inv(pis[i])),
                   b.add_and(b.add_inv(acc), pis[i]));
  }
  b.add_output(acc, "z");
  const Network net = std::move(b).build();
  EXPECT_EQ(equivalent_exact_cex(net, net, /*node_limit=*/100), std::nullopt);
}

}  // namespace
}  // namespace soidom
