#include <gtest/gtest.h>

#include "soidom/base/hash.hpp"
#include "soidom/base/rng.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/benchgen/generators.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/blif/blif.hpp"
#include "soidom/decomp/decompose.hpp"
#include "soidom/sim/sim.hpp"

namespace soidom {
namespace {

/// Exhaustive (or random for wide inputs) cross-check of a decomposed
/// network against the BLIF reference evaluator.
void expect_matches_model(const BlifModel& model, const Network& net,
                          int random_rounds = 64) {
  const std::size_t n = model.inputs.size();
  Rng rng(0xDECDEC);
  const int exhaustive = n <= 10 ? (1 << n) : 0;
  const int rounds = exhaustive ? exhaustive : random_rounds;
  for (int r = 0; r < rounds; ++r) {
    std::vector<bool> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = exhaustive ? ((r >> i) & 1) != 0 : rng.chance(1, 2);
    }
    EXPECT_EQ(evaluate(model, in), evaluate(net, in));
  }
}

/// The message decompose throws on `model`, or "" if it succeeds.
std::string decompose_error(const BlifModel& model) {
  try {
    decompose(model);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// A hand-built table `output = AND(inputs)`.
BlifTable and_table(std::vector<std::string> inputs, std::string output) {
  BlifTable t;
  t.cover = SopCover::and_n(inputs.size());
  t.inputs = std::move(inputs);
  t.output = std::move(output);
  return t;
}

TEST(Decompose, TwoInputNodesOnly) {
  const BlifModel m = parse_blif(
      ".model wide\n.inputs a b c d e\n.outputs z\n"
      ".names a b c d e z\n11111 1\n00000 1\n.end\n");
  const Network net = decompose(m);
  for (std::uint32_t i = 2; i < net.size(); ++i) {
    const Node& n = net.node(NodeId{i});
    EXPECT_NE(n.kind, NodeKind::kBuf);
    if (n.kind == NodeKind::kAnd || n.kind == NodeKind::kOr) {
      EXPECT_TRUE(n.fanin0.valid());
      EXPECT_TRUE(n.fanin1.valid());
    }
  }
  expect_matches_model(m, net);
}

TEST(Decompose, OutOfOrderTables) {
  // z's table appears before its fanin's table.
  const BlifModel m = parse_blif(
      ".model ooo\n.inputs a b\n.outputs z\n"
      ".names t z\n0 1\n"
      ".names a b t\n11 1\n.end\n");
  expect_matches_model(m, decompose(m));
}

TEST(Decompose, OffSetCover) {
  const BlifModel m = parse_blif(
      ".model off\n.inputs a b c\n.outputs z\n"
      ".names a b c z\n11- 0\n--1 0\n.end\n");
  expect_matches_model(m, decompose(m));
}

TEST(Decompose, ConstantOutputs) {
  const BlifModel m = parse_blif(
      ".model k\n.inputs a\n.outputs one zero pass\n"
      ".names one\n1\n.names zero\n"
      ".names a pass\n1 1\n.end\n");
  const Network net = decompose(m);
  expect_matches_model(m, net);
  EXPECT_EQ(net.outputs()[0].driver, kConst1Id);
  EXPECT_EQ(net.outputs()[1].driver, kConst0Id);
}

TEST(Decompose, DontCareLiterals) {
  const BlifModel m = parse_blif(
      ".model dc\n.inputs a b c d\n.outputs z\n"
      ".names a b c d z\n1--0 1\n-11- 1\n0--- 1\n.end\n");
  expect_matches_model(m, decompose(m));
}

TEST(Decompose, ChainShapeDeepens) {
  const BlifModel m = parse_blif(
      ".model w\n.inputs a b c d e f g h\n.outputs z\n"
      ".names a b c d e f g h z\n11111111 1\n.end\n");
  DecomposeOptions balanced;
  DecomposeOptions chain;
  chain.shape = TreeShape::kChain;
  const Network nb = decompose(m, balanced);
  const Network nc = decompose(m, chain);
  EXPECT_EQ(nb.stats().depth, 3);   // ceil(log2(8))
  EXPECT_EQ(nc.stats().depth, 7);   // linear chain
  expect_matches_model(m, nb);
  expect_matches_model(m, nc);
}

TEST(Decompose, CycleDetection) {
  const BlifModel m = parse_blif(
      ".model cyc\n.inputs a\n.outputs z\n"
      ".names z2 z\n1 1\n"
      ".names z z2\n1 1\n.end\n");
  EXPECT_EQ(decompose_error(m), "combinational cycle through 'z'");
}

TEST(Decompose, UndefinedSignalMessage) {
  // parse_blif rejects these; only a hand-built model reaches decompose.
  BlifModel m;
  m.name = "undef";
  m.inputs = {"a"};
  m.outputs = {"z"};
  EXPECT_EQ(decompose_error(m), "undefined signal 'z'");
  m.tables.push_back(and_table({"a", "ghost"}, "z"));
  EXPECT_EQ(decompose_error(m), "undefined signal 'ghost'");
}

TEST(Decompose, PrimaryInputWinsOverTableRedefiningIt) {
  // The table "b -> a" is never used: 'a' is bound to the input.
  const BlifModel m = parse_blif(
      ".model m\n.inputs a b\n.outputs z\n"
      ".names b a\n1 1\n.names a z\n1 1\n.end\n");
  EXPECT_EQ(decompose(m).dump(),
            "0: CONST0\n1: CONST1\n2: PI \"a\"\n3: PI \"b\"\n"
            "PO \"z\" <- 2\n");
}

TEST(Decompose, FirstTableWinsOnDuplicateOutput) {
  // parse_blif rejects a second definition; a hand-built model can hold
  // one, and the first table defining the name is the one decomposed.
  BlifModel m;
  m.name = "dup";
  m.inputs = {"a", "b", "c"};
  m.outputs = {"z"};
  m.tables.push_back(and_table({"a", "b"}, "z"));
  m.tables.push_back(and_table({"b", "c"}, "z"));
  EXPECT_EQ(decompose(m).dump(),
            "0: CONST0\n1: CONST1\n2: PI \"a\"\n3: PI \"b\"\n"
            "4: PI \"c\"\n5: AND 2 3\nPO \"z\" <- 5\n");
}

TEST(Decompose, SharedSubexpressionHashing) {
  // Both outputs contain a&b: structural hashing should share the node.
  const BlifModel m = parse_blif(
      ".model sh\n.inputs a b c\n.outputs y z\n"
      ".names a b c y\n111 1\n"
      ".names a b z\n11 1\n.end\n");
  const Network net = decompose(m);
  EXPECT_EQ(net.stats().num_ands, 2u);  // (a&b), (a&b)&c
  expect_matches_model(m, net);
}

TEST(Decompose, XorRequiresInverters) {
  const BlifModel m = parse_blif(
      ".model x\n.inputs a b\n.outputs z\n"
      ".names a b z\n10 1\n01 1\n.end\n");
  const Network net = decompose(m);
  EXPECT_GT(net.stats().num_invs, 0u);
  expect_matches_model(m, net);
}

TEST(DecomposeCover, FaninMismatchThrows) {
  NetworkBuilder b;
  const NodeId x = b.add_pi("x");
  EXPECT_THROW(decompose_cover(b, SopCover::and_n(2), {x}), Error);
}

// ---------------------------------------------------------------------------
// Byte identity of the BLIF front end.

TEST(FrontEndGolden, NetworkDumpBytes) {
  // FNV-1a 64 of Network::dump() after decompose(parse_blif(write_blif)),
  // default DecomposeOptions: the 27 Table-3 circuits, then perfbench's
  // scale_map circuits at their default seeds.  Recorded with the linear
  // table_defining scans in parse_blif and decompose.
  struct Golden {
    const char* circuit;
    std::uint64_t dump;
  };
  static constexpr Golden kGolden[] = {
      {"cm150", 0x16e2e57574c2ab72ull},
      {"mux", 0xd1a17f87cb83e21aull},
      {"z4ml", 0xcdeb8a117c3973a9ull},
      {"cordic", 0xa7d93ff7586470fcull},
      {"frg1", 0x5cc3a7bf2b31843bull},
      {"count", 0xae05167d70c42489ull},
      {"b9", 0x7db6da309980e02full},
      {"c8", 0x286dca573aec6483ull},
      {"f51m", 0x509cba7e77533a95ull},
      {"9symml", 0x18cb3a318b128eaeull},
      {"apex7", 0x0c4a7c3dae5d0b2cull},
      {"x1", 0x03734a9946d23184ull},
      {"c432", 0x298bd5a35ee0c6a1ull},
      {"i6", 0x5d36896495916bbdull},
      {"c1908", 0x48bc98bcd5a7c725ull},
      {"t481", 0x8248bba366b253d3ull},
      {"c499", 0x4a051c023e0bf90dull},
      {"c1355", 0x4a051c023e0bf90dull},
      {"dalu", 0xf517e73aac4de9baull},
      {"k2", 0xc338ca107f26c60cull},
      {"apex6", 0x53fecdb380be2568ull},
      {"rot", 0x2ae2565c2e549007ull},
      {"c2670", 0xce09e6bf753f25b1ull},
      {"c5315", 0xeb3c4c6edfb2d7ffull},
      {"c3540", 0x7cf5d30b119de53full},
      {"des", 0x28243c4c1ca7b661ull},
      {"c7552", 0x91d9ad226d48e238ull},
      {"mult16", 0x86a40aa90bd18c4bull},
      {"spn96x6", 0x22dde9593bf3da51ull},
      {"dag256x24", 0xecc38099862ce07eull},
  };
  std::vector<std::pair<std::string, Network>> inputs;
  for (const std::string& name : table3_circuits()) {
    inputs.emplace_back(name, build_benchmark(name));
  }
  inputs.emplace_back("mult16", gen_multiplier(16));
  inputs.emplace_back("spn96x6", gen_spn(96, 6, 0x5CA1E));
  inputs.emplace_back("dag256x24", gen_layered_dag(256, 24, 90, 0x31DE));
  ASSERT_EQ(inputs.size(), std::size(kGolden));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& [name, net] = inputs[i];
    const Network front = decompose(parse_blif(write_blif(net, name)));
    EXPECT_EQ(name, kGolden[i].circuit);
    EXPECT_EQ(format("%016llx", static_cast<unsigned long long>(
                                    fnv1a64(front.dump()))),
              format("%016llx",
                     static_cast<unsigned long long>(kGolden[i].dump)))
        << name;
  }
}

}  // namespace
}  // namespace soidom
