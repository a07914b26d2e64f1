#include <gtest/gtest.h>

#include "helpers.hpp"
#include "soidom/network/builder.hpp"
#include "soidom/network/transform.hpp"

namespace soidom {
namespace {

TEST(Builder, ConstantsPreallocated) {
  const Network net = std::move(NetworkBuilder()).build();
  EXPECT_EQ(net.size(), 2u);
  EXPECT_EQ(net.kind(kConst0Id), NodeKind::kConst0);
  EXPECT_EQ(net.kind(kConst1Id), NodeKind::kConst1);
}

TEST(Builder, StructuralHashingMergesDuplicates) {
  NetworkBuilder b;
  const NodeId x = b.add_pi("x");
  const NodeId y = b.add_pi("y");
  EXPECT_EQ(b.add_and(x, y), b.add_and(x, y));
  EXPECT_EQ(b.add_and(x, y), b.add_and(y, x));  // commutative canonicalization
  EXPECT_EQ(b.add_or(x, y), b.add_or(y, x));
  EXPECT_NE(b.add_and(x, y), b.add_or(x, y));
}

TEST(Builder, ConstantSimplifications) {
  NetworkBuilder b;
  const NodeId x = b.add_pi("x");
  EXPECT_EQ(b.add_and(x, b.const0()), b.const0());
  EXPECT_EQ(b.add_and(x, b.const1()), x);
  EXPECT_EQ(b.add_or(x, b.const1()), b.const1());
  EXPECT_EQ(b.add_or(x, b.const0()), x);
  EXPECT_EQ(b.add_and(x, x), x);
  EXPECT_EQ(b.add_or(x, x), x);
  EXPECT_EQ(b.add_inv(b.add_inv(x)), x);
  EXPECT_EQ(b.add_inv(b.const0()), b.const1());
}

TEST(Builder, NoHashingKeepsDuplicates) {
  NetworkBuilder b(/*structural_hashing=*/false);
  const NodeId x = b.add_pi("x");
  const NodeId y = b.add_pi("y");
  EXPECT_NE(b.add_and(x, y), b.add_and(x, y));
}

TEST(Network, TopologicalInvariant) {
  const Network net = testing::random_network(8, 100, 4, 123);
  for (std::uint32_t i = 2; i < net.size(); ++i) {
    const Node& n = net.node(NodeId{i});
    if (n.fanin_count() >= 1) {
      EXPECT_LT(n.fanin0.value, i);
    }
    if (n.fanin_count() >= 2) {
      EXPECT_LT(n.fanin1.value, i);
    }
  }
}

TEST(Network, PiNamesAndIndex) {
  NetworkBuilder b;
  const NodeId x = b.add_pi("alpha");
  const NodeId y = b.add_pi("beta");
  b.add_output(b.add_and(x, y), "z");
  const NodeId w = b.add_pi("gamma");  // a PI after a gate
  const Network net = std::move(b).build();
  EXPECT_EQ(net.pi_name(x), "alpha");
  EXPECT_EQ(net.pi_name(y), "beta");
  EXPECT_EQ(net.pi_index(x), 0);
  EXPECT_EQ(net.pi_index(y), 1);
  EXPECT_EQ(net.pi_index(w), 2);
  EXPECT_EQ(net.pi_index(kConst0Id), -1);
  EXPECT_EQ(net.pi_names(),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  // dump() and clone() read the names by position.
  EXPECT_EQ(net.dump(),
            "0: CONST0\n1: CONST1\n2: PI \"alpha\"\n3: PI \"beta\"\n"
            "4: AND 2 3\n5: PI \"gamma\"\nPO \"z\" <- 4\n");
  EXPECT_EQ(clone(net).dump(), net.dump());
}

TEST(Network, FanoutCounts) {
  NetworkBuilder b;
  const NodeId x = b.add_pi("x");
  const NodeId y = b.add_pi("y");
  const NodeId g = b.add_and(x, y);
  b.add_output(b.add_or(g, x), "z1");
  b.add_output(g, "z2");
  const Network net = std::move(b).build();
  const auto counts = net.fanout_counts();
  EXPECT_EQ(counts[g.value], 2u);   // used by OR and PO z2
  EXPECT_EQ(counts[x.value], 2u);   // AND and OR
  EXPECT_EQ(counts[y.value], 1u);
}

TEST(Network, LevelsIgnoreInverters) {
  NetworkBuilder b;
  const NodeId x = b.add_pi("x");
  const NodeId y = b.add_pi("y");
  const NodeId g = b.add_and(b.add_inv(x), y);
  const NodeId h = b.add_or(g, b.add_inv(g));
  b.add_output(h, "z");
  const Network net = std::move(b).build();
  const auto lv = net.levels();
  EXPECT_EQ(lv[g.value], 1);
  EXPECT_EQ(lv[h.value], 2);
  EXPECT_EQ(net.stats().depth, 2);
}

TEST(Network, StatsCounts) {
  const Network net = testing::full_adder_network();
  const NetworkStats s = net.stats();
  EXPECT_EQ(s.num_pis, 3u);
  EXPECT_EQ(s.num_pos, 2u);
  EXPECT_GT(s.num_gates(), 0u);
  EXPECT_GT(s.num_invs, 0u);
  EXPECT_FALSE(net.is_unate());
}

TEST(Transform, RemoveDeadNodes) {
  NetworkBuilder b;
  const NodeId x = b.add_pi("x");
  const NodeId y = b.add_pi("y");
  b.add_and(x, y);                    // dead
  b.add_output(b.add_or(x, y), "z");  // live
  const Network net = std::move(b).build();
  const Network cleaned = remove_dead_nodes(net);
  EXPECT_LT(cleaned.size(), net.size());
  EXPECT_EQ(cleaned.stats().num_gates(), 1u);
  EXPECT_EQ(cleaned.pis().size(), 2u);  // PIs always retained
}

TEST(Transform, RemoveDeadSweepsBuffers) {
  NetworkBuilder b(false);
  const NodeId x = b.add_pi("x");
  const NodeId buf = b.add_buf(x);
  b.add_output(buf, "z");
  const Network cleaned = remove_dead_nodes(std::move(b).build());
  EXPECT_EQ(cleaned.stats().num_bufs, 0u);
  EXPECT_EQ(cleaned.outputs()[0].driver, cleaned.pis()[0]);
}

TEST(Transform, ClonePreservesStructure) {
  const Network net = testing::random_network(6, 50, 3, 7);
  const Network copy = clone(net);
  EXPECT_EQ(copy.size(), net.size());
  EXPECT_EQ(copy.stats().num_gates(), net.stats().num_gates());
  EXPECT_EQ(copy.outputs().size(), net.outputs().size());
}

TEST(Network, DumpMentionsOutputs) {
  const Network net = testing::fig2_network();
  const std::string d = net.dump();
  EXPECT_NE(d.find("PO \"f\""), std::string::npos);
  EXPECT_NE(d.find("AND"), std::string::npos);
}

}  // namespace
}  // namespace soidom
