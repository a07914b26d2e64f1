#include <gtest/gtest.h>

#include "helpers.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/domino/exact.hpp"
#include "soidom/domino/export.hpp"
#include "soidom/domino/serialize.hpp"
#include "soidom/power/power.hpp"
#include "soidom/sizing/sizing.hpp"
#include "soidom/soisim/soisim.hpp"
#include "soidom/timing/timing.hpp"
#include "soidom/verilog/parser.hpp"

namespace soidom {
namespace {

/// A wide OR that cannot fit one pulldown: `width` parallel inputs with
/// Wmax=5, as a balanced tree (what the decomposer produces) so the DP
/// has an even cut to split at.
Network wide_or_network(int width) {
  NetworkBuilder b;
  std::vector<NodeId> layer;
  for (int i = 0; i < width; ++i) {
    layer.push_back(b.add_pi('x' + std::to_string(i)));
  }
  while (layer.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(b.add_or(layer[i], layer[i + 1]));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  b.add_output(layer.front(), "any");
  return std::move(b).build();
}

FlowOptions complex_opts() {
  FlowOptions opts;
  opts.mapper.enable_complex_gates = true;
  return opts;
}

TEST(ComplexGates, WideOrBecomesOneDualGate) {
  const Network net = wide_or_network(8);
  const FlowResult classic = run_flow(net, FlowOptions{});
  const FlowResult complex_flow = run_flow(net, complex_opts());
  ASSERT_TRUE(classic.ok());
  ASSERT_TRUE(complex_flow.ok()) << complex_flow.structure.to_string();

  // Classic mapping needs >= 2 gates (W=8 > Wmax=5); the complex flow can
  // do it in one dual gate with two 4-wide pulldowns.
  EXPECT_GE(classic.stats.num_gates, 2);
  bool found_dual = false;
  for (const DominoGate& g : complex_flow.netlist.gates()) {
    if (g.dual()) {
      found_dual = true;
      EXPECT_LE(g.pdn.width(), 5);
      EXPECT_LE(g.pdn2.width(), 5);
    }
  }
  EXPECT_TRUE(found_dual);
  EXPECT_LE(complex_flow.stats.num_gates, classic.stats.num_gates);
  EXPECT_LE(complex_flow.stats.levels, classic.stats.levels);
}

TEST(ComplexGates, NeverWorseOnTotalCost) {
  for (const char* name : {"cm150", "mux", "9symml", "i6", "c432"}) {
    const Network net = build_benchmark(name);
    const FlowResult classic = run_flow(net, FlowOptions{});
    const FlowResult complex_flow = run_flow(net, complex_opts());
    ASSERT_TRUE(complex_flow.ok()) << name;
    EXPECT_LE(complex_flow.stats.t_total, classic.stats.t_total) << name;
  }
}

TEST(ComplexGates, FunctionAndExactEquivalence) {
  for (const std::uint64_t seed : {5u, 9u, 21u}) {
    const Network net = testing::random_network(8, 80, 4, seed);
    const FlowResult r = run_flow(net, complex_opts());
    ASSERT_TRUE(r.ok()) << seed;
    EXPECT_EQ(equivalent_exact(r.netlist, net), std::optional<bool>(true))
        << seed;
  }
}

TEST(ComplexGates, DownstreamToolchainHandlesDualGates) {
  const Network net = wide_or_network(9);
  const FlowResult r = run_flow(net, complex_opts());
  ASSERT_TRUE(r.ok());

  // Stats arithmetic.
  EXPECT_EQ(r.stats.t_total, r.stats.t_logic + r.stats.t_disch);

  // Timing / power / sizing accept the netlist.
  const TimingReport timing = analyze_timing(r.netlist);
  EXPECT_GT(timing.critical_max, 0.0);
  const PowerReport power = estimate_power(r.netlist);
  EXPECT_GT(power.clock_energy, 0.0);
  const SizingResult sizing = size_netlist(r.netlist);
  EXPECT_LE(sizing.estimated_delay_after, sizing.estimated_delay_before);

  // Exporters.
  const std::string deck = export_spice(r.netlist, "wide_or");
  EXPECT_NE(deck.find("MPPREA"), std::string::npos);
  EXPECT_NE(deck.find("MPN1"), std::string::npos);  // static NAND
  const std::string verilog = export_verilog(r.netlist, "wide_or");
  const Network reparsed = parse_verilog(verilog);
  Rng rng(3);
  for (int round = 0; round < 4; ++round) {
    const auto words = random_pi_words(net.pis().size(), rng);
    // PI order matches: generators use x0..xN and export keeps first-seen
    // order of source PIs.
    EXPECT_EQ(simulate_outputs(net, words), simulate_outputs(reparsed, words));
  }

  // Serialization round trip.
  const DominoNetlist again = parse_dnl(write_dnl(r.netlist));
  ASSERT_EQ(again.gates().size(), r.netlist.gates().size());
  for (std::size_t g = 0; g < again.gates().size(); ++g) {
    EXPECT_EQ(again.gates()[g].dual(), r.netlist.gates()[g].dual());
  }
  for (int round = 0; round < 4; ++round) {
    const auto words = random_pi_words(net.pis().size(), rng);
    EXPECT_EQ(r.netlist.simulate(words), again.simulate(words));
  }
}

TEST(ComplexGates, DeviceSimulatorRunsDualGates) {
  const Network net = wide_or_network(8);
  const FlowResult r = run_flow(net, complex_opts());
  ASSERT_TRUE(r.ok());
  SoiSimulator sim(r.netlist);
  Rng rng(17);
  for (int cycle = 0; cycle < 100; ++cycle) {
    std::vector<bool> in;
    for (std::size_t k = 0; k < net.pis().size(); ++k) {
      in.push_back(rng.chance(1, 2));
    }
    EXPECT_TRUE(sim.step(in).correct()) << cycle;
  }
}

TEST(ComplexGates, SeqAwarePruningHandlesDualGates) {
  const Network net = wide_or_network(8);
  FlowOptions opts = complex_opts();
  opts.sequence_aware = true;
  const FlowResult r = run_flow(net, opts);
  EXPECT_TRUE(r.ok()) << r.structure.to_string();
}

TEST(ComplexGates, DisabledByDefault) {
  // The option must not change default behaviour (golden stats depend on
  // it): no dual gates appear unless requested.
  const FlowResult r = run_flow(build_benchmark("cm150"), FlowOptions{});
  for (const DominoGate& g : r.netlist.gates()) {
    EXPECT_FALSE(g.dual());
  }
}

}  // namespace
}  // namespace soidom
