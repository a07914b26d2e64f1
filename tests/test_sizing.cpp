#include <gtest/gtest.h>

#include "helpers.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/sizing/sizing.hpp"

namespace soidom {
namespace {

DominoNetlist mapped(const Network& source) {
  FlowResult r = run_flow(source, FlowOptions{});
  EXPECT_TRUE(r.ok());
  return std::move(r.netlist);
}

TEST(Sizing, StackCompensationWidensTallStacks) {
  // One gate: series of 4 vs a flat parallel of 2 in another gate.
  DominoNetlist nl;
  std::uint32_t in[4];
  for (int i = 0; i < 4; ++i) {
    in[i] = nl.add_input({'x' + std::to_string(i), i, false});
  }
  DominoGate tall;
  tall.pdn.set_root(tall.pdn.add_series(
      {tall.pdn.add_leaf(in[0]), tall.pdn.add_leaf(in[1]),
       tall.pdn.add_leaf(in[2]), tall.pdn.add_leaf(in[3])}));
  tall.footed = true;
  nl.add_gate(std::move(tall));
  DominoGate flat;
  flat.pdn.set_root(
      flat.pdn.add_parallel({flat.pdn.add_leaf(in[0]), flat.pdn.add_leaf(in[1])}));
  flat.footed = true;
  nl.add_gate(std::move(flat));
  nl.add_output({nl.signal_of_gate(0), "a", false, -1});
  nl.add_output({nl.signal_of_gate(1), "b", false, -1});

  SizingOptions no_boost;
  no_boost.critical_boost = 1.0;  // isolate the stack-compensation rule
  const SizingResult s = size_netlist(nl, no_boost);
  for (const double w : s.gates[0].pulldown_widths) {
    EXPECT_DOUBLE_EQ(w, 4.0);  // every device sits on a 4-high path
  }
  for (const double w : s.gates[1].pulldown_widths) {
    EXPECT_DOUBLE_EQ(w, 1.0);  // flat parallel: path length 1
  }
}

TEST(Sizing, MixedStackDepths) {
  // series(x, parallel(series(y,z), w)): x/y/z sit on a 3-high path,
  // w on a 2-high path.
  DominoNetlist nl;
  std::uint32_t in[4];
  for (int i = 0; i < 4; ++i) {
    in[i] = nl.add_input({'x' + std::to_string(i), i, false});
  }
  DominoGate g;
  const PdnIndex yz =
      g.pdn.add_series({g.pdn.add_leaf(in[1]), g.pdn.add_leaf(in[2])});
  const PdnIndex par = g.pdn.add_parallel({yz, g.pdn.add_leaf(in[3])});
  g.pdn.set_root(g.pdn.add_series({g.pdn.add_leaf(in[0]), par}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "f", false, -1});

  SizingOptions no_boost;
  no_boost.critical_boost = 1.0;
  const SizingResult s = size_netlist(nl, no_boost);
  const auto& w = s.gates[0].pulldown_widths;  // order: x, y, z, w
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 3.0);
  EXPECT_DOUBLE_EQ(w[1], 3.0);
  EXPECT_DOUBLE_EQ(w[2], 3.0);
  EXPECT_DOUBLE_EQ(w[3], 2.0);
}

TEST(Sizing, WidthsRespectBounds) {
  const DominoNetlist nl = mapped(build_benchmark("cordic"));
  SizingOptions opts;
  opts.min_width = 0.8;
  opts.max_width = 3.0;
  const SizingResult s = size_netlist(nl, opts);
  for (const GateSizing& gs : s.gates) {
    for (const double w : gs.pulldown_widths) {
      EXPECT_GE(w, opts.min_width);
      EXPECT_LE(w, opts.max_width);
    }
    EXPECT_GE(gs.inverter_width, opts.min_width);
    EXPECT_LE(gs.inverter_width, opts.max_width);
  }
}

TEST(Sizing, ImprovesEstimatedDelay) {
  for (const char* name : {"cm150", "z4ml", "cordic", "c880", "t481"}) {
    const DominoNetlist nl = mapped(build_benchmark(name));
    const SizingResult s = size_netlist(nl);
    EXPECT_LT(s.estimated_delay_after, s.estimated_delay_before) << name;
    EXPECT_GT(s.speedup(), 1.0) << name;
    EXPECT_GT(s.total_width_after, s.total_width_before) << name;
  }
}

TEST(Sizing, CriticalPathMarked) {
  const DominoNetlist nl = mapped(build_benchmark("cm150"));
  const SizingResult s = size_netlist(nl);
  int critical = 0;
  for (const GateSizing& gs : s.gates) {
    if (gs.on_critical_path) ++critical;
  }
  EXPECT_GT(critical, 0);
  EXPECT_LT(critical, static_cast<int>(s.gates.size()));
}

TEST(Sizing, Deterministic) {
  const DominoNetlist nl = mapped(build_benchmark("frg1"));
  const SizingResult a = size_netlist(nl);
  const SizingResult b = size_netlist(nl);
  ASSERT_EQ(a.gates.size(), b.gates.size());
  for (std::size_t g = 0; g < a.gates.size(); ++g) {
    EXPECT_EQ(a.gates[g].pulldown_widths, b.gates[g].pulldown_widths);
    EXPECT_DOUBLE_EQ(a.gates[g].inverter_width, b.gates[g].inverter_width);
  }
}

TEST(Sizing, EstimateRequiresMatchingShape) {
  const DominoNetlist nl = mapped(testing::fig3_network());
  std::vector<GateSizing> wrong;  // empty
  EXPECT_THROW(estimate_delay(nl, wrong), Error);
}

}  // namespace
}  // namespace soidom
