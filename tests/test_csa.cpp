/// \file test_csa.cpp
/// Static charge-sharing / PBE-safety analyzer (src/csa): model
/// construction, per-pulldown bounds, rule findings, flow integration,
/// pinned report bytes — and the conservativeness oracle that pins
/// the static droop bound above everything soisim's transient droop
/// observation ever reports on the same gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/base/rng.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/csa/csa.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/guard/guard.hpp"
#include "soidom/pdn/analyze.hpp"
#include "soidom/soisim/soisim.hpp"

namespace soidom {
namespace {

/// The paper's Fig. 2 gate (A+B+C)*D, parallel stack on top: the PBE
/// showcase (an unprotected junction under the stack).
DominoNetlist fig2_gate(bool with_discharge) {
  DominoNetlist nl;
  const std::uint32_t a = nl.add_input({"A", 0, false});
  const std::uint32_t b = nl.add_input({"B", 1, false});
  const std::uint32_t c = nl.add_input({"C", 2, false});
  const std::uint32_t d = nl.add_input({"D", 3, false});
  DominoGate g;
  const PdnIndex par = g.pdn.add_parallel(
      {g.pdn.add_leaf(a), g.pdn.add_leaf(b), g.pdn.add_leaf(c)});
  g.pdn.set_root(g.pdn.add_series({par, g.pdn.add_leaf(d)}));
  g.footed = true;
  nl.add_gate(std::move(g));
  nl.add_output({nl.signal_of_gate(0), "f", false, -1});
  if (with_discharge) insert_discharges(nl, GroundingPolicy::kNoneGrounded);
  return nl;
}

/// DroopProbes with exactly the capacitance vectors run_csa analyzes, so
/// the simulator's observation and the static bound share one electrical
/// model (the point of the oracle).
std::vector<DroopProbe> make_probes(const DominoNetlist& nl,
                                    const CsaOptions& opts) {
  SizingResult sizing;
  if (opts.use_sizing) sizing = size_netlist(nl, opts.sizing);
  std::vector<DroopProbe> probes(nl.gates().size());
  for (std::size_t g = 0; g < nl.gates().size(); ++g) {
    const DominoGate& spec = nl.gates()[g];
    DroopProbe& probe = probes[g];
    probe.vdd = opts.charge.vdd;
    probe.q_pbe = opts.charge.q_pbe;
    const auto caps_of = [&](const Pdn& pdn,
                             const std::vector<DischargePoint>& discharges,
                             bool footed, std::size_t width_offset) {
      const CsaPdnModel model = build_csa_model(pdn, discharges, footed);
      std::vector<double> w(model.devices.size(), 1.0);
      if (opts.use_sizing) {
        const std::vector<double>& widths = sizing.gates[g].pulldown_widths;
        std::copy_n(widths.begin() + static_cast<std::ptrdiff_t>(width_offset),
                    w.size(), w.begin());
      }
      return csa_node_caps(model, w, opts.charge);
    };
    probe.caps = caps_of(spec.pdn, spec.discharges, spec.footed, 0);
    if (spec.dual()) {
      probe.caps2 = caps_of(spec.pdn2, spec.discharges2, spec.footed2,
                            spec.pdn.leaf_signals().size());
    }
  }
  return probes;
}

/// Drive `cycles` random input vectors through soisim with droop
/// observation on and assert the static bound dominates the observed
/// per-gate maximum.  Zero underestimates, ever.
void expect_conservative(const DominoNetlist& nl, std::size_t num_pis,
                         const CsaOptions& opts, std::uint64_t seed,
                         int cycles) {
  const CsaResult csa = run_csa(nl, opts);
  ASSERT_EQ(csa.report.gates.size(), nl.gates().size());

  SoiSimConfig config;
  config.keeper_strength = opts.keeper_strength;
  SoiSimulator sim(nl, config);
  sim.enable_droop(make_probes(nl, opts));
  Rng rng(seed);
  for (int c = 0; c < cycles; ++c) {
    std::vector<bool> in;
    for (std::size_t k = 0; k < num_pis; ++k) in.push_back(rng.chance(1, 2));
    sim.step(in);
  }
  for (std::size_t g = 0; g < nl.gates().size(); ++g) {
    EXPECT_LE(sim.max_droop(static_cast<std::uint32_t>(g)),
              csa.report.gates[g].droop() + 1e-9)
        << "gate " << g << " seed " << seed << " underestimated";
  }
}

// ---------------------------------------------------------------------------
// Model construction.

TEST(CsaModel, Fig2NodeNumberingAndDevices) {
  const DominoNetlist nl = fig2_gate(false);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  // dyn + bottom + one junction under the parallel stack.
  EXPECT_EQ(model.num_nodes, 3);
  ASSERT_EQ(model.devices.size(), 4u);
  for (int t = 0; t < 3; ++t) {  // A, B, C: dynamic node -> junction
    EXPECT_EQ(model.devices[t].above, kCsaDynamicNode);
    EXPECT_EQ(model.devices[t].below, 2);
  }
  EXPECT_EQ(model.devices[3].above, 2);  // D: junction -> bottom
  EXPECT_EQ(model.devices[3].below, kCsaBottomNode);
  EXPECT_TRUE(model.discharged.empty());
  EXPECT_TRUE(model.footed);
}

TEST(CsaModel, DischargePointsResolveToJunctions) {
  const DominoNetlist nl = fig2_gate(true);
  const DominoGate& g = nl.gates()[0];
  ASSERT_FALSE(g.discharges.empty());
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  ASSERT_EQ(model.discharged.size(), g.discharges.size());
  EXPECT_EQ(model.discharged[0], 2);
}

TEST(CsaModel, NodeCapsSumFixedAndDiffusion) {
  const DominoNetlist nl = fig2_gate(false);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  const ChargeModel charge;  // defaults: 4.0 / 0.2 / 0.5
  const std::vector<double> caps =
      csa_node_caps(model, {1.0, 1.0, 1.0, 2.0}, charge);
  ASSERT_EQ(caps.size(), 3u);
  EXPECT_DOUBLE_EQ(caps[0], 4.0 + 0.5 * 3.0);        // A, B, C drains
  EXPECT_DOUBLE_EQ(caps[1], 0.2 + 0.5 * 2.0);        // D source
  EXPECT_DOUBLE_EQ(caps[2], 0.2 + 0.5 * 3.0 + 1.0);  // stack sources + D drain
}

// ---------------------------------------------------------------------------
// Per-pulldown bounds.

TEST(CsaBound, UnprotectedFig2OverpowersMinimumKeeper) {
  const DominoNetlist nl = fig2_gate(false);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  CsaOptions opts;
  const std::vector<double> caps = csa_node_caps(
      model, std::vector<double>(model.devices.size(), 1.0), opts.charge);
  const CsaPulldownBound bound = bound_pulldown(model, caps, opts);
  EXPECT_TRUE(bound.ground_reachable);
  EXPECT_TRUE(bound.keeper_overpowered);
  EXPECT_GE(bound.droop, opts.charge.vdd);
  EXPECT_FALSE(bound.truncated);
  EXPECT_EQ(bound.states, 1L << 5);  // 4 signals + 1 free junction
  EXPECT_NE(bound.worst_state.find("in="), std::string::npos);
  EXPECT_NE(bound.worst_state.find("pre="), std::string::npos);
}

TEST(CsaBound, DischargeProtectionRemovesTheFlip) {
  const DominoNetlist nl = fig2_gate(true);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  CsaOptions opts;
  const std::vector<double> caps = csa_node_caps(
      model, std::vector<double>(model.devices.size(), 1.0), opts.charge);
  const CsaPulldownBound bound = bound_pulldown(model, caps, opts);
  EXPECT_FALSE(bound.keeper_overpowered);
  // The junction is precharged low, so pure charge sharing remains:
  // redistribution onto caps[2], strictly below the supply.
  EXPECT_GT(bound.droop, 0.0);
  EXPECT_LT(bound.droop, opts.charge.vdd);
  EXPECT_DOUBLE_EQ(bound.share_cap, caps[2]);
  EXPECT_EQ(bound.firings, 0);
  EXPECT_EQ(bound.states, 1L << 4);  // the protected junction is not free
}

TEST(CsaBound, KeeperStrengthAboveStackWidthHoldsTheNode) {
  const DominoNetlist nl = fig2_gate(false);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  CsaOptions opts;
  const std::vector<double> caps = csa_node_caps(
      model, std::vector<double>(model.devices.size(), 1.0), opts.charge);
  opts.keeper_strength = 3;  // the stack can fire at most 3 candidates
  EXPECT_TRUE(bound_pulldown(model, caps, opts).keeper_overpowered);
  opts.keeper_strength = 4;
  const CsaPulldownBound held = bound_pulldown(model, caps, opts);
  EXPECT_FALSE(held.keeper_overpowered);
  EXPECT_LT(held.droop, opts.charge.vdd);
}

TEST(CsaBound, TruncationFallbackIsFlaggedAndCoarse) {
  const DominoNetlist nl = fig2_gate(false);
  const DominoGate& g = nl.gates()[0];
  const CsaPdnModel model = build_csa_model(g.pdn, g.discharges, g.footed);
  CsaOptions opts;
  opts.max_states = 1;
  const std::vector<double> caps = csa_node_caps(
      model, std::vector<double>(model.devices.size(), 1.0), opts.charge);
  const CsaPulldownBound bound = bound_pulldown(model, caps, opts);
  EXPECT_TRUE(bound.truncated);
  EXPECT_EQ(bound.states, 0);
  EXPECT_EQ(bound.worst_state, "truncated");
  EXPECT_TRUE(bound.keeper_overpowered);
  EXPECT_DOUBLE_EQ(bound.share_cap, caps[2]);  // every junction shares
  EXPECT_EQ(bound.firings, 3);                 // A, B, C are eligible
  // The fallback dominates the exact enumeration.
  opts.max_states = 4096;
  EXPECT_GE(bound.droop, bound_pulldown(model, caps, opts).droop);
}

// ---------------------------------------------------------------------------
// The word-parallel enumeration against a one-state-at-a-time reference.

/// The enumeration as it was written before states were evaluated 64 at a
/// time: one state per iteration, two csa_flood calls per state.  Kept
/// only as the test oracle for bound_pulldown; the truncation fallback is
/// not reproduced (callers stay within max_states).
CsaPulldownBound reference_bound(const CsaPdnModel& model,
                                 const std::vector<double>& caps,
                                 const CsaOptions& options,
                                 const CsaStateCallbacks& callbacks) {
  const double vdd = options.charge.vdd;
  const double q_pbe = options.charge.q_pbe;
  const double c_dyn = caps[kCsaDynamicNode];
  const auto num_nodes = static_cast<std::size_t>(model.num_nodes);
  std::vector<bool> discharged(num_nodes, false);
  for (const std::uint16_t n : model.discharged) discharged[n] = true;
  const std::vector<std::uint32_t> signals = csa_state_signals(model);
  std::vector<std::size_t> signal_bit(model.devices.size());
  for (std::size_t t = 0; t < model.devices.size(); ++t) {
    signal_bit[t] = static_cast<std::size_t>(
        std::lower_bound(signals.begin(), signals.end(),
                         model.devices[t].signal) -
        signals.begin());
  }
  const std::vector<std::uint16_t> free_nodes = csa_free_nodes(model);
  const std::size_t bits = signals.size() + free_nodes.size();
  const auto witness = [&](long state) {
    if (bits == 0) return std::string("trivial");
    std::string out;
    if (!signals.empty()) {
      out += "in=";
      for (std::size_t i = 0; i < signals.size(); ++i) {
        out += static_cast<char>('0' + ((state >> i) & 1));
      }
    }
    if (!free_nodes.empty()) {
      if (!out.empty()) out += ' ';
      out += "pre=";
      for (std::size_t i = 0; i < free_nodes.size(); ++i) {
        out += static_cast<char>('0' + ((state >> (signals.size() + i)) & 1));
      }
    }
    return out;
  };

  CsaPulldownBound bound;
  const long num_states = 1L << bits;
  bound.states = num_states;
  std::vector<bool> on(model.devices.size());
  std::vector<bool> cand(model.devices.size());
  std::vector<bool> edge(model.devices.size());
  std::vector<bool> pstate(num_nodes);
  std::vector<bool> member(num_nodes);
  std::vector<std::uint16_t> stack;
  std::vector<signed char> admit_cache;
  if (callbacks.admit) admit_cache.assign(1uL << signals.size(), -1);
  std::vector<bool> in_vec(signals.size());
  std::vector<bool> pre_vec(free_nodes.size());
  for (long s = 0; s < num_states; ++s) {
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      on[t] = ((s >> signal_bit[t]) & 1) != 0;
    }
    if (callbacks.admit) {
      const auto in_key =
          static_cast<std::size_t>(s) & ((1uL << signals.size()) - 1);
      if (admit_cache[in_key] < 0) {
        for (std::size_t i = 0; i < signals.size(); ++i) {
          in_vec[i] = ((s >> i) & 1) != 0;
        }
        admit_cache[in_key] = callbacks.admit(in_vec) ? 1 : 0;
      }
      if (admit_cache[in_key] == 0) continue;
    }
    if (csa_flood(model, on, /*clamp_bottom=*/false, member, stack)) continue;
    pstate.assign(num_nodes, false);
    pstate[kCsaDynamicNode] = true;
    for (std::size_t i = 0; i < free_nodes.size(); ++i) {
      pstate[free_nodes[i]] = ((s >> (signals.size() + i)) & 1) != 0;
    }
    int num_cand = 0;
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      const CsaDevice& d = model.devices[t];
      cand[t] = !on[t] && d.below >= 2 && !discharged[d.below] &&
                pstate[d.below];
      if (cand[t]) ++num_cand;
      edge[t] = on[t] || cand[t];
    }
    const bool reached =
        csa_flood(model, edge, /*clamp_bottom=*/true, member, stack);
    double share = 0.0;
    for (std::size_t v = 2; v < num_nodes; ++v) {
      if (member[v] && !pstate[v]) share += caps[v];
    }
    int firings = 0;
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      if (cand[t] && (member[model.devices[t].above] ||
                      member[model.devices[t].below])) {
        ++firings;
      }
    }
    const bool flip = reached && num_cand >= options.keeper_strength;
    double droop = vdd * share / (c_dyn + share) + q_pbe * firings / c_dyn;
    if (flip) droop = std::max(droop, vdd);
    if (callbacks.visit) {
      for (std::size_t i = 0; i < signals.size(); ++i) {
        in_vec[i] = ((s >> i) & 1) != 0;
      }
      for (std::size_t i = 0; i < free_nodes.size(); ++i) {
        pre_vec[i] = ((s >> (signals.size() + i)) & 1) != 0;
      }
      callbacks.visit(in_vec, pre_vec, droop, share, firings, flip);
    }
    bound.ground_reachable = bound.ground_reachable || reached;
    bound.keeper_overpowered = bound.keeper_overpowered || flip;
    if (droop > bound.droop) {
      bound.droop = droop;
      bound.share_cap = share;
      bound.firings = firings;
      bound.worst_state = witness(s);
    }
  }
  if (bound.worst_state.empty()) bound.worst_state = "none";
  return bound;
}

/// Random series/parallel tree over `leaves` devices drawn from
/// `num_signals` signals (repeats allowed, so distinct signals vary).
PdnIndex random_pdn_subtree(Pdn& pdn, Rng& rng, int leaves, int num_signals) {
  if (leaves == 1) {
    return pdn.add_leaf(static_cast<std::uint32_t>(
        rng.next_below(static_cast<std::uint64_t>(num_signals))));
  }
  const int parts = static_cast<int>(rng.next_in(2, std::min(3, leaves)));
  std::vector<PdnIndex> children;
  int left = leaves;
  for (int k = 0; k < parts; ++k) {
    const int take =
        k + 1 == parts ? left
                       : static_cast<int>(rng.next_in(1, left - (parts - k - 1)));
    children.push_back(random_pdn_subtree(pdn, rng, take, num_signals));
    left -= take;
  }
  return rng.chance(1, 2) ? pdn.add_series(std::move(children))
                          : pdn.add_parallel(std::move(children));
}

struct RandomPulldown {
  CsaPdnModel model;
  std::vector<double> caps;
};

/// A seeded random build_csa_model pulldown with exactly `bits`
/// enumeration bits (>= 1), some junctions discharge-protected when
/// `with_discharges`.
RandomPulldown random_pulldown(Rng& rng, std::size_t bits,
                               bool with_discharges) {
  for (;;) {
    Pdn pdn;
    const int leaves = static_cast<int>(rng.next_in(1, 10));
    pdn.set_root(random_pdn_subtree(pdn, rng, leaves,
                                    static_cast<int>(rng.next_in(1, 9))));
    std::vector<DischargePoint> discharges;
    if (with_discharges) {
      for (const DischargePoint& p : canonical_junctions(pdn)) {
        if (rng.chance(1, 2)) discharges.push_back(p);
      }
      if (discharges.empty()) continue;
    }
    CsaPdnModel model = build_csa_model(pdn, discharges, rng.chance(1, 2));
    if (csa_state_signals(model).size() + csa_free_nodes(model).size() !=
        bits) {
      continue;
    }
    std::vector<double> widths(model.devices.size());
    for (double& w : widths) w = 0.5 + 2.5 * rng.next_double();
    ChargeModel charge;
    std::vector<double> caps = csa_node_caps(model, widths, charge);
    return RandomPulldown{std::move(model), std::move(caps)};
  }
}

struct VisitCall {
  std::vector<bool> inputs;
  std::vector<bool> precharge;
  double droop = 0.0;
  double share_cap = 0.0;
  int firings = 0;
  bool flip = false;

  bool operator==(const VisitCall&) const = default;
};

struct CallLog {
  std::vector<std::vector<bool>> admitted;
  std::vector<VisitCall> visits;
};

/// Callbacks that log every call; admit rejects the input assignments
/// whose seeded hash lands in one third of the range (none when
/// `reject_seed` is 0, and then admit is left empty).
CsaStateCallbacks logging_callbacks(CallLog& log, std::uint64_t reject_seed) {
  CsaStateCallbacks callbacks;
  if (reject_seed != 0) {
    callbacks.admit = [&log, reject_seed](const std::vector<bool>& inputs) {
      log.admitted.push_back(inputs);
      std::string key;
      for (const bool b : inputs) key += b ? '1' : '0';
      return fnv1a64(key, reject_seed) % 3 != 0;
    };
  }
  callbacks.visit = [&log](const std::vector<bool>& inputs,
                           const std::vector<bool>& precharge, double droop,
                           double share_cap, int firings, bool flip) {
    log.visits.push_back(
        VisitCall{inputs, precharge, droop, share_cap, firings, flip});
  };
  return callbacks;
}

void expect_same_bound(const CsaPulldownBound& got,
                       const CsaPulldownBound& want, const std::string& what) {
  EXPECT_TRUE(got.droop == want.droop) << what;
  EXPECT_TRUE(got.share_cap == want.share_cap) << what;
  EXPECT_EQ(got.firings, want.firings) << what;
  EXPECT_EQ(got.ground_reachable, want.ground_reachable) << what;
  EXPECT_EQ(got.keeper_overpowered, want.keeper_overpowered) << what;
  EXPECT_EQ(got.truncated, want.truncated) << what;
  EXPECT_EQ(got.states, want.states) << what;
  EXPECT_EQ(got.worst_state, want.worst_state) << what;
}

void expect_matches_reference(const CsaPdnModel& model,
                              const std::vector<double>& caps,
                              const CsaOptions& opts, std::uint64_t seed,
                              const std::string& what) {
  expect_same_bound(bound_pulldown(model, caps, opts),
                    reference_bound(model, caps, opts, CsaStateCallbacks{}),
                    what + " plain");
  for (const std::uint64_t reject_seed : {std::uint64_t{0}, seed}) {
    CallLog got_log;
    CallLog want_log;
    const CsaPulldownBound got = bound_pulldown(
        model, caps, opts, logging_callbacks(got_log, reject_seed));
    const CsaPulldownBound want = reference_bound(
        model, caps, opts, logging_callbacks(want_log, reject_seed));
    const std::string tag =
        what + (reject_seed != 0 ? " admit+visit" : " visit");
    expect_same_bound(got, want, tag);
    EXPECT_EQ(got_log.admitted, want_log.admitted) << tag;
    EXPECT_TRUE(got_log.visits == want_log.visits) << tag;
  }
}

TEST(CsaBound, WordEnumerationMatchesScalarReference) {
  // Bits 1..12 cover a partial word (< 6 bits), exactly one word (6) and
  // up to 64 blocks (12).
  Rng rng(0xC5A16);
  int cases = 0;
  for (std::size_t bits = 1; bits <= 12; ++bits) {
    for (int rep = 0; rep < 4; ++rep) {
      const bool with_discharges = rep % 2 == 1;
      const RandomPulldown p = random_pulldown(rng, bits, with_discharges);
      for (int keeper = 1; keeper <= 3; ++keeper) {
        CsaOptions opts;
        opts.keeper_strength = keeper;
        expect_matches_reference(
            p.model, p.caps, opts, rng.next_u64() | 1,
            format("bits=%zu rep=%d keeper=%d", bits, rep, keeper));
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 12 * 4 * 3);
}

TEST(CsaBound, WordEnumerationOfADevicelessModel) {
  // Zero enumeration bits: one state, one lane of one partial word.
  const CsaPdnModel model;
  const std::vector<double> caps =
      csa_node_caps(model, {}, ChargeModel{});
  expect_matches_reference(model, caps, CsaOptions{}, 7, "no devices");
  EXPECT_EQ(bound_pulldown(model, caps, CsaOptions{}).states, 1);
}

/// (A+B+C)*(D+E)*F*G: 7 signals and 3 free junctions, 2^10 states, and
/// most states leave the stack non-conducting (so they are visited).
CsaPdnModel ten_bit_stack() {
  Pdn pdn;
  std::vector<PdnIndex> abc;
  for (std::uint32_t s = 0; s < 3; ++s) abc.push_back(pdn.add_leaf(s));
  const PdnIndex de = pdn.add_parallel({pdn.add_leaf(3), pdn.add_leaf(4)});
  pdn.set_root(pdn.add_series({pdn.add_parallel(std::move(abc)), de,
                               pdn.add_leaf(5), pdn.add_leaf(6)}));
  return build_csa_model(pdn, {}, true);
}

TEST(CsaBound, CancelledGuardStopsTheEnumeration) {
  const CsaPdnModel model = ten_bit_stack();
  const std::vector<double> caps = csa_node_caps(
      model, std::vector<double>(model.devices.size(), 1.0), ChargeModel{});
  ASSERT_EQ(bound_pulldown(model, caps, CsaOptions{}).states, 1L << 10);

  const auto expect_cancelled = [&](const CsaStateCallbacks& callbacks) {
    try {
      bound_pulldown(model, caps, CsaOptions{}, callbacks);
      ADD_FAILURE() << "bound_pulldown finished under a cancelled guard";
    } catch (const GuardError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled);
    }
  };

  // Cancelled before the call: the first checkpoint throws.
  CancelToken before;
  before.request_cancel();
  GuardContext cancelled_guard(Deadline::never(), before, ResourceBudget{});
  {
    GuardScope scope(cancelled_guard);
    expect_cancelled(CsaStateCallbacks{});
  }

  // Cancelled from inside the enumeration: the checkpoint runs every 256
  // states, so fewer than 256 more states are visited.
  CancelToken during;
  GuardContext live_guard(Deadline::never(), during, ResourceBudget{});
  GuardScope scope(live_guard);
  int visits = 0;
  int visits_after_cancel = -1;
  CsaStateCallbacks callbacks;
  callbacks.visit = [&](const std::vector<bool>&, const std::vector<bool>&,
                        double, double, int, bool) {
    ++visits;
    if (visits_after_cancel >= 0) {
      ++visits_after_cancel;
    } else if (visits == 10) {
      during.request_cancel();
      visits_after_cancel = 0;
    }
  };
  expect_cancelled(callbacks);
  EXPECT_GE(visits_after_cancel, 0);
  EXPECT_LT(visits_after_cancel, 256);
}

// ---------------------------------------------------------------------------
// Rules, findings, waivers.

TEST(CsaRules, UnprotectedGateRaisesPbeDischargeError) {
  const CsaResult r = run_csa(fig2_gate(false));
  ASSERT_EQ(r.report.gates.size(), 1u);
  EXPECT_TRUE(r.report.gates[0].keeper_overpowered());
  EXPECT_EQ(r.report.gates_keeper_overpowered, 1);
  bool found = false;
  for (const Finding& f : r.lint.findings) {
    found = found || f.rule == "csa.pbe-discharge";
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(r.lint.clean(LintSeverity::kError));
}

TEST(CsaRules, ProtectedGateHasNoError) {
  const CsaResult r = run_csa(fig2_gate(true));
  EXPECT_EQ(r.report.gates_keeper_overpowered, 0);
  EXPECT_TRUE(r.lint.clean(LintSeverity::kError));
  for (const Finding& f : r.lint.findings) {
    EXPECT_NE(f.rule, "csa.pbe-discharge");
  }
}

TEST(CsaRules, DroopMarginWarningTracksTheThreshold) {
  CsaOptions strict;
  strict.margin = 0.0;  // any droop at all crosses the margin
  const CsaResult flagged = run_csa(fig2_gate(true), strict);
  bool warned = false;
  for (const Finding& f : flagged.lint.findings) {
    warned = warned || f.rule == "csa.droop-margin";
  }
  EXPECT_TRUE(warned);

  CsaOptions lax;
  lax.margin = 1.0;  // the protected gate droops well below vdd
  const CsaResult quiet = run_csa(fig2_gate(true), lax);
  for (const Finding& f : quiet.lint.findings) {
    EXPECT_NE(f.rule, "csa.droop-margin");
  }
}

TEST(CsaRules, StateExplosionInfoOnTruncation) {
  CsaOptions opts;
  opts.max_states = 1;
  const CsaResult r = run_csa(fig2_gate(false), opts);
  EXPECT_EQ(r.report.gates_truncated, 1);
  bool info = false;
  for (const Finding& f : r.lint.findings) {
    if (f.rule == "csa.state-explosion") {
      info = true;
      EXPECT_EQ(f.severity, LintSeverity::kInfo);
    }
  }
  EXPECT_TRUE(info);
}

TEST(CsaRules, WaiversSuppressWithoutDeletingFindings) {
  CsaOptions opts;
  opts.waivers = {"csa.pbe-discharge"};
  const CsaResult r = run_csa(fig2_gate(false), opts);
  bool waived = false;
  for (const Finding& f : r.lint.findings) {
    if (f.rule == "csa.pbe-discharge") {
      waived = true;
      EXPECT_TRUE(f.waived);
    }
  }
  EXPECT_TRUE(waived);
  EXPECT_TRUE(r.lint.clean(LintSeverity::kError));
  EXPECT_NE(r.lint.to_sarif("x").find("\"suppressions\""), std::string::npos);
}

TEST(CsaReportJson, CarriesParametersAndPerGateBounds) {
  const CsaResult r = run_csa(fig2_gate(false));
  const std::string json = r.report.to_json();
  EXPECT_NE(json.find("\"vdd\":1"), std::string::npos);
  EXPECT_NE(json.find("\"keeper_strength\":1"), std::string::npos);
  EXPECT_NE(json.find("\"gates\":[{\"gate\":0"), std::string::npos);
  EXPECT_NE(json.find("\"worst_state\""), std::string::npos);
  EXPECT_NE(json.find("\"ground_reachable\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flow integration.

TEST(CsaFlow, OptInPopulatesResultAndSummary) {
  FlowOptions options;
  options.csa = true;
  const FlowResult r = run_flow(testing::fig3_network(), options);
  ASSERT_TRUE(r.csa.has_value());
  EXPECT_EQ(r.csa->report.gates.size(), r.netlist.gates().size());
  EXPECT_NE(summarize(r).find("csa="), std::string::npos);

  const FlowResult off = run_flow(testing::fig3_network(), FlowOptions{});
  EXPECT_FALSE(off.csa.has_value());
  EXPECT_EQ(summarize(off).find("csa="), std::string::npos);
}

TEST(CsaFlow, FailOnSeverityGatesTheFlow) {
  FlowOptions options;
  options.csa = true;
  options.csa_options.margin = 0.0;  // every gate crosses the margin
  options.csa_fail_on = LintSeverity::kWarning;
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), options);
  ASSERT_TRUE(outcome.result.has_value());  // netlist still delivered
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kVerificationFailed);
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kCsa);
}

TEST(CsaFlow, BadOptionsRejectedUpFront) {
  FlowOptions options;
  options.csa = true;
  options.csa_options.max_states = 0;
  EXPECT_THROW(validate(options), Error);
  options.csa_options.max_states = 1;
  options.csa_options.margin = -0.5;
  EXPECT_THROW(validate(options), Error);
  options.csa_options.margin = 0.25;
  options.csa_options.keeper_strength = 0;
  EXPECT_THROW(validate(options), Error);
}

// ---------------------------------------------------------------------------
// Byte identity of the csa report and SARIF on the paper's Table-3 circuits.

TEST(CsaGolden, PaperTableReportBytes) {
  // FNV-1a 64 of run_csa's report JSON and SARIF per circuit, default
  // flow and default CsaOptions.  Recorded from the one-state-at-a-time
  // enumeration; any change in a double, a witness or a finding shows.
  struct Golden {
    const char* circuit;
    std::uint64_t json;
    std::uint64_t sarif;
  };
  static constexpr Golden kGolden[] = {
      {"cm150", 0x3bb550a80a0aca33ull, 0xa85b59e325fb538full},
      {"mux", 0xd01124c18c5f8a61ull, 0xb79e43d6db7c5523ull},
      {"z4ml", 0xca2937cbdd62a1fbull, 0x5165698bf9b1f23cull},
      {"cordic", 0x1e9af48d186a79efull, 0x08e2da951c8af4a0ull},
      {"frg1", 0x8a8b3c2836db63ffull, 0x635d6027566ff888ull},
      {"count", 0x35a3de874618f011ull, 0x69b97a4690f94ad8ull},
      {"b9", 0x55e2141ce10fb8bbull, 0x8b5fe371f46e4e3full},
      {"c8", 0xba5a35e950348ec6ull, 0x7ae906467c33ed08ull},
      {"f51m", 0xccf53dc768b612f8ull, 0xba30ac192ca02012ull},
      {"9symml", 0x91cb950377be981cull, 0x7476514699130885ull},
      {"apex7", 0x7f00a7e2a7c92cbeull, 0x466d8baf2a416ccdull},
      {"x1", 0xe0704549b7848cb0ull, 0x0a5c966ef18df59full},
      {"c432", 0x9d021e42b4d4de5eull, 0x653f4bdf2a248469ull},
      {"i6", 0xb303b03156d365fdull, 0x34934d81ab756cafull},
      {"c1908", 0xc850b1f221b900e8ull, 0x480e0e3e625cf783ull},
      {"t481", 0x47b1ea4a952b7f3full, 0xe27734923ae4d6abull},
      {"c499", 0xe7898901adffacd4ull, 0xcf8ca1193f5a5bfeull},
      {"c1355", 0xe7898901adffacd4ull, 0xe7a4e55f222b1946ull},
      {"dalu", 0x245e7bf7cba10c26ull, 0x0d3638c3d96714a1ull},
      {"k2", 0x0c226d8d1ed15b24ull, 0x9d4ba02951df5686ull},
      {"apex6", 0x0eb5cc36358263a0ull, 0x3250918098ea6c7dull},
      {"rot", 0x4e6ab9c586fc2fe7ull, 0xc004b4f689526936ull},
      {"c2670", 0xfd55ad7fbcbb24a5ull, 0xba0dc71d7f6a0780ull},
      {"c5315", 0x55b2e5e5e674fe02ull, 0xd2052ae1192e0935ull},
      {"c3540", 0x82240ecc26425733ull, 0x68b984335f1f99a7ull},
      {"des", 0x8520e58136bb1556ull, 0x07378dfd807d326bull},
      {"c7552", 0xe0fff3ac2aba09b4ull, 0x594df5394a538b35ull},
  };
  const auto hex = [](std::uint64_t digest) {
    return format("%016llx", static_cast<unsigned long long>(digest));
  };
  const std::vector<std::string> circuits = table3_circuits();
  ASSERT_EQ(circuits.size(), std::size(kGolden));
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const std::string& name = circuits[i];
    const FlowResult mapped = run_flow(build_benchmark(name), FlowOptions{});
    const CsaResult r = run_csa(mapped.netlist, CsaOptions{});
    EXPECT_EQ(name, kGolden[i].circuit);
    EXPECT_EQ(hex(fnv1a64(r.report.to_json())), hex(kGolden[i].json))
        << name << " report JSON";
    EXPECT_EQ(hex(fnv1a64(r.lint.to_sarif(name + ".blif"))),
              hex(kGolden[i].sarif))
        << name << " SARIF";
  }
}

// ---------------------------------------------------------------------------
// The conservativeness oracle: static bound >= simulated droop, always.

TEST(CsaOracle, Fig2HandGateNeverUnderestimated) {
  for (const bool protected_gate : {false, true}) {
    const DominoNetlist nl = fig2_gate(protected_gate);
    CsaOptions opts;
    expect_conservative(nl, 4, opts, protected_gate ? 7 : 3, 64);
  }
}

TEST(CsaOracle, AdversarialHoldThenFireSequence) {
  // The paper's killer sequence observes the full parasitic flip; the
  // static bound must sit at vdd or above.
  const DominoNetlist nl = fig2_gate(false);
  const CsaOptions opts;
  const CsaResult csa = run_csa(nl, opts);
  SoiSimulator sim(nl);
  sim.enable_droop(make_probes(nl, opts));
  for (int cycle = 0; cycle < 5; ++cycle) sim.step({true, false, false, false});
  sim.step({false, false, false, true});
  EXPECT_DOUBLE_EQ(sim.max_droop(0), opts.charge.vdd);  // flip observed
  EXPECT_LE(sim.max_droop(0), csa.report.gates[0].droop() + 1e-9);
}

TEST(CsaOracle, FuzzCorpusZeroUnderestimates) {
  // >= 200 random mapped netlists x 16 cycles, options varied across the
  // corpus (keeper strength, sizing, protection policy).
  int cases = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Network source =
        testing::random_network(5, 10 + static_cast<int>(seed % 13), 3, seed);
    FlowOptions flow;
    flow.verify_rounds = 0;
    if (seed % 4 == 0) {
      flow.mapper.pending_model = PendingModel::kPaperLiteral;
      flow.mapper.grounding = GroundingPolicy::kNoneGrounded;
    }
    const FlowResult mapped = run_flow(source, flow);
    CsaOptions opts;
    opts.keeper_strength = 1 + static_cast<int>(seed % 3);
    opts.use_sizing = seed % 2 == 0;
    expect_conservative(mapped.netlist, 5, opts, seed * 31, 16);
    ++cases;
  }
  EXPECT_EQ(cases, 200);
}

TEST(CsaOracle, TruncatedBoundStaysConservative) {
  // max_states=1 degrades every nontrivial gate to the fallback bound,
  // which must still dominate the simulator.
  for (const std::uint64_t seed : {5u, 17u, 42u}) {
    const Network source = testing::random_network(5, 20, 3, seed);
    FlowOptions flow;
    flow.verify_rounds = 0;
    const FlowResult mapped = run_flow(source, flow);
    CsaOptions opts;
    opts.max_states = 1;
    expect_conservative(mapped.netlist, 5, opts, seed, 16);
  }
}

TEST(CsaOracle, PaperTableCircuitsNeverUnderestimated) {
  std::vector<std::string> circuits;
  for (const auto& list : {table1_circuits(), table2_circuits(),
                           table3_circuits(), table4_circuits()}) {
    for (const std::string& name : list) {
      if (std::find(circuits.begin(), circuits.end(), name) ==
          circuits.end()) {
        circuits.push_back(name);
      }
    }
  }
  ASSERT_FALSE(circuits.empty());
  for (const std::string& name : circuits) {
    const Network source = build_benchmark(name);
    FlowOptions flow;
    flow.verify_rounds = 0;
    const FlowResult mapped = run_flow(source, flow);
    expect_conservative(mapped.netlist, source.pis().size(), CsaOptions{},
                        0xC5A0 + circuits.size(), 6);
  }
}

}  // namespace
}  // namespace soidom
