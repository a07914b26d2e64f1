/// \file analyze.cpp
/// The CSA bound computation and the run_csa driver.
///
/// Conservativeness argument (docs/CSA.md has the full version).  Fix a
/// simulator cycle of one pulldown that does not legitimately discharge,
/// and pick the enumerated state whose input bits equal the cycle's
/// actual signal values and whose precharge bits equal the cycle's
/// internal-node precharge snapshot.  Then:
///  * every device soisim fires is a CSA candidate (firing needs the
///    device OFF with its below junction precharged high and not
///    discharge-protected; devices whose below node is the bottom
///    terminal can never fire because the evaluate settle grounds the
///    bottom, resetting their body charge every cycle),
///  * soisim's final conduction graph is a subset of ON u candidates,
///    so the simulator's connected component (clamped at the bottom
///    terminal, as both sides clamp) is a subset of the CSA closure,
///  * therefore shared precharge-low capacitance S >= S_sim, injecting
///    count F >= F_sim, and with total component capacitance
///    T_sim >= c_dyn + S_sim the static droop
///    vdd*S/(c_dyn+S) + q_pbe*F/c_dyn dominates the observed
///    (vdd*S_sim + q_pbe*F_sim)/T_sim,
///  * a simulator parasitic flip needs >= keeper_strength firings and a
///    conducting path to ground; CSA then reports flip-possible and
///    takes max(formula, vdd).
/// The truncation fallback takes S over ALL junctions and F over ALL
/// candidate-eligible devices, which dominates every state.
#include <bit>

#include "soidom/base/contracts.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/csa/csa.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"

namespace soidom {
namespace {

std::string state_witness(long state, std::size_t num_signals,
                          std::size_t num_free) {
  if (num_signals + num_free == 0) return "trivial";
  std::string out;
  if (num_signals > 0) {
    out += "in=";
    for (std::size_t i = 0; i < num_signals; ++i) {
      out += static_cast<char>('0' + ((state >> i) & 1));
    }
  }
  if (num_free > 0) {
    if (!out.empty()) out += ' ';
    out += "pre=";
    for (std::size_t i = 0; i < num_free; ++i) {
      out += static_cast<char>('0' + ((state >> (num_signals + i)) & 1));
    }
  }
  return out;
}

/// Lane patterns of the state bits below 6: lane l of a 64-state block
/// holds bit b of l.
constexpr std::uint64_t kLanePattern[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// State bit `bit` across the 64 lanes of the block starting at `base`
/// (a multiple of 64): a fixed lane pattern below bit 6, constant above.
std::uint64_t state_bit_word(std::size_t bit, long base) {
  if (bit < 6) return kLanePattern[bit];
  return ((base >> bit) & 1) != 0 ? ~std::uint64_t{0} : 0;
}

/// csa_flood for 64 states at once: floods from the dynamic node in the
/// lanes of `lanes` over the devices whose `edge` word has the lane set,
/// leaving each node's reached lanes in `member`.  A fixpoint over the
/// device list, both directions per device.  Returns the lanes that reach
/// the bottom terminal; with `clamp_bottom` the flood never enters it.
std::uint64_t flood_lanes(const CsaPdnModel& model,
                          const std::vector<std::uint64_t>& edge,
                          std::uint64_t lanes, bool clamp_bottom,
                          std::vector<std::uint64_t>& member) {
  std::fill(member.begin(), member.end(), 0);
  member[kCsaDynamicNode] = lanes;
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      const std::uint64_t e = edge[t];
      if (e == 0) continue;
      const CsaDevice& d = model.devices[t];
      const std::uint64_t above = member[d.above];
      const std::uint64_t below = member[d.below];
      const std::uint64_t grow_below =
          clamp_bottom && d.below == kCsaBottomNode ? 0 : above & e & ~below;
      const std::uint64_t grow_above =
          clamp_bottom && d.above == kCsaBottomNode ? 0 : below & e & ~above;
      if ((grow_below | grow_above) == 0) continue;
      member[d.below] |= grow_below;
      member[d.above] |= grow_above;
      changed = true;
    }
  }
  if (!clamp_bottom) return member[kCsaBottomNode];
  std::uint64_t reached = 0;
  for (std::size_t t = 0; t < model.devices.size(); ++t) {
    const CsaDevice& d = model.devices[t];
    if (d.below == kCsaBottomNode) reached |= member[d.above] & edge[t];
    if (d.above == kCsaBottomNode) reached |= member[d.below] & edge[t];
  }
  return reached;
}

}  // namespace

bool csa_flood(const CsaPdnModel& model, const std::vector<bool>& edge_on,
               bool clamp_bottom, std::vector<bool>& member,
               std::vector<std::uint16_t>& stack) {
  member.assign(static_cast<std::size_t>(model.num_nodes), false);
  member[kCsaDynamicNode] = true;
  stack.assign(1, kCsaDynamicNode);
  bool reached_bottom = false;
  while (!stack.empty()) {
    const std::uint16_t node = stack.back();
    stack.pop_back();
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      if (!edge_on[t]) continue;
      const CsaDevice& d = model.devices[t];
      std::uint16_t other;
      if (d.above == node) {
        other = d.below;
      } else if (d.below == node) {
        other = d.above;
      } else {
        continue;
      }
      if (other == kCsaBottomNode) {
        reached_bottom = true;
        if (clamp_bottom) continue;
      }
      if (member[other]) continue;
      member[other] = true;
      stack.push_back(other);
    }
  }
  return reached_bottom;
}

std::vector<std::uint32_t> csa_state_signals(const CsaPdnModel& model) {
  std::vector<std::uint32_t> signals;
  signals.reserve(model.devices.size());
  for (const CsaDevice& d : model.devices) signals.push_back(d.signal);
  std::sort(signals.begin(), signals.end());
  signals.erase(std::unique(signals.begin(), signals.end()), signals.end());
  return signals;
}

std::vector<std::uint16_t> csa_free_nodes(const CsaPdnModel& model) {
  std::vector<bool> discharged(static_cast<std::size_t>(model.num_nodes),
                               false);
  for (const std::uint16_t n : model.discharged) discharged[n] = true;
  std::vector<std::uint16_t> free_nodes;
  for (std::size_t v = 2; v < static_cast<std::size_t>(model.num_nodes);
       ++v) {
    if (!discharged[v]) free_nodes.push_back(static_cast<std::uint16_t>(v));
  }
  return free_nodes;
}

CsaPulldownBound bound_pulldown(const CsaPdnModel& model,
                                const std::vector<double>& caps,
                                const CsaOptions& options) {
  return bound_pulldown(model, caps, options, CsaStateCallbacks{});
}

CsaPulldownBound bound_pulldown(const CsaPdnModel& model,
                                const std::vector<double>& caps,
                                const CsaOptions& options,
                                const CsaStateCallbacks& callbacks) {
  SOIDOM_REQUIRE(caps.size() == static_cast<std::size_t>(model.num_nodes),
                 "bound_pulldown: caps do not match the model");
  validate(options);
  const double vdd = options.charge.vdd;
  const double q_pbe = options.charge.q_pbe;
  const double c_dyn = caps[kCsaDynamicNode];
  SOIDOM_REQUIRE(c_dyn > 0.0,
                 "bound_pulldown: dynamic-node capacitance must be positive");

  const auto num_nodes = static_cast<std::size_t>(model.num_nodes);
  std::vector<bool> discharged(num_nodes, false);
  for (const std::uint16_t n : model.discharged) {
    discharged[n] = true;
  }

  // Enumeration bits: one per distinct input signal, one per free
  // internal junction (precharge state unknown).  The bottom terminal's
  // precharge state is irrelevant: devices sitting on it can never fire
  // (see file comment) and it is never part of a sharing component.
  const std::vector<std::uint32_t> signals = csa_state_signals(model);
  std::vector<std::size_t> signal_bit(model.devices.size());
  for (std::size_t t = 0; t < model.devices.size(); ++t) {
    signal_bit[t] = static_cast<std::size_t>(
        std::lower_bound(signals.begin(), signals.end(),
                         model.devices[t].signal) -
        signals.begin());
  }
  const std::vector<std::uint16_t> free_nodes = csa_free_nodes(model);

  CsaPulldownBound bound;
  const std::size_t bits = signals.size() + free_nodes.size();
  if (bits >= 62 || (1L << bits) > options.max_states) {
    // Pointwise-max fallback: every junction shares, every eligible
    // device fires.  Coarser than any enumerated state but still a
    // sound upper bound on anything the simulator can do.
    double s_all = 0.0;
    for (std::size_t v = 2; v < num_nodes; ++v) s_all += caps[v];
    int f_all = 0;
    for (const CsaDevice& d : model.devices) {
      if (d.below >= 2 && !discharged[d.below]) ++f_all;
    }
    bound.truncated = true;
    bound.share_cap = s_all;
    bound.firings = f_all;
    bound.ground_reachable = true;
    bound.keeper_overpowered = f_all >= options.keeper_strength;
    double droop = vdd * s_all / (c_dyn + s_all) + q_pbe * f_all / c_dyn;
    if (bound.keeper_overpowered) droop = std::max(droop, vdd);
    bound.droop = droop;
    bound.worst_state = "truncated";
    return bound;
  }

  // States are evaluated 64 at a time: lane l of the block starting at
  // `base` is state base + l, and every per-device / per-node quantity is
  // a 64-lane word.
  const long num_states = 1L << bits;
  bound.states = num_states;
  const std::uint64_t all_lanes =
      num_states >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << num_states) - 1;
  // Only devices whose below node is a free junction can turn parasitic
  // (their below node may be precharged high and is not discharged).
  std::vector<bool> eligible(model.devices.size());
  for (std::size_t t = 0; t < model.devices.size(); ++t) {
    const std::uint16_t below = model.devices[t].below;
    eligible[t] = below >= 2 && !discharged[below];
  }
  std::vector<std::uint64_t> on(model.devices.size());
  std::vector<std::uint64_t> cand(model.devices.size());
  std::vector<std::uint64_t> edge(model.devices.size());
  std::vector<std::uint64_t> pstate(num_nodes, 0);
  std::vector<std::uint64_t> member(num_nodes);
  // admit() depends only on the input bits (the low bits of s, cycling
  // fastest), so its verdicts are memoized per input assignment.
  const std::size_t input_mask = (std::size_t{1} << signals.size()) - 1;
  std::vector<signed char> admit_cache;
  if (callbacks.admit) admit_cache.assign(input_mask + 1, -1);
  std::vector<bool> in_vec(signals.size());
  std::vector<bool> pre_vec(free_nodes.size());
  const auto unpack = [&](long s) {
    for (std::size_t i = 0; i < signals.size(); ++i) {
      in_vec[i] = ((s >> i) & 1) != 0;
    }
    for (std::size_t i = 0; i < free_nodes.size(); ++i) {
      pre_vec[i] = ((s >> (signals.size() + i)) & 1) != 0;
    }
  };

  for (long base = 0; base < num_states; base += 64) {
    if ((base & 255) == 0) guard_checkpoint();
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      on[t] = state_bit_word(signal_bit[t], base);
    }
    std::uint64_t active = all_lanes;
    if (callbacks.admit) {
      for (std::uint64_t lanes = active; lanes != 0; lanes &= lanes - 1) {
        const int lane = std::countr_zero(lanes);
        const std::size_t in_key =
            static_cast<std::size_t>(base + lane) & input_mask;
        if (admit_cache[in_key] < 0) {
          unpack(base + lane);
          admit_cache[in_key] = callbacks.admit(in_vec) ? 1 : 0;
        }
        if (admit_cache[in_key] == 0) active &= ~(std::uint64_t{1} << lane);
      }
    }
    // A state where the ON devices alone conduct to ground is a
    // legitimate discharge: the gate is supposed to evaluate low, so
    // there is no droop hazard (the simulator observes 0 there too).
    active &= ~flood_lanes(model, on, active, /*clamp_bottom=*/false, member);
    if (active == 0) continue;

    for (std::size_t i = 0; i < free_nodes.size(); ++i) {
      pstate[free_nodes[i]] = state_bit_word(signals.size() + i, base);
    }
    // Candidate parasitic devices: OFF, below node an internal junction
    // that is precharged high and not pulled low by a discharge pMOS.
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      cand[t] = eligible[t] ? ~on[t] & pstate[model.devices[t].below] : 0;
      edge[t] = on[t] | cand[t];
    }
    // Everything ON or candidate may end up conducting: the connected
    // component of the dynamic node over those edges bounds the charge-
    // sharing extent.  Clamped at the bottom terminal — when a parasitic
    // path reaches ground with the keeper holding, the keeper replenishes
    // what flows past the clamp (matching soisim's observation model).
    const std::uint64_t reached =
        flood_lanes(model, edge, active, /*clamp_bottom=*/true, member);

    // Per-lane tail.  Each lane's shared capacitance is summed over v
    // ascending, so every double (and the report bytes) is independent
    // of how states are grouped into words.
    double share[64] = {};
    int firings[64] = {};
    int num_cand[64] = {};
    for (std::size_t v = 2; v < num_nodes; ++v) {
      for (std::uint64_t lanes = member[v] & ~pstate[v] & active; lanes != 0;
           lanes &= lanes - 1) {
        share[std::countr_zero(lanes)] += caps[v];
      }
    }
    for (std::size_t t = 0; t < model.devices.size(); ++t) {
      const CsaDevice& d = model.devices[t];
      for (std::uint64_t lanes = cand[t] & active; lanes != 0;
           lanes &= lanes - 1) {
        ++num_cand[std::countr_zero(lanes)];
      }
      for (std::uint64_t lanes =
               cand[t] & active & (member[d.above] | member[d.below]);
           lanes != 0; lanes &= lanes - 1) {
        ++firings[std::countr_zero(lanes)];
      }
    }
    for (std::uint64_t lanes = active; lanes != 0; lanes &= lanes - 1) {
      const int lane = std::countr_zero(lanes);
      const long s = base + lane;
      // A flip needs a path to ground and enough firing devices anywhere
      // in the gate to overpower the keeper (soisim counts all firings,
      // not just those on the dynamic node's component).
      const bool lane_reached = ((reached >> lane) & 1) != 0;
      const bool flip =
          lane_reached && num_cand[lane] >= options.keeper_strength;
      double droop = vdd * share[lane] / (c_dyn + share[lane]) +
                     q_pbe * firings[lane] / c_dyn;
      if (flip) droop = std::max(droop, vdd);
      if (callbacks.visit) {
        unpack(s);
        callbacks.visit(in_vec, pre_vec, droop, share[lane], firings[lane],
                        flip);
      }
      bound.ground_reachable = bound.ground_reachable || lane_reached;
      bound.keeper_overpowered = bound.keeper_overpowered || flip;
      if (droop > bound.droop) {
        bound.droop = droop;
        bound.share_cap = share[lane];
        bound.firings = firings[lane];
        bound.worst_state =
            state_witness(s, signals.size(), free_nodes.size());
      }
    }
  }
  if (bound.worst_state.empty()) bound.worst_state = "none";
  return bound;
}

namespace {

std::string pulldown_json(const CsaPulldownBound& b) {
  return format(R"({"droop":%.9g,"share_cap":%.9g,"firings":%d,)"
                R"("ground_reachable":%s,"keeper_overpowered":%s,)"
                R"("truncated":%s,"states":%ld,"worst_state":"%s"})",
                b.droop, b.share_cap, b.firings,
                b.ground_reachable ? "true" : "false",
                b.keeper_overpowered ? "true" : "false",
                b.truncated ? "true" : "false", b.states,
                json_escape(b.worst_state).c_str());
}

}  // namespace

std::string CsaReport::to_json() const {
  std::string out = format(
      R"({"vdd":%.9g,"margin":%.9g,"keeper_strength":%d,"max_states":%ld,)"
      R"("max_droop":%.9g,"gates_over_margin":%d,)"
      R"("gates_keeper_overpowered":%d,"gates_truncated":%d,"gates":[)",
      vdd, margin, keeper_strength, max_states, max_droop, gates_over_margin,
      gates_keeper_overpowered, gates_truncated);
  for (std::size_t g = 0; g < gates.size(); ++g) {
    const CsaGateReport& gate = gates[g];
    if (g) out += ',';
    out += format(R"({"gate":%d,"dual":%s,"droop":%.9g,"pd1":)", gate.gate,
                  gate.dual ? "true" : "false", gate.droop());
    out += pulldown_json(gate.pd1);
    if (gate.dual) {
      out += ",\"pd2\":";
      out += pulldown_json(gate.pd2);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void validate(const CsaOptions& options) {
  SOIDOM_REQUIRE(options.max_states >= 1,
                 format("CsaOptions.max_states = %ld is invalid "
                        "(need max_states >= 1)",
                        options.max_states));
  SOIDOM_REQUIRE(options.margin >= 0.0,
                 format("CsaOptions.margin = %g is invalid (need margin >= 0)",
                        options.margin));
  SOIDOM_REQUIRE(options.keeper_strength >= 1,
                 format("CsaOptions.keeper_strength = %d is invalid "
                        "(need keeper_strength >= 1)",
                        options.keeper_strength));
}

CsaResult run_csa(const DominoNetlist& netlist, const CsaOptions& options) {
  validate(options);
  StageScope stage_scope(FlowStage::kCsa);
  SOIDOM_FAULT_PROBE(FlowStage::kCsa);
  guard_checkpoint();

  SizingResult sizing;
  if (options.use_sizing) sizing = size_netlist(netlist, options.sizing);

  CsaResult result;
  result.report.gates.resize(netlist.gates().size());
  for (std::size_t g = 0; g < netlist.gates().size(); ++g) {
    guard_checkpoint();
    const DominoGate& spec = netlist.gates()[g];
    CsaGateReport& rep = result.report.gates[g];
    rep.gate = static_cast<int>(g);
    rep.dual = spec.dual();
    const std::vector<double>* widths =
        options.use_sizing ? &sizing.gates[g].pulldown_widths : nullptr;
    const auto bound_one = [&](const Pdn& pdn,
                               const std::vector<DischargePoint>& discharges,
                               bool footed, std::size_t width_offset) {
      const CsaPdnModel model = build_csa_model(pdn, discharges, footed);
      std::vector<double> w(model.devices.size(), 1.0);
      if (widths != nullptr) {
        SOIDOM_ASSERT(width_offset + w.size() <= widths->size());
        std::copy_n(widths->begin() + static_cast<std::ptrdiff_t>(width_offset),
                    w.size(), w.begin());
      }
      const std::vector<double> caps =
          csa_node_caps(model, w, options.charge);
      return bound_pulldown(model, caps, options);
    };
    if (!spec.pdn.empty()) {
      rep.pd1 = bound_one(spec.pdn, spec.discharges, spec.footed, 0);
    }
    if (spec.dual()) {
      rep.pd2 = bound_one(spec.pdn2, spec.discharges2, spec.footed2,
                          spec.pdn.leaf_signals().size());
    }
  }

  result.report.vdd = options.charge.vdd;
  result.report.margin = options.margin;
  result.report.keeper_strength = options.keeper_strength;
  result.report.max_states = options.max_states;
  for (const CsaGateReport& gate : result.report.gates) {
    result.report.max_droop = std::max(result.report.max_droop, gate.droop());
    if (gate.droop() >= options.margin * options.charge.vdd) {
      ++result.report.gates_over_margin;
    }
    if (gate.keeper_overpowered()) ++result.report.gates_keeper_overpowered;
    if (gate.truncated()) ++result.report.gates_truncated;
  }

  LintOptions lint_options;
  lint_options.waivers = options.waivers;
  const LintRegistry registry = csa_registry(result.report, options);
  result.lint = run_lint(registry, netlist, lint_options, nullptr,
                         FlowStage::kCsa);
  return result;
}

}  // namespace soidom
