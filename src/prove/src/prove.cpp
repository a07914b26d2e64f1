/// \file prove.cpp
/// The per-rule exact refiners and the run_prove driver.
///
/// Every refiner follows one scheme: rebuild the flagged gate's fanin
/// cone as BDDs over the source primary inputs (prove/cone.hpp), restate
/// the analyzer's flagged condition as a Boolean reachability question in
/// that space, and decide it.  Soundness per rule (docs/PROVE.md has the
/// full arguments):
///
///  * csa.* — the conservative enumeration is re-run with an `admit`
///    callback that drops input assignments whose cone conjunction is
///    unsatisfiable.  Dropping only unreachable assignments keeps the
///    bound a superset of every simulator behavior, so a refined bound
///    below the threshold is a proof of absence.
///  * race.static-mix — precharge conduction is restated with PI literals
///    over current-cycle variables and stale drivers over previous-cycle
///    variables; UNSAT means no two consecutive input vectors open the
///    crowbar path.
///  * race.inversion-parity — a transient (both phases of the conflicted
///    PI high) conduction that the settled assignment does not reproduce;
///    refutation additionally frees every fanin-gate leaf so it does not
///    lean on the first-failure assumption.
///  * pbe-protection — the sequence-aware CHARGE/FIRE excitability
///    predicates (domino/seqaware.cpp) with each leaf replaced by its
///    cone function, so correlated fanin can no longer fake excitement.
///
/// Witness replayability: a confirmed witness is marked replayable only
/// when a single SoiSimulator::step from reset provably reproduces the
/// hazard (csa.droop-margin with a consistent first-cycle precharge
/// snapshot; race.static-mix through PI literals only).  The prediction
/// mirrors soisim's settle/observe semantics in closed form and
/// tests/test_prove.cpp replays every such witness as the
/// zero-false-confirm oracle.
#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "soidom/base/contracts.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/bdd/bdd.hpp"
#include "soidom/domino/postpass.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"
#include "soidom/prove/cone.hpp"
#include "soidom/prove/prove.hpp"

namespace soidom {
namespace {

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

/// Display names for source PIs: the non-negated literal's name when one
/// exists, else a negated literal's name with its ".bar" suffix stripped,
/// else "pi<k>".
std::vector<std::string> source_pi_names(const DominoNetlist& netlist) {
  std::vector<std::string> names(source_pi_space(netlist));
  std::vector<bool> exact(names.size(), false);
  for (const InputLiteral& lit : netlist.inputs()) {
    if (lit.source_pi < 0 ||
        static_cast<std::size_t>(lit.source_pi) >= names.size() ||
        lit.name.empty()) {
      continue;
    }
    auto& name = names[static_cast<std::size_t>(lit.source_pi)];
    if (!lit.negated) {
      name = lit.name;
      exact[static_cast<std::size_t>(lit.source_pi)] = true;
    } else if (!exact[static_cast<std::size_t>(lit.source_pi)] &&
               name.empty()) {
      name = lit.name;
      if (name.size() > 4 && name.ends_with(".bar")) {
        name.resize(name.size() - 4);
      }
    }
  }
  for (std::size_t k = 0; k < names.size(); ++k) {
    if (names[k].empty()) names[k] = format("pi%zu", k);
  }
  return names;
}

std::string bits_text(const std::vector<bool>& bits) {
  std::string out;
  out.reserve(bits.size());
  for (const bool b : bits) out += b ? '1' : '0';
  return out;
}

/// Mirror of the CSA state witness format ("in=<bits> pre=<bits>").
std::string csa_state_text(const std::vector<bool>& inputs,
                           const std::vector<bool>& precharge) {
  if (inputs.empty() && precharge.empty()) return "trivial";
  std::string out;
  if (!inputs.empty()) out += "in=" + bits_text(inputs);
  if (!precharge.empty()) {
    if (!out.empty()) out += ' ';
    out += "pre=" + bits_text(precharge);
  }
  return out;
}

/// "a=1 b=0" over the support PIs of a satisfying cube.
std::string assignment_text(const std::vector<bool>& cube,
                            const std::vector<int>& support,
                            const std::vector<std::string>& pi_names) {
  std::string out;
  for (const int pi : support) {
    if (!out.empty()) out += ' ';
    const bool v = static_cast<std::size_t>(pi) < cube.size() &&
                   cube[static_cast<std::size_t>(pi)];
    out += format("%s=%d", pi_names[static_cast<std::size_t>(pi)].c_str(),
                  v ? 1 : 0);
  }
  return out.empty() ? "any" : out;
}

/// Build a witness from a satisfying cube over variables [0, num_pis).
ProofWitness make_witness(const std::vector<bool>& cube,
                          const std::vector<int>& support,
                          const std::vector<std::string>& pi_names,
                          std::string state) {
  ProofWitness w;
  w.pi_values = cube;
  w.pi_values.resize(pi_names.size());
  for (const int pi : support) {
    w.inputs.emplace_back(pi_names[static_cast<std::size_t>(pi)],
                          w.pi_values[static_cast<std::size_t>(pi)]);
  }
  w.state = std::move(state);
  return w;
}

/// The pulldown / foot flag / discharge list a location's `pdn` field
/// selects.
struct PdnRef {
  const Pdn& pdn;
  bool footed;
  const std::vector<DischargePoint>& discharges;
};

PdnRef select_pdn(const DominoGate& gate, int which) {
  if (which == 2) return {gate.pdn2, gate.footed2, gate.discharges2};
  return {gate.pdn, gate.footed, gate.discharges};
}

bool pdn_grounded(const DominoGate& gate, int which, GroundingPolicy policy) {
  if (which != 2) return gate_bottom_grounded(gate, policy);
  switch (policy) {
    case GroundingPolicy::kAllGrounded: return true;
    case GroundingPolicy::kNoneGrounded: return false;
    case GroundingPolicy::kFootlessGrounded: return !gate.footed2;
  }
  return false;
}

ProofRecord make_record(const std::string& rule, const LintLocation& location,
                        ProofStatus status, std::string certificate) {
  ProofRecord r;
  r.rule = rule;
  r.location = location;
  r.status = status;
  r.certificate = std::move(certificate);
  return r;
}

// ---------------------------------------------------------------------------
// pbe-protection: exact excitability of a discharge point.
// ---------------------------------------------------------------------------

/// GateConditions (domino/seqaware.cpp) with every leaf replaced by its
/// fanin-cone function, so the CHARGE/FIRE predicates range over source
/// PI assignments instead of independent per-signal variables.
class ExactPdnConditions {
 public:
  ExactPdnConditions(const DominoNetlist& netlist, const Pdn& pdn,
                     ConeFns& cone)
      : netlist_(netlist), pdn_(pdn), cone_(cone) {
    conduct_.assign(pdn.pool_size(), BddManager::kFalse);
    conduct_lit_.assign(pdn.pool_size(), BddManager::kFalse);
    ctx_.assign(pdn.pool_size(), BddManager::kFalse);
    ext_.assign(pdn.pool_size(), BddManager::kFalse);
    build_conduct(pdn.root());
    ctx_[pdn.root()] = BddManager::kTrue;
    ext_[pdn.root()] = BddManager::kTrue;
    build_context(pdn.root());
  }

  /// Bottom-charge predicate: conduction from the dynamic node to the
  /// bottom through PI-literal leaves only (gate outputs are precharge
  /// low when the bottom can float).
  BddManager::Ref bottom_charge() const { return conduct_lit_[pdn_.root()]; }

  /// CHARGE: a conducting path from the dynamic node down to the
  /// junction.  FIRE: the junction pulled to the bottom with no dynamic-
  /// node path reaching it.
  std::pair<BddManager::Ref, BddManager::Ref> junction_charge_fire(
      const DischargePoint& point) const {
    const PdnNode& s = pdn_.node(point.series_node);
    SOIDOM_ASSERT(s.kind == PdnKind::kSeries &&
                  point.pos + 1 < s.children.size());
    BddManager& m = cone_.manager();
    auto conj = [&](std::size_t from, std::size_t to) {
      auto acc = BddManager::kTrue;
      for (std::size_t k = from; k < to; ++k) {
        acc = m.apply_and(acc, conduct_[s.children[k]]);
      }
      return acc;
    };
    const auto charge =
        m.apply_and(ctx_[point.series_node], conj(0, point.pos + 1));
    const auto below = m.apply_and(conj(point.pos + 1, s.children.size()),
                                   ext_[point.series_node]);
    const auto fire = m.apply_and(below, m.negate(charge));
    return {charge, fire};
  }

 private:
  void build_conduct(PdnIndex i) {
    const PdnNode& n = pdn_.node(i);
    BddManager& m = cone_.manager();
    switch (n.kind) {
      case PdnKind::kLeaf:
        conduct_[i] = cone_.fn(n.signal);
        conduct_lit_[i] = netlist_.is_input_signal(n.signal)
                              ? conduct_[i]
                              : BddManager::kFalse;
        break;
      case PdnKind::kSeries: {
        auto all = BddManager::kTrue;
        auto all_lit = BddManager::kTrue;
        for (const PdnIndex c : n.children) {
          build_conduct(c);
          all = m.apply_and(all, conduct_[c]);
          all_lit = m.apply_and(all_lit, conduct_lit_[c]);
        }
        conduct_[i] = all;
        conduct_lit_[i] = all_lit;
        break;
      }
      case PdnKind::kParallel: {
        auto any = BddManager::kFalse;
        auto any_lit = BddManager::kFalse;
        for (const PdnIndex c : n.children) {
          build_conduct(c);
          any = m.apply_or(any, conduct_[c]);
          any_lit = m.apply_or(any_lit, conduct_lit_[c]);
        }
        conduct_[i] = any;
        conduct_lit_[i] = any_lit;
        break;
      }
    }
  }

  void build_context(PdnIndex i) {
    const PdnNode& n = pdn_.node(i);
    BddManager& m = cone_.manager();
    if (n.kind == PdnKind::kLeaf) return;
    if (n.kind == PdnKind::kParallel) {
      for (const PdnIndex c : n.children) {
        ctx_[c] = ctx_[i];
        ext_[c] = ext_[i];
        build_context(c);
      }
      return;
    }
    auto prefix = ctx_[i];
    for (std::size_t k = 0; k < n.children.size(); ++k) {
      ctx_[n.children[k]] = prefix;
      prefix = m.apply_and(prefix, conduct_[n.children[k]]);
    }
    auto suffix = ext_[i];
    for (std::size_t k = n.children.size(); k-- > 0;) {
      ext_[n.children[k]] = suffix;
      suffix = m.apply_and(suffix, conduct_[n.children[k]]);
    }
    for (const PdnIndex c : n.children) build_context(c);
  }

  const DominoNetlist& netlist_;
  const Pdn& pdn_;
  ConeFns& cone_;
  std::vector<BddManager::Ref> conduct_;
  std::vector<BddManager::Ref> conduct_lit_;
  std::vector<BddManager::Ref> ctx_;
  std::vector<BddManager::Ref> ext_;
};

/// Recover the DischargePoint a pbe-protection finding labels ("bottom" /
/// canonical "jN").  nullopt when the label does not resolve.
std::optional<DischargePoint> point_of_label(const Pdn& pdn,
                                             const std::string& label) {
  if (label == "bottom") return DischargePoint{};
  if (label.size() < 2 || label[0] != 'j') return std::nullopt;
  int index = 0;
  if (!parse_int_strict(label.substr(1), &index) || index < 0) {
    return std::nullopt;
  }
  const std::vector<DischargePoint> junctions = canonical_junctions(pdn);
  if (static_cast<std::size_t>(index) >= junctions.size()) {
    return std::nullopt;
  }
  return junctions[static_cast<std::size_t>(index)];
}

ProofRecord refine_pbe_protection(const DominoNetlist& netlist,
                                  const std::string& rule,
                                  const LintLocation& location,
                                  const LintOptions& lint_options,
                                  const ProveOptions& options,
                                  const std::vector<std::string>& pi_names) {
  const DominoGate& gate =
      netlist.gates()[static_cast<std::size_t>(location.gate)];
  const PdnRef ref = select_pdn(gate, location.pdn);
  const std::optional<DischargePoint> point =
      point_of_label(ref.pdn, location.detail);
  if (!point.has_value()) {
    return make_record(rule, location, ProofStatus::kUnknown,
                       format("point label '%s' does not resolve to a "
                              "junction of this pulldown",
                              location.detail.c_str()));
  }
  // Cross-check against the re-derived requirement so a stale finding
  // (netlist edited between lint and prove) cannot be mis-refined.
  const PbeAnalysis analysis = analyze_pbe(
      ref.pdn, pdn_grounded(gate, location.pdn, lint_options.grounding),
      lint_options.pending_model);
  if (std::find(analysis.required.begin(), analysis.required.end(), *point) ==
      analysis.required.end()) {
    return make_record(rule, location, ProofStatus::kUnknown,
                       format("point %s is not PBE-required under the "
                              "current lint options; finding left as-is",
                              location.detail.c_str()));
  }

  BddManager manager(static_cast<unsigned>(source_pi_space(netlist)),
                     options.node_budget);
  ConeFns cone(netlist, manager);
  const ExactPdnConditions cond(netlist, ref.pdn, cone);

  if (point->at_bottom()) {
    const auto charge = cond.bottom_charge();
    if (!ref.footed || charge == BddManager::kFalse) {
      return make_record(
          rule, location, ProofStatus::kRefuted,
          ref.footed
              ? "no source-PI assignment charges the stack bottom through "
                "PI literals during precharge (cone-exact UNSAT)"
              : "footless stack: the bottom is clock-grounded during "
                "precharge and can never float high");
    }
    const auto cube = manager.any_sat(charge);
    SOIDOM_ASSERT(cube.has_value());
    const std::vector<int> support = cone.support();
    ProofWitness w = make_witness(*cube, support, pi_names,
                                  "bottom charged high during precharge");
    ProofRecord r = make_record(
        rule, location, ProofStatus::kConfirmed,
        format("stack bottom charges high during precharge under %s "
               "(body charging is multi-cycle, not single-step replayable)",
               assignment_text(*cube, support, pi_names).c_str()));
    r.witness = std::move(w);
    return r;
  }

  const auto [charge, fire] = cond.junction_charge_fire(*point);
  if (charge == BddManager::kFalse) {
    return make_record(rule, location, ProofStatus::kRefuted,
                       "no source-PI assignment conducts from the dynamic "
                       "node down to the junction (CHARGE cone-exact UNSAT)");
  }
  if (fire == BddManager::kFalse) {
    return make_record(
        rule, location, ProofStatus::kRefuted,
        "every assignment pulling the junction to the bottom also opens "
        "the top path (FIRE cone-exact UNSAT: any discharge is a "
        "legitimate evaluation)");
  }
  const auto charge_cube = manager.any_sat(charge);
  const auto fire_cube = manager.any_sat(fire);
  SOIDOM_ASSERT(charge_cube.has_value() && fire_cube.has_value());
  const std::vector<int> support = cone.support();
  ProofRecord r = make_record(
      rule, location, ProofStatus::kConfirmed,
      format("junction chargeable under %s, fireable under %s (charge and "
             "fire are different cycles; not single-step replayable)",
             assignment_text(*charge_cube, support, pi_names).c_str(),
             assignment_text(*fire_cube, support, pi_names).c_str()));
  r.witness = make_witness(*fire_cube, support, pi_names,
                           format("junction %s fires with the top path off",
                                  location.detail.c_str()));
  return r;
}

// ---------------------------------------------------------------------------
// csa.*: reachability-restricted re-enumeration with replay prediction.
// ---------------------------------------------------------------------------

/// Closed-form prediction of what SoiSimulator observes on a single step
/// from reset under a PI cube consistent with the enumerated state (see
/// file comment).  Returns the predicted DroopProbe observation, or
/// nullopt when the state's precharge snapshot is not what the first
/// cycle produces (the state is reachable, just not in one step).
std::optional<double> predict_replay(const CsaPdnModel& model,
                                     const std::vector<double>& caps,
                                     const std::vector<std::uint32_t>& signals,
                                     const std::vector<std::uint16_t>& free_nodes,
                                     const DominoNetlist& netlist,
                                     const std::vector<bool>& inputs,
                                     const std::vector<bool>& precharge) {
  const auto num_nodes = static_cast<std::size_t>(model.num_nodes);
  const auto bit_of = [&](std::uint32_t sig) {
    const auto it = std::lower_bound(signals.begin(), signals.end(), sig);
    SOIDOM_ASSERT(it != signals.end() && *it == sig);
    return inputs[static_cast<std::size_t>(it - signals.begin())];
  };
  // Precharge conduction: only PI-literal devices whose literal is true
  // under the cube conduct (gate outputs are precharge low from reset).
  std::vector<bool> lit_on(model.devices.size(), false);
  for (std::size_t t = 0; t < model.devices.size(); ++t) {
    lit_on[t] = netlist.is_input_signal(model.devices[t].signal) &&
                bit_of(model.devices[t].signal);
  }
  std::vector<bool> component;
  std::vector<std::uint16_t> stack;
  const bool touches_bottom =
      csa_flood(model, lit_on, /*clamp_bottom=*/false, component, stack);
  std::vector<bool> pre_high(num_nodes, false);
  if (!model.footed && touches_bottom) {
    // Footless gates are clock-grounded during precharge: the component
    // drains, only the (driven) dynamic node ends high.
  } else {
    // The dynamic node's component settles high behind the precharge
    // device; floaters keep their (reset-low) charge.
    pre_high = component;
  }
  pre_high[kCsaDynamicNode] = true;
  for (const std::uint16_t n : model.discharged) pre_high[n] = false;
  for (std::size_t i = 0; i < free_nodes.size(); ++i) {
    if (pre_high[free_nodes[i]] != precharge[i]) return std::nullopt;
  }
  // Evaluate-phase observation: the dynamic node's component over the
  // actually-ON devices (first cycle: zero parasitic firings, bodies are
  // still cold), clamped at the bottom terminal.
  std::vector<bool> on(model.devices.size(), false);
  for (std::size_t t = 0; t < model.devices.size(); ++t) {
    on[t] = bit_of(model.devices[t].signal);
  }
  std::vector<bool> member;
  csa_flood(model, on, /*clamp_bottom=*/true, member, stack);
  double shared_low = 0.0;
  double total = 0.0;
  for (std::size_t v = 0; v < num_nodes; ++v) {
    if (!member[v]) continue;
    total += caps[v];
    if (!pre_high[v]) shared_low += caps[v];
  }
  if (total <= 0.0) return std::nullopt;
  const double vdd_share = shared_low / total;
  return vdd_share;  // multiplied by vdd by the caller
}

ProofRecord refine_csa(const DominoNetlist& netlist, const std::string& rule,
                       const LintLocation& location,
                       const CsaOptions& csa_options,
                       const SizingResult* sizing, const ProveOptions& options,
                       const std::vector<std::string>& pi_names) {
  const auto g = static_cast<std::size_t>(location.gate);
  const DominoGate& gate = netlist.gates()[g];
  const PdnRef ref = select_pdn(gate, location.pdn);
  const CsaPdnModel model =
      build_csa_model(ref.pdn, ref.discharges, ref.footed);
  std::vector<double> widths(model.devices.size(), 1.0);
  if (sizing != nullptr) {
    const std::size_t offset =
        location.pdn == 2 ? gate.pdn.leaf_signals().size() : 0;
    const std::vector<double>& all = sizing->gates[g].pulldown_widths;
    SOIDOM_ASSERT(offset + widths.size() <= all.size());
    std::copy_n(all.begin() + static_cast<std::ptrdiff_t>(offset),
                widths.size(), widths.begin());
  }
  const std::vector<double> caps =
      csa_node_caps(model, widths, csa_options.charge);
  const std::vector<std::uint32_t> signals = csa_state_signals(model);
  const std::vector<std::uint16_t> free_nodes = csa_free_nodes(model);

  BddManager manager(static_cast<unsigned>(source_pi_space(netlist)),
                     options.node_budget);
  ConeFns cone(netlist, manager);
  std::vector<BddManager::Ref> fns(signals.size());
  for (std::size_t i = 0; i < signals.size(); ++i) {
    fns[i] = cone.fn(signals[i]);
  }
  const auto reach_of = [&](const std::vector<bool>& inputs) {
    auto acc = BddManager::kTrue;
    for (std::size_t i = 0; i < fns.size(); ++i) {
      acc = manager.apply_and(acc,
                              inputs[i] ? fns[i] : manager.negate(fns[i]));
    }
    return acc;
  };

  // Tracked across the enumeration: the refined worst state, the first
  // keeper-flip state, and the best single-step-replayable state.
  struct Tracked {
    bool have = false;
    std::vector<bool> inputs;
    std::vector<bool> precharge;
    double droop = 0.0;
    double predicted = 0.0;
  };
  Tracked worst;
  Tracked flip_state;
  Tracked replay;
  const double vdd = csa_options.charge.vdd;

  CsaStateCallbacks callbacks;
  callbacks.admit = [&](const std::vector<bool>& inputs) {
    return reach_of(inputs) != BddManager::kFalse;
  };
  callbacks.visit = [&](const std::vector<bool>& inputs,
                        const std::vector<bool>& precharge, double droop,
                        double /*share_cap*/, int /*firings*/, bool flip) {
    if (droop > worst.droop || !worst.have) {
      if (droop > worst.droop) {
        worst = Tracked{true, inputs, precharge, droop, 0.0};
      } else if (!worst.have) {
        worst = Tracked{true, inputs, precharge, droop, 0.0};
      }
    }
    if (flip && !flip_state.have) {
      flip_state = Tracked{true, inputs, precharge, droop, 0.0};
    }
    const std::optional<double> share = predict_replay(
        model, caps, signals, free_nodes, netlist, inputs, precharge);
    if (share.has_value()) {
      const double predicted = vdd * *share;
      if (predicted > replay.predicted) {
        replay = Tracked{true, inputs, precharge, droop, predicted};
      }
    }
  };
  const CsaPulldownBound bound =
      bound_pulldown(model, caps, csa_options, callbacks);

  if (bound.truncated) {
    return make_record(
        rule, location, ProofStatus::kUnknown,
        format("state space exceeds max_states=%ld; the enumeration "
               "fell back to the pointwise-max bound, which the exact "
               "tier cannot refine",
               csa_options.max_states));
  }

  const auto witness_of = [&](const Tracked& t, bool replayable,
                              double predicted) {
    const auto cube = manager.any_sat(reach_of(t.inputs));
    SOIDOM_ASSERT(cube.has_value());
    ProofWitness w = make_witness(*cube, cone.support(), pi_names,
                                  csa_state_text(t.inputs, t.precharge));
    w.replayable = replayable;
    w.predicted_droop = predicted;
    return w;
  };

  if (rule == "csa.pbe-discharge") {
    if (!bound.keeper_overpowered) {
      return make_record(
          rule, location, ProofStatus::kRefuted,
          format("no reachable input assignment fires enough parasitic "
                 "devices against keeper strength %d with ground reachable "
                 "(cone-exact re-enumeration; residual droop bound %.3f V)",
                 csa_options.keeper_strength, bound.droop));
    }
    SOIDOM_ASSERT(flip_state.have);
    ProofRecord r = make_record(
        rule, location, ProofStatus::kConfirmed,
        format("keeper-overpowering state %s is reachable under %s (body "
               "charging needs multiple cycles; not single-step replayable)",
               csa_state_text(flip_state.inputs, flip_state.precharge).c_str(),
               assignment_text(*manager.any_sat(reach_of(flip_state.inputs)),
                               cone.support(), pi_names)
                   .c_str()));
    r.witness = witness_of(flip_state, /*replayable=*/false, 0.0);
    return r;
  }

  SOIDOM_ASSERT(rule == "csa.droop-margin");
  const double limit = csa_options.margin * vdd;
  if (bound.droop < limit) {
    return make_record(
        rule, location, ProofStatus::kRefuted,
        format("exact cone reachability caps the droop bound at %.3f V, "
               "below the %.3f V margin; the conservative bound rested on "
               "unreachable input assignments",
               bound.droop, limit));
  }
  if (replay.have) {
    ProofRecord r = make_record(
        rule, location, ProofStatus::kConfirmed,
        format("reachable state %s droops %.3f V (>= margin %.3f V); a "
               "single-cycle replay is predicted to observe %.3f V",
               csa_state_text(replay.inputs, replay.precharge).c_str(),
               replay.droop, limit, replay.predicted));
    r.witness = witness_of(replay, /*replayable=*/true, replay.predicted);
    return r;
  }
  SOIDOM_ASSERT(worst.have);
  ProofRecord r = make_record(
      rule, location, ProofStatus::kConfirmed,
      format("reachable state %s droops %.3f V (>= margin %.3f V); its "
             "precharge snapshot needs more than one cycle to set up",
             csa_state_text(worst.inputs, worst.precharge).c_str(),
             worst.droop, limit));
  r.witness = witness_of(worst, /*replayable=*/false, 0.0);
  return r;
}

// ---------------------------------------------------------------------------
// race.inversion-parity: transient-vs-settled conduction.
// ---------------------------------------------------------------------------

/// Re-derivation of the parity dataflow's conflicted source PIs: per
/// node, the set of (source PI, phase) literals required by EVERY
/// conducting assignment; a series union holding both phases of one PI
/// records a conflict.
struct ConflictWalker {
  const Pdn& pdn;
  const DominoNetlist& netlist;
  std::vector<int> conflicts;

  using Literal = std::pair<int, bool>;

  std::vector<Literal> walk(PdnIndex i) {
    const PdnNode& n = pdn.node(i);
    switch (n.kind) {
      case PdnKind::kLeaf: {
        if (!netlist.is_input_signal(n.signal)) return {};
        const InputLiteral& lit = netlist.inputs()[n.signal];
        return {Literal{lit.source_pi, lit.negated}};
      }
      case PdnKind::kSeries: {
        std::vector<Literal> required;
        for (const PdnIndex c : n.children) {
          std::vector<Literal> child = walk(c);
          std::vector<Literal> merged;
          merged.reserve(required.size() + child.size());
          std::set_union(required.begin(), required.end(), child.begin(),
                         child.end(), std::back_inserter(merged));
          required = std::move(merged);
        }
        for (std::size_t k = 0; k + 1 < required.size(); ++k) {
          if (required[k].first == required[k + 1].first &&
              !required[k].second && required[k + 1].second) {
            const int pi = required[k].first;
            const auto it =
                std::lower_bound(conflicts.begin(), conflicts.end(), pi);
            if (it == conflicts.end() || *it != pi) conflicts.insert(it, pi);
          }
        }
        return required;
      }
      case PdnKind::kParallel: {
        std::vector<Literal> required = walk(n.children[0]);
        for (std::size_t k = 1; k < n.children.size(); ++k) {
          if (required.empty()) break;
          std::vector<Literal> child = walk(n.children[k]);
          std::vector<Literal> merged;
          std::set_intersection(required.begin(), required.end(),
                                child.begin(), child.end(),
                                std::back_inserter(merged));
          required = std::move(merged);
        }
        return required;
      }
    }
    return {};
  }
};

ProofRecord refine_inversion_parity(
    const DominoNetlist& netlist, const std::string& rule,
    const LintLocation& location, const ProveOptions& options,
    const std::vector<std::string>& pi_names) {
  const DominoGate& gate =
      netlist.gates()[static_cast<std::size_t>(location.gate)];
  const PdnRef ref = select_pdn(gate, location.pdn);
  ConflictWalker walker{ref.pdn, netlist, {}};
  walker.walk(ref.pdn.root());
  if (walker.conflicts.empty()) {
    return make_record(rule, location, ProofStatus::kUnknown,
                       "re-derived parity dataflow finds no conflicted PI; "
                       "finding left as-is");
  }

  // Distinct fanin-gate leaves get free variables above the PI space for
  // the refutation superset (no first-failure assumption there).
  std::vector<std::uint32_t> gate_leaves;
  for (const std::uint32_t sig : ref.pdn.leaf_signals()) {
    if (!netlist.is_input_signal(sig)) gate_leaves.push_back(sig);
  }
  std::sort(gate_leaves.begin(), gate_leaves.end());
  gate_leaves.erase(std::unique(gate_leaves.begin(), gate_leaves.end()),
                    gate_leaves.end());
  const auto num_pis = static_cast<unsigned>(source_pi_space(netlist));
  BddManager manager(num_pis + static_cast<unsigned>(gate_leaves.size()),
                     options.node_budget);
  ConeFns cone(netlist, manager);
  const auto free_var_of = [&](std::uint32_t sig) {
    const auto it =
        std::lower_bound(gate_leaves.begin(), gate_leaves.end(), sig);
    SOIDOM_ASSERT(it != gate_leaves.end() && *it == sig);
    return manager.var(
        num_pis + static_cast<unsigned>(it - gate_leaves.begin()));
  };

  int refuted = 0;
  std::string pending;
  for (const int p : walker.conflicts) {
    guard_checkpoint();
    // Transient: both phases of p momentarily high (p's literal lines
    // switching at different times); everything else settled, fanin
    // gates at their settled cone values (which see p's settled value,
    // the free variable p itself).
    const auto leaf_glitch = [&](std::uint32_t sig) {
      if (!netlist.is_input_signal(sig)) return cone.fn(sig);
      const InputLiteral& lit = netlist.inputs()[sig];
      if (lit.source_pi == p) return BddManager::kTrue;
      return cone.literal_fn(lit);
    };
    const auto leaf_settled = [&](std::uint32_t sig) {
      if (!netlist.is_input_signal(sig)) return cone.fn(sig);
      return cone.literal_fn(netlist.inputs()[sig]);
    };
    const auto glitch =
        pdn_conduction(manager, ref.pdn, ref.pdn.root(), leaf_glitch);
    const auto settled =
        pdn_conduction(manager, ref.pdn, ref.pdn.root(), leaf_settled);
    const auto hazard = manager.apply_and(glitch, manager.negate(settled));
    if (hazard != BddManager::kFalse) {
      const auto cube = manager.any_sat(hazard);
      SOIDOM_ASSERT(cube.has_value());
      std::vector<int> support = cone.support();
      if (std::find(support.begin(), support.end(), p) == support.end()) {
        support.insert(
            std::lower_bound(support.begin(), support.end(), p), p);
      }
      const std::string& pname = pi_names[static_cast<std::size_t>(p)];
      ProofRecord r = make_record(
          rule, location, ProofStatus::kConfirmed,
          format("while '%s' switches (both phases transiently high) the "
                 "pulldown conducts under %s although the settled "
                 "assignment does not: a real mid-evaluate glitch "
                 "discharge (not single-step replayable; soisim does not "
                 "model intra-evaluate PI transitions)",
                 pname.c_str(),
                 assignment_text(*cube, support, pi_names).c_str()));
      r.witness = make_witness(
          *cube, support, pi_names,
          format("transient conduction with both phases of '%s' high",
                 pname.c_str()));
      return r;
    }
    // Refutation superset: fanin-gate leaves freed entirely, so the
    // verdict does not rest on upstream gates evaluating correctly.
    const auto leaf_glitch_free = [&](std::uint32_t sig) {
      if (!netlist.is_input_signal(sig)) return free_var_of(sig);
      const InputLiteral& lit = netlist.inputs()[sig];
      if (lit.source_pi == p) return BddManager::kTrue;
      return cone.literal_fn(lit);
    };
    const auto leaf_settled_free = [&](std::uint32_t sig) {
      if (!netlist.is_input_signal(sig)) return free_var_of(sig);
      return cone.literal_fn(netlist.inputs()[sig]);
    };
    const auto glitch_free =
        pdn_conduction(manager, ref.pdn, ref.pdn.root(), leaf_glitch_free);
    const auto settled_free =
        pdn_conduction(manager, ref.pdn, ref.pdn.root(), leaf_settled_free);
    if (manager.apply_and(glitch_free, manager.negate(settled_free)) ==
        BddManager::kFalse) {
      ++refuted;
    } else {
      if (!pending.empty()) pending += ", ";
      pending += format("'%s'", pi_names[static_cast<std::size_t>(p)].c_str());
    }
  }
  if (refuted == static_cast<int>(walker.conflicts.size())) {
    return make_record(
        rule, location, ProofStatus::kRefuted,
        format("for every conflicted PI (%d), any transient conduction "
               "implies settled conduction even with fanin-gate values "
               "free: the glitch can only cause a discharge the settled "
               "assignment causes anyway",
               refuted));
  }
  return make_record(
      rule, location, ProofStatus::kUnknown,
      format("transient conduction for %s depends on fanin-gate values "
             "unreachable under settled evaluation; not decidable in the "
             "single-cycle model",
             pending.c_str()));
}

// ---------------------------------------------------------------------------
// race.static-mix: two-cycle precharge-conduction reachability.
// ---------------------------------------------------------------------------

ProofRecord refine_static_mix(const DominoNetlist& netlist,
                              const std::string& rule,
                              const LintLocation& location,
                              const RaceReport& race_report,
                              const ProveOptions& options,
                              const std::vector<std::string>& pi_names) {
  const DominoGate& gate =
      netlist.gates()[static_cast<std::size_t>(location.gate)];
  const PdnRef ref = select_pdn(gate, location.pdn);
  const auto num_pis = static_cast<unsigned>(source_pi_space(netlist));
  BddManager manager(2 * num_pis, options.node_budget);
  ConeFns cone_cur(netlist, manager, /*var_base=*/0);
  ConeFns cone_prev(netlist, manager, /*var_base=*/num_pis);
  const auto stale = [&](std::uint32_t sig) {
    const std::uint32_t fg = netlist.gate_of_signal(sig);
    return race_report.gates[fg].stale_high;
  };
  // PI literals hold their (settled, phase-consistent) current-cycle
  // values during precharge; a stale driver holds its PREVIOUS evaluate
  // output; a properly precharged driver is low.
  const auto leaf = [&](std::uint32_t sig) {
    if (netlist.is_input_signal(sig)) {
      return cone_cur.literal_fn(netlist.inputs()[sig]);
    }
    return stale(sig) ? cone_prev.fn(sig) : BddManager::kFalse;
  };
  const auto conduct =
      pdn_conduction(manager, ref.pdn, ref.pdn.root(), leaf);
  if (conduct == BddManager::kFalse) {
    return make_record(
        rule, location, ProofStatus::kRefuted,
        "no current-cycle PI assignment combined with any previous-cycle "
        "stale-driver value conducts during precharge (phase-consistent "
        "literals make the crowbar path unsatisfiable)");
  }
  const auto leaf_pi_only = [&](std::uint32_t sig) {
    if (netlist.is_input_signal(sig)) {
      return cone_cur.literal_fn(netlist.inputs()[sig]);
    }
    return BddManager::kFalse;
  };
  const auto conduct_pi =
      pdn_conduction(manager, ref.pdn, ref.pdn.root(), leaf_pi_only);
  if (conduct_pi != BddManager::kFalse) {
    const auto cube = manager.any_sat(conduct_pi);
    SOIDOM_ASSERT(cube.has_value());
    const std::vector<int> support = cone_cur.support();
    ProofRecord r = make_record(
        rule, location, ProofStatus::kConfirmed,
        format("the crowbar path closes through PI literals alone under "
               "%s: every precharge of this footless pulldown fights the "
               "precharge device (single-step replayable)",
               assignment_text(*cube, support, pi_names).c_str()));
    r.witness = make_witness(*cube, support, pi_names,
                             "precharge conduction through PI literals");
    r.witness->replayable = true;
    return r;
  }
  return make_record(
      rule, location, ProofStatus::kUnknown,
      "precharge conduction requires a stale-high driver; whether the "
      "driver actually overruns its precharge window is a conservative "
      "timing bound the Boolean model cannot sharpen");
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

enum class Family : std::uint8_t { kLint, kCsa, kRace };

struct Target {
  Family family = Family::kLint;
  std::size_t finding = 0;  ///< index into the family's findings vector
  std::string rule;
  LintLocation location;
};

bool provable_csa_rule(const std::string& rule) {
  return rule == "csa.pbe-discharge" || rule == "csa.droop-margin";
}

bool provable_race_rule(const std::string& rule) {
  return rule == "race.inversion-parity" || rule == "race.static-mix";
}

}  // namespace

std::string ProveReport::summary() const {
  if (targets() == 0) return "clean";
  return format("%d confirmed, %d refuted, %d unknown", confirmed, refuted,
                unknown);
}

std::string ProveReport::to_json() const {
  std::string out = format(
      R"({"node_budget":%u,"targets":%d,"confirmed":%d,"refuted":%d,)"
      R"("unknown":%d,"budget_hits":%d,"records":[)",
      node_budget, targets(), confirmed, refuted, unknown, budget_hits);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ProofRecord& r = records[i];
    if (i) out += ',';
    out += format(
        R"({"rule":"%s","location":"%s","status":"%s","certificate":"%s")",
        json_escape(r.rule).c_str(),
        json_escape(r.location.qualified_name()).c_str(),
        proof_status_name(r.status), json_escape(r.certificate).c_str());
    if (r.witness.has_value()) {
      const ProofWitness& w = *r.witness;
      out += R"(,"witness":{"inputs":[)";
      for (std::size_t k = 0; k < w.inputs.size(); ++k) {
        if (k) out += ',';
        out += format(R"({"name":"%s","value":%s})",
                      json_escape(w.inputs[k].first).c_str(),
                      w.inputs[k].second ? "true" : "false");
      }
      std::string pi_bits;
      for (const bool b : w.pi_values) pi_bits += b ? '1' : '0';
      out += format(
          R"(],"pi_values":"%s","state":"%s","replayable":%s,)"
          R"("predicted_droop":%.9g})",
          pi_bits.c_str(), json_escape(w.state).c_str(),
          w.replayable ? "true" : "false", w.predicted_droop);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void validate(const ProveOptions& options) {
  SOIDOM_REQUIRE(options.node_budget >= 2 &&
                     options.node_budget <= BddManager::kMaxNodeLimit,
                 format("ProveOptions.node_budget = %u is invalid "
                        "(need 2 <= node_budget <= %zu)",
                        options.node_budget, BddManager::kMaxNodeLimit));
}

ProveReport run_prove(const DominoNetlist& netlist, LintReport* lint,
                      CsaResult* csa, RaceResult* race,
                      const LintOptions& lint_options,
                      const CsaOptions& csa_options,
                      const ProveOptions& options) {
  validate(options);
  StageScope stage_scope(FlowStage::kProve);
  SOIDOM_FAULT_PROBE(FlowStage::kProve);
  guard_checkpoint();

  std::vector<Target> targets;
  const auto collect = [&](Family family, const LintReport& report,
                           const auto& want) {
    for (std::size_t i = 0; i < report.findings.size(); ++i) {
      const Finding& f = report.findings[i];
      if (f.waived || !want(f)) continue;
      targets.push_back(Target{family, i, f.rule, f.location});
    }
  };
  if (options.refine_lint && lint != nullptr) {
    collect(Family::kLint, *lint, [](const Finding& f) {
      return f.rule == "pbe-protection" && f.severity == LintSeverity::kError;
    });
  }
  if (options.refine_csa && csa != nullptr) {
    collect(Family::kCsa, csa->lint,
            [](const Finding& f) { return provable_csa_rule(f.rule); });
  }
  if (options.refine_race && race != nullptr) {
    collect(Family::kRace, race->lint,
            [](const Finding& f) { return provable_race_rule(f.rule); });
  }

  ProveReport report;
  report.node_budget = options.node_budget;
  if (targets.empty()) return report;

  std::optional<SizingResult> sizing;
  if (csa_options.use_sizing &&
      std::any_of(targets.begin(), targets.end(), [](const Target& t) {
        return t.family == Family::kCsa;
      })) {
    sizing = size_netlist(netlist, csa_options.sizing);
  }
  const std::vector<std::string> pi_names = source_pi_names(netlist);

  struct Slot {
    ProofRecord record;
    bool budget_hit = false;
  };
  std::vector<Slot> slots(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    guard_checkpoint();
    const Target& t = targets[i];
    Slot& slot = slots[i];
    try {
      if (t.family == Family::kLint) {
        slot.record = refine_pbe_protection(netlist, t.rule, t.location,
                                            lint_options, options, pi_names);
      } else if (t.family == Family::kCsa) {
        slot.record = refine_csa(netlist, t.rule, t.location, csa_options,
                                 sizing ? &*sizing : nullptr, options,
                                 pi_names);
      } else if (t.rule == "race.inversion-parity") {
        slot.record = refine_inversion_parity(netlist, t.rule, t.location,
                                              options, pi_names);
      } else {
        slot.record = refine_static_mix(netlist, t.rule, t.location,
                                        race->report, options, pi_names);
      }
    } catch (const GuardError& e) {
      // Only a cone blow-up is an in-band unknown; cancellation, deadline,
      // and resource-budget trips keep propagating.
      if (e.code() != ErrorCode::kBddNodeLimit) throw;
      slot.record = make_record(
          t.rule, t.location, ProofStatus::kUnknown,
          format("proof node budget (%u) exceeded: %s; conservative "
                 "verdict kept",
                 options.node_budget, e.what()));
      slot.budget_hit = true;
    }
  }

  // The findings change only once every target has its verdict, applied
  // in target order: (lint, csa, race) x finding order.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const Target& t = targets[i];
    Slot& slot = slots[i];
    switch (slot.record.status) {
      case ProofStatus::kConfirmed: ++report.confirmed; break;
      case ProofStatus::kRefuted: ++report.refuted; break;
      default: ++report.unknown; break;
    }
    if (slot.budget_hit) ++report.budget_hits;
    LintReport& owner = t.family == Family::kLint ? *lint
                        : t.family == Family::kCsa ? csa->lint
                                                   : race->lint;
    Finding& f = owner.findings[t.finding];
    f.proof = slot.record.status;
    f.original_severity = f.severity;
    f.proof_note = slot.record.certificate;
    if (slot.record.status == ProofStatus::kRefuted) {
      f.severity = LintSeverity::kInfo;
    }
    report.records.push_back(std::move(slot.record));
  }

  if (options.fail_on_budget && report.budget_hits > 0) {
    throw GuardError(
        ErrorCode::kProofTimeout, FlowStage::kProve,
        format("%d of %d proof obligations exceeded the node budget (%u)",
               report.budget_hits, report.targets(), options.node_budget));
  }
  return report;
}

}  // namespace soidom
