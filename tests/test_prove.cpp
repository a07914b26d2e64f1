/// \file test_prove.cpp
/// Exact proof tier (src/prove): refutation/confirmation semantics, the
/// witness-replay oracle pinning every replayable confirmed finding to an
/// observed soisim hazard (zero false confirms), the refuted-never-
/// violates oracle, pinned report bytes, budget/strict behavior, and
/// batch journal round-tripping of proof counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "soidom/base/fileio.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/batch/runner.hpp"
#include "soidom/bdd/bdd.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/csa/csa.hpp"
#include "soidom/prove/cone.hpp"
#include "soidom/prove/prove.hpp"
#include "soidom/sizing/sizing.hpp"
#include "soidom/soisim/soisim.hpp"

namespace soidom {
namespace {

/// Flow options with the whole analyzer stack + proof tier on.  The tight
/// droop margin makes csa.droop-margin findings plentiful so the proof
/// tier has real work on the small table circuits.
FlowOptions prove_flow(double margin = 0.05) {
  FlowOptions options;
  options.verify_rounds = 0;
  options.csa = true;
  options.csa_options.margin = margin;
  options.race = true;
  options.prove = true;
  return options;
}

/// The finding a proof record refined: same rule, same location.
const Finding* find_refined(const FlowResult& result, const ProofRecord& rec) {
  const auto scan = [&](const LintReport& report) -> const Finding* {
    for (const Finding& f : report.findings) {
      if (f.rule == rec.rule &&
          f.location.qualified_name() == rec.location.qualified_name()) {
        return &f;
      }
    }
    return nullptr;
  };
  if (const Finding* f = scan(result.lint)) return f;
  if (result.csa.has_value()) {
    if (const Finding* f = scan(result.csa->lint)) return f;
  }
  if (result.race.has_value()) {
    if (const Finding* f = scan(result.race->lint)) return f;
  }
  return nullptr;
}

/// DroopProbes carrying exactly the capacitance vectors run_csa (and the
/// prove stage's replay predictor) used, so the simulator's observation
/// and the predicted droop share one electrical model.
std::vector<DroopProbe> make_droop_probes(const DominoNetlist& nl,
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

std::vector<RaceProbe> trivial_race_probes(const DominoNetlist& nl) {
  return std::vector<RaceProbe>(nl.gates().size());
}

/// Replay every replayable confirmed witness of `result` through soisim
/// from reset and assert the predicted hazard is observed: droop-margin
/// witnesses must exhibit at least the predicted droop, static-mix
/// witnesses must record a precharge fight.  Returns the number of
/// witnesses replayed.
int replay_confirmed(const FlowResult& result, const CsaOptions& csa_opts,
                     const char* tag) {
  int replayed = 0;
  for (const ProofRecord& rec : result.prove->records) {
    if (rec.status != ProofStatus::kConfirmed) continue;
    EXPECT_TRUE(rec.witness.has_value()) << tag << " " << rec.rule;
    if (!rec.witness.has_value() || !rec.witness->replayable) continue;
    EXPECT_GE(rec.location.gate, 0) << tag;
    if (rec.location.gate < 0) continue;
    const auto gate = static_cast<std::uint32_t>(rec.location.gate);
    const std::vector<bool>& pi = rec.witness->pi_values;
    EXPECT_EQ(pi.size(), source_pi_space(result.netlist)) << tag;
    if (pi.size() != source_pi_space(result.netlist)) continue;
    SoiSimConfig config;
    config.keeper_strength = csa_opts.keeper_strength;
    SoiSimulator sim(result.netlist, config);
    if (rec.rule == "csa.droop-margin") {
      sim.enable_droop(make_droop_probes(result.netlist, csa_opts));
      sim.step(pi);
      EXPECT_GT(rec.witness->predicted_droop, 0.0) << tag;
      EXPECT_GE(sim.max_droop(gate) + 1e-9, rec.witness->predicted_droop)
          << tag << " gate " << gate << " witness under-delivered";
      ++replayed;
    } else if (rec.rule == "race.static-mix") {
      sim.enable_race(trivial_race_probes(result.netlist), RaceClockSpec{});
      sim.step(pi);
      EXPECT_GT(sim.precharge_fights(gate), 0)
          << tag << " gate " << gate << " witness caused no fight";
      ++replayed;
    }
  }
  return replayed;
}

// ---------------------------------------------------------------------------
// Flow integration.

TEST(ProveFlow, OptInPopulatesResultAndSummary) {
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), prove_flow());
  ASSERT_TRUE(outcome.result.has_value());
  ASSERT_TRUE(outcome.result->prove.has_value());
  const ProveReport& report = *outcome.result->prove;
  EXPECT_EQ(report.targets(), report.confirmed + report.refuted +
                                  report.unknown);
  EXPECT_NE(summarize(*outcome.result).find("prove="), std::string::npos);

  const FlowOutcome off = run_flow_guarded(testing::fig3_network(), {});
  ASSERT_TRUE(off.result.has_value());
  EXPECT_FALSE(off.result->prove.has_value());
}

TEST(ProveFlow, ConfirmedFindingsGateTheFlow) {
  // fig3 maps to footless stages whose droop findings confirm, so the
  // prove-aware gates must fail the flow with a structured diagnostic.
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), prove_flow());
  ASSERT_TRUE(outcome.result.has_value());
  ASSERT_GT(outcome.result->prove->confirmed, 0);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kVerificationFailed);
}

TEST(ProveFlow, BadOptionsRejectedByValidate) {
  FlowOptions options = prove_flow();
  options.prove_options.node_budget = 1;
  EXPECT_THROW(validate(options), Error);
  options.prove_options.node_budget = BddManager::kMaxNodeLimit + 1;
  EXPECT_THROW(validate(options), Error);
  options.prove_options.node_budget = BddManager::kMaxNodeLimit;
  EXPECT_NO_THROW(validate(options));
}

// ---------------------------------------------------------------------------
// Refutation: paper-table circuits carry findings no input can excite.

TEST(ProveRefutation, PaperTableRefutationsDowngradeWithCertificates) {
  int refuted_seen = 0;
  for (const char* name : {"b9", "c8"}) {
    const FlowOutcome outcome =
        run_flow_guarded(build_benchmark(name), prove_flow());
    ASSERT_TRUE(outcome.result.has_value()) << name;
    const FlowResult& result = *outcome.result;
    ASSERT_TRUE(result.prove.has_value()) << name;
    for (const ProofRecord& rec : result.prove->records) {
      if (rec.status != ProofStatus::kRefuted) continue;
      ++refuted_seen;
      EXPECT_FALSE(rec.certificate.empty()) << name << " " << rec.rule;
      EXPECT_FALSE(rec.witness.has_value()) << name;
      const Finding* f = find_refined(result, rec);
      ASSERT_NE(f, nullptr) << name << " " << rec.rule << " "
                            << rec.location.qualified_name();
      EXPECT_EQ(f->proof, ProofStatus::kRefuted);
      EXPECT_EQ(f->severity, LintSeverity::kInfo)
          << "refuted finding not downgraded";
      EXPECT_GT(f->original_severity, LintSeverity::kInfo)
          << "original severity lost";
      EXPECT_EQ(f->proof_note, rec.certificate);
    }
  }
  EXPECT_GT(refuted_seen, 0)
      << "expected at least one refutation across the table circuits";
}

TEST(ProveRefutation, ComplementarySeriesLiteralsRefuteDroopMargin) {
  // series(x, x.bar, y): the analyzer's worst droop state sets BOTH
  // phases of x high (two junctions share with the dynamic node), but no
  // input vector reaches it — the reachable worst case shares only the
  // first junction.  A margin pinned just under the conservative bound
  // is therefore flagged by csa and refuted by the proof tier.
  DominoNetlist nl;
  const std::uint32_t x = nl.add_input({"x", 0, false});
  const std::uint32_t xb = nl.add_input({"x.bar", 0, true});
  const std::uint32_t y = nl.add_input({"y", 1, false});
  DominoGate g;
  g.pdn.set_root(g.pdn.add_series(
      {g.pdn.add_leaf(x), g.pdn.add_leaf(xb), g.pdn.add_leaf(y)}));
  g.footed = true;
  nl.add_gate(g);
  nl.add_output({3u, "f", false});

  CsaOptions csa_opts;
  // A strong keeper keeps csa.pbe-discharge quiet (it would otherwise
  // supersede and suppress the droop-margin finding).
  csa_opts.keeper_strength = 100;
  const double bound = run_csa(nl, csa_opts).report.gates[0].droop();
  ASSERT_GT(bound, 0.0);
  csa_opts.margin = 0.99 * bound / csa_opts.charge.vdd;
  CsaResult csa = run_csa(nl, csa_opts);
  RaceResult race = run_race(nl, RaceOptions{});
  LintReport lint;
  const ProveReport report =
      run_prove(nl, &lint, &csa, &race, LintOptions{}, csa_opts);

  int droop_refuted = 0;
  for (const ProofRecord& rec : report.records) {
    if (rec.rule != "csa.droop-margin") continue;
    EXPECT_EQ(rec.status, ProofStatus::kRefuted) << report.to_json();
    EXPECT_FALSE(rec.certificate.empty());
    ++droop_refuted;
  }
  EXPECT_GT(droop_refuted, 0) << report.to_json();
  // The downgrade clears the droop finding from the family's error gate.
  for (const Finding& f : csa.lint.findings) {
    if (f.rule != "csa.droop-margin") continue;
    EXPECT_EQ(f.proof, ProofStatus::kRefuted);
    EXPECT_EQ(f.severity, LintSeverity::kInfo);
    EXPECT_GT(f.original_severity, LintSeverity::kInfo);
  }
}

// ---------------------------------------------------------------------------
// Confirmation: witnesses replay through soisim (zero false confirms).

TEST(ProveOracle, PaperTableWitnessesReplay) {
  int replayed = 0;
  for (const char* name : {"b9", "c8", "mux", "count", "z4ml"}) {
    const FlowOptions options = prove_flow();
    const FlowOutcome outcome =
        run_flow_guarded(build_benchmark(name), options);
    ASSERT_TRUE(outcome.result.has_value()) << name;
    ASSERT_TRUE(outcome.result->prove.has_value()) << name;
    replayed +=
        replay_confirmed(*outcome.result, options.csa_options, name);
  }
  EXPECT_GT(replayed, 0) << "no replayable witness across the corpus";
}

TEST(ProveOracle, FuzzCorpusZeroFalseConfirms) {
  // >= 200 random mapped netlists: every replayable confirmed witness
  // must reproduce its hazard, every refuted droop finding must stay
  // below the margin under random stimulus, and refuted static-mix gates
  // must never record a fight.
  int replayed = 0;
  int refuted_checked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Network source =
        testing::random_network(5, 8 + static_cast<int>(seed % 13), 3, seed);
    FlowOptions options = prove_flow(0.10);
    if (seed % 3 == 0) options.csa_options.margin = 0.25;
    const FlowOutcome outcome = run_flow_guarded(source, options);
    ASSERT_TRUE(outcome.result.has_value()) << "seed " << seed;
    const FlowResult& result = *outcome.result;
    ASSERT_TRUE(result.prove.has_value()) << "seed " << seed;
    replayed += replay_confirmed(result, options.csa_options,
                                 ("seed " + std::to_string(seed)).c_str());

    // Refuted-never-violates, via random stimulus.
    const std::size_t num_pis = source_pi_space(result.netlist);
    SoiSimConfig config;
    config.keeper_strength = options.csa_options.keeper_strength;
    SoiSimulator sim(result.netlist, config);
    sim.enable_droop(make_droop_probes(result.netlist, options.csa_options));
    sim.enable_race(trivial_race_probes(result.netlist), RaceClockSpec{});
    Rng rng(seed * 7919);
    for (int c = 0; c < 32; ++c) {
      std::vector<bool> in;
      for (std::size_t k = 0; k < num_pis; ++k) in.push_back(rng.chance(1, 2));
      sim.step(in);
    }
    for (const ProofRecord& rec : result.prove->records) {
      if (rec.status != ProofStatus::kRefuted || rec.location.gate < 0) {
        continue;
      }
      const auto gate = static_cast<std::uint32_t>(rec.location.gate);
      if (rec.rule == "csa.droop-margin") {
        EXPECT_LT(sim.max_droop(gate), options.csa_options.margin *
                                               options.csa_options.charge.vdd +
                                           1e-9)
            << "seed " << seed << " gate " << gate
            << ": refuted droop finding violated under stimulus";
        ++refuted_checked;
      } else if (rec.rule == "race.static-mix") {
        EXPECT_EQ(sim.precharge_fights(gate), 0)
            << "seed " << seed << " gate " << gate
            << ": refuted static-mix gate fought";
        ++refuted_checked;
      }
    }
  }
  EXPECT_GT(replayed, 0) << "fuzz corpus produced no replayable witnesses";
  (void)refuted_checked;  // informational; corpus may or may not refute
}

// ---------------------------------------------------------------------------
// Byte identity of the proof report and the refined SARIF.

TEST(ProveGolden, PaperTableReportBytes) {
  // FNV-1a 64 of the prove report JSON and of the csa and race SARIF the
  // proof tier refined, per circuit under prove_flow().  Any change in a
  // verdict, a certificate, a witness or a downgraded severity shows.
  struct Golden {
    const char* circuit;
    std::uint64_t prove_json;
    std::uint64_t csa_sarif;
    std::uint64_t race_sarif;
  };
  static constexpr Golden kGolden[] = {
      {"b9", 0xb311f9f2041e2024ull, 0x6603652ad4a15310ull,
       0xd532c0187131f8d3ull},
      {"c8", 0x41127b10ec1ca2b0ull, 0x5c3b17e6362aa574ull,
       0x68cfe099b3f9a1e5ull},
      {"x1", 0x51edebfaccbaa876ull, 0x9cfa5e877938323cull,
       0xbc3aadbe311283edull},
      {"count", 0x07450af2a1281e99ull, 0x52823c577c0b4508ull,
       0xae89cf918d12b97full},
      {"mux", 0xcc4f253fe5a2493full, 0x35fb6fac540c16b0ull,
       0xb1f43400aefc3cb8ull},
  };
  const auto hex = [](std::uint64_t digest) {
    return format("%016llx", static_cast<unsigned long long>(digest));
  };
  for (const Golden& golden : kGolden) {
    const std::string name = golden.circuit;
    const FlowOutcome outcome =
        run_flow_guarded(build_benchmark(name), prove_flow());
    ASSERT_TRUE(outcome.result.has_value()) << name;
    const FlowResult& r = *outcome.result;
    ASSERT_TRUE(r.prove.has_value() && r.csa.has_value() && r.race.has_value())
        << name;
    EXPECT_EQ(hex(fnv1a64(r.prove->to_json())), hex(golden.prove_json))
        << name << " prove JSON";
    EXPECT_EQ(hex(fnv1a64(r.csa->lint.to_sarif(name + ".blif"))),
              hex(golden.csa_sarif))
        << name << " csa SARIF";
    EXPECT_EQ(hex(fnv1a64(r.race->lint.to_sarif(name + ".blif"))),
              hex(golden.race_sarif))
        << name << " race SARIF";
  }
}

// ---------------------------------------------------------------------------
// Budget exhaustion and strict mode.

TEST(ProveBudget, TinyBudgetYieldsUnknownNotVerdicts) {
  FlowOptions options = prove_flow();
  options.prove_options.node_budget = 4;
  const FlowOutcome outcome =
      run_flow_guarded(build_benchmark("b9"), options);
  ASSERT_TRUE(outcome.result.has_value());
  const ProveReport& report = *outcome.result->prove;
  EXPECT_GT(report.budget_hits, 0);
  EXPECT_GT(report.unknown, 0);
  bool warned = false;
  for (const Diagnostic& w : outcome.warnings) {
    warned = warned || w.code == ErrorCode::kProofTimeout;
  }
  EXPECT_TRUE(warned) << "budget hits must surface a kProofTimeout warning";
  // The conservative verdicts stand: no finding that went unknown was
  // downgraded.
  for (const ProofRecord& rec : report.records) {
    if (rec.status != ProofStatus::kUnknown) continue;
    const Finding* f = find_refined(*outcome.result, rec);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->proof, ProofStatus::kUnknown);
    EXPECT_EQ(f->severity, f->original_severity);
  }
}

TEST(ProveBudget, StrictModeFailsWithProofTimeout) {
  FlowOptions options = prove_flow();
  options.prove_options.node_budget = 4;
  options.prove_options.fail_on_budget = true;
  const FlowOutcome outcome =
      run_flow_guarded(build_benchmark("b9"), options);
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kProofTimeout);
}

// ---------------------------------------------------------------------------
// Batch: proof counts round-trip the journal and survive --resume.

TEST(ProveBatch, ResumeManifestByteIdenticalWithProofCounts) {
  const std::string dir = ::testing::TempDir();
  const std::string tag = std::to_string(::getpid());
  BatchOptions options;
  options.flow = prove_flow();
  options.retry.max_attempts = 1;
  options.retry.backoff_base_ms = 0;
  options.journal_path = dir + "/soidom_prove_" + tag + ".jsonl";
  options.manifest_path = dir + "/soidom_prove_" + tag + ".manifest.json";
  std::remove(options.journal_path.c_str());
  const std::vector<BatchJob> jobs = {BatchJob{"b9", ""}, BatchJob{"mux", ""}};

  const BatchResult first = run_batch(jobs, options);
  ASSERT_TRUE(first.complete());
  const std::string manifest = read_file(options.manifest_path);
  EXPECT_NE(manifest.find("\"prove_confirmed\":"), std::string::npos);
  EXPECT_NE(manifest.find("\"prove_refuted\":"), std::string::npos);
  EXPECT_NE(manifest.find("\"prove_unknown\":"), std::string::npos);

  // Resume with the full journal: every job is skipped and the manifest
  // is rebuilt purely from journal records — byte-identical, so the
  // proof counts survive the JSONL round-trip.
  options.resume = true;
  const BatchResult resumed = run_batch(jobs, options);
  ASSERT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.resumed, 2);
  EXPECT_EQ(read_file(options.manifest_path), manifest);
}

}  // namespace
}  // namespace soidom
