#include <gtest/gtest.h>

#include <fstream>
#include <functional>

#include "helpers.hpp"
#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flags.hpp"
#include "soidom/core/flow.hpp"

namespace soidom {
namespace {

TEST(Flow, SoiVariantEndToEnd) {
  const FlowResult r = run_flow(testing::full_adder_network(), FlowOptions{});
  EXPECT_TRUE(r.ok()) << r.structure.to_string() << r.function.to_string();
  EXPECT_GT(r.stats.num_gates, 0);
  EXPECT_EQ(r.stats.t_total, r.stats.t_logic + r.stats.t_disch);
}

TEST(Flow, AllVariantsVerifyOnBenchmarks) {
  for (const char* circuit : {"cm150", "z4ml", "frg1", "9symml"}) {
    const Network source = build_benchmark(circuit);
    for (const FlowVariant variant :
         {FlowVariant::kDominoMap, FlowVariant::kRsMap,
          FlowVariant::kSoiDominoMap}) {
      FlowOptions opts;
      opts.variant = variant;
      const FlowResult r = run_flow(source, opts);
      EXPECT_TRUE(r.ok()) << circuit;
    }
  }
}

TEST(Flow, OrderingInvariant_DominoGeqRsGeqSoi) {
  // The paper's central comparison, as a per-circuit invariant under the
  // default model: SOI-aware mapping never needs more discharge
  // transistors than RS_Map, which never needs more than Domino_Map.
  for (const char* circuit : {"cm150", "cordic", "f51m", "apex7", "c880",
                              "t481", "c1908", "k2"}) {
    const Network source = build_benchmark(circuit);
    DominoStats s[3];
    const FlowVariant variants[] = {FlowVariant::kDominoMap,
                                    FlowVariant::kRsMap,
                                    FlowVariant::kSoiDominoMap};
    for (int v = 0; v < 3; ++v) {
      FlowOptions opts;
      opts.variant = variants[v];
      s[v] = run_flow(source, opts).stats;
    }
    EXPECT_GE(s[0].t_disch, s[1].t_disch) << circuit;  // DM >= RS
    EXPECT_GE(s[1].t_disch, s[2].t_disch) << circuit;  // RS >= SOI
    EXPECT_GE(s[0].t_total, s[2].t_total) << circuit;  // headline result
  }
}

TEST(Flow, BlifRoundTrip) {
  const char* blif =
      ".model t\n.inputs a b c\n.outputs z\n"
      ".names a b t1\n11 1\n"
      ".names t1 c z\n1- 1\n-1 1\n.end\n";
  const FlowResult r = run_flow(parse_blif(blif), FlowOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.netlist.outputs()[0].name, "z");
}

TEST(Flow, FileFrontEnd) {
  const std::string path = ::testing::TempDir() + "/soidom_flow_test.blif";
  {
    std::ofstream out(path);
    out << ".model f\n.inputs a b\n.outputs z\n.names a b z\n10 1\n01 1\n.end\n";
  }
  const FlowResult r = run_flow_file(path, FlowOptions{});
  EXPECT_TRUE(r.ok());
  EXPECT_THROW(run_flow_file("/nonexistent/file.blif", FlowOptions{}), Error);
}

TEST(Flow, ExactEquivalenceOption) {
  FlowOptions opts;
  opts.exact_equivalence = true;
  const FlowResult r = run_flow(testing::fig3_network(), opts);
  ASSERT_TRUE(r.exact.has_value());
  EXPECT_TRUE(*r.exact);
}

TEST(Flow, VerificationCanBeDisabled) {
  FlowOptions opts;
  opts.verify_rounds = 0;
  const FlowResult r = run_flow(testing::fig3_network(), opts);
  EXPECT_TRUE(r.function.ok());  // trivially: no check ran
  EXPECT_TRUE(r.structure.ok());
}

TEST(Flow, SummarizeMentionsKeyFields) {
  const FlowResult r = run_flow(testing::fig3_network(), FlowOptions{});
  const std::string s = summarize(r);
  EXPECT_NE(s.find("T_logic="), std::string::npos);
  EXPECT_NE(s.find("T_disch="), std::string::npos);
  EXPECT_NE(s.find("structure=ok"), std::string::npos);
}

TEST(Flow, DepthObjectiveReducesLevels) {
  const Network source = build_benchmark("cm150");
  FlowOptions area;
  FlowOptions depth;
  depth.mapper.objective = CostObjective::kDepth;
  const FlowResult ra = run_flow(source, area);
  const FlowResult rd = run_flow(source, depth);
  EXPECT_TRUE(ra.ok());
  EXPECT_TRUE(rd.ok());
  EXPECT_LE(rd.stats.levels, ra.stats.levels);
}

class FlowBenchmarkProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(FlowBenchmarkProperty, SoiFlowIsCleanAndPbeSafe) {
  const Network source = build_benchmark(GetParam());
  FlowOptions opts;
  opts.verify_rounds = 2;
  const FlowResult r = run_flow(source, opts);
  EXPECT_TRUE(r.ok()) << GetParam() << ": " << r.structure.to_string();
  EXPECT_EQ(r.dp_analyzer_mismatches, 0) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SmallAndMedium, FlowBenchmarkProperty,
                         ::testing::Values("cm150", "mux", "z4ml", "cordic",
                                           "f51m", "count", "frg1", "b9",
                                           "c8", "9symml", "apex7", "c432",
                                           "x1", "c880", "t481", "i6"));

// ---------------------------------------------------------------------------
// Verdict gates: each one fails the flow with a kVerificationFailed
// Diagnostic attributed to its own stage, whose message is
// "<prefix><report summary>" and whose context lists the gating findings.

/// Unwaived findings at or above `at_least` (confirmed ones only when
/// `confirmed_only`), rendered as the gate's context lines.
std::vector<std::string> gating_findings(const LintReport& report,
                                         LintSeverity at_least,
                                         bool confirmed_only = false) {
  std::vector<std::string> out;
  for (const Finding& f : report.findings) {
    if (f.waived || f.severity < at_least) continue;
    if (confirmed_only && f.proof != ProofStatus::kConfirmed) continue;
    out.push_back(f.to_string());
  }
  return out;
}

void expect_gate(const FlowOutcome& outcome, FlowStage stage,
                 const std::string& message,
                 const std::vector<std::string>& context) {
  ASSERT_TRUE(outcome.result.has_value());  // netlist still delivered
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->code, ErrorCode::kVerificationFailed);
  EXPECT_EQ(outcome.diagnostic->stage, stage);
  EXPECT_EQ(outcome.diagnostic->message, message);
  EXPECT_EQ(outcome.diagnostic->context, context);
  EXPECT_FALSE(context.empty());
}

TEST(FlowGates, LintGate) {
  // Sequence-aware pruning on z4ml leaves unexcitable points that lint
  // accepts at info severity.
  FlowOptions options;
  options.variant = FlowVariant::kDominoMap;
  options.mapper.grounding = GroundingPolicy::kFootlessGrounded;
  options.sequence_aware = true;
  options.lint_fail_on = LintSeverity::kInfo;
  const FlowOutcome outcome =
      run_flow_guarded(build_benchmark("z4ml"), options);
  ASSERT_TRUE(outcome.result.has_value());
  const LintReport& lint = outcome.result->lint;
  expect_gate(outcome, FlowStage::kLint,
              "lint failed at severity >= info: " + lint.summary(),
              gating_findings(lint, LintSeverity::kInfo));
}

TEST(FlowGates, CsaGate) {
  FlowOptions options;
  options.csa = true;
  options.csa_fail_on = LintSeverity::kInfo;
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), options);
  ASSERT_TRUE(outcome.result.has_value());
  const LintReport& csa = outcome.result->csa->lint;
  expect_gate(outcome, FlowStage::kCsa,
              "charge-sharing analysis failed at severity >= info: " +
                  csa.summary(),
              gating_findings(csa, LintSeverity::kInfo));
}

TEST(FlowGates, RaceGate) {
  FlowOptions options;
  options.race = true;
  options.race_options.t_eval = 0.5;  // every gate overruns evaluate
  options.race_fail_on = LintSeverity::kInfo;
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), options);
  ASSERT_TRUE(outcome.result.has_value());
  const LintReport& race = outcome.result->race->lint;
  expect_gate(outcome, FlowStage::kRace,
              "race analysis failed at severity >= info: " + race.summary(),
              gating_findings(race, LintSeverity::kInfo));
}

TEST(FlowGates, ProveGate) {
  // A strong keeper turns csa's pbe-discharge errors into droop-margin
  // warnings: the csa gate (at error) passes, and the confirmed
  // warnings fail the flow at prove_fail_on.
  FlowOptions options;
  options.verify_rounds = 0;
  options.csa = true;
  options.csa_options.keeper_strength = 8;
  options.race = true;
  options.prove = true;
  options.prove_fail_on = LintSeverity::kInfo;
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), options);
  ASSERT_TRUE(outcome.result.has_value());
  const FlowResult& r = *outcome.result;
  ASSERT_GT(r.prove->confirmed, 0);
  std::vector<std::string> context;
  for (const LintReport* report : {&r.lint, &r.csa->lint, &r.race->lint}) {
    for (std::string& line :
         gating_findings(*report, LintSeverity::kInfo, true)) {
      context.push_back(std::move(line));
    }
  }
  expect_gate(outcome, FlowStage::kProve,
              "proof tier confirmed findings at severity >= info: " +
                  r.prove->summary(),
              context);
}

TEST(FlowGates, FirstFailingGateWins) {
  FlowOptions options;
  options.csa = true;
  options.csa_fail_on = LintSeverity::kInfo;
  options.race = true;
  options.race_options.t_eval = 0.5;
  options.race_fail_on = LintSeverity::kInfo;
  const FlowOutcome outcome =
      run_flow_guarded(testing::fig3_network(), options);
  ASSERT_TRUE(outcome.result.has_value());
  ASSERT_FALSE(outcome.result->race->lint.clean(LintSeverity::kInfo));
  ASSERT_TRUE(outcome.diagnostic.has_value());
  EXPECT_EQ(outcome.diagnostic->stage, FlowStage::kCsa);
}

// ---------------------------------------------------------------------------
// The shared analyzer flag parser (core/flags.hpp).

TEST(AnalyzerFlags, EveryFlagSetsItsFieldAndEnablesItsAnalyzer) {
  struct Case {
    const char* arg;
    std::function<bool(const FlowOptions&)> field_set;
    bool FlowOptions::*enables;  // null: lint always runs
  };
  const Case cases[] = {
      {"--lint-fail-on=warning",
       [](const FlowOptions& o) {
         return o.lint_fail_on == LintSeverity::kWarning;
       },
       nullptr},
      {"--csa", [](const FlowOptions&) { return true; }, &FlowOptions::csa},
      {"--csa-margin=0.125",
       [](const FlowOptions& o) { return o.csa_options.margin == 0.125; },
       &FlowOptions::csa},
      {"--race", [](const FlowOptions&) { return true; }, &FlowOptions::race},
      {"--race-fail-on=info",
       [](const FlowOptions& o) {
         return o.race_fail_on == LintSeverity::kInfo;
       },
       &FlowOptions::race},
      {"--race-phases=3",
       [](const FlowOptions& o) { return o.race_options.num_phases == 3; },
       &FlowOptions::race},
      {"--race-teval=2.5",
       [](const FlowOptions& o) { return o.race_options.t_eval == 2.5; },
       &FlowOptions::race},
      {"--race-tpre=1.5",
       [](const FlowOptions& o) { return o.race_options.t_pre == 1.5; },
       &FlowOptions::race},
      {"--race-skew=0.25",
       [](const FlowOptions& o) { return o.race_options.skew == 0.25; },
       &FlowOptions::race},
      {"--race-margin=0.5",
       [](const FlowOptions& o) { return o.race_options.margin == 0.5; },
       &FlowOptions::race},
      {"--prove", [](const FlowOptions&) { return true; },
       &FlowOptions::prove},
      {"--prove-budget=4096",
       [](const FlowOptions& o) {
         return o.prove_options.node_budget == 4096u;
       },
       &FlowOptions::prove},
      {"--prove-fail-on=warning",
       [](const FlowOptions& o) {
         return o.prove_fail_on == LintSeverity::kWarning;
       },
       &FlowOptions::prove},
      {"--prove-strict",
       [](const FlowOptions& o) { return o.prove_options.fail_on_budget; },
       &FlowOptions::prove},
  };
  for (const Case& c : cases) {
    FlowOptions options;
    std::string error;
    EXPECT_TRUE(parse_analyzer_flag(c.arg, options, &error)) << c.arg;
    EXPECT_EQ(error, "") << c.arg;
    EXPECT_TRUE(c.field_set(options)) << c.arg;
    for (bool FlowOptions::*analyzer :
         {&FlowOptions::csa, &FlowOptions::race, &FlowOptions::prove}) {
      EXPECT_EQ(options.*analyzer, analyzer == c.enables) << c.arg;
    }
  }
}

TEST(AnalyzerFlags, EverySeveritySpellingParses) {
  for (const LintSeverity sev :
       {LintSeverity::kError, LintSeverity::kWarning, LintSeverity::kInfo}) {
    FlowOptions options;
    options.lint_fail_on = options.race_fail_on = options.prove_fail_on =
        sev == LintSeverity::kError ? LintSeverity::kInfo
                                    : LintSeverity::kError;
    const std::string name = lint_severity_name(sev);
    std::string error;
    for (const char* flag :
         {"--lint-fail-on=", "--race-fail-on=", "--prove-fail-on="}) {
      EXPECT_TRUE(parse_analyzer_flag(flag + name, options, &error));
    }
    EXPECT_EQ(error, "");
    EXPECT_EQ(options.lint_fail_on, sev);
    EXPECT_EQ(options.race_fail_on, sev);
    EXPECT_EQ(options.prove_fail_on, sev);
  }
}

TEST(AnalyzerFlags, BadValuesAreRejectedAndLeaveOptionsUnchanged) {
  const struct {
    const char* arg;
    const char* error;
  } cases[] = {
      {"--csa-margin=high", "--csa-margin needs a number, got 'high'"},
      {"--csa-margin=", "--csa-margin needs a number, got ''"},
      {"--race-phases=two", "--race-phases needs an integer, got 'two'"},
      {"--race-fail-on=fatal",
       "--race-fail-on needs error|warning|info, got 'fatal'"},
      {"--lint-fail-on=Error",
       "--lint-fail-on needs error|warning|info, got 'Error'"},
      {"--prove-fail-on=fatal",
       "--prove-fail-on needs error|warning|info, got 'fatal'"},
      // node_budget is unsigned: -1 must not wrap to a ~4e9 budget.
      {"--prove-budget=-1", "--prove-budget needs an integer >= 2, got '-1'"},
      {"--prove-budget=1", "--prove-budget needs an integer >= 2, got '1'"},
      {"--prove-budget=1e6",
       "--prove-budget needs an integer >= 2, got '1e6'"},
  };
  const FlowOptions defaults;
  for (const auto& c : cases) {
    FlowOptions options;
    std::string error;
    EXPECT_TRUE(parse_analyzer_flag(c.arg, options, &error)) << c.arg;
    EXPECT_EQ(error, c.error);
    EXPECT_FALSE(options.csa || options.race || options.prove) << c.arg;
    EXPECT_EQ(options.csa_options.margin, defaults.csa_options.margin);
    EXPECT_EQ(options.race_options.num_phases,
              defaults.race_options.num_phases);
    EXPECT_EQ(options.prove_options.node_budget,
              defaults.prove_options.node_budget);
    EXPECT_EQ(options.lint_fail_on, defaults.lint_fail_on);
    EXPECT_EQ(options.race_fail_on, defaults.race_fail_on);
    EXPECT_EQ(options.prove_fail_on, defaults.prove_fail_on);
  }
}

TEST(AnalyzerFlags, OtherArgumentsAreNotConsumed) {
  for (const char* arg :
       {"circuit.blif", "--lint", "--lint-sarif=l.sarif", "--csa-sarif=c.sarif",
        "--race-sarif=r.sarif", "--prove-json=p.json", "--wmax=3",
        "--diag-json", "--csa-margin", "--csax", "--race-phases",
        "--prove-strict=1", "--csa-fail-on=info", "-csa", ""}) {
    FlowOptions options;
    std::string error;
    EXPECT_FALSE(parse_analyzer_flag(arg, options, &error)) << arg;
    EXPECT_EQ(error, "") << arg;
    EXPECT_FALSE(options.csa || options.race || options.prove) << arg;
  }
}

TEST(AnalyzerFlags, ParsedOptionsStillGoThroughValidate) {
  // Range checks stay with validate(): the parser accepts any number.
  FlowOptions options;
  std::string error;
  ASSERT_TRUE(parse_analyzer_flag("--csa-margin=-1", options, &error));
  EXPECT_EQ(error, "");
  EXPECT_THROW(validate(options), Error);
  options = FlowOptions{};
  ASSERT_TRUE(parse_analyzer_flag("--race-skew=-2", options, &error));
  EXPECT_THROW(validate(options), Error);
}

}  // namespace
}  // namespace soidom
