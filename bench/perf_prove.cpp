/// Proof-tier performance harness: maps paper-suite circuits with the
/// full analyzer stack (tight droop margin so the proof tier has real
/// work), then times run_prove() (best of 3 calls), checks that every
/// call yields the same prove report and refined analyzer reports, and
/// emits BENCH_prove.json with per-circuit verdict counts, refutation
/// rate and targets/s (tools/check_prove_bench.py gates it).
///
/// Usage: perf_prove [output.json]   (default BENCH_prove.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/prove/prove.hpp"

namespace {

using namespace soidom;

struct CircuitReport {
  std::string name;
  std::size_t gates = 0;
  int targets = 0;
  int confirmed = 0;
  int refuted = 0;
  int unknown = 0;
  int budget_hits = 0;
  double wall_ms = 0.0;
  double targets_per_sec = 0.0;
  bool identical = true;
};

/// Analyzer inputs the prove stage refines, captured once per circuit so
/// every timing rep starts from the same conservative findings
/// (run_prove mutates the reports in place).
struct ProveInputs {
  DominoNetlist netlist;
  LintReport lint;
  CsaResult csa;
  RaceResult race;
  LintOptions lint_options;
  CsaOptions csa_options;
};

/// Flow with the analyzer stack on and the proof tier OFF — the bench
/// times run_prove in isolation, on copies of these reports.  The tight
/// droop margin makes csa.droop-margin findings plentiful on the small
/// table circuits (same idiom as tests/test_prove.cpp).
ProveInputs prepare(const std::string& name) {
  FlowOptions options;
  options.verify_rounds = 0;
  options.csa = true;
  options.csa_options.margin = 0.05;
  options.race = true;
  const FlowOutcome outcome = run_flow_guarded(build_benchmark(name), options);
  if (!outcome.result.has_value()) {
    std::fprintf(stderr, "FATAL: flow produced no result for %s\n",
                 name.c_str());
    std::abort();
  }
  ProveInputs in;
  in.netlist = outcome.result->netlist;
  in.lint = outcome.result->lint;
  in.csa = *outcome.result->csa;
  in.race = *outcome.result->race;
  // Mirror the LintOptions run_flow derived for its own lint stage, so
  // the prove stage re-derives PBE protection under the same model.
  in.lint_options.grounding = options.mapper.grounding;
  in.lint_options.pending_model = options.mapper.pending_model;
  in.lint_options.allow_unexcitable_unprotected = options.sequence_aware;
  in.lint_options.max_width = options.mapper.max_width;
  in.lint_options.max_height = options.mapper.max_height;
  in.csa_options = options.csa_options;
  return in;
}

/// Serialized refinement outcome: the prove report plus every report it
/// mutated, so the identity check covers the downgraded findings too,
/// not just the verdict records.
std::string refinement_bytes(const ProveReport& report, const LintReport& lint,
                             const CsaResult& csa, const RaceResult& race,
                             const std::string& artifact) {
  return report.to_json() + lint.to_sarif(artifact) +
         csa.lint.to_sarif(artifact) + race.lint.to_sarif(artifact);
}

/// Best-of-k wall time; each call refines a fresh copy of the
/// conservative reports, and every call must serialize the same bytes.
CircuitReport bench_circuit(const std::string& name, int reps) {
  CircuitReport rep;
  rep.name = name;

  const ProveInputs in = prepare(name);
  rep.gates = in.netlist.gates().size();

  std::string reference;
  double best_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    LintReport lint = in.lint;
    CsaResult csa = in.csa;
    RaceResult race = in.race;
    const auto t0 = std::chrono::steady_clock::now();
    const ProveReport r = run_prove(in.netlist, &lint, &csa, &race,
                                    in.lint_options, in.csa_options);
    const auto t1 = std::chrono::steady_clock::now();
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
    const std::string bytes =
        refinement_bytes(r, lint, csa, race, "bench.circuit");
    if (i == 0) {
      reference = bytes;
      rep.targets = r.targets();
      rep.confirmed = r.confirmed;
      rep.refuted = r.refuted;
      rep.unknown = r.unknown;
      rep.budget_hits = r.budget_hits;
    } else if (bytes != reference) {
      rep.identical = false;
    }
  }
  rep.wall_ms = best_ms;
  rep.targets_per_sec =
      best_ms > 0.0 ? static_cast<double>(rep.targets) / (best_ms / 1000.0)
                    : 0.0;
  std::printf(
      "  %-12s %8.2f ms  (%d targets: %dc/%dr/%du, %.0f targets/s)\n",
      name.c_str(), best_ms, rep.targets, rep.confirmed, rep.refuted,
      rep.unknown, rep.targets_per_sec);
  return rep;
}

void write_json(const std::string& path,
                const std::vector<CircuitReport>& reports) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "FATAL: cannot open %s\n", path.c_str());
    std::abort();
  }
  std::fprintf(f, "{\n  \"bench\": \"prove\",\n  \"circuits\": [\n");
  bool all_identical = true;
  int total_targets = 0, total_refuted = 0, total_confirmed = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CircuitReport& rep = reports[i];
    all_identical = all_identical && rep.identical;
    total_targets += rep.targets;
    total_refuted += rep.refuted;
    total_confirmed += rep.confirmed;
    const double rate =
        rep.targets > 0
            ? static_cast<double>(rep.refuted) / static_cast<double>(rep.targets)
            : 0.0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"gates\": %zu, \"targets\": %d,"
                 " \"confirmed\": %d, \"refuted\": %d,\n"
                 "     \"unknown\": %d, \"budget_hits\": %d,"
                 " \"refutation_rate\": %.4f, \"identical\": %s,\n"
                 "     \"wall_ms\": %.3f, \"targets_per_sec\": %.1f}%s\n",
                 rep.name.c_str(), rep.gates, rep.targets, rep.confirmed,
                 rep.refuted, rep.unknown, rep.budget_hits, rate,
                 rep.identical ? "true" : "false", rep.wall_ms,
                 rep.targets_per_sec, i + 1 < reports.size() ? "," : "");
  }
  const double total_rate =
      total_targets > 0
          ? static_cast<double>(total_refuted) / static_cast<double>(total_targets)
          : 0.0;
  std::fprintf(f,
               "  ],\n  \"summary\": {\"all_identical\": %s,\n"
               "    \"total_targets\": %d, \"total_confirmed\": %d,"
               " \"total_refuted\": %d, \"refutation_rate\": %.4f}\n}\n",
               all_identical ? "true" : "false", total_targets,
               total_confirmed, total_refuted, total_rate);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_prove.json";
  constexpr int kReps = 3;
  std::vector<CircuitReport> reports;
  // Paper-table circuits with known refutations (b9, c8, x1) plus two
  // confirm-heavy ones; all map + prove in seconds, so the bench stays
  // CI-affordable while exercising every verdict kind.
  for (const char* name : {"b9", "c8", "x1", "count", "mux"}) {
    reports.push_back(bench_circuit(name, kReps));
  }

  write_json(out, reports);

  bool ok = true;
  int refuted = 0, confirmed = 0;
  for (const CircuitReport& rep : reports) {
    ok = ok && rep.identical;
    refuted += rep.refuted;
    confirmed += rep.confirmed;
  }
  std::printf("wrote %s; %d confirmed / %d refuted; refinements %s across "
              "calls\n",
              out.c_str(), confirmed, refuted,
              ok ? "IDENTICAL" : "DIVERGENT");
  return ok ? 0 : 1;
}
