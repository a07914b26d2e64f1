/// Charge-sharing-analyzer performance harness: times run_csa() on the
/// largest paper-suite circuits (best of 3 calls each) and emits
/// BENCH_csa.json.  The report and SARIF bytes are pinned by the
/// CsaGolden tests, not here.
///
/// Usage: perf_csa [output.json]   (default BENCH_csa.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "soidom/benchgen/registry.hpp"
#include "soidom/core/flow.hpp"
#include "soidom/csa/csa.hpp"

namespace {

using namespace soidom;

struct CircuitReport {
  std::string name;
  std::size_t gates = 0;
  double max_droop = 0.0;
  int over_margin = 0;
  int truncated = 0;
  double wall_ms = 0.0;
  double gates_per_sec = 0.0;
};

CircuitReport bench_circuit(const std::string& name, int reps) {
  CircuitReport rep;
  rep.name = name;

  FlowOptions options;
  options.verify_rounds = 0;
  const FlowResult mapped = run_flow(build_benchmark(name), options);
  rep.gates = mapped.netlist.gates().size();

  double best_ms = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const CsaResult r = run_csa(mapped.netlist, CsaOptions{});
    const auto t1 = std::chrono::steady_clock::now();
    best_ms = std::min(
        best_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
    rep.max_droop = r.report.max_droop;
    rep.over_margin = r.report.gates_over_margin;
    rep.truncated = r.report.gates_truncated;
  }
  rep.wall_ms = best_ms;
  rep.gates_per_sec =
      best_ms > 0.0 ? static_cast<double>(rep.gates) / (best_ms / 1000.0) : 0.0;
  std::printf("  %-12s %8.2f ms  (%.0f gates/s)\n", name.c_str(), best_ms,
              rep.gates_per_sec);
  return rep;
}

void write_json(const std::string& path,
                const std::vector<CircuitReport>& reports) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "FATAL: cannot open %s\n", path.c_str());
    std::abort();
  }
  std::fprintf(f, "{\n  \"bench\": \"csa_analyzer\",\n  \"circuits\": [\n");
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const CircuitReport& rep = reports[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"gates\": %zu,"
                 " \"max_droop\": %.6f,\n"
                 "     \"over_margin\": %d, \"truncated\": %d,"
                 " \"wall_ms\": %.3f, \"gates_per_sec\": %.1f}%s\n",
                 rep.name.c_str(), rep.gates, rep.max_droop, rep.over_margin,
                 rep.truncated, rep.wall_ms, rep.gates_per_sec,
                 i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out = argc > 1 ? argv[1] : "BENCH_csa.json";
  constexpr int kReps = 3;
  std::vector<CircuitReport> reports;
  // The largest registered paper-suite circuits: many gates, so the
  // per-gate state enumeration dominates the call.
  for (const char* name : {"c1908", "c5315", "c7552", "k2"}) {
    reports.push_back(bench_circuit(name, kReps));
  }
  write_json(out, reports);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
