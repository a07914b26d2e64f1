#include "soidom/core/flags.hpp"

#include <cstdint>
#include <variant>

#include "soidom/base/strings.hpp"

namespace soidom {

const char kAnalyzerFlagUsage[] =
    "analyzer flags (README.md \"Analyzer flags\"; SEV: error|warning|info):\n"
    "  [--lint-fail-on=SEV] [--csa] [--csa-margin=X] [--race]\n"
    "  [--race-fail-on=SEV] [--race-phases=N] [--race-teval=X]\n"
    "  [--race-tpre=X] [--race-skew=X] [--race-margin=X] [--prove]\n"
    "  [--prove-budget=N] [--prove-fail-on=SEV] [--prove-strict]\n";

bool parse_analyzer_flag(std::string_view arg, FlowOptions& options,
                         std::string* error) {
  // A spelling ending in '=' takes a value; any other must match exactly.
  // `enables` is the analyzer the flag turns on (null: lint always runs).
  using Field = std::variant<std::monostate, bool*, int*, double*,
                             std::uint32_t*, LintSeverity*>;
  const struct {
    std::string_view spelling;
    bool* enables;
    Field field;
  } flags[] = {
      {"--lint-fail-on=", nullptr, &options.lint_fail_on},
      {"--csa", &options.csa, {}},
      {"--csa-margin=", &options.csa, &options.csa_options.margin},
      {"--race", &options.race, {}},
      {"--race-fail-on=", &options.race, &options.race_fail_on},
      {"--race-phases=", &options.race, &options.race_options.num_phases},
      {"--race-teval=", &options.race, &options.race_options.t_eval},
      {"--race-tpre=", &options.race, &options.race_options.t_pre},
      {"--race-skew=", &options.race, &options.race_options.skew},
      {"--race-margin=", &options.race, &options.race_options.margin},
      {"--prove", &options.prove, {}},
      {"--prove-budget=", &options.prove, &options.prove_options.node_budget},
      {"--prove-fail-on=", &options.prove, &options.prove_fail_on},
      {"--prove-strict", &options.prove,
       &options.prove_options.fail_on_budget},
  };
  for (const auto& flag : flags) {
    const bool takes_value = flag.spelling.back() == '=';
    if (takes_value ? !arg.starts_with(flag.spelling)
                    : arg != flag.spelling) {
      continue;
    }
    const std::string_view value = arg.substr(flag.spelling.size());
    const char* need = nullptr;  // what a malformed value should have been
    if (bool* const* b = std::get_if<bool*>(&flag.field)) {
      **b = true;
    } else if (int* const* i = std::get_if<int*>(&flag.field)) {
      if (!parse_int_strict(value, *i)) need = "an integer";
    } else if (double* const* d = std::get_if<double*>(&flag.field)) {
      if (!parse_double_strict(value, *d)) need = "a number";
    } else if (std::uint32_t* const* u =
                   std::get_if<std::uint32_t*>(&flag.field)) {
      int n = 0;
      if (parse_int_strict(value, &n) && n >= 2) {
        **u = static_cast<std::uint32_t>(n);
      } else {
        need = "an integer >= 2";
      }
    } else if (LintSeverity* const* s =
                   std::get_if<LintSeverity*>(&flag.field)) {
      need = "error|warning|info";
      for (const LintSeverity sev : {LintSeverity::kError,
                                     LintSeverity::kWarning,
                                     LintSeverity::kInfo}) {
        if (value == lint_severity_name(sev)) {
          **s = sev;
          need = nullptr;
        }
      }
    }
    if (need != nullptr) {
      *error = format("%.*s needs %s, got '%.*s'",
                      static_cast<int>(flag.spelling.size() - 1),
                      flag.spelling.data(), need,
                      static_cast<int>(value.size()), value.data());
    } else if (flag.enables != nullptr) {
      *flag.enables = true;
    }
    return true;
  }
  return false;
}

}  // namespace soidom
