/// \file flags.hpp
/// The analyzer command-line flags the example front ends share
/// (blif2domino, asic_flow, soidom_batch); README.md "Analyzer flags"
/// documents each one.  Output-path flags (--lint, --*-sarif=,
/// --prove-json=) stay with the front end that writes the file.
#pragma once

#include <string>
#include <string_view>

#include "soidom/core/flow.hpp"

namespace soidom {

/// Parse one analyzer flag (`--csa`, `--race-phases=2`, ...) into
/// `options`.  Returns false when `arg` is not an analyzer flag.  Returns
/// true when it is: every flag but --lint-fail-on also turns its analyzer
/// on, and a malformed value instead sets `*error` and leaves `options`
/// unchanged.  Range checks are validate(FlowOptions)'s job, except that
/// --prove-budget rejects N < 2 here: node_budget is unsigned, so a
/// negative N would wrap to a huge budget.
bool parse_analyzer_flag(std::string_view arg, FlowOptions& options,
                         std::string* error);

/// The analyzer flags as a usage-text block.
extern const char kAnalyzerFlagUsage[];

}  // namespace soidom
