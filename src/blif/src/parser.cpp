#include <fstream>
#include <sstream>
#include <unordered_set>

#include "soidom/base/contracts.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/blif/blif.hpp"

namespace soidom {
namespace {

/// Splits raw BLIF text into logical lines: strips comments, joins
/// '\'-continued lines, drops blank lines.  Records the source line number
/// of each logical line for diagnostics.
struct LogicalLine {
  std::string text;
  int line_number;
};

std::vector<LogicalLine> logical_lines(std::string_view text) {
  std::vector<LogicalLine> out;
  std::string pending;
  int pending_start = 0;
  int line_number = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    ++line_number;
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;

    if (const auto hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    std::string_view trimmed = trim(line);
    const bool continued = !trimmed.empty() && trimmed.back() == '\\';
    if (continued) trimmed = trim(trimmed.substr(0, trimmed.size() - 1));

    if (!trimmed.empty()) {
      if (pending.empty()) pending_start = line_number;
      if (!pending.empty()) pending += ' ';
      pending += trimmed;
    }
    if (!continued && !pending.empty()) {
      out.push_back({std::move(pending), pending_start});
      pending.clear();
    }
  }
  return out;
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw Error(format("BLIF parse error at line %d: %s", line, what.c_str()));
}

CubeLit lit_of(char c, int line) {
  switch (c) {
    case '0': return CubeLit::kNeg;
    case '1': return CubeLit::kPos;
    case '-': return CubeLit::kDontCare;
    default: fail(line, format("invalid cube character '%c'", c));
  }
}

}  // namespace

int BlifModel::table_defining(std::string_view signal) const {
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].output == signal) return static_cast<int>(i);
  }
  return -1;
}

BlifModel parse_blif(std::string_view text) {
  const auto lines = logical_lines(text);
  BlifModel model;
  // Names of the .inputs and of the tables' outputs.  The views point into
  // `lines`, which outlives them and never moves, unlike `model.tables`.
  std::unordered_set<std::string_view> input_names;
  std::unordered_set<std::string_view> table_outputs;
  bool saw_model = false;
  bool ended = false;
  BlifTable* open_table = nullptr;
  int open_table_phase_line = 0;  // first cube line, 0 if none yet

  auto close_table = [&] {
    open_table = nullptr;
    open_table_phase_line = 0;
  };

  for (const LogicalLine& ll : lines) {
    if (ended) fail(ll.line_number, "content after .end");
    const auto tokens = split(ll.text);
    SOIDOM_ASSERT(!tokens.empty());
    const std::string_view head = tokens.front();

    if (head[0] == '.') {
      if (head == ".model") {
        if (saw_model) fail(ll.line_number, "multiple .model statements");
        saw_model = true;
        model.name = tokens.size() > 1 ? std::string(tokens[1]) : "unnamed";
        close_table();
      } else if (head == ".inputs") {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          model.inputs.emplace_back(tokens[i]);
          input_names.insert(tokens[i]);
        }
        close_table();
      } else if (head == ".outputs") {
        for (std::size_t i = 1; i < tokens.size(); ++i) {
          model.outputs.emplace_back(tokens[i]);
        }
        close_table();
      } else if (head == ".names") {
        if (tokens.size() < 2) fail(ll.line_number, ".names needs a signal");
        BlifTable table;
        for (std::size_t i = 1; i + 1 < tokens.size(); ++i) {
          table.inputs.emplace_back(tokens[i]);
        }
        table.output = std::string(tokens.back());
        table.cover.num_inputs = table.inputs.size();
        table.cover.on_set = true;
        if (!table_outputs.insert(tokens.back()).second) {
          fail(ll.line_number,
               format("signal '%s' defined twice", table.output.c_str()));
        }
        model.tables.push_back(std::move(table));
        open_table = &model.tables.back();
        open_table_phase_line = 0;
      } else if (head == ".end") {
        ended = true;
        close_table();
      } else if (head == ".latch" || head == ".subckt" || head == ".gate" ||
                 head == ".mlatch" || head == ".exdc") {
        fail(ll.line_number,
             format("unsupported construct '%s' (combinational BLIF only)",
                    std::string(head).c_str()));
      } else {
        // Unknown dot-directives (.default_input_arrival etc.) are ignored,
        // matching SIS behaviour.
        close_table();
      }
      continue;
    }

    // Cube line.
    if (open_table == nullptr) {
      fail(ll.line_number, "cube line outside a .names table");
    }
    std::string_view in_part;
    std::string_view out_part;
    if (open_table->inputs.empty()) {
      if (tokens.size() != 1) fail(ll.line_number, "malformed constant cube");
      out_part = tokens[0];
    } else {
      if (tokens.size() != 2) fail(ll.line_number, "malformed cube line");
      in_part = tokens[0];
      out_part = tokens[1];
    }
    if (in_part.size() != open_table->inputs.size()) {
      fail(ll.line_number,
           format("cube has %zu literals, expected %zu", in_part.size(),
                  open_table->inputs.size()));
    }
    if (out_part.size() != 1 || (out_part[0] != '0' && out_part[0] != '1')) {
      fail(ll.line_number, "cube output must be 0 or 1");
    }
    const bool on = out_part[0] == '1';
    if (open_table_phase_line == 0) {
      open_table->cover.on_set = on;
      open_table_phase_line = ll.line_number;
    } else if (open_table->cover.on_set != on) {
      fail(ll.line_number, "mixed on-set and off-set cubes in one table");
    }
    Cube cube;
    cube.lits.reserve(in_part.size());
    for (const char c : in_part) cube.lits.push_back(lit_of(c, ll.line_number));
    open_table->cover.cubes.push_back(std::move(cube));
  }

  if (!saw_model) throw Error("BLIF parse error: missing .model");
  if (model.outputs.empty()) throw Error("BLIF parse error: no .outputs");

  // Semantic checks: every output and every table input must be defined.
  auto defined = [&](std::string_view sig) {
    return input_names.contains(sig) || table_outputs.contains(sig);
  };
  for (const std::string& o : model.outputs) {
    if (!defined(o)) {
      throw Error(format("BLIF semantic error: output '%s' is never defined",
                         o.c_str()));
    }
  }
  for (const BlifTable& t : model.tables) {
    for (const std::string& in : t.inputs) {
      if (!defined(in)) {
        throw Error(format(
            "BLIF semantic error: signal '%s' used by '%s' is never defined",
            in.c_str(), t.output.c_str()));
      }
    }
  }
  return model;
}

BlifModel parse_blif_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error(format("cannot open BLIF file '%s'", path.c_str()));
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse_blif(ss.str());
}

}  // namespace soidom
