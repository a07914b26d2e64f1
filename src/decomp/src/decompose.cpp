#include "soidom/decomp/decompose.hpp"

#include <functional>
#include <unordered_map>

#include "soidom/base/contracts.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"
#include "soidom/twolevel/extract.hpp"
#include "soidom/twolevel/minimize.hpp"

namespace soidom {
namespace {

/// Reduce `terms` with `op` (add_and / add_or) in the requested shape.
NodeId reduce(NetworkBuilder& builder, std::vector<NodeId> terms,
              NodeId (NetworkBuilder::*op)(NodeId, NodeId), NodeId empty_value,
              TreeShape shape) {
  if (terms.empty()) return empty_value;
  if (shape == TreeShape::kChain) {
    NodeId acc = terms.front();
    for (std::size_t i = 1; i < terms.size(); ++i) {
      acc = (builder.*op)(acc, terms[i]);
    }
    return acc;
  }
  // Balanced: repeatedly pair adjacent terms.
  while (terms.size() > 1) {
    std::vector<NodeId> next;
    next.reserve((terms.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      next.push_back((builder.*op)(terms[i], terms[i + 1]));
    }
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  return terms.front();
}

}  // namespace

NodeId decompose_cover(NetworkBuilder& builder, const SopCover& cover,
                       const std::vector<NodeId>& fanins,
                       const DecomposeOptions& options) {
  SOIDOM_REQUIRE(fanins.size() == cover.num_inputs,
                 "decompose_cover: fanin count does not match cover");
  const std::size_t nodes_before = builder.peek().size();
  bool constant = false;
  if (cover.is_constant(constant)) {
    return constant ? builder.const1() : builder.const0();
  }

  std::vector<NodeId> products;
  products.reserve(cover.cubes.size());
  for (const Cube& cube : cover.cubes) {
    guard_checkpoint();
    std::vector<NodeId> literals;
    for (std::size_t i = 0; i < cube.lits.size(); ++i) {
      switch (cube.lits[i]) {
        case CubeLit::kPos: literals.push_back(fanins[i]); break;
        case CubeLit::kNeg: literals.push_back(builder.add_inv(fanins[i])); break;
        case CubeLit::kDontCare: break;
      }
    }
    products.push_back(reduce(builder, std::move(literals),
                              &NetworkBuilder::add_and, builder.const1(),
                              options.shape));
  }
  NodeId sum = reduce(builder, std::move(products), &NetworkBuilder::add_or,
                      builder.const0(), options.shape);
  if (!cover.on_set) sum = builder.add_inv(sum);
  guard_charge(Resource::kNetworkNodes, builder.peek().size() - nodes_before);
  return sum;
}

Network decompose(const BlifModel& model, const DecomposeOptions& options) {
  StageScope stage(FlowStage::kDecompose);
  SOIDOM_FAULT_PROBE(FlowStage::kDecompose);
  if (options.extract_cubes) {
    BlifModel extracted = model;
    extract_common_cubes(extracted);
    DecomposeOptions rest = options;
    rest.extract_cubes = false;
    return decompose(extracted, rest);
  }
  NetworkBuilder builder;
  // Keys view names held by `model`, which outlives the build.
  std::unordered_map<std::string_view, NodeId> signal;

  for (const std::string& in : model.inputs) {
    SOIDOM_REQUIRE(!signal.contains(in),
                   format("duplicate input '%s'", in.c_str()));
    signal.emplace(in, builder.add_pi(in));
  }

  // The table defining each signal; the first one wins, as with
  // BlifModel::table_defining.
  std::unordered_map<std::string_view, std::size_t> defining;
  defining.reserve(model.tables.size());
  for (std::size_t t = 0; t < model.tables.size(); ++t) {
    defining.try_emplace(model.tables[t].output, t);
  }

  // Process tables in dependency order (DFS with cycle detection).
  enum class Mark : std::uint8_t { kUnseen, kActive, kDone };
  std::vector<Mark> mark(model.tables.size(), Mark::kUnseen);

  std::function<NodeId(std::string_view)> require_signal =
      [&](std::string_view name) -> NodeId {
    if (const auto it = signal.find(name); it != signal.end()) {
      return it->second;
    }
    guard_checkpoint();
    const auto def = defining.find(name);
    SOIDOM_REQUIRE(def != defining.end(),
                   format("undefined signal '%s'", std::string(name).c_str()));
    const std::size_t ti = def->second;
    SOIDOM_REQUIRE(mark[ti] != Mark::kActive,
                   format("combinational cycle through '%s'",
                          std::string(name).c_str()));
    mark[ti] = Mark::kActive;
    const BlifTable& table = model.tables[ti];
    std::vector<NodeId> fanins;
    fanins.reserve(table.inputs.size());
    for (const std::string& in : table.inputs) {
      fanins.push_back(require_signal(in));
    }
    const SopCover cover =
        options.minimize_covers ? minimize(table.cover) : table.cover;
    const NodeId out = decompose_cover(builder, cover, fanins, options);
    mark[ti] = Mark::kDone;
    signal.emplace(table.output, out);
    return out;
  };

  for (const std::string& out : model.outputs) {
    builder.add_output(require_signal(out), out);
  }
  return std::move(builder).build();
}

}  // namespace soidom
