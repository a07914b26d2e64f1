#include "soidom/bdd/equivalence.hpp"

#include <unordered_map>

#include "soidom/base/strings.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"

namespace soidom {
namespace {

[[noreturn]] void interface_error(const std::string& message) {
  throw GuardError(ErrorCode::kParseError, FlowStage::kExact,
                   "equivalent_exact: " + message);
}

/// Map from unique non-empty names to their index; reports duplicates
/// and empties through `bad` (empty on success).
std::unordered_map<std::string, std::size_t> index_by_name(
    const std::vector<std::string>& names, std::string& bad) {
  std::unordered_map<std::string, std::size_t> map;
  map.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i].empty()) {
      bad += format("%s unnamed entry %zu", bad.empty() ? "" : ",", i);
      continue;
    }
    if (!map.emplace(names[i], i).second) {
      bad += format("%s duplicate '%s'", bad.empty() ? "" : ",",
                    names[i].c_str());
    }
  }
  return map;
}

std::vector<std::string> output_names(const Network& net) {
  std::vector<std::string> names;
  names.reserve(net.outputs().size());
  for (const Output& o : net.outputs()) names.push_back(o.name);
  return names;
}

/// Positions of `b_names` entries in `a_names` (identity when the
/// sequences agree positionally, name-matched otherwise).  `what` is
/// "PI" / "output" for error messages.
std::vector<std::size_t> match_interface(const std::vector<std::string>& a_names,
                                         const std::vector<std::string>& b_names,
                                         const char* what) {
  std::vector<std::size_t> a_index_of_b(b_names.size());
  if (a_names == b_names) {
    for (std::size_t i = 0; i < b_names.size(); ++i) a_index_of_b[i] = i;
    return a_index_of_b;
  }
  std::string bad_a;
  std::string bad_b;
  const auto a_map = index_by_name(a_names, bad_a);
  (void)index_by_name(b_names, bad_b);  // duplicate/empty detection only
  if (!bad_a.empty() || !bad_b.empty()) {
    interface_error(format(
        "%s names differ positionally and cannot be matched by name "
        "(network A:%s; network B:%s)",
        what, bad_a.empty() ? " ok" : bad_a.c_str(),
        bad_b.empty() ? " ok" : bad_b.c_str()));
  }
  std::string missing;
  for (std::size_t i = 0; i < b_names.size(); ++i) {
    const auto it = a_map.find(b_names[i]);
    if (it == a_map.end()) {
      missing += format("%s '%s'", missing.empty() ? "" : ",",
                        b_names[i].c_str());
      continue;
    }
    a_index_of_b[i] = it->second;
  }
  if (!missing.empty()) {
    interface_error(format("network A has no %s named%s", what,
                           missing.c_str()));
  }
  return a_index_of_b;
}

}  // namespace

std::vector<BddManager::Ref> build_output_bdds(
    BddManager& manager, const Network& net,
    const std::vector<unsigned>& pi_vars) {
  SOIDOM_REQUIRE(pi_vars.size() == net.pis().size(),
                 "build_output_bdds: one variable per network PI required");
  SOIDOM_REQUIRE(manager.num_vars() >= net.pis().size(),
                 "BDD manager has fewer variables than network PIs");
  const std::size_t num_nodes = net.size();
  SOIDOM_ASSERT(num_nodes >= 2);  // constants always exist
  std::vector<BddManager::Ref> value;
  value.reserve(num_nodes);
  value.push_back(BddManager::kFalse);  // kConst0Id
  value.push_back(BddManager::kTrue);   // kConst1Id
  value.resize(num_nodes, BddManager::kFalse);
  for (std::size_t v = 0; v < net.pis().size(); ++v) {
    value[net.pis()[v].value] = manager.var(pi_vars[v]);
  }
  for (std::uint32_t i = 2; i < net.size(); ++i) {
    const Node& n = net.node(NodeId{i});
    switch (n.kind) {
      case NodeKind::kAnd:
        value[i] =
            manager.apply_and(value[n.fanin0.value], value[n.fanin1.value]);
        break;
      case NodeKind::kOr:
        value[i] =
            manager.apply_or(value[n.fanin0.value], value[n.fanin1.value]);
        break;
      case NodeKind::kInv:
        value[i] = manager.negate(value[n.fanin0.value]);
        break;
      case NodeKind::kBuf:
        value[i] = value[n.fanin0.value];
        break;
      case NodeKind::kPi:
        break;
      default:
        SOIDOM_ASSERT_MSG(false, "unexpected node kind");
    }
  }
  std::vector<BddManager::Ref> out;
  out.reserve(net.outputs().size());
  for (const Output& o : net.outputs()) out.push_back(value[o.driver.value]);
  return out;
}

std::vector<BddManager::Ref> build_output_bdds(BddManager& manager,
                                               const Network& net) {
  std::vector<unsigned> identity(net.pis().size());
  for (std::size_t v = 0; v < identity.size(); ++v) {
    identity[v] = static_cast<unsigned>(v);
  }
  return build_output_bdds(manager, net, identity);
}

std::optional<EquivalenceCheck> equivalent_exact_cex(
    const Network& a, const Network& b, std::size_t node_limit) {
  StageScope stage(FlowStage::kExact);
  SOIDOM_FAULT_PROBE(FlowStage::kExact);
  if (a.pis().size() != b.pis().size()) {
    interface_error(format("PI count mismatch (%zu vs %zu)", a.pis().size(),
                           b.pis().size()));
  }
  if (a.outputs().size() != b.outputs().size()) {
    interface_error(format("output count mismatch (%zu vs %zu)",
                           a.outputs().size(), b.outputs().size()));
  }
  // b's PI k reads the variable of the same-named PI of a; b's outputs
  // are permuted into a's output order before comparing.
  const std::vector<std::size_t> pi_map =
      match_interface(a.pi_names(), b.pi_names(), "PI");
  const std::vector<std::size_t> out_map =
      match_interface(output_names(a), output_names(b), "output");
  std::vector<unsigned> b_pi_vars(pi_map.size());
  for (std::size_t i = 0; i < pi_map.size(); ++i) {
    b_pi_vars[i] = static_cast<unsigned>(pi_map[i]);
  }
  try {
    BddManager manager(static_cast<unsigned>(a.pis().size()), node_limit);
    const std::vector<BddManager::Ref> a_out = build_output_bdds(manager, a);
    const std::vector<BddManager::Ref> b_out =
        build_output_bdds(manager, b, b_pi_vars);
    EquivalenceCheck check;
    for (std::size_t i = 0; i < b_out.size(); ++i) {
      if (b_out[i] == a_out[out_map[i]]) continue;
      check.equivalent = false;
      // Distinguishing cube: any satisfying assignment of the XOR of the
      // first mismatching pair (variables are a's PIs by construction).
      const BddManager::Ref diff =
          manager.apply_xor(b_out[i], a_out[out_map[i]]);
      SOIDOM_ASSERT(diff != BddManager::kFalse);
      const auto cube = manager.any_sat(diff);
      SOIDOM_ASSERT(cube.has_value());
      EquivalenceCounterexample cex;
      cex.output_index = out_map[i];
      cex.output = a.outputs()[out_map[i]].name;
      cex.pi_values = *cube;
      cex.pi_values.resize(a.pis().size());
      check.counterexample = std::move(cex);
      break;
    }
    return check;
  } catch (const GuardError& e) {
    // Only a blow-up is a fallback-to-simulation outcome; cancellation,
    // deadline, and budget trips must keep propagating.
    if (e.code() == ErrorCode::kBddNodeLimit) return std::nullopt;
    throw;
  }
}

std::optional<bool> equivalent_exact(const Network& a, const Network& b,
                                     std::size_t node_limit) {
  const std::optional<EquivalenceCheck> check =
      equivalent_exact_cex(a, b, node_limit);
  if (!check.has_value()) return std::nullopt;
  return check->equivalent;
}

}  // namespace soidom
