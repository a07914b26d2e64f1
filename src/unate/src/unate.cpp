#include "soidom/unate/unate.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "soidom/base/contracts.hpp"
#include "soidom/guard/fault.hpp"
#include "soidom/guard/guard.hpp"
#include "soidom/network/builder.hpp"

namespace soidom {
namespace {

class UnateConverter {
 public:
  explicit UnateConverter(const Network& input) : input_(input) {
    result_.pi_literals.resize(input.pis().size());
  }

  UnateResult run(PhaseAssignment phases) {
    // Strip leading inverter/buffer chains into the output phase record:
    // the domino implementation realizes PO inversions for free via output
    // phase assignment, so pushing them into the logic would only
    // duplicate gates.
    struct PoInfo {
      NodeId driver;
      bool parity = false;
    };
    std::vector<PoInfo> infos;
    for (const Output& o : input_.outputs()) {
      PoInfo info{o.driver, false};
      while (input_.kind(info.driver) == NodeKind::kInv ||
             input_.kind(info.driver) == NodeKind::kBuf) {
        if (input_.kind(info.driver) == NodeKind::kInv) {
          info.parity = !info.parity;
        }
        info.driver = input_.fanin0(info.driver);
      }
      infos.push_back(info);
    }

    // Processing order: biggest cones first under greedy phase
    // assignment, so large shared structures set the memo that smaller
    // cones then reuse.
    std::vector<std::size_t> order(infos.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (phases == PhaseAssignment::kGreedyMinDuplication) {
      const auto sizes = cone_sizes();
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return sizes[infos[a].driver.value] >
                                sizes[infos[b].driver.value];
                       });
    }

    std::vector<std::pair<NodeId, bool>> built(infos.size());
    for (const std::size_t idx : order) {
      const PoInfo& info = infos[idx];
      bool negated = false;
      if (phases == PhaseAssignment::kGreedyMinDuplication) {
        const NodeKind kind = input_.kind(info.driver);
        if (kind == NodeKind::kAnd || kind == NodeKind::kOr) {
          std::unordered_set<std::uint64_t> visited;
          const int cost_pos = count_new(info.driver, false, visited);
          visited.clear();
          const int cost_neg = count_new(info.driver, true, visited);
          negated = cost_neg < cost_pos;
        }
      }
      const NodeId out = build(info.driver, negated);
      built[idx] = {out, negated ? !info.parity : info.parity};
    }
    for (std::size_t idx = 0; idx < infos.size(); ++idx) {
      builder_.add_output(built[idx].first, input_.outputs()[idx].name);
      result_.po_inverted.push_back(built[idx].second);
    }

    const auto in_stats = input_.stats();
    result_.net = std::move(builder_).build();
    const auto out_stats = result_.net.stats();
    result_.duplication_ratio =
        in_stats.num_gates() == 0
            ? 1.0
            : static_cast<double>(out_stats.num_gates()) /
                  static_cast<double>(in_stats.num_gates());
    return std::move(result_);
  }

 private:
  /// AND/OR nodes in each node's input cone (for PO ordering).
  std::vector<int> cone_sizes() const {
    std::vector<int> size(input_.size(), 0);
    for (std::uint32_t i = 2; i < input_.size(); ++i) {
      const Node& n = input_.node(NodeId{i});
      // Upper bound (shared cones double-counted); only used for ordering.
      switch (n.kind) {
        case NodeKind::kAnd:
        case NodeKind::kOr:
          size[i] = 1 + size[n.fanin0.value] + size[n.fanin1.value];
          break;
        case NodeKind::kInv:
        case NodeKind::kBuf:
          size[i] = size[n.fanin0.value];
          break;
        default:
          break;
      }
    }
    return size;
  }

  NodeId literal(NodeId pi, bool negated) {
    const int k = input_.pi_index(pi);
    SOIDOM_ASSERT(k >= 0);
    auto& lits = result_.pi_literals[static_cast<std::size_t>(k)];
    int& slot = negated ? lits.neg : lits.pos;
    if (slot < 0) {
      const std::string& base = input_.pi_names()[static_cast<std::size_t>(k)];
      const std::string name = negated ? base + ".bar" : base;
      const NodeId node = builder_.add_pi(name);
      slot = static_cast<int>(builder_.peek().pis().size()) - 1;
      literal_nodes_[key(pi, negated)] = node;
    }
    return literal_nodes_.at(key(pi, negated));
  }

  static std::uint64_t key(NodeId id, bool negated) {
    return (static_cast<std::uint64_t>(id.value) << 1) |
           static_cast<std::uint64_t>(negated);
  }

  /// New AND/OR nodes a build(id, negated) call would create given the
  /// current memo (an estimate: structural hashing may share more).
  int count_new(NodeId id, bool negated,
                std::unordered_set<std::uint64_t>& visited) const {
    const std::uint64_t k = key(id, negated);
    if (memo_.contains(k) || !visited.insert(k).second) return 0;
    const Node& n = input_.node(id);
    switch (n.kind) {
      case NodeKind::kBuf:
        return count_new(n.fanin0, negated, visited);
      case NodeKind::kInv:
        return count_new(n.fanin0, !negated, visited);
      case NodeKind::kAnd:
      case NodeKind::kOr:
        return 1 + count_new(n.fanin0, negated, visited) +
               count_new(n.fanin1, negated, visited);
      default:
        return 0;  // constants and PI literals are not gates
    }
  }

  /// Returns a node of the unate network computing `id` (or its complement
  /// when `negated`) over input literals.
  NodeId build(NodeId id, bool negated) {
    if (const auto it = memo_.find(key(id, negated)); it != memo_.end()) {
      return it->second;
    }
    guard_checkpoint();
    const Node& n = input_.node(id);
    NodeId out;
    switch (n.kind) {
      case NodeKind::kConst0:
        out = negated ? builder_.const1() : builder_.const0();
        break;
      case NodeKind::kConst1:
        out = negated ? builder_.const0() : builder_.const1();
        break;
      case NodeKind::kPi:
        out = literal(id, negated);
        break;
      case NodeKind::kBuf:
        out = build(n.fanin0, negated);
        break;
      case NodeKind::kInv:
        out = build(n.fanin0, !negated);
        break;
      case NodeKind::kAnd: {
        const NodeId a = build(n.fanin0, negated);
        const NodeId b = build(n.fanin1, negated);
        // DeMorgan: !(x & y) == !x | !y
        out = negated ? builder_.add_or(a, b) : builder_.add_and(a, b);
        guard_charge(Resource::kNetworkNodes);
        break;
      }
      case NodeKind::kOr: {
        const NodeId a = build(n.fanin0, negated);
        const NodeId b = build(n.fanin1, negated);
        out = negated ? builder_.add_and(a, b) : builder_.add_or(a, b);
        guard_charge(Resource::kNetworkNodes);
        break;
      }
    }
    memo_.emplace(key(id, negated), out);
    return out;
  }

  const Network& input_;
  NetworkBuilder builder_;
  UnateResult result_;
  std::unordered_map<std::uint64_t, NodeId> memo_;
  std::unordered_map<std::uint64_t, NodeId> literal_nodes_;
};

}  // namespace

UnateResult make_unate(const Network& input, PhaseAssignment phases) {
  StageScope stage(FlowStage::kUnate);
  SOIDOM_FAULT_PROBE(FlowStage::kUnate);
  return UnateConverter(input).run(phases);
}

}  // namespace soidom
