#include "soidom/network/network.hpp"

#include <algorithm>
#include <sstream>

#include "soidom/base/strings.hpp"

namespace soidom {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kConst0: return "CONST0";
    case NodeKind::kConst1: return "CONST1";
    case NodeKind::kPi: return "PI";
    case NodeKind::kAnd: return "AND";
    case NodeKind::kOr: return "OR";
    case NodeKind::kInv: return "INV";
    case NodeKind::kBuf: return "BUF";
  }
  return "?";
}

Network::Network() {
  nodes_.push_back(Node{NodeKind::kConst0, {}, {}});
  nodes_.push_back(Node{NodeKind::kConst1, {}, {}});
}

const std::string& Network::pi_name(NodeId id) const {
  const int idx = pi_index(id);
  SOIDOM_ASSERT_MSG(idx >= 0, "node is not a primary input");
  return pi_names_[static_cast<std::size_t>(idx)];
}

int Network::pi_index(NodeId id) const {
  const auto it = std::find(pis_.begin(), pis_.end(), id);
  if (it == pis_.end()) return -1;
  return static_cast<int>(it - pis_.begin());
}

std::vector<std::uint32_t> Network::fanout_counts() const {
  std::vector<std::uint32_t> counts(nodes_.size(), 0);
  for (const Node& n : nodes_) {
    if (n.fanin_count() >= 1) ++counts[n.fanin0.value];
    if (n.fanin_count() >= 2) ++counts[n.fanin1.value];
  }
  for (const Output& o : outputs_) ++counts[o.driver.value];
  return counts;
}

std::vector<int> Network::levels() const {
  std::vector<int> level(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    switch (n.kind) {
      case NodeKind::kConst0:
      case NodeKind::kConst1:
      case NodeKind::kPi:
        level[i] = 0;
        break;
      case NodeKind::kInv:
      case NodeKind::kBuf:
        level[i] = level[n.fanin0.value];
        break;
      case NodeKind::kAnd:
      case NodeKind::kOr:
        level[i] = 1 + std::max(level[n.fanin0.value], level[n.fanin1.value]);
        break;
    }
  }
  return level;
}

NetworkStats Network::stats() const {
  NetworkStats s;
  s.num_pis = pis_.size();
  s.num_pos = outputs_.size();
  for (const Node& n : nodes_) {
    switch (n.kind) {
      case NodeKind::kAnd: ++s.num_ands; break;
      case NodeKind::kOr: ++s.num_ors; break;
      case NodeKind::kInv: ++s.num_invs; break;
      case NodeKind::kBuf: ++s.num_bufs; break;
      default: break;
    }
  }
  const auto level = levels();
  for (const Output& o : outputs_) {
    s.depth = std::max(s.depth, level[o.driver.value]);
  }
  return s;
}

bool Network::is_unate() const {
  return std::none_of(nodes_.begin(), nodes_.end(), [](const Node& n) {
    return n.kind == NodeKind::kInv;
  });
}

std::string Network::dump() const {
  std::ostringstream os;
  std::size_t pi_pos = 0;  // PIs appear in id order, so in pis_ order
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    os << i << ": " << to_string(n.kind);
    if (n.kind == NodeKind::kPi) os << " \"" << pi_names_[pi_pos++] << '"';
    if (n.fanin_count() >= 1) os << ' ' << n.fanin0.value;
    if (n.fanin_count() >= 2) os << ' ' << n.fanin1.value;
    os << '\n';
  }
  for (const Output& o : outputs_) {
    os << "PO \"" << o.name << "\" <- " << o.driver.value << '\n';
  }
  return os.str();
}

}  // namespace soidom
