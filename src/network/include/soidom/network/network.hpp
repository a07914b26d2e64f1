/// \file network.hpp
/// Boolean network intermediate representation.
///
/// A Network is a DAG of simple logic nodes: constants, primary inputs,
/// 2-input AND / OR, and single-input INV / BUF.  This is exactly the input
/// contract of the paper's mapping algorithms ("an arbitrary two-input
/// logic gate network", section I) after technology decomposition.
///
/// Invariant: every node's fanins have smaller ids than the node itself, so
/// ids are already a topological order.  All construction goes through
/// NetworkBuilder (builder.hpp) which maintains this invariant and performs
/// optional structural hashing.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "soidom/base/contracts.hpp"

namespace soidom {

/// Node kinds.  Const0/Const1 occupy fixed slots 0 and 1 of every network.
enum class NodeKind : std::uint8_t {
  kConst0,
  kConst1,
  kPi,
  kAnd,  ///< 2-input AND
  kOr,   ///< 2-input OR
  kInv,  ///< inverter (absent from unate networks)
  kBuf,  ///< single-input buffer (used transiently by transforms)
};

/// Returns a short mnemonic ("AND", "OR", ...) for diagnostics.
const char* to_string(NodeKind kind);

/// Strongly typed node handle.
struct NodeId {
  std::uint32_t value = kInvalidValue;

  static constexpr std::uint32_t kInvalidValue =
      std::numeric_limits<std::uint32_t>::max();

  constexpr bool valid() const { return value != kInvalidValue; }
  friend constexpr bool operator==(NodeId, NodeId) = default;
  friend constexpr auto operator<=>(NodeId, NodeId) = default;
};

/// Fixed ids for the two constant nodes.
inline constexpr NodeId kConst0Id{0};
inline constexpr NodeId kConst1Id{1};

/// A single logic node.  Unused fanin slots hold invalid NodeIds.
struct Node {
  NodeKind kind = NodeKind::kConst0;
  NodeId fanin0;
  NodeId fanin1;

  int fanin_count() const {
    switch (kind) {
      case NodeKind::kConst0:
      case NodeKind::kConst1:
      case NodeKind::kPi:
        return 0;
      case NodeKind::kInv:
      case NodeKind::kBuf:
        return 1;
      case NodeKind::kAnd:
      case NodeKind::kOr:
        return 2;
    }
    return 0;
  }
};

/// A named primary output and the node driving it.
struct Output {
  NodeId driver;
  std::string name;
};

/// Aggregate size / shape statistics (see Network::stats()).
struct NetworkStats {
  std::size_t num_pis = 0;
  std::size_t num_pos = 0;
  std::size_t num_ands = 0;
  std::size_t num_ors = 0;
  std::size_t num_invs = 0;
  std::size_t num_bufs = 0;
  int depth = 0;  ///< max AND/OR nodes on any PI->PO path

  std::size_t num_gates() const { return num_ands + num_ors; }
};

/// Immutable-after-construction Boolean network DAG.
class Network {
 public:
  Network();

  // --- node access -------------------------------------------------------
  std::size_t size() const { return nodes_.size(); }
  const Node& node(NodeId id) const {
    SOIDOM_ASSERT(id.value < nodes_.size());
    return nodes_[id.value];
  }
  NodeKind kind(NodeId id) const { return node(id).kind; }
  NodeId fanin0(NodeId id) const { return node(id).fanin0; }
  NodeId fanin1(NodeId id) const { return node(id).fanin1; }

  // --- interface nodes ---------------------------------------------------
  /// Primary inputs in id order (NetworkBuilder::add_pi appends both).
  const std::vector<NodeId>& pis() const { return pis_; }
  const std::vector<Output>& outputs() const { return outputs_; }
  /// Names of the primary inputs, parallel to pis().
  const std::vector<std::string>& pi_names() const { return pi_names_; }

  /// Name of the primary input `id`.  O(number of PIs): it finds `id` in
  /// pis(); a loop over pis() should read pi_names() by position instead.
  const std::string& pi_name(NodeId id) const;

  /// Index of `id` within pis(), or -1 if not a PI.  O(number of PIs).
  int pi_index(NodeId id) const;

  // --- analysis ----------------------------------------------------------
  /// Number of nodes that reference each node as a fanin (outputs add one).
  std::vector<std::uint32_t> fanout_counts() const;

  /// Logic level of every node: PIs/constants are 0; AND/OR add one;
  /// INV/BUF are transparent (level of their fanin).
  std::vector<int> levels() const;

  NetworkStats stats() const;

  /// True if the network contains no inverters (BUFs are permitted).
  bool is_unate() const;

  /// Human-readable dump for debugging.
  std::string dump() const;

 private:
  friend class NetworkBuilder;

  std::vector<Node> nodes_;
  std::vector<NodeId> pis_;
  std::vector<std::string> pi_names_;   // parallel to pis_
  std::vector<Output> outputs_;
};

}  // namespace soidom
