#include "soidom/mapper/cone.hpp"

#include "soidom/base/hash.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/domino/serialize.hpp"

namespace soidom {
namespace {

const char* engine_name(MappingEngine engine) {
  switch (engine) {
    case MappingEngine::kDominoMap: return "domino";
    case MappingEngine::kSoiDominoMap: return "soi";
  }
  return "unknown";
}

const char* objective_name(CostObjective objective) {
  switch (objective) {
    case CostObjective::kArea: return "area";
    case CostObjective::kDepth: return "depth";
  }
  return "unknown";
}

const char* grounding_name(GroundingPolicy policy) {
  switch (policy) {
    case GroundingPolicy::kFootlessGrounded: return "footless";
    case GroundingPolicy::kAllGrounded: return "all";
    case GroundingPolicy::kNoneGrounded: return "none";
  }
  return "unknown";
}

const char* pending_name(PendingModel model) {
  switch (model) {
    case PendingModel::kCoherent: return "coherent";
    case PendingModel::kPaperLiteral: return "paper";
  }
  return "unknown";
}

const char* kind_code(NodeKind kind) {
  switch (kind) {
    case NodeKind::kConst0: return "c0";
    case NodeKind::kConst1: return "c1";
    case NodeKind::kPi: return "pi";
    case NodeKind::kAnd: return "and";
    case NodeKind::kOr: return "or";
    case NodeKind::kInv: return "inv";
    case NodeKind::kBuf: return "buf";
  }
  return "?";
}

}  // namespace

std::string mapper_fingerprint(const MapperOptions& options) {
  // %.17g round-trips every double, so two clock weights fingerprint
  // equal iff they are bit-equal.
  return format(
      "engine=%s objective=%s wmax=%d hmax=%d k=%.17g grounding=%s "
      "pending=%s exhaustive=%d beam=%d complex=%d fanout_gate=%d",
      engine_name(options.engine), objective_name(options.objective),
      options.max_width, options.max_height, options.clock_weight,
      grounding_name(options.grounding), pending_name(options.pending_model),
      options.exhaustive_ordering ? 1 : 0, options.beam_width,
      options.enable_complex_gates ? 1 : 0, options.gate_at_fanout ? 1 : 0);
}

ConeKey cone_key(const UnateResult& unate, const MapperOptions& options) {
  const Network& net = unate.net;
  std::string text;
  text.reserve(64 + net.size() * 16);
  text += "soidom-cone-1\n";
  text += "opts ";
  text += mapper_fingerprint(options);
  text += '\n';
  text += format("net %zu\n", net.size());
  // Constants occupy fixed slots 0/1 in every network; serializing them
  // anyway keeps the record self-describing.
  for (std::uint32_t i = 0; i < net.size(); ++i) {
    const Node& node = net.node(NodeId{i});
    text += format("n %u %s", i, kind_code(node.kind));
    if (node.fanin_count() >= 1) text += format(" %u", node.fanin0.value);
    if (node.fanin_count() >= 2) text += format(" %u", node.fanin1.value);
    text += '\n';
  }
  for (std::size_t i = 0; i < net.pis().size(); ++i) {
    text += format("pi %zu %u \"%s\"\n", i, net.pis()[i].value,
                   json_escape(net.pi_names()[i]).c_str());
  }
  for (std::size_t i = 0; i < unate.pi_literals.size(); ++i) {
    text += format("lit %zu %d %d\n", i, unate.pi_literals[i].pos,
                   unate.pi_literals[i].neg);
  }
  for (std::size_t i = 0; i < net.outputs().size(); ++i) {
    const Output& out = net.outputs()[i];
    text += format("out %zu %u \"%s\" %d\n", i, out.driver.value,
                   json_escape(out.name).c_str(),
                   i < unate.po_inverted.size() && unate.po_inverted[i] ? 1
                                                                       : 0);
  }
  ConeKey key;
  key.hash = fnv1a64(text);
  key.text = std::move(text);
  return key;
}

CachedMapping cached_from_mapping(const MappingResult& mapped) {
  CachedMapping value;
  value.dnl = write_dnl(mapped.netlist);
  value.predicted_cost = mapped.predicted_cost;
  value.dp_analyzer_mismatches = mapped.dp_analyzer_mismatches;
  return value;
}

MappingResult mapping_from_cached(const CachedMapping& value) {
  MappingResult mapped;
  mapped.netlist = parse_dnl(value.dnl);  // throws on malformed payload
  mapped.predicted_cost = value.predicted_cost;
  mapped.dp_analyzer_mismatches = value.dp_analyzer_mismatches;
  return mapped;
}

}  // namespace soidom
