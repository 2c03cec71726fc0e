// Cluster topology: the Delta A100 partition layout.
//
// The study's system is 106 A100 GPU nodes: 100 nodes with 4-way A100s and 6
// nodes with 8-way A100s (448 GPUs total), each GPU with 40 GB HBM2e.  The
// topology module owns node naming, PCI addressing (used to attribute syslog
// XID lines to GPUs), and NVLink connectivity within a node.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "des/shard.h"
#include "xid/event.h"

namespace gpures::cluster {

/// Contiguous [begin, end) node slice — the unit of simulation sharding.
/// {0, node_count} (the default everywhere it appears) means "the whole
/// cluster" and reproduces unsharded behaviour exactly.
using NodeRange = des::IndexRange;

/// Static description of one node.
struct NodeSpec {
  std::string name;        ///< e.g. "gpua042"
  std::int32_t gpu_count = 4;
};

/// Static description of the cluster.
struct ClusterSpec {
  std::vector<NodeSpec> nodes;

  /// The Delta A100 partition: 100x 4-way ("gpuaNNN") + 6x 8-way ("gpubNNN").
  static ClusterSpec delta_a100();

  /// A small synthetic cluster for tests/examples.
  static ClusterSpec small(std::int32_t nodes4 = 4, std::int32_t nodes8 = 1);

  /// A Delta-shaped fleet of arbitrary size: `nodes4` 4-way nodes
  /// ("gpuaN...") followed by `nodes8` 8-way nodes ("gpubN...").  With
  /// (100, 6) this reproduces delta_a100() exactly; multi-thousand-node
  /// campaigns pick proportionally larger counts (gpures-simulate --nodes).
  static ClusterSpec scaled(std::int32_t nodes4, std::int32_t nodes8);

  std::int32_t node_count() const { return static_cast<std::int32_t>(nodes.size()); }
  std::int32_t total_gpus() const;
};

/// Runtime topology with index/name/PCI lookups.
class Topology {
 public:
  explicit Topology(ClusterSpec spec);

  const ClusterSpec& spec() const { return spec_; }
  std::int32_t node_count() const { return spec_.node_count(); }
  std::int32_t total_gpus() const { return total_gpus_; }

  const NodeSpec& node(std::int32_t idx) const { return spec_.nodes.at(static_cast<std::size_t>(idx)); }
  std::int32_t gpus_on_node(std::int32_t idx) const { return node(idx).gpu_count; }

  /// Node index by hostname; nullopt if unknown.  One hash
  /// lookup against a map built in the constructor, so it is O(1) per call
  /// and safe to call from several threads at once.  If the spec repeats a
  /// name, the first node carrying it wins.
  std::optional<std::int32_t> node_index(std::string_view hostname) const;

  /// PCI bus id string for a GPU slot, e.g. "0000:27:00".  Slot -> bus
  /// mapping is fixed per node type (mirrors typical HGX board layouts).
  std::string pci_bus(xid::GpuId gpu) const;

  /// Inverse of pci_bus: slot for a PCI bus string on the given node
  /// (exact, case-sensitive match against the node's slots).
  std::optional<std::int32_t> slot_for_pci(std::int32_t node_idx,
                                           std::string_view pci) const;

  /// Global flat GPU index in [0, total_gpus()): useful for per-GPU arrays.
  std::int32_t flat_index(xid::GpuId gpu) const;
  xid::GpuId from_flat(std::int32_t flat) const;

  /// First flat GPU index of `node` (flat indices of a contiguous node range
  /// are themselves contiguous — the property simulation sharding relies on).
  std::int32_t flat_base(std::int32_t node) const {
    return flat_base_.at(static_cast<std::size_t>(node));
  }

  /// Total GPUs on nodes [begin, end).
  std::int32_t gpus_in_nodes(std::int32_t begin, std::int32_t end) const;

  /// Enumerate NVLink peer slots of `slot` on a node with `gpu_count` GPUs.
  /// A100 HGX boards are all-to-all through NVSwitch, so peers are simply the
  /// other slots on the node.
  std::vector<std::int32_t> nvlink_peers(std::int32_t node_idx,
                                         std::int32_t slot) const;

 private:
  /// Transparent hash, so node_index looks up a string_view without
  /// building a std::string key.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  ClusterSpec spec_;
  std::int32_t total_gpus_ = 0;
  std::vector<std::int32_t> flat_base_;  ///< per node: first flat index
  /// Hostname -> node index, filled once by the constructor and read-only
  /// afterwards (never built lazily: lookups run on several workers).
  std::unordered_map<std::string, std::int32_t, NameHash, std::equal_to<>>
      index_by_name_;
};

}  // namespace gpures::cluster
