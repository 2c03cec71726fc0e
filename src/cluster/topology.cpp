#include "cluster/topology.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>

namespace gpures::cluster {

namespace {

// Slot -> PCI bus id mapping resembling HGX A100 4-GPU / 8-GPU baseboard
// layouts.  The exact values are cosmetic; what matters is that the mapping
// is injective per node so logs can be attributed back to slots.  Stored
// rendered, so the per-XID-line inverse lookup only compares bytes.
constexpr std::array<std::string_view, 8> kPciBusIdBySlot = {
    "0000:07:00", "0000:27:00", "0000:47:00", "0000:67:00",
    "0000:87:00", "0000:A7:00", "0000:C7:00", "0000:E7:00"};

std::string node_name(const char* prefix, int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%03d", prefix, i);
  return buf;
}

}  // namespace

ClusterSpec ClusterSpec::delta_a100() {
  ClusterSpec spec;
  spec.nodes.reserve(106);
  for (int i = 1; i <= 100; ++i) {
    spec.nodes.push_back({node_name("gpua", i), 4});
  }
  for (int i = 1; i <= 6; ++i) {
    spec.nodes.push_back({node_name("gpub", i), 8});
  }
  return spec;
}

ClusterSpec ClusterSpec::small(std::int32_t nodes4, std::int32_t nodes8) {
  return scaled(nodes4, nodes8);
}

ClusterSpec ClusterSpec::scaled(std::int32_t nodes4, std::int32_t nodes8) {
  ClusterSpec spec;
  spec.nodes.reserve(static_cast<std::size_t>(std::max(nodes4, 0)) +
                     static_cast<std::size_t>(std::max(nodes8, 0)));
  for (int i = 1; i <= nodes4; ++i) {
    spec.nodes.push_back({node_name("gpua", i), 4});
  }
  for (int i = 1; i <= nodes8; ++i) {
    spec.nodes.push_back({node_name("gpub", i), 8});
  }
  return spec;
}

std::int32_t ClusterSpec::total_gpus() const {
  std::int32_t total = 0;
  for (const auto& n : nodes) total += n.gpu_count;
  return total;
}

Topology::Topology(ClusterSpec spec) : spec_(std::move(spec)) {
  flat_base_.reserve(spec_.nodes.size());
  index_by_name_.reserve(spec_.nodes.size());
  for (const auto& n : spec_.nodes) {
    if (n.gpu_count < 1 || n.gpu_count > 8) {
      throw std::invalid_argument("Topology: node GPU count must be 1..8");
    }
    // emplace keeps the first index of a repeated name.
    index_by_name_.emplace(n.name, static_cast<std::int32_t>(flat_base_.size()));
    flat_base_.push_back(total_gpus_);
    total_gpus_ += n.gpu_count;
  }
}

std::optional<std::int32_t> Topology::node_index(std::string_view hostname) const {
  const auto it = index_by_name_.find(hostname);
  if (it == index_by_name_.end()) return std::nullopt;
  return it->second;
}

std::string Topology::pci_bus(xid::GpuId gpu) const {
  if (gpu.node < 0 || gpu.node >= node_count() || gpu.slot < 0 ||
      gpu.slot >= gpus_on_node(gpu.node)) {
    throw std::out_of_range("Topology::pci_bus: bad GpuId");
  }
  return std::string(kPciBusIdBySlot[static_cast<std::size_t>(gpu.slot)]);
}

std::optional<std::int32_t> Topology::slot_for_pci(std::int32_t node_idx,
                                                   std::string_view pci) const {
  if (node_idx < 0 || node_idx >= node_count()) return std::nullopt;
  for (std::int32_t s = 0; s < gpus_on_node(node_idx); ++s) {
    if (kPciBusIdBySlot[static_cast<std::size_t>(s)] == pci) return s;
  }
  return std::nullopt;
}

std::int32_t Topology::flat_index(xid::GpuId gpu) const {
  if (gpu.node < 0 || gpu.node >= node_count() || gpu.slot < 0 ||
      gpu.slot >= gpus_on_node(gpu.node)) {
    throw std::out_of_range("Topology::flat_index: bad GpuId");
  }
  return flat_base_[static_cast<std::size_t>(gpu.node)] + gpu.slot;
}

std::int32_t Topology::gpus_in_nodes(std::int32_t begin, std::int32_t end) const {
  if (begin < 0 || end > node_count() || begin > end) {
    throw std::out_of_range("Topology::gpus_in_nodes: bad range");
  }
  if (begin == end) return 0;
  const std::int32_t first = flat_base_[static_cast<std::size_t>(begin)];
  const std::int32_t last = end == node_count()
                                ? total_gpus_
                                : flat_base_[static_cast<std::size_t>(end)];
  return last - first;
}

xid::GpuId Topology::from_flat(std::int32_t flat) const {
  if (flat < 0 || flat >= total_gpus_) {
    throw std::out_of_range("Topology::from_flat: bad index");
  }
  const auto it = std::upper_bound(flat_base_.begin(), flat_base_.end(), flat);
  const auto node = static_cast<std::int32_t>(it - flat_base_.begin()) - 1;
  return {node, flat - flat_base_[static_cast<std::size_t>(node)]};
}

std::vector<std::int32_t> Topology::nvlink_peers(std::int32_t node_idx,
                                                 std::int32_t slot) const {
  std::vector<std::int32_t> peers;
  const std::int32_t n = gpus_on_node(node_idx);
  peers.reserve(static_cast<std::size_t>(n) - 1);
  for (std::int32_t s = 0; s < n; ++s) {
    if (s != slot) peers.push_back(s);
  }
  return peers;
}

}  // namespace gpures::cluster
