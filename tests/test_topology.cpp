// Cluster topology: the Delta layout, PCI attribution, flat indexing.
#include <gtest/gtest.h>

#include <set>

#include "cluster/topology.h"

namespace cl = gpures::cluster;

TEST(ClusterSpec, DeltaLayout) {
  const auto spec = cl::ClusterSpec::delta_a100();
  EXPECT_EQ(spec.node_count(), 106);
  EXPECT_EQ(spec.total_gpus(), 100 * 4 + 6 * 8);  // 448
  int four = 0;
  int eight = 0;
  for (const auto& n : spec.nodes) {
    if (n.gpu_count == 4) ++four;
    if (n.gpu_count == 8) ++eight;
  }
  EXPECT_EQ(four, 100);
  EXPECT_EQ(eight, 6);
}

TEST(ClusterSpec, NodeNamesUnique) {
  const auto spec = cl::ClusterSpec::delta_a100();
  std::set<std::string> names;
  for (const auto& n : spec.nodes) names.insert(n.name);
  EXPECT_EQ(names.size(), spec.nodes.size());
  EXPECT_EQ(spec.nodes[0].name, "gpua001");
  EXPECT_EQ(spec.nodes[105].name, "gpub006");
}

TEST(Topology, NodeIndexLookup) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  EXPECT_EQ(topo.node_index("gpua001"), 0);
  EXPECT_EQ(topo.node_index("gpua100"), 99);
  EXPECT_EQ(topo.node_index("gpub001"), 100);
  EXPECT_FALSE(topo.node_index("nosuchhost").has_value());
}

TEST(Topology, NodeIndexLookupAtFleetScale) {
  // A 2,000-node fleet: every name resolves to its own index, including the
  // last one, and near-misses stay unknown.
  const cl::Topology topo(cl::ClusterSpec::scaled(1900, 100));
  ASSERT_EQ(topo.node_count(), 2000);
  for (std::int32_t i = 0; i < topo.node_count(); ++i) {
    ASSERT_EQ(topo.node_index(topo.node(i).name), i) << topo.node(i).name;
  }
  EXPECT_EQ(topo.node(1999).name, "gpub100");
  EXPECT_EQ(topo.node_index("gpub100"), 1999);
  EXPECT_EQ(topo.node_index("gpua010"), 9);
  EXPECT_FALSE(topo.node_index("gpua10").has_value());   // prefix of gpua100
  EXPECT_FALSE(topo.node_index("gpua1").has_value());    // prefix of gpua1xx
  EXPECT_FALSE(topo.node_index("gpua0100").has_value());
  EXPECT_FALSE(topo.node_index("gpua1901").has_value());  // one past the end
  EXPECT_FALSE(topo.node_index("GPUA001").has_value());   // case-sensitive
  EXPECT_FALSE(topo.node_index("gpua001 ").has_value());
  EXPECT_FALSE(topo.node_index("nosuchhost").has_value());
  EXPECT_FALSE(topo.node_index("").has_value());
}

TEST(Topology, NodeIndexFirstDuplicateWins) {
  cl::ClusterSpec spec;
  spec.nodes = {{"alpha", 4}, {"beta", 8}, {"alpha", 2}, {"gamma", 4}};
  const cl::Topology topo(spec);
  EXPECT_EQ(topo.node_index("alpha"), 0);
  EXPECT_EQ(topo.node_index("beta"), 1);
  EXPECT_EQ(topo.node_index("gamma"), 3);
  EXPECT_FALSE(topo.node_index("alph").has_value());
  // A copied topology answers the same.
  const cl::Topology copy = topo;
  EXPECT_EQ(copy.node_index("alpha"), 0);
  EXPECT_EQ(copy.node_index("gamma"), 3);
}

TEST(Topology, PciMappingInjectivePerNode) {
  cl::Topology topo(cl::ClusterSpec::small(2, 1));
  for (std::int32_t n = 0; n < topo.node_count(); ++n) {
    std::set<std::string> pcis;
    for (std::int32_t s = 0; s < topo.gpus_on_node(n); ++s) {
      pcis.insert(topo.pci_bus({n, s}));
    }
    EXPECT_EQ(pcis.size(), static_cast<std::size_t>(topo.gpus_on_node(n)));
  }
}

TEST(Topology, PciRoundTrip) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  for (std::int32_t n : {0, 50, 100, 105}) {
    for (std::int32_t s = 0; s < topo.gpus_on_node(n); ++s) {
      const auto pci = topo.pci_bus({n, s});
      EXPECT_EQ(topo.slot_for_pci(n, pci), s);
    }
  }
  EXPECT_FALSE(topo.slot_for_pci(0, "0000:FF:00").has_value());
  EXPECT_FALSE(topo.slot_for_pci(-1, "0000:07:00").has_value());
}

TEST(Topology, PciLookupIsExactAndBoundedBySlotCount) {
  const cl::Topology topo(cl::ClusterSpec::delta_a100());
  EXPECT_EQ(topo.slot_for_pci(100, "0000:E7:00"), 7);   // 8-way node
  EXPECT_FALSE(topo.slot_for_pci(0, "0000:E7:00").has_value());  // 4-way
  EXPECT_FALSE(topo.slot_for_pci(0, "0000:87:00").has_value());
  EXPECT_EQ(topo.slot_for_pci(100, "0000:A7:00"), 5);
  EXPECT_FALSE(topo.slot_for_pci(100, "0000:a7:00").has_value());
  EXPECT_FALSE(topo.slot_for_pci(0, "0000:07:0").has_value());
  EXPECT_FALSE(topo.slot_for_pci(0, "0000:07:00 ").has_value());
  EXPECT_FALSE(topo.slot_for_pci(0, "").has_value());
  EXPECT_FALSE(topo.slot_for_pci(106, "0000:07:00").has_value());
}

TEST(Topology, PciFormat) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  EXPECT_EQ(topo.pci_bus({0, 0}), "0000:07:00");
  EXPECT_EQ(topo.pci_bus({0, 1}), "0000:27:00");
  EXPECT_THROW(topo.pci_bus({0, 4}), std::out_of_range);  // 4-way node
  EXPECT_NO_THROW(topo.pci_bus({100, 7}));                // 8-way node
}

TEST(Topology, FlatIndexBijective) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  std::set<std::int32_t> seen;
  for (std::int32_t n = 0; n < topo.node_count(); ++n) {
    for (std::int32_t s = 0; s < topo.gpus_on_node(n); ++s) {
      const auto flat = topo.flat_index({n, s});
      ASSERT_GE(flat, 0);
      ASSERT_LT(flat, topo.total_gpus());
      seen.insert(flat);
      const auto back = topo.from_flat(flat);
      EXPECT_EQ(back.node, n);
      EXPECT_EQ(back.slot, s);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(topo.total_gpus()));
  EXPECT_THROW(topo.from_flat(-1), std::out_of_range);
  EXPECT_THROW(topo.from_flat(topo.total_gpus()), std::out_of_range);
  EXPECT_THROW(topo.flat_index({0, 9}), std::out_of_range);
}

TEST(Topology, NvlinkPeersAllToAll) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  const auto peers4 = topo.nvlink_peers(0, 1);
  EXPECT_EQ(peers4, (std::vector<std::int32_t>{0, 2, 3}));
  const auto peers8 = topo.nvlink_peers(100, 0);
  EXPECT_EQ(peers8.size(), 7u);
}

TEST(Topology, BadSpecRejected) {
  cl::ClusterSpec bad;
  bad.nodes.push_back({"x", 9});
  EXPECT_THROW(cl::Topology{bad}, std::invalid_argument);
  cl::ClusterSpec zero;
  zero.nodes.push_back({"x", 0});
  EXPECT_THROW(cl::Topology{zero}, std::invalid_argument);
}
