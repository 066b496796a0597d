// Machine module tests: hypercube topology (parameterized), SAG structure,
// iPSC/860 parameters, and communication cost-model properties.
#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "api/machine_registry.hpp"
#include "machine/comm_model.hpp"
#include "machine/fattree.hpp"
#include "machine/ipsc860.hpp"
#include "machine/paragon.hpp"
#include "machine/topology.hpp"
#include "machine/whatif.hpp"

namespace hpf90d::machine {
namespace {

/// Hamming distance between two cube nodes: the e-cube hop count.
int hops(int a, int b) { return std::popcount(static_cast<unsigned>(a ^ b)); }

TEST(Topology, GrayCodeNeighbours) {
  for (unsigned i = 0; i + 1 < 16; ++i) {
    const unsigned a = gray_code(i);
    const unsigned b = gray_code(i + 1);
    EXPECT_EQ(hops(static_cast<int>(a), static_cast<int>(b)), 1)
        << "gray(" << i << ")";
  }
}

TEST(Topology, NonPowerOfTwoRejected) {
  EXPECT_THROW(Hypercube(6), std::invalid_argument);
  EXPECT_THROW(Hypercube(0), std::invalid_argument);
}

class CubeParam : public ::testing::TestWithParam<int> {};

TEST_P(CubeParam, DimensionAndRoutes) {
  const int nodes = GetParam();
  Hypercube cube(nodes);
  EXPECT_EQ(cube.link_count(), nodes * std::countr_zero(static_cast<unsigned>(nodes)));
  for (int a = 0; a < nodes; ++a) {
    for (int b = 0; b < nodes; ++b) {
      // the e-cube route the network simulation walks, a hop at a time
      std::vector<int> path{a};
      for (int cur = a; cur != b;) path.push_back(cur = Hypercube::next_hop(cur, b));
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      EXPECT_EQ(static_cast<int>(path.size()) - 1, hops(a, b));
      // every hop flips exactly one bit
      for (std::size_t h = 0; h + 1 < path.size(); ++h) {
        EXPECT_EQ(hops(path[h], path[h + 1]), 1);
        const int link = cube.link_index(path[h], path[h + 1]);
        EXPECT_GE(link, 0);
        EXPECT_LT(link, cube.link_count());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CubeParam, ::testing::Values(1, 2, 4, 8, 16));

TEST(Topology, GridEmbeddingKeepsNeighboursAdjacent) {
  Hypercube cube(8);
  const std::vector<int> shape{2, 4};
  // row neighbours and column neighbours must be cube neighbours
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 4; ++c) {
      const int self = cube.grid_to_node(r * 4 + c, shape);
      if (c + 1 < 4) {
        const int right = cube.grid_to_node(r * 4 + c + 1, shape);
        EXPECT_EQ(hops(self, right), 1);
      }
      if (r + 1 < 2) {
        const int down = cube.grid_to_node((r + 1) * 4 + c, shape);
        EXPECT_EQ(hops(self, down), 1);
      }
    }
  }
}

TEST(Topology, GridEmbeddingIsBijective) {
  Hypercube cube(8);
  const std::vector<int> shape{2, 4};
  std::vector<int> seen(8, 0);
  for (int p = 0; p < 8; ++p) seen[static_cast<std::size_t>(cube.grid_to_node(p, shape))]++;
  for (int s : seen) EXPECT_EQ(s, 1);
}

TEST(SAG, Ipsc860Decomposition) {
  const MachineModel m = make_ipsc860(8);
  EXPECT_EQ(m.max_nodes, 8);
  // the node SAU hangs off the cube, the cube and the host off the root
  EXPECT_EQ(m.sag.str(),
            "- iPSC/860 system\n"
            "  - SRM host (80386)\n"
            "  - i860 cube\n"
            "    - i860 node\n");
  EXPECT_EQ(m.node().name, "i860 node");
}

TEST(SAG, NodeParametersArePlausibleIpsc860) {
  const MachineModel m = make_ipsc860();
  const SAU& node = m.node();
  // 40 MHz node: flops cost tens of ns
  EXPECT_GT(node.proc.t_fadd, 10e-9);
  EXPECT_LT(node.proc.t_fadd, 1e-6);
  EXPECT_GT(node.proc.t_fdiv, node.proc.t_fmul);
  // published message latency ~75 us, bandwidth ~2.8 MB/s
  EXPECT_NEAR(node.comm.latency_short, 75e-6, 20e-6);
  EXPECT_NEAR(1.0 / node.comm.per_byte, 2.8e6, 0.5e6);
  EXPECT_EQ(node.mem.dcache_bytes, 8 * 1024);
  EXPECT_EQ(node.mem.icache_bytes, 4 * 1024);
  EXPECT_EQ(node.mem.main_memory_bytes, 8LL * 1024 * 1024);
  EXPECT_GT(node.proc.intrinsic_cost[static_cast<std::size_t>(front::IntrinsicId::Exp)],
            node.proc.t_fmul);
}

TEST(SAU, EveryBuiltInMachinePricesEveryLibraryIntrinsic) {
  const api::MachineRegistry registry;
  for (const std::string& name : registry.names()) {
    const SAU& node = registry.get(name).node();
    for (std::size_t i = 0; i < front::kLibraryIntrinsics; ++i) {
      EXPECT_GT(node.proc.intrinsic_cost[i], 0.0) << name << ": " << front::kIntrinsics[i].name;
    }
  }
}

TEST(SAG, ParagonDecomposition) {
  const MachineModel m = make_paragon(16);
  EXPECT_EQ(m.max_nodes, 16);
  EXPECT_EQ(m.sag.str(),
            "- Paragon XP/S system\n"
            "  - service partition\n"
            "  - wormhole mesh\n"
            "    - i860 XP node\n");
  EXPECT_EQ(m.node().name, "i860 XP node");
}

TEST(SAG, ParagonIsTheCubesSuccessor) {
  // the generational deltas the what-if studies lean on: a faster clock,
  // bigger caches and memory, similar software message latency but an
  // order of magnitude more bandwidth with negligible routing cost
  const MachineModel cube_model = make_ipsc860();
  const MachineModel xp_model = make_paragon();
  const SAU& cube = cube_model.node();
  const SAU& xp = xp_model.node();
  EXPECT_LT(xp.proc.t_fadd, cube.proc.t_fadd);
  EXPECT_GT(xp.mem.dcache_bytes, cube.mem.dcache_bytes);
  EXPECT_GT(xp.mem.main_memory_bytes, cube.mem.main_memory_bytes);
  EXPECT_LT(xp.comm.latency_short, cube.comm.latency_short);
  EXPECT_GT(1.0 / xp.comm.per_byte, 10.0 / cube.comm.per_byte);
  EXPECT_LT(xp.comm.per_hop, cube.comm.per_hop / 10.0);
}

TEST(SAG, FatTreeDecomposition) {
  const MachineModel m = make_fattree(16);
  EXPECT_EQ(m.max_nodes, 16);
  // 16 nodes / radix-4 leaves => two switch tiers between root and node
  EXPECT_EQ(m.sag.str(),
            "- fat-tree cluster\n"
            "  - front-end server\n"
            "  - spine switch tier\n"
            "    - leaf switch tier\n"
            "      - risc workstation\n");
  EXPECT_EQ(m.node().name, "risc workstation");

  // a single-tier tree still names its leaf tier
  EXPECT_EQ(make_fattree(4).sag.str(),
            "- fat-tree cluster\n"
            "  - front-end server\n"
            "  - leaf switch tier\n"
            "    - risc workstation\n");
}

TEST(SAG, FatTreeTiersAndBisectionFactor) {
  EXPECT_EQ(fattree_tiers(1, 4), 1);
  EXPECT_EQ(fattree_tiers(4, 4), 1);
  EXPECT_EQ(fattree_tiers(5, 4), 2);
  EXPECT_EQ(fattree_tiers(16, 4), 2);
  EXPECT_EQ(fattree_tiers(64, 4), 3);
  EXPECT_THROW((void)fattree_tiers(0, 4), std::invalid_argument);
  EXPECT_THROW((void)fattree_tiers(8, 1), std::invalid_argument);

  // default 2:1 taper: each extra tier halves the bisection bandwidth
  EXPECT_DOUBLE_EQ(fattree_bisection_factor(4), 1.0);
  EXPECT_DOUBLE_EQ(fattree_bisection_factor(16), 2.0);
  EXPECT_DOUBLE_EQ(fattree_bisection_factor(64), 4.0);
  FatTreeParams full;
  full.taper = 1.0;  // full-bisection tree: no contention at any size
  EXPECT_DOUBLE_EQ(fattree_bisection_factor(64, full), 1.0);
  FatTreeParams bad;
  bad.taper = 0.5;
  EXPECT_THROW((void)fattree_bisection_factor(64, bad), std::invalid_argument);
}

TEST(SAG, FatTreeCommCostsAreBisectionAware) {
  const MachineModel small = make_fattree(4);
  const MachineModel big = make_fattree(64);
  // bigger tree: more switch traversals in the setup, and the tapered spine
  // divides the effective per-byte bandwidth
  EXPECT_GT(big.node().comm.latency_short, small.node().comm.latency_short);
  EXPECT_DOUBLE_EQ(big.node().comm.per_byte, 4.0 * small.node().comm.per_byte);
  // a full-bisection build keeps the leaf-tier bandwidth at scale
  FatTreeParams full;
  full.taper = 1.0;
  EXPECT_DOUBLE_EQ(make_fattree(64, full).node().comm.per_byte,
                   small.node().comm.per_byte);
}

TEST(SAG, WhatIfAppliesToAnyBase) {
  // apply_whatif is base-agnostic: scaling the fat tree's latency must
  // leave its per-byte (bandwidth) costs untouched, and vice versa.
  WhatIfParams p;
  p.latency_scale = 0.5;
  const MachineModel base = make_fattree(16);
  const MachineModel scaled = apply_whatif(make_fattree(16), p);
  EXPECT_DOUBLE_EQ(scaled.node().comm.latency_short,
                   0.5 * base.node().comm.latency_short);
  EXPECT_DOUBLE_EQ(scaled.node().comm.per_byte, base.node().comm.per_byte);
  EXPECT_DOUBLE_EQ(scaled.node().proc.t_fadd, base.node().proc.t_fadd);
  WhatIfParams bad;
  bad.cpu_scale = -1;
  EXPECT_THROW((void)apply_whatif(make_fattree(4), bad), std::invalid_argument);
}

// --- communication model properties ------------------------------------------

class CommModelTest : public ::testing::Test {
 protected:
  MachineModel machine_ = make_ipsc860();
  CommModel model_{machine_.node().comm};
};

TEST_F(CommModelTest, PtpMonotoneInBytesAndHops) {
  EXPECT_LT(model_.ptp(10), model_.ptp(10000));
  EXPECT_LT(model_.ptp(1000, 1), model_.ptp(1000, 3));
}

TEST_F(CommModelTest, ShortMessagesCheaperSetup) {
  const auto& c = machine_.node().comm;
  EXPECT_NEAR(model_.ptp(50), c.latency_short + 50 * c.per_byte, 1e-12);
  EXPECT_NEAR(model_.ptp(5000), c.latency_long + 5000 * c.per_byte, 1e-12);
}

TEST_F(CommModelTest, StridedPackingCostsMore) {
  EXPECT_GT(model_.pack(1024, true), model_.pack(1024, false));
}

TEST_F(CommModelTest, ReduceScalesLogarithmically) {
  const double t2 = model_.reduce(2, 8, 0.0);
  const double t4 = model_.reduce(4, 8, 0.0);
  const double t8 = model_.reduce(8, 8, 0.0);
  EXPECT_NEAR(t4 / t2, 2.0, 0.01);
  EXPECT_NEAR(t8 / t2, 3.0, 0.01);
  EXPECT_DOUBLE_EQ(model_.reduce(1, 8, 0.0), 0.0);
}

TEST_F(CommModelTest, LinearCollectiveSlowerThanTree) {
  EXPECT_GT(model_.reduce(8, 8, 0.0, CollectiveAlgo::Linear),
            model_.reduce(8, 8, 0.0, CollectiveAlgo::RecursiveTree));
  EXPECT_GT(model_.bcast(8, 64, CollectiveAlgo::Linear),
            model_.bcast(8, 64, CollectiveAlgo::RecursiveTree));
}

TEST_F(CommModelTest, IrregularScalesWithCountAndProcs) {
  EXPECT_LT(model_.irregular(4, 100, 4), model_.irregular(4, 10000, 4));
  EXPECT_LT(model_.irregular(2, 1000, 4), model_.irregular(8, 1000, 4));
  // single processor: only index translation remains
  const auto& c = machine_.node().comm;
  EXPECT_NEAR(model_.irregular(1, 100, 4), 100 * c.per_element_index, 1e-12);
}

TEST_F(CommModelTest, RemapZeroOnOneProc) {
  EXPECT_DOUBLE_EQ(model_.remap(1, 1000, 4), 0.0);
  EXPECT_GT(model_.remap(4, 1000, 4), 0.0);
}

TEST_F(CommModelTest, OverlapExchangeIncludesPackBothSides) {
  const auto& c = machine_.node().comm;
  const double t = model_.overlap_exchange(1000, false);
  EXPECT_NEAR(t, 2 * model_.pack(1000, false) + model_.ptp(1000), 1e-12);
  (void)c;
}

}  // namespace
}  // namespace hpf90d::machine
