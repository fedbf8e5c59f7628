#include "vc/balance.hpp"
#include "vc/cdg.hpp"
#include "vc/layers.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/netsmith.hpp"
#include "routing/mclb.hpp"
#include "topo/builders.hpp"
#include "topologies/registry.hpp"

namespace netsmith::vc {
namespace {

// Reference decision for add_dep_acyclic: insert, run the full-graph DFS,
// roll back on a cycle.
int add_dep_reference(Cdg& cdg, int from, int to) {
  const bool added = cdg.add_dep(from, to);
  if (cdg.has_cycle()) {
    if (added) cdg.remove_dep(from, to);
    return -1;
  }
  return added ? 1 : 0;
}

// The layering pass as it was before the incremental check: add the whole
// path, run the full-graph DFS, roll back on a cycle.
VcAssignment assign_in_order_reference(const routing::RoutingTable& rt,
                                       const LinkIds& ids,
                                       std::vector<int> pending,
                                       int max_layers) {
  const int n = rt.num_nodes();
  VcAssignment a;
  a.layer.assign(static_cast<std::size_t>(n) * n, -1);
  int layer = 0;
  while (!pending.empty()) {
    if (layer >= max_layers) {
      a.num_layers = -1;
      return a;
    }
    Cdg cdg(ids.count());
    std::vector<int> deferred;
    for (const int f : pending) {
      const auto inserted = cdg.add_path(rt.path(f / n, f % n), ids);
      if (cdg.has_cycle()) {
        cdg.remove_deps(inserted);
        deferred.push_back(f);
      } else {
        a.layer[f] = layer;
      }
    }
    pending = std::move(deferred);
    ++layer;
  }
  a.num_layers = layer;
  return a;
}

std::vector<int> all_flows(const routing::RoutingTable& rt) {
  const int n = rt.num_nodes();
  std::vector<int> flows;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (s != d && rt.path(s, d).size() >= 2) flows.push_back(s * n + d);
  return flows;
}

// The same order through both passes: identity, then shuffles. The identity
// order is (s, d) order, the one assign_layers uses.
void expect_same_layers(const routing::RoutingTable& rt, const topo::DiGraph& g,
                        int orders, std::uint64_t seed) {
  const LinkIds ids(g);
  std::vector<int> order = all_flows(rt);
  util::Rng rng(seed);
  for (int r = 0; r < orders; ++r) {
    if (r > 0) rng.shuffle(order);
    const auto inc = assign_layers_in_order(rt, ids, order, 16);
    const auto ref = assign_in_order_reference(rt, ids, order, 16);
    EXPECT_EQ(inc.num_layers, ref.num_layers) << "order " << r;
    EXPECT_EQ(inc.layer, ref.layer) << "order " << r;
    if (r == 0) {
      const auto got = assign_layers(rt, g);
      EXPECT_EQ(got.num_layers, ref.num_layers);
      EXPECT_EQ(got.layer, ref.layer);
    }
  }
}

TEST(LinkIds, DenseAndInvertible) {
  topo::DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const LinkIds ids(g);
  EXPECT_EQ(ids.count(), 3);
  for (const auto& [u, v] : g.edges()) {
    const int e = ids.id(u, v);
    ASSERT_GE(e, 0);
    EXPECT_EQ(ids.link(e), std::make_pair(u, v));
  }
  EXPECT_EQ(ids.id(0, 2), -1);
}

TEST(Cdg, DetectsSimpleCycle) {
  Cdg cdg(3);
  EXPECT_TRUE(cdg.add_dep(0, 1));
  EXPECT_TRUE(cdg.add_dep(1, 2));
  EXPECT_FALSE(cdg.has_cycle());
  EXPECT_TRUE(cdg.add_dep(2, 0));
  EXPECT_TRUE(cdg.has_cycle());
}

TEST(Cdg, DuplicateDepsIgnored) {
  Cdg cdg(2);
  EXPECT_TRUE(cdg.add_dep(0, 1));
  EXPECT_FALSE(cdg.add_dep(0, 1));
  EXPECT_EQ(cdg.num_deps(), 1);
}

TEST(Cdg, RemoveDepsRollsBack) {
  Cdg cdg(3);
  cdg.add_dep(0, 1);
  const std::vector<std::pair<int, int>> added{{1, 2}, {2, 0}};
  for (const auto& [a, b] : added) cdg.add_dep(a, b);
  EXPECT_TRUE(cdg.has_cycle());
  cdg.remove_deps(added);
  EXPECT_FALSE(cdg.has_cycle());
  EXPECT_EQ(cdg.num_deps(), 1);
}

TEST(Cdg, AddPathCreatesConsecutiveDeps) {
  topo::DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const LinkIds ids(g);
  Cdg cdg(ids.count());
  const auto ins = cdg.add_path({0, 1, 2, 3}, ids);
  EXPECT_EQ(ins.size(), 2u);  // (0-1)->(1-2), (1-2)->(2-3)
  EXPECT_FALSE(cdg.has_cycle());
}

TEST(Cdg, AcyclicInsertMatchesFullDfs) {
  // Random dependency streams with self-deps, duplicates and removals: every
  // add_dep_acyclic decision equals add_dep + has_cycle + rollback.
  for (const int nodes : {4, 12, 40}) {
    util::Rng rng(1000 + nodes);
    Cdg inc(nodes), ref(nodes);
    std::vector<std::pair<int, int>> present;
    int cycles = 0, dups = 0;
    for (int step = 0; step < 4000; ++step) {
      if (!present.empty() && rng.uniform_int(0, 3) == 0) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(present.size()) - 1));
        inc.remove_dep(present[k].first, present[k].second);
        ref.remove_dep(present[k].first, present[k].second);
        present.erase(present.begin() + static_cast<std::ptrdiff_t>(k));
        continue;
      }
      const int from = static_cast<int>(rng.uniform_int(0, nodes - 1));
      const int to = rng.uniform_int(0, 9) == 0
                         ? from
                         : static_cast<int>(rng.uniform_int(0, nodes - 1));
      const int want = add_dep_reference(ref, from, to);
      ASSERT_EQ(inc.add_dep_acyclic(from, to), want)
          << "nodes " << nodes << " step " << step << " dep " << from << "->"
          << to;
      if (want > 0) present.emplace_back(from, to);
      cycles += want < 0;
      dups += want == 0;
      ASSERT_EQ(inc.num_deps(), ref.num_deps());
      ASSERT_FALSE(inc.has_cycle());
    }
    // The stream must exercise every outcome.
    EXPECT_GT(cycles, 0);
    EXPECT_GT(dups, 0);
    EXPECT_GT(static_cast<int>(present.size()), 0);
  }
}

TEST(Cdg, AcyclicInsertRejectsSelfDepAndLeavesGraphUnchanged) {
  Cdg cdg(3);
  EXPECT_EQ(cdg.add_dep_acyclic(1, 1), -1);
  EXPECT_EQ(cdg.add_dep_acyclic(2, 1), 1);  // against the identity order
  EXPECT_EQ(cdg.add_dep_acyclic(1, 0), 1);
  EXPECT_EQ(cdg.add_dep_acyclic(2, 1), 0);
  EXPECT_EQ(cdg.add_dep_acyclic(0, 2), -1);
  EXPECT_EQ(cdg.num_deps(), 2);
  cdg.remove_dep(2, 1);
  EXPECT_EQ(cdg.add_dep_acyclic(0, 2), 1);  // the order survives removal
  EXPECT_FALSE(cdg.has_cycle());
}

TEST(Layers, IncrementalPassMatchesFullDfsOnRandomGraphs) {
  for (int k = 0; k < 12; ++k) {
    util::Rng rng(700 + k);
    const auto g = topo::build_random(topo::Layout::noi_4x5(),
                                      topo::LinkClass::kMedium, 4, rng);
    const auto ps = routing::enumerate_shortest_paths(g);
    if (!ps.all_flows_covered()) continue;
    SCOPED_TRACE("graph " + std::to_string(k));
    expect_same_layers(routing::mclb_local_search(ps).table(ps), g, 4, k);
  }
}

// assign_layers is one pass in (s, d) order: it equals the reference pass
// over all_flows, and so does assign_layers_in_order over the same order.
// (Random 4x5 graphs get the same check through expect_same_layers.)
void expect_source_major(const routing::RoutingTable& rt,
                         const topo::DiGraph& g) {
  const LinkIds ids(g);
  const auto ref = assign_in_order_reference(rt, ids, all_flows(rt), 16);
  ASSERT_GT(ref.num_layers, 0);
  const auto got = assign_layers(rt, g);
  EXPECT_EQ(got.num_layers, ref.num_layers);
  EXPECT_EQ(got.layer, ref.layer);
  const auto inc = assign_layers_in_order(rt, ids, all_flows(rt), 16);
  EXPECT_EQ(inc.num_layers, ref.num_layers);
  EXPECT_EQ(inc.layer, ref.layer);
}

TEST(Layers, OneSourceMajorPass) {
  {
    SCOPED_TRACE("folded torus");
    const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
    expect_source_major(routing::RoutingTable::select_first(
                            routing::enumerate_shortest_paths(g)),
                        g);
  }
  {
    // One reference pass: the full-DFS reference costs minutes per pass at
    // n = 256 under the sanitizer builds.
    SCOPED_TRACE("16x16 mesh");
    const auto g = topo::build_mesh(topo::Layout{16, 16, 2.0});
    const auto ps = routing::enumerate_shortest_paths(g, 4);
    expect_source_major(routing::mclb_local_search(ps).table(ps), g);
  }
}

TEST(Layers, ThrowsBeyondMaxLayers) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  const int need = assign_layers(rt, g).num_layers;
  ASSERT_GE(need, 2);
  EXPECT_EQ(assign_layers(rt, g, need).num_layers, need);
  EXPECT_THROW(assign_layers(rt, g, need - 1), std::runtime_error);
}

TEST(Layers, PinnedCatalogLayerCounts) {
  // Layer counts of every n = 48 catalog and baseline plan (MCLB, 24 paths
  // per flow), recorded when assign_layers kept the best of the (s, d) pass
  // and seven shuffled ones. The (s, d) pass alone must reproduce them.
  const std::vector<std::pair<std::string, int>> want{
      {"Mesh-48", 2},
      {"Kite-like-small-48", 2},
      {"FoldedTorus-48", 4},
      {"Kite-like-medium-48", 3},
      {"Kite-like-large-48", 3},
      {"NS-LatOp-small-48", 2},
      {"NS-LatOp-medium-48", 3},
      {"NS-LatOp-large-48", 3},
      {"Dragonfly-48", 2},
      {"CMesh-48", 2},
      {"HammingMesh-48", 4},
  };
  auto cat = topologies::catalog_48();
  for (auto& t : topologies::baseline_catalog(48)) cat.push_back(std::move(t));
  ASSERT_EQ(cat.size(), want.size());
  for (std::size_t i = 0; i < cat.size(); ++i) {
    const auto& t = cat[i];
    ASSERT_EQ(t.name, want[i].first);
    const auto plan = core::plan_network(
        t.graph, t.layout, core::RoutingPolicy::kMclb, 8, 7, 24);
    EXPECT_EQ(plan.vc_layers, want[i].second) << t.name;
  }
}

TEST(Layers, SingleLayerForMeshXy) {
  // Mesh with deterministic first-path (row-then-column or similar DFS
  // order) routing typically fits few layers; whatever the count, the
  // result must be verified acyclic.
  const auto g = topo::build_mesh(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  const auto a = assign_layers(rt, g);
  EXPECT_GE(a.num_layers, 1);
  EXPECT_TRUE(verify_acyclic(a, rt, g));
}

TEST(Layers, TorusNeedsMultipleLayers) {
  // Rings force cyclic dependencies: one layer cannot be enough when flows
  // wrap around. (With shortest paths on C4/C5 rings cycles arise.)
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  const auto a = assign_layers(rt, g);
  EXPECT_TRUE(verify_acyclic(a, rt, g));
  EXPECT_GE(a.num_layers, 2);
}

TEST(Layers, AllFlowsAssigned) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  const auto a = assign_layers(rt, g);
  for (int s = 0; s < 20; ++s)
    for (int d = 0; d < 20; ++d) {
      if (s == d) continue;
      const int l = a.layer[s * 20 + d];
      EXPECT_GE(l, 0);
      EXPECT_LT(l, a.num_layers);
    }
}

// Property: any random connected topology with MCLB routing gets a verified
// deadlock-free assignment within the paper's VC budget.
class LayerProperty : public ::testing::TestWithParam<int> {};

TEST_P(LayerProperty, AlwaysAcyclicWithinBudget) {
  util::Rng rng(700 + GetParam());
  const auto lay = topo::Layout::noi_4x5();
  const auto g = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
  const auto ps = routing::enumerate_shortest_paths(g);
  if (!ps.all_flows_covered()) GTEST_SKIP() << "disconnected sample";
  const auto rt = routing::mclb_local_search(ps).table(ps);
  const auto a = assign_layers(rt, g);
  EXPECT_TRUE(verify_acyclic(a, rt, g));
  // Paper SIV-A: 4 VCs suffice for all 20-router configurations.
  EXPECT_LE(a.num_layers, 4);
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, LayerProperty,
                         ::testing::Range(0, 12));

TEST(Balance, RespectsLayerMembership) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  const auto a = assign_layers(rt, g);
  const auto map = balance_vcs(a, rt, 6);
  EXPECT_EQ(map.num_vcs, 6);
  for (int s = 0; s < 20; ++s)
    for (int d = 0; d < 20; ++d) {
      if (s == d) continue;
      const int vc = map.vc[s * 20 + d];
      ASSERT_GE(vc, 0);
      ASSERT_LT(vc, 6);
      EXPECT_EQ(map.layer_of_vc[vc], a.layer[s * 20 + d]);
    }
}

TEST(Balance, ThrowsWhenTooFewVcs) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  const auto a = assign_layers(rt, g);
  if (a.num_layers < 2) GTEST_SKIP();
  EXPECT_THROW(balance_vcs(a, rt, a.num_layers - 1), std::invalid_argument);
}

TEST(Balance, WeightsSpreadWithinLayers) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  const auto a = assign_layers(rt, g);
  const auto map = balance_vcs(a, rt, 6);
  // Any layer that received >= 2 VCs should not put all weight on one VC.
  for (int layer = 0; layer < a.num_layers; ++layer) {
    std::vector<double> w;
    for (int vc = 0; vc < map.num_vcs; ++vc)
      if (map.layer_of_vc[vc] == layer) w.push_back(map.weight_of_vc[vc]);
    if (w.size() < 2) continue;
    double total = 0, mx = 0;
    for (double x : w) {
      total += x;
      mx = std::max(mx, x);
    }
    if (total > 0) EXPECT_LT(mx, total * 0.95);
  }
}

}  // namespace
}  // namespace netsmith::vc
