#include "vc/layers.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace netsmith::vc {

VcAssignment assign_layers_in_order(const routing::RoutingTable& rt,
                                    const LinkIds& ids, std::vector<int> order,
                                    int max_layers) {
  const int n = rt.num_nodes();
  VcAssignment a;
  a.layer.assign(static_cast<std::size_t>(n) * n, -1);

  std::vector<int> pending = std::move(order);
  std::vector<std::pair<int, int>> inserted;
  int layer = 0;
  while (!pending.empty()) {
    if (layer >= max_layers) {
      a.num_layers = -1;  // signal failure
      return a;
    }
    Cdg cdg(ids.count());
    std::vector<int> deferred;
    for (const int f : pending) {
      const auto& p = rt.path(f / n, f % n);
      // The layer's CDG is acyclic before this path, so the path closes a
      // cycle iff one of its dependencies does, checked as it is inserted.
      inserted.clear();
      bool closes_cycle = false;
      for (std::size_t i = 0; i + 2 < p.size(); ++i) {
        const int e1 = ids.id(p[i], p[i + 1]);
        const int e2 = ids.id(p[i + 1], p[i + 2]);
        if (e1 < 0 || e2 < 0) continue;
        const int added = cdg.add_dep_acyclic(e1, e2);
        if (added < 0) {
          closes_cycle = true;
          break;
        }
        if (added > 0) inserted.emplace_back(e1, e2);
      }
      if (closes_cycle) {
        // Defer the path: the DFSSSP move of peeling the cycle-forming route
        // into a new VC.
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

VcAssignment assign_layers(const routing::RoutingTable& rt,
                           const topo::DiGraph& g, util::Rng& rng,
                           int restarts, int max_layers) {
  obs::Span span("vc/assign_layers");
  const int n = rt.num_nodes();
  const LinkIds ids(g);
  std::vector<int> flows;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (s != d && rt.path(s, d).size() >= 2) flows.push_back(s * n + d);
  // Orders are drawn serially, so the rng stream matches a serial loop:
  // restart 0 keeps flow order, each later restart shuffles a fresh copy.
  std::vector<std::vector<int>> orders(std::max(restarts, 0));
  for (int r = 1; r < restarts; ++r) {
    orders[r] = flows;
    rng.shuffle(orders[r]);
  }
  if (restarts > 0) orders[0] = std::move(flows);

  std::vector<VcAssignment> results(orders.size());
#pragma omp parallel for schedule(dynamic)
  for (int r = 0; r < restarts; ++r)
    results[r] =
        assign_layers_in_order(rt, ids, std::move(orders[r]), max_layers);

  // Serial reduction in restart order: the first restart with the fewest
  // layers wins, whatever the OpenMP width.
  VcAssignment* best = nullptr;
  for (auto& a : results) {
    if (a.num_layers < 0) continue;
    if (!best || a.num_layers < best->num_layers) best = &a;
    if (best->num_layers == 1) break;
  }
  if (!best) throw std::runtime_error("assign_layers: exceeded max_layers");
  span.arg("layers", best->num_layers);
  return std::move(*best);
}

bool verify_acyclic(const VcAssignment& a, const routing::RoutingTable& rt,
                    const topo::DiGraph& g) {
  const int n = rt.num_nodes();
  const LinkIds ids(g);
  for (int layer = 0; layer < a.num_layers; ++layer) {
    Cdg cdg(ids.count());
    for (int s = 0; s < n; ++s)
      for (int d = 0; d < n; ++d) {
        if (s == d) continue;
        if (a.layer[static_cast<std::size_t>(s) * n + d] != layer) continue;
        cdg.add_path(rt.path(s, d), ids);
      }
    if (cdg.has_cycle()) return false;
  }
  return true;
}

}  // namespace netsmith::vc
