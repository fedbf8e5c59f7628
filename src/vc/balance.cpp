#include "vc/balance.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace netsmith::vc {

VcMap balance_vcs(const VcAssignment& a, const routing::RoutingTable& rt,
                  int num_vcs) {
  obs::Span span("vc/balance");
  const int n = rt.num_nodes();
  const int layers = a.num_layers;
  if (num_vcs < layers)
    throw std::invalid_argument("balance_vcs: fewer VCs than required layers");

  // Layer weights: sum of (path length) over flows in the layer.
  std::vector<double> layer_weight(layers, 0.0);
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      const int l = a.layer[static_cast<std::size_t>(s) * n + d];
      if (l < 0) continue;
      layer_weight[l] += static_cast<double>(rt.path(s, d).size()) - 1.0;
    }

  // Apportion VCs: one per layer, then largest-remainder on weight.
  std::vector<int> vcs_of_layer(layers, 1);
  int left = num_vcs - layers;
  while (left > 0) {
    // Give the next VC to the layer with the highest weight per VC.
    int best = 0;
    double best_ratio = -1.0;
    for (int l = 0; l < layers; ++l) {
      const double ratio = layer_weight[l] / vcs_of_layer[l];
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = l;
      }
    }
    ++vcs_of_layer[best];
    --left;
  }

  VcMap map;
  map.num_vcs = num_vcs;
  map.num_layers = layers;
  map.vc.assign(static_cast<std::size_t>(n) * n, -1);
  map.layer_of_vc.assign(num_vcs, -1);
  map.weight_of_vc.assign(num_vcs, 0.0);

  std::vector<int> first_vc(layers, 0);
  {
    int next = 0;
    for (int l = 0; l < layers; ++l) {
      first_vc[l] = next;
      for (int k = 0; k < vcs_of_layer[l]; ++k) map.layer_of_vc[next + k] = l;
      next += vcs_of_layer[l];
    }
  }

  // LPT within each layer: longest paths placed first on the least-loaded VC
  // of the layer's group.
  struct FlowRef {
    int s, d, layer;
    double w;
  };
  std::vector<FlowRef> flows;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      const int l = a.layer[static_cast<std::size_t>(s) * n + d];
      if (l < 0) continue;
      flows.push_back({s, d, l, static_cast<double>(rt.path(s, d).size()) - 1.0});
    }
  std::sort(flows.begin(), flows.end(), [](const FlowRef& x, const FlowRef& y) {
    if (x.w != y.w) return x.w > y.w;
    if (x.s != y.s) return x.s < y.s;
    return x.d < y.d;
  });

  for (const auto& f : flows) {
    const int base = first_vc[f.layer];
    const int cnt = vcs_of_layer[f.layer];
    int best = base;
    for (int k = 1; k < cnt; ++k)
      if (map.weight_of_vc[base + k] < map.weight_of_vc[best]) best = base + k;
    map.vc[static_cast<std::size_t>(f.s) * n + f.d] = best;
    map.weight_of_vc[best] += f.w;
  }
  return map;
}

VcAssignment layer_assignment(const VcMap& m) {
  VcAssignment a;
  a.num_layers = m.num_layers;
  a.layer.resize(m.vc.size(), -1);
  for (std::size_t f = 0; f < m.vc.size(); ++f)
    if (m.vc[f] >= 0) a.layer[f] = m.layer_of_vc[m.vc[f]];
  return a;
}

}  // namespace netsmith::vc
