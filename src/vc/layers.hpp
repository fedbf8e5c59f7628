#pragma once
// DFSSSP-style path-to-VC-layer partitioning (paper SIV-A, following Domke
// et al.): partition the chosen shortest paths into layers such that each
// layer's channel dependency graph is acyclic; each layer maps to (a group
// of) virtual channels. The flows go through one greedy pass in (s, d)
// order. Router ids are row-major on the layout, so that order keeps
// neighbouring routes together; DFSSSP and LASH likewise order routes on
// purpose. Random shuffles of the order never needed fewer layers on any
// catalog, smoke or n = 256..1024 graph measured, and each cost about twice
// the (s, d) pass, so there are none.

#include <vector>

#include "routing/table.hpp"
#include "util/rng.hpp"
#include "vc/cdg.hpp"

namespace netsmith::vc {

struct VcAssignment {
  int num_layers = 0;
  // Per flow f = s*n + d: layer id, or -1 for absent flows (s == d).
  std::vector<int> layer;
};

// One greedy pass over `order` (flow ids f = s*n + d): layer 0 takes, in
// order, every flow whose path keeps the layer's CDG acyclic; the flows it
// defers make the same pass for layer 1, and so on. num_layers is -1 if the
// flows need more than max_layers layers.
VcAssignment assign_layers_in_order(const routing::RoutingTable& rt,
                                    const LinkIds& ids, std::vector<int> order,
                                    int max_layers);

// assign_layers_in_order over every routed flow in (s, d) order. Throws
// std::runtime_error if the flows need more than max_layers layers.
VcAssignment assign_layers(const routing::RoutingTable& rt,
                           const topo::DiGraph& g, int max_layers = 16);

// The former shuffled-restart signature. perfbench/replay.cpp still calls
// it, and perfbench/ stays fixed so that runs of successive commits compare
// like for like. The generator is not read: the result equals the overload
// above.
inline VcAssignment assign_layers(const routing::RoutingTable& rt,
                                  const topo::DiGraph& g, util::Rng& /*rng*/) {
  return assign_layers(rt, g);
}

// Verifies that every layer's CDG is acyclic (the deadlock-freedom
// condition) with a full DFS per layer, independent of assign_layers'
// incremental check. core::plan_network and fault::prepare_fault_plan run
// it on every layering they produce.
bool verify_acyclic(const VcAssignment& a, const routing::RoutingTable& rt,
                    const topo::DiGraph& g);

}  // namespace netsmith::vc
