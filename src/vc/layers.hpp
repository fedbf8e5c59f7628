#pragma once
// DFSSSP-style path-to-VC-layer partitioning (paper SIV-A, following Domke
// et al.): partition the chosen shortest paths into layers such that each
// layer's channel dependency graph is acyclic; each layer maps to (a group
// of) virtual channels. The paper found random back-edge selection gives
// sufficiently few layers; we take randomized path orders over several
// restarts and keep the best, which is the same mechanism.

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

// Best of `restarts` assign_layers_in_order passes. Restart 0 takes flows in
// (s, d) order; restarts 1..restarts-1 each take a shuffle drawn from `rng`,
// all drawn up front, so `rng` always advances by restarts-1 shuffles. The
// restarts run in parallel (OpenMP); the first restart with the fewest
// layers wins, so the result does not depend on the OpenMP width. Throws
// std::runtime_error if no restart fits max_layers.
VcAssignment assign_layers(const routing::RoutingTable& rt,
                           const topo::DiGraph& g, util::Rng& rng,
                           int restarts = 8, int max_layers = 16);

// Verifies that every layer's CDG is acyclic (the deadlock-freedom
// condition) with a full DFS per layer, independent of assign_layers'
// incremental check. core::plan_network and fault::prepare_fault_plan run
// it on every layering they produce.
bool verify_acyclic(const VcAssignment& a, const routing::RoutingTable& rt,
                    const topo::DiGraph& g);

}  // namespace netsmith::vc
