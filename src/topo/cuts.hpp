#pragma once
// Cut-based throughput bounds (paper SII-D, SIII-A-e).
//
// The sparsest cut is the tightest cut-based upper bound on uniform-traffic
// saturation throughput: B(U,V) = (# directed links crossing U->V) / (|U||V|),
// minimized over all 2-partitions. For asymmetric (unidirectional) links we
// take the minimum of the two directions, as the paper specifies. The exact
// computation enumerates every partition (the paper does the same for 20
// routers); a Kernighan-Lin-style heuristic with restarts covers larger
// networks, and property tests guarantee heuristic >= exact.

#include <cstdint>
#include <vector>

#include "topo/graph.hpp"
#include "util/rng.hpp"

namespace netsmith::topo {

struct Cut {
  std::uint64_t u_mask = 0;   // bit i set => router i in U
  int u_size = 0;
  int cross_uv = 0;           // directed edges U -> V
  int cross_vu = 0;           // directed edges V -> U
  double bandwidth = 0.0;     // min(cross_uv, cross_vu) / (|U| * |V|)
};

// Cross-edge counts {U->V, V->U} for an explicit partition mask, counted
// word-parallel: per node one AND + popcount against its adjacency bit row
// (requires n <= 64).
std::pair<int, int> cross_edge_counts(const DiGraph& g, std::uint64_t u_mask);

// Evaluates B(U,V) for an explicit partition mask.
Cut evaluate_cut(const DiGraph& g, std::uint64_t u_mask);

// Exhaustive sparsest cut; requires n <= 26 (2^(n-1) partitions, enumerated
// incrementally via Gray code; serial for n <= 8, split across OpenMP
// threads above). Ties keep the first partition in Gray-code order, so every
// field of the result is the same at any OpenMP width.
Cut sparsest_cut_exact(const DiGraph& g);

// Local-search heuristic: random subsets refined by single-node moves.
// Returns the sparsest cut found; its bandwidth is >= the exact optimum.
Cut sparsest_cut_heuristic(const DiGraph& g, util::Rng& rng, int restarts = 64);

// Dispatches to exact for n <= 22, heuristic otherwise (deterministic seed).
Cut sparsest_cut(const DiGraph& g);

// The K sparsest cuts (by bandwidth, distinct masks). Used as the lazy cut
// cache in SCOp synthesis (cutting-plane style surrogate). Exact for n <= 26.
std::vector<Cut> sparsest_cuts_topk(const DiGraph& g, int k);

// Bisection bandwidth: min over (near-)balanced partitions of the
// min-direction crossing link count (Table II "Bi. BW" uses full-duplex link
// counts, i.e. directed crossings in the weaker direction for asymmetric
// graphs, which equals the bidirectional crossing count for symmetric ones).
// Exact for n <= 24; one pair-swap heuristic beyond (96 random balanced
// starts, first-improvement swaps, O(1) swap gains from per-node counts of
// neighbours in U; deterministic, any n).
int bisection_bandwidth(const DiGraph& g);

}  // namespace netsmith::topo
