#include "topo/cuts.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace netsmith::topo {

namespace {

#if !defined(_OPENMP)
// Serial fallbacks so the enumeration loops below compile unchanged when
// OpenMP is unavailable (the pragmas are then no-ops).
int omp_get_max_threads() { return 1; }
int omp_get_num_threads() { return 1; }
int omp_get_thread_num() { return 0; }
#endif

double ratio(int cross_uv, int cross_vu, int u_size, int n) {
  const int v_size = n - u_size;
  const int cap = std::min(cross_uv, cross_vu);
  return static_cast<double>(cap) /
         (static_cast<double>(u_size) * static_cast<double>(v_size));
}

// Word-parallel cross-edge count: for each node one AND + popcount against
// its out-adjacency bit row. O(n) popcounts instead of O(m) branches.
void count_cross(const DiGraph& g, std::uint64_t mask, int* cross_uv,
                 int* cross_vu) {
  int uv = 0, vu = 0;
  const int n = g.num_nodes();
  for (int i = 0; i < n; ++i) {
    const std::uint64_t row = g.out_bits(i)[0];
    if (mask >> i & 1)
      uv += std::popcount(row & ~mask);
    else
      vu += std::popcount(row & mask);
  }
  *cross_uv = uv;
  *cross_vu = vu;
}

// Flips node b's membership and updates cross counts with four popcounts
// over b's own bit rows (out- and in-adjacency vs. the current mask).
void flip_node(const DiGraph& g, std::uint64_t& mask, int b, int* cross_uv,
               int* cross_vu, int* u_size) {
  const std::uint64_t out = g.out_bits(b)[0];
  const std::uint64_t in = g.in_bits(b)[0];
  // Self-loops are impossible, so bit b never appears in b's own rows and
  // the popcounts below are unaffected by b's side of the mask.
  if (mask >> b & 1) {
    *cross_uv -= std::popcount(out & ~mask);
    *cross_vu -= std::popcount(in & ~mask);
    mask &= ~(1ULL << b);
    --*u_size;
    *cross_vu += std::popcount(out & mask);
    *cross_uv += std::popcount(in & mask);
  } else {
    *cross_vu -= std::popcount(out & mask);
    *cross_uv -= std::popcount(in & mask);
    mask |= 1ULL << b;
    ++*u_size;
    *cross_uv += std::popcount(out & ~mask);
    *cross_vu += std::popcount(in & ~mask);
  }
}

// Clears mask bits at or above n (callers may pass unnormalized masks).
std::uint64_t clip_mask(std::uint64_t mask, int n) {
  return n >= 64 ? mask : mask & ((1ULL << n) - 1);
}

Cut make_cut(const DiGraph& g, std::uint64_t mask) {
  const int n = g.num_nodes();
  mask = clip_mask(mask, n);
  const int usz = std::popcount(mask);
  Cut c;
  c.u_mask = mask;
  c.u_size = usz;
  count_cross(g, mask, &c.cross_uv, &c.cross_vu);
  c.bandwidth = (usz == 0 || usz == n)
                    ? std::numeric_limits<double>::infinity()
                    : ratio(c.cross_uv, c.cross_vu, usz, n);
  return c;
}

void require_mask_width(const DiGraph& g, const char* who) {
  if (g.num_nodes() > 64)
    throw std::invalid_argument(std::string(who) +
                                ": n > 64 exceeds the uint64 partition mask");
}

// Pair-swap bisection heuristic for any n: 96 random balanced starts, each
// refined by first-improvement swaps of a in U with b in V (ascending a, then
// b; rescan from a = 0 after every accepted swap) while the weaker direction's
// crossing count strictly drops. Per restart, ou[x] / iu[x] count x's out- /
// in-neighbours in U, so a candidate swap's crossing counts are read in O(1)
// (Kernighan-Lin gains) and only an accepted swap walks adjacency lists.
int bisection_pair_swap(const DiGraph& g) {
  const int n = g.num_nodes();
  const int half = n / 2;
  std::vector<int> outdeg(n), indeg(n);
  for (int x = 0; x < n; ++x) {
    outdeg[x] = g.out_degree(x);
    indeg[x] = g.in_degree(x);
  }
  std::vector<int> perm(n), ou(n), iu(n);
  std::vector<std::uint8_t> in_u(n);
  // Adds (d = +1) or removes (d = -1) x's share of its neighbours' U counts.
  const auto shift = [&](int x, int d) {
    for (const int y : g.out_neighbors(x)) iu[y] += d;
    for (const int y : g.in_neighbors(x)) ou[y] += d;
  };
  util::Rng rng(0xB15EC7);
  int best = std::numeric_limits<int>::max();
  for (int restart = 0; restart < 96; ++restart) {
    for (int i = 0; i < n; ++i) perm[i] = i;
    rng.shuffle(perm);
    std::fill(in_u.begin(), in_u.end(), 0);
    std::fill(ou.begin(), ou.end(), 0);
    std::fill(iu.begin(), iu.end(), 0);
    for (int i = 0; i < half; ++i) {
      in_u[perm[i]] = 1;
      shift(perm[i], 1);
    }
    int uv = 0, vu = 0;
    for (int x = 0; x < n; ++x) {
      if (in_u[x]) uv += outdeg[x] - ou[x];
      else vu += ou[x];
    }
    bool improved = true;
    while (improved) {
      improved = false;
      const int cur = std::min(uv, vu);
      for (int a = 0; a < n && !improved; ++a) {
        if (!in_u[a]) continue;
        // Crossing counts once a has moved to V.
        const int uv1 = uv - (outdeg[a] - ou[a]) + iu[a];
        const int vu1 = vu - (indeg[a] - iu[a]) + ou[a];
        const std::uint8_t* a_row = g.row(a);
        for (int b = 0; b < n; ++b) {
          if (in_u[b]) continue;
          // Then b moves to U. With a already gone, b's neighbours in U
          // number ou[b] - [b->a] and iu[b] - [a->b], so both directions
          // gain the same c = [a->b] + [b->a] >= 0 on top of the c = 0
          // counts: if those are not below cur, the swap is rejected.
          const int both = ou[b] + iu[b];
          int uv2 = uv1 + outdeg[b] - both;
          int vu2 = vu1 + indeg[b] - both;
          if (std::min(uv2, vu2) >= cur) continue;
          const int c = a_row[b] + g.row(b)[a];
          uv2 += c;
          vu2 += c;
          if (std::min(uv2, vu2) < cur) {
            in_u[a] = 0;
            shift(a, -1);
            in_u[b] = 1;
            shift(b, 1);
            uv = uv2;
            vu = vu2;
            improved = true;
            break;
          }
        }
      }
    }
    best = std::min(best, std::min(uv, vu));
  }
  return best;
}

}  // namespace

std::pair<int, int> cross_edge_counts(const DiGraph& g, std::uint64_t u_mask) {
  require_mask_width(g, "cross_edge_counts");
  int uv = 0, vu = 0;
  count_cross(g, clip_mask(u_mask, g.num_nodes()), &uv, &vu);
  return {uv, vu};
}

Cut evaluate_cut(const DiGraph& g, std::uint64_t u_mask) {
  require_mask_width(g, "evaluate_cut");
  return make_cut(g, u_mask);
}

namespace {

// Exhaustive runs up to this size stay on the calling thread. The annealer
// calls sparsest_cut_exact on every move for n <= 12, often from several
// restart or Study-pool threads that would each wake an OpenMP team. On an
// idle 4-vCPU host the serial scan matched a team only up to n = 8 (n = 8:
// 2.4 us vs 2.6 us at 2 threads; n = 12: 34 us vs 25 us); with four restarts
// in parallel at 4 threads, an n = 8 constrained synthesis ran 9x faster.
constexpr int kSerialExactCutMaxNodes = 8;

// Calls visit(u_mask, |U|, U->V, V->U) for the partitions gray(i), i in
// [lo, hi), with node n-1 in V and U non-empty, in Gray-code order: gray(i)
// and gray(i+1) differ in bit ctz(i+1), so each step is one flip_node.
template <typename Visit>
void walk_partitions(const DiGraph& g, std::uint64_t lo, std::uint64_t hi,
                     Visit&& visit) {
  if (lo >= hi) return;
  std::uint64_t mask = lo ^ (lo >> 1);
  int usz = std::popcount(mask), uv = 0, vu = 0;
  count_cross(g, mask, &uv, &vu);
  for (std::uint64_t i = lo;; ++i) {
    if (usz > 0) visit(mask, usz, uv, vu);
    if (i + 1 >= hi) break;
    flip_node(g, mask, std::countr_zero(i + 1), &uv, &vu, &usz);
  }
}

// This thread's contiguous share of the Gray indices [1, total).
std::pair<std::uint64_t, std::uint64_t> thread_range(std::uint64_t total) {
  const std::uint64_t threads = omp_get_num_threads();
  const std::uint64_t tid = omp_get_thread_num();
  const std::uint64_t chunk = (total + threads - 1) / threads;
  return {std::max<std::uint64_t>(1, tid * chunk),
          std::min(total, (tid + 1) * chunk)};
}

// Sparsest of the partitions gray(i), i in [lo, hi); ties keep the first in
// that order.
Cut scan_partitions(const DiGraph& g, std::uint64_t lo, std::uint64_t hi) {
  const int n = g.num_nodes();
  Cut best;
  best.bandwidth = std::numeric_limits<double>::infinity();
  walk_partitions(g, lo, hi, [&](std::uint64_t m, int usz, int uv, int vu) {
    const double bw = ratio(uv, vu, usz, n);
    if (bw < best.bandwidth) best = Cut{m, usz, uv, vu, bw};
  });
  return best;
}

}  // namespace

Cut sparsest_cut_exact(const DiGraph& g) {
  const int n = g.num_nodes();
  if (n < 2) throw std::invalid_argument("sparsest_cut_exact: n < 2");
  if (n > 26) throw std::invalid_argument("sparsest_cut_exact: n > 26");
  // Fix node n-1 in V so every unordered partition is visited exactly once.
  const std::uint64_t total = 1ULL << (n - 1);
  if (n <= kSerialExactCutMaxNodes) return scan_partitions(g, 1, total);

  // Per-thread ranges reduced in Gray-index order with the same strict
  // comparison, so ties resolve as in the serial scan at any OpenMP width.
  std::vector<Cut> partial(
      omp_get_max_threads(),
      Cut{0, 0, 0, 0, std::numeric_limits<double>::infinity()});
#pragma omp parallel
  {
    const auto [lo, hi] = thread_range(total);
    partial[omp_get_thread_num()] = scan_partitions(g, lo, hi);
  }
  Cut best = partial[0];
  for (const Cut& c : partial)
    if (c.bandwidth < best.bandwidth) best = c;
  return best;
}

Cut sparsest_cut_heuristic(const DiGraph& g, util::Rng& rng, int restarts) {
  const int n = g.num_nodes();
  if (n < 2) throw std::invalid_argument("sparsest_cut_heuristic: n < 2");
  require_mask_width(g, "sparsest_cut_heuristic");
  Cut best;
  best.bandwidth = std::numeric_limits<double>::infinity();

  for (int r = 0; r < restarts; ++r) {
    std::uint64_t mask = 0;
    int usz = 0;
    // Random initial subset of random target size in [1, n-1].
    const int target = static_cast<int>(rng.uniform_int(1, n - 1));
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    rng.shuffle(perm);
    for (int i = 0; i < target; ++i) {
      mask |= 1ULL << perm[i];
      ++usz;
    }
    int uv = 0, vu = 0;
    count_cross(g, mask, &uv, &vu);

    // Steepest single-node moves until a local minimum of the ratio.
    bool improved = true;
    while (improved) {
      improved = false;
      double cur = ratio(uv, vu, usz, n);
      int best_node = -1;
      double best_bw = cur;
      for (int b = 0; b < n; ++b) {
        const bool in_u = mask >> b & 1;
        // Don't empty either side.
        if ((in_u && usz == 1) || (!in_u && usz == n - 1)) continue;
        flip_node(g, mask, b, &uv, &vu, &usz);
        const double bw = ratio(uv, vu, usz, n);
        if (bw < best_bw - 1e-12) {
          best_bw = bw;
          best_node = b;
        }
        flip_node(g, mask, b, &uv, &vu, &usz);  // undo
      }
      if (best_node >= 0) {
        flip_node(g, mask, best_node, &uv, &vu, &usz);
        improved = true;
      }
    }

    const double bw = ratio(uv, vu, usz, n);
    if (bw < best.bandwidth) {
      best.bandwidth = bw;
      best.u_mask = mask;
      best.u_size = usz;
      best.cross_uv = uv;
      best.cross_vu = vu;
    }
  }
  return best;
}

Cut sparsest_cut(const DiGraph& g) {
  if (g.num_nodes() <= 22) return sparsest_cut_exact(g);
  util::Rng rng(0xC0FFEE);
  return sparsest_cut_heuristic(g, rng, 128);
}

std::vector<Cut> sparsest_cuts_topk(const DiGraph& g, int k) {
  const int n = g.num_nodes();
  if (n > 26) throw std::invalid_argument("sparsest_cuts_topk: n > 26");
  const std::uint64_t total = 1ULL << (n - 1);

  // Per-thread top-k kept as a sorted vector (k is small).
  std::vector<std::vector<Cut>> partial(omp_get_max_threads());
#pragma omp parallel
  {
    auto& local = partial[omp_get_thread_num()];

    const auto [lo, hi] = thread_range(total);
    walk_partitions(g, lo, hi, [&](std::uint64_t m, int s, int cuv, int cvu) {
      const double bw = ratio(cuv, cvu, s, n);
      if (static_cast<int>(local.size()) == k && bw >= local.back().bandwidth)
        return;
      Cut c{m, s, cuv, cvu, bw};
      auto it = std::lower_bound(
          local.begin(), local.end(), c,
          [](const Cut& a, const Cut& b) { return a.bandwidth < b.bandwidth; });
      local.insert(it, c);
      if (static_cast<int>(local.size()) > k) local.pop_back();
    });
  }

  std::vector<Cut> merged;
  for (auto& p : partial) merged.insert(merged.end(), p.begin(), p.end());
  std::sort(merged.begin(), merged.end(), [](const Cut& a, const Cut& b) {
    if (a.bandwidth != b.bandwidth) return a.bandwidth < b.bandwidth;
    return a.u_mask < b.u_mask;
  });
  if (static_cast<int>(merged.size()) > k) merged.resize(k);
  return merged;
}

int bisection_bandwidth(const DiGraph& g) {
  const int n = g.num_nodes();
  if (n < 2) return 0;
  if (n > 24) return bisection_pair_swap(g);
  const int half = n / 2;
  // Enumerate subsets of size `half` with node n-1 fixed in V (for even n
  // this visits each unordered bisection once; for odd n, U is the smaller
  // side).
  int best = std::numeric_limits<int>::max();
  // Iterate combinations of {0..n-2} choose half via bit tricks.
  std::uint64_t comb = (1ULL << half) - 1;
  const std::uint64_t limit = 1ULL << (n - 1);
  while (comb < limit) {
    int uv = 0, vu = 0;
    count_cross(g, comb, &uv, &vu);
    best = std::min(best, std::min(uv, vu));
    // Gosper's hack: next combination with the same popcount.
    const std::uint64_t c = comb & (~comb + 1);
    const std::uint64_t r = comb + c;
    comb = (((r ^ comb) >> 2) / c) | r;
  }
  return best;
}

}  // namespace netsmith::topo
