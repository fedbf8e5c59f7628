#include "vc/cdg.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace netsmith::vc {

LinkIds::LinkIds(const topo::DiGraph& g) : n_(g.num_nodes()) {
  id_.assign(static_cast<std::size_t>(n_) * n_, -1);
  for (const auto& [u, v] : g.edges()) {
    id_[static_cast<std::size_t>(u) * n_ + v] = static_cast<int>(links_.size());
    links_.emplace_back(u, v);
  }
}

Cdg::Cdg(int num_links)
    : adj_(num_links), radj_(num_links), ord_(num_links), seen_(num_links, 0) {
  std::iota(ord_.begin(), ord_.end(), 0);
}

bool Cdg::add_dep(int from, int to) {
  auto& a = adj_[from];
  if (std::find(a.begin(), a.end(), to) != a.end()) return false;
  a.push_back(to);
  radj_[to].push_back(from);
  ++deps_;
  return true;
}

void Cdg::remove_dep(int from, int to) {
  auto& a = adj_[from];
  auto it = std::find(a.begin(), a.end(), to);
  if (it != a.end()) {
    a.erase(it);
    auto& r = radj_[to];
    r.erase(std::find(r.begin(), r.end(), from));
    --deps_;
  }
}

bool Cdg::collect(const std::vector<std::vector<int>>& edges, int start,
                  int lo, int hi, int target, std::vector<int>& found) {
  found.assign(1, start);
  stack_.assign(1, start);
  seen_[start] = 1;
  while (!stack_.empty()) {
    const int u = stack_.back();
    stack_.pop_back();
    for (const int w : edges[u]) {
      if (w == target) return false;
      if (seen_[w] || ord_[w] <= lo || ord_[w] >= hi) continue;
      seen_[w] = 1;
      found.push_back(w);
      stack_.push_back(w);
    }
  }
  return true;
}

int Cdg::add_dep_acyclic(int from, int to) {
  if (from == to) return -1;
  auto& a = adj_[from];
  if (std::find(a.begin(), a.end(), to) != a.end()) return 0;
  if (ord_[from] > ord_[to]) {
    // The edge contradicts the order. Only nodes ordered strictly between
    // `to` and `from` can lie on a path to -> ... -> from or need moving.
    const int lo = ord_[to], hi = ord_[from];
    const bool acyclic = collect(adj_, to, lo, hi, from, fwd_);
    if (acyclic) collect(radj_, from, lo, hi, -1, bwd_);
    for (const int v : fwd_) seen_[v] = 0;
    if (!acyclic) return -1;
    for (const int v : bwd_) seen_[v] = 0;
    // Reassign the affected positions: everything reaching `from` first,
    // then everything `to` reaches, each group in its previous order.
    const auto by_ord = [this](int x, int y) { return ord_[x] < ord_[y]; };
    std::sort(fwd_.begin(), fwd_.end(), by_ord);
    std::sort(bwd_.begin(), bwd_.end(), by_ord);
    pool_.clear();
    for (const int v : bwd_) pool_.push_back(ord_[v]);
    for (const int v : fwd_) pool_.push_back(ord_[v]);
    std::sort(pool_.begin(), pool_.end());
    std::size_t k = 0;
    for (const int v : bwd_) ord_[v] = pool_[k++];
    for (const int v : fwd_) ord_[v] = pool_[k++];
  }
  a.push_back(to);
  radj_[to].push_back(from);
  ++deps_;
  return 1;
}

std::vector<std::pair<int, int>> Cdg::add_path(const routing::Path& p,
                                               const LinkIds& ids) {
  std::vector<std::pair<int, int>> inserted;
  for (std::size_t i = 0; i + 2 < p.size(); ++i) {
    const int e1 = ids.id(p[i], p[i + 1]);
    const int e2 = ids.id(p[i + 1], p[i + 2]);
    if (e1 < 0 || e2 < 0) continue;
    if (add_dep(e1, e2)) inserted.emplace_back(e1, e2);
  }
  return inserted;
}

void Cdg::remove_deps(const std::vector<std::pair<int, int>>& deps) {
  for (const auto& [from, to] : deps) remove_dep(from, to);
}

bool Cdg::has_cycle() const {
  const int n = num_links();
  // Iterative DFS with colors: 0 white, 1 on stack, 2 done.
  std::vector<std::int8_t> color(n, 0);
  std::vector<std::pair<int, std::size_t>> stack;
  for (int s = 0; s < n; ++s) {
    if (color[s] != 0) continue;
    stack.emplace_back(s, 0);
    color[s] = 1;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      if (idx < adj_[u].size()) {
        const int v = adj_[u][idx++];
        if (color[v] == 1) return true;
        if (color[v] == 0) {
          color[v] = 1;
          stack.emplace_back(v, 0);
        }
      } else {
        color[u] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
}

}  // namespace netsmith::vc
