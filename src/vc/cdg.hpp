#pragma once
// Channel dependency graph (Dally & Seitz): nodes are the network's directed
// links; an edge (e1 -> e2) exists when some route occupies e1 and then e2
// consecutively. A routing subfunction is deadlock-free on a VC if the CDG
// restricted to that VC's routes is acyclic (paper SII-F).

#include <utility>
#include <vector>

#include "routing/paths.hpp"
#include "topo/graph.hpp"

namespace netsmith::vc {

// Maps directed links to dense ids.
class LinkIds {
 public:
  explicit LinkIds(const topo::DiGraph& g);

  int id(int u, int v) const { return id_[static_cast<std::size_t>(u) * n_ + v]; }
  int count() const { return static_cast<int>(links_.size()); }
  std::pair<int, int> link(int e) const { return links_[e]; }

 private:
  int n_ = 0;
  std::vector<int> id_;  // -1 when no such link
  std::vector<std::pair<int, int>> links_;
};

class Cdg {
 public:
  explicit Cdg(int num_links);

  // Adds a dependency edge; duplicates ignored. Returns true if new.
  bool add_dep(int from, int to);
  void remove_dep(int from, int to);

  // Adds a dependency edge only if the graph stays acyclic, keeping a
  // topological order of the nodes up to date (Pearce & Kelly, JEA 2006).
  // Returns -1 if the edge would close a cycle (including from == to; the
  // graph is left unchanged), 0 for a duplicate and 1 if the edge is new.
  // Requires an acyclic graph: mixing it with add_dep voids the order.
  int add_dep_acyclic(int from, int to);

  // Adds every consecutive-link dependency of the path. Returns the list of
  // (from, to) pairs actually inserted, so the caller can roll back.
  std::vector<std::pair<int, int>> add_path(const routing::Path& p,
                                            const LinkIds& ids);
  // Removing edges keeps the topological order valid.
  void remove_deps(const std::vector<std::pair<int, int>>& deps);

  bool has_cycle() const;
  int num_deps() const { return deps_; }
  int num_links() const { return static_cast<int>(adj_.size()); }

 private:
  // Collects into `found` the nodes reachable from `start` along `edges`
  // whose order lies strictly inside (lo, hi). Returns false, stopping
  // early, if `target` is reached.
  bool collect(const std::vector<std::vector<int>>& edges, int start, int lo,
               int hi, int target, std::vector<int>& found);

  std::vector<std::vector<int>> adj_;
  std::vector<std::vector<int>> radj_;
  std::vector<int> ord_;  // node -> position in a topological order
  int deps_ = 0;
  // Work buffers for add_dep_acyclic, kept to avoid per-call allocation.
  std::vector<char> seen_;
  std::vector<int> stack_, fwd_, bwd_, pool_;
};

}  // namespace netsmith::vc
