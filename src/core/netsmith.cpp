#include "core/netsmith.hpp"

#include <stdexcept>

#include "obs/trace.hpp"
#include "routing/channel_load.hpp"
#include "routing/ndbt.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

namespace netsmith::core {

SynthesisResult synthesize(const SynthesisConfig& cfg) {
  return anneal_synthesize(cfg);
}

SynthesisResult synthesize_exact(const SynthesisConfig& cfg,
                                 const lp::MilpOptions& opts) {
  MilpEncoding enc;
  switch (cfg.objective) {
    case Objective::kLatOp:
      enc = encode_latop(cfg.layout, cfg.link_class, cfg.radix,
                         cfg.diameter_bound, cfg.symmetric_links);
      break;
    case Objective::kSCOp:
      enc = encode_scop(cfg.layout, cfg.link_class, cfg.radix,
                        cfg.diameter_bound, cfg.symmetric_links);
      break;
    case Objective::kPattern:
    case Objective::kChannelLoad:
    case Objective::kLatLoad:
      throw std::invalid_argument(
          "synthesize_exact: pattern/route-aware objectives are anneal-only");
  }

  lp::MilpOptions o = opts;
  if (o.time_limit_s <= 0) o.time_limit_s = cfg.time_limit_s;
  const auto sol = lp::solve_milp(enc.model, o);
  if (sol.x.empty())
    throw std::runtime_error("synthesize_exact: no feasible topology found (" +
                             lp::to_string(sol.status) + ")");

  SynthesisResult result;
  result.graph = decode_topology(enc, sol.x);
  const int n = result.graph.num_nodes();
  if (cfg.objective == Objective::kLatOp) {
    result.objective_value = topo::average_hops(result.graph);
    result.bound = sol.bound / (static_cast<double>(n) * (n - 1));
  } else {
    result.objective_value = topo::sparsest_cut(result.graph).bandwidth;
    result.bound = sol.bound;
  }
  ProgressPoint pt;
  pt.incumbent = result.objective_value;
  pt.bound = result.bound;
  result.trace.push_back(pt);
  return result;
}

const char* to_string(RoutingPolicy p) {
  return p == RoutingPolicy::kMclb ? "mclb" : "ndbt";
}

NetworkPlan plan_network(const topo::DiGraph& g, const topo::Layout& layout,
                         RoutingPolicy policy, int num_vcs,
                         std::uint64_t seed, int max_paths_per_flow) {
  NetworkPlan plan;
  plan.graph = g;
  plan.policy = policy;
  plan.num_vcs = num_vcs;
  plan.seed = seed;
  plan.max_paths_per_flow = max_paths_per_flow;

  const routing::PathSet all_paths = [&] {
    obs::Span span("routing/enumerate");
    return routing::enumerate_shortest_paths(g, max_paths_per_flow);
  }();

  if (policy == RoutingPolicy::kMclb) {
    // Deterministic local search only: abl_mclb shows it matches the exact
    // Table III MILP on these instances at a fraction of the cost.
    const auto mclb = routing::mclb_local_search(all_paths);
    plan.table = mclb.table(all_paths);
    plan.max_channel_load = mclb.max_load;
  } else {
    const auto filtered = routing::ndbt_filter(all_paths, layout);
    plan.ndbt_fallback_flows = filtered.flows_without_legal_path;
    util::Rng rng(seed);
    plan.table = routing::RoutingTable::select_random(filtered.paths, rng);
    plan.max_channel_load = routing::analyze_uniform(plan.table).max_load;
  }

  const auto layers = vc::assign_layers(plan.table, g);
  plan.vc_layers = layers.num_layers;
  plan.vc_map = vc::balance_vcs(layers, plan.table, num_vcs);
  // Check deadlock freedom on the VC map the simulator will use, so a broken
  // layering fails the plan instead of deadlocking a sweep.
  {
    obs::Span span("vc/verify");
    if (!vc::verify_acyclic(vc::layer_assignment(plan.vc_map), plan.table, g))
      throw std::logic_error("plan_network: VC layering has a cyclic CDG");
  }
  return plan;
}

}  // namespace netsmith::core
