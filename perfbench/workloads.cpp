#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

using namespace netsmith;

namespace {

api::TopologySpec baseline(const std::string& factory_spec) {
  api::TopologySpec t;
  t.source = api::TopologySource::kBaseline;
  t.baseline = factory_spec;
  return t;
}

// synth_plan_256: the fig_scale shape at n = 256. Synthesis, analytic
// metrics (bisection) and above all VC layering; the sweep is small.
api::ExperimentSpec synth_plan_256(std::uint64_t seed) {
  api::ExperimentSpec spec;
  spec.name = "synth_plan_256";
  api::TopologySpec t;
  t.source = api::TopologySource::kSynthesize;
  t.rows = 16;
  t.cols = 16;
  t.objectives = {"latop"};
  t.radix = 4;
  t.time_limit_s = 600.0;  // the move budget ends the search first
  t.synth_seed = seed;
  t.restarts = 1;
  t.max_moves = 3000;
  t.landmark_sources = 64;
  spec.topologies = {t};
  spec.routing = "mclb";
  // Acyclic layerings of these plans need 5 to 7 layers; with 6 VCs some
  // seeds' plan jobs fail in balance_vcs, so the VC stack has headroom.
  spec.num_vcs = 8;
  spec.max_paths_per_flow = 4;
  spec.seeds = {seed};
  spec.analytic = true;
  spec.power.enabled = true;
  spec.traffic = {api::TrafficSpec{"coherence", "coherence"}};
  spec.sweep.points = 3;
  spec.sweep.warmup = 300;
  spec.sweep.measure = 1500;
  spec.sweep.drain = 3000;
  spec.sweep.sim_seed = seed;
  return spec;
}

// sweep_catalog_48: paper Fig. 11 — the 48-router catalog plus the
// parametric baselines under coherence and memory traffic, adaptive sweeps
// (windows halved from the defaults so one run fits several repetitions).
// The simulator does almost all of the work.
api::ExperimentSpec sweep_catalog_48(std::uint64_t seed) {
  api::ExperimentSpec spec;
  spec.name = "sweep_catalog_48";
  api::TopologySpec cat;
  cat.source = api::TopologySource::kCatalog;
  cat.catalog_routers = 48;
  cat.include_baselines = true;
  spec.topologies = {cat};
  spec.routing = "mclb";
  spec.max_paths_per_flow = 24;
  spec.seeds = {seed};
  spec.analytic = true;
  spec.traffic = {api::TrafficSpec{"coherence", "coherence"},
                  api::TrafficSpec{"memory", "memory"}};
  spec.sweep.points = 8;
  spec.sweep.warmup = 1000;
  spec.sweep.measure = 3000;
  spec.sweep.drain = 12000;
  spec.sweep.sim_seed = seed;
  return spec;
}

// resilience_48: NS-LatOp-medium-48 against the parametric baselines under
// targeted cuts (repair on) and one lossy flap (repair off). Exercises the
// simulator's fault/stall/purge paths and per-epoch re-routing/re-layering.
api::ExperimentSpec resilience_48(std::uint64_t seed) {
  api::ExperimentSpec spec;
  spec.name = "resilience_48";
  api::TopologySpec ns;
  ns.source = api::TopologySource::kCatalog;
  ns.catalog_routers = 48;
  ns.name = "NS-LatOp-medium-48";
  spec.topologies = {ns, baseline("dragonfly:routers=48"),
                     baseline("cmesh:routers=48"),
                     baseline("hammingmesh:routers=48")};
  spec.routing = "mclb";
  spec.max_paths_per_flow = 24;
  spec.seeds = {seed};
  spec.analytic = true;
  spec.traffic = {api::TrafficSpec{"coherence", "coherence"}};
  spec.sweep.points = 4;
  spec.sweep.adaptive = false;
  spec.sweep.warmup = 1000;
  spec.sweep.measure = 2000;
  spec.sweep.drain = 4000;
  spec.sweep.sim_seed = seed;
  for (const int k : {1, 4, 8}) {
    fault::FaultScenarioSpec sc;
    sc.name = "cut-" + std::to_string(k);
    sc.mode = "targeted";
    sc.k = k;
    sc.fail_at = 0;
    sc.repair = true;
    sc.seed = seed;
    spec.faults.push_back(sc);
  }
  fault::FaultScenarioSpec flap;
  flap.name = "flap-2-lossy";
  flap.mode = "targeted";
  flap.k = 2;
  flap.fail_at = 1000;
  flap.recover_at = 2500;
  flap.lossy = true;
  flap.repair = false;
  flap.seed = seed;
  spec.faults.push_back(flap);
  return spec;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // A repetition takes about 12 s on a 4-core host, but a run needs four
      // synthesized topologies for its medians and means to be steady, so
      // it runs over its budget.
      {"synth_plan_256", 2, 2, 7.5, synth_plan_256},
      {"sweep_catalog_48", 2, 2, 7.5, sweep_catalog_48},
      {"resilience_48", 2, 2, 10.0, resilience_48},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
