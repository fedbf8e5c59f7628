#include "replay.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "api/artifact_io.hpp"
#include "api/study.hpp"
#include "core/anneal.hpp"
#include "fault/model.hpp"
#include "power/dsent_lite.hpp"
#include "routing/channel_load.hpp"
#include "serve/store.hpp"
#include "sim/sweep.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"
#include "topologies/registry.hpp"
#include "vc/balance.hpp"
#include "vc/layers.hpp"

namespace perfbench {

using namespace netsmith;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// In-memory span recorder. The replay root spans the recorder's lifetime
// and every layer span is its direct child, so a layer's self time is its
// duration and the root's self time is the unattributed remainder.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  // Times fn() as one span of `layer`.
  template <class Fn>
  void run(const char* layer, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    spans_.push_back({layer, start, end});
    total_[layer] += seconds_between(start, end);
  }

  double total(const std::string& layer) const {
    const auto it = total_.find(layer);
    return it == total_.end() ? 0.0 : it->second;
  }
  double attributed() const {
    double sum = 0.0;
    for (const auto& [layer, s] : total_) sum += s;
    return sum;
  }
  double elapsed() const { return seconds_between(origin_, Clock::now()); }

  // Chrome trace_event JSON: the root span plus one complete event per
  // layer call, nested under the root on one track.
  void write(const std::string& path) const {
    std::ofstream out(path);
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    out << "{\"traceEvents\":[\n";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"replay\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":0,\"dur\":%.3f}",
                  elapsed() * 1e6);
    out << buf;
    for (const auto& s : spans_) {
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    s.layer, us(s.start), us(s.end) - us(s.start));
      out << buf;
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    const char* layer;
    Clock::time_point start, end;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::map<std::string, double> total_;
};

bool conserves_flits(const sim::SimStats& s) {
  return s.flits_injected == s.flits_ejected + s.flits_dropped +
                                 s.flits_buffered_end + s.flits_inflight_end;
}

// The Study's expansion of the spec's topology entries, for the sources the
// benchmark's workloads use. Artifacts come back expanded but not run.
std::vector<api::TopologyArtifact> expand_topologies(
    const api::ExperimentSpec& spec) {
  std::vector<api::TopologyArtifact> out;
  const auto add = [&out](api::TopologySource src,
                          topologies::NamedTopology nt) {
    api::TopologyArtifact art;
    art.source = src;
    art.topo = std::move(nt);
    out.push_back(std::move(art));
  };
  for (const auto& ts : spec.topologies) {
    switch (ts.source) {
      case api::TopologySource::kBaseline:
        add(ts.source, topologies::make_spec(ts.baseline));
        break;
      case api::TopologySource::kCatalog: {
        auto cat = ts.catalog_routers == 48
                       ? topologies::catalog_48()
                       : topologies::catalog(ts.catalog_routers);
        if (!ts.name.empty()) {
          add(ts.source, topologies::find(cat, ts.name));
          break;
        }
        for (auto& row : cat) add(ts.source, std::move(row));
        if (ts.include_baselines)
          for (auto& row : topologies::baseline_catalog(ts.catalog_routers))
            add(api::TopologySource::kBaseline, std::move(row));
        break;
      }
      case api::TopologySource::kSynthesize:
        for (const auto& obj : ts.objectives) {
          api::TopologyArtifact art;
          art.source = ts.source;
          art.max_moves = ts.max_moves;
          art.landmark_sources = ts.landmark_sources;
          auto& cfg = art.synth_cfg;
          cfg.layout = topo::Layout{ts.rows > 0 ? ts.rows : 4,
                                    ts.cols > 0 ? ts.cols : 5, 2.0};
          cfg.link_class = api::link_class_from_string(ts.link_class);
          cfg.radix = ts.radix;
          cfg.symmetric_links = ts.symmetric_links;
          cfg.objective = api::objective_from_string(obj);
          cfg.diameter_bound = ts.diameter_bound;
          cfg.min_cut_bandwidth = ts.min_cut_bandwidth;
          cfg.load_weight = ts.load_weight;
          cfg.time_limit_s = ts.time_limit_s;
          cfg.seed = ts.synth_seed;
          cfg.restarts = ts.restarts;
          art.topo.layout = cfg.layout;
          art.topo.link_class = cfg.link_class;
          art.topo.machine_generated = true;
          art.topo.is_netsmith = true;
          out.push_back(std::move(art));
        }
        break;
      case api::TopologySource::kExplicit:
        throw std::invalid_argument("replay: explicit topologies unsupported");
    }
  }
  return out;
}

sim::TrafficConfig traffic_for(const api::TrafficSpec& ts,
                               const topo::Layout& layout) {
  sim::TrafficConfig traffic;
  if (ts.kind == "memory") {
    traffic.kind = sim::TrafficKind::kMemory;
    traffic.mc_nodes = sim::mc_nodes(layout);
  } else if (ts.kind == "coherence") {
    traffic.kind = sim::TrafficKind::kCoherence;
  } else {
    throw std::invalid_argument("replay: unsupported traffic '" + ts.kind +
                                "'");
  }
  traffic.ctrl_flits = ts.ctrl_flits;
  traffic.data_flits = ts.data_flits;
  traffic.data_fraction = ts.data_fraction;
  return traffic;
}

struct StoredArtifact {
  const char* kind;
  std::string key;
  int index;  // topology / plan / sweep slot
};

}  // namespace

bool repaired_epochs_acyclic(const fault::FaultPlan& fp,
                             const core::NetworkPlan& plan) {
  for (const auto& ep : fp.epochs)
    if (ep.repaired && !vc::verify_acyclic(vc::layer_assignment(ep.vc_map),
                                           ep.table, plan.graph))
      return false;
  return true;
}

std::vector<Metric> replay(const api::ExperimentSpec& spec,
                           const api::Report& report,
                           const std::string& store_dir,
                           const std::string& trace_path, Outcome& check) {
  if (spec.routing != "mclb" || spec.chiplet_system)
    throw std::invalid_argument("replay: needs mclb routing, no chiplet system");
  const api::StudyStats& st = report.stats;
  if (st.unique_topologies != st.topology_refs ||
      st.unique_plans != st.plan_refs || spec.seeds.size() != 1)
    throw std::invalid_argument("replay: needs one seed and unique artifacts");

  Spans spans;
  std::map<std::string, double> count;
  serve::StoreOptions so;
  so.dir = store_dir;
  serve::ArtifactStore store(so);
  std::vector<StoredArtifact> stored;
  const auto persist = [&](const char* kind, const std::string& key, int index,
                           const std::string& payload) {
    spans.run("serve.store", [&] { store.store(kind, key, payload); });
    count["serve.bytes"] += static_cast<double>(payload.size());
    stored.push_back({kind, key, index});
  };

  // ---- topologies: build or synthesize, analytic metrics, power ----
  std::vector<api::TopologyArtifact> fresh;
  spans.run("topologies.build", [&] { fresh = expand_topologies(spec); });
  check.expect(fresh.size() == report.topologies.size(),
               "replay expands a different topology count");
  if (fresh.size() != report.topologies.size()) return {};
  std::vector<api::TopologyArtifact> topos = fresh;
  const char* analytic_suffix = spec.analytic ? ";analytic=1" : ";analytic=0";
  for (std::size_t i = 0; i < topos.size(); ++i) {
    auto& t = topos[i];
    const auto& row = report.topologies[i];
    t.key = row.key;
    fresh[i].key = row.key;
    if (t.source == api::TopologySource::kSynthesize) {
      core::AnnealOptions ao;
      ao.threads = 1;  // as the Study runs it
      ao.max_moves = t.max_moves;
      ao.landmark_sources = t.landmark_sources;
      spans.run("core.anneal",
                [&] { t.synth = core::anneal_synthesize(t.synth_cfg, ao); });
      count["core.moves"] += static_cast<double>(t.synth.moves);
      t.topo.graph = t.synth.graph;
      t.synthesized = true;
    }
    const auto& g = t.topo.graph;
    check.expect(g.to_string() == row.adjacency,
                 "topology " + row.name + ": adjacency differs");
    if (spec.analytic) {
      spans.run("topo.analytic", [&] {
        t.avg_hops = topo::average_hops(g);
        t.diameter = topo::diameter(g);
        if (g.num_nodes() <= 64) t.cut_bound = routing::cut_bound(g);
        if (t.topo.extra_edge_delay.rows() > 0 && g.num_directed_edges() > 0) {
          long extra = 0;
          for (const auto& [a, b] : g.edges())
            extra += t.topo.extra_edge_delay(a, b);
          t.avg_extra_edge_delay =
              static_cast<double>(extra) / g.num_directed_edges();
        }
      });
      spans.run("topo.bisection",
                [&] { t.bisection_bw = topo::bisection_bandwidth(g); });
      check.expect(t.avg_hops == row.avg_hops && t.diameter == row.diameter &&
                       t.bisection_bw == row.bisection_bw &&
                       t.cut_bound == row.cut_bound,
                   "topology " + row.name + ": analytic metrics differ");
    }
    if (spec.power.enabled) {
      power::PowerArea pa;
      spans.run("power.estimate", [&] {
        pa = power::estimate(g, t.topo.layout,
                             topo::clock_ghz(t.topo.link_class),
                             spec.power.flits_per_node_cycle, spec.num_vcs);
      });
      check.expect(i < report.power.size() &&
                       pa.dynamic_mw == report.power[i].dynamic_mw &&
                       pa.leakage_mw == report.power[i].leakage_mw,
                   "topology " + row.name + ": power differs");
    }
    std::string payload;
    spans.run("api.artifact_encode", [&] {
      payload = api::topology_artifact_payload(t, spec.analytic);
    });
    persist(api::kTopologyArtifactKind, t.key + analytic_suffix,
            static_cast<int>(i), payload);
  }

  // ---- plans: enumerate, MCLB, VC layering + balance ----
  std::vector<api::PlanArtifact> plans(topos.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const auto& g = topos[i].topo.graph;
    const auto& row = report.plans[i];
    auto& p = plans[i];
    p.key = row.key;
    p.topology = static_cast<int>(i);
    p.seed = spec.seeds[0];
    core::NetworkPlan& plan = p.plan;
    plan.graph = g;
    plan.policy = core::RoutingPolicy::kMclb;
    plan.num_vcs = spec.num_vcs;
    plan.seed = p.seed;
    plan.max_paths_per_flow = spec.max_paths_per_flow;

    routing::PathSet paths;
    spans.run("routing.enumerate", [&] {
      paths = routing::enumerate_shortest_paths(g, spec.max_paths_per_flow);
    });
    count["routing.paths"] += static_cast<double>(paths.total_paths());
    util::Rng rng(p.seed);
    spans.run("routing.mclb", [&] {
      const auto mclb = routing::mclb_local_search(paths);
      plan.table = mclb.table(paths);
      plan.max_channel_load = mclb.max_load;
      count["routing.mclb_iterations"] += static_cast<double>(mclb.iterations);
      count["routing.max_channel_load"] += mclb.max_load / plans.size();
    });
    vc::VcAssignment layers;
    spans.run("vc.assign_layers",
              [&] { layers = vc::assign_layers(plan.table, g, rng); });
    plan.vc_layers = layers.num_layers;
    count["vc.layers"] += layers.num_layers;
    spans.run("vc.balance", [&] {
      plan.vc_map = vc::balance_vcs(layers, plan.table, spec.num_vcs);
    });
    bool acyclic = false;
    spans.run("vc.verify",
              [&] { acyclic = vc::verify_acyclic(layers, plan.table, g); });
    check.expect(acyclic, "plan " + row.key + ": VC layering has a cycle");
    check.expect(plan.max_channel_load == row.max_channel_load &&
                     plan.vc_layers == row.vc_layers,
                 "plan " + row.key + ": max_channel_load/vc_layers differ");
    std::string payload;
    spans.run("api.artifact_encode",
              [&] { payload = api::plan_artifact_payload(p); });
    persist(api::kPlanArtifactKind, p.key, static_cast<int>(i), payload);
  }

  // ---- sweeps and resilience sweeps ----
  const int T = static_cast<int>(spec.traffic.size());
  const int C = static_cast<int>(spec.faults.size());
  check.expect(report.sweeps.size() == plans.size() * T &&
                   report.resilience.size() == plans.size() * T * C,
               "report has a different sweep/resilience row count");
  if (report.sweeps.size() != plans.size() * T ||
      report.resilience.size() != plans.size() * T * C)
    return {};
  std::vector<sim::SweepResult> sweeps(report.sweeps.size());
  const auto run_sweep = [&](const core::NetworkPlan& plan,
                             const api::TopologyArtifact& t,
                             const api::TrafficSpec& ts,
                             const fault::FaultPlan* faults,
                             const std::string& label) {
    sim::SimConfig cfg = api::make_sim_config(spec);
    cfg.extra_edge_delay = t.topo.extra_edge_delay;
    cfg.faults = faults;
    sim::SweepOptions opt;
    // Resilience sweeps always run fixed windows (api/study.hpp).
    opt.adaptive = faults == nullptr && spec.sweep.adaptive;
    const sim::TrafficConfig traffic = traffic_for(ts, t.topo.layout);
    sim::SweepResult res;
    spans.run("sim.sweep", [&] {
      res = sim::sweep_to_saturation(plan, traffic, cfg,
                                     topo::clock_ghz(t.topo.link_class),
                                     spec.sweep.points, spec.sweep.max_rate,
                                     opt);
    });
    bool conserved = true;
    for (const auto& pt : res.points) {
      count["sim.points"] += 1;
      count["sim.cycles"] += static_cast<double>(pt.stats.cycles_run);
      count["sim.flits"] += static_cast<double>(pt.stats.flits_injected);
      conserved = conserved && conserves_flits(pt.stats);
    }
    check.expect(conserved, label + ": flit conservation violated");
    return res;
  };
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const auto& t = topos[p];
    for (int k = 0; k < T; ++k) {
      const std::size_t s = p * T + k;
      const auto& row = report.sweeps[s];
      const std::string label = "sweep " + plans[p].key + "+" + row.traffic;
      sweeps[s] = run_sweep(plans[p].plan, t, spec.traffic[k], nullptr, label);
      check.expect(
          sweeps[s].saturation_pkt_node_ns == row.saturation_pkt_node_ns &&
              sweeps[s].zero_load_latency_ns == row.zero_load_latency_ns,
          label + ": saturation/zero-load differ");
      std::string payload;
      spans.run("api.artifact_encode",
                [&] { payload = api::sweep_artifact_payload(sweeps[s]); });
      persist(api::kSweepArtifactKind, label, static_cast<int>(s), payload);
    }
  }
  const auto& sw = spec.sweep;
  const long horizon = sw.warmup + sw.measure + sw.drain;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    for (int k = 0; k < T; ++k) {
      for (int c = 0; c < C; ++c) {
        const auto& row = report.resilience[(p * T + k) * C + c];
        const std::string label = "resilience " + plans[p].key + "+" +
                                  row.traffic + "+" + row.scenario;
        fault::FaultPlan fp;
        spans.run("fault.prepare", [&] {
          fp = fault::prepare_fault_plan(plans[p].plan, spec.faults[c],
                                         horizon);
        });
        count["fault.epochs"] += static_cast<double>(fp.epochs.size());
        count["fault.flows_rerouted"] += fp.flows_rerouted;
        bool acyclic = false;
        spans.run("vc.verify",
                  [&] { acyclic = repaired_epochs_acyclic(fp, plans[p].plan); });
        check.expect(acyclic, label + ": repaired epoch layering has a cycle");
        const sim::SweepResult res =
            run_sweep(plans[p].plan, topos[p], spec.traffic[k], &fp, label);
        check.expect(res.saturation_pkt_node_ns == row.saturation_pkt_node_ns &&
                         fp.flows_rerouted == row.flows_rerouted,
                     label + ": saturation/flows_rerouted differ");
      }
    }
  }

  // ---- warm path: load every artifact back and decode it ----
  long lookups = 0, useful = 0;
  for (const auto& a : stored) {
    std::string payload;
    bool hit = false;
    spans.run("serve.load", [&] { hit = store.load(a.kind, a.key, payload); });
    ++lookups;
    if (!hit) continue;
    bool ok = false;
    const std::string kind = a.kind;
    if (kind == api::kTopologyArtifactKind) {
      api::TopologyArtifact t = fresh[a.index];
      spans.run("api.artifact_decode", [&] {
        ok = api::restore_topology_artifact(payload, spec.analytic, t);
      });
      ok = ok && t.topo.graph.to_string() ==
                     topos[a.index].topo.graph.to_string();
    } else if (kind == api::kPlanArtifactKind) {
      api::PlanArtifact p;
      p.key = plans[a.index].key;
      p.topology = a.index;
      p.seed = plans[a.index].seed;
      spans.run("api.artifact_decode",
                [&] { ok = api::restore_plan_artifact(payload, p); });
      ok = ok && p.plan.max_channel_load ==
                     plans[a.index].plan.max_channel_load;
    } else {
      sim::SweepResult r;
      spans.run("api.artifact_decode",
                [&] { ok = api::restore_sweep_artifact(payload, r); });
      ok = ok && r.saturation_pkt_node_ns ==
                     sweeps[a.index].saturation_pkt_node_ns;
    }
    check.expect(ok, a.key + ": artifact does not restore");
    if (ok) ++useful;
  }

  std::string json;
  spans.run("api.report_json", [&] { json = api::report_to_json(report); });
  check.expect(!json.empty(), "report serializes empty");

  // ---- per-layer metrics ----
  const double wall = spans.elapsed();
  const auto rate = [](double n, double s) { return s > 0.0 ? n / s : 0.0; };
  std::vector<Metric> m;
  const auto sec = [&](const char* layer) {
    m.push_back({std::string(layer) + "_s", "s", spans.total(layer)});
  };
  const auto cnt = [&](const char* name, const char* unit = "count") {
    m.push_back({name, unit, count[name]});
  };
  sec("topologies.build");
  sec("core.anneal");
  cnt("core.moves");
  m.push_back({"core.moves_per_s", "1/s",
               rate(count["core.moves"], spans.total("core.anneal"))});
  sec("topo.analytic");
  sec("topo.bisection");
  sec("routing.enumerate");
  cnt("routing.paths");
  sec("routing.mclb");
  cnt("routing.mclb_iterations");
  cnt("routing.max_channel_load", "load");
  sec("vc.assign_layers");
  cnt("vc.layers");
  sec("vc.balance");
  sec("vc.verify");
  sec("fault.prepare");
  cnt("fault.epochs");
  cnt("fault.flows_rerouted");
  sec("sim.sweep");
  cnt("sim.points");
  cnt("sim.cycles");
  m.push_back({"sim.cycles_per_s", "1/s",
               rate(count["sim.cycles"], spans.total("sim.sweep"))});
  cnt("sim.flits");
  sec("power.estimate");
  sec("api.artifact_encode");
  sec("serve.store");
  sec("api.artifact_decode");
  sec("serve.load");
  cnt("serve.bytes", "B");
  m.push_back({"serve.hit_ratio", "ratio",
               lookups > 0 ? static_cast<double>(useful) / lookups : 0.0});
  sec("api.report_json");
  m.push_back({"replay.wall_s", "s", wall});
  m.push_back({"replay.unattributed_s", "s", wall - spans.attributed()});
  check.expect(useful == lookups && lookups > 0,
               "warm path: not every artifact was a useful hit");

  if (!trace_path.empty()) spans.write(trace_path);
  return m;
}

}  // namespace perfbench
