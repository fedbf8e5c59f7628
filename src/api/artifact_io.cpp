#include "api/artifact_io.hpp"

#include <exception>
#include <utility>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace netsmith::api {

using util::JsonValue;

namespace {

JsonValue header(const char* kind) {
  JsonValue o = JsonValue::object();
  o.set("artifact", JsonValue::string(kind));
  o.set("schema", JsonValue::integer(kArtifactSchemaVersion));
  return o;
}

// Parses `payload` and checks the self-description; null-typed on any
// mismatch so callers fall through to a miss.
JsonValue parse_payload(const std::string& payload, const char* kind) {
  JsonValue doc = JsonValue::parse(payload);
  if (!doc.is_object()) return JsonValue::null();
  const JsonValue* k = doc.find("artifact");
  const JsonValue* s = doc.find("schema");
  if (!k || !s || k->as_string() != kind ||
      s->as_int() != kArtifactSchemaVersion)
    return JsonValue::null();
  return doc;
}

JsonValue int_array(const std::vector<int>& v) {
  JsonValue a = JsonValue::array();
  for (int x : v) a.push_back(JsonValue::integer(x));
  return a;
}

std::vector<int> as_int_vector(const JsonValue& a) {
  std::vector<int> v;
  v.reserve(a.items().size());
  for (const auto& x : a.items()) v.push_back(static_cast<int>(x.as_int()));
  return v;
}

}  // namespace

// ---------------------------------------------------------------- topology --

std::string topology_artifact_payload(const TopologyArtifact& t,
                                      bool analytic) {
  obs::Span span("api/artifact_encode");
  JsonValue o = header(kTopologyArtifactKind);
  o.set("adjacency", JsonValue::string(t.topo.graph.to_string()));
  o.set("analytic", JsonValue::boolean(analytic));
  if (analytic) {
    o.set("avg_hops", JsonValue::number(t.avg_hops));
    o.set("diameter", JsonValue::integer(t.diameter));
    o.set("bisection_bw", JsonValue::integer(t.bisection_bw));
    o.set("cut_bound", JsonValue::number(t.cut_bound));
    o.set("avg_extra_edge_delay", JsonValue::number(t.avg_extra_edge_delay));
  }
  o.set("synthesized", JsonValue::boolean(t.synthesized));
  if (t.synthesized) {
    JsonValue s = JsonValue::object();
    s.set("objective_value", JsonValue::number(t.synth.objective_value));
    s.set("bound", JsonValue::number(t.synth.bound));
    s.set("moves", JsonValue::integer(t.synth.moves));
    s.set("accepted", JsonValue::integer(t.synth.accepted));
    s.set("apsp_resweeps", JsonValue::integer(t.synth.apsp_resweeps));
    s.set("exact_rescores", JsonValue::integer(t.synth.exact_rescores));
    JsonValue trace = JsonValue::array();
    for (const auto& pt : t.synth.trace) {
      JsonValue p = JsonValue::object();
      p.set("seconds", JsonValue::number(pt.seconds));
      p.set("incumbent", JsonValue::number(pt.incumbent));
      p.set("bound", JsonValue::number(pt.bound));
      trace.push_back(std::move(p));
    }
    s.set("trace", std::move(trace));
    o.set("synth", std::move(s));
  }
  return o.dump();
}

bool restore_topology_artifact(const std::string& payload, bool analytic,
                               TopologyArtifact& t) {
  obs::Span span("api/artifact_decode");
  try {
    const JsonValue doc = parse_payload(payload, kTopologyArtifactKind);
    if (!doc.is_object()) return false;
    if (doc.at("analytic").as_bool() != analytic) return false;
    const std::string& adjacency = doc.at("adjacency").as_string();
    const bool synthesized = doc.at("synthesized").as_bool();
    if (t.source == TopologySource::kSynthesize) {
      if (!synthesized) return false;
      topo::DiGraph g = topo::DiGraph::from_string(adjacency);
      if (g.num_nodes() != t.synth_cfg.layout.n()) return false;
      t.topo.graph = std::move(g);
    } else {
      // Pre-built sources already resolved their graph during expansion; the
      // payload must describe the same topology or the entry is stale (a
      // hash collision or a store populated from a different build).
      if (synthesized || adjacency != t.topo.graph.to_string()) return false;
    }
    if (analytic) {
      t.avg_hops = doc.at("avg_hops").as_double();
      t.diameter = static_cast<int>(doc.at("diameter").as_int());
      t.bisection_bw = static_cast<int>(doc.at("bisection_bw").as_int());
      t.cut_bound = doc.at("cut_bound").as_double();
      t.avg_extra_edge_delay = doc.at("avg_extra_edge_delay").as_double();
    }
    if (synthesized) {
      const JsonValue& s = doc.at("synth");
      t.synth.graph = t.topo.graph;
      t.synth.objective_value = s.at("objective_value").as_double();
      t.synth.bound = s.at("bound").as_double();
      t.synth.moves = s.at("moves").as_int();
      t.synth.accepted = s.at("accepted").as_int();
      t.synth.apsp_resweeps = s.at("apsp_resweeps").as_int();
      t.synth.exact_rescores = s.at("exact_rescores").as_int();
      t.synth.trace.clear();
      for (const auto& pt : s.at("trace").items()) {
        core::ProgressPoint p;
        p.seconds = pt.at("seconds").as_double();
        p.incumbent = pt.at("incumbent").as_double();
        p.bound = pt.at("bound").as_double();
        t.synth.trace.push_back(p);
      }
      t.synthesized = true;
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// -------------------------------------------------------------------- plan --

namespace {

JsonValue layout_to_json(const topo::Layout& l) {
  JsonValue o = JsonValue::object();
  o.set("rows", JsonValue::integer(l.rows));
  o.set("cols", JsonValue::integer(l.cols));
  o.set("pitch_mm", JsonValue::number(l.pitch_mm));
  return o;
}

topo::Layout layout_from_json(const JsonValue& o) {
  topo::Layout l;
  l.rows = static_cast<int>(o.at("rows").as_int());
  l.cols = static_cast<int>(o.at("cols").as_int());
  l.pitch_mm = o.at("pitch_mm").as_double();
  return l;
}

JsonValue matrix_to_json(const util::Matrix<int>& m) {
  JsonValue o = JsonValue::object();
  o.set("rows", JsonValue::integer(static_cast<long long>(m.rows())));
  o.set("cols", JsonValue::integer(static_cast<long long>(m.cols())));
  JsonValue data = JsonValue::array();
  const std::size_t total = m.rows() * m.cols();
  for (std::size_t i = 0; i < total; ++i)
    data.push_back(JsonValue::integer(m.data()[i]));
  o.set("data", std::move(data));
  return o;
}

util::Matrix<int> matrix_from_json(const JsonValue& o) {
  const auto rows = static_cast<std::size_t>(o.at("rows").as_int());
  const auto cols = static_cast<std::size_t>(o.at("cols").as_int());
  const auto& data = o.at("data").items();
  if (data.size() != rows * cols)
    throw std::runtime_error("matrix: data length mismatch");
  util::Matrix<int> m(rows, cols);
  for (std::size_t i = 0; i < data.size(); ++i)
    m.data()[i] = static_cast<int>(data[i].as_int());
  return m;
}

}  // namespace

std::string plan_artifact_payload(const PlanArtifact& p) {
  obs::Span span("api/artifact_encode");
  JsonValue o = header(kPlanArtifactKind);
  const auto& plan = p.plan;
  o.set("policy", JsonValue::string(core::to_string(plan.policy)));
  o.set("num_vcs", JsonValue::integer(plan.num_vcs));
  o.set("seed", JsonValue::integer(static_cast<long long>(plan.seed)));
  o.set("max_paths_per_flow", JsonValue::integer(plan.max_paths_per_flow));
  o.set("max_channel_load", JsonValue::number(plan.max_channel_load));
  o.set("vc_layers", JsonValue::integer(plan.vc_layers));
  o.set("ndbt_fallback_flows", JsonValue::integer(plan.ndbt_fallback_flows));
  o.set("graph", JsonValue::string(plan.graph.to_string()));
  // Routing table, flow-major (s * n + d): each route as its router
  // sequence; absent flows (s == d) as empty arrays.
  const int n = plan.table.num_nodes();
  JsonValue table = JsonValue::array();
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) table.push_back(int_array(plan.table.path(s, d)));
  o.set("table", std::move(table));
  JsonValue vc = JsonValue::object();
  vc.set("num_vcs", JsonValue::integer(plan.vc_map.num_vcs));
  vc.set("num_layers", JsonValue::integer(plan.vc_map.num_layers));
  vc.set("vc", int_array(plan.vc_map.vc));
  vc.set("layer_of_vc", int_array(plan.vc_map.layer_of_vc));
  JsonValue weights = JsonValue::array();
  for (double w : plan.vc_map.weight_of_vc)
    weights.push_back(JsonValue::number(w));
  vc.set("weight_of_vc", std::move(weights));
  o.set("vc_map", std::move(vc));
  if (p.has_system) {
    JsonValue sys = JsonValue::object();
    sys.set("graph", JsonValue::string(p.system.graph.to_string()));
    sys.set("noi_n", JsonValue::integer(p.system.noi_n));
    sys.set("num_cores", JsonValue::integer(p.system.num_cores));
    sys.set("core_routers", int_array(p.system.core_routers));
    sys.set("mc_routers", int_array(p.system.mc_routers));
    sys.set("extra_delay", matrix_to_json(p.system.extra_delay));
    sys.set("noi_layout", layout_to_json(p.system.noi_layout));
    o.set("system", std::move(sys));
  }
  return o.dump();
}

bool restore_plan_artifact(const std::string& payload, PlanArtifact& p) {
  obs::Span span("api/artifact_decode");
  try {
    const JsonValue doc = parse_payload(payload, kPlanArtifactKind);
    if (!doc.is_object()) return false;
    core::NetworkPlan plan;
    const std::string& policy = doc.at("policy").as_string();
    if (policy == core::to_string(core::RoutingPolicy::kMclb))
      plan.policy = core::RoutingPolicy::kMclb;
    else if (policy == core::to_string(core::RoutingPolicy::kNdbt))
      plan.policy = core::RoutingPolicy::kNdbt;
    else
      return false;
    plan.num_vcs = static_cast<int>(doc.at("num_vcs").as_int());
    plan.seed = doc.at("seed").as_u64();
    plan.max_paths_per_flow =
        static_cast<int>(doc.at("max_paths_per_flow").as_int());
    plan.max_channel_load = doc.at("max_channel_load").as_double();
    plan.vc_layers = static_cast<int>(doc.at("vc_layers").as_int());
    plan.ndbt_fallback_flows =
        static_cast<int>(doc.at("ndbt_fallback_flows").as_int());
    if (plan.seed != p.seed) return false;
    plan.graph = topo::DiGraph::from_string(doc.at("graph").as_string());
    const int n = plan.graph.num_nodes();
    const auto& table = doc.at("table").items();
    if (table.size() != static_cast<std::size_t>(n) * n) return false;
    plan.table = routing::RoutingTable(n);
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        const auto& route = table[static_cast<std::size_t>(s) * n + d];
        plan.table.path(s, d) = as_int_vector(route);
      }
    }
    if (!plan.table.consistent_with(plan.graph)) return false;
    const JsonValue& vc = doc.at("vc_map");
    plan.vc_map.num_vcs = static_cast<int>(vc.at("num_vcs").as_int());
    plan.vc_map.num_layers = static_cast<int>(vc.at("num_layers").as_int());
    plan.vc_map.vc = as_int_vector(vc.at("vc"));
    plan.vc_map.layer_of_vc = as_int_vector(vc.at("layer_of_vc"));
    plan.vc_map.weight_of_vc.clear();
    for (const auto& w : vc.at("weight_of_vc").items())
      plan.vc_map.weight_of_vc.push_back(w.as_double());
    if (plan.vc_map.vc.size() != static_cast<std::size_t>(n) * n) return false;
    if (plan.vc_map.layer_of_vc.size() !=
            static_cast<std::size_t>(plan.vc_map.num_vcs) ||
        plan.vc_map.weight_of_vc.size() != plan.vc_map.layer_of_vc.size())
      return false;
    if (const JsonValue* sys = doc.find("system")) {
      system::ChipletSystem cs;
      cs.graph = topo::DiGraph::from_string(sys->at("graph").as_string());
      if (cs.graph.num_nodes() != n) return false;
      cs.noi_n = static_cast<int>(sys->at("noi_n").as_int());
      cs.num_cores = static_cast<int>(sys->at("num_cores").as_int());
      cs.core_routers = as_int_vector(sys->at("core_routers"));
      cs.mc_routers = as_int_vector(sys->at("mc_routers"));
      cs.extra_delay = matrix_from_json(sys->at("extra_delay"));
      cs.noi_layout = layout_from_json(sys->at("noi_layout"));
      p.system = std::move(cs);
      p.has_system = true;
    } else {
      p.has_system = false;
    }
    p.plan = std::move(plan);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

// ------------------------------------------------------------------- sweep --

std::string sweep_artifact_payload(const sim::SweepResult& r) {
  obs::Span span("api/artifact_encode");
  JsonValue o = header(kSweepArtifactKind);
  o.set("zero_load_latency_cycles",
        JsonValue::number(r.zero_load_latency_cycles));
  o.set("zero_load_latency_ns", JsonValue::number(r.zero_load_latency_ns));
  o.set("saturation_pkt_node_cycle",
        JsonValue::number(r.saturation_pkt_node_cycle));
  o.set("saturation_pkt_node_ns", JsonValue::number(r.saturation_pkt_node_ns));
  o.set("omp_threads", JsonValue::integer(r.omp_threads));
  JsonValue points = JsonValue::array();
  for (const auto& pt : r.points) {
    JsonValue p = JsonValue::object();
    p.set("offered_pkt_node_cycle",
          JsonValue::number(pt.offered_pkt_node_cycle));
    p.set("accepted", JsonValue::number(pt.stats.accepted));
    p.set("avg_latency_cycles", JsonValue::number(pt.stats.avg_latency_cycles));
    p.set("saturated", JsonValue::boolean(pt.stats.saturated));
    p.set("latency_ns", JsonValue::number(pt.latency_ns));
    p.set("accepted_pkt_node_ns", JsonValue::number(pt.accepted_pkt_node_ns));
    points.push_back(std::move(p));
  }
  o.set("points", std::move(points));
  return o.dump();
}

bool restore_sweep_artifact(const std::string& payload, sim::SweepResult& r) {
  obs::Span span("api/artifact_decode");
  try {
    const JsonValue doc = parse_payload(payload, kSweepArtifactKind);
    if (!doc.is_object()) return false;
    sim::SweepResult out;
    out.zero_load_latency_cycles =
        doc.at("zero_load_latency_cycles").as_double();
    out.zero_load_latency_ns = doc.at("zero_load_latency_ns").as_double();
    out.saturation_pkt_node_cycle =
        doc.at("saturation_pkt_node_cycle").as_double();
    out.saturation_pkt_node_ns = doc.at("saturation_pkt_node_ns").as_double();
    out.omp_threads = static_cast<int>(doc.at("omp_threads").as_int());
    for (const auto& pt : doc.at("points").items()) {
      sim::SweepPoint p;
      p.offered_pkt_node_cycle = pt.at("offered_pkt_node_cycle").as_double();
      p.stats.offered = p.offered_pkt_node_cycle;
      p.stats.accepted = pt.at("accepted").as_double();
      p.stats.avg_latency_cycles = pt.at("avg_latency_cycles").as_double();
      p.stats.saturated = pt.at("saturated").as_bool();
      p.latency_ns = pt.at("latency_ns").as_double();
      p.accepted_pkt_node_ns = pt.at("accepted_pkt_node_ns").as_double();
      out.points.push_back(std::move(p));
    }
    r = std::move(out);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace netsmith::api
