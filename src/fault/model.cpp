#include "fault/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <tuple>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/channel_load.hpp"
#include "routing/repair.hpp"
#include "util/rng.hpp"

namespace netsmith::fault {

const char* to_string(FaultEventKind k) {
  switch (k) {
    case FaultEventKind::kLinkDown: return "link_down";
    case FaultEventKind::kLinkUp: return "link_up";
    case FaultEventKind::kRouterDown: return "router_down";
    case FaultEventKind::kRouterUp: return "router_up";
  }
  return "?";
}

FaultEventKind fault_event_kind_from_string(const std::string& s) {
  if (s == "link_down") return FaultEventKind::kLinkDown;
  if (s == "link_up") return FaultEventKind::kLinkUp;
  if (s == "router_down") return FaultEventKind::kRouterDown;
  if (s == "router_up") return FaultEventKind::kRouterUp;
  throw std::invalid_argument("faults: unknown event kind '" + s + "'");
}

namespace {

std::string fmt_double(double d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  return buf;
}

// Canonical event ordering: cycle first so the simulator applies them as a
// stream; within a cycle downs sort before ups (enum order), so a
// zero-length outage resolves to "up" deterministically.
bool event_less(const FaultEvent& x, const FaultEvent& y) {
  return std::tie(x.cycle, x.kind, x.a, x.b) <
         std::tie(y.cycle, y.kind, y.a, y.b);
}

void validate_scenario(const FaultScenarioSpec& sc) {
  if (sc.mode != "targeted" && sc.mode != "random" && sc.mode != "explicit")
    throw std::invalid_argument("faults: mode must be targeted, random or "
                                "explicit, got '" + sc.mode + "'");
  if (sc.k < 0)
    throw std::invalid_argument("faults: k must be >= 0");
  if (sc.fail_at < 0)
    throw std::invalid_argument("faults: fail_at must be >= 0");
  if (sc.recover_at >= 0 && sc.recover_at <= sc.fail_at)
    throw std::invalid_argument("faults: recover_at must be > fail_at "
                                "(or < 0 for a permanent failure)");
  if (sc.link_mtbf < 0 || sc.link_mttr < 0 || sc.router_mtbf < 0 ||
      sc.router_mttr < 0)
    throw std::invalid_argument("faults: MTBF/MTTR values must be >= 0");
  if (sc.mode == "random" && sc.link_mtbf > 0 && sc.link_mttr <= 0)
    throw std::invalid_argument(
        "faults: random mode with link_mtbf > 0 requires link_mttr > 0");
  if (sc.mode == "random" && sc.router_mtbf > 0 && sc.router_mttr <= 0)
    throw std::invalid_argument(
        "faults: random mode with router_mtbf > 0 requires router_mttr > 0");
}

// Alternating up/down renewal process for one component: exponential
// holding times with the given means, quantized to cycle boundaries.
// Emits (down_cycle, up_cycle<0 = permanent) outages within [0, horizon).
void draw_outages(util::Rng& rng, double mtbf, double mttr, long horizon,
                  std::vector<std::pair<long, long>>& out) {
  double t = 0.0;
  while (true) {
    t += -mtbf * std::log(1.0 - rng.uniform());
    if (t >= static_cast<double>(horizon)) return;
    const long down = static_cast<long>(std::ceil(t));
    t += -mttr * std::log(1.0 - rng.uniform());
    if (t >= static_cast<double>(horizon)) {
      out.emplace_back(down, -1);
      return;
    }
    const long up = static_cast<long>(std::ceil(t));
    if (up > down) out.emplace_back(down, up);
  }
}

}  // namespace

std::string FaultScenarioSpec::label() const {
  if (!name.empty()) return name;
  std::string l;
  if (mode == "targeted") {
    l = "targeted-k" + std::to_string(k);
  } else if (mode == "random") {
    l = "random-s" + std::to_string(seed);
  } else {
    l = "explicit-" + std::to_string(events.size()) + "ev";
  }
  if (lossy) l += "-lossy";
  if (!repair) l += "-norepair";
  return l;
}

std::string FaultScenarioSpec::canonical_key() const {
  std::string key = "fault:mode=" + mode + ";k=" + std::to_string(k) +
                    ";fail_at=" + std::to_string(fail_at) +
                    ";recover_at=" + std::to_string(recover_at) +
                    ";link_mtbf=" + fmt_double(link_mtbf) +
                    ";link_mttr=" + fmt_double(link_mttr) +
                    ";router_mtbf=" + fmt_double(router_mtbf) +
                    ";router_mttr=" + fmt_double(router_mttr) +
                    ";seed=" + std::to_string(seed) +
                    ";lossy=" + (lossy ? "1" : "0") +
                    ";repair=" + (repair ? "1" : "0");
  if (!events.empty()) {
    key += ";events=";
    for (std::size_t i = 0; i < events.size(); ++i) {
      const FaultEvent& e = events[i];
      if (i) key += ',';
      key += std::to_string(e.cycle) + ':' + to_string(e.kind) + ':' +
             std::to_string(e.a) + ':' + std::to_string(e.b);
    }
  }
  return key;
}

FaultSchedule build_fault_schedule(const FaultScenarioSpec& scenario,
                                   const core::NetworkPlan& plan,
                                   long horizon) {
  validate_scenario(scenario);
  const topo::DiGraph& g = plan.graph;
  const int n = g.num_nodes();
  FaultSchedule sched;

  // Duplex links in deterministic (u, v) order; both modes fail a link's
  // two directions together (a cable cut, or a power-gated SerDes pair).
  std::vector<std::pair<int, int>> duplex;
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (g.has_edge(u, v) || g.has_edge(v, u)) duplex.emplace_back(u, v);

  auto down_both = [&](long cycle, int u, int v) {
    if (g.has_edge(u, v))
      sched.events.push_back({cycle, FaultEventKind::kLinkDown, u, v});
    if (g.has_edge(v, u))
      sched.events.push_back({cycle, FaultEventKind::kLinkDown, v, u});
  };
  auto up_both = [&](long cycle, int u, int v) {
    if (g.has_edge(u, v))
      sched.events.push_back({cycle, FaultEventKind::kLinkUp, u, v});
    if (g.has_edge(v, u))
      sched.events.push_back({cycle, FaultEventKind::kLinkUp, v, u});
  };

  if (scenario.mode == "targeted") {
    // Adversarial: the k duplex links carrying the most routed load (summed
    // over both directions), per the channel-load pipeline. Ties break on
    // (u, v) so the selection is engine- and thread-independent.
    const routing::LoadAnalysis la = routing::analyze_uniform(plan.table);
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(duplex.size());
    for (std::size_t i = 0; i < duplex.size(); ++i) {
      const auto [u, v] = duplex[i];
      double load = 0.0;
      if (g.has_edge(u, v)) load += la.load(u, v);
      if (g.has_edge(v, u)) load += la.load(v, u);
      ranked.emplace_back(load, i);
    }
    std::sort(ranked.begin(), ranked.end(), [&](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return duplex[a.second] < duplex[b.second];
    });
    const std::size_t kk =
        std::min<std::size_t>(static_cast<std::size_t>(scenario.k),
                              ranked.size());
    for (std::size_t i = 0; i < kk; ++i) {
      const auto [u, v] = duplex[ranked[i].second];
      if (scenario.fail_at < horizon) down_both(scenario.fail_at, u, v);
      if (scenario.recover_at >= 0 && scenario.recover_at < horizon)
        up_both(scenario.recover_at, u, v);
    }
  } else if (scenario.mode == "random") {
    // Per-component renewal processes on split RNG streams: stream i for
    // duplex link i, high-bit streams for routers, all children of the
    // scenario seed — never of the traffic seed.
    std::vector<std::pair<long, long>> outages;
    if (scenario.link_mtbf > 0) {
      for (std::size_t i = 0; i < duplex.size(); ++i) {
        util::Rng rng(util::split_stream(scenario.seed, i));
        outages.clear();
        draw_outages(rng, scenario.link_mtbf, scenario.link_mttr, horizon,
                     outages);
        for (const auto& [down, up] : outages) {
          down_both(down, duplex[i].first, duplex[i].second);
          if (up >= 0) up_both(up, duplex[i].first, duplex[i].second);
        }
      }
    }
    if (scenario.router_mtbf > 0) {
      for (int r = 0; r < n; ++r) {
        util::Rng rng(util::split_stream(
            scenario.seed, 0x8000000000000000ULL + static_cast<std::uint64_t>(r)));
        outages.clear();
        draw_outages(rng, scenario.router_mtbf, scenario.router_mttr, horizon,
                     outages);
        for (const auto& [down, up] : outages) {
          sched.events.push_back({down, FaultEventKind::kRouterDown, r, -1});
          if (up >= 0)
            sched.events.push_back({up, FaultEventKind::kRouterUp, r, -1});
        }
      }
    }
  } else {  // explicit
    for (const FaultEvent& e : scenario.events) {
      if (e.cycle < 0)
        throw std::invalid_argument("faults: event cycle must be >= 0");
      const bool link = e.kind == FaultEventKind::kLinkDown ||
                        e.kind == FaultEventKind::kLinkUp;
      if (link) {
        if (e.a < 0 || e.a >= n || e.b < 0 || e.b >= n || !g.has_edge(e.a, e.b))
          throw std::invalid_argument(
              "faults: event names absent edge " + std::to_string(e.a) +
              " -> " + std::to_string(e.b));
      } else {
        if (e.a < 0 || e.a >= n)
          throw std::invalid_argument("faults: event names absent router " +
                                      std::to_string(e.a));
      }
      if (e.cycle < horizon) sched.events.push_back(e);
    }
  }

  std::sort(sched.events.begin(), sched.events.end(), event_less);
  return sched;
}

FaultPlan prepare_fault_plan(const core::NetworkPlan& plan,
                             const FaultScenarioSpec& scenario, long horizon) {
  obs::Span span("fault/prepare");
  FaultPlan fp;
  fp.lossy = scenario.lossy;
  fp.events = build_fault_schedule(scenario, plan, horizon).events;

  const int n = plan.graph.num_nodes();
  std::vector<std::uint8_t> link_down(static_cast<std::size_t>(n) * n, 0);
  std::vector<std::uint8_t> router_down(static_cast<std::size_t>(n), 0);
  int links = 0, routers = 0;

  fp.epochs.push_back({});  // pre-fault epoch at cycle 0, base routing

  std::size_t i = 0;
  while (i < fp.events.size()) {
    const long cycle = fp.events[i].cycle;
    bool links_changed = false;
    for (; i < fp.events.size() && fp.events[i].cycle == cycle; ++i) {
      const FaultEvent& e = fp.events[i];
      switch (e.kind) {
        case FaultEventKind::kLinkDown: {
          auto& bit = link_down[static_cast<std::size_t>(e.a) * n + e.b];
          if (!bit) { bit = 1; ++links; links_changed = true; }
          break;
        }
        case FaultEventKind::kLinkUp: {
          auto& bit = link_down[static_cast<std::size_t>(e.a) * n + e.b];
          if (bit) { bit = 0; --links; links_changed = true; }
          break;
        }
        case FaultEventKind::kRouterDown: {
          auto& bit = router_down[static_cast<std::size_t>(e.a)];
          if (!bit) { bit = 1; ++routers; }
          break;
        }
        case FaultEventKind::kRouterUp: {
          auto& bit = router_down[static_cast<std::size_t>(e.a)];
          if (bit) { bit = 0; --routers; }
          break;
        }
      }
    }

    FaultEpoch ep;
    ep.cycle = cycle;
    ep.links_down = links;
    ep.routers_down = routers;

    // Router faults are endpoint (NI) faults — the crossbar still forwards —
    // so routing only reacts to the link set. An unchanged link set reuses
    // the previous epoch's tables verbatim.
    if (!links_changed && fp.epochs.size() > 1) {
      const FaultEpoch& prev = fp.epochs.back();
      ep.repaired = prev.repaired;
      ep.table = prev.table;
      ep.vc_map = prev.vc_map;
      ep.flows_unroutable = prev.flows_unroutable;
    } else if (scenario.repair && links > 0) {
      obs::WallTimer timer;
      std::vector<std::pair<int, int>> down_edges;
      for (int u = 0; u < n; ++u)
        for (int v = 0; v < n; ++v)
          if (link_down[static_cast<std::size_t>(u) * n + v])
            down_edges.emplace_back(u, v);
      routing::RepairResult rr = routing::repair_routes(
          plan.graph, plan.table, down_edges, plan.max_paths_per_flow);
      if (rr.flows_affected > 0) {
        ep.repaired = true;
        ep.table = std::move(rr.table);
        // Re-layer for deadlock freedom: the repaired routes are new channel
        // dependencies, so the old VC layering is not valid for them.
        const vc::VcAssignment a = vc::assign_layers(ep.table, plan.graph);
        ep.vc_map = vc::balance_vcs(a, ep.table, plan.num_vcs);
        if (!vc::verify_acyclic(vc::layer_assignment(ep.vc_map), ep.table,
                                plan.graph))
          throw std::logic_error(
              "prepare_fault_plan: repaired VC layering has a cyclic CDG");
        ep.flows_rerouted = rr.flows_rerouted;
        ep.flows_unroutable = rr.flows_unroutable;
        fp.flows_rerouted += rr.flows_rerouted;
      }
      if (obs::metrics_enabled())
        obs::counter("fault.repair_us")
            .add(static_cast<std::uint64_t>(timer.seconds() * 1e6));
    }

    fp.max_links_down = std::max(fp.max_links_down, links);
    fp.max_routers_down = std::max(fp.max_routers_down, routers);
    fp.flows_unroutable = std::max(fp.flows_unroutable, ep.flows_unroutable);
    fp.epochs.push_back(std::move(ep));
  }

  if (obs::metrics_enabled()) {
    obs::counter("fault.links_down")
        .add(static_cast<std::uint64_t>(fp.max_links_down));
    obs::counter("fault.routers_down")
        .add(static_cast<std::uint64_t>(fp.max_routers_down));
  }
  return fp;
}

}  // namespace netsmith::fault
