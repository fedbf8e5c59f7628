#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "routing/channel_load.hpp"
#include "topo/builders.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace netsmith::sim {
namespace {

TEST(DefaultRates, MonotoneAndBounded) {
  const auto rates = default_rates(0.2, 10);
  ASSERT_EQ(rates.size(), 10u);
  for (std::size_t i = 1; i < rates.size(); ++i)
    EXPECT_GT(rates[i], rates[i - 1]);
  EXPECT_GT(rates.front(), 0.0);
  EXPECT_NEAR(rates.back(), 0.2, 1e-12);
}

class SweepTest : public ::testing::Test {
 protected:
  static SimConfig cfg() {
    SimConfig c;
    c.warmup = 1500;
    c.measure = 4000;
    c.drain = 10000;
    return c;
  }
};

TEST_F(SweepTest, ZeroLoadAndSaturationPopulated) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = core::plan_network(topo::build_folded_torus(lay), lay,
                                       core::RoutingPolicy::kMclb, 6);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  const auto r = sweep_to_saturation(plan, t, cfg(), 3.0, /*points=*/6);
  EXPECT_GT(r.zero_load_latency_cycles, 5.0);
  EXPECT_NEAR(r.zero_load_latency_ns, r.zero_load_latency_cycles / 3.0, 1e-9);
  EXPECT_GT(r.saturation_pkt_node_cycle, 0.0);
  EXPECT_EQ(r.points.size(), 6u);
}

TEST_F(SweepTest, SaturationBelowOccupancyBound) {
  // The measured saturation (packets/node/cycle, avg 5 flits/packet) cannot
  // exceed the flit-level occupancy bound.
  const auto lay = topo::Layout::noi_4x5();
  const auto g = topo::build_folded_torus(lay);
  const auto plan =
      core::plan_network(g, lay, core::RoutingPolicy::kMclb, 6);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  const auto r = sweep_to_saturation(plan, t, cfg(), 3.0, 6);
  const double avg_flits = 1 + 0.5 * 8;  // 50/50 ctrl(1)/data(9)
  EXPECT_LE(r.saturation_pkt_node_cycle * avg_flits,
            routing::occupancy_bound(g) * 1.15);
}

TEST_F(SweepTest, NsUnitsConsistent) {
  const auto lay = topo::Layout::noi_4x5();
  const auto plan = core::plan_network(topo::build_mesh(lay), lay,
                                       core::RoutingPolicy::kMclb, 6);
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  const auto r = injection_sweep(plan, t, cfg(), 2.5, {0.01, 0.02});
  for (const auto& pt : r.points) {
    EXPECT_NEAR(pt.latency_ns, pt.stats.avg_latency_cycles / 2.5, 1e-9);
    EXPECT_NEAR(pt.accepted_pkt_node_ns, pt.stats.accepted * 2.5, 1e-9);
  }
}

TEST_F(SweepTest, BetterTopologyHigherSaturation) {
  // Folded torus should saturate later than the mesh (more links, shorter
  // routes) under identical conditions.
  const auto lay = topo::Layout::noi_4x5();
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  const auto mesh = sweep_to_saturation(
      core::plan_network(topo::build_mesh(lay), lay,
                         core::RoutingPolicy::kMclb, 6),
      t, cfg(), 3.0, 8);
  const auto ft = sweep_to_saturation(
      core::plan_network(topo::build_folded_torus(lay), lay,
                         core::RoutingPolicy::kMclb, 6),
      t, cfg(), 3.0, 8);
  EXPECT_GT(ft.saturation_pkt_node_cycle, mesh.saturation_pkt_node_cycle);
}

// Schedule oracle: the sweep as its truncation rule defines it, run one
// simulation at a time. Job 0 is the zero-load run and job i + 1 rate point
// i; jobs form waves of `wave` consecutive indices, and a point is truncated
// iff a point of an earlier wave saturated.
SweepResult serial_sweep(const core::NetworkPlan& plan,
                         const TrafficConfig& traffic, const SimConfig& cfg,
                         double clock_ghz, const std::vector<double>& rates,
                         const SweepOptions& opt, std::size_t wave,
                         std::vector<bool>* truncated) {
  SweepResult r;
  r.omp_threads = static_cast<int>(wave);
  TrafficConfig t0 = traffic;
  t0.injection_rate = std::max(1e-4, rates.front() * 0.05);
  const SimStats zero = simulate(plan, t0, cfg);
  r.zero_load_latency_cycles = zero.avg_latency_cycles;
  r.zero_load_latency_ns = zero.avg_latency_cycles / clock_ghz;
  std::size_t first_sat_wave = rates.size() + 1;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const std::size_t w = (i + 1) / wave;
    const bool cut = opt.adaptive && first_sat_wave < w;
    truncated->push_back(cut);
    TrafficConfig t = traffic;
    t.injection_rate = rates[i];
    SimConfig c = cfg;
    c.seed = cfg.seed + 1000 + i;
    if (cut) {
      c.measure = std::min(cfg.measure, std::max(opt.min_measure,
                                                 cfg.measure / opt.truncate_factor));
      c.drain = std::min(cfg.drain, std::max(opt.min_drain,
                                             cfg.drain / opt.truncate_factor));
    }
    SweepPoint pt;
    pt.offered_pkt_node_cycle = rates[i];
    pt.stats = simulate(plan, t, c);
    pt.latency_ns = pt.stats.avg_latency_cycles / clock_ghz;
    pt.accepted_pkt_node_ns = pt.stats.accepted * clock_ghz;
    if (pt.stats.saturated) first_sat_wave = std::min(first_sat_wave, w);
    r.points.push_back(pt);
  }
  // Saturation throughput, as sweep.cpp defines it (factor 6 on zero-load).
  const double threshold = r.zero_load_latency_cycles * 6.0;
  for (const auto& pt : r.points) {
    const bool sat = pt.stats.saturated ||
                     (pt.stats.avg_latency_cycles > threshold &&
                      r.zero_load_latency_cycles > 0.0);
    r.saturation_pkt_node_cycle = std::max(
        r.saturation_pkt_node_cycle,
        sat ? std::min(pt.stats.accepted, pt.offered_pkt_node_cycle)
            : pt.stats.accepted);
  }
  r.saturation_pkt_node_ns = r.saturation_pkt_node_cycle * clock_ghz;
  return r;
}

void expect_same_stats(const SimStats& a, const SimStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.offered, b.offered) << what;
  EXPECT_EQ(a.accepted, b.accepted) << what;
  EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles) << what;
  EXPECT_EQ(a.tagged_injected, b.tagged_injected) << what;
  EXPECT_EQ(a.tagged_completed, b.tagged_completed) << what;
  EXPECT_EQ(a.total_injected, b.total_injected) << what;
  EXPECT_EQ(a.total_ejected, b.total_ejected) << what;
  EXPECT_EQ(a.saturated, b.saturated) << what;
  EXPECT_EQ(a.mean_source_backlog, b.mean_source_backlog) << what;
  EXPECT_EQ(a.cycles_run, b.cycles_run) << what;
  EXPECT_EQ(a.flits_injected, b.flits_injected) << what;
  EXPECT_EQ(a.flits_ejected, b.flits_ejected) << what;
  EXPECT_EQ(a.flits_buffered_end, b.flits_buffered_end) << what;
  EXPECT_EQ(a.flits_inflight_end, b.flits_inflight_end) << what;
  EXPECT_EQ(a.source_flits_end, b.source_flits_end) << what;
  EXPECT_EQ(a.credits_consistent, b.credits_consistent) << what;
  EXPECT_EQ(a.owners_clear, b.owners_clear) << what;
  EXPECT_EQ(a.active_router_cycles, b.active_router_cycles) << what;
  EXPECT_EQ(a.arrival_events, b.arrival_events) << what;
  EXPECT_EQ(a.flits_dropped, b.flits_dropped) << what;
  EXPECT_EQ(a.packets_dropped, b.packets_dropped) << what;
  EXPECT_EQ(a.tagged_dropped, b.tagged_dropped) << what;
  EXPECT_EQ(a.packets_unroutable, b.packets_unroutable) << what;
  EXPECT_EQ(a.latency_p50_cycles, b.latency_p50_cycles) << what;
  EXPECT_EQ(a.latency_p99_cycles, b.latency_p99_cycles) << what;
  EXPECT_EQ(a.delivered_fraction, b.delivered_fraction) << what;
}

// Runs injection_sweep at OpenMP widths 1-4 and checks each result bit for
// bit against serial_sweep at the same wave size. Returns, per width, which
// points the oracle truncated.
std::vector<std::vector<bool>> expect_matches_oracle(
    const core::NetworkPlan& plan, const TrafficConfig& traffic,
    const SimConfig& cfg, const std::vector<double>& rates,
    const SweepOptions& opt) {
  constexpr double kClock = 3.0;
  std::vector<std::vector<bool>> truncated;
#if defined(_OPENMP)
  const int saved = omp_get_max_threads();
  const int widths[] = {1, 2, 3, 4};
#else
  const int widths[] = {1};
#endif
  for (const int width : widths) {
#if defined(_OPENMP)
    omp_set_num_threads(width);
#endif
    const std::string what = "width " + std::to_string(width);
    truncated.emplace_back();
    const SweepResult want =
        serial_sweep(plan, traffic, cfg, kClock, rates, opt,
                     static_cast<std::size_t>(width), &truncated.back());
    const SweepResult got =
        injection_sweep(plan, traffic, cfg, kClock, rates, opt);
    EXPECT_EQ(got.omp_threads, want.omp_threads) << what;
    EXPECT_EQ(got.zero_load_latency_cycles, want.zero_load_latency_cycles)
        << what;
    EXPECT_EQ(got.zero_load_latency_ns, want.zero_load_latency_ns) << what;
    EXPECT_EQ(got.saturation_pkt_node_cycle, want.saturation_pkt_node_cycle)
        << what;
    EXPECT_EQ(got.saturation_pkt_node_ns, want.saturation_pkt_node_ns) << what;
    EXPECT_EQ(got.points.size(), want.points.size()) << what;
    for (std::size_t i = 0; i < std::min(got.points.size(), want.points.size());
         ++i) {
      const std::string at = what + " point " + std::to_string(i);
      EXPECT_EQ(got.points[i].offered_pkt_node_cycle,
                want.points[i].offered_pkt_node_cycle) << at;
      EXPECT_EQ(got.points[i].latency_ns, want.points[i].latency_ns) << at;
      EXPECT_EQ(got.points[i].accepted_pkt_node_ns,
                want.points[i].accepted_pkt_node_ns) << at;
      expect_same_stats(got.points[i].stats, want.points[i].stats, at);
    }
  }
#if defined(_OPENMP)
  omp_set_num_threads(saved);
#endif
  return truncated;
}

class SweepScheduleTest : public ::testing::Test {
 protected:
  static SimConfig cfg() {
    SimConfig c;
    c.warmup = 500;
    c.measure = 2000;
    c.drain = 4000;
    return c;
  }
  static SweepOptions opt() {
    SweepOptions o;
    o.min_measure = 400;
    o.min_drain = 800;
    return o;
  }
  static core::NetworkPlan mesh_plan() {
    const auto lay = topo::Layout::noi_4x5();
    return core::plan_network(topo::build_mesh(lay), lay,
                              core::RoutingPolicy::kMclb, 6);
  }
  static TrafficConfig coherence() {
    TrafficConfig t;
    t.kind = TrafficKind::kCoherence;
    return t;
  }
};

TEST_F(SweepScheduleTest, AdaptiveKneeMidWaveMatchesOracle) {
  // The first saturated point is job 5 or 6, which sits inside a wave at
  // widths 2-4, so later points of that wave run full windows and the waves
  // after it run truncated ones.
  const auto rates = default_rates(0.2, 10);
  const auto truncated =
      expect_matches_oracle(mesh_plan(), coherence(), cfg(), rates, opt());
  for (const auto& t : truncated) {
    EXPECT_FALSE(t.front());
    EXPECT_TRUE(t.back());
  }
  EXPECT_EQ(truncated.back(),
            (std::vector<bool>{false, false, false, false, false, false, false,
                               true, true, true}));
}

TEST_F(SweepScheduleTest, FixedWindowMatchesOracle) {
  SweepOptions o = opt();
  o.adaptive = false;
  const auto truncated = expect_matches_oracle(
      mesh_plan(), coherence(), cfg(), default_rates(0.2, 8), o);
  for (const auto& t : truncated)
    EXPECT_EQ(std::count(t.begin(), t.end(), true), 0);
}

TEST_F(SweepScheduleTest, FewerPointsThanThreadsMatchesOracle) {
  // Two saturated points, three jobs: widths 1 and 2 put the second point
  // in a later wave than the first and truncate it; at widths 3 and 4 every
  // job is in wave 0 and runs its full window.
  const auto truncated = expect_matches_oracle(
      mesh_plan(), coherence(), cfg(), {0.3, 0.35}, opt());
  for (std::size_t w = 0; w < truncated.size(); ++w)
    EXPECT_EQ(truncated[w], (std::vector<bool>{false, w < 2})) << w + 1;
}

TEST_F(SweepScheduleTest, PointErrorsReachTheCaller) {
  // A failing point finishes its job, so later points still get their
  // truncation decided, and the sweep rethrows once the team is done.
  const auto plan = mesh_plan();
  ASSERT_GT(plan.vc_map.num_vcs, 1);
  SimConfig c = cfg();
  c.num_vcs = 1;
  EXPECT_THROW(injection_sweep(plan, coherence(), c, 3.0,
                               default_rates(0.2, 6), opt()),
               std::invalid_argument);
}

TEST_F(SweepScheduleTest, SpanReportsGateWait) {
  obs::reset_trace();
  obs::set_trace_enabled(true);
  injection_sweep(mesh_plan(), coherence(), cfg(), 3.0, {0.02, 0.3, 0.35},
                  opt());
  obs::set_trace_enabled(false);
#if defined(_OPENMP)
  const int team = omp_get_max_threads();
#else
  const int team = 1;
#endif
  int spans = 0;
  for (const auto& e : obs::collect_trace_events()) {
    if (e.name != "sim/sweep") continue;
    ++spans;
    const auto it = std::find_if(
        e.num_args.begin(), e.num_args.end(),
        [](const auto& a) { return a.first == "gate_wait_ms"; });
    ASSERT_NE(it, e.num_args.end());
    EXPECT_GE(it->second, 0.0);
    // Blocked time is summed over the team's threads.
    EXPECT_LE(it->second, e.dur_us / 1000.0 * team);
  }
  EXPECT_EQ(spans, 1);
  obs::reset_trace();
}

}  // namespace
}  // namespace netsmith::sim
