// Pinned SimStats fingerprints: a 64-bit FNV-1a hash over every SimStats
// field for a fixed set of simulations, checked in reference and optimized
// modes. The reference-vs-optimized oracle (test_sim_equivalence) shares the
// arrival-delivery path between the two modes, so it cannot see a change in
// when or in what order flits reach their input buffers; these constants can.
// They were recorded from the binary-heap arrival queue and the full-scan
// switch, and a faster kernel must reproduce them exactly. A change that
// moves simulation results on purpose re-records them and says why.
//
// The cases cover both sides of the saturation knee, request/reply traffic,
// a custom pattern, wheel sizes past 4 (mixed extra edge delay), a
// 1 flit/cycle NI, lossless and lossy link flaps, a hub router whose
// (input, VC) slot space does not fit one 64-bit word, and a second
// VC-count x buffer-depth geometry (8 VCs of 4 flits).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/objective.hpp"
#include "fault/model.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"
#include "topo/builders.hpp"

namespace netsmith::sim {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add(long v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(bool v) {
    h_ ^= v ? 1u : 0u;
    h_ *= 1099511628211ull;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

// Every SimStats field in declaration order. Under faults the arrival-event
// count depends on how the arrival queue represents stranded and purged
// flits, not on what the network does, so fault cases leave that one field
// out; every flit movement still shows in the other fields.
std::uint64_t fingerprint(const SimStats& s, bool with_arrival_events) {
  Fnv1a h;
  h.add(s.offered);
  h.add(s.accepted);
  h.add(s.avg_latency_cycles);
  h.add(s.tagged_injected);
  h.add(s.tagged_completed);
  h.add(s.total_injected);
  h.add(s.total_ejected);
  h.add(s.saturated);
  h.add(s.mean_source_backlog);
  h.add(s.cycles_run);
  h.add(s.flits_injected);
  h.add(s.flits_ejected);
  h.add(s.flits_buffered_end);
  h.add(s.flits_inflight_end);
  h.add(s.source_flits_end);
  h.add(s.credits_consistent);
  h.add(s.owners_clear);
  h.add(s.active_router_cycles);
  if (with_arrival_events) h.add(s.arrival_events);
  h.add(s.flits_dropped);
  h.add(s.packets_dropped);
  h.add(s.tagged_dropped);
  h.add(s.packets_unroutable);
  h.add(s.latency_p50_cycles);
  h.add(s.latency_p99_cycles);
  h.add(s.delivered_fraction);
  return h.value();
}

// Simulates in both modes, checks each against the pinned hash and returns
// the optimized run's stats for the case's own sanity guards.
SimStats expect_fingerprint(const core::NetworkPlan& plan,
                            const TrafficConfig& traffic, SimConfig cfg,
                            std::uint64_t expected) {
  const bool faulted = cfg.faults != nullptr;
  SimStats s;
  for (const bool reference : {true, false}) {
    cfg.reference_mode = reference;
    s = simulate(plan, traffic, cfg);
    EXPECT_GT(s.flits_injected, 0);
    EXPECT_EQ(fingerprint(s, !faulted), expected)
        << (reference ? "reference" : "optimized") << " mode";
  }
  return s;
}

core::NetworkPlan mclb_plan(const topo::DiGraph& g, const topo::Layout& lay) {
  return core::plan_network(g, lay, core::RoutingPolicy::kMclb, /*num_vcs=*/6);
}

SimConfig quick_cfg(std::uint64_t seed) {
  SimConfig cfg;
  cfg.warmup = 1000;
  cfg.measure = 3000;
  cfg.drain = 12000;
  cfg.seed = seed;
  return cfg;
}

TrafficConfig coherence(double rate) {
  TrafficConfig t;
  t.kind = TrafficKind::kCoherence;
  t.injection_rate = rate;
  return t;
}

TEST(SimFingerprint, CoherenceBelowKnee) {
  const auto lay = topo::Layout::noi_4x5();
  const auto s =
      expect_fingerprint(mclb_plan(topo::build_folded_torus(lay), lay),
                         coherence(0.04), quick_cfg(1), 0xeb730ceb33f8631aull);
  EXPECT_FALSE(s.saturated);
}

TEST(SimFingerprint, CoherencePastKnee) {
  const auto lay = topo::Layout::noi_4x5();
  auto cfg = quick_cfg(3);
  cfg.drain = 3000;
  const auto s = expect_fingerprint(mclb_plan(topo::build_mesh(lay), lay),
                                    coherence(0.5), cfg, 0x12e3e79f64aabb8aull);
  EXPECT_TRUE(s.saturated);
}

TEST(SimFingerprint, MemoryRequestReply) {
  const auto lay = topo::Layout::noi_4x5();
  TrafficConfig t;
  t.kind = TrafficKind::kMemory;
  t.mc_nodes = mc_nodes(lay);
  t.injection_rate = 0.03;
  expect_fingerprint(mclb_plan(topo::build_folded_torus(lay), lay), t,
                     quick_cfg(5), 0x1c1c01c1f6c42b34ull);
}

TEST(SimFingerprint, CustomPatternWithReplies) {
  const auto lay = topo::Layout::noi_4x5();
  auto t = traffic_from_pattern(core::tornado_pattern(20), 0.03);
  t.custom_reply = true;
  expect_fingerprint(mclb_plan(topo::build_mesh(lay), lay), t, quick_cfg(13),
                     0x773747f8d7ff46f3ull);
}

TEST(SimFingerprint, MixedExtraEdgeDelay) {
  const auto lay = topo::Layout::noi_4x5();
  auto cfg = quick_cfg(17);
  // Per-edge delays 0..6: channel latencies 3..9, so the arrival queue spans
  // up to ten cycles and channels of different length interleave.
  cfg.extra_edge_delay = util::Matrix<int>(20, 20, 0);
  for (std::size_t u = 0; u < 20; ++u)
    for (std::size_t v = 0; v < 20; ++v)
      cfg.extra_edge_delay(u, v) = static_cast<int>((3 * u + v) % 4) * 2;
  expect_fingerprint(mclb_plan(topo::build_folded_torus(lay), lay),
                     coherence(0.06), cfg, 0x3e3bad55c7ef0d73ull);
}

TEST(SimFingerprint, NarrowIo) {
  const auto lay = topo::Layout::noi_4x5();
  auto cfg = quick_cfg(29);
  cfg.io_flits_per_cycle = 1;
  expect_fingerprint(mclb_plan(topo::build_folded_torus(lay), lay),
                     coherence(0.08), cfg, 0xbf66798aa6d619e3ull);
}

TEST(SimFingerprint, EightShallowVcs) {
  // 8 VCs of 4 flits: a 9-flit data packet spans three buffers, and input
  // slots index as k * 8 + vc with 4-flit rings. Recorded from the
  // per-channel input buffers that preceded the flat switch state.
  const auto lay = topo::Layout::noi_4x5();
  const auto g = topo::build_folded_torus(lay);
  auto cfg = quick_cfg(37);
  cfg.num_vcs = 8;
  cfg.buf_flits = 4;
  const auto s = expect_fingerprint(
      core::plan_network(g, lay, core::RoutingPolicy::kMclb, /*num_vcs=*/8),
      coherence(0.1), cfg, 0x4f92a4382e733dc4ull);
  EXPECT_GT(s.flits_ejected, 0);
}

TEST(SimFingerprint, LosslessFlapWithRepair) {
  const topo::Layout lay{3, 4, 2.0};
  const auto plan = mclb_plan(topo::build_mesh(lay), lay);
  auto cfg = quick_cfg(21);
  cfg.drain = 30000;
  // Long wires so the failing links strand several flits each.
  cfg.extra_edge_delay = util::Matrix<int>(12, 12, 6);
  fault::FaultScenarioSpec sc;
  sc.mode = "targeted";
  sc.k = 2;
  sc.fail_at = 1500;
  sc.recover_at = 2600;
  sc.lossy = false;
  sc.repair = true;
  const auto fp = fault::prepare_fault_plan(
      plan, sc, cfg.warmup + cfg.measure + cfg.drain);
  cfg.faults = &fp;
  const auto s =
      expect_fingerprint(plan, coherence(0.05), cfg, 0xed094ac2b71a3586ull);
  EXPECT_EQ(s.flits_dropped, 0);
  EXPECT_EQ(s.flits_injected, s.flits_ejected);
}

TEST(SimFingerprint, LossyFlap) {
  const topo::Layout lay{3, 4, 2.0};
  const auto plan = mclb_plan(topo::build_mesh(lay), lay);
  auto cfg = quick_cfg(23);
  cfg.drain = 30000;
  cfg.extra_edge_delay = util::Matrix<int>(12, 12, 8);
  fault::FaultScenarioSpec sc;
  sc.mode = "targeted";
  sc.k = 4;
  sc.fail_at = 1500;
  sc.recover_at = 2600;
  sc.lossy = true;
  sc.repair = false;
  const auto fp = fault::prepare_fault_plan(
      plan, sc, cfg.warmup + cfg.measure + cfg.drain);
  cfg.faults = &fp;
  const auto s =
      expect_fingerprint(plan, coherence(0.05), cfg, 0x014ae9b15762aacfull);
  EXPECT_GT(s.packets_dropped, 0);
}

TEST(SimFingerprint, WideHubRouter) {
  // Ring of 11 routers plus a hub linked both ways to all of them: the hub
  // has in-degree 11, so (11 + 1) inputs x 6 VCs = 72 slots > 64 and its
  // switch runs the unmasked scan while the ring routers use masks.
  const topo::Layout lay{3, 4, 2.0};
  topo::DiGraph g(12);
  for (int i = 0; i < 11; ++i) {
    g.add_duplex(i, (i + 1) % 11);
    g.add_duplex(i, 11);
  }
  ASSERT_EQ(g.in_degree(11), 11);
  expect_fingerprint(mclb_plan(g, lay), coherence(0.08), quick_cfg(31),
                     0xc2991aafb0355a83ull);
}

}  // namespace
}  // namespace netsmith::sim
