#pragma once
// Injection-rate sweeps and saturation-throughput extraction (paper Figs. 6,
// 10, 11). Sweep points are independent simulations and run in parallel
// with OpenMP. Cross-class comparisons use absolute units: latency in ns and
// throughput in packets/node/ns at the class clock (paper SIV: small/medium/
// large NoIs run at 3.6/3.0/2.7 GHz).
//
// Sweeps are adaptive by default. Jobs (the zero-load run, then the points
// in ascending rate) form waves of omp_get_max_threads() jobs, and a point
// runs with a truncated measure/drain window iff a point of an earlier wave
// saturated. Saturated points are the expensive ones — they never take the
// early drain exit — and past the knee only the saturated flag and a rough
// accepted throughput matter. The waves only define truncation: one thread
// team takes jobs in index order, and a job waits only until its own
// truncation is decided (every earlier-wave job finished, or one of them
// saturated), so results are deterministic for a fixed thread count.
// Fixed-window sweeps (adaptive = false) never wait.

#include <vector>

#include "sim/network.hpp"

namespace netsmith::sim {

struct SweepPoint {
  double offered_pkt_node_cycle = 0.0;
  SimStats stats;
  double latency_ns = 0.0;
  double accepted_pkt_node_ns = 0.0;
};

struct SweepResult {
  std::vector<SweepPoint> points;
  double zero_load_latency_cycles = 0.0;
  double zero_load_latency_ns = 0.0;
  // Highest accepted throughput with latency below the saturation threshold.
  double saturation_pkt_node_cycle = 0.0;
  double saturation_pkt_node_ns = 0.0;
  // omp_get_max_threads() when the sweep ran: the wave size that defines
  // adaptive truncation. Results are only reproducible for the same value,
  // whatever the team actually ran; reports surface it as provenance.
  int omp_threads = 1;
};

// Geometric-ish grid of offered rates up to max_rate.
std::vector<double> default_rates(double max_rate, int points = 14);

struct SweepOptions {
  bool adaptive = true;  // truncate windows past the first saturated wave
  int truncate_factor = 4;
  long min_measure = 1000;  // truncated windows never shrink below these
  long min_drain = 2000;
};

SweepResult injection_sweep(const core::NetworkPlan& plan,
                            const TrafficConfig& traffic, const SimConfig& cfg,
                            double clock_ghz, const std::vector<double>& rates,
                            const SweepOptions& opt = {});

// Convenience: sweeps up to slightly above the analytic routed bound (which
// assumes uniform traffic). For other patterns pass max_rate_override, e.g.
// from routing::analyze_pattern on the pattern's weight matrix.
SweepResult sweep_to_saturation(const core::NetworkPlan& plan,
                                const TrafficConfig& traffic,
                                const SimConfig& cfg, double clock_ghz,
                                int points = 14,
                                double max_rate_override = 0.0,
                                const SweepOptions& opt = {});

}  // namespace netsmith::sim
