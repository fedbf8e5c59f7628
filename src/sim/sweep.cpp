#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>

#include "obs/trace.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace netsmith::sim {

namespace {

// Latency blowing past this multiple of zero-load marks saturation.
constexpr double kSaturationLatencyFactor = 6.0;

// Truncation of an adaptive sweep's jobs. Jobs fall into waves of `wave`
// consecutive indices, and a job is truncated iff a rate point of an earlier
// wave saturated. A job's answer is known once every earlier-wave job has
// finished, or as soon as any finished earlier-wave point has saturated: the
// OR only ever turns true, so the early answer is the final one. Jobs are
// taken in index order and wait only on lower-index jobs, which running
// threads already hold, so the gates cannot deadlock.
class TruncationGates {
 public:
  TruncationGates(std::size_t jobs, std::size_t wave)
      : wave_(wave), left_((jobs + wave - 1) / wave, wave) {
    left_.back() = jobs - (left_.size() - 1) * wave;
  }

  // Blocks until the truncation of `job` is decided and returns it.
  bool truncated(std::size_t job) {
    const std::size_t w = job / wave_;
    std::unique_lock<std::mutex> lock(mu_);
    const auto decided = [&] { return sat_wave_ < w || done_waves_ >= w; };
    if (!decided()) {
      const auto start = std::chrono::steady_clock::now();
      ready_.wait(lock, decided);
      wait_ms_ += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    }
    return sat_wave_ < w;
  }

  void finish(std::size_t job, bool saturated) {
    const std::size_t w = job / wave_;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (saturated) sat_wave_ = std::min(sat_wave_, w);
      --left_[w];
      while (done_waves_ < left_.size() && left_[done_waves_] == 0)
        ++done_waves_;
    }
    ready_.notify_all();
  }

  // Summed thread time spent blocked in truncated().
  double wait_ms() const { return wait_ms_; }

 private:
  std::size_t wave_;
  std::vector<std::size_t> left_;  // unfinished jobs per wave
  std::size_t done_waves_ = 0;     // leading waves with every job finished
  std::size_t sat_wave_ = std::numeric_limits<std::size_t>::max();
  double wait_ms_ = 0.0;
  std::mutex mu_;
  std::condition_variable ready_;
};

}  // namespace

std::vector<double> default_rates(double max_rate, int points) {
  std::vector<double> rates;
  rates.reserve(points);
  // Denser near the knee: quadratic spacing.
  for (int i = 1; i <= points; ++i) {
    const double f = static_cast<double>(i) / points;
    rates.push_back(max_rate * f * f * 0.3 + max_rate * f * 0.7);
  }
  return rates;
}

SweepResult injection_sweep(const core::NetworkPlan& plan,
                            const TrafficConfig& traffic, const SimConfig& cfg,
                            double clock_ghz,
                            const std::vector<double>& rates,
                            const SweepOptions& opt) {
  SweepResult result;
  if (rates.empty()) return result;
  result.points.resize(rates.size());

  obs::Span span("sim/sweep");
  span.arg("points", static_cast<int>(rates.size()));
  span.arg("max_rate", rates.back());

  // Job 0 is the zero-load reference run; job i >= 1 is rate point i - 1.
  // Truncation is defined by ascending-rate waves of omp_get_max_threads()
  // jobs (see TruncationGates); execution is not: one team takes jobs in
  // index order and each job waits only until its own truncation is known.
  SimStats zero_stats;
#if defined(_OPENMP)
  const std::size_t wave = static_cast<std::size_t>(
      std::max(1, omp_get_max_threads()));
#else
  const std::size_t wave = 1;
#endif
  result.omp_threads = static_cast<int>(wave);
  const std::size_t total = rates.size() + 1;
  TruncationGates gates(total, wave);
  std::atomic<std::size_t> next_job{0};
  std::mutex error_mu;
  std::exception_ptr error;
#pragma omp parallel
  for (std::size_t job; (job = next_job.fetch_add(1)) < total;) {
    bool saturated = false;
    try {
      if (job == 0) {
        TrafficConfig t0 = traffic;
        t0.injection_rate = std::max(1e-4, rates.front() * 0.05);
        zero_stats = simulate(plan, t0, cfg);
      } else {
        const std::size_t i = job - 1;
        TrafficConfig t = traffic;
        t.injection_rate = rates[i];
        SimConfig c = cfg;
        c.seed = cfg.seed + 1000 + i;  // independent streams per point
        if (opt.adaptive && gates.truncated(job)) {
          // Floors keep short-window estimates usable, but never let the
          // "truncated" window exceed what the caller configured.
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
        saturated = pt.stats.saturated;
        result.points[i] = pt;
      }
    } catch (...) {
      // Finish the job anyway (as unsaturated), so no gate waits forever;
      // the first error is rethrown once the team is done.
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
    if (opt.adaptive) gates.finish(job, saturated);
  }
  if (error) std::rethrow_exception(error);
  span.arg("gate_wait_ms", gates.wait_ms());
  result.zero_load_latency_cycles = zero_stats.avg_latency_cycles;
  result.zero_load_latency_ns = zero_stats.avg_latency_cycles / clock_ghz;

  // Saturation throughput: the highest accepted rate before the latency
  // threshold (or explicit saturation flag) trips.
  const double threshold =
      result.zero_load_latency_cycles * kSaturationLatencyFactor;
  for (const auto& pt : result.points) {
    const bool sat = pt.stats.saturated ||
                     (pt.stats.avg_latency_cycles > threshold &&
                      result.zero_load_latency_cycles > 0.0);
    if (!sat)
      result.saturation_pkt_node_cycle =
          std::max(result.saturation_pkt_node_cycle, pt.stats.accepted);
    else
      // Accepted throughput at/after saturation is still a valid measure of
      // delivered bandwidth (input-queued networks can deliver slightly more
      // under overload).
      result.saturation_pkt_node_cycle =
          std::max(result.saturation_pkt_node_cycle,
                   std::min(pt.stats.accepted, pt.offered_pkt_node_cycle));
  }
  result.saturation_pkt_node_ns = result.saturation_pkt_node_cycle * clock_ghz;
  return result;
}

SweepResult sweep_to_saturation(const core::NetworkPlan& plan,
                                const TrafficConfig& traffic,
                                const SimConfig& cfg, double clock_ghz,
                                int points, double max_rate_override,
                                const SweepOptions& opt) {
  double max_rate = max_rate_override;
  if (max_rate <= 0.0) {
    // The routed channel-load bound caps useful offered rates.
    max_rate = 0.5;
    if (plan.max_channel_load > 0.0)
      max_rate = std::min(1.0, 1.6 / plan.max_channel_load);
    // Account for multi-flit packets: rates are packets/node/cycle but links
    // carry flits; the average packet is (1 + data_fraction*(data-1)) flits.
    const double avg_flits =
        traffic.kind == TrafficKind::kMemory
            ? 0.5 * (traffic.ctrl_flits + traffic.data_flits)
            : traffic.ctrl_flits + traffic.data_fraction *
                                       (traffic.data_flits - traffic.ctrl_flits);
    max_rate /= std::max(1.0, avg_flits);
  }
  return injection_sweep(plan, traffic, cfg, clock_ghz,
                         default_rates(max_rate, points), opt);
}

}  // namespace netsmith::sim
