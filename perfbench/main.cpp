// perfbench: end-to-end spec -> Study -> Report benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 measures the end-to-end metrics with program tracing and
// metrics off. A run makes round(seconds / Workload::rep_seconds)
// repetitions; repetition i runs the spec of sub-seed i of --seed
// (sub-seed 0 is --seed itself). A repetition is one
// cold run into a fresh empty serve::ArtifactStore followed by warm runs of
// fresh Studies answered from that same store, with batches of set-ups
// (parse_spec + Study constructor) timed before each of them. Timings are
// medians over all samples; design metrics are means over the repetitions.
// --trace 1 makes one checked repetition of --seed's spec and then the
// traced per-layer replay (replay.hpp), and reports the per-layer metrics.
//
// Both modes check the outputs: the report's embedded spec round-trips, the
// warm report is byte-identical to the cold one, no Study job fails, every
// warm lookup hits, and every plan and every repaired fault epoch has an
// acyclic VC layering. The last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count Study jobs plus checks. Exit status 1 when
// any check failed, 2 on bad arguments.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/report.hpp"
#include "api/study.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "util/json.hpp"
#include "vc/layers.hpp"
#include "workloads.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

using namespace netsmith;
using perfbench::Metric;
using perfbench::Outcome;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Metrics of the modelled design (simulated time), read off a report.
struct Design {
  double sat_pkt_node_ns = 0.0;  // mean over resilience rows, else sweeps
  double zero_load_ns = 0.0;     // mean over sweep rows
  double avg_hops = 0.0;         // mean over topologies (analytic)
  double min_delivered_fraction = 1.0;  // resilience points; 1 without faults

  void add(const Design& o, double weight) {
    sat_pkt_node_ns += weight * o.sat_pkt_node_ns;
    zero_load_ns += weight * o.zero_load_ns;
    avg_hops += weight * o.avg_hops;
    min_delivered_fraction += weight * o.min_delivered_fraction;
  }
};

Design design_of(const api::Report& r) {
  Design d;
  const auto mean = [](const auto& rows, auto field) {
    double sum = 0.0;
    for (const auto& row : rows) sum += field(row);
    return rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
  };
  d.sat_pkt_node_ns =
      r.resilience.empty()
          ? mean(r.sweeps, [](const auto& s) { return s.saturation_pkt_node_ns; })
          : mean(r.resilience,
                 [](const auto& s) { return s.saturation_pkt_node_ns; });
  d.zero_load_ns =
      mean(r.sweeps, [](const auto& s) { return s.zero_load_latency_ns; });
  d.avg_hops = mean(r.topologies, [](const auto& t) { return t.avg_hops; });
  for (const auto& row : r.resilience)
    for (const auto& pt : row.points)
      d.min_delivered_fraction =
          std::min(d.min_delivered_fraction, pt.delivered_fraction);
  return d;
}

// Sub-seed i of a run's seed: distinct, reproducible spec seeds for the
// run's repetitions.
std::uint64_t sub_seed(std::uint64_t seed, int i) {
  return seed + static_cast<std::uint64_t>(i) * 0x9E3779B97F4A7C15ull;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Timings collected across a run.
struct Samples {
  std::vector<double> setup, cold, warm;
  double cold_peak_rss_mb = 0.0;  // process peak after the first cold run
};

// Set-up: parse_spec + the Study constructor (grid expansion, catalog and
// baseline topology construction). One small batch is timed before every
// cold and warm run, so the set-up samples spread over the whole run.
void time_setups(const std::string& spec_text, std::vector<double>& out) {
  const auto start = Clock::now();
  for (int n = 0; n < 25 && (n < 5 || since(start) < 0.05); ++n) {
    const auto t0 = Clock::now();
    api::Study study(api::parse_spec(spec_text));
    out.push_back(since(t0));
  }
}

// Warm runs after each cold run repeat for at least this long.
constexpr double kWarmSeconds = 1.0;

// One cold run into a fresh store, then warm runs of fresh Studies answered
// from that same store, all on one long-lived pool as in the serve daemon.
// Returns the cold report.
api::Report run_rep(const std::string& spec_text, serve::SharedPool& pool,
                    const std::string& store_dir, Samples& samples,
                    Outcome& out) {
  std::filesystem::remove_all(store_dir);
  serve::StoreOptions so;
  so.dir = store_dir;
  serve::ArtifactStore store(so);
  api::StudyOptions opts;
  opts.executor = &pool;
  opts.cache = &store;

  time_setups(spec_text, samples.setup);
  const auto t0 = Clock::now();
  api::Study cold(api::parse_spec(spec_text), opts);
  api::Report report = cold.run();
  const std::string cold_json = api::report_to_json(report);
  samples.cold.push_back(since(t0));
  if (samples.cold.size() == 1) samples.cold_peak_rss_mb = peak_rss_mb();
  out.attempted += cold.stats().jobs_total;
  for (const auto& f : cold.failed_jobs())
    out.failures.push_back("job " + f.job + ": " + f.reason);
  out.expect(api::spec_from_report(cold_json) == cold.spec(),
             "report spec does not round-trip");

  double warm_total = 0.0;
  while (warm_total < kWarmSeconds) {
    time_setups(spec_text, samples.setup);
    const auto t1 = Clock::now();
    api::Study warm(api::parse_spec(spec_text), opts);
    const std::string warm_json = api::report_to_json(warm.run());
    samples.warm.push_back(since(t1));
    warm_total += samples.warm.back();
    out.attempted += warm.stats().jobs_total;
    for (const auto& f : warm.failed_jobs())
      out.failures.push_back("warm job " + f.job + ": " + f.reason);
    out.expect(warm_json == cold_json, "warm report differs from cold report");
    const api::ArtifactCacheStats ws = warm.artifact_cache_stats();
    out.expect(ws.misses() == 0 && ws.hits() > 0,
               "warm run missed the artifact store");
  }

  const auto& spec = cold.spec();
  const long horizon =
      spec.sweep.warmup + spec.sweep.measure + spec.sweep.drain;
  for (const auto& p : cold.plan_artifacts()) {
    out.expect(vc::verify_acyclic(vc::layer_assignment(p.plan.vc_map),
                                  p.plan.table, p.plan.graph),
               "plan " + p.key + ": VC layering has a cycle");
    for (const auto& sc : spec.faults)
      out.expect(perfbench::repaired_epochs_acyclic(
                     fault::prepare_fault_plan(p.plan, sc, horizon), p.plan),
                 "plan " + p.key + " + " + sc.label() +
                     ": repaired epoch layering has a cycle");
  }
  std::filesystem::remove_all(store_dir);
  return report;
}

// End-to-end metrics (--trace 0).
std::vector<Metric> measure(const perfbench::Workload& w, std::uint64_t seed,
                            double seconds, const std::string& work_dir,
                            Outcome& out) {
  const int reps =
      std::max(1, static_cast<int>(std::lround(seconds / w.rep_seconds)));
  serve::SharedPool pool(w.pool_threads);
  Samples samples;
  Design design{0.0, 0.0, 0.0, 0.0};  // mean over the repetitions
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t s = sub_seed(seed, i);
    const std::string spec_text = api::serialize(w.make_spec(s));
    const std::size_t warm_before = samples.warm.size();
    const api::Report report =
        run_rep(spec_text, pool, work_dir + "/store", samples, out);
    design.add(design_of(report), 1.0 / reps);
    std::printf("perfbench: rep %d sub-seed %llu cold %.3f s, %zu warm runs\n",
                i, static_cast<unsigned long long>(s), samples.cold.back(),
                samples.warm.size() - warm_before);
  }
  std::printf("perfbench: %zu set-ups, %d cold runs, %zu warm runs in %.1f s\n",
              samples.setup.size(), reps, samples.warm.size(), since(start));

  return {
      {"study_s", "s", median(samples.cold)},
      {"warm_s", "s", median(samples.warm)},
      {"setup_s", "s", median(samples.setup)},
      {"peak_rss_mb", "MB", samples.cold_peak_rss_mb},
      {"sat_pkt_node_ns", "pkt/node/ns", design.sat_pkt_node_ns},
      {"zero_load_ns", "ns", design.zero_load_ns},
      {"avg_hops", "hops", design.avg_hops},
      {"min_delivered_fraction", "fraction", design.min_delivered_fraction},
  };
}

// Per-layer metrics (--trace 1).
std::vector<Metric> trace(const perfbench::Workload& w, std::uint64_t seed,
                          const std::string& work_dir, Outcome& out) {
  const std::string spec_text = api::serialize(w.make_spec(seed));
  serve::SharedPool pool(w.pool_threads);
  Samples unused;
  const api::Report report =
      run_rep(spec_text, pool, work_dir + "/store", unused, out);
  const std::vector<Metric> metrics = perfbench::replay(
      api::parse_spec(spec_text), report, work_dir + "/replay-store",
      work_dir + "/trace-" + w.name + "-" + std::to_string(seed) + ".json",
      out);
  std::filesystem::remove_all(work_dir + "/replay-store");

  double attributed = 0.0;
  std::string dominant;
  double dominant_s = 0.0;
  for (const auto& m : metrics) {
    if (m.unit != "s" || m.name.rfind("replay.", 0) == 0) continue;
    attributed += m.value;
    if (m.value > dominant_s) {
      dominant_s = m.value;
      dominant = m.name;
    }
  }
  std::printf("perfbench: per-layer replay (share of attributed time)\n");
  for (const auto& m : metrics) {
    if (m.unit == "s" && m.name.rfind("replay.", 0) != 0)
      std::printf("  %-24s %12.4f s  %5.1f%%\n", m.name.c_str(), m.value,
                  attributed > 0.0 ? 100.0 * m.value / attributed : 0.0);
    else
      std::printf("  %-24s %12.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
  std::printf("perfbench: dominant layer %s (%.1f%% of attributed time)\n",
              dominant.c_str(),
              attributed > 0.0 ? 100.0 * dominant_s / attributed : 0.0);
  return metrics;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, work_dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace_mode = -1;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") workload = value;
      else if (flag == "--seed") seed = std::stoull(value);
      else if (flag == "--seconds") seconds = std::stod(value);
      else if (flag == "--trace") trace_mode = std::stoi(value);
      else if (flag == "--work-dir") work_dir = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 != 1 || workload.empty() || work_dir.empty() || seconds <= 0 ||
      (trace_mode != 0 && trace_mode != 1))
    return usage();

  try {
    const perfbench::Workload& w = perfbench::find_workload(workload);
    // The OpenMP runtime reads OMP_NUM_THREADS once, at load time, and
    // threads it did not create (the Study pool's workers) start from that
    // value, not from omp_set_num_threads. Pin the width for every thread by
    // re-executing with the variable set.
    const std::string omp_env = std::to_string(w.omp_threads);
    const char* current = std::getenv("OMP_NUM_THREADS");
    if (current == nullptr || omp_env != current) {
      setenv("OMP_NUM_THREADS", omp_env.c_str(), 1);
      execvp(argv[0], argv);
      throw std::runtime_error("cannot re-execute with OMP_NUM_THREADS set");
    }
#if defined(_OPENMP)
    const int omp = omp_get_max_threads();
#else
    const int omp = 1;
#endif
    obs::set_trace_enabled(false);
    obs::set_metrics_enabled(false);
    std::filesystem::create_directories(work_dir);
    std::printf(
        "perfbench: workload=%s seed=%llu trace=%d pool=%d omp=%d nproc=%u\n",
        w.name.c_str(), static_cast<unsigned long long>(seed), trace_mode,
        w.pool_threads, omp, std::thread::hardware_concurrency());

    Outcome out;
    const std::vector<Metric> metrics =
        trace_mode == 1 ? trace(w, seed, work_dir, out)
                        : measure(w, seed, seconds, work_dir, out);
    for (const auto& f : out.failures)
      std::printf("perfbench: FAILED %s\n", f.c_str());

    util::JsonValue result = util::JsonValue::object();
    result.set("correct", util::JsonValue::boolean(out.failures.empty()));
    result.set("attempted", util::JsonValue::integer(out.attempted));
    result.set("failed", util::JsonValue::integer(
                             static_cast<long long>(out.failures.size())));
    util::JsonValue ms = util::JsonValue::object();
    for (const auto& m : metrics) {
      util::JsonValue v = util::JsonValue::object();
      v.set("value", util::JsonValue::number(m.value));
      v.set("unit", util::JsonValue::string(m.unit));
      ms.set(m.name, std::move(v));
    }
    result.set("metrics", std::move(ms));
    std::printf("%s\n", result.dump_compact().c_str());
    return out.failures.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
