#pragma once
// The benchmark's workloads: each one is an api::ExperimentSpec generated
// from the workload name and a seed, plus the thread shape it runs with.
//
// The thread shape (Study pool width x OpenMP width) is part of the
// workload, not of the machine: adaptive sweeps size their waves by the
// OpenMP width and reports stamp it, so the design metrics — and the time —
// change with it. pool * omp stays <= 4 so the shape fits a 4-core host.

#include <cstdint>
#include <string>
#include <vector>

#include "api/spec.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  int pool_threads = 1;  // width of the serve::SharedPool the Studies run on
  int omp_threads = 1;   // OMP_NUM_THREADS for the whole process
  // Seconds of --seconds budgeted per measured repetition (a cold run, its
  // warm runs and its checks): a run of S seconds makes
  // round(S / rep_seconds) repetitions, so every run of one seed measures
  // the same inputs.
  double rep_seconds = 1.0;
  // The workload's spec. `seed` feeds every seed the spec has: the
  // synthesis seed, the plan seed, the simulator seed and the fault-scenario
  // seed.
  netsmith::api::ExperimentSpec (*make_spec)(std::uint64_t seed) = nullptr;
};

const std::vector<Workload>& workloads();

// Throws std::invalid_argument on an unknown name.
const Workload& find_workload(const std::string& name);

}  // namespace perfbench
