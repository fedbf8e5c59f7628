#pragma once
// Traced per-layer replay of one Study.
//
// The replay re-executes a spec by calling each layer's public functions
// directly, in pipeline order — topologies/synthesis, analytic metrics,
// power, path enumeration, MCLB, VC layering + balance, fault-plan
// preparation, sweeps, artifact encode/store/load/decode, report JSON — and
// wraps every call in a span of the benchmark's own. Span totals per layer
// give the per-layer split; replay wall time not covered by any span is
// reported as replay.unattributed_s.
//
// Fidelity: the replay must reproduce the Study's report exactly (every
// topology's adjacency and analytic metrics, every plan's max channel load
// and VC layer count, every sweep's and resilience row's saturation and
// zero-load values); otherwise its split would describe a different
// program. It also checks what the report cannot show: every plan layering
// and every repaired fault epoch passes vc::verify_acyclic, and every sweep
// point satisfies the SimStats flit-conservation identity. Each violation is
// recorded as a failure.

#include <string>
#include <vector>

#include "api/report.hpp"
#include "api/spec.hpp"
#include "fault/model.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Operations attempted and the failures among them.
struct Outcome {
  long attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

// True iff every repaired epoch of `fp` has an acyclic VC layering
// (vc::verify_acyclic on the layer assignment behind the epoch's VC map).
bool repaired_epochs_acyclic(const netsmith::fault::FaultPlan& fp,
                             const netsmith::core::NetworkPlan& plan);

// Replays `spec` (a spec the Study produced `report` for) with artifacts
// going through a fresh serve::ArtifactStore rooted at `store_dir`. Writes
// the replay's spans as Chrome trace_event JSON to `trace_path` when it is
// non-empty. Every check is recorded in `out`. Returns the per-layer
// metrics in a fixed order. Throws std::invalid_argument for specs outside
// what the replay supports (MCLB routing, coherence/memory traffic, no
// chiplet system, no duplicate artifacts).
std::vector<Metric> replay(const netsmith::api::ExperimentSpec& spec,
                           const netsmith::api::Report& report,
                           const std::string& store_dir,
                           const std::string& trace_path, Outcome& out);

}  // namespace perfbench
