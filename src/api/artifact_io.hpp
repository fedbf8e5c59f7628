#pragma once
// Artifact serialization round-trips for the persistent cache
// (api/artifact_cache.hpp). One payload format per cached artifact kind:
//
//  - topology: the job-produced half of a TopologyArtifact — the synthesized
//    graph plus the synthesis provenance the report embeds (objective value,
//    bound, move count, progress trace) and the analytic metrics block.
//  - plan: a complete core::NetworkPlan (graph, per-flow routing table, VC
//    map, provenance scalars) plus the chiplet system when the plan wraps
//    one.
//  - sweep: the report-facing projection of a sim::SweepResult — zero-load /
//    saturation summaries and, per injection point, exactly the fields a
//    SweepPointRow carries. Raw SimStats conservation counters are NOT kept;
//    a cached sweep reproduces the report bytes, not the full simulator
//    state.
//
// Payloads are self-describing JSON ({"artifact": kind, "schema": N, ...})
// and restore_* validates shape, sizes and schema: ANY anomaly — parse
// error, wrong kind, unknown schema, mismatched array lengths, adjacency
// that contradicts the already-resolved topology — returns false so the
// caller treats the entry as a cache miss and recomputes. restore_* never
// throws.
//
// *_payload calls record an api/artifact_encode trace span and restore_*
// calls an api/artifact_decode span: a traced Study shows the codec's cost.
//
// Round-trip contract (asserted in tests/test_serve.cpp): restoring a
// payload into a fresh artifact slot reproduces every report-visible field
// bit-exactly, including shortest-round-trip doubles, so cached and
// recomputed studies serialize byte-identical reports.

#include <string>

#include "api/study.hpp"
#include "sim/sweep.hpp"

namespace netsmith::api {

// Bumped when a payload layout changes; restore_* treats any other value as
// a miss, so stores populated by older builds are silently re-filled.
inline constexpr int kArtifactSchemaVersion = 1;

// `analytic` records whether the metrics block is populated; the Study keys
// cached topologies on it (";analytic=0|1" key suffix), so the payload flag
// is self-description, not dispatch.
std::string topology_artifact_payload(const TopologyArtifact& t,
                                      bool analytic);
// Restores into an expanded-but-unrun artifact (key/source/config already
// resolved). For synthesized sources the graph is taken from the payload;
// for pre-built sources the payload adjacency must match the resolved graph
// (a mismatch reads as a miss).
bool restore_topology_artifact(const std::string& payload, bool analytic,
                               TopologyArtifact& t);

std::string plan_artifact_payload(const PlanArtifact& p);
bool restore_plan_artifact(const std::string& payload, PlanArtifact& p);

std::string sweep_artifact_payload(const sim::SweepResult& r);
bool restore_sweep_artifact(const std::string& payload, sim::SweepResult& r);

}  // namespace netsmith::api
