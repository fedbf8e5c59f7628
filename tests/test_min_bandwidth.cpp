// C7: minimum sparsest-cut bandwidth as a hard synthesis constraint
// combined with the latency objective (paper Table I, "combined measures").

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/anneal.hpp"
#include "core/netsmith.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"

namespace netsmith::core {
namespace {

// Move-budgeted synthesis: independent of the wall clock and machine load.
SynthesisResult synth(const SynthesisConfig& cfg, long moves_per_restart) {
  AnnealOptions opts;
  opts.max_moves = moves_per_restart;
  return anneal_synthesize(cfg, opts);
}

// On this 2x4 instance the latency optimum's sparsest cut (1/4) sits below
// what SCOp reaches (4/15), so the constraint has room to bite.
TEST(MinBandwidth, ConstraintHonoredOnTinyInstance) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout{2, 4, 2.0};
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 3;
  cfg.objective = Objective::kLatOp;
  cfg.restarts = 2;
  cfg.seed = 2;
  const long kMoves = 20000;

  // Unconstrained latency optimum and its bandwidth.
  const auto free_run = synth(cfg, kMoves);
  const double free_bw = topo::sparsest_cut_exact(free_run.graph).bandwidth;

  // Achievable bandwidth ceiling from a SCOp run.
  cfg.objective = Objective::kSCOp;
  const auto scop = synth(cfg, 3000);
  const double max_bw = scop.objective_value;
  ASSERT_GT(max_bw, free_bw + 1e-9)
      << "latency optimum already bandwidth-optimal: the instance no longer "
         "exercises the constraint";

  // Demand more bandwidth than the latency optimum provides, but an amount
  // SCOp proved achievable.
  cfg.objective = Objective::kLatOp;
  cfg.min_cut_bandwidth = 0.5 * (free_bw + max_bw);
  const auto constrained = synth(cfg, kMoves);
  const double got = topo::sparsest_cut_exact(constrained.graph).bandwidth;
  EXPECT_GE(got + 1e-9, cfg.min_cut_bandwidth);
  // The latency can only get worse (or stay equal) under the extra
  // constraint.
  EXPECT_GE(constrained.objective_value + 1e-9, free_run.objective_value);
}

TEST(MinBandwidth, InfeasibleConstraintNamesTheMoveBudget) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout{2, 4, 2.0};
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 3;
  cfg.objective = Objective::kLatOp;
  cfg.restarts = 1;
  // A single router has at most radix = 3 links to the other 7, so no
  // topology reaches a sparsest-cut bandwidth of 1.
  cfg.min_cut_bandwidth = 1.0;
  EXPECT_THROW(
      {
        try {
          synth(cfg, 200);
        } catch (const std::runtime_error& e) {
          const std::string msg = e.what();
          EXPECT_NE(msg.find("move budget (200 moves per restart)"),
                    std::string::npos)
              << msg;
          EXPECT_EQ(msg.find("time budget"), std::string::npos) << msg;
          throw;
        }
      },
      std::runtime_error);
}

TEST(MinBandwidth, TrivialConstraintChangesNothingStructural) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout{2, 3, 2.0};
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.radix = 3;
  cfg.objective = Objective::kLatOp;
  cfg.restarts = 2;
  cfg.seed = 18;
  cfg.min_cut_bandwidth = 0.01;  // any connected topology clears this
  const auto r = synth(cfg, 20000);
  EXPECT_TRUE(topo::strongly_connected(r.graph));
  EXPECT_GE(topo::sparsest_cut_exact(r.graph).bandwidth, 0.01);
}

TEST(MinBandwidth, WorksAtPaperScale) {
  SynthesisConfig cfg;
  cfg.layout = topo::Layout::noi_4x5();
  cfg.link_class = topo::LinkClass::kMedium;
  cfg.objective = Objective::kLatOp;
  cfg.restarts = 2;
  cfg.seed = 19;
  cfg.min_cut_bandwidth = 0.085;  // above the FT's 1/12, below the class UB
  const auto r = synth(cfg, 100000);
  EXPECT_GE(topo::sparsest_cut_exact(r.graph).bandwidth + 1e-9, 0.085);
  // Should still deliver decent latency (better than folded torus).
  EXPECT_LT(r.objective_value, 2.32);
}

}  // namespace
}  // namespace netsmith::core
