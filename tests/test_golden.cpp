// Golden reports: the committed smoke specs, run through the Study at pool
// widths 1 and 4, must reproduce tests/golden/<spec>.report.json byte for
// byte. The goldens pin refactors of the runner, the planners and the
// simulator to "same reports".
//
// The only masked fields are the synthesis-trace "seconds" stamps (wall
// clock). Everything else — including the per-sweep omp_threads provenance —
// is compared verbatim, so the suite runs at OpenMP width 2, the width the
// goldens were recorded at (CMakeLists.txt sets OMP_NUM_THREADS=2 for ctest).

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "api/report.hpp"
#include "api/study.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace netsmith::api {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string mask_wall_clock(const std::string& report_json) {
  static const std::regex seconds(R"("seconds": [-+0-9.eE]+)");
  return std::regex_replace(report_json, seconds, R"("seconds": "masked")");
}

class GoldenReport : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenReport, MatchesAtPoolWidths1And4) {
#if defined(_OPENMP)
  ASSERT_EQ(omp_get_max_threads(), 2)
      << "goldens were recorded at OpenMP width 2; run with OMP_NUM_THREADS=2";
#else
  GTEST_SKIP() << "goldens record OpenMP width 2; this build has no OpenMP";
#endif
  const std::string root = NETSMITH_SOURCE_DIR;
  const std::string name = GetParam();
  const ExperimentSpec spec =
      parse_spec(read_file(root + "/specs/" + name + ".json"));
  const std::string golden =
      read_file(root + "/tests/golden/" + name + ".report.json");
  ASSERT_FALSE(golden.empty());
  for (int width : {1, 4}) {
    StudyOptions opts;
    opts.threads = width;
    const std::string report = report_to_json(Study(spec, opts).run());
    EXPECT_EQ(mask_wall_clock(report), golden) << name << " at width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, GoldenReport,
                         ::testing::Values("smoke", "resilience_smoke"));

}  // namespace
}  // namespace netsmith::api
