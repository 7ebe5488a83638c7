// Tests for the §3.2/§3.3 grid-line + subgrid combine.
#include "monge/multiway.h"

#include <gtest/gtest.h>

#include <string>

#include "monge/distribution.h"
#include "monge/engine.h"
#include "testing.h"
#include "util/rng.h"

namespace monge {
namespace {

using testing::make_colored_split;

TEST(LineSweep, VerticalMatchesBruteForceOpt) {
  Rng rng(3);
  const std::int64_t n = 24;
  const Perm a = Perm::random(n, rng);
  const Perm b = Perm::random(n, rng);
  const ColoredPointSet s = make_colored_split(a, b, 4);
  for (std::int64_t col : {0L, 1L, 7L, 12L, 23L, 24L}) {
    const LineData line = sweep_vertical_line(s, col, 8);
    for (std::int64_t i = 0; i <= n; ++i) {
      ASSERT_EQ(line.opt_at(i), s.opt(i, col)) << "col=" << col << " i=" << i;
    }
  }
}

TEST(LineSweep, HorizontalMatchesBruteForceOpt) {
  Rng rng(5);
  const std::int64_t n = 24;
  const Perm a = Perm::random(n, rng);
  const Perm b = Perm::random(n, rng);
  const ColoredPointSet s = make_colored_split(a, b, 3);
  for (std::int64_t row : {0L, 1L, 9L, 16L, 24L}) {
    const LineData line = sweep_horizontal_line(s, row);
    for (std::int64_t j = 0; j <= n; ++j) {
      ASSERT_EQ(line.opt_at(j), s.opt(row, j)) << "row=" << row << " j=" << j;
    }
  }
}

TEST(LineSweep, AnchorsMatchBruteForceDeltas) {
  Rng rng(7);
  const std::int64_t n = 20;
  const Perm a = Perm::random(n, rng);
  const Perm b = Perm::random(n, rng);
  const ColoredPointSet s = make_colored_split(a, b, 5);
  const std::int64_t g = 4;
  for (std::int64_t col : {0L, 4L, 13L, 20L}) {
    const LineData line = sweep_vertical_line(s, col, g);
    for (std::int64_t gi = 0; gi <= n / g; ++gi) {
      for (std::int32_t k = 0; k + 1 < s.num_colors(); ++k) {
        ASSERT_EQ(line.grid_anchors[static_cast<std::size_t>(gi)]
                                   [static_cast<std::size_t>(k)],
                  s.delta(k, k + 1, gi * g, col))
            << "col=" << col << " gi=" << gi << " k=" << k;
      }
    }
  }
}

TEST(LineSweep, IntervalsAreCanonical) {
  Rng rng(11);
  const std::int64_t n = 32;
  const Perm a = Perm::random(n, rng);
  const Perm b = Perm::random(n, rng);
  const ColoredPointSet s = make_colored_split(a, b, 8);
  const LineData line = sweep_vertical_line(s, 16, 8);
  ASSERT_FALSE(line.start.empty());
  EXPECT_EQ(line.start[0], 0);
  for (std::size_t k = 1; k < line.start.size(); ++k) {
    EXPECT_LT(line.start[k - 1], line.start[k]);
    EXPECT_LT(line.value[k - 1], line.value[k]);  // opt monotone in i
  }
  EXPECT_LE(static_cast<std::int64_t>(line.start.size()), s.num_colors());
}

struct MwCase {
  std::int64_t n;
  std::int32_t h;
  std::int64_t g;
  std::uint64_t seed;
};

class MultiwaySweep : public ::testing::TestWithParam<MwCase> {};

TEST_P(MultiwaySweep, MatchesNaiveOracle) {
  const auto& cse = GetParam();
  Rng rng(cse.seed);
  for (int trial = 0; trial < 4; ++trial) {
    const Perm a = Perm::random(cse.n, rng);
    const Perm b = Perm::random(cse.n, rng);
    const ColoredPointSet s = make_colored_split(a, b, cse.h);
    MultiwayStats stats;
    const Perm got = multiway_combine_seq(s, cse.g, &stats);
    ASSERT_EQ(got, multiply_naive(a, b))
        << "n=" << cse.n << " h=" << cse.h << " g=" << cse.g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiwaySweep,
    ::testing::Values(MwCase{4, 2, 2, 1}, MwCase{8, 2, 4, 2},
                      MwCase{8, 4, 2, 3}, MwCase{12, 3, 4, 4},
                      MwCase{16, 4, 4, 5}, MwCase{16, 8, 4, 6},
                      MwCase{16, 2, 16, 7},  // single box
                      MwCase{24, 6, 5, 8},   // g does not divide n
                      MwCase{32, 8, 8, 9}, MwCase{33, 4, 8, 10},
                      MwCase{48, 12, 6, 11}, MwCase{64, 8, 16, 12},
                      MwCase{64, 16, 8, 13}, MwCase{96, 4, 32, 14}),
    [](const auto& tpi) {
      // Appends, not an operator+ chain: the chain trips a gcc-12
      // -Wrestrict false positive (PR105651) once inlined at -O3.
      std::string name;
      name += "n";
      name += std::to_string(tpi.param.n);
      name += "_h";
      name += std::to_string(tpi.param.h);
      name += "_g";
      name += std::to_string(tpi.param.g);
      return name;
    });

TEST(Multiway, HEqualsOneIsIdentityCombine) {
  // A single subproblem: combine must return the union unchanged.
  Rng rng(21);
  const Perm p = Perm::random(20, rng);
  std::vector<ColoredPoint> pts;
  for (const Point& pt : p.points()) pts.push_back({pt.row, pt.col, 0});
  const ColoredPointSet s(20, 1, std::move(pts));
  EXPECT_EQ(multiway_combine_seq(s, 4), p);
}

TEST(Multiway, AgreesWithSeaweedOnLargerInputs) {
  SeaweedEngine engine;
  Rng rng(31);
  const std::int64_t n = 256;
  for (std::int32_t h : {2, 4, 8}) {
    const Perm a = Perm::random(n, rng);
    const Perm b = Perm::random(n, rng);
    // make_colored_split uses the naive oracle internally — too slow at
    // n=256? (256^3 = 16M — fine.)
    const ColoredPointSet s = make_colored_split(a, b, h);
    ASSERT_EQ(multiway_combine_seq(s, 32), engine.multiply(a, b))
        << "h=" << h;
  }
}

TEST(Multiway, StatsReportCrossedBoxesWithinLemma311Bound) {
  Rng rng(41);
  const std::int64_t n = 128, g = 16;
  const std::int32_t h = 8;
  const Perm a = Perm::random(n, rng);
  const Perm b = Perm::random(n, rng);
  const ColoredPointSet s = make_colored_split(a, b, h);
  MultiwayStats stats;
  multiway_combine_seq(s, g, &stats);
  // Lemma 3.11: at most 2nH/G subgrids are crossed.
  EXPECT_LE(stats.crossed_boxes, 2 * n * h / g + h);
  EXPECT_GT(stats.lines, 0);
}

TEST(Multiway, IdentitySplitEdgeCases) {
  // A ⊡ B where A = identity: PC = B; exercise with extreme splits.
  Rng rng(51);
  const std::int64_t n = 30;
  const Perm b = Perm::random(n, rng);
  const ColoredPointSet s = make_colored_split(Perm::identity(n), b, 5);
  EXPECT_EQ(multiway_combine_seq(s, 7), b);
}

}  // namespace
}  // namespace monge
