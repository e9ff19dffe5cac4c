// Property tests for the space-filling-curve generators (paper Section 3).
//
// The central invariants — full coverage, 4-adjacency of consecutive cells,
// entry at (0,0) and exit at (P-1,0) — are exercised over every SFC-
// compatible side up to 108 and every nesting order, which covers pure
// Hilbert, pure m-Peano, and all mixed Hilbert-Peano schedules. The point
// query (curve_position) is checked cell for cell against the generated
// curves, which serve as its oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <tuple>

#include "sfc/curve.hpp"
#include "sfc/render.hpp"
#include "sfc/verify.hpp"
#include "util/require.hpp"

namespace {

using namespace sfp::sfc;

TEST(Schedule, FactorsSides) {
  EXPECT_TRUE(is_sfc_compatible(2));
  EXPECT_TRUE(is_sfc_compatible(3));
  EXPECT_TRUE(is_sfc_compatible(8));    // paper Ne=8  -> Hilbert level 3
  EXPECT_TRUE(is_sfc_compatible(9));    // paper Ne=9  -> m-Peano level 2
  EXPECT_TRUE(is_sfc_compatible(16));   // paper Ne=16 -> Hilbert level 4
  EXPECT_TRUE(is_sfc_compatible(18));   // paper Ne=18 -> Hilbert-Peano
  EXPECT_FALSE(is_sfc_compatible(1));
  EXPECT_FALSE(is_sfc_compatible(5));
  EXPECT_FALSE(is_sfc_compatible(7));
  EXPECT_FALSE(is_sfc_compatible(10));  // 2 * 5
  EXPECT_FALSE(is_sfc_compatible(0));
  EXPECT_FALSE(is_sfc_compatible(-4));
}

TEST(Schedule, PaperTable1Levels) {
  // Paper Table 1: Ne=8 has Hilbert levels 3, m-Peano 0; Ne=9 has 0/2;
  // Ne=16 has 4/0; Ne=18 has 1/2.
  const auto count = [](const schedule& s) {
    int n2 = 0, n3 = 0;
    for (const refinement r : s) (r == refinement::hilbert2 ? n2 : n3)++;
    return std::pair(n2, n3);
  };
  EXPECT_EQ(count(*schedule_for(8)), std::pair(3, 0));
  EXPECT_EQ(count(*schedule_for(9)), std::pair(0, 2));
  EXPECT_EQ(count(*schedule_for(16)), std::pair(4, 0));
  EXPECT_EQ(count(*schedule_for(18)), std::pair(1, 2));
}

TEST(Schedule, SideRoundTrips) {
  for (const int side : {2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32, 36, 48, 54,
                         64, 72, 81, 96, 108}) {
    const auto s = schedule_for(side);
    ASSERT_TRUE(s.has_value()) << side;
    EXPECT_EQ(side_of(*s), side);
  }
}

TEST(Schedule, NestingOrdersPlaceLevelsAsRequested) {
  const auto s_peano = *schedule_for(12, nesting_order::peano_first);
  ASSERT_EQ(s_peano.size(), 3u);  // 12 = 3 * 2 * 2
  EXPECT_EQ(s_peano[0], refinement::peano3);
  EXPECT_EQ(s_peano[1], refinement::hilbert2);

  const auto s_hil = *schedule_for(12, nesting_order::hilbert_first);
  EXPECT_EQ(s_hil[0], refinement::hilbert2);
  EXPECT_EQ(s_hil[2], refinement::peano3);

  const auto s_mix = *schedule_for(36, nesting_order::interleaved);
  ASSERT_EQ(s_mix.size(), 4u);  // 36 = 3*2*3*2 interleaved
  EXPECT_EQ(s_mix[0], refinement::peano3);
  EXPECT_EQ(s_mix[1], refinement::hilbert2);
  EXPECT_EQ(s_mix[2], refinement::peano3);
  EXPECT_EQ(s_mix[3], refinement::hilbert2);
}

TEST(Curve, Level1HilbertIsTheClassicU) {
  const auto c = hilbert_curve(1);
  ASSERT_EQ(c.size(), 4u);
  // Enter (0,0), sweep the U, exit (1,0).
  EXPECT_EQ(c[0], (cell{0, 0}));
  EXPECT_EQ(c[1], (cell{0, 1}));
  EXPECT_EQ(c[2], (cell{1, 1}));
  EXPECT_EQ(c[3], (cell{1, 0}));
}

TEST(Curve, Level1PeanoMeanders) {
  const auto c = peano_curve(1);
  ASSERT_EQ(c.size(), 9u);
  EXPECT_EQ(c.front(), (cell{0, 0}));
  EXPECT_EQ(c.back(), (cell{2, 0}));
  EXPECT_TRUE(verify_curve(c, 3).ok);
}

TEST(Curve, Level2HilbertVerifies) {
  const auto c = hilbert_curve(2);
  const auto r = verify_curve(c, 4);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(Curve, Level2PeanoVerifies) {
  const auto c = peano_curve(2);
  const auto r = verify_curve(c, 9);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(Curve, PaperFigure5Size36) {
  // Paper Figure 5: a level-2 Hilbert-Peano curve connecting 36 sub-domains
  // (6x6 grid: one m-Peano level then one Hilbert level).
  const auto c = hilbert_peano_curve(6);
  ASSERT_EQ(c.size(), 36u);
  const auto r = verify_curve(c, 6);
  EXPECT_TRUE(r.ok) << r.error;
}

// Exhaustive sweep: every SFC-compatible side up to 108, every nesting order.
class CurveProperty
    : public ::testing::TestWithParam<std::tuple<int, nesting_order>> {};

TEST_P(CurveProperty, CoverageAdjacencyEndpoints) {
  const auto [side, order] = GetParam();
  const auto s = schedule_for(side, order);
  ASSERT_TRUE(s.has_value());
  const auto curve = generate(*s);
  const auto r = verify_curve(curve, side);
  EXPECT_TRUE(r.ok) << "side " << side << ": " << r.error;
}

TEST_P(CurveProperty, IndexIsInverse) {
  const auto [side, order] = GetParam();
  const auto curve = generate(*schedule_for(side, order));
  const auto index = curve_index(curve, side);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const cell c = curve[i];
    EXPECT_EQ(index[static_cast<std::size_t>(c.y) *
                        static_cast<std::size_t>(side) +
                    static_cast<std::size_t>(c.x)],
              static_cast<std::int64_t>(i));
  }
}

TEST_P(CurveProperty, PointQueryMatchesGenerator) {
  // The materialized curve is the oracle for the table-driven point query.
  const auto [side, order] = GetParam();
  const schedule s = *schedule_for(side, order);
  const auto curve = generate(s);
  for (std::size_t i = 0; i < curve.size(); ++i)
    ASSERT_EQ(curve_position(s, curve[i]), static_cast<std::int64_t>(i))
        << "side " << side << " cell (" << curve[i].x << ',' << curve[i].y
        << ')';
}

std::vector<int> sfc_sides_up_to(int limit) {
  std::vector<int> sides;
  for (int p = 2; p <= limit; ++p)
    if (is_sfc_compatible(p)) sides.push_back(p);
  return sides;
}

std::string curve_param_name(
    const ::testing::TestParamInfo<std::tuple<int, nesting_order>>& info) {
  const char* names[] = {"peano_first", "hilbert_first", "interleaved"};
  return "side" + std::to_string(std::get<0>(info.param)) + "_" +
         names[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllSides, CurveProperty,
    ::testing::Combine(::testing::ValuesIn(sfc_sides_up_to(108)),
                       ::testing::Values(nesting_order::peano_first,
                                         nesting_order::hilbert_first,
                                         nesting_order::interleaved)),
    curve_param_name);

// Point query on raw factor lists: pure 2, 3 and 5, the synthesized 7,
// self-nestings of every synthesized factor, and mixed lists in both orders.
TEST(PointQuery, MatchesGeneratorOnEveryFactorList) {
  const std::vector<std::vector<int>> lists = {
      {2},       {2, 2, 2, 2}, {3},       {3, 3, 3}, {5},       {5, 5},
      {7},       {7, 7},       {4},       {6},       {8},       {9},
      {10},      {11},         {4, 4},    {6, 6},    {5, 2},    {2, 5},
      {5, 3},    {5, 2, 2},    {5, 3, 2}, {3, 5, 2}, {7, 2},    {2, 7},
      {7, 3, 2}, {2, 3, 2, 3}, {3, 2, 5}, {11, 2},
  };
  for (const auto& factors : lists) {
    const auto curve = generate_factors(factors);
    for (std::size_t i = 0; i < curve.size(); ++i)
      ASSERT_EQ(curve_position_factors(factors, curve[i]),
                static_cast<std::int64_t>(i))
          << "factor list of size " << factors.size() << " starting with "
          << factors.front() << ", cell (" << curve[i].x << ',' << curve[i].y
          << ')';
  }
}

TEST(PointQuery, MatchesGeneratorOnExtendedSchedules) {
  for (const int side : {5, 10, 15, 20, 25, 30, 45, 60, 90}) {
    const schedule s = *extended_schedule_for(side);
    const auto curve = generate(s);
    for (std::size_t i = 0; i < curve.size(); ++i)
      ASSERT_EQ(curve_position(s, curve[i]), static_cast<std::int64_t>(i))
          << "side " << side;
  }
}

TEST(PointQuery, NestsAcrossLevelsUpToTheLargestSide) {
  // Far beyond what a materialized oracle can cover: every curve enters at
  // (0,0) and exits at (side-1, 0), and dropping the innermost level maps a
  // cell's position to the position of its parent cell on the coarser curve.
  const std::vector<std::vector<int>> lists = {
      std::vector<int>(20, 2),  // side 2^20, the cap
      std::vector<int>(12, 3),
      std::vector<int>(8, 5),
      std::vector<int>(7, 7),
      {5, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
  };
  std::uint64_t state = 12345;
  const auto next = [&state](int bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>((state >> 33) % static_cast<std::uint64_t>(bound));
  };
  for (const auto& factors : lists) {
    std::int64_t side = 1;
    for (const int f : factors) side *= f;
    const auto s = static_cast<int>(side);
    EXPECT_EQ(curve_position_factors(factors, {0, 0}), 0);
    EXPECT_EQ(curve_position_factors(factors, {s - 1, 0}), side * side - 1);
    const int inner = factors.back();
    const std::vector<int> coarse(factors.begin(), factors.end() - 1);
    for (int trial = 0; trial < 500; ++trial) {
      const cell c = trial == 0 ? cell{s - 1, s - 1} : cell{next(s), next(s)};
      EXPECT_EQ(curve_position_factors(factors, c) / (inner * inner),
                curve_position_factors(coarse, {c.x / inner, c.y / inner}))
          << "side " << side << " cell (" << c.x << ',' << c.y << ')';
    }
  }
}

TEST(PointQuery, EmptyScheduleIsTheSingleCell) {
  EXPECT_EQ(curve_position(schedule{}, cell{0, 0}), 0);
  EXPECT_EQ(curve_position_factors({}, cell{0, 0}), 0);
}

TEST(PointQuery, RejectsBadInputs) {
  const schedule s = *schedule_for(6);
  EXPECT_THROW(curve_position(s, cell{6, 0}), sfp::contract_error);
  EXPECT_THROW(curve_position(s, cell{0, -1}), sfp::contract_error);
  EXPECT_THROW(curve_position_factors({1, 2}, cell{0, 0}), sfp::contract_error);
  EXPECT_THROW(curve_position_factors({17}, cell{0, 0}), sfp::contract_error);
  EXPECT_THROW(curve_position_factors(std::vector<int>(21, 2), cell{0, 0}),
               sfp::contract_error);
}

TEST(Curve, LocalityBeatsRowMajor) {
  // A qualitative SFC property the partitioner relies on: contiguous curve
  // segments are spatially compact. Compare the mean squared distance of
  // cells 16 apart along the curve vs along a row-major order.
  const int side = 32;
  const auto curve = hilbert_curve(5);
  const auto dist2_at_lag = [&](auto&& pos, int lag) {
    double acc = 0;
    const int n = side * side - lag;
    for (int i = 0; i < n; ++i) {
      const cell a = pos(i), b = pos(i + lag);
      const double dx = a.x - b.x, dy = a.y - b.y;
      acc += dx * dx + dy * dy;
    }
    return acc / n;
  };
  const auto on_curve = [&](int i) { return curve[static_cast<std::size_t>(i)]; };
  const auto row_major = [&](int i) { return cell{i % side, i / side}; };
  EXPECT_LT(dist2_at_lag(on_curve, 16), 0.25 * dist2_at_lag(row_major, 16));
}

TEST(CurveIndex, RejectsCorruptCurves) {
  auto c = hilbert_curve(1);
  c[2] = c[1];  // duplicate visit
  EXPECT_THROW(curve_index(c, 2), sfp::contract_error);
  EXPECT_THROW(curve_index(hilbert_curve(1), 3), sfp::contract_error);
}

TEST(Verify, DetectsDiagonalStep) {
  std::vector<cell> c{{0, 0}, {1, 1}, {1, 0}, {0, 1}};
  const auto r = verify_coverage_and_adjacency(c, 2);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not 4-adjacent"), std::string::npos);
}

TEST(Verify, DetectsWrongEndpoints) {
  // A valid snake that exits at (1,1) instead of (1,0).
  std::vector<cell> c{{0, 0}, {1, 0}, {1, 1}, {0, 1}};
  EXPECT_TRUE(verify_coverage_and_adjacency(c, 2).ok);
  EXPECT_FALSE(verify_curve(c, 2).ok);
}

TEST(Names, ScheduleNames) {
  EXPECT_EQ(schedule_name(*schedule_for(8)), "hilbert");
  EXPECT_EQ(schedule_name(*schedule_for(27)), "m-peano");
  EXPECT_EQ(schedule_name(*schedule_for(18)), "hilbert-peano");
}

TEST(Render, CurveArtHasExpectedSize) {
  const auto art = render_curve(hilbert_curve(2), 4);
  // 4 rows, each with 4 glyphs + 3 fillers + newline.
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
}

TEST(Render, OrderGridShowsAllIndices) {
  const auto art = render_order(peano_curve(1), 3);
  for (const char* token : {"0", "4", "8"})
    EXPECT_NE(art.find(token), std::string::npos) << token;
}

}  // namespace
