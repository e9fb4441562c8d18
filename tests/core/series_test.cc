#include "core/series.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.h"

namespace nextmaint {
namespace core {
namespace {

Date Day(int offset) {
  return Date::FromYmd(2015, 1, 1).ValueOrDie().AddDays(offset);
}

// Simple fixture: 100 s/day allowance, T_v = 300 s -> maintenance every
// third day exactly.
data::DailySeries ConstantUsage(size_t days, double per_day) {
  return data::DailySeries(Day(0), std::vector<double>(days, per_day));
}

TEST(DeriveSeriesTest, ConstantUsageCycles) {
  const VehicleSeries s =
      DeriveSeries(ConstantUsage(9, 100.0), 300.0).ValueOrDie();
  ASSERT_EQ(s.completed_cycles(), 3u);
  EXPECT_EQ(s.cycles[0].start, 0u);
  EXPECT_EQ(s.cycles[0].end, 2u);
  EXPECT_EQ(s.cycles[1].start, 3u);
  EXPECT_EQ(s.cycles[1].end, 5u);
  EXPECT_EQ(s.cycles[2].length_days(), 3u);
}

VehicleSeries DeriveSeriesConstant() {
  return DeriveSeries(ConstantUsage(9, 100.0), 300.0).ValueOrDie();
}

TEST(DeriveSeriesTest, DSeriesIsSawtooth) {
  const VehicleSeries s = DeriveSeriesConstant();
  const double expected[] = {2, 1, 0, 2, 1, 0, 2, 1, 0};
  for (size_t t = 0; t < 9; ++t) {
    EXPECT_DOUBLE_EQ(s.d[t], expected[t]) << "t=" << t;
  }
}

TEST(DeriveSeriesTest, CSeriesCountsDaysSinceMaintenance) {
  const VehicleSeries s = DeriveSeriesConstant();
  const double expected[] = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  for (size_t t = 0; t < 9; ++t) {
    EXPECT_DOUBLE_EQ(s.c[t], expected[t]) << "t=" << t;
  }
}

TEST(DeriveSeriesTest, LSeriesFollowsEquationOne) {
  const VehicleSeries s = DeriveSeriesConstant();
  // L(t) = T - sum of usage since cycle start, evaluated at day start.
  const double expected[] = {300, 200, 100, 300, 200, 100, 300, 200, 100};
  for (size_t t = 0; t < 9; ++t) {
    EXPECT_DOUBLE_EQ(s.l[t], expected[t]) << "t=" << t;
  }
}

TEST(DeriveSeriesTest, TrailingDaysHaveNoTarget) {
  // 10 days at 100 s: cycle 1 ends day 2, cycle 2 day 5, cycle 3 day 8;
  // day 9 opens an incomplete cycle -> D undefined.
  const VehicleSeries s =
      DeriveSeries(ConstantUsage(10, 100.0), 300.0).ValueOrDie();
  EXPECT_TRUE(s.HasTarget(8));
  EXPECT_FALSE(s.HasTarget(9));
  EXPECT_TRUE(std::isnan(s.d[9]));
  // C and L remain defined on the trailing day.
  EXPECT_DOUBLE_EQ(s.c[9], 0.0);
  EXPECT_DOUBLE_EQ(s.l[9], 300.0);
}

TEST(DeriveSeriesTest, ExcessUsageCarriesOver) {
  // Day usage 200, T = 300: maintenance at end of day 1 (400 >= 300),
  // carryover 100 -> next maintenance at end of day 2 (100+200 >= 300).
  const VehicleSeries s =
      DeriveSeries(ConstantUsage(4, 200.0), 300.0).ValueOrDie();
  ASSERT_EQ(s.completed_cycles(), 2u);
  EXPECT_EQ(s.cycles[0].end, 1u);
  EXPECT_EQ(s.cycles[1].end, 2u);
  // L reflects the carryover: the 100 s consumed past T on day 1 count
  // against the new cycle, so at the start of day 2, 300 - 100 = 200 s
  // remain (a strict Eq. 1 with C(2) = 0 would say 300; the carryover
  // keeps L consistent with when D actually reaches zero).
  EXPECT_DOUBLE_EQ(s.l[2], 200.0);
}

TEST(DeriveSeriesTest, ZeroUsageDaysStretchD) {
  // Usage 100,0,0,100,100 with T=300: maintenance at end of day 4.
  const data::DailySeries u(Day(0), {100, 0, 0, 100, 100});
  const VehicleSeries s = DeriveSeries(u, 300.0).ValueOrDie();
  ASSERT_EQ(s.completed_cycles(), 1u);
  EXPECT_DOUBLE_EQ(s.d[0], 4.0);
  // L is flat across the zero-usage days (the Fig. 3 vertical step).
  EXPECT_DOUBLE_EQ(s.l[1], 200.0);
  EXPECT_DOUBLE_EQ(s.l[2], 200.0);
  EXPECT_DOUBLE_EQ(s.l[3], 200.0);
  EXPECT_DOUBLE_EQ(s.d[1], 3.0);
  EXPECT_DOUBLE_EQ(s.d[2], 2.0);
}

TEST(DeriveSeriesTest, OffsetShiftsTimeReference) {
  // The time-shift primitive: dropping a prefix re-phases the cycles.
  const VehicleSeries shifted =
      DeriveSeries(ConstantUsage(9, 100.0), 300.0, /*offset=*/1)
          .ValueOrDie();
  EXPECT_EQ(shifted.size(), 8u);
  // New day 0 is the old day 1; cycles restart from the shifted origin.
  EXPECT_DOUBLE_EQ(shifted.l[0], 300.0);
  ASSERT_EQ(shifted.completed_cycles(), 2u);
  EXPECT_EQ(shifted.cycles[0].end, 2u);
}

TEST(DeriveSeriesTest, NoCycleWhenUsageInsufficient) {
  const VehicleSeries s =
      DeriveSeries(ConstantUsage(5, 10.0), 300.0).ValueOrDie();
  EXPECT_EQ(s.completed_cycles(), 0u);
  for (size_t t = 0; t < 5; ++t) {
    EXPECT_FALSE(s.HasTarget(t));
  }
  EXPECT_DOUBLE_EQ(s.u.Sum(), 50.0);
}

TEST(DeriveSeriesTest, ErrorCases) {
  EXPECT_FALSE(DeriveSeries(data::DailySeries(), 300.0).ok());
  EXPECT_FALSE(DeriveSeries(ConstantUsage(5, 10.0), 0.0).ok());
  EXPECT_FALSE(DeriveSeries(ConstantUsage(5, 10.0), -5.0).ok());
  // Offset beyond the series leaves nothing.
  EXPECT_FALSE(DeriveSeries(ConstantUsage(5, 10.0), 300.0, 5).ok());
  // Missing values must be cleaned first.
  data::DailySeries with_nan(
      Day(0), {10.0, std::numeric_limits<double>::quiet_NaN()});
  EXPECT_EQ(DeriveSeries(with_nan, 300.0).status().code(),
            StatusCode::kDataError);
}

TEST(DeriveSeriesTest, InvariantsOnIrregularSeries) {
  // A jagged usage pattern; check structural invariants rather than exact
  // values.
  const data::DailySeries u(
      Day(0), {50, 0, 120, 300, 0, 0, 10, 250, 90, 400, 0, 80, 160, 20});
  const VehicleSeries s = DeriveSeries(u, 500.0).ValueOrDie();
  for (size_t t = 0; t < s.size(); ++t) {
    // L in (0, T].
    EXPECT_GT(s.l[t], 0.0);
    EXPECT_LE(s.l[t], 500.0);
    // C counts up within a cycle.
    if (t > 0 && s.c[t] != 0.0) {
      EXPECT_DOUBLE_EQ(s.c[t], s.c[t - 1] + 1.0);
    }
    // D decreases by exactly 1 inside a cycle.
    if (t > 0 && s.HasTarget(t) && s.HasTarget(t - 1) && s.d[t - 1] > 0) {
      EXPECT_DOUBLE_EQ(s.d[t], s.d[t - 1] - 1.0);
    }
  }
  // Cycles tile the targeted prefix.
  for (size_t c = 1; c < s.cycles.size(); ++c) {
    EXPECT_EQ(s.cycles[c].start, s.cycles[c - 1].end + 1);
  }
}

TEST(CycleAccumulatorTest, OneDayOverTwiceTheIntervalSubtractsOnce) {
  // 700 s against T = 300 closes one cycle and carries 400 s, which the
  // next day (even with zero usage) closes again.
  CycleAccumulator cycles{.maintenance_interval_s = 300.0};
  EXPECT_TRUE(cycles.Advance(700.0));
  EXPECT_EQ(cycles.completed_cycles, 1u);
  EXPECT_EQ(cycles.UsageLeft(), -100.0);
  EXPECT_EQ(cycles.DaysSinceMaintenance(), 0.0);
  EXPECT_TRUE(cycles.Advance(0.0));
  EXPECT_EQ(cycles.UsageLeft(), 200.0);
  EXPECT_FALSE(cycles.Advance(0.0));
  EXPECT_EQ(cycles.DaysSinceMaintenance(), 1.0);
}

/// Random gap-free usage that exercises the recurrence's edge cases:
/// top-up days that use exactly what the open cycle has left (so it closes
/// on T_v with no carry), runs of zero-usage days, days above 2*T_v, and
/// arbitrary fractional days so the carry is not always exact.
std::vector<double> EdgeCaseUsage(uint64_t seed, size_t days, double t_v) {
  Rng rng(seed);
  std::vector<double> usage;
  while (usage.size() < days) {
    const uint64_t kind = rng.UniformInt(uint64_t{10});
    if (kind == 0) {
      const uint64_t run = 1 + rng.UniformInt(uint64_t{5});
      for (uint64_t i = 0; i < run; ++i) usage.push_back(0.0);
    } else if (kind == 1) {
      usage.push_back(2.0 * t_v + 100.0 * static_cast<double>(
                                              1 + rng.UniformInt(uint64_t{8})));
    } else if (kind == 2) {
      usage.push_back(rng.Uniform(0.0, t_v));
    } else if (kind <= 4 && !usage.empty()) {
      // L of the next day, read from the reference derivation.
      data::DailySeries u(Day(0), usage);
      u.Append(0.0);  // nextmaint-lint: allow(unchecked-status): DailySeries::Append is void
      const double left = DeriveSeries(u, t_v).ValueOrDie().l.back();
      usage.push_back(std::max(0.0, left));
    } else {
      usage.push_back(100.0 *
                      static_cast<double>(rng.UniformInt(uint64_t{10})));
    }
  }
  usage.resize(days);
  return usage;
}

TEST(CycleAccumulatorTest, MatchesDeriveSeriesAtEveryPrefix) {
  constexpr double kT = 1000.0;
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    const std::vector<double> usage = EdgeCaseUsage(seed, 160, kT);
    const data::DailySeries u(Day(0), usage);

    // The generator must actually hit every edge case.
    const VehicleSeries whole = DeriveSeries(u, kT).ValueOrDie();
    size_t exact_closes = 0, zero_days = 0, huge_days = 0;
    for (const Cycle& cycle : whole.cycles) {
      // The next day starts with the full interval: no carry.
      if (cycle.end + 1 < u.size() && whole.l[cycle.end + 1] == kT) {
        ++exact_closes;
      }
    }
    for (const double day : usage) {
      if (day == 0.0) ++zero_days;
      if (day > 2.0 * kT) ++huge_days;
    }
    EXPECT_GT(exact_closes, 0u);
    EXPECT_GT(zero_days, 0u);
    EXPECT_GT(huge_days, 0u);

    CycleAccumulator cycles{.maintenance_interval_s = kT};
    for (size_t n = 0; n <= usage.size(); ++n) {
      if (n > 0) cycles.Advance(usage[n - 1]);
      // Reference: the first n days plus a zero-usage day n.
      data::DailySeries prefix = u.Slice(0, n);
      prefix.Append(0.0);  // nextmaint-lint: allow(unchecked-status): DailySeries::Append is void
      const VehicleSeries ref = DeriveSeries(prefix, kT).ValueOrDie();
      size_t closed_before_n = 0;
      for (const Cycle& cycle : ref.cycles) {
        if (cycle.end < n) ++closed_before_n;
      }
      ASSERT_EQ(cycles.days, n);
      ASSERT_EQ(std::bit_cast<uint64_t>(cycles.DaysSinceMaintenance()),
                std::bit_cast<uint64_t>(ref.c[n]))
          << "n=" << n;
      ASSERT_EQ(std::bit_cast<uint64_t>(cycles.UsageLeft()),
                std::bit_cast<uint64_t>(ref.l[n]))
          << "n=" << n;
      ASSERT_EQ(cycles.completed_cycles, closed_before_n) << "n=" << n;
      ASSERT_EQ(std::bit_cast<uint64_t>(cycles.total_usage),
                std::bit_cast<uint64_t>(u.Slice(0, n).Sum()))
          << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace nextmaint
