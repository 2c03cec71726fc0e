// Stage III availability analysis (Fig. 2 + Section V-C machinery).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analysis/availability.h"

namespace an = gpures::analysis;
namespace ct = gpures::common;

namespace {

an::LifecycleRecord drain(ct::TimePoint t, const std::string& host) {
  return {t, host, an::LifecycleRecord::Kind::kDrain};
}
an::LifecycleRecord resume(ct::TimePoint t, const std::string& host) {
  return {t, host, an::LifecycleRecord::Kind::kResume};
}

an::AvailabilityConfig config() {
  an::AvailabilityConfig cfg;
  cfg.period = {0, 1000 * ct::kDay};
  cfg.node_count = 10;
  return cfg;
}

}  // namespace

TEST(Availability, PairsDrainWithNextResume) {
  const auto stats = an::compute_availability(
      {drain(1000, "n1"), resume(1000 + 3600, "n1")}, config());
  ASSERT_EQ(stats.intervals.size(), 1u);
  EXPECT_EQ(stats.intervals[0].host, "n1");
  EXPECT_DOUBLE_EQ(stats.intervals[0].hours(), 1.0);
  EXPECT_DOUBLE_EQ(stats.mttr_h, 1.0);
  EXPECT_DOUBLE_EQ(stats.total_node_hours_lost, 1.0);
  EXPECT_EQ(stats.unpaired_drains, 0u);
  EXPECT_EQ(stats.unpaired_resumes, 0u);
}

TEST(Availability, OutOfOrderInputHandled) {
  const auto stats = an::compute_availability(
      {resume(5000, "n1"), drain(1000, "n1")}, config());
  ASSERT_EQ(stats.intervals.size(), 1u);
  EXPECT_EQ(stats.intervals[0].end - stats.intervals[0].begin, 4000);
}

TEST(Availability, PerHostPairing) {
  const auto stats = an::compute_availability(
      {drain(1000, "a"), drain(2000, "b"), resume(3000, "b"),
       resume(4000, "a")},
      config());
  ASSERT_EQ(stats.intervals.size(), 2u);
  // Sorted by begin time.
  EXPECT_EQ(stats.intervals[0].host, "a");
  EXPECT_EQ(stats.intervals[0].end - stats.intervals[0].begin, 3000);
  EXPECT_EQ(stats.intervals[1].host, "b");
  EXPECT_EQ(stats.intervals[1].end - stats.intervals[1].begin, 1000);
}

TEST(Availability, UnpairedRecordsCounted) {
  const auto stats = an::compute_availability(
      {resume(100, "a"),                 // resume with no drain
       drain(1000, "a"),                 // drain while up
       drain(2000, "a"),                 // double drain
       resume(3000, "a"),                // closes the second drain
       drain(9000, "a")},                // open at end of study
      config());
  EXPECT_EQ(stats.unpaired_resumes, 1u);
  EXPECT_EQ(stats.unpaired_drains, 2u);
  ASSERT_EQ(stats.intervals.size(), 1u);
}

TEST(Availability, PeriodFilterOnDrainTime) {
  auto cfg = config();
  cfg.period = {500, 1500};
  const auto stats = an::compute_availability(
      {drain(1000, "a"), resume(1100, "a"),    // inside
       drain(2000, "a"), resume(2100, "a")},   // outside
      cfg);
  EXPECT_EQ(stats.intervals.size(), 1u);
}

TEST(Availability, PathologicalIntervalsDropped) {
  auto cfg = config();
  cfg.max_interval_h = 10.0;
  const auto stats = an::compute_availability(
      {drain(0, "a"), resume(100 * ct::kDay, "a"),    // absurd: dropped
       drain(200 * ct::kDay, "a"), resume(200 * ct::kDay + 3600, "a")},
      cfg);
  EXPECT_EQ(stats.intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(stats.mttr_h, 1.0);
}

TEST(Availability, SummaryAndEcdf) {
  std::vector<an::LifecycleRecord> recs;
  for (int i = 0; i < 100; ++i) {
    const ct::TimePoint t = 1000 + i * 100000;
    recs.push_back(drain(t, "n" + std::to_string(i % 5)));
    recs.push_back(resume(t + 1800 + i * 36, "n" + std::to_string(i % 5)));
  }
  const auto stats = an::compute_availability(recs, config());
  EXPECT_EQ(stats.intervals.size(), 100u);
  EXPECT_GT(stats.duration_hours.mean, 0.5);
  EXPECT_FALSE(stats.ecdf.empty());
  EXPECT_DOUBLE_EQ(stats.ecdf.back().p, 1.0);
}

TEST(Availability, AvailabilityFormula) {
  an::AvailabilityStats stats;
  stats.mttr_h = 0.88;
  // The paper: MTTF 162 h, MTTR 0.88 h -> 99.5%.
  EXPECT_NEAR(stats.availability(162.0), 0.9946, 0.0005);
  EXPECT_NEAR(an::AvailabilityStats::downtime_minutes_per_day(0.9946), 7.8,
              0.2);
  EXPECT_DOUBLE_EQ(stats.availability(0.0), 1.0);  // degenerate guard
}

TEST(Availability, InfiniteMttfIsFullAvailability) {
  // A period without tracked errors has MTBE +inf: inf / (inf + MTTR) would
  // be NaN, but nothing interrupts the node.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  an::AvailabilityStats stats;
  stats.mttr_h = 0.88;
  EXPECT_EQ(stats.availability(kInf), 1.0);
  EXPECT_EQ(an::availability(kInf, 0.88), 1.0);
  EXPECT_EQ(an::availability(std::nan(""), 0.88), 1.0);
  EXPECT_EQ(an::availability(162.0, -1.0), 1.0);
  EXPECT_EQ(an::availability(162.0, 0.88), 162.0 / (162.0 + 0.88));
  EXPECT_EQ(an::AvailabilityStats::downtime_minutes_per_day(
                stats.availability(kInf)),
            0.0);
}
