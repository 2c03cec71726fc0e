// Report renderers: structure and content of the printed tables.
#include <gtest/gtest.h>

#include <limits>

#include "analysis/reports.h"

namespace an = gpures::analysis;
namespace ct = gpures::common;
namespace gx = gpures::xid;

namespace {

an::CoalescedError err(ct::TimePoint t, std::int32_t node, gx::Code code) {
  an::CoalescedError e;
  e.time = t;
  e.gpu = {node, 0};
  e.code = code;
  e.raw_lines = 3;
  return e;
}

an::ErrorStats make_stats() {
  std::vector<an::CoalescedError> errors;
  for (int i = 0; i < 12; ++i) {
    errors.push_back(err(ct::kHour * (1 + i), i % 5, gx::Code::kMmuError));
  }
  for (int i = 0; i < 7; ++i) {
    errors.push_back(
        err(11 * ct::kDay + i * ct::kHour, i % 3, gx::Code::kGspRpcTimeout));
  }
  errors.push_back(err(12 * ct::kDay, 1, gx::Code::kRowRemapEvent));
  an::ErrorStatsConfig cfg;
  cfg.node_count = 10;
  return an::compute_error_stats(
      errors, an::StudyPeriods::make(0, 10 * ct::kDay, 30 * ct::kDay), cfg);
}

}  // namespace

TEST(Reports, Table1ContainsEveryRow) {
  const auto table = an::render_table1(make_stats());
  for (const char* label :
       {"XID 31", "XID 48", "XID 63", "XID 64", "XID 74", "XID 79", "XID 94",
        "XID 95", "XID 119/120", "XID 122/123", "Uncorrectable ECC",
        "All Hardware", "All Memory", "TOTAL"}) {
    EXPECT_NE(table.find(label), std::string::npos) << label;
  }
  // Counts appear.
  EXPECT_NE(table.find("12"), std::string::npos);
  EXPECT_NE(table.find("7"), std::string::npos);
}

TEST(Reports, Table1ZeroRowsRenderDash) {
  const auto table = an::render_table1(make_stats());
  // XID 48 row has zero counts -> "-" MTBE cells present.
  EXPECT_NE(table.find(" - "), std::string::npos);
  EXPECT_EQ(table.find("inf"), std::string::npos);
  EXPECT_EQ(table.find("nan"), std::string::npos);
}

TEST(Reports, FindingsMentionHeadlines) {
  const auto findings = an::render_findings(make_stats());
  EXPECT_NE(findings.find("Per-node MTBE"), std::string::npos);
  EXPECT_NE(findings.find("GSP per-node MTBE degradation"), std::string::npos);
  EXPECT_NE(findings.find("Coalescing"), std::string::npos);
  EXPECT_NE(findings.find("paper:"), std::string::npos);
}

TEST(Reports, Table2SkipsEmptyRowsAndShowsTotals) {
  an::JobImpact impact;
  for (const auto code : gx::report_order()) {
    an::ImpactRow row;
    row.code = code;
    impact.rows.push_back(row);
  }
  impact.rows[0].failed_jobs = 90;
  impact.rows[0].encountering_jobs = 100;
  impact.rows[0].failure_probability = 0.9;
  impact.rows[0].ci = ct::wilson_interval(90, 100);
  impact.gpu_failed_jobs = 90;
  impact.jobs_analyzed = 5000;
  impact.failed_jobs_total = 1200;

  const auto table = an::render_table2(impact);
  EXPECT_NE(table.find("MMU Err."), std::string::npos);
  EXPECT_NE(table.find("90.00"), std::string::npos);
  // Families with zero encounters are omitted.
  EXPECT_EQ(table.find("Off-Bus"), std::string::npos);
  EXPECT_NE(table.find("Total GPU-failed jobs: 90 of 5,000"), std::string::npos);
}

TEST(Reports, Table3RendersBucketsAndSummary) {
  an::JobStats stats;
  stats.total_jobs = 1000;
  stats.success_rate = 0.75;
  stats.single_gpu_share = 0.7;
  stats.small_multi_gpu_share = 0.27;
  stats.large_gpu_share = 0.03;
  for (const auto& b : an::paper_gpu_buckets()) {
    an::BucketStats bs;
    bs.bucket = b;
    bs.count = 10;
    bs.share = 0.125;
    bs.mean_minutes = 100.5;
    bs.p50_minutes = 10.25;
    bs.p99_minutes = 2880.0;
    stats.buckets.push_back(bs);
  }
  const auto table = an::render_table3(stats);
  EXPECT_NE(table.find("256+"), std::string::npos);
  EXPECT_NE(table.find("2880.00"), std::string::npos);
  EXPECT_NE(table.find("75.00%"), std::string::npos);
  EXPECT_NE(table.find("paper: 69.86"), std::string::npos);
}

TEST(Reports, Fig2RendersHistogramAndAvailability) {
  an::AvailabilityStats stats;
  for (int i = 0; i < 50; ++i) {
    an::Unavailability u;
    u.host = "n" + std::to_string(i % 5);
    u.begin = i * 100000;
    u.end = u.begin + 1800 + i * 120;
    stats.total_node_hours_lost += u.hours();
    stats.intervals.push_back(u);
  }
  std::vector<double> hours;
  for (const auto& iv : stats.intervals) hours.push_back(iv.hours());
  stats.duration_hours = ct::summarize(hours);
  stats.mttr_h = stats.duration_hours.mean;
  stats.ecdf = ct::make_ecdf(hours, 20);

  const auto out = an::render_fig2(stats, 162.0);
  EXPECT_NE(out.find("Unavailability intervals: 50"), std::string::npos);
  EXPECT_NE(out.find("#"), std::string::npos);  // histogram bars
  EXPECT_NE(out.find("ECDF"), std::string::npos);
  EXPECT_NE(out.find("availability 99."), std::string::npos);
}

TEST(Reports, Fig2WithInfiniteMttfPrintsFullAvailability) {
  // An op period without tracked errors has an infinite MTBE: nothing
  // interrupts the node, so availability is 100% and downtime 0, not NaN.
  an::AvailabilityStats stats;
  an::Unavailability u;
  u.host = "n0";
  u.begin = 0;
  u.end = 3168;  // 0.88 h
  stats.intervals.push_back(u);
  const std::vector<double> hours = {u.hours()};
  stats.duration_hours = ct::summarize(hours);
  stats.mttr_h = stats.duration_hours.mean;
  stats.ecdf = ct::make_ecdf(hours, 20);

  const auto out =
      an::render_fig2(stats, std::numeric_limits<double>::infinity());
  EXPECT_EQ(out.find("nan"), std::string::npos) << out;
  EXPECT_NE(out.find("availability 100.0000%"), std::string::npos) << out;
  EXPECT_NE(out.find("downtime 0.0 min/node/day"), std::string::npos) << out;
}
