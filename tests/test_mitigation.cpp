// Mitigation what-ifs: lost work, checkpoint sweep, exception masking.
#include <gtest/gtest.h>

#include "analysis/mitigation.h"

namespace an = gpures::analysis;
namespace sl = gpures::slurm;
namespace ct = gpures::common;
namespace gx = gpures::xid;

namespace {

sl::JobRecord job(std::uint64_t id, ct::TimePoint start, ct::TimePoint end,
                  std::int32_t node, sl::JobState state, std::int32_t gpus = 1) {
  sl::JobRecord r;
  r.id = id;
  r.name = "j";
  r.submit = start;
  r.start = start;
  r.end = end;
  r.state = state;
  r.gpus = gpus;
  for (std::int32_t g = 0; g < gpus; ++g) r.gpu_list.push_back({node, g});
  r.node_list = {node};
  r.nodes = 1;
  return r;
}

an::CoalescedError error_at(ct::TimePoint t, std::int32_t node,
                            gx::Code code) {
  an::CoalescedError e;
  e.time = t;
  e.gpu = {node, 0};
  e.code = code;
  return e;
}

an::JobImpactConfig config() {
  an::JobImpactConfig cfg;
  cfg.window = 20;
  cfg.period = {0, 1000000};
  return cfg;
}

}  // namespace

TEST(Exposures, SharedHelperMatchesImpact) {
  an::JobTable table;
  table.add(job(1, 1000, 2000, 0, sl::JobState::kFailed));
  table.add(job(2, 1000, 2000, 1, sl::JobState::kCompleted));
  const std::vector<an::CoalescedError> errors = {
      error_at(1990, 0, gx::Code::kGspRpcTimeout),
      error_at(1500, 1, gx::Code::kMmuError),
  };
  const auto exposures = an::compute_exposures(table, errors, config());
  ASSERT_EQ(exposures.size(), 2u);
  EXPECT_TRUE(exposures[0].gpu_failed);
  EXPECT_FALSE(exposures[1].gpu_failed);
  EXPECT_NE(exposures[0].window_mask, 0u);
  EXPECT_EQ(exposures[1].window_mask, 0u);
  EXPECT_GE(an::exposure_bit(gx::Code::kMmuError), 0);
  EXPECT_EQ(an::exposure_bit(gx::Code::kGraphicsEngineError), -1);
}

TEST(LostWork, SumsFailedJobHours) {
  an::JobTable table;
  // Failed after 2 h on 2 GPUs -> 4 GPU-hours lost.
  table.add(job(1, 0, 7200, 0, sl::JobState::kFailed, 2));
  // Completed 1 h x 1 GPU -> total only.
  table.add(job(2, 0, 3600, 1, sl::JobState::kCompleted));
  const std::vector<an::CoalescedError> errors = {
      error_at(7190, 0, gx::Code::kGspRpcTimeout)};
  const auto lost = an::compute_lost_work(
      table, an::compute_exposures(table, errors, config()), config());
  EXPECT_EQ(lost.gpu_failed_jobs, 1u);
  EXPECT_DOUBLE_EQ(lost.lost_gpu_hours, 4.0);
  EXPECT_DOUBLE_EQ(lost.total_gpu_hours, 5.0);
  EXPECT_DOUBLE_EQ(lost.lost_fraction, 0.8);
}

TEST(LostWork, FailedWithoutWindowErrorNotCounted) {
  an::JobTable table;
  table.add(job(1, 0, 7200, 0, sl::JobState::kFailed));
  const std::vector<an::CoalescedError> errors = {
      error_at(3600, 0, gx::Code::kMmuError)};  // mid-run, survived; user bug
  const auto lost = an::compute_lost_work(
      table, an::compute_exposures(table, errors, config()), config());
  EXPECT_EQ(lost.gpu_failed_jobs, 0u);
  EXPECT_DOUBLE_EQ(lost.lost_gpu_hours, 0.0);
}

TEST(Checkpoint, SweepMathExact) {
  an::JobTable table;
  // One failed job: 10 h x 1 GPU; one completed: 10 h x 1 GPU.
  table.add(job(1, 0, 36000, 0, sl::JobState::kFailed));
  table.add(job(2, 0, 36000, 1, sl::JobState::kCompleted));
  const std::vector<an::CoalescedError> errors = {
      error_at(35990, 0, gx::Code::kGspRpcTimeout)};
  const auto sweep = an::sweep_checkpoint_interval(
      table, an::compute_exposures(table, errors, config()), config(), {2.0},
      /*checkpoint_cost_h=*/0.1, /*restore_cost_h=*/0.5);
  EXPECT_DOUBLE_EQ(sweep.no_checkpoint_waste, 10.0);
  ASSERT_EQ(sweep.points.size(), 1u);
  const auto& p = sweep.points[0];
  // Recompute: min(10, 2)/2 + 0.5 = 1.5 GPU-h.
  EXPECT_DOUBLE_EQ(p.recompute_gpu_hours, 1.5);
  // Overhead: (10 + 10) gpu-weighted hours / 2 h x 0.1 = 1.0 GPU-h.
  EXPECT_DOUBLE_EQ(p.overhead_gpu_hours, 1.0);
  EXPECT_DOUBLE_EQ(p.wasted_gpu_hours, 2.5);
  EXPECT_DOUBLE_EQ(sweep.best_interval_h, 2.0);
}

TEST(Checkpoint, TradeoffHasInteriorOptimum) {
  // Many medium jobs with some failures: tiny intervals pay huge overhead,
  // huge intervals lose whole runs; the best interval is interior.
  an::JobTable table;
  std::vector<an::CoalescedError> errors;
  for (int i = 0; i < 200; ++i) {
    const bool fails = i % 10 == 0;
    const ct::TimePoint start = i * 50000;
    const ct::TimePoint end = start + 8 * 3600;
    table.add(job(static_cast<std::uint64_t>(i), start, end, i % 16,
                  fails ? sl::JobState::kFailed : sl::JobState::kCompleted));
    if (fails) {
      errors.push_back(error_at(end - 5, i % 16, gx::Code::kGspRpcTimeout));
    }
  }
  auto cfg = config();
  cfg.period = {0, 200 * 50000 + 100000};
  const std::vector<double> intervals = {0.01, 0.1, 1.0, 4.0, 100.0};
  const auto sweep = an::sweep_checkpoint_interval(
      table, an::compute_exposures(table, errors, cfg), cfg, intervals, 0.05,
      0.1);
  EXPECT_GT(sweep.points.front().wasted_gpu_hours, sweep.best_waste);
  EXPECT_GT(sweep.points.back().wasted_gpu_hours, sweep.best_waste);
  EXPECT_GT(sweep.best_interval_h, 0.01);
  EXPECT_LT(sweep.best_interval_h, 100.0);
  EXPECT_LT(sweep.best_waste, sweep.no_checkpoint_waste);
}

TEST(Masking, OnlyPureMmuFailuresAreMaskable) {
  an::JobTable table;
  table.add(job(1, 1000, 2000, 0, sl::JobState::kFailed));  // MMU only
  table.add(job(2, 1000, 2000, 1, sl::JobState::kFailed));  // MMU + GSP
  table.add(job(3, 1000, 2000, 2, sl::JobState::kFailed));  // GSP only
  const std::vector<an::CoalescedError> errors = {
      error_at(1990, 0, gx::Code::kMmuError),
      error_at(1990, 1, gx::Code::kMmuError),
      error_at(1991, 1, gx::Code::kGspRpcTimeout),
      error_at(1990, 2, gx::Code::kGspRpcTimeout),
  };
  const auto mask = an::compute_masking_whatif(
      table, an::compute_exposures(table, errors, config()), config());
  EXPECT_EQ(mask.gpu_failed_jobs, 3u);
  EXPECT_EQ(mask.maskable_jobs, 1u);
  EXPECT_NEAR(mask.maskable_fraction, 1.0 / 3.0, 1e-9);
}

TEST(Mitigation, RenderReport) {
  an::JobTable table;
  table.add(job(1, 0, 7200, 0, sl::JobState::kFailed));
  table.add(job(2, 0, 7200, 1, sl::JobState::kCompleted));
  const std::vector<an::CoalescedError> errors = {
      error_at(7195, 0, gx::Code::kMmuError)};
  const auto report = an::render_mitigation(table, errors, config());
  EXPECT_NE(report.find("Lost work"), std::string::npos);
  EXPECT_NE(report.find("Checkpoint-interval sweep"), std::string::npos);
  EXPECT_NE(report.find("Exception-handling what-if"), std::string::npos);
}
