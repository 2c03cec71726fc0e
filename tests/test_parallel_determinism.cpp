// Differential tests for the parallel pipeline: for any worker count, the
// day-sharded Stage I + GPU-sharded Stage II + ordered merge must produce
// results *identical* to the serial pipeline — same errors (every field),
// same lifecycle records, same counters, same rendered artifacts.  This is
// the equivalence the golden-file harness and the speedup headline rest on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/export.h"
#include "analysis/pipeline.h"
#include "analysis/reports.h"
#include "common/rng.h"
#include "logsys/syslog.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace ls = gpures::logsys;

namespace {

// A multi-day synthetic campaign: heavy XID duplication (so coalescing state
// matters), lifecycle churn, family-merge codes, excluded/unknown codes,
// unknown hosts, noise, and cross-midnight stragglers.
std::vector<std::string> make_day_text(const cl::Topology& topo,
                                       ct::TimePoint day, ct::Rng& rng) {
  constexpr std::uint16_t kCodes[] = {31, 48, 63, 64, 74, 79, 94, 95,
                                      119, 120, 122, 123, 13, 43, 777};
  std::vector<std::string> lines;
  const int n = 300 + static_cast<int>(rng.uniform_u64(200));
  ct::TimePoint t = day;
  for (int i = 0; i < n; ++i) {
    t += static_cast<ct::Duration>(rng.uniform_u64(400));
    const auto node = static_cast<std::int32_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(topo.node_count())));
    const auto& name = topo.node(node).name;
    const double what = rng.uniform();
    if (what < 0.75) {
      const auto slot = static_cast<std::int32_t>(rng.uniform_u64(
          static_cast<std::uint64_t>(topo.gpus_on_node(node))));
      const auto code = static_cast<gx::Code>(
          kCodes[rng.uniform_u64(std::size(kCodes))]);
      // Duplication burst: 1-4 lines a few seconds apart on one GPU.
      const int burst = 1 + static_cast<int>(rng.uniform_u64(4));
      for (int b = 0; b < burst; ++b) {
        lines.push_back(ls::render_xid_line(
            t + b * 3, name, topo.pci_bus({node, slot}), code, "dup burst"));
      }
    } else if (what < 0.78) {
      lines.push_back(ls::render_drain_line(t, name));
    } else if (what < 0.81) {
      lines.push_back(ls::render_resume_line(t, name));
    } else if (what < 0.84) {
      lines.push_back(ls::render_xid_line(t, "unknownhost", "0000:27:00",
                                          gx::Code::kMmuError, "x"));
    } else {
      lines.push_back(ls::render_noise_line(rng, t, name));
    }
  }
  return lines;
}

void ingest_synthetic(an::AnalysisPipeline& pipe, const cl::Topology& topo,
                      std::uint64_t seed, int days) {
  ct::Rng rng(seed);
  const auto day0 = ct::make_date(2023, 2, 1);
  for (int d = 0; d < days; ++d) {
    const auto day = day0 + d * ct::kDay;
    std::string text;
    for (const auto& l : make_day_text(topo, day, rng)) {
      text += l;
      text += '\n';
    }
    pipe.ingest_log_text(day, text);
  }
  pipe.finish();
}

void expect_identical(const an::AnalysisPipeline& serial,
                      const an::AnalysisPipeline& parallel) {
  const auto& ce = serial.counters();
  const auto& cp = parallel.counters();
  EXPECT_EQ(ce.log_lines, cp.log_lines);
  EXPECT_EQ(ce.xid_records, cp.xid_records);
  EXPECT_EQ(ce.lifecycle_records, cp.lifecycle_records);
  EXPECT_EQ(ce.rejected_lines, cp.rejected_lines);
  EXPECT_EQ(ce.unknown_hosts, cp.unknown_hosts);
  EXPECT_EQ(ce.accounting_lines, cp.accounting_lines);
  EXPECT_EQ(ce.accounting_errors, cp.accounting_errors);
  EXPECT_EQ(ce.out_of_order_observations, cp.out_of_order_observations);

  ASSERT_EQ(serial.errors().size(), parallel.errors().size());
  for (std::size_t i = 0; i < serial.errors().size(); ++i) {
    const auto& a = serial.errors()[i];
    const auto& b = parallel.errors()[i];
    ASSERT_EQ(a.time, b.time) << "error " << i;
    ASSERT_EQ(a.last, b.last) << "error " << i;
    ASSERT_EQ(a.gpu, b.gpu) << "error " << i;
    ASSERT_EQ(a.code, b.code) << "error " << i;
    ASSERT_EQ(a.raw_xid, b.raw_xid) << "error " << i;
    ASSERT_EQ(a.raw_lines, b.raw_lines) << "error " << i;
  }
  ASSERT_EQ(serial.lifecycle().size(), parallel.lifecycle().size());
  for (std::size_t i = 0; i < serial.lifecycle().size(); ++i) {
    const auto& a = serial.lifecycle()[i];
    const auto& b = parallel.lifecycle()[i];
    ASSERT_EQ(a.time, b.time) << "lifecycle " << i;
    ASSERT_EQ(a.host, b.host) << "lifecycle " << i;
    ASSERT_EQ(a.kind, b.kind) << "lifecycle " << i;
  }
  EXPECT_EQ(serial.jobs().jobs.size(), parallel.jobs().jobs.size());
}

std::string rendered_artifacts(const an::AnalysisPipeline& pipe) {
  const auto stats = pipe.error_stats();
  const auto avail = pipe.availability();
  std::ostringstream os;
  os << an::render_table1(stats);
  an::write_table1_csv(os, stats);
  an::write_fig2_csv(os, avail);
  an::ExportBundle bundle;
  bundle.error_stats = &stats;
  bundle.availability = &avail;
  bundle.mttf_h = pipe.mttf_estimate_h();
  os << an::to_json(bundle);
  return os.str();
}

struct Case {
  std::uint64_t seed;
  std::uint32_t threads;
};

class ParallelDeterminism : public ::testing::TestWithParam<Case> {};

}  // namespace

TEST_P(ParallelDeterminism, SyntheticCampaignMatchesSerialExactly) {
  const auto param = GetParam();
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  an::PipelineConfig serial_cfg;
  an::PipelineConfig par_cfg;
  par_cfg.num_threads = param.threads;
  // A small batch forces several Stage-I flush cycles per run.
  par_cfg.stage1_batch_days = 3;

  an::AnalysisPipeline serial(topo, serial_cfg);
  an::AnalysisPipeline parallel(topo, par_cfg);
  ingest_synthetic(serial, topo, param.seed, 14);
  ingest_synthetic(parallel, topo, param.seed, 14);

  ASSERT_GT(serial.errors().size(), 100u);
  expect_identical(serial, parallel);
  EXPECT_EQ(rendered_artifacts(serial), rendered_artifacts(parallel));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThreads, ParallelDeterminism,
    ::testing::Values(Case{1, 2}, Case{1, 4}, Case{1, 7}, Case{2, 2},
                      Case{2, 4}, Case{2, 7}, Case{3, 2}, Case{3, 4},
                      Case{3, 7}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "seed" + std::to_string(info.param.seed) + "_threads" +
             std::to_string(info.param.threads);
    });

TEST(ParallelDeterminism, ParallelRunsAgreeWithEachOther) {
  // Transitivity check at odd worker counts (shard partition differs).
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  an::PipelineConfig a_cfg;
  a_cfg.num_threads = 2;
  an::PipelineConfig b_cfg;
  b_cfg.num_threads = 5;
  b_cfg.stage1_batch_days = 1;
  an::AnalysisPipeline a(topo, a_cfg);
  an::AnalysisPipeline b(topo, b_cfg);
  ingest_synthetic(a, topo, 9, 10);
  ingest_synthetic(b, topo, 9, 10);
  expect_identical(a, b);
}

TEST(ParallelDeterminism, FullCampaignWithJobsMatchesSerialExactly) {
  // End to end through the simulator: raw logs + accounting, serial vs 4
  // workers, including the Stage-III artifacts derived from the tables.
  an::CampaignConfig cfg = an::CampaignConfig::quick();
  cfg.seed = 11;
  cfg.workload_scale *= 0.2;
  an::CampaignConfig par = cfg;
  par.pipeline.num_threads = 4;

  an::DeltaCampaign serial(cfg);
  an::DeltaCampaign parallel(par);
  serial.run();
  parallel.run();

  ASSERT_GT(serial.pipeline().errors().size(), 100u);
  expect_identical(serial.pipeline(), parallel.pipeline());
  EXPECT_EQ(rendered_artifacts(serial.pipeline()),
            rendered_artifacts(parallel.pipeline()));
  EXPECT_EQ(an::render_table2(serial.pipeline().job_impact()),
            an::render_table2(parallel.pipeline().job_impact()));
  EXPECT_EQ(an::render_table3(serial.pipeline().job_stats()),
            an::render_table3(parallel.pipeline().job_stats()));
}

TEST(ParallelDeterminism, IngestAfterFinishStillThrows) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  an::PipelineConfig cfg;
  cfg.num_threads = 2;
  an::AnalysisPipeline pipe(topo, cfg);
  pipe.finish();
  EXPECT_THROW(pipe.ingest_log_text(0, "x\n"), std::logic_error);
  EXPECT_NO_THROW(pipe.finish());
}
