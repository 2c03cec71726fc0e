// Differential tests for the parallel pipeline: for any worker count, and
// however a day is cut into chunks, Stage I in line ranges + one coalescer
// in line order must produce results *identical* to the serial whole-day
// pipeline — same errors (every field), same lifecycle records, same
// counters, same rendered artifacts.  This is the equivalence the
// golden-file harness, serve-vs-batch parity and the speedup headline rest
// on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
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
// unknown hosts, noise, and cross-midnight stragglers.  A `storm` day has
// 40x the events, enough lines for Stage I to split it into ranges.
std::vector<std::string> make_day_text(const cl::Topology& topo,
                                       ct::TimePoint day, ct::Rng& rng,
                                       bool storm) {
  constexpr std::uint16_t kCodes[] = {31, 48, 63, 64, 74, 79, 94, 95,
                                      119, 120, 122, 123, 13, 43, 777};
  std::vector<std::string> lines;
  const int n = (300 + static_cast<int>(rng.uniform_u64(200))) *
                (storm ? 40 : 1);
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

/// Feed `text` the way serve feeds a growing day file: one ingest_day per
/// chunk of whole lines.  Chunk sizes cycle through 1, 5, 40, 200 and 5000
/// lines, so some chunks are classified inline and others split into ranges.
void ingest_in_chunks(an::AnalysisPipeline& pipe, ct::TimePoint day,
                      std::string_view text) {
  constexpr std::size_t kChunkLines[] = {1, 5, 40, 200, 5000};
  std::size_t start = 0;
  for (std::size_t c = 0; start < text.size(); ++c) {
    std::size_t end = start;
    for (std::size_t l = 0; l < kChunkLines[c % std::size(kChunkLines)] &&
                            end < text.size();
         ++l) {
      end = text.find('\n', end) + 1;
    }
    pipe.ingest_log_text(day, text.substr(start, end - start));
    start = end;
  }
}

void ingest_synthetic(an::AnalysisPipeline& pipe, const cl::Topology& topo,
                      std::uint64_t seed, int days, bool chunked = false) {
  ct::Rng rng(seed);
  const auto day0 = ct::make_date(2023, 2, 1);
  for (int d = 0; d < days; ++d) {
    const auto day = day0 + d * ct::kDay;
    std::string text;
    for (const auto& l : make_day_text(topo, day, rng, /*storm=*/d == 1)) {
      text += l;
      text += '\n';
    }
    if (chunked) {
      ingest_in_chunks(pipe, day, text);
    } else {
      pipe.ingest_log_text(day, text);
    }
  }
  pipe.finish();
}

void expect_identical(const an::AnalysisPipeline& serial,
                      const an::AnalysisPipeline& parallel) {
  for (const char* name :
       {"pipe.log_lines", "pipe.xid_records", "pipe.lifecycle_records",
        "pipe.rejected_lines", "pipe.unknown_hosts", "pipe.accounting_lines",
        "pipe.accounting_errors", "pipe.out_of_order_observations",
        "pipe.errors_coalesced"}) {
    EXPECT_EQ(serial.metrics().counter_value(name),
              parallel.metrics().counter_value(name))
        << name;
  }

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

  an::AnalysisPipeline serial(topo, serial_cfg);
  an::AnalysisPipeline parallel(topo, par_cfg);
  ingest_synthetic(serial, topo, param.seed, 14);
  ingest_synthetic(parallel, topo, param.seed, 14);

  ASSERT_GT(serial.errors().size(), 100u);
  // The storm day split into ranges: a second worker classified some.
  EXPECT_GT(parallel.metrics().counter_value("pipe.worker.1.days_parsed"), 0u);
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
  // Transitivity check at odd worker counts (range partition differs).
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  an::PipelineConfig a_cfg;
  a_cfg.num_threads = 2;
  an::PipelineConfig b_cfg;
  b_cfg.num_threads = 5;
  an::AnalysisPipeline a(topo, a_cfg);
  an::AnalysisPipeline b(topo, b_cfg);
  ingest_synthetic(a, topo, 9, 10);
  ingest_synthetic(b, topo, 9, 10);
  expect_identical(a, b);
}

TEST(ParallelDeterminism, ChunkedDaysMatchWholeDays) {
  // Serve feeds each day in chunks cut at line boundaries; the chunking must
  // not show in errors, lifecycle records or counters at any worker count.
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  an::AnalysisPipeline whole(topo, an::PipelineConfig{});
  ingest_synthetic(whole, topo, 5, 10);
  ASSERT_GT(whole.errors().size(), 100u);
  for (const std::uint32_t threads : {0u, 2u, 7u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    an::PipelineConfig cfg;
    cfg.num_threads = threads;
    an::AnalysisPipeline chunked(topo, cfg);
    ingest_synthetic(chunked, topo, 5, 10, /*chunked=*/true);
    if (threads > 0) {
      EXPECT_GT(chunked.metrics().counter_value("pipe.worker.1.days_parsed"),
                0u);
    }
    expect_identical(whole, chunked);
    EXPECT_EQ(rendered_artifacts(whole), rendered_artifacts(chunked));
  }
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
