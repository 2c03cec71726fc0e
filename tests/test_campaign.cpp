// Full-loop integration: simulator -> raw artifacts -> pipeline, validated
// against simulator ground truth and the paper's qualitative findings.
// Uses the quick (90-day) campaign; the full 1170-day reproduction runs in
// the bench harnesses.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <variant>

#include "analysis/campaign.h"
#include "analysis/dataset.h"
#include "analysis/extraction.h"
#include "analysis/reports.h"
#include "common/io.h"
#include "common/strings.h"

namespace an = gpures::analysis;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace fs = std::filesystem;

namespace {

// One shared campaign for all tests in this file (runs once, ~6 s).
class CampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    an::CampaignConfig cfg = an::CampaignConfig::quick();
    cfg.seed = 2025;
    campaign_ = new an::DeltaCampaign(cfg);
    campaign_->run();
  }
  static void TearDownTestSuite() {
    delete campaign_;
    campaign_ = nullptr;
  }
  static an::DeltaCampaign* campaign_;
};

an::DeltaCampaign* CampaignTest::campaign_ = nullptr;

}  // namespace

TEST_F(CampaignTest, PipelineRecoversGroundTruthErrorCount) {
  const auto recovered = campaign_->pipeline().errors().size();
  const auto truth = campaign_->ground_truth().errors.size();
  // Stage I + coalescing should recover the error population within a small
  // tolerance (boundary clipping and window merges account for the slack).
  EXPECT_NEAR(static_cast<double>(recovered), static_cast<double>(truth),
              static_cast<double>(truth) * 0.02);
}

TEST_F(CampaignTest, PerFamilyCountsMatchGroundTruth) {
  std::map<gx::Code, std::uint64_t> truth;
  for (const auto& e : campaign_->ground_truth().errors) {
    ++truth[gx::merge_key(e.code)];
  }
  std::map<gx::Code, std::uint64_t> recovered;
  for (const auto& e : campaign_->pipeline().errors()) {
    ++recovered[e.code];
  }
  for (const auto& [code, n] : truth) {
    const double tol = std::max(5.0, static_cast<double>(n) * 0.05);
    EXPECT_NEAR(static_cast<double>(recovered[code]), static_cast<double>(n),
                tol)
        << "XID " << gx::to_number(code);
  }
}

TEST_F(CampaignTest, StageOneRejectsAllNoise) {
  const auto& m = campaign_->pipeline().metrics();
  EXPECT_GT(m.counter_value("pipe.rejected_lines"), 0u);  // noise existed
  EXPECT_EQ(m.counter_value("pipe.unknown_hosts"), 0u);   // all lines resolved
  EXPECT_EQ(m.counter_value("pipe.accounting_errors"), 0u);  // round-trips
  EXPECT_EQ(m.counter_value("pipe.log_lines"), campaign_->raw_log_lines());
}

TEST_F(CampaignTest, JobsRoundTripThroughAccountingText) {
  EXPECT_EQ(campaign_->pipeline().jobs().jobs.size(),
            campaign_->job_records().size());
  EXPECT_GT(campaign_->job_records().size(), 10000u);
}

TEST_F(CampaignTest, DowntimeIntervalsRecovered) {
  const auto avail = campaign_->pipeline().availability();
  // Ground truth downtime restricted to op period.
  std::size_t truth_op = 0;
  for (const auto& d : campaign_->ground_truth().downtime) {
    if (campaign_->periods().op.contains(d.begin)) ++truth_op;
  }
  EXPECT_NEAR(static_cast<double>(avail.intervals.size()),
              static_cast<double>(truth_op),
              std::max(3.0, static_cast<double>(truth_op) * 0.05));
  // MTTR in a plausible band around the paper's 0.88 h.
  EXPECT_GT(avail.mttr_h, 0.4);
  EXPECT_LT(avail.mttr_h, 1.6);
}

TEST_F(CampaignTest, HeadlineFindingsShapeHolds) {
  const auto stats = campaign_->pipeline().error_stats();
  // Finding (i): op per-node MTBE worse than pre-op (once the faulty-GPU
  // outlier is excluded).
  EXPECT_GT(stats.total.pre.mtbe_per_node_h, stats.total.op.mtbe_per_node_h);
  // Finding (iii): the faulty-GPU episode is detected as an outlier.
  ASSERT_FALSE(stats.outliers.empty());
  EXPECT_EQ(stats.outliers[0].code, gx::Code::kUncontainedEccError);
  EXPECT_GT(stats.outliers[0].share, 0.9);
  // Coalescing: raw lines far exceed errors.
  EXPECT_GT(stats.raw_lines_pre,
            stats.total_with_outliers.pre.count * 5);
}

TEST_F(CampaignTest, GspAlwaysKillsItsJob) {
  const auto impact = campaign_->pipeline().job_impact();
  const auto* gsp = impact.find(gx::Code::kGspRpcTimeout);
  ASSERT_NE(gsp, nullptr);
  if (gsp->encountering_jobs >= 5) {
    // Effectively every GSP-encountering job dies.  Coalescing can stamp a
    // merged error before a job's start (the leader line belonged to the
    // GPU's previous tenant), which shaves off the odd attribution — the
    // paper's 100% on 31 samples would not resolve that either.
    EXPECT_GE(gsp->failure_probability, 0.98);
  }
}

TEST_F(CampaignTest, MmuFailureProbabilityNearPaper) {
  const auto impact = campaign_->pipeline().job_impact();
  const auto* mmu = impact.find(gx::Code::kMmuError);
  ASSERT_NE(mmu, nullptr);
  ASSERT_GT(mmu->encountering_jobs, 50u);
  EXPECT_NEAR(mmu->failure_probability, 0.905, 0.06);
}

TEST_F(CampaignTest, NvlinkSubstantiallySurvivable) {
  const auto impact = campaign_->pipeline().job_impact();
  const auto* nvl = impact.find(gx::Code::kNvlinkError);
  ASSERT_NE(nvl, nullptr);
  if (nvl->encountering_jobs >= 20) {
    // Paper: ~54% fail, ~46% survive.  The quick campaign's storms are
    // deliberately small (see test_config), so jobs see fewer exposures and
    // the per-job probability sits below the full campaign's ~54%; the
    // property under test is that NVLink is substantially survivable while
    // still killing some jobs.
    EXPECT_GT(nvl->failure_probability, 0.03);
    EXPECT_LT(nvl->failure_probability, 0.9);
  }
}

TEST_F(CampaignTest, JobPopulationMatchesTable3Shape) {
  const auto stats = campaign_->pipeline().job_stats();
  EXPECT_NEAR(stats.single_gpu_share, 0.6986, 0.02);
  EXPECT_NEAR(stats.small_multi_gpu_share, 0.2731, 0.02);
  EXPECT_NEAR(stats.success_rate, 0.7468, 0.02);
  // Single-GPU bucket medians land near the paper's 10.15 min.
  EXPECT_NEAR(stats.buckets[0].p50_minutes, 10.15, 2.0);
}

TEST_F(CampaignTest, AvailabilityNear995) {
  const auto avail = campaign_->pipeline().availability();
  const double a =
      avail.availability(campaign_->pipeline().mttf_estimate_h());
  EXPECT_GT(a, 0.985);
  EXPECT_LT(a, 0.9999);
}

TEST_F(CampaignTest, ReportsRenderEndToEnd) {
  const auto& pipe = campaign_->pipeline();
  EXPECT_FALSE(an::render_table1(pipe.error_stats()).empty());
  EXPECT_FALSE(an::render_findings(pipe.error_stats()).empty());
  EXPECT_FALSE(an::render_table2(pipe.job_impact()).empty());
  EXPECT_FALSE(an::render_table3(pipe.job_stats()).empty());
  EXPECT_FALSE(
      an::render_fig2(pipe.availability(), pipe.mttf_estimate_h()).empty());
}

// Determinism is a separate fixture-free test: two small campaigns with the
// same seed must agree exactly.
TEST(CampaignDeterminism, SameSeedSameResults) {
  an::CampaignConfig cfg = an::CampaignConfig::quick();
  cfg.seed = 7;
  cfg.workload_scale *= 0.2;  // keep this test fast
  an::DeltaCampaign a(cfg);
  an::DeltaCampaign b(cfg);
  a.run();
  b.run();
  EXPECT_EQ(a.raw_log_lines(), b.raw_log_lines());
  EXPECT_EQ(a.pipeline().errors().size(), b.pipeline().errors().size());
  EXPECT_EQ(a.job_records().size(), b.job_records().size());
  ASSERT_GE(a.pipeline().errors().size(), 10u);
  for (std::size_t i = 0; i < a.pipeline().errors().size(); ++i) {
    EXPECT_EQ(a.pipeline().errors()[i].time, b.pipeline().errors()[i].time);
    EXPECT_EQ(a.pipeline().errors()[i].gpu, b.pipeline().errors()[i].gpu);
  }
}

TEST(CampaignRegexParser, AgreesWithFastParserOnEveryCampaignLine) {
  // The std::regex Stage-I reference and the fast scanner must classify
  // every syslog line a whole campaign emits identically, field for field.
  // Stage I is per line, so this covers every error, lifecycle record and
  // rejection the pipeline derives from them.
  an::CampaignConfig cfg = an::CampaignConfig::quick();
  cfg.with_jobs = false;
  cfg.seed = 77;
  const auto dir = fs::temp_directory_path() /
                   ("gpures_regex_diff_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  an::DeltaCampaign campaign(cfg);
  {
    an::DatasetManifest m;
    m.spec = cfg.spec;
    m.periods = campaign.periods();
    an::DatasetWriter writer(dir, m);
    campaign.set_dataset_writer(&writer);
    campaign.run();
    ASSERT_TRUE(writer.finalize().ok());
  }

  const an::FastLineParser fast;
  const an::RegexLineParser ref;
  std::uint64_t lines = 0, records = 0, mismatches = 0;
  std::string first_mismatch;
  for (const auto& entry : fs::directory_iterator(dir / "syslog")) {
    const auto day = an::day_file_date(entry.path().filename().string());
    ASSERT_TRUE(day.has_value()) << entry.path();
    const auto text = ct::read_file(entry.path().string());
    ASSERT_TRUE(text.ok());
    for (const auto line : ct::split(text.value(), '\n')) {
      if (line.empty()) continue;
      ++lines;
      const auto a = fast.parse(line, *day);
      const auto b = ref.parse(line, *day);
      bool same = a.has_value() == b.has_value();
      if (same && a) {
        same = a->index() == b->index();
        if (same && a->index() == 0) {
          const auto& xa = std::get<an::XidRecord>(*a);
          const auto& xb = std::get<an::XidRecord>(*b);
          same = xa.time == xb.time && xa.host == xb.host &&
                 xa.pci == xb.pci && xa.xid == xb.xid &&
                 xa.detail == xb.detail;
        } else if (same) {
          const auto& la = std::get<an::LifecycleRecord>(*a);
          const auto& lb = std::get<an::LifecycleRecord>(*b);
          same = la.time == lb.time && la.host == lb.host && la.kind == lb.kind;
        }
      }
      if (a) ++records;
      if (!same && mismatches++ == 0) first_mismatch = std::string(line);
    }
  }
  fs::remove_all(dir);
  EXPECT_EQ(mismatches, 0u) << "first: \"" << first_mismatch << '"';
  // The differential saw exactly the lines the pipeline ingested.
  EXPECT_EQ(lines,
            campaign.pipeline().metrics().counter_value("pipe.log_lines"));
  EXPECT_GT(records, 1000u);
}

TEST(CampaignNoJobs, ClusterOnlyCampaignWorks) {
  an::CampaignConfig cfg = an::CampaignConfig::quick();
  cfg.with_jobs = false;
  an::DeltaCampaign c(cfg);
  c.run();
  EXPECT_GT(c.pipeline().errors().size(), 100u);
  EXPECT_TRUE(c.job_records().empty());
  EXPECT_EQ(c.jobs_killed_by_errors(), 0u);
  const auto impact = c.pipeline().job_impact();
  EXPECT_EQ(impact.jobs_analyzed, 0u);
}
