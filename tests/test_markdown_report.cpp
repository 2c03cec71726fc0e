// Markdown report generation.
#include <gtest/gtest.h>

#include "analysis/markdown_report.h"
#include "analysis/pipeline.h"
#include "logsys/syslog.h"
#include "obs/metrics.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace ls = gpures::logsys;
namespace sl = gpures::slurm;

namespace {

struct Fixture {
  cl::Topology topo{cl::ClusterSpec::delta_a100()};
  an::AnalysisPipeline pipe;

  Fixture() : pipe(topo, make_config()) {
    const auto day = ct::make_date(2023, 2, 1);
    std::string text;
    for (int i = 0; i < 10; ++i) {
      text += ls::render_xid_line(day + i * 1000, "gpua003", "0000:07:00",
                                  gx::Code::kGspRpcTimeout, "Timeout");
      text += '\n';
    }
    text += ls::render_drain_line(day + 20000, "gpua003") + "\n";
    text += ls::render_resume_line(day + 23000, "gpua003") + "\n";
    pipe.ingest_log_text(day, text);

    sl::JobRecord rec;
    rec.id = 1;
    rec.name = "train_model";
    rec.submit = day;
    rec.start = day + 10;
    rec.end = day + 3600;
    rec.gpus = 1;
    rec.nodes = 1;
    rec.node_list = {2};
    rec.gpu_list = {{2, 0}};
    rec.state = sl::JobState::kCompleted;
    pipe.ingest_accounting_line(sl::to_accounting_line(rec, topo));
    pipe.finish();
  }

  static an::PipelineConfig make_config() {
    an::PipelineConfig cfg;
    cfg.periods = an::StudyPeriods::delta();
    return cfg;
  }
};

}  // namespace

TEST(MarkdownReport, AllSectionsPresent) {
  Fixture f;
  an::Stage3Results results(f.pipe);
  const auto md = an::render_markdown_report(results);
  EXPECT_TRUE(md.rfind("# GPU resilience characterization", 0) == 0);
  for (const char* heading :
       {"## Error counts and MTBE (Table I)", "## Headline findings",
        "## GPU error impact on jobs (Table II)",
        "## Job population (Table III)",
        "## Unavailability and availability (Fig. 2)",
        "## Trends, burstiness, concentration", "## Survival analysis",
        "## Mitigation what-ifs"}) {
    EXPECT_NE(md.find(heading), std::string::npos) << heading;
  }
  // Fenced code blocks are balanced.
  int fences = 0;
  for (std::size_t p = md.find("```"); p != std::string::npos;
       p = md.find("```", p + 3)) {
    ++fences;
  }
  EXPECT_EQ(fences % 2, 0);
  EXPECT_GE(fences, 16);
}

TEST(MarkdownReport, SectionsAreTheCatalogReportsOverOneJoin) {
  // Each section body is its --report block, in catalog order, and the
  // document and the reports share the holder's one exposure join.
  Fixture f;
  an::Stage3Results results(f.pipe);
  const auto md = an::render_markdown_report(results);
  const auto catalog = an::report_catalog();
  std::size_t pos = 0;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto* body = results.report(i);
    ASSERT_NE(body, nullptr) << catalog[i].name;
    const auto section =
        "## " + std::string(catalog[i].heading) + "\n\n```\n" + *body;
    const auto at = md.find(section, pos);
    ASSERT_NE(at, std::string::npos) << catalog[i].name;
    pos = at + section.size();
  }
  EXPECT_EQ(f.pipe.metrics()
                .histogram("pipe.stage3.exposure_join_us",
                           gpures::obs::latency_buckets_us())
                .count(),
            1u);
  EXPECT_EQ(f.pipe.metrics().counter_value("pipe.stage3.exposures"), 1u);
}

TEST(MarkdownReport, JobSectionsSkippedWithoutJobs) {
  cl::Topology topo{cl::ClusterSpec::delta_a100()};
  an::AnalysisPipeline pipe(topo, Fixture::make_config());
  pipe.ingest_log_text(
      ct::make_date(2023, 2, 1),
      ls::render_xid_line(ct::make_date(2023, 2, 1) + 10, "gpua001",
                          "0000:07:00", gx::Code::kMmuError, "x") +
          "\n");
  pipe.finish();
  an::Stage3Results results(pipe);
  const auto md = an::render_markdown_report(results);
  EXPECT_EQ(md.find("Table II"), std::string::npos);
  EXPECT_EQ(md.find("Table III"), std::string::npos);
  EXPECT_EQ(md.find("Mitigation"), std::string::npos);
  EXPECT_NE(md.find("Table I"), std::string::npos);
}

TEST(MarkdownReport, ScorecardSectionOptIn) {
  Fixture f;
  an::Stage3Results results(f.pipe);
  an::MarkdownReportOptions opts;
  opts.include_scorecard = true;
  const auto md = an::render_markdown_report(results, opts);
  EXPECT_NE(md.find("## Reproduction scorecard"), std::string::npos);
  EXPECT_NE(md.find("shape match:"), std::string::npos);
}
