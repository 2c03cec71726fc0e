// End-to-end pipeline on synthetic raw artifacts (no simulator): Stage I-III
// from hand-written log text and accounting lines.
#include <gtest/gtest.h>

#include "analysis/pipeline.h"
#include "analysis/reports.h"
#include "logsys/syslog.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace sl = gpures::slurm;
namespace ls = gpures::logsys;

namespace {

struct Fixture {
  cl::Topology topo{cl::ClusterSpec::delta_a100()};
  an::PipelineConfig cfg;

  Fixture() {
    cfg.periods = an::StudyPeriods::delta();
    cfg.coalescer.window = 30;
  }
};

}  // namespace

TEST(Pipeline, ExtractsCoalescesAndResolves) {
  Fixture f;
  an::AnalysisPipeline pipe(f.topo, f.cfg);
  const auto day = ct::make_date(2023, 2, 1);
  std::string text;
  // Three duplicate MMU lines within the window on gpua005 slot 1 -> 1 error.
  for (int i = 0; i < 3; ++i) {
    text += ls::render_xid_line(day + 100 + i * 5, "gpua005", "0000:27:00",
                                gx::Code::kMmuError, "MMU Fault");
    text += '\n';
  }
  // One excluded software XID and one noise line -> rejected/filtered.
  text += ls::render_xid_line(day + 200, "gpua005", "0000:27:00",
                              gx::Code::kGraphicsEngineError, "user bug");
  text += '\n';
  text += "Feb  1 00:05:00 gpua005 sshd[123]: Accepted publickey\n";
  // One line from an unknown host -> counted, dropped.
  text += ls::render_xid_line(day + 300, "badhost", "0000:27:00",
                              gx::Code::kMmuError, "x");
  text += '\n';
  pipe.ingest_log_text(day, text);
  pipe.finish();

  ASSERT_EQ(pipe.errors().size(), 1u);
  EXPECT_EQ(pipe.errors()[0].code, gx::Code::kMmuError);
  EXPECT_EQ(pipe.errors()[0].raw_lines, 3u);
  EXPECT_EQ(pipe.errors()[0].gpu, (gx::GpuId{4, 1}));  // gpua005, slot 1

  const auto& m = pipe.metrics();
  EXPECT_EQ(m.counter_value("pipe.log_lines"), 6u);
  // 3 MMU + 1 XID 13 (filtered later)
  EXPECT_EQ(m.counter_value("pipe.xid_records"), 4u);
  EXPECT_EQ(m.counter_value("pipe.rejected_lines"), 1u);
  EXPECT_EQ(m.counter_value("pipe.unknown_hosts"), 1u);
}

TEST(Pipeline, LifecycleRecordsCollected) {
  Fixture f;
  an::AnalysisPipeline pipe(f.topo, f.cfg);
  const auto day = ct::make_date(2023, 2, 1);
  std::string text = ls::render_drain_line(day + 100, "gpua007") + "\n" +
                     ls::render_resume_line(day + 4000, "gpua007") + "\n";
  pipe.ingest_log_text(day, text);
  pipe.finish();
  ASSERT_EQ(pipe.lifecycle().size(), 2u);
  const auto avail = pipe.availability();
  ASSERT_EQ(avail.intervals.size(), 1u);
  EXPECT_NEAR(avail.mttr_h, 3900.0 / 3600.0, 1e-9);
}

TEST(Pipeline, AccountingIngestion) {
  Fixture f;
  an::AnalysisPipeline pipe(f.topo, f.cfg);
  sl::JobRecord rec;
  rec.id = 1;
  rec.name = "train_model";
  rec.submit = ct::make_date(2023, 2, 1);
  rec.start = rec.submit + 10;
  rec.end = rec.start + 3600;
  rec.gpus = 1;
  rec.nodes = 1;
  rec.node_list = {3};
  rec.gpu_list = {{3, 2}};
  rec.state = sl::JobState::kCompleted;

  pipe.ingest_accounting_line(sl::accounting_header());
  pipe.ingest_accounting_line(sl::to_accounting_line(rec, f.topo));
  pipe.ingest_accounting_line("garbage|line");
  pipe.ingest_accounting_line("");
  pipe.finish();

  EXPECT_EQ(pipe.jobs().jobs.size(), 1u);
  EXPECT_TRUE(pipe.jobs().jobs[0].is_ml);  // name-derived
  EXPECT_EQ(pipe.metrics().counter_value("pipe.accounting_errors"), 1u);
}

TEST(Pipeline, AccountingIngestEdgeCases) {
  // Real sacct dumps are messy: concatenated exports repeat the header
  // mid-stream, Windows tooling leaves CRLF endings, and corrupt rows carry
  // impossible timestamps or states.  None of that may poison the job table.
  Fixture f;
  an::AnalysisPipeline pipe(f.topo, f.cfg);
  sl::JobRecord rec;
  rec.id = 1;
  rec.name = "train_model";
  rec.submit = ct::make_date(2023, 2, 1);
  rec.start = rec.submit + 10;
  rec.end = rec.start + 3600;
  rec.gpus = 1;
  rec.nodes = 1;
  rec.node_list = {3};
  rec.gpu_list = {{3, 2}};
  rec.state = sl::JobState::kCompleted;
  const auto good = sl::to_accounting_line(rec, f.topo);

  pipe.ingest_accounting_line(sl::accounting_header());
  pipe.ingest_accounting_line(good);
  // Duplicated header mid-stream (concatenated dumps): skipped, not an error.
  pipe.ingest_accounting_line(sl::accounting_header());
  // CRLF line ending: trimmed, parsed normally.
  auto crlf = rec;
  crlf.id = 2;
  pipe.ingest_accounting_line(sl::to_accounting_line(crlf, f.topo) + "\r");
  // End before Start: malformed, counted, skipped.
  auto backwards = rec;
  backwards.id = 3;
  backwards.end = backwards.start - 100;
  pipe.ingest_accounting_line(sl::to_accounting_line(backwards, f.topo));
  // Unknown state string: malformed, counted, skipped.
  std::string exploded = good;
  const auto pos = exploded.find("|COMPLETED|");
  ASSERT_NE(pos, std::string::npos);
  exploded.replace(pos, 11, "|EXPLODED|");
  pipe.ingest_accounting_line(exploded);
  // Blank and whitespace-only lines: ignored entirely.
  pipe.ingest_accounting_line("");
  pipe.ingest_accounting_line("   \r");
  pipe.finish();

  EXPECT_EQ(pipe.jobs().jobs.size(), 2u);  // ids 1 and 2 only
  EXPECT_EQ(pipe.metrics().counter_value("pipe.accounting_errors"), 2u);
  // accounting_lines counts everything non-blank, headers included.
  EXPECT_EQ(pipe.metrics().counter_value("pipe.accounting_lines"), 6u);

  // Table III over the surviving jobs is well-formed: both jobs completed
  // with identical 60-minute elapsed, and the corrupt rows left no trace.
  const auto stats = pipe.job_stats();
  EXPECT_EQ(stats.total_jobs, 2u);
  const auto rendered = an::render_table3(stats);
  EXPECT_NE(rendered.find("60.00"), std::string::npos);
  EXPECT_NE(rendered.find("success rate 100.00%"), std::string::npos);
}

TEST(Pipeline, ErrorStatsFlowThrough) {
  Fixture f;
  an::AnalysisPipeline pipe(f.topo, f.cfg);
  // 5 GSP errors in the op period, spaced beyond the window.
  const auto day = ct::make_date(2023, 6, 1);
  std::string text;
  for (int i = 0; i < 5; ++i) {
    text += ls::render_xid_line(day + i * 1000, "gpua001", "0000:07:00",
                                gx::Code::kGspRpcTimeout, "Timeout");
    text += '\n';
  }
  pipe.ingest_log_text(day, text);
  pipe.finish();
  const auto stats = pipe.error_stats();
  EXPECT_EQ(stats.find(gx::Code::kGspRpcTimeout)->op.count, 5u);
  EXPECT_EQ(stats.find(gx::Code::kGspRpcTimeout)->pre.count, 0u);
  // Report renders without crashing and mentions the family.
  const auto table = an::render_table1(stats);
  EXPECT_NE(table.find("GSP"), std::string::npos);
}

TEST(Pipeline, IngestAfterFinishThrows) {
  Fixture f;
  an::AnalysisPipeline pipe(f.topo, f.cfg);
  pipe.finish();
  EXPECT_THROW(pipe.ingest_log_text(0, "x\n"), std::logic_error);
  EXPECT_THROW(pipe.ingest_accounting_line("x"), std::logic_error);
  EXPECT_NO_THROW(pipe.finish());  // idempotent
}

TEST(Pipeline, MultiDayOrderingAndDayBoundary) {
  Fixture f;
  an::AnalysisPipeline pipe(f.topo, f.cfg);
  const auto d1 = ct::make_date(2023, 2, 1);
  const auto d2 = d1 + ct::kDay;
  // Same GPU+code: last record of day 1 and first of day 2 within the
  // window merge across the day boundary.
  pipe.ingest_log_text(
      d1, ls::render_xid_line(d2 - 10, "gpua001", "0000:07:00",
                              gx::Code::kMmuError, "x") + "\n");
  pipe.ingest_log_text(
      d2, ls::render_xid_line(d2 + 10, "gpua001", "0000:07:00",
                              gx::Code::kMmuError, "x") + "\n");
  pipe.finish();
  ASSERT_EQ(pipe.errors().size(), 1u);
  EXPECT_EQ(pipe.errors()[0].raw_lines, 2u);
}
