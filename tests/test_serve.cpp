// Follow-mode serve session: the daemon's results must be byte-identical to
// the batch pipeline over the same final dataset bytes — through checkpoints,
// abandoned sessions, appends, torn tails, transient I/O faults, and thread
// counts.  Permanent faults degrade sources instead of failing the run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/pipeline.h"
#include "chaos/chaos.h"
#include "cluster/topology.h"
#include "common/io.h"
#include "common/rng.h"
#include "common/time.h"
#include "logsys/syslog.h"
#include "serve/serve.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace ch = gpures::chaos;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace ls = gpures::logsys;
namespace sl = gpures::slurm;
namespace sv = gpures::serve;
namespace fs = std::filesystem;

namespace {

const ct::TimePoint kDay0 = ct::make_date(2023, 6, 1);

fs::path temp_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("gpures_serve_" + name);
  fs::remove_all(dir);
  return dir;
}

/// Same shape as the chaos-suite fixture: every day has XIDs and lifecycle
/// lines on known GPUs, and the accounting dump has parseable jobs.
fs::path make_dataset(const std::string& name, int n_days) {
  const auto dir = temp_dir(name);
  an::DatasetManifest m;
  m.spec = cl::ClusterSpec::small(2, 0);
  m.periods = an::StudyPeriods::make(kDay0, kDay0 + 2 * ct::kDay,
                                     kDay0 + n_days * ct::kDay);
  const cl::Topology topo(m.spec);
  an::DatasetWriter w(dir, m);
  for (int d = 0; d < n_days; ++d) {
    const auto day = kDay0 + d * ct::kDay;
    std::vector<ls::RawLine> lines;
    lines.push_back({day + 3600,
                     ls::render_xid_line(day + 3600, "gpua001",
                                         topo.pci_bus({0, d % 4}),
                                         gx::Code::kGspRpcTimeout,
                                         "Timeout waiting for RPC from GSP!")});
    lines.push_back({day + 7200,
                     ls::render_xid_line(day + 7200, "gpua002",
                                         topo.pci_bus({1, (d + 1) % 4}),
                                         gx::Code::kUncontainedEccError,
                                         "Uncontained ECC error")});
    lines.push_back({day + 9000, ls::render_drain_line(day + 9000, "gpua002")});
    lines.push_back({day + 9600, ls::render_resume_line(day + 9600, "gpua002")});
    w.write_day(day, lines);
  }
  w.write_accounting_line(sl::accounting_header());
  for (int j = 0; j < 6; ++j) {
    sl::JobRecord rec;
    rec.id = static_cast<sl::JobId>(100 + j);
    rec.name = "job" + std::to_string(j);
    rec.submit = kDay0 + j * 600;
    rec.start = rec.submit + 60;
    rec.end = rec.start + 3600;
    rec.gpus = 1;
    rec.nodes = 1;
    rec.node_list = {j % 2};
    rec.gpu_list = {{j % 2, j % 4}};
    w.write_accounting_line(sl::to_accounting_line(rec, topo));
  }
  const auto st = w.finalize();
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  return dir;
}

/// A long-window dataset: `n_days` days of XID, lifecycle and noise lines
/// on four nodes, and an accounting dump whose job table (with spilled GPU
/// lists) is a sizable share of the emitted results.
fs::path make_long_dataset(const std::string& name, int n_days) {
  const auto dir = temp_dir(name);
  an::DatasetManifest m;
  m.spec = cl::ClusterSpec::small(4, 0);
  m.periods = an::StudyPeriods::make(kDay0, kDay0 + 30 * ct::kDay,
                                     kDay0 + n_days * ct::kDay);
  const cl::Topology topo(m.spec);
  an::DatasetWriter w(dir, m);
  ct::Rng rng(2025);
  const char* hosts[] = {"gpua001", "gpua002", "gpua003", "gpua004"};
  for (int d = 0; d < n_days; ++d) {
    const auto day = kDay0 + d * ct::kDay;
    std::vector<ls::RawLine> lines;
    for (int i = 0; i < 96; ++i) {
      const auto t = day + 900 * i;
      const int node = (d + i) % 4;
      lines.push_back({t, ls::render_noise_line(rng, t, hosts[node])});
      if (i % 4 == 0) {
        lines.push_back({t + 7, ls::render_xid_line(
                                    t + 7, hosts[node],
                                    topo.pci_bus({node, i % 4}),
                                    gx::Code::kGspRpcTimeout,
                                    "Timeout waiting for RPC from GSP!")});
      }
    }
    lines.push_back({day + 9000, ls::render_drain_line(day + 9000, hosts[d % 4])});
    lines.push_back(
        {day + 9600, ls::render_resume_line(day + 9600, hosts[d % 4])});
    w.write_day(day, lines);
  }
  w.write_accounting_line(sl::accounting_header());
  for (int j = 0; j < 10 * n_days; ++j) {
    sl::JobRecord rec;
    rec.id = static_cast<sl::JobId>(1000 + j);
    rec.name = j % 3 == 0 ? "train-model" : "simulate";
    rec.submit = kDay0 + j * 8640;
    rec.start = rec.submit + 60;
    rec.end = rec.start + 7200;
    if (j % 5 == 0) {  // wide: spilled GPU list
      rec.gpus = 8;
      rec.nodes = 2;
      rec.node_list = {j % 3, j % 3 + 1};
      for (const int n : rec.node_list) {
        for (int g = 0; g < 4; ++g) rec.gpu_list.push_back({n, g});
      }
    } else {
      rec.gpus = 1;
      rec.nodes = 1;
      rec.node_list = {j % 4};
      rec.gpu_list = {{j % 4, j % 4}};
    }
    w.write_accounting_line(sl::to_accounting_line(rec, topo));
  }
  const auto st = w.finalize();
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  return dir;
}

fs::path day_file(const fs::path& dir, int d) {
  return dir / "syslog" /
         ("syslog-" + ct::format_date(kDay0 + d * ct::kDay) + ".log");
}

void append_raw(const fs::path& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

struct BatchOutcome {
  std::vector<an::CoalescedError> errors;
  std::size_t lifecycle = 0;
  std::size_t jobs = 0;
  an::DataQualityReport quality;
};

BatchOutcome batch_load(const fs::path& dir, std::uint32_t threads = 0) {
  BatchOutcome out;
  const auto m = an::read_manifest(dir);
  EXPECT_TRUE(m.ok()) << (m.ok() ? "" : m.error().message);
  const cl::Topology topo(m.value().spec);
  an::PipelineConfig pcfg;
  pcfg.periods = m.value().periods;
  pcfg.num_threads = threads;
  an::AnalysisPipeline pipe(topo, pcfg);
  an::IngestOptions opt;
  opt.policy = an::IngestPolicy::kLenient;
  opt.expect_begin = m.value().periods.pre.begin;
  opt.expect_end = m.value().periods.op.end;
  opt.quality = &out.quality;
  const auto loaded = an::load_dataset(dir, pipe, opt);
  EXPECT_TRUE(loaded.ok()) << (loaded.ok() ? "" : loaded.error().message);
  out.errors = pipe.errors();
  out.lifecycle = pipe.lifecycle().size();
  out.jobs = pipe.jobs().jobs.size();
  return out;
}

sv::ServeConfig base_config(const fs::path& dir, std::uint32_t threads) {
  sv::ServeConfig cfg;
  cfg.data_dir = dir;
  cfg.threads = threads;
  cfg.retry.backoff_ms = 1;
  cfg.retry.backoff_max_ms = 2;
  cfg.sleep_ms = [](std::uint64_t) {};  // fault tests run at full speed
  return cfg;
}

struct ServeOutcome {
  bool ok = false;
  ct::Error error;
  std::vector<an::CoalescedError> errors;
  std::size_t lifecycle = 0;
  std::size_t jobs = 0;
  std::uint64_t degraded = 0;
  an::DataQualityReport quality;
};

/// Tick to idle (the --once loop), then finalize.
ServeOutcome run_once(sv::ServeConfig cfg) {
  ServeOutcome out;
  sv::ServeSession s(std::move(cfg));
  auto st = s.open(false);
  if (!st.ok()) {
    out.error = st.error();
    return out;
  }
  for (int i = 0; i < 4096 && !s.idle(); ++i) {
    st = s.tick();
    if (!st.ok()) {
      out.error = st.error();
      return out;
    }
  }
  EXPECT_TRUE(s.idle()) << "session failed to reach idle";
  st = s.finalize();
  if (!st.ok()) {
    out.error = st.error();
    return out;
  }
  out.ok = true;
  out.errors = s.errors();
  out.lifecycle = s.lifecycle().size();
  out.jobs = s.jobs().jobs.size();
  out.degraded = s.degraded_count();
  out.quality = s.quality();
  return out;
}

void expect_same_errors(const std::vector<an::CoalescedError>& got,
                        const std::vector<an::CoalescedError>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << i;
    EXPECT_EQ(got[i].last, want[i].last) << i;
    EXPECT_EQ(got[i].gpu, want[i].gpu) << i;
    EXPECT_EQ(got[i].code, want[i].code) << i;
    EXPECT_EQ(got[i].raw_xid, want[i].raw_xid) << i;
    EXPECT_EQ(got[i].raw_lines, want[i].raw_lines) << i;
  }
}

void expect_matches_batch(const ServeOutcome& serve, const BatchOutcome& batch) {
  expect_same_errors(serve.errors, batch.errors);
  EXPECT_EQ(serve.lifecycle, batch.lifecycle);
  EXPECT_EQ(serve.jobs, batch.jobs);
  EXPECT_EQ(serve.quality.to_json(), batch.quality.to_json());
}

}  // namespace

TEST(Serve, OnceMatchesBatchPipelineAtAnyThreadCount) {
  const auto dir = make_dataset("once_batch", 4);
  const BatchOutcome batch = batch_load(dir);
  ASSERT_FALSE(batch.errors.empty());
  for (const std::uint32_t threads : {0u, 4u}) {
    const ServeOutcome serve = run_once(base_config(dir, threads));
    ASSERT_TRUE(serve.ok) << "threads " << threads << ": "
                          << serve.error.message;
    expect_matches_batch(serve, batch);
  }
  fs::remove_all(dir);
}

TEST(Serve, TinyChunksDoNotChangeResults) {
  const auto dir = make_dataset("tiny_chunks", 3);
  const BatchOutcome batch = batch_load(dir);
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.max_chunk_bytes = 48;  // several reads per day file, cut mid-line
  const ServeOutcome serve = run_once(std::move(cfg));
  ASSERT_TRUE(serve.ok) << serve.error.message;
  expect_matches_batch(serve, batch);
  fs::remove_all(dir);
}

TEST(Serve, AbandonedSessionResumesToIdenticalResults) {
  const auto dir = make_dataset("resume", 4);
  const auto ckpt = temp_dir("resume_ckpt");
  const BatchOutcome batch = batch_load(dir);

  for (const int kill_after : {1, 2, 3, 5}) {
    fs::remove_all(ckpt);
    {
      // First incarnation: checkpoint every tick, small chunks so ingestion
      // spans many ticks, then vanish without finalize — like kill -9.
      sv::ServeConfig cfg = base_config(dir, 4);
      cfg.checkpoint_dir = ckpt;
      cfg.checkpoint_interval = 1;
      cfg.max_chunk_bytes = 64;
      sv::ServeSession s(std::move(cfg));
      ASSERT_TRUE(s.open(false).ok());
      for (int i = 0; i < kill_after; ++i) {
        const auto st = s.tick();
        ASSERT_TRUE(st.ok()) << st.error().message;
      }
    }
    // Second incarnation resumes — at a *different* thread count — and must
    // land on the same bytes as batch.
    sv::ServeConfig cfg = base_config(dir, 0);
    cfg.checkpoint_dir = ckpt;
    cfg.checkpoint_interval = 1;
    cfg.max_chunk_bytes = 64;
    ServeOutcome out;
    sv::ServeSession s(std::move(cfg));
    ASSERT_TRUE(s.open(true).ok());
    for (int i = 0; i < 4096 && !s.idle(); ++i) {
      const auto st = s.tick();
      ASSERT_TRUE(st.ok()) << st.error().message;
    }
    ASSERT_TRUE(s.finalize().ok());
    EXPECT_GT(s.checkpoint_seq(), 0u) << "resume did not find a checkpoint";
    out.errors = s.errors();
    out.lifecycle = s.lifecycle().size();
    out.jobs = s.jobs().jobs.size();
    out.quality = s.quality();
    out.ok = true;
    expect_matches_batch(out, batch);
  }
  fs::remove_all(dir);
  fs::remove_all(ckpt);
}

// Checkpoints cost O(delta): over a year-long drain at the default cadence,
// every generation together writes fewer bytes than were ingested.  A
// full-history checkpoint rewrites the job table every generation and
// writes several times the ingested bytes here.
TEST(Serve, CheckpointBytesStayBelowIngestOverAYear) {
  const auto dir = make_long_dataset("year", 400);
  const auto ckpt = temp_dir("year_ckpt");
  const BatchOutcome batch = batch_load(dir);
  ASSERT_GT(batch.jobs, 1000u);

  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.checkpoint_dir = ckpt;
  cfg.max_chunk_bytes = 64 << 10;  // the accounting tail spans many ticks
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  for (int i = 0; i < 8192 && !s.idle(); ++i) {
    const auto st = s.tick();
    ASSERT_TRUE(st.ok()) << st.error().message;
  }
  ASSERT_TRUE(s.idle());
  ASSERT_TRUE(s.checkpoint_now().ok());
  ASSERT_TRUE(s.finalize().ok());
  // After finalize() the results are sorted: checkpoint_now is a no-op.
  const auto& reg = s.metrics();
  const std::uint64_t writes = reg.counter_value("serve.checkpoint.writes");
  ASSERT_TRUE(s.checkpoint_now().ok());
  EXPECT_EQ(reg.counter_value("serve.checkpoint.writes"), writes);

  const std::uint64_t ckpt_bytes = reg.counter_value("serve.checkpoint.bytes");
  const std::uint64_t ingested = reg.counter_value("serve.bytes_ingested");
  EXPECT_GE(writes, 25u);
  EXPECT_EQ(reg.counter_value("serve.checkpoint.failures"), 0u);
  EXPECT_LT(ckpt_bytes, ingested)
      << writes << " generations wrote " << ckpt_bytes << " bytes for "
      << ingested << " ingested";

  ServeOutcome out;
  out.errors = s.errors();
  out.lifecycle = s.lifecycle().size();
  out.jobs = s.jobs().jobs.size();
  out.quality = s.quality();
  expect_matches_batch(out, batch);
  fs::remove_all(dir);
  fs::remove_all(ckpt);
}

// open(resume=false) starts over: the previous run's generations and
// segments are cleared before the first write, so a later resume never
// mixes two runs.
TEST(Serve, FreshStartClearsThePreviousRunsCheckpoints) {
  const auto dir = make_dataset("fresh_ckpt", 4);
  const auto ckpt = temp_dir("fresh_ckpt_dir");
  const BatchOutcome batch = batch_load(dir);
  {
    sv::ServeConfig cfg = base_config(dir, 0);
    cfg.checkpoint_dir = ckpt;
    cfg.checkpoint_interval = 1;
    cfg.max_chunk_bytes = 64;
    sv::ServeSession s(std::move(cfg));
    ASSERT_TRUE(s.open(false).ok());
    for (int i = 0; i < 4096 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
    ASSERT_GT(s.checkpoint_seq(), 3u);
  }
  {
    sv::ServeConfig cfg = base_config(dir, 0);
    cfg.checkpoint_dir = ckpt;
    cfg.checkpoint_interval = 1;
    cfg.max_chunk_bytes = 64;
    sv::ServeSession s(std::move(cfg));
    ASSERT_TRUE(s.open(false).ok());
    ASSERT_TRUE(s.tick().ok());
    EXPECT_EQ(s.checkpoint_seq(), 1u);
    EXPECT_EQ(s.metrics().counter_value("serve.checkpoint.failures"), 0u);
  }
  std::vector<std::string> generations;
  for (const auto& e : fs::directory_iterator(ckpt)) {
    const auto name = e.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0) generations.push_back(name);
  }
  EXPECT_EQ(generations, std::vector<std::string>{"ckpt-00000001.bin"});

  sv::ServeConfig cfg = base_config(dir, 4);
  cfg.checkpoint_dir = ckpt;
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(true).ok());
  EXPECT_EQ(s.checkpoint_seq(), 1u);
  for (int i = 0; i < 4096 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.finalize().ok());
  ServeOutcome out;
  out.errors = s.errors();
  out.lifecycle = s.lifecycle().size();
  out.jobs = s.jobs().jobs.size();
  out.quality = s.quality();
  expect_matches_batch(out, batch);
  fs::remove_all(dir);
  fs::remove_all(ckpt);
}

TEST(Serve, ResumeRejectsChangedAnalysisConfig) {
  const auto dir = make_dataset("cfg_guard", 3);
  const auto ckpt = temp_dir("cfg_guard_ckpt");
  {
    sv::ServeConfig cfg = base_config(dir, 0);
    cfg.checkpoint_dir = ckpt;
    cfg.checkpoint_interval = 1;
    sv::ServeSession s(std::move(cfg));
    ASSERT_TRUE(s.open(false).ok());
    ASSERT_TRUE(s.tick().ok());
    ASSERT_TRUE(s.checkpoint_now().ok());
  }
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.checkpoint_dir = ckpt;
  cfg.coalescer.window = 120;  // result-affecting change
  sv::ServeSession s(std::move(cfg));
  const auto st = s.open(true);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.error().message.find("different configuration"),
            std::string::npos)
      << st.error().message;
  fs::remove_all(dir);
  fs::remove_all(ckpt);
}

TEST(Serve, ConfigHashIgnoresThreadsAndChunking) {
  const auto dir = make_dataset("cfg_hash", 3);
  sv::ServeConfig a = base_config(dir, 0);
  sv::ServeConfig b = base_config(dir, 8);
  b.max_chunk_bytes = 128;
  b.retry.max_attempts = 9;
  sv::ServeConfig c = base_config(dir, 0);
  c.coalescer.window = 120;
  sv::ServeSession sa(std::move(a)), sb(std::move(b)), sc(std::move(c));
  EXPECT_EQ(sa.config_hash(), sb.config_hash());
  EXPECT_NE(sa.config_hash(), sc.config_hash());
  fs::remove_all(dir);
}

TEST(Serve, FollowModeIngestsAppendsAndSplitLines) {
  const auto dir = make_dataset("follow", 3);
  const cl::Topology topo(cl::ClusterSpec::small(2, 0));
  const auto last_day = kDay0 + 2 * ct::kDay;  // still-growing newest file
  const std::string line1 =
      ls::render_xid_line(last_day + 50000, "gpua001", topo.pci_bus({0, 2}),
                          gx::Code::kGspRpcTimeout, "late RPC timeout");
  const std::string line2 = ls::render_drain_line(last_day + 50100, "gpua001");

  sv::ServeConfig cfg = base_config(dir, 0);
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.idle());

  // The producer appends half a line; the daemon must hold the fragment.
  append_raw(day_file(dir, 2), line1.substr(0, line1.size() / 2));
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(s.tick().ok());
  // Then the rest arrives, plus a whole second line.
  append_raw(day_file(dir, 2),
             line1.substr(line1.size() / 2) + "\n" + line2 + "\n");
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.finalize().ok());

  // Batch over the final bytes sees exactly the same stream.
  const BatchOutcome batch = batch_load(dir);
  ServeOutcome out;
  out.errors = s.errors();
  out.lifecycle = s.lifecycle().size();
  out.jobs = s.jobs().jobs.size();
  out.quality = s.quality();
  expect_matches_batch(out, batch);
  fs::remove_all(dir);
}

TEST(Serve, TransientFaultsAreAbsorbedByRetry) {
  const auto dir = make_dataset("transient", 3);
  const BatchOutcome batch = batch_load(dir);
  const struct {
    ct::IoFaultKind kind;
    std::uint64_t bytes;
    std::uint32_t times;
  } cases[] = {
      {ct::IoFaultKind::kTransient, 0, 2},
      {ct::IoFaultKind::kEintr, 10, 2},
      {ct::IoFaultKind::kShortRead, 10, 1},
  };
  for (const auto& c : cases) {
    ct::IoFaultPlan plan;
    plan.path_substring = "syslog-2023-06-02";
    plan.fail_after_bytes = c.bytes;
    plan.kind = c.kind;
    plan.times = c.times;
    ct::set_io_fault_plan(&plan);
    sv::ServeConfig cfg = base_config(dir, 0);
    cfg.retry.max_attempts = 5;
    const ServeOutcome serve = run_once(std::move(cfg));
    ct::set_io_fault_plan(nullptr);
    ASSERT_TRUE(serve.ok) << ct::to_string(c.kind) << ": "
                          << serve.error.message;
    EXPECT_EQ(serve.degraded, 0u) << ct::to_string(c.kind);
    expect_matches_batch(serve, batch);
  }
  fs::remove_all(dir);
}

TEST(Serve, PermanentFaultDegradesSourceAndKeepsServing) {
  const auto dir = make_dataset("degrade", 3);
  const BatchOutcome batch = batch_load(dir);
  ct::IoFaultPlan plan;
  plan.path_substring = "syslog-2023-06-02";  // middle day, permanent failure
  plan.kind = ct::IoFaultKind::kFail;
  ct::set_io_fault_plan(&plan);
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.retry.max_attempts = 2;
  cfg.reprobe_ticks = 1000000;  // keep it quarantined for this run
  std::vector<std::string> warns;
  cfg.warn = [&](const std::string& w) { warns.push_back(w); };
  const ServeOutcome serve = run_once(std::move(cfg));
  ct::set_io_fault_plan(nullptr);

  ASSERT_TRUE(serve.ok) << serve.error.message;
  EXPECT_EQ(serve.degraded, 1u);
  ASSERT_EQ(serve.quality.degraded_sources.size(), 1u);
  EXPECT_EQ(serve.quality.degraded_sources[0].name, "syslog-2023-06-02.log");
  EXPECT_EQ(serve.quality.degraded_sources[0].bytes_ingested, 0u);
  ASSERT_EQ(serve.quality.skipped_days.size(), 1u);
  EXPECT_EQ(serve.quality.skipped_days[0].date, "2023-06-02");
  bool warned = false;
  for (const auto& w : warns) {
    if (w.find("degrading source") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);

  // Every other day still served: batch errors minus the quarantined day.
  std::vector<an::CoalescedError> want;
  const auto day1 = kDay0 + ct::kDay;
  for (const auto& e : batch.errors) {
    if (e.time < day1 || e.time >= day1 + ct::kDay) want.push_back(e);
  }
  expect_same_errors(serve.errors, want);
  fs::remove_all(dir);
}

TEST(Serve, StrictModeTurnsExhaustedRetryFatal) {
  const auto dir = make_dataset("strict_fault", 3);
  ct::IoFaultPlan plan;
  plan.path_substring = "syslog-2023-06-01";
  plan.kind = ct::IoFaultKind::kFail;
  ct::set_io_fault_plan(&plan);
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.policy = an::IngestPolicy::kStrict;
  cfg.retry.max_attempts = 2;
  const ServeOutcome serve = run_once(std::move(cfg));
  ct::set_io_fault_plan(nullptr);
  ASSERT_FALSE(serve.ok);
  EXPECT_NE(serve.error.message.find("dataset: cannot read"), std::string::npos)
      << serve.error.message;
  fs::remove_all(dir);
}

TEST(Serve, StallWatchdogFlagsAndDrainsRotatedTornFragment) {
  const auto dir = make_dataset("stall", 3);
  // A torn fragment at the tail of the *rotated* first day: the producer
  // died mid-write and will never finish the line.
  append_raw(day_file(dir, 0), "Jun  1 23:59:59 gpua001 kernel: torn writ");
  const BatchOutcome batch = batch_load(dir);
  ASSERT_EQ(batch.quality.torn_lines, 1u);

  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.stall_ticks = 3;
  std::vector<std::string> warns;
  cfg.warn = [&](const std::string& w) { warns.push_back(w); };
  const ServeOutcome serve = run_once(std::move(cfg));
  ASSERT_TRUE(serve.ok) << serve.error.message;
  EXPECT_EQ(serve.quality.torn_lines, 1u);
  expect_matches_batch(serve, batch);
  fs::remove_all(dir);
}

TEST(Serve, AccountingTailAppendsAndMalformedRows) {
  const auto dir = make_dataset("acct", 3);
  // One malformed row appended after dataset creation.
  append_raw(dir / "slurm_accounting.txt", "this|is|not|a|row\n");
  const BatchOutcome batch = batch_load(dir);

  const ServeOutcome serve = run_once(base_config(dir, 0));
  ASSERT_TRUE(serve.ok) << serve.error.message;
  EXPECT_EQ(serve.jobs, 6u);
  EXPECT_EQ(serve.quality.accounting_rows_rejected, 1u);
  expect_matches_batch(serve, batch);

  // Strict mode names the malformed row instead.
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.policy = an::IngestPolicy::kStrict;
  const ServeOutcome strict = run_once(std::move(cfg));
  ASSERT_FALSE(strict.ok);
  EXPECT_NE(strict.error.message.find("malformed accounting row"),
            std::string::npos)
      << strict.error.message;
  fs::remove_all(dir);
}

TEST(Serve, LateDayFileIsQuarantinedNotSilentlyDropped) {
  const auto dir = make_dataset("late_day", 3);
  const auto day1_path = day_file(dir, 1);
  std::string day1_bytes;
  {
    auto r = ct::read_file(day1_path.string());
    ASSERT_TRUE(r.ok());
    day1_bytes = std::move(r).take();
  }
  fs::remove(day1_path);

  sv::ServeConfig cfg = base_config(dir, 0);
  std::vector<std::string> warns;
  cfg.warn = [&](const std::string& w) { warns.push_back(w); };
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.idle());

  // The file shows up *after* the frontier passed its slot — too late to
  // ingest deterministically, so it must be degraded, not silently mixed in.
  ASSERT_TRUE(ct::write_text_file(day1_path.string(), day1_bytes).ok());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.finalize().ok());

  EXPECT_GE(s.degraded_count(), 1u);
  bool found = false;
  for (const auto& d : s.quality().degraded_sources) {
    if (d.name == "syslog-2023-06-02.log") {
      found = true;
      EXPECT_NE(d.reason.find("slot"), std::string::npos) << d.reason;
    }
  }
  EXPECT_TRUE(found);
  fs::remove_all(dir);
}

TEST(Serve, StrayFilesAreReportedOnce) {
  const auto dir = make_dataset("strays", 3);
  ASSERT_TRUE(
      ct::write_text_file((dir / "syslog" / "notes.txt").string(), "hi\n")
          .ok());
  const ServeOutcome serve = run_once(base_config(dir, 0));
  ASSERT_TRUE(serve.ok) << serve.error.message;
  ASSERT_EQ(serve.quality.stray_files.size(), 1u);
  EXPECT_EQ(serve.quality.stray_files[0], "notes.txt");
  fs::remove_all(dir);
}

// ---- source discovery ------------------------------------------------------
//
// A tick walks syslog/ only when the directory can hold something new; every
// other tick costs O(1).  The follow-mode tests create a day file and then
// put syslog/'s mtime back, as a filesystem with coarse timestamps leaves
// it, so only the successor probe or the cadence walk can find the file.

namespace {

ServeOutcome outcome_of(const sv::ServeSession& s) {
  ServeOutcome out;
  out.ok = true;
  out.errors = s.errors();
  out.lifecycle = s.lifecycle().size();
  out.jobs = s.jobs().jobs.size();
  out.degraded = s.degraded_count();
  out.quality = s.quality();
  return out;
}

/// Read a day file and remove it, so a test can bring it back later.
std::string take_file(const fs::path& path) {
  auto r = ct::read_file(path.string());
  EXPECT_TRUE(r.ok()) << path;
  fs::remove(path);
  return r.ok() ? std::move(r).take() : std::string();
}

/// Stamp syslog/ an hour back, like a dataset at rest, and return the stamp.
fs::file_time_type age_syslog_dir(const fs::path& dir) {
  const auto stamp = fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(dir / "syslog", stamp);
  return stamp;
}

std::int64_t gauge_of(sv::ServeSession& s, const char* name) {
  return s.metrics().gauge(name).value();
}

}  // namespace

// Over a 400-day drain of a dataset at rest, the full walk runs at open() and
// on the reprobe cadence, not on every tick.  This holds with the default
// chunks and with 64 KiB chunks.  Walking every tick makes the drain
// O(days^2).  syslog/ is aged first: a directory stamped under 50 ms ago
// walks on every tick, which would make the count depend on timing.
TEST(Serve, DirectoryWalksStayRareOverALongDrain) {
  const auto dir = make_long_dataset("walks", 400);
  age_syslog_dir(dir);
  const BatchOutcome batch = batch_load(dir);
  for (const std::uint64_t chunk :
       {std::uint64_t{4} << 20, std::uint64_t{64} << 10}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    sv::ServeConfig cfg = base_config(dir, 0);
    cfg.max_chunk_bytes = chunk;
    sv::ServeSession s(std::move(cfg));
    ASSERT_TRUE(s.open(false).ok());
    for (int i = 0; i < 8192 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
    ASSERT_TRUE(s.idle());
    const std::uint64_t ticks = s.metrics().counter_value("serve.ticks");
    const std::uint64_t walks = s.metrics().counter_value("serve.dir_scans");
    EXPECT_GE(ticks, 400u);
    EXPECT_GE(walks, 1u);  // open() walks
    EXPECT_LE(walks, ticks / 8) << walks << " walks in " << ticks << " ticks";
    ASSERT_TRUE(s.finalize().ok());
    expect_matches_batch(outcome_of(s), batch);
  }
  fs::remove_all(dir);
}

// The next day appears while the newest one sits at EOF, and syslog/'s mtime
// does not move: the successor probe finds it on the very next tick, without
// a walk, and the newest day is sealed before the new one is read.
TEST(Serve, SuccessorDayIsFoundOnTheNextTickWithoutAWalk) {
  const auto dir = make_dataset("successor", 3);
  const std::string day2 = take_file(day_file(dir, 2));
  const auto stamp = age_syslog_dir(dir);
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.reprobe_ticks = 1000;  // no cadence walk during the test
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.idle());
  EXPECT_EQ(gauge_of(s, "serve.sources.sealed"), 1);  // day 1 is the tail
  const std::uint64_t walks = s.metrics().counter_value("serve.dir_scans");

  ASSERT_TRUE(ct::write_text_file(day_file(dir, 2).string(), day2).ok());
  fs::last_write_time(dir / "syslog", stamp);
  ASSERT_TRUE(s.tick().ok());
  EXPECT_EQ(gauge_of(s, "serve.sources.total"), 3);
  EXPECT_EQ(gauge_of(s, "serve.sources.sealed"), 2);
  EXPECT_EQ(s.metrics().counter_value("serve.dir_scans"), walks);

  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.finalize().ok());
  expect_matches_batch(outcome_of(s), batch_load(dir));
  fs::remove_all(dir);
}

// A day after a gap is not the newest day's successor, and the mtime did not
// move: the cadence walk finds it within reprobe_ticks ticks.
TEST(Serve, DayAfterAGapIsFoundByTheCadenceWalk) {
  const auto dir = make_dataset("gap", 4);
  fs::remove(day_file(dir, 2));  // a coverage gap for good
  const std::string day3 = take_file(day_file(dir, 3));
  const auto stamp = age_syslog_dir(dir);
  constexpr std::uint64_t kCadence = 8;
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.reprobe_ticks = kCadence;
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.idle());
  const std::uint64_t walks = s.metrics().counter_value("serve.dir_scans");

  ASSERT_TRUE(ct::write_text_file(day_file(dir, 3).string(), day3).ok());
  fs::last_write_time(dir / "syslog", stamp);
  std::uint64_t found_at = 0;
  for (std::uint64_t i = 0; i < kCadence && found_at == 0; ++i) {
    ASSERT_TRUE(s.tick().ok());
    if (gauge_of(s, "serve.sources.total") == 3) found_at = s.ticks();
  }
  ASSERT_NE(found_at, 0u) << "not found within reprobe_ticks ticks";
  EXPECT_EQ(found_at % kCadence, 0u);
  EXPECT_EQ(s.metrics().counter_value("serve.dir_scans"), walks + 1);

  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.finalize().ok());
  expect_matches_batch(outcome_of(s), batch_load(dir));
  fs::remove_all(dir);
}

// A stamp that is not safely behind the clock (just written, or set by a
// host whose clock runs ahead) cannot prove that nothing was created after
// the walk, so the next tick walks again.
TEST(Serve, RecentDirectoryStampDoesNotGateTheWalk) {
  const auto dir = make_dataset("recent_stamp", 4);
  fs::remove(day_file(dir, 2));
  const std::string day3 = take_file(day_file(dir, 3));
  const auto stamp = fs::file_time_type::clock::now() + std::chrono::hours(1);
  fs::last_write_time(dir / "syslog", stamp);
  sv::ServeConfig cfg = base_config(dir, 0);
  cfg.reprobe_ticks = 1000;
  sv::ServeSession s(std::move(cfg));
  ASSERT_TRUE(s.open(false).ok());
  for (int i = 0; i < 64 && !s.idle(); ++i) ASSERT_TRUE(s.tick().ok());
  ASSERT_TRUE(s.idle());

  ASSERT_TRUE(ct::write_text_file(day_file(dir, 3).string(), day3).ok());
  fs::last_write_time(dir / "syslog", stamp);
  ASSERT_TRUE(s.tick().ok());
  EXPECT_EQ(gauge_of(s, "serve.sources.total"), 3);
  fs::remove_all(dir);
}

// ---- serve vs batch on corrupted input ------------------------------------
//
// Batch and serve share one screening and accounting policy, so on any
// single corruption the corrupter can inject, a lenient serve drain must
// reproduce the lenient batch results exactly — at any thread count and
// chunk size — and a strict one must fail with the same located message.
// kIoFault is left out by design: serve retries and degrades a failing read
// while batch skips the day.

namespace {

/// Everything a finished ingest produced, for exact comparison.
struct Snapshot {
  bool ok = false;
  std::string error;
  std::vector<an::CoalescedError> errors;
  std::vector<an::LifecycleRecord> lifecycle;
  an::JobTable jobs;
  std::string quality;
};

Snapshot snapshot_of(const an::ResultSet& r, const an::DataQualityReport& q) {
  Snapshot s;
  s.ok = true;
  s.errors = r.errors();
  s.lifecycle = r.lifecycle();
  s.jobs = r.jobs();
  s.quality = q.to_json();
  return s;
}

Snapshot batch_snapshot(const fs::path& dir, an::IngestPolicy policy) {
  const auto m = an::read_manifest(dir);
  EXPECT_TRUE(m.ok());
  const cl::Topology topo(m.value().spec);
  an::PipelineConfig pcfg;
  pcfg.periods = m.value().periods;
  an::AnalysisPipeline pipe(topo, pcfg);
  an::DataQualityReport quality;
  an::IngestOptions opt;
  opt.policy = policy;
  opt.expect_begin = m.value().periods.pre.begin;
  opt.expect_end = m.value().periods.op.end;
  opt.quality = &quality;
  const auto loaded = an::load_dataset(dir, pipe, opt);
  if (!loaded.ok()) {
    return Snapshot{false, loaded.error().message, {}, {}, {}, {}};
  }
  return snapshot_of(pipe, quality);
}

Snapshot serve_snapshot(const fs::path& dir, an::IngestPolicy policy,
                        std::uint32_t threads, std::uint64_t chunk) {
  sv::ServeConfig cfg = base_config(dir, threads);
  cfg.policy = policy;
  cfg.max_chunk_bytes = chunk;
  sv::ServeSession s(std::move(cfg));
  auto st = s.open(false);
  for (int i = 0; st.ok() && i < 100000 && !s.idle(); ++i) st = s.tick();
  if (st.ok()) st = s.finalize();
  if (!st.ok()) return Snapshot{false, st.error().message, {}, {}, {}, {}};
  return snapshot_of(s, s.quality());
}

void expect_same(const Snapshot& got, const Snapshot& want) {
  ASSERT_EQ(got.ok, want.ok)
      << "got: " << got.error << "\nwant: " << want.error;
  EXPECT_EQ(got.error, want.error);
  expect_same_errors(got.errors, want.errors);
  ASSERT_EQ(got.lifecycle.size(), want.lifecycle.size());
  for (std::size_t i = 0; i < want.lifecycle.size(); ++i) {
    EXPECT_EQ(got.lifecycle[i].time, want.lifecycle[i].time) << i;
    EXPECT_EQ(got.lifecycle[i].host, want.lifecycle[i].host) << i;
    EXPECT_EQ(got.lifecycle[i].kind, want.lifecycle[i].kind) << i;
  }
  ASSERT_EQ(got.jobs.jobs.size(), want.jobs.jobs.size());
  for (std::size_t i = 0; i < want.jobs.jobs.size(); ++i) {
    const auto& a = got.jobs.jobs[i];
    const auto& b = want.jobs.jobs[i];
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.start, b.start) << i;
    EXPECT_EQ(a.end, b.end) << i;
    EXPECT_EQ(a.gpus, b.gpus) << i;
    EXPECT_EQ(a.state, b.state) << i;
    EXPECT_EQ(a.is_ml, b.is_ml) << i;
    EXPECT_EQ(a.gpus_inline, b.gpus_inline) << i;
    EXPECT_EQ(a.spill_index, b.spill_index) << i;
  }
  EXPECT_EQ(got.jobs.spill, want.jobs.spill);
  EXPECT_EQ(got.quality, want.quality);
}

class ServeChaos : public ::testing::TestWithParam<ch::Fault> {};

}  // namespace

TEST_P(ServeChaos, ServeMatchesBatchUnderEitherPolicy) {
  const auto fault = std::string(ch::to_string(GetParam()));
  const auto clean = make_dataset("chaos_src_" + fault, 10);
  const auto dir = temp_dir("chaos_" + fault);
  const auto spec = ch::CorruptionSpec::parse(fault);
  ASSERT_TRUE(spec.ok()) << fault;
  const auto ledger = ch::corrupt_dataset(clean, dir, 7, spec.value());
  ASSERT_TRUE(ledger.ok()) << ledger.error().message;
  ASSERT_FALSE(ledger.value().applied.empty()) << fault << " touched nothing";

  const Snapshot lenient = batch_snapshot(dir, an::IngestPolicy::kLenient);
  ASSERT_TRUE(lenient.ok) << lenient.error;
  const Snapshot strict = batch_snapshot(dir, an::IngestPolicy::kStrict);
  for (const std::uint32_t threads : {0u, 4u}) {
    for (const std::uint64_t chunk :
         {std::uint64_t{4} << 20, std::uint64_t{48}}) {
      SCOPED_TRACE(fault + " threads " + std::to_string(threads) + " chunk " +
                   std::to_string(chunk));
      expect_same(
          serve_snapshot(dir, an::IngestPolicy::kLenient, threads, chunk),
          lenient);
      expect_same(
          serve_snapshot(dir, an::IngestPolicy::kStrict, threads, chunk),
          strict);
    }
  }
  fs::remove_all(clean);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    SingleFaults, ServeChaos,
    ::testing::Values(ch::Fault::kTruncate, ch::Fault::kGarbage,
                      ch::Fault::kOverlong, ch::Fault::kDuplicate,
                      ch::Fault::kReorder, ch::Fault::kMissingDay,
                      ch::Fault::kMissingAccounting, ch::Fault::kSkew,
                      ch::Fault::kBadAccounting, ch::Fault::kZeroByte),
    [](const ::testing::TestParamInfo<ch::Fault>& info) {
      std::string name(ch::to_string(info.param));
      std::erase(name, '-');
      return name;
    });
