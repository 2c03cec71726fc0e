// The observability hard requirement: running with metrics collection and
// tracing enabled must yield byte-identical analysis artifacts to running
// with them disabled — in serial mode and under the parallel pipeline.
// Instrumentation observes; it must never perturb.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/campaign.h"
#include "analysis/dataset.h"
#include "analysis/export.h"
#include "analysis/ingest.h"
#include "analysis/markdown_report.h"
#include "analysis/reports.h"
#include "common/io.h"
#include "common/json.h"
#include "logsys/day_buffer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ob = gpures::obs;
namespace fs = std::filesystem;

namespace {

struct TracerGuard {
  explicit TracerGuard(ob::Tracer* t) { ob::Tracer::install(t); }
  ~TracerGuard() { ob::Tracer::install(nullptr); }
};

an::CampaignConfig small_campaign(std::uint64_t seed) {
  an::CampaignConfig cfg = an::CampaignConfig::quick();
  cfg.seed = seed;
  cfg.workload_scale *= 0.1;
  cfg.noise_lines_per_day = 30.0;
  return cfg;
}

/// Spans named `name` in a Chrome trace document.
std::size_t count_spans(const std::string& json, const std::string& name) {
  const std::string key = "\"name\":\"" + name + "\"";
  std::size_t n = 0;
  for (auto at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    ++n;
  }
  return n;
}

/// Everything the CLIs can emit on stdout or to export files.
std::string rendered_artifacts(const an::AnalysisPipeline& pipe) {
  const auto stats = pipe.error_stats();
  const auto impact = pipe.job_impact();
  const auto jobs = pipe.job_stats();
  const auto avail = pipe.availability();
  std::ostringstream os;
  os << an::render_table1(stats);
  os << an::render_table2(impact);
  os << an::render_table3(jobs);
  os << an::render_fig2(avail, pipe.mttf_estimate_h());
  an::write_table1_csv(os, stats);
  an::write_table2_csv(os, impact);
  an::write_table3_csv(os, jobs);
  an::write_fig2_csv(os, avail);
  an::ExportBundle bundle;
  bundle.error_stats = &stats;
  bundle.job_stats = &jobs;
  bundle.job_impact = &impact;
  bundle.availability = &avail;
  bundle.mttf_h = pipe.mttf_estimate_h();
  os << an::to_json(bundle);
  an::Stage3Results results(pipe);
  os << an::render_markdown_report(results);
  return os.str();
}

/// Day files in `dir` and the Stage-I line ranges LogIngest cuts them into
/// at `threads` workers: one per kMinRangeLines lines of a day, at least one
/// and at most one per worker.
struct Stage1Ranges {
  std::size_t days = 0;
  std::size_t ranges = 0;
};
Stage1Ranges stage1_ranges(const fs::path& dir, std::size_t threads) {
  Stage1Ranges r;
  for (const auto& entry : fs::directory_iterator(dir / "syslog")) {
    auto text = gpures::common::read_file(entry.path().string());
    EXPECT_TRUE(text.ok());
    const auto day =
        gpures::logsys::DayBuffer::from_text(0, std::move(text).take());
    ++r.days;
    r.ranges += threads == 0 ? 1
                             : std::clamp<std::size_t>(
                                   day.size() / an::LogIngest::kMinRangeLines,
                                   1, threads);
  }
  return r;
}

fs::path temp_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("gpures_obs_diff_" + name);
  fs::remove_all(dir);
  return dir;
}

}  // namespace

TEST(ObsDifferential, CampaignWithMetricsAndTraceMatchesPlainRun) {
  // Baseline: no shared registry, no tracer.
  an::DeltaCampaign plain(small_campaign(11));
  plain.run();
  const auto baseline = rendered_artifacts(plain.pipeline());
  ASSERT_FALSE(plain.pipeline().errors().empty());

  // Instrumented: shared registry across every layer + installed tracer.
  ob::MetricsRegistry registry;
  ob::Tracer tracer;
  auto cfg = small_campaign(11);
  cfg.metrics = &registry;
  std::string instrumented;
  std::size_t instrumented_errors = 0;
  {
    TracerGuard guard(&tracer);
    an::DeltaCampaign obs(cfg);
    obs.run();
    instrumented = rendered_artifacts(obs.pipeline());
    instrumented_errors = obs.pipeline().errors().size();
  }
  EXPECT_EQ(baseline, instrumented);
  EXPECT_GT(tracer.event_count(), 0u);
  // The instrumented run actually counted the work it did.
  EXPECT_EQ(registry.counter_value("pipe.errors_coalesced"),
            instrumented_errors);
  EXPECT_GT(registry.counter_value("des.events_dispatched"), 0u);
  EXPECT_GT(registry.counter_value("slurm.jobs_submitted"), 0u);
  EXPECT_GT(registry.counter_value("sim.errors_emitted"), 0u);
}

TEST(ObsDifferential, DatasetAnalysisIdenticalAcrossObsAndThreadModes) {
  // Materialize one small dataset, then analyze it four ways: {obs off, obs
  // on} x {serial, --threads 4}.  All four artifact sets must be identical.
  const auto dir = temp_dir("dataset");
  {
    an::DatasetManifest manifest;
    manifest.name = "obs-diff";
    auto cfg = small_campaign(23);
    manifest.spec = cfg.spec;
    manifest.periods = an::StudyPeriods::make(
        cfg.faults.study_begin, cfg.faults.op_begin, cfg.faults.study_end);
    an::DatasetWriter writer(dir, manifest);
    an::DeltaCampaign campaign(cfg);
    campaign.set_dataset_writer(&writer);
    campaign.run();
    writer.finalize();
  }

  const auto manifest = an::read_manifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.error().message;
  cl::Topology topo(manifest.value().spec);

  auto analyze = [&](std::uint32_t threads, bool instrumented) {
    an::PipelineConfig pcfg;
    pcfg.periods = manifest.value().periods;
    pcfg.num_threads = threads;
    ob::MetricsRegistry registry;
    ob::Tracer tracer;
    if (instrumented) {
      pcfg.metrics = &registry;
      ob::Tracer::install(&tracer);
    }
    an::AnalysisPipeline pipe(topo, pcfg);
    const auto loaded = an::load_dataset(dir, pipe);
    ob::Tracer::install(nullptr);
    EXPECT_TRUE(loaded.ok());
    if (instrumented) {
      EXPECT_GT(tracer.event_count(), 0u);
      EXPECT_GT(registry.counter_value("pipe.log_lines"), 0u);
      // Accounting ingest runs under its own span inside dataset.load: one
      // accounting.parse_range span per line range (on the workers when
      // there are several), then one accounting.merge.
      const std::string json = tracer.to_chrome_json();
      EXPECT_NE(json.find("\"name\":\"dataset.accounting\""),
                std::string::npos);
      EXPECT_EQ(count_spans(json, "accounting.merge"), 1u);
      const auto dump_bytes = fs::file_size(dir / "slurm_accounting.txt");
      const std::size_t ranges =
          threads == 0 ? 1
                       : std::clamp<std::size_t>(
                             dump_bytes / an::AccountingIngest::kMinRangeBytes,
                             1, threads);
      EXPECT_EQ(count_spans(json, "accounting.parse_range"), ranges);
      if (threads > 0) EXPECT_GT(ranges, 1u) << dump_bytes << " bytes";
      // Stage I runs one stage1.parse_range span per line range of a day
      // (on the workers when there are several), then the day's
      // stage2.coalesce on this thread.
      const auto stage1 = stage1_ranges(dir, threads);
      EXPECT_EQ(count_spans(json, "stage1.parse_range"), stage1.ranges);
      EXPECT_EQ(count_spans(json, "stage2.coalesce"), stage1.days);
      if (threads > 0) EXPECT_GT(stage1.ranges, stage1.days);
    }
    return rendered_artifacts(pipe);
  };

  const auto serial_off = analyze(0, false);
  EXPECT_EQ(serial_off, analyze(0, true));
  EXPECT_EQ(serial_off, analyze(4, false));
  EXPECT_EQ(serial_off, analyze(4, true));

  fs::remove_all(dir);
}

TEST(ObsDifferential, FullTelemetryStackDoesNotPerturbArtifacts) {
  // The operator-grade stack all at once — metrics registry, tracer, live
  // telemetry sampler at an aggressive interval, structured logger with a
  // JSONL sink — must still leave the analysis artifacts byte-identical,
  // serial and parallel.
  const auto dir = temp_dir("fullstack");
  {
    an::DatasetManifest manifest;
    manifest.name = "obs-fullstack";
    auto cfg = small_campaign(47);
    manifest.spec = cfg.spec;
    manifest.periods = an::StudyPeriods::make(
        cfg.faults.study_begin, cfg.faults.op_begin, cfg.faults.study_end);
    an::DatasetWriter writer(dir, manifest);
    an::DeltaCampaign campaign(cfg);
    campaign.set_dataset_writer(&writer);
    campaign.run();
    writer.finalize();
  }
  const auto manifest = an::read_manifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.error().message;
  cl::Topology topo(manifest.value().spec);

  auto analyze_plain = [&](std::uint32_t threads) {
    an::PipelineConfig pcfg;
    pcfg.periods = manifest.value().periods;
    pcfg.num_threads = threads;
    an::AnalysisPipeline pipe(topo, pcfg);
    EXPECT_TRUE(an::load_dataset(dir, pipe).ok());
    return rendered_artifacts(pipe);
  };

  auto analyze_fullstack = [&](std::uint32_t threads) {
    const auto telemetry_path =
        dir / ("telemetry_" + std::to_string(threads) + ".jsonl");
    const auto log_path = dir / ("log_" + std::to_string(threads) + ".jsonl");
    an::PipelineConfig pcfg;
    pcfg.periods = manifest.value().periods;
    pcfg.num_threads = threads;
    ob::MetricsRegistry registry;
    pcfg.metrics = &registry;
    ob::Tracer tracer;
    TracerGuard guard(&tracer);
    ob::Logger::Options log_opts;
    log_opts.text_out = nullptr;  // keep test stderr clean
    log_opts.jsonl_path = log_path.string();
    ob::Logger logger(log_opts);
    EXPECT_TRUE(logger.sink_status().ok());
    ob::Logger::install(&logger);
    ob::TelemetrySampler::Options topts;
    topts.path = telemetry_path.string();
    topts.interval = std::chrono::milliseconds(1);
    topts.registry = &registry;
    ob::TelemetrySampler sampler(topts);
    EXPECT_TRUE(sampler.start().ok());

    an::AnalysisPipeline pipe(topo, pcfg);
    EXPECT_TRUE(an::load_dataset(dir, pipe).ok());
    const auto artifacts = rendered_artifacts(pipe);

    sampler.stop();
    ob::Logger::install(nullptr);
    EXPECT_GE(sampler.sample_count(), 2u);
    // The sidecar is valid JSONL even at a 1 ms sampling interval against
    // live writers.
    std::ifstream in(telemetry_path, std::ios::binary);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ++lines;
      const auto doc = gpures::common::parse_json(line);
      EXPECT_TRUE(doc.ok()) << doc.error().message;
    }
    EXPECT_EQ(lines, sampler.sample_count());
    return artifacts;
  };

  for (const std::uint32_t threads : {0u, 4u}) {
    EXPECT_EQ(analyze_plain(threads), analyze_fullstack(threads))
        << threads << " threads";
  }
  // Serial and parallel agree with each other too.
  EXPECT_EQ(analyze_plain(0), analyze_plain(4));

  fs::remove_all(dir);
}

TEST(ObsDifferential, PerWorkerCountersPartitionTheTotals) {
  // The per-worker Stage-I counters must sum to the stage totals — in serial
  // mode (one slot) and in parallel mode (num_threads slots).  days_parsed
  // counts line ranges: one per day file serially, up to one per worker for
  // a day of several kMinRangeLines lines.
  const auto dir = temp_dir("workers");
  {
    an::DatasetManifest manifest;
    manifest.name = "obs-workers";
    auto cfg = small_campaign(31);
    manifest.spec = cfg.spec;
    manifest.periods = an::StudyPeriods::make(
        cfg.faults.study_begin, cfg.faults.op_begin, cfg.faults.study_end);
    an::DatasetWriter writer(dir, manifest);
    an::DeltaCampaign campaign(cfg);
    campaign.set_dataset_writer(&writer);
    campaign.run();
    writer.finalize();
  }
  const auto manifest = an::read_manifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.error().message;
  cl::Topology topo(manifest.value().spec);

  for (const std::uint32_t threads : {0u, 4u}) {
    an::PipelineConfig pcfg;
    pcfg.periods = manifest.value().periods;
    pcfg.num_threads = threads;
    an::AnalysisPipeline pipe(topo, pcfg);
    ASSERT_TRUE(an::load_dataset(dir, pipe).ok());

    const auto& reg = pipe.metrics();
    const std::uint32_t slots = threads == 0 ? 1 : threads;
    std::uint64_t worker_lines = 0;
    std::uint64_t worker_days = 0;
    for (std::uint32_t w = 0; w < slots; ++w) {
      const std::string p = "pipe.worker." + std::to_string(w) + ".";
      worker_lines += reg.counter_value(p + "lines");
      worker_days += reg.counter_value(p + "days_parsed");
    }
    EXPECT_EQ(worker_lines, reg.counter_value("pipe.log_lines"))
        << threads << " threads";
    const auto stage1 = stage1_ranges(dir, threads);
    EXPECT_EQ(stage1.days, 90u);
    EXPECT_EQ(worker_days, stage1.ranges) << threads << " threads";
    if (threads > 0) EXPECT_GT(stage1.ranges, stage1.days);
    // No counts leak past the configured worker slots.
    EXPECT_EQ(reg.counter_value("pipe.worker." + std::to_string(slots) +
                                ".lines"),
              0u);
  }
  fs::remove_all(dir);
}
