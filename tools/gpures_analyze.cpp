// gpures-analyze: run the analysis pipeline over a dataset directory.
//
//   gpures-analyze --data DIR [--report WHAT]
//                  [--export-csv DIR] [--export-json FILE] [--report-md FILE]
//                  [--coalesce-window SECONDS] [--window SECONDS]
//                  [--node-level] [--threads N]
//                  [--metrics FILE[.prom]] [--trace FILE]
//                  [--telemetry FILE [--telemetry-interval-ms N]]
//                  [--log-json FILE] [--log-level L] [--quiet]
//
// The dataset can come from gpures-simulate or from a site's own logs laid
// out in the same format (see src/analysis/dataset.h).  This is the
// command-line face of the paper's Fig. 1 pipeline.
//
// stdout carries the reports only; progress and ingest summaries go to
// stderr, observability artifacts to the requested files.  Metrics and
// tracing never change the analysis output (see tests/test_obs_differential).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/data_quality.h"
#include "analysis/dataset.h"
#include "analysis/export.h"
#include "analysis/markdown_report.h"
#include "cli.h"
#include "common/io.h"
#include "obs/expfmt.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "simd/scan.h"

using namespace gpures;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gpures-analyze --data DIR [options]\n"
      "  --data DIR             dataset directory (required)\n"
      "  --report WHAT          %s\n"
      "                         (default all)\n"
      "  --export-csv DIR       write table1..3 + fig2 CSV files (plus a\n"
      "                         run_manifest.json provenance record)\n"
      "  --export-json FILE     write everything as one JSON document\n"
      "  --report-md FILE       write a self-contained markdown report\n"
      "  --coalesce-window S    Stage II window (default 30)\n"
      "  --window S             job-failure attribution window (default 20)\n"
      "  --node-level           node-level attribution (default: device)\n"
      "  --threads N            Stage I/II worker threads (0 = serial;\n"
      "                         output is byte-identical either way)\n"
      "  --write-index FILE     write the binary error index (gpures.idx)\n"
      "                         for gpures-query; deterministic across\n"
      "                         --threads\n"
      "  --metrics FILE         write the metrics registry snapshot; a\n"
      "                         .prom suffix selects Prometheus text\n"
      "                         exposition instead of JSON\n"
      "  --trace FILE           write a Chrome Trace Event JSON timeline\n"
      "  --telemetry FILE       sample metrics + process stats to JSONL\n"
      "                         while the run is in flight\n"
      "  --telemetry-interval-ms N\n"
      "                         sampling interval (default 1000)\n"
      "  --log-json FILE        mirror log records to FILE as JSONL\n"
      "  --log-level L          debug|info|warn|error (default info)\n"
      "  --ingest-policy P      strict (default): fail on the first corrupt\n"
      "                         input; lenient: quarantine corrupt lines,\n"
      "                         skip unreadable days, and keep going\n"
      "  --error-budget N       lenient: abort if any one file exceeds N\n"
      "                         quarantined lines / rejected rows (0 = off)\n"
      "  --quality-report FILE  write the data-quality accounting as JSON\n"
      "  --chaos-io-fault SPEC  testing: SUBSTRING:BYTES[:KIND[:TIMES]] —\n"
      "                         fail reads of paths containing SUBSTRING\n"
      "                         after BYTES; KIND fail|transient|eintr|\n"
      "                         short-read (see common/io.h)\n"
      "  --quiet                suppress progress and summaries on stderr\n",
      cli::report_choices().c_str());
}

constexpr std::string_view kTool = "gpures-analyze";

/// Stable fingerprint of the effective pipeline configuration.
std::string config_fingerprint(const analysis::PipelineConfig& cfg) {
  std::string s;
  s += "coalesce_window=" + std::to_string(cfg.coalescer.window) + ";";
  s += "attribution_window=" + std::to_string(cfg.attribution_window) + ";";
  s += "attribution=" +
       std::to_string(static_cast<int>(cfg.attribution)) + ";";
  s += "threads=" + std::to_string(cfg.num_threads) + ";";
  s += "outlier_share=" + std::to_string(cfg.outlier_share) + ";";
  s += "outlier_min=" + std::to_string(cfg.outlier_min);
  return obs::hex64(obs::fnv1a64(s));
}

}  // namespace

int main(int argc, char** argv) {
  std::string data_dir;
  std::string report = "all";
  std::string csv_dir;
  std::string json_file;
  std::string md_file;
  std::string index_file;
  std::string metrics_file;
  std::string trace_file;
  std::string quality_file;
  std::string chaos_io_fault;
  std::string telemetry_file;
  long long telemetry_interval_ms = 1000;
  cli::LogFlags log_flags;
  analysis::PipelineConfig pcfg;
  analysis::IngestPolicy policy = analysis::IngestPolicy::kStrict;
  std::uint64_t error_budget = 0;

  cli::Args args(kTool, argc, argv);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (arg == "--data") {
      data_dir = args.value();
    } else if (arg == "--report") {
      report = cli::parse_report(kTool, args.value());
    } else if (arg == "--export-csv") {
      csv_dir = args.value();
    } else if (arg == "--export-json") {
      json_file = args.value();
    } else if (arg == "--report-md") {
      md_file = args.value();
    } else if (arg == "--coalesce-window") {
      pcfg.coalescer.window = args.count();
    } else if (arg == "--window") {
      pcfg.attribution_window = args.count();
    } else if (arg == "--node-level") {
      pcfg.attribution = analysis::Attribution::kNodeLevel;
    } else if (arg == "--threads") {
      pcfg.num_threads = args.threads();
    } else if (arg == "--write-index") {
      index_file = args.value();
    } else if (arg == "--metrics") {
      metrics_file = args.value();
    } else if (arg == "--trace") {
      trace_file = args.value();
    } else if (arg == "--telemetry") {
      telemetry_file = args.value();
    } else if (arg == "--telemetry-interval-ms") {
      telemetry_interval_ms = args.count(1);
    } else if (arg == "--log-json") {
      log_flags.json_file = args.value();
    } else if (arg == "--log-level") {
      log_flags.level = cli::parse_log_level(kTool, args.value());
    } else if (arg == "--ingest-policy") {
      policy = cli::parse_ingest_policy(kTool, args.value());
    } else if (arg == "--error-budget") {
      error_budget = static_cast<std::uint64_t>(args.count());
    } else if (arg == "--quality-report") {
      quality_file = args.value();
    } else if (arg == "--chaos-io-fault") {
      chaos_io_fault = args.value();
    } else if (arg == "--quiet") {
      log_flags.quiet = true;
    } else if (arg == "--progress") {
      log_flags.quiet = false;
    } else {
      args.unknown(usage);
    }
  }
  if (data_dir.empty()) {
    usage();
    return 2;
  }

  // Structured logging for everything past flag parsing.
  const auto logger = cli::start_logger(kTool, log_flags);
  if (!logger) return 1;
  auto& log = obs::Logger::current();

  const auto manifest = analysis::read_manifest(data_dir);
  if (!manifest.ok()) {
    log.error("analyze", manifest.error().message);
    return 1;
  }
  pcfg.periods = manifest.value().periods;
  cluster::Topology topo(manifest.value().spec);

  obs::MetricsRegistry registry;
  pcfg.metrics = &registry;
  obs::Tracer tracer;
  if (!trace_file.empty()) obs::Tracer::install(&tracer);

  // Live telemetry: background sampling of this registry + /proc/self into
  // a JSONL sidecar.  Strictly an observer — golden-compared artifacts are
  // byte-identical with the sampler on or off at any interval.
  obs::TelemetrySampler::Options topts;
  topts.path = telemetry_file;
  topts.interval = std::chrono::milliseconds(telemetry_interval_ms);
  topts.registry = &registry;
  obs::TelemetrySampler telemetry(topts);
  if (!telemetry_file.empty()) {
    const auto st = telemetry.start();
    if (!st.ok()) {
      log.error("analyze", st.error().message);
      return 1;
    }
  }

  obs::RunManifest run;
  run.tool = "gpures-analyze";
  run.dataset = data_dir;
  run.config_hash = config_fingerprint(pcfg);
  run.threads = pcfg.num_threads;
  run.started_at = obs::wall_clock_iso();
  // Record the CPUID scan-backend decision in the provenance manifest and
  // the log: artifacts are byte-identical across backends, but a throughput
  // anomaly should be attributable to it after the fact.
  const auto simd_backend = std::string(simd::to_string(simd::active()));
  run.extra.emplace_back("simd_backend", simd_backend);
  log.info("analyze", "simd dispatch", {{"backend", simd_backend}});

  analysis::AnalysisPipeline pipe(topo, pcfg);

  analysis::DataQualityReport quality;
  analysis::IngestOptions iopt;
  iopt.policy = policy;
  iopt.error_budget = error_budget;
  iopt.expect_begin = manifest.value().periods.pre.begin;
  iopt.expect_end = manifest.value().periods.op.end;
  iopt.quality = &quality;
  // Always wired: the logger's min_level (error under --quiet) decides
  // whether a warning reaches the text sink, and the JSONL sink keeps the
  // record either way.
  iopt.warn = [&log](const std::string& msg) {
    log.warn("ingest", msg);
  };

  common::IoFaultPlan fault_plan;
  if (!cli::arm_io_fault(kTool, chaos_io_fault, fault_plan)) return 2;

  obs::ProgressReporter progress("ingesting day", !log_flags.quiet);
  const auto loaded = analysis::load_dataset(data_dir, pipe, iopt, &progress);
  progress.finish();
  common::set_io_fault_plan(nullptr);
  if (!loaded.ok()) {
    obs::Tracer::install(nullptr);
    log.error("analyze", loaded.error().message);
    return 1;
  }

  // Surface the ingest accounting on the observability plane: counters in
  // the metrics registry and headline figures in the run manifest.
  quality.publish(registry);
  run.extra.emplace_back("ingest_policy",
                         std::string(analysis::to_string(policy)));
  run.extra.emplace_back("ingest_clean", quality.clean() ? "true" : "false");
  run.extra.emplace_back("lines_quarantined",
                         std::to_string(quality.quarantined_lines()));
  log.info("analyze", "ingest complete",
           {{"day_files", loaded.value()},
            {"lines", registry.counter_value("pipe.log_lines")},
            {"xid_records", registry.counter_value("pipe.xid_records")},
            {"lifecycle_records",
             registry.counter_value("pipe.lifecycle_records")},
            {"jobs", pipe.jobs().jobs.size()},
            {"accounting_errors",
             registry.counter_value("pipe.accounting_errors")}});

  cli::EmitRequest emit;
  emit.report = report;
  emit.index_file = index_file;
  emit.json_file = json_file;
  std::uint64_t index_bytes = 0;
  analysis::Stage3Results results(pipe);
  if (!cli::emit_results(kTool, results, emit, &index_bytes)) return 1;
  if (!index_file.empty()) {
    run.extra.emplace_back("index_bytes", std::to_string(index_bytes));
  }

  if (!csv_dir.empty()) {
    namespace fs = std::filesystem;
    const auto write_csv = [&](const char* name, auto write, const auto& value) {
      std::ostringstream os;
      write(os, value);
      return cli::write_artifact(kTool, fs::path(csv_dir) / name, os.str());
    };
    const bool ok =
        write_csv("table1.csv", analysis::write_table1_csv,
                  results.error_stats()) &&
        write_csv("table2.csv", analysis::write_table2_csv,
                  results.job_impact()) &&
        write_csv("table3.csv", analysis::write_table3_csv,
                  results.job_stats()) &&
        write_csv("fig2.csv", analysis::write_fig2_csv,
                  results.availability());
    if (!ok) return 1;
    log.info("analyze", "wrote CSV exports", {{"dir", csv_dir}});
  }

  if (!md_file.empty()) {
    analysis::MarkdownReportOptions mopts;
    mopts.quality = &quality;
    const auto md = analysis::render_markdown_report(results, mopts);
    if (!cli::write_artifact(kTool, md_file, md)) return 1;
    log.info("analyze", "wrote markdown report", {{"path", md_file}});
  }

  obs::Tracer::install(nullptr);
  run.finished_at = obs::wall_clock_iso();
  run.extra.emplace_back("day_files", std::to_string(loaded.value()));
  run.extra.emplace_back("errors",
                         std::to_string(pipe.errors().size()));
  run.extra.emplace_back("jobs", std::to_string(pipe.jobs().jobs.size()));

  if (!csv_dir.empty()) {
    const auto run_path =
        std::filesystem::path(csv_dir) / "run_manifest.json";
    if (!cli::write_artifact(kTool, run_path, run.to_json(&registry))) {
      return 1;
    }
  }
  if (!cli::write_artifact(kTool, quality_file, quality.to_json() + "\n")) {
    return 1;
  }
  // Stop sampling before serializing the registry so the telemetry file
  // ends with a "final" sample and the --metrics artifact sees quiescent
  // writers (all snapshot views agree exactly; see obs/metrics.h).
  telemetry.stop();
  const bool wrote =
      cli::write_artifact(kTool, metrics_file,
                          obs::render_metrics_file(registry, metrics_file)) &&
      cli::write_artifact(kTool, trace_file, tracer.to_chrome_json());
  return wrote ? 0 : 1;
}
