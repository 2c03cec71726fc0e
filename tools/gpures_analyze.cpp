// gpures-analyze: run the analysis pipeline over a dataset directory.
//
//   gpures-analyze --data DIR [options]     (--help lists them)
//
// The dataset can come from gpures-simulate or from a site's own logs laid
// out in the same format (see src/analysis/dataset.h).  This is the
// command-line face of the paper's Fig. 1 pipeline.
//
// stdout carries the reports only; progress and ingest summaries go to
// stderr, observability artifacts to the requested files.  Metrics and
// tracing never change the analysis output (see tests/test_obs_differential).
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>

#include "analysis/data_quality.h"
#include "analysis/dataset.h"
#include "analysis/export.h"
#include "analysis/markdown_report.h"
#include "cli.h"
#include "common/io.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/progress.h"
#include "simd/scan.h"

using namespace gpures;

namespace {

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
  cli::Run run(kTool);
  std::string data_dir;
  std::string csv_dir;
  std::string md_file;
  std::string quality_file;
  std::optional<common::IoFaultPlan> io_fault;
  cli::EmitRequest emit;
  analysis::PipelineConfig pcfg;
  analysis::IngestOptions iopt;
  cli::parse(kTool, argc, argv, {
      cli::required("--data", "DIR", data_dir, "dataset directory"),
      cli::shared::report(emit),
      cli::text("--export-csv", "DIR", csv_dir,
                "write table1..3 + fig2 CSV files (plus a run_manifest.json "
                "provenance record)"),
      cli::shared::export_json(emit),
      cli::output("--report-md", "FILE", md_file,
                  "write a self-contained markdown report"),
      cli::shared::coalesce_window(pcfg),
      cli::shared::window(pcfg),
      cli::shared::node_level(pcfg),
      cli::shared::threads(pcfg.num_threads),
      cli::shared::write_index(emit),
      cli::shared::metrics(run.metrics_file),
      cli::shared::trace(run.trace_file),
      cli::output("--telemetry", "FILE", run.telemetry_file,
                  "sample metrics + process stats to JSONL while the run is "
                  "in flight"),
      cli::count("--telemetry-interval-ms", "N", run.telemetry_interval_ms,
                 "sampling interval (default 1000)", 1),
      cli::shared::log_json(run.log),
      cli::shared::log_level(run.log),
      cli::shared::ingest_policy(iopt.policy),
      cli::shared::error_budget(iopt.error_budget),
      cli::shared::quality_report(quality_file),
      cli::shared::chaos_io_fault(io_fault),
      cli::shared::quiet(run.log),
      cli::shared::progress(run.log),
  });

  // Structured logging, metrics, tracing and telemetry for everything past
  // flag parsing.
  if (!run.start(data_dir)) return 1;
  auto& log = obs::Logger::current();

  const auto manifest = analysis::read_manifest(data_dir);
  if (!manifest.ok()) {
    log.error("analyze", manifest.error().message);
    return 1;
  }
  pcfg.periods = manifest.value().periods;
  cluster::Topology topo(manifest.value().spec);
  pcfg.metrics = &run.registry;
  run.manifest.config_hash = config_fingerprint(pcfg);
  run.manifest.threads = pcfg.num_threads;
  log.info("analyze", "simd dispatch",
           {{"backend", std::string(simd::to_string(simd::active()))}});

  analysis::AnalysisPipeline pipe(topo, pcfg);

  analysis::DataQualityReport quality;
  iopt.expect_begin = manifest.value().periods.pre.begin;
  iopt.expect_end = manifest.value().periods.op.end;
  iopt.quality = &quality;
  // Always wired: the logger's min_level (error under --quiet) decides
  // whether a warning reaches the text sink, and the JSONL sink keeps the
  // record either way.
  iopt.warn = [&log](const std::string& msg) {
    log.warn("ingest", msg);
  };

  if (io_fault) common::set_io_fault_plan(&*io_fault);
  obs::ProgressReporter progress("ingesting day", !run.log.quiet);
  const auto loaded = analysis::load_dataset(data_dir, pipe, iopt, &progress);
  progress.finish();
  common::set_io_fault_plan(nullptr);
  if (!loaded.ok()) {
    log.error("analyze", loaded.error().message);
    return 1;
  }

  // Surface the ingest accounting on the observability plane: counters in
  // the metrics registry and headline figures in the run manifest.
  auto& registry = run.registry;
  auto& extra = run.manifest.extra;
  quality.publish(registry);
  extra.emplace_back("ingest_policy",
                     std::string(analysis::to_string(iopt.policy)));
  extra.emplace_back("ingest_clean", quality.clean() ? "true" : "false");
  extra.emplace_back("lines_quarantined",
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

  std::uint64_t index_bytes = 0;
  analysis::Stage3Results results(pipe);
  if (!cli::emit_results(kTool, results, emit, &index_bytes)) return 1;
  if (!emit.index_file.empty()) {
    extra.emplace_back("index_bytes", std::to_string(index_bytes));
  }

  if (!csv_dir.empty()) {
    namespace fs = std::filesystem;
    // The export directory is ours to create; artifact writes below never
    // create directories.
    std::error_code ec;
    fs::create_directories(csv_dir, ec);
    if (ec) {
      log.error("analyze", "cannot create --export-csv directory",
                {{"dir", csv_dir}, {"error", ec.message()}});
      return 1;
    }
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

  extra.emplace_back("day_files", std::to_string(loaded.value()));
  extra.emplace_back("errors", std::to_string(pipe.errors().size()));
  extra.emplace_back("jobs", std::to_string(pipe.jobs().jobs.size()));
  if (!cli::write_artifact(kTool, quality_file, quality.to_json() + "\n")) {
    return 1;
  }
  namespace fs = std::filesystem;
  const fs::path run_path =
      csv_dir.empty() ? fs::path() : fs::path(csv_dir) / "run_manifest.json";
  return run.finish(run_path) ? 0 : 1;
}
