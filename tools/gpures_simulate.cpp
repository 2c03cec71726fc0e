// gpures-simulate: generate a synthetic Delta-style dataset on disk.
//
//   gpures-simulate --out DIR [--seed N] [--quick] [--no-jobs]
//                   [--nodes N] [--threads N] [--shards N]
//                   [--noise N] [--scale F] [--metrics FILE] [--trace FILE]
//                   [--quiet]
//
// Produces a dataset directory (manifest.txt, syslog/syslog-YYYY-MM-DD.log,
// slurm_accounting.txt) that gpures-analyze — or any external tooling — can
// consume, plus a run_manifest.json provenance record.  The full campaign
// writes ~1170 day files with ~3M lines and a ~1.5M-row accounting dump.
//
// stdout stays clean (nothing is written to it); progress and summaries go
// to stderr, observability artifacts to the requested files.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "analysis/campaign.h"
#include "analysis/config_file.h"
#include "analysis/dataset.h"
#include "cli.h"
#include "common/io.h"
#include "common/strings.h"
#include "obs/expfmt.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "simd/dispatch.h"

using namespace gpures;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: gpures-simulate --out DIR [--seed N] [--quick] "
               "[--no-jobs] [--nodes N] [--threads N] [--shards N]\n"
               "                       [--noise N] [--scale F] [--config FILE] "
               "[--metrics FILE] [--trace FILE] [--quiet]\n"
               "  --out DIR      dataset directory to create (required)\n"
               "  --seed N       campaign seed (default 42)\n"
               "  --quick        90-day campaign instead of the 1170-day one\n"
               "  --no-jobs      skip the Slurm workload (error logs only)\n"
               "  --nodes N      fleet size: a Delta-shaped cluster of N nodes\n"
               "                 (default 106; fault + workload rates scale\n"
               "                 with the GPU count)\n"
               "  --threads N    worker threads for simulation shards and the\n"
               "                 analysis pipeline (default 0 = serial;\n"
               "                 output is byte-identical at any value)\n"
               "  --shards N     simulation shard count (default 0 = one per\n"
               "                 ~16 nodes; changes the sample path, unlike\n"
               "                 --threads)\n"
               "  --noise N      noise lines per day (default 200)\n"
               "  --scale F      workload scale factor (default 1.0)\n"
               "  --config FILE  key=value scenario overrides (applied last;\n"
               "                 see --list-config-keys)\n"
               "  --metrics FILE write the metrics registry snapshot as JSON\n"
               "                 (or Prometheus text with a .prom suffix)\n"
               "  --trace FILE   write a Chrome Trace Event JSON timeline\n"
               "  --simd B       scan backend: auto|scalar|swar|avx2 (default\n"
               "                 auto; byte-identical output either way)\n"
               "  --simd-info    print dispatch decision + available backends\n"
               "  --quiet        suppress progress and summary on stderr\n"
               "  --list-config-keys\n");
}

constexpr std::string_view kTool = "gpures-simulate";

/// Stable fingerprint of the effective campaign configuration.
std::string config_fingerprint(const analysis::CampaignConfig& cfg,
                               const std::string& config_text) {
  std::string s;
  s += "seed=" + std::to_string(cfg.seed) + ";";
  s += "with_jobs=" + std::to_string(cfg.with_jobs ? 1 : 0) + ";";
  s += "noise=" + std::to_string(cfg.noise_lines_per_day) + ";";
  s += "scale=" + std::to_string(cfg.workload_scale) + ";";
  s += "study_begin=" + std::to_string(cfg.faults.study_begin) + ";";
  s += "op_begin=" + std::to_string(cfg.faults.op_begin) + ";";
  s += "study_end=" + std::to_string(cfg.faults.study_end) + ";";
  s += "nodes=" + std::to_string(cfg.spec.node_count()) + ";";
  s += "sim_shards=" + std::to_string(cfg.sim_shards) + ";";
  s += "config_file=" + config_text;
  return obs::hex64(obs::fnv1a64(s));
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir;
  std::string config_file;
  std::string metrics_file;
  std::string trace_file;
  bool quiet = false;
  std::string simd_choice;
  bool simd_info = false;
  analysis::CampaignConfig cfg = analysis::CampaignConfig::delta_a100();
  bool quick = false;
  long long fleet_nodes = -1;  // -1 = keep the configured (106-node) spec

  cli::Args args(kTool, argc, argv);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (arg == "--out") {
      out_dir = args.value();
    } else if (arg == "--seed") {
      cfg.seed =
          static_cast<std::uint64_t>(std::strtoull(args.value(), nullptr, 10));
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--no-jobs") {
      cfg.with_jobs = false;
    } else if (arg == "--nodes") {
      fleet_nodes = args.count(1);
    } else if (arg == "--threads") {
      cfg.pipeline.num_threads = static_cast<std::uint32_t>(args.count());
    } else if (arg == "--shards") {
      cfg.sim_shards = static_cast<std::int32_t>(args.count());
    } else if (arg == "--noise") {
      cfg.noise_lines_per_day = std::strtod(args.value(), nullptr);
    } else if (arg == "--scale") {
      cfg.workload_scale = std::strtod(args.value(), nullptr);
    } else if (arg == "--config") {
      config_file = args.value();
    } else if (arg == "--metrics") {
      metrics_file = args.value();
    } else if (arg == "--trace") {
      trace_file = args.value();
    } else if (arg == "--simd") {
      simd_choice = args.value();
    } else if (arg == "--simd-info") {
      simd_info = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--progress") {
      quiet = false;
    } else if (arg == "--list-config-keys") {
      for (const auto& k : analysis::supported_config_keys()) {
        std::printf("%s\n", k.c_str());
      }
      return 0;
    } else {
      args.unknown(usage);
    }
  }
  if (!cli::select_simd(kTool, simd_choice)) return 2;
  if (simd_info) {
    cli::print_simd_info();
    return 0;
  }
  if (out_dir.empty()) {
    usage();
    return 2;
  }
  if (quick) {
    const auto seed = cfg.seed;
    const auto noise = cfg.noise_lines_per_day;
    const bool with_jobs = cfg.with_jobs;
    const double scale_mult = cfg.workload_scale;
    const auto threads = cfg.pipeline.num_threads;
    const auto shards = cfg.sim_shards;
    cfg = analysis::CampaignConfig::quick();
    cfg.seed = seed;
    cfg.noise_lines_per_day = noise;
    cfg.with_jobs = with_jobs;
    cfg.workload_scale *= scale_mult;
    cfg.pipeline.num_threads = threads;
    cfg.sim_shards = shards;
  }
  std::string config_text;
  if (!config_file.empty()) {
    auto loaded = analysis::load_config_file(config_file, cfg);
    if (!loaded.ok()) {
      std::fprintf(stderr, "gpures-simulate: %s\n",
                   loaded.error().message.c_str());
      return 1;
    }
    cfg = std::move(loaded).take();
    auto text = common::read_file(config_file);
    if (text.ok()) config_text = std::move(text).take();
  }
  if (fleet_nodes > 0) {
    // A Delta-shaped fleet: keep the study's 100:6 ratio of 4-way to 8-way
    // nodes and scale every per-cluster intensity (fault rates, workload,
    // but not noise — noise is per-day, drawn per cluster) by the GPU ratio,
    // so per-GPU statistics stay at the paper's levels at any fleet size.
    const auto nodes8 = static_cast<std::int32_t>(
        std::llround(static_cast<double>(fleet_nodes) * 6.0 / 106.0));
    const auto nodes4 = static_cast<std::int32_t>(fleet_nodes) - nodes8;
    const double base_gpus = cfg.spec.total_gpus();
    cfg.spec = cluster::ClusterSpec::scaled(nodes4, nodes8);
    const double ratio = cfg.spec.total_gpus() / base_gpus;
    cfg.faults.scale *= ratio;
    cfg.workload_scale *= ratio;
    // Configured episodes pin specific GPUs; on fleets too small to host
    // them they are dropped rather than remapped.
    const auto node_count = cfg.spec.node_count();
    std::erase_if(cfg.faults.uncontained_episodes,
                  [&](const auto& ep) { return ep.gpu.node >= node_count; });
    std::erase_if(cfg.faults.degraded_memory_episodes,
                  [&](const auto& ep) { return ep.gpu.node >= node_count; });
  }

  analysis::DatasetManifest manifest;
  manifest.name = quick ? "delta-a100-quick" : "delta-a100-full";
  manifest.spec = cfg.spec;
  manifest.periods = analysis::StudyPeriods::make(
      cfg.faults.study_begin, cfg.faults.op_begin, cfg.faults.study_end);

  obs::Logger::Options log_opts;
  if (quiet) log_opts.text_min_level = obs::LogLevel::kError;
  obs::Logger logger(log_opts);
  obs::Logger::install(&logger);

  obs::MetricsRegistry registry;
  cfg.metrics = &registry;
  obs::Tracer tracer;
  if (!trace_file.empty()) obs::Tracer::install(&tracer);

  obs::RunManifest run;
  run.tool = "gpures-simulate";
  run.dataset = out_dir;
  run.seed = cfg.seed;
  run.config_hash = config_fingerprint(cfg, config_text);
  run.threads = cfg.pipeline.num_threads;
  run.started_at = obs::wall_clock_iso();
  run.extra.emplace_back("simd_backend",
                         std::string(simd::to_string(simd::active())));

  int rc = 0;
  try {
    analysis::DatasetWriter writer(out_dir, manifest);
    analysis::DeltaCampaign campaign(cfg);
    campaign.set_dataset_writer(&writer);
    obs::ProgressReporter progress("simulating day", !quiet);
    campaign.set_progress_reporter(&progress);
    campaign.run();
    progress.finish();
    writer.finalize().throw_if_error();

    run.finished_at = obs::wall_clock_iso();
    run.extra.emplace_back("day_files", std::to_string(writer.days_written()));
    run.extra.emplace_back("sim_shards", std::to_string(campaign.sim_shards()));
    run.extra.emplace_back("raw_lines", std::to_string(campaign.raw_log_lines()));
    run.extra.emplace_back("accounting_rows",
                           std::to_string(campaign.job_records().size()));
    if (quick) run.extra.emplace_back("mode", "quick");

    logger.info("simulate", "wrote dataset",
                {{"dir", out_dir},
                 {"day_files", writer.days_written()},
                 {"raw_lines", campaign.raw_log_lines()},
                 {"accounting_rows", campaign.job_records().size()}});
  } catch (const std::exception& e) {
    logger.error("simulate", e.what());
    rc = 1;
  }
  obs::Tracer::install(nullptr);
  if (rc != 0) return rc;

  // Provenance manifest rides along with the dataset (per-stage totals come
  // from the embedded metrics snapshot).
  const auto run_path = std::filesystem::path(out_dir) / "run_manifest.json";
  const bool wrote =
      cli::write_artifact(kTool, run_path, run.to_json(&registry)) &&
      cli::write_artifact(kTool, metrics_file,
                          obs::render_metrics_file(registry, metrics_file)) &&
      cli::write_artifact(kTool, trace_file, tracer.to_chrome_json());
  return wrote ? 0 : 1;
}
