// gpures-serve: crash-safe follow-mode ingestion daemon.
//
//   gpures-serve --data DIR [--follow] [--resume]
//                [--checkpoint-dir DIR] [--checkpoint-interval N]
//                [--retry-max N] [--retry-backoff-ms N] [--retry-deadline-ms N]
//                [--report WHAT] [--write-index FILE] [--export-json FILE]
//                [--quality-report FILE] [--metrics FILE] ...
//
// Tails the dataset the way a site would feed live logs: day files may grow,
// rotate, appear late, or fail to read.  Ingestion state is checkpointed
// atomically (see src/serve/checkpoint.h), so `kill -9` at any point followed
// by `--resume` produces final artifacts byte-identical to an uninterrupted
// run — at any --threads.  Sources whose retry budget is exhausted are
// degraded (quarantined, counted, re-probed), never fatal in lenient mode.
//
// Default is --once: drain everything currently on disk, emit the same
// artifacts gpures-analyze would, and exit.  --follow keeps tailing until
// SIGINT/SIGTERM, then checkpoints, finalizes, and emits.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "analysis/export.h"
#include "analysis/mitigation.h"
#include "analysis/reports.h"
#include "analysis/survival.h"
#include "analysis/trends.h"
#include "common/io.h"
#include "common/strings.h"
#include "index/writer.h"
#include "obs/expfmt.h"
#include "obs/log.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "serve/serve.h"
#include "simd/dispatch.h"

using namespace gpures;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

void usage() {
  std::fprintf(
      stderr,
      "usage: gpures-serve --data DIR [options]\n"
      "  --data DIR             dataset directory (required)\n"
      "  --follow               keep tailing until SIGINT/SIGTERM\n"
      "                         (default: --once, drain and exit)\n"
      "  --once                 drain everything on disk, emit, exit\n"
      "  --resume               restore the latest checkpoint before serving\n"
      "  --checkpoint-dir DIR   where to persist checkpoints (off when unset)\n"
      "  --checkpoint-interval N  ticks between snapshots (default 16)\n"
      "  --poll-ms N            follow-mode sleep between idle ticks\n"
      "                         (default 200)\n"
      "  --max-ticks N          stop after N ticks (testing; 0 = unlimited)\n"
      "  --threads N            chunk-parse worker threads (0 = serial;\n"
      "                         output is byte-identical either way)\n"
      "  --max-chunk-bytes N    read granularity (default 4194304)\n"
      "  --retry-max N          read attempts before degrading (default 5)\n"
      "  --retry-backoff-ms N   first retry delay (default 10; doubles,\n"
      "                         capped by --retry-backoff-max-ms)\n"
      "  --retry-backoff-max-ms N  backoff cap (default 1000)\n"
      "  --retry-deadline-ms N  total backoff budget per read (0 = off)\n"
      "  --stall-ticks N        watchdog threshold (default 8)\n"
      "  --reprobe-ticks N      degraded-source re-probe cadence (default 16)\n"
      "  --ingest-policy P      strict|lenient (default lenient: degrade and\n"
      "                         keep serving; strict fails fast like batch)\n"
      "  --error-budget N       lenient: abort if any one file exceeds N\n"
      "                         quarantined lines / rejected rows (0 = off)\n"
      "  --coalesce-window S    Stage II window (default 30)\n"
      "  --window S             job-failure attribution window (default 20)\n"
      "  --node-level           node-level attribution (default: device)\n"
      "  --report WHAT          all|none|table1|table2|table3|fig2|findings|\n"
      "                         trends|survival|mitigation   (default all)\n"
      "  --write-index FILE     write the binary error index (gpures.idx)\n"
      "  --export-json FILE     write everything as one JSON document\n"
      "  --quality-report FILE  write the data-quality accounting as JSON\n"
      "  --metrics FILE         write the metrics snapshot (.prom = text\n"
      "                         exposition)\n"
      "  --simd B               Stage-I scan backend: auto|scalar|swar|avx2\n"
      "  --log-json FILE        mirror log records to FILE as JSONL\n"
      "  --log-level L          debug|info|warn|error (default info)\n"
      "  --chaos-io-fault SPEC  testing: SUBSTRING:BYTES[:KIND[:TIMES]]\n"
      "                         (see common/io.h)\n"
      "  --chaos-kill POINT:N   testing: raise SIGKILL at the Nth occurrence\n"
      "                         of POINT (tick|ckpt-pre|ckpt-mid|ckpt-post)\n"
      "  --quiet                suppress warnings on stderr\n");
}

long long parse_count(const char* flag, std::string_view s) {
  const long long v = common::parse_ll(s);
  if (v < 0) {
    std::fprintf(stderr,
                 "gpures-serve: %s wants a non-negative integer, got '%s'\n",
                 flag, std::string(s).c_str());
    std::exit(2);
  }
  return v;
}

/// Every artifact goes through the same atomic tmp+rename path the index and
/// checkpoints use: a crash mid-emit never leaves a torn file for a reader.
bool write_artifact(const std::filesystem::path& path, std::string_view text) {
  const auto st = common::write_file_atomic(path.string(), text);
  if (!st.ok()) {
    obs::Logger::current().error("serve", "artifact write failed",
                                 {{"path", path.string()},
                                  {"error", st.error().message}});
    return false;
  }
  return true;
}

struct ChaosKill {
  std::string point;
  std::uint64_t nth = 0;  ///< 1-based occurrence that fires
  std::uint64_t hits = 0;
};

}  // namespace

int main(int argc, char** argv) {
  serve::ServeConfig scfg;
  std::string report = "all";
  std::string index_file;
  std::string json_file;
  std::string quality_file;
  std::string metrics_file;
  std::string log_json_file;
  std::string chaos_io_fault;
  std::string chaos_kill_spec;
  std::string simd_choice;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  bool follow = false;
  bool resume = false;
  bool quiet = false;
  long long poll_ms = 200;
  long long max_ticks = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "gpures-serve: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--data") {
      scfg.data_dir = next("--data");
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--once") {
      follow = false;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--checkpoint-dir") {
      scfg.checkpoint_dir = next("--checkpoint-dir");
    } else if (arg == "--checkpoint-interval") {
      scfg.checkpoint_interval = static_cast<std::uint64_t>(parse_count(
          "--checkpoint-interval", next("--checkpoint-interval")));
      if (scfg.checkpoint_interval == 0) {
        std::fprintf(stderr,
                     "gpures-serve: --checkpoint-interval must be >= 1\n");
        return 2;
      }
    } else if (arg == "--poll-ms") {
      poll_ms = parse_count("--poll-ms", next("--poll-ms"));
    } else if (arg == "--max-ticks") {
      max_ticks = parse_count("--max-ticks", next("--max-ticks"));
    } else if (arg == "--threads") {
      const long long n = parse_count("--threads", next("--threads"));
      if (n > 256) {
        std::fprintf(stderr, "gpures-serve: --threads must be in [0, 256]\n");
        return 2;
      }
      scfg.threads = static_cast<std::uint32_t>(n);
    } else if (arg == "--max-chunk-bytes") {
      const long long n =
          parse_count("--max-chunk-bytes", next("--max-chunk-bytes"));
      if (n == 0) {
        std::fprintf(stderr, "gpures-serve: --max-chunk-bytes must be >= 1\n");
        return 2;
      }
      scfg.max_chunk_bytes = static_cast<std::uint64_t>(n);
    } else if (arg == "--retry-max") {
      const long long n = parse_count("--retry-max", next("--retry-max"));
      if (n == 0) {
        std::fprintf(stderr, "gpures-serve: --retry-max must be >= 1\n");
        return 2;
      }
      scfg.retry.max_attempts = static_cast<std::uint32_t>(n);
    } else if (arg == "--retry-backoff-ms") {
      scfg.retry.backoff_ms = static_cast<std::uint64_t>(
          parse_count("--retry-backoff-ms", next("--retry-backoff-ms")));
    } else if (arg == "--retry-backoff-max-ms") {
      scfg.retry.backoff_max_ms = static_cast<std::uint64_t>(parse_count(
          "--retry-backoff-max-ms", next("--retry-backoff-max-ms")));
    } else if (arg == "--retry-deadline-ms") {
      scfg.retry.deadline_ms = static_cast<std::uint64_t>(
          parse_count("--retry-deadline-ms", next("--retry-deadline-ms")));
    } else if (arg == "--stall-ticks") {
      scfg.stall_ticks = static_cast<std::uint64_t>(
          parse_count("--stall-ticks", next("--stall-ticks")));
    } else if (arg == "--reprobe-ticks") {
      scfg.reprobe_ticks = static_cast<std::uint64_t>(
          parse_count("--reprobe-ticks", next("--reprobe-ticks")));
    } else if (arg == "--ingest-policy") {
      const auto p = analysis::parse_ingest_policy(next("--ingest-policy"));
      if (!p) {
        std::fprintf(
            stderr,
            "gpures-serve: --ingest-policy must be strict or lenient\n");
        return 2;
      }
      scfg.policy = *p;
    } else if (arg == "--error-budget") {
      scfg.error_budget = static_cast<std::uint64_t>(
          parse_count("--error-budget", next("--error-budget")));
    } else if (arg == "--coalesce-window") {
      scfg.coalescer.window =
          parse_count("--coalesce-window", next("--coalesce-window"));
    } else if (arg == "--window") {
      scfg.attribution_window = parse_count("--window", next("--window"));
    } else if (arg == "--node-level") {
      scfg.attribution = analysis::Attribution::kNodeLevel;
    } else if (arg == "--report") {
      report = next("--report");
    } else if (arg == "--write-index") {
      index_file = next("--write-index");
    } else if (arg == "--export-json") {
      json_file = next("--export-json");
    } else if (arg == "--quality-report") {
      quality_file = next("--quality-report");
    } else if (arg == "--metrics") {
      metrics_file = next("--metrics");
    } else if (arg == "--simd") {
      simd_choice = next("--simd");
    } else if (arg == "--log-json") {
      log_json_file = next("--log-json");
    } else if (arg == "--log-level") {
      const auto lvl = obs::parse_log_level(next("--log-level"));
      if (!lvl) {
        std::fprintf(
            stderr,
            "gpures-serve: --log-level must be debug|info|warn|error\n");
        return 2;
      }
      log_level = *lvl;
    } else if (arg == "--chaos-io-fault") {
      chaos_io_fault = next("--chaos-io-fault");
    } else if (arg == "--chaos-kill") {
      chaos_kill_spec = next("--chaos-kill");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "gpures-serve: unknown argument '%s'\n",
                   arg.c_str());
      usage();
      return 2;
    }
  }
  if (!simd_choice.empty()) {
    const auto backend = simd::parse_backend(simd_choice);
    if (!backend) {
      std::fprintf(stderr,
                   "gpures-serve: --simd must be auto|scalar|swar|avx2\n");
      return 2;
    }
    if (!simd::set_active(*backend)) {
      std::fprintf(
          stderr,
          "gpures-serve: --simd %s: backend not available on this host\n",
          simd_choice.c_str());
      return 2;
    }
  }
  if (scfg.data_dir.empty()) {
    usage();
    return 2;
  }

  obs::Logger::Options log_opts;
  log_opts.min_level = log_level;
  if (quiet) log_opts.text_min_level = obs::LogLevel::kError;
  log_opts.jsonl_path = log_json_file;
  log_opts.max_per_key = 100;
  obs::Logger logger(log_opts);
  obs::Logger::install(&logger);
  auto& log = obs::Logger::current();
  if (!logger.sink_status().ok()) {
    std::fprintf(stderr, "gpures-serve: %s\n",
                 logger.sink_status().error().message.c_str());
    return 1;
  }

  common::IoFaultPlan fault_plan;
  if (!chaos_io_fault.empty()) {
    auto parsed = common::parse_io_fault_spec(chaos_io_fault);
    if (!parsed.ok()) {
      std::fprintf(stderr, "gpures-serve: --chaos-io-fault: %s\n",
                   parsed.error().message.c_str());
      return 2;
    }
    fault_plan = std::move(parsed).take();
    common::set_io_fault_plan(&fault_plan);
  }

  ChaosKill chaos_kill;
  if (!chaos_kill_spec.empty()) {
    const auto colon = chaos_kill_spec.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      std::fprintf(stderr, "gpures-serve: --chaos-kill wants POINT:N\n");
      return 2;
    }
    chaos_kill.point = chaos_kill_spec.substr(0, colon);
    if (chaos_kill.point != "tick" && chaos_kill.point != "ckpt-pre" &&
        chaos_kill.point != "ckpt-mid" && chaos_kill.point != "ckpt-post") {
      std::fprintf(
          stderr,
          "gpures-serve: --chaos-kill POINT must be "
          "tick|ckpt-pre|ckpt-mid|ckpt-post\n");
      return 2;
    }
    chaos_kill.nth = static_cast<std::uint64_t>(parse_count(
        "--chaos-kill", std::string_view(chaos_kill_spec).substr(colon + 1)));
    if (chaos_kill.nth == 0) {
      std::fprintf(stderr, "gpures-serve: --chaos-kill N must be >= 1\n");
      return 2;
    }
  }

  obs::MetricsRegistry registry;
  scfg.metrics = &registry;
  scfg.warn = [&log](const std::string& msg) { log.warn("serve", msg); };
  if (!chaos_kill.point.empty()) {
    scfg.chaos_point = [&chaos_kill](const char* point) {
      if (chaos_kill.point != point) return;
      if (++chaos_kill.hits == chaos_kill.nth) {
        // A real, unblockable kill: no destructors, no atexit, no flush —
        // exactly the crash the checkpoint recovery contract is tested
        // against.
        std::raise(SIGKILL);
      }
    };
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // The session takes the config; keep the analysis knobs the emit phase
  // still needs.
  const common::Duration attribution_window = scfg.attribution_window;
  const analysis::Attribution attribution = scfg.attribution;
  const double outlier_share = scfg.outlier_share;
  const std::uint64_t outlier_min = scfg.outlier_min;

  serve::ServeSession session(std::move(scfg));
  auto st = session.open(resume);
  if (!st.ok()) {
    log.error("serve", st.error().message);
    return 1;
  }

  // The serve loop.  --once drains what is on disk; --follow keeps tailing
  // until a signal arrives, sleeping between idle ticks.
  while (true) {
    st = session.tick();
    if (!st.ok()) {
      log.error("serve", st.error().message);
      return 1;
    }
    if (g_stop != 0) break;
    if (max_ticks > 0 &&
        session.ticks() >= static_cast<std::uint64_t>(max_ticks)) {
      break;
    }
    if (!follow && session.idle()) break;
    if (follow && session.idle() && poll_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
  }

  // Graceful shutdown: persist the pre-drain state first (a follow-mode
  // restart resumes the tail), then drain and emit.
  st = session.checkpoint_now();
  if (!st.ok()) {
    log.error("serve", st.error().message);
    return 1;
  }
  st = session.finalize();
  if (!st.ok()) {
    log.error("serve", st.error().message);
    return 1;
  }
  common::set_io_fault_plan(nullptr);

  const auto& quality = session.quality();
  registry.counter("ingest.lines_kept").add(quality.lines_kept);
  registry.counter("ingest.lines_quarantined")
      .add(quality.quarantined_lines());
  registry.counter("ingest.bytes_quarantined")
      .add(quality.quarantined_bytes());
  registry.counter("ingest.days_missing").add(quality.missing_days.size());
  registry.counter("ingest.days_skipped").add(quality.skipped_days.size());
  registry.counter("ingest.days_zero_byte").add(quality.zero_byte_days);
  registry.counter("ingest.stray_files").add(quality.stray_files.size());
  registry.counter("ingest.accounting_rows_rejected")
      .add(quality.accounting_rows_rejected);

  log.info("serve", "serve complete",
           {{"ticks", session.ticks()},
            {"errors", session.errors().size()},
            {"jobs", session.jobs().jobs.size()},
            {"degraded_sources", session.degraded_count()},
            {"checkpoint_seq", session.checkpoint_seq()}});

  const auto& topo = session.topo();
  const auto& periods = session.periods();
  const bool all = report == "all";
  if (report != "none") {
    const auto stats = session.error_stats();
    if (all || report == "table1") {
      std::printf("%s\n", analysis::render_table1(stats).c_str());
    }
    if (all || report == "findings") {
      std::printf("%s\n", analysis::render_findings(stats).c_str());
    }
    if ((all || report == "table2") && !session.jobs().jobs.empty()) {
      std::printf("%s\n", analysis::render_table2(session.job_impact()).c_str());
    }
    if ((all || report == "table3") && !session.jobs().jobs.empty()) {
      std::printf("%s\n", analysis::render_table3(session.job_stats()).c_str());
    }
    if (all || report == "fig2") {
      std::printf("%s\n",
                  analysis::render_fig2(session.availability(),
                                        session.mttf_estimate_h())
                      .c_str());
    }
    if (all || report == "trends") {
      std::printf("%s\n",
                  analysis::render_trends(session.errors(), periods,
                                          session.pool())
                      .c_str());
    }
    if ((all || report == "mitigation") && !session.jobs().jobs.empty()) {
      analysis::JobImpactConfig icfg;
      icfg.window = attribution_window;
      icfg.period = periods.op;
      icfg.attribution = attribution;
      std::printf("%s\n",
                  analysis::render_mitigation(session.jobs(), session.errors(),
                                              icfg, session.pool())
                      .c_str());
    }
    if (all || report == "survival") {
      std::printf("%s\n",
                  analysis::render_survival(session.errors(), periods,
                                            topo.total_gpus(), session.pool())
                      .c_str());
    }
  }

  if (!index_file.empty()) {
    const auto avail = session.availability();
    index::IndexBuildInput in;
    in.periods = periods;
    in.attribution_window = attribution_window;
    in.attribution = attribution;
    in.outlier_share = outlier_share;
    in.outlier_min = outlier_min;
    in.topo = &topo;
    in.errors = &session.errors();
    in.jobs = &session.jobs();
    in.unavailability = &avail.intervals;
    const auto wrote = index::write_index(in, index_file);
    if (!wrote.ok()) {
      log.error("serve", wrote.error().message);
      return 1;
    }
    log.info("serve", "wrote index",
             {{"path", index_file}, {"bytes", wrote.value().bytes}});
  }

  if (!json_file.empty()) {
    const auto stats = session.error_stats();
    const auto impact = session.job_impact();
    const auto jobs = session.job_stats();
    const auto avail = session.availability();
    analysis::ExportBundle bundle;
    bundle.error_stats = &stats;
    bundle.job_stats = &jobs;
    bundle.job_impact = &impact;
    bundle.availability = &avail;
    bundle.mttf_h = session.mttf_estimate_h();
    if (!write_artifact(json_file, analysis::to_json(bundle) + "\n")) return 1;
  }

  if (!quality_file.empty() &&
      !write_artifact(quality_file, quality.to_json() + "\n")) {
    return 1;
  }
  if (!metrics_file.empty() &&
      !write_artifact(metrics_file,
                      obs::render_metrics_file(registry, metrics_file))) {
    return 1;
  }
  return 0;
}
