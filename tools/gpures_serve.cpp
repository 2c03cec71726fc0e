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

#include "cli.h"
#include "common/io.h"
#include "obs/expfmt.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/serve.h"

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

constexpr std::string_view kTool = "gpures-serve";

struct ChaosKill {
  std::string point;
  std::uint64_t nth = 0;  ///< 1-based occurrence that fires
  std::uint64_t hits = 0;
};

}  // namespace

int main(int argc, char** argv) {
  serve::ServeConfig scfg;
  cli::EmitRequest emit;
  std::string quality_file;
  std::string metrics_file;
  std::string chaos_io_fault;
  std::string chaos_kill_spec;
  std::string simd_choice;
  cli::LogFlags log_flags;
  bool follow = false;
  bool resume = false;
  long long poll_ms = 200;
  long long max_ticks = 0;

  cli::Args args(kTool, argc, argv);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (arg == "--data") {
      scfg.data_dir = args.value();
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--once") {
      follow = false;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--checkpoint-dir") {
      scfg.checkpoint_dir = args.value();
    } else if (arg == "--checkpoint-interval") {
      scfg.checkpoint_interval = static_cast<std::uint64_t>(args.count(1));
    } else if (arg == "--poll-ms") {
      poll_ms = args.count();
    } else if (arg == "--max-ticks") {
      max_ticks = args.count();
    } else if (arg == "--threads") {
      scfg.threads = args.threads();
    } else if (arg == "--max-chunk-bytes") {
      scfg.max_chunk_bytes = static_cast<std::uint64_t>(args.count(1));
    } else if (arg == "--retry-max") {
      scfg.retry.max_attempts = static_cast<std::uint32_t>(args.count(1));
    } else if (arg == "--retry-backoff-ms") {
      scfg.retry.backoff_ms = static_cast<std::uint64_t>(args.count());
    } else if (arg == "--retry-backoff-max-ms") {
      scfg.retry.backoff_max_ms = static_cast<std::uint64_t>(args.count());
    } else if (arg == "--retry-deadline-ms") {
      scfg.retry.deadline_ms = static_cast<std::uint64_t>(args.count());
    } else if (arg == "--stall-ticks") {
      scfg.stall_ticks = static_cast<std::uint64_t>(args.count());
    } else if (arg == "--reprobe-ticks") {
      scfg.reprobe_ticks = static_cast<std::uint64_t>(args.count());
    } else if (arg == "--ingest-policy") {
      scfg.policy = cli::parse_ingest_policy(kTool, args.value());
    } else if (arg == "--error-budget") {
      scfg.error_budget = static_cast<std::uint64_t>(args.count());
    } else if (arg == "--coalesce-window") {
      scfg.coalescer.window = args.count();
    } else if (arg == "--window") {
      scfg.attribution_window = args.count();
    } else if (arg == "--node-level") {
      scfg.attribution = analysis::Attribution::kNodeLevel;
    } else if (arg == "--report") {
      emit.report = args.value();
    } else if (arg == "--write-index") {
      emit.index_file = args.value();
    } else if (arg == "--export-json") {
      emit.json_file = args.value();
    } else if (arg == "--quality-report") {
      quality_file = args.value();
    } else if (arg == "--metrics") {
      metrics_file = args.value();
    } else if (arg == "--simd") {
      simd_choice = args.value();
    } else if (arg == "--log-json") {
      log_flags.json_file = args.value();
    } else if (arg == "--log-level") {
      log_flags.level = cli::parse_log_level(kTool, args.value());
    } else if (arg == "--chaos-io-fault") {
      chaos_io_fault = args.value();
    } else if (arg == "--chaos-kill") {
      chaos_kill_spec = args.value();
    } else if (arg == "--quiet") {
      log_flags.quiet = true;
    } else {
      args.unknown(usage);
    }
  }
  if (!cli::select_simd(kTool, simd_choice)) return 2;
  if (scfg.data_dir.empty()) {
    usage();
    return 2;
  }

  const auto logger = cli::start_logger(kTool, log_flags);
  if (!logger) return 1;
  auto& log = obs::Logger::current();

  common::IoFaultPlan fault_plan;
  if (!cli::arm_io_fault(kTool, chaos_io_fault, fault_plan)) return 2;

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
    chaos_kill.nth = static_cast<std::uint64_t>(
        cli::parse_count(kTool, "--chaos-kill",
                         std::string_view(chaos_kill_spec).substr(colon + 1)));
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
  quality.publish(registry);

  log.info("serve", "serve complete",
           {{"ticks", session.ticks()},
            {"errors", session.errors().size()},
            {"jobs", session.jobs().jobs.size()},
            {"degraded_sources", session.degraded_count()},
            {"checkpoint_seq", session.checkpoint_seq()}});

  if (!cli::emit_results(kTool, session, emit)) return 1;

  const bool wrote =
      cli::write_artifact(kTool, quality_file, quality.to_json() + "\n") &&
      cli::write_artifact(kTool, metrics_file,
                          obs::render_metrics_file(registry, metrics_file));
  return wrote ? 0 : 1;
}
