// Shared declarations of the gpures end-to-end benchmark (gpures-perfbench).
//
// A run generates one workload's dataset, then drives it through the same
// public library calls, in the same order, as the CLI tools:
//
//   setup             gpures-simulate
//   analyze_serial    gpures-analyze --report all --write-index, 0 workers
//   analyze_parallel  the same at kWorkers workers
//   query             gpures-query: IndexReader::open + QueryEngine calls
//   serve             gpures-serve --once, no checkpoints
//   serve_ckpt        gpures-serve --once --checkpoint-dir (interval 16)
//
// Each leg runs in a forked child (fresh heap, per-leg peak RSS via wait4)
// and sends a LegResult back over a pipe.  See README.md for the metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/campaign.h"

namespace perfbench {

namespace fs = std::filesystem;

/// Worker count of every parallel leg (setup, analyze_parallel, both serve
/// legs).  Two leaves headroom on a shared 4-vCPU host.
constexpr std::uint32_t kWorkers = 2;

/// One generated dataset shape (the gpures-simulate flags it mirrors).
struct Workload {
  std::string name;
  bool quick = false;         ///< --quick: 90-day window
  std::int32_t nodes = 0;     ///< --nodes N; 0 keeps the 106-node Delta spec
  bool jobs = true;           ///< false = --no-jobs
  double noise = 200.0;       ///< --noise
  double scale = 1.0;         ///< --scale
  std::size_t queries = 0;    ///< calls per round of the seeded query set
};

std::optional<Workload> find_workload(const std::string& name);

/// The CampaignConfig gpures-simulate builds for these flags.
gpures::analysis::CampaignConfig campaign_config(const Workload& wl,
                                                 std::uint64_t seed);

/// Everything a leg needs; copied into the forked child.
struct LegContext {
  Workload wl;
  std::uint64_t seed = 0;
  fs::path work;     ///< per-run scratch directory
  fs::path dataset;  ///< work / "ds"
  bool traced = false;
  /// Self-check test hook: name of a leg whose report text is altered
  /// before hashing, so the output comparison must fail.
  std::string tamper;
};

/// What a leg reports back to the parent.
struct LegResult {
  std::map<std::string, double> values;       ///< metric name -> value
  std::map<std::string, std::string> hashes;  ///< output name -> hex digest
  std::vector<std::string> table;             ///< traced: per-layer rows
  std::string error;                          ///< non-empty = leg failed
  double peak_rss_mb = 0;                     ///< filled in by the parent
};

LegResult leg_setup(const LegContext& ctx);
LegResult leg_analyze(const LegContext& ctx, std::uint32_t workers);
LegResult leg_query(const LegContext& ctx);
LegResult leg_serve(const LegContext& ctx, bool checkpoints);

/// Seconds on the monotonic clock since construction.
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

std::string hex64(std::uint64_t v);
/// XXH64 of a file's bytes, or "" when it cannot be read.
std::string file_digest(const fs::path& path);
/// Sum of regular-file sizes under `dir`.
std::uint64_t tree_bytes(const fs::path& dir);

}  // namespace perfbench
