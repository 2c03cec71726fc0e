// Stage III inputs and job-population statistics (paper Table III + §V-A).
//
// `JobView` is the pipeline's compact internal form of an accounting record:
// the analysis holds ~1.5M of them, so node lists are stored inline for the
// common 1–2 node case with a spill table for wide jobs, and the ML label is
// re-derived from the job name by keyword matching — mirroring the paper's
// methodology (exact submission scripts were not available to them either).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/periods.h"
#include "common/stats.h"
#include "slurm/job.h"

namespace gpures::analysis {

/// Packed GPU id: (node << 8) | slot — matches xid::gpu_key truncated to 32
/// bits (node counts are far below 2^23).
using PackedGpu = std::int32_t;

constexpr PackedGpu pack_gpu(std::int32_t node, std::int32_t slot) {
  return (node << 8) | (slot & 0xff);
}
constexpr std::int32_t packed_node(PackedGpu g) { return g >> 8; }
constexpr std::int32_t packed_slot(PackedGpu g) { return g & 0xff; }

/// Compact per-job record used by Stage III analyses.
struct JobView {
  std::uint64_t id = 0;
  common::TimePoint start = 0;
  common::TimePoint end = 0;
  std::int32_t gpus = 1;
  slurm::JobState state = slurm::JobState::kCompleted;
  bool is_ml = false;             ///< derived from the job name
  std::uint8_t inline_count = 0;  ///< valid gpus_inline entries
  std::array<PackedGpu, 4> gpus_inline{{-1, -1, -1, -1}};
  std::int32_t spill_index = -1;  ///< index into JobTable::spill for wide jobs

  double elapsed_minutes() const {
    return static_cast<double>(end - start) / 60.0;
  }
  double gpu_hours() const {
    return common::to_hours(end - start) * static_cast<double>(gpus);
  }
};

/// The job population plus spilled GPU lists for wide jobs.
struct JobTable {
  std::vector<JobView> jobs;
  std::vector<std::vector<PackedGpu>> spill;

  /// Allocated GPUs of a job (inline or spilled), packed.
  std::span<const PackedGpu> gpus_of(const JobView& j) const;

  /// Unique node indices of a job, appended to `out` (cleared first).
  void nodes_of(const JobView& j, std::vector<std::int32_t>& out) const;

  /// A job converted from an accounting record.  A wide job's GPU list is
  /// appended to `spill` and the view's spill_index points at it.
  static JobView convert(const slurm::JobRecord& rec,
                         std::vector<std::vector<PackedGpu>>& spill);

  /// Append a job converted from an accounting record.
  void add(const slurm::JobRecord& rec) { jobs.push_back(convert(rec, spill)); }
};

/// Keyword classifier approximating ML workloads from job names (the paper
/// treats names containing e.g. "model" or "train" as ML-indicative).
bool is_ml_name(std::string_view name);

/// Table III GPU-count buckets.
struct GpuBucket {
  std::string label;
  std::int32_t lo = 1;   ///< inclusive
  std::int32_t hi = 1;   ///< inclusive
};

/// The paper's bucket boundaries: 1, 2-4, 4-8, 8-32, 32-64, 64-128,
/// 128-256, 256+.
std::vector<GpuBucket> paper_gpu_buckets();

/// One Table III row.
struct BucketStats {
  GpuBucket bucket;
  std::uint64_t count = 0;
  double share = 0.0;
  double mean_minutes = 0.0;
  double p50_minutes = 0.0;
  double p99_minutes = 0.0;
  double ml_gpu_hours = 0.0;
  double non_ml_gpu_hours = 0.0;
};

struct JobStats {
  std::uint64_t total_jobs = 0;
  double success_rate = 0.0;           ///< COMPLETED / total
  double single_gpu_share = 0.0;       ///< paper: 69.86%
  double small_multi_gpu_share = 0.0;  ///< 2-4 GPUs (paper: 27.31%)
  double large_gpu_share = 0.0;        ///< >4 GPUs (paper: 2.83%)
  std::vector<BucketStats> buckets;
  /// Share of jobs classified ML by name.
  double ml_job_share = 0.0;
};

/// Compute Table III-style statistics over jobs whose *end* falls inside
/// `window` (pass periods.whole() for the full characterization period).
JobStats compute_job_stats(const JobTable& table, const Period& window);

}  // namespace gpures::analysis
