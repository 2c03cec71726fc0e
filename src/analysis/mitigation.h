// Mitigation what-if analysis (paper Section V-B): checkpointing and
// application-level exception handling as defenses against GPU errors.
//
// The paper examines "potential mitigation techniques such as checkpointing
// and exception handling" and notes that ML frameworks can mask MMU errors
// by skipping faulty iterations.  This module quantifies both on measured
// data:
//
//  * lost work: GPU-hours consumed by jobs that ended GPU-failed — all of it
//    is wasted without checkpointing, only the tail since the last
//    checkpoint is wasted with an interval-C checkpoint scheme (plus the
//    checkpoint overhead paid by *every* job);
//  * exception handling: recompute the GPU-failed population assuming a
//    fraction of MMU-induced failures are masked at the framework level.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/coalesce.h"
#include "analysis/job_impact.h"
#include "analysis/job_stats.h"
#include "common/thread_pool.h"

namespace gpures::analysis {

/// GPU-hours lost to GPU-error-induced failures in a window.
struct LostWork {
  std::uint64_t gpu_failed_jobs = 0;
  double lost_gpu_hours = 0.0;        ///< full runtime of GPU-failed jobs
  double total_gpu_hours = 0.0;       ///< all jobs in the window
  double lost_fraction = 0.0;         ///< lost / total
};

/// Sum the GPU-hours of the GPU-failed jobs in an exposure list
/// (compute_job_impact's for the same table/cfg) and of every job ending in
/// cfg.period.
LostWork compute_lost_work(const JobTable& table,
                           std::span<const JobExposure> exposures,
                           const JobImpactConfig& cfg);

/// Expected waste under an interval-C checkpoint scheme:
///   waste(C) = sum over failed jobs of (min(elapsed, C)/2 + restore) * gpus
///              + (checkpoint_cost * elapsed/C) * gpus summed over ALL jobs.
/// The first term is the re-computation since the last checkpoint (expected
/// C/2 for jobs longer than C); the second is the overhead every job pays.
struct CheckpointPoint {
  double interval_h = 0.0;
  double wasted_gpu_hours = 0.0;      ///< recompute + overhead
  double recompute_gpu_hours = 0.0;
  double overhead_gpu_hours = 0.0;
};

struct CheckpointSweep {
  double checkpoint_cost_h = 0.05;    ///< time to write one checkpoint
  double no_checkpoint_waste = 0.0;   ///< baseline: all failed work lost
  std::vector<CheckpointPoint> points;
  double best_interval_h = 0.0;
  double best_waste = 0.0;
};

CheckpointSweep sweep_checkpoint_interval(
    const JobTable& table, std::span<const JobExposure> exposures,
    const JobImpactConfig& cfg, const std::vector<double>& intervals_h,
    double checkpoint_cost_h = 0.05, double restore_cost_h = 0.1);

/// Exception-handling what-if: fraction of GPU-failed jobs whose window
/// errors were exclusively maskable families (MMU by default) — the upper
/// bound on failures an application-level handler could absorb.
struct MaskingWhatIf {
  std::uint64_t gpu_failed_jobs = 0;
  std::uint64_t maskable_jobs = 0;     ///< only maskable codes in the window
  double maskable_fraction = 0.0;
  double recoverable_gpu_hours = 0.0;  ///< their GPU-hours
};

MaskingWhatIf compute_masking_whatif(
    const JobTable& table, std::span<const JobExposure> exposures,
    const JobImpactConfig& cfg,
    const std::vector<xid::Code>& maskable = {xid::Code::kMmuError});

/// Render the mitigation report: all three what-ifs over one exposure list
/// (compute_job_impact's or fold_job_impact's for the same table/cfg).
std::string render_mitigation(const JobTable& table,
                              std::span<const JobExposure> exposures,
                              const JobImpactConfig& cfg);
/// Same, running its own compute_job_impact.  The exposure pass is serial,
/// so `pool` is unused; it stays for existing callers.
std::string render_mitigation(const JobTable& table,
                              const std::vector<CoalescedError>& errors,
                              const JobImpactConfig& cfg,
                              common::ThreadPool* pool = nullptr);

}  // namespace gpures::analysis
