// Stage III: propagation of GPU errors to user jobs (paper Table II, §V-B).
//
// A job "encounters" an XID family when a coalesced error of that family is
// logged on one of its allocated GPUs (or nodes, under node-level
// attribution) while the job is running.  A job is classified "GPU-failed"
// when it ends in a failure state and a GPU error was detected within the
// attribution window (the paper's 20 seconds) preceding its end.  Per
// family, the job-failure probability is (#GPU-failed jobs encountering it
// in the window) / (#jobs encountering it).
//
// This header holds the attribution once for every consumer: the batch
// Table II, the mitigation what-ifs, the gpures.idx writer and the query
// engine.  One location layout (ErrorIndex over every error of the run, read
// through ErrorIndexView; the .idx loc sections store it verbatim), one
// per-job attribution rule (expose), one exposure pass (mask_jobs: every job
// exposed once over all time, in job-end order, with the masks the .idx
// stores) and one fold of that pass into a period (fold_pass, read through
// ImpactTally).  A run builds the index and runs the pass once; batch
// folds them over the operational period, the writer stores them, and a
// query folds the stored columns over its window.  The pass is serial and
// a pure function of the job table and the index, so its output cannot
// depend on --threads.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/coalesce.h"
#include "analysis/job_stats.h"
#include "analysis/periods.h"

namespace gpures::analysis {

/// Error-to-job attribution granularity.  The paper's Table II numbers imply
/// device-level correlation (a job "encounters" an error only if it holds
/// the logging GPU); node-level attribution — counting every job on the
/// node — is kept as a methodology ablation and systematically dilutes the
/// measured failure probabilities.
enum class Attribution { kGpuLevel, kNodeLevel };

struct JobImpactConfig {
  /// Attribution window: error within this many seconds before job end.
  common::Duration window = 20;
  /// Restrict to jobs that end inside this period (the paper analyzes the
  /// operational period only).
  Period period;
  Attribution attribution = Attribution::kGpuLevel;
};

/// One Table II row.
struct ImpactRow {
  xid::Code code;
  std::uint64_t failed_jobs = 0;       ///< GPU-failed jobs with this XID in window
  std::uint64_t encountering_jobs = 0; ///< jobs with this XID during their run
  double failure_probability = 0.0;    ///< failed / encountering (window-based)
  common::Proportion ci;               ///< Wilson interval on the probability
};

struct JobImpact {
  JobImpactConfig cfg;
  std::vector<ImpactRow> rows;              ///< paper report order
  std::uint64_t gpu_failed_jobs = 0;        ///< distinct GPU-failed jobs
  std::uint64_t jobs_analyzed = 0;          ///< jobs ending in the period
  std::uint64_t failed_jobs_total = 0;      ///< jobs in any failure state
  std::uint64_t jobs_exposed = 0;           ///< jobs with a nonzero run mask

  const ImpactRow* find(xid::Code code) const;
};

/// Per-job exposure record for jobs that encountered at least one error.
/// Bits index into xid::report_order().
struct JobExposure {
  std::size_t job_index = 0;       ///< into JobTable::jobs
  std::uint32_t run_mask = 0;      ///< families seen during the run
  std::uint32_t window_mask = 0;   ///< families seen in the final window
  bool gpu_failed = false;         ///< failure state + window error
};

/// Non-owning view of the exposure-join location index: reported-family
/// errors grouped by packed GPU, groups in ascending key order, entries
/// time-sorted inside each group (ties by bit).  The .idx loc sections are
/// exactly these four columns, so a view is handed out both over an
/// ErrorIndex's vectors and over a mapped artifact.  Node-level lookups
/// scan the key range [pack_gpu(node, 0), pack_gpu(node, 0xff)].
struct ErrorIndexView {
  std::span<const std::int64_t> keys;      ///< distinct packed GPUs, ascending
  std::span<const std::uint64_t> offsets;  ///< keys.size() + 1 group bounds
  std::span<const std::int64_t> time;      ///< entry timestamps
  std::span<const std::uint32_t> bit;      ///< xid::report_order() bit

  /// Group range [lo, hi) of the keys in [key_lo, key_hi].
  std::pair<std::size_t, std::size_t> key_range(std::int64_t key_lo,
                                                std::int64_t key_hi) const;
};

/// The owning columns behind an ErrorIndexView.
struct ErrorIndex {
  std::vector<std::int64_t> keys;
  std::vector<std::uint64_t> offsets;
  std::vector<std::int64_t> time;
  std::vector<std::uint32_t> bit;

  ErrorIndexView view() const { return {keys, offsets, time, bit}; }
};

/// Index every reported-family error (expose clamps to its own period, so
/// one index serves any).  O(E log E); the build is deterministic for any
/// input order.  Traced as stage3.error_index.
ErrorIndex build_error_index(const std::vector<CoalescedError>& errors);

/// Families one job saw, as xid::report_order() bit masks.
struct ExposureMasks {
  std::uint32_t run_mask = 0;     ///< errors during the run
  std::uint32_t window_mask = 0;  ///< of those, errors in the final window
};

/// The attribution rule.  A job running [start, end] on `gpus` sees the
/// errors at its locations stamped strictly after `start` and up to `end`,
/// clamped to cfg.period; the window mask keeps those at or after
/// end - cfg.window.  `node_scratch` is reused across calls.
ExposureMasks expose(const ErrorIndexView& index, common::TimePoint start,
                     common::TimePoint end, std::span<const PackedGpu> gpus,
                     const JobImpactConfig& cfg,
                     std::vector<std::int32_t>& node_scratch);

/// Table II counts, folded one job at a time.
struct ImpactTally {
  static constexpr std::size_t kBits = 32;  ///< width of the exposure masks

  std::uint64_t jobs_analyzed = 0;
  std::uint64_t failed_jobs_total = 0;
  std::uint64_t gpu_failed_jobs = 0;
  std::uint64_t jobs_exposed = 0;  ///< jobs with a nonzero run mask
  std::array<std::uint64_t, kBits> encountering{};
  std::array<std::uint64_t, kBits> failed{};

  /// Fold one job ending in the analysis period.
  void add(slurm::JobState state, const ExposureMasks& masks);
  /// Table II: totals plus one row per reported family, with Wilson CIs.
  JobImpact finish(const JobImpactConfig& cfg) const;
};

/// Bit index of a family in exposure masks; -1 if not a reported family.
int exposure_bit(xid::Code code);

/// An exposed job's run and window masks (xid::report_order() bits, ten
/// families) share one u32: run mask low, window mask high.
inline constexpr std::uint32_t kMaskBits = 16;
constexpr std::uint32_t pack_masks(std::uint32_t run, std::uint32_t window) {
  return run | (window << kMaskBits);
}
constexpr std::uint32_t run_mask_of(std::uint32_t packed) {
  return packed & ((1u << kMaskBits) - 1);
}
constexpr std::uint32_t window_mask_of(std::uint32_t packed) {
  return packed >> kMaskBits;
}

/// The columns of an exposure pass, over an ExposurePass or a mapped .idx.
/// Positions index the jobs in (end, start, id) order and ascend.
struct PassColumns {
  std::span<const std::uint32_t> exposed_pos;    ///< nonzero run mask
  std::span<const std::uint32_t> exposed_masks;  ///< pack_masks per exposed job
  std::span<const std::uint32_t> failed_pos;     ///< failure-state jobs
};

/// Entries of an ascending position column below position `pos`.
inline std::size_t positions_below(std::span<const std::uint32_t> col,
                                   std::size_t pos) {
  return static_cast<std::size_t>(
      std::lower_bound(col.begin(), col.end(), pos) - col.begin());
}

/// The owning columns behind PassColumns, plus the job order they index.
struct ExposurePass {
  std::vector<std::uint32_t> order;  ///< JobTable index at each position
  std::vector<std::uint32_t> exposed_pos;
  std::vector<std::uint32_t> exposed_masks;
  std::vector<std::uint32_t> failed_pos;

  PassColumns columns() const { return {exposed_pos, exposed_masks, failed_pos}; }
};

/// The run's one exposure pass: every job of `table` (fewer than 2^32),
/// sorted by (end, start, id, table index), exposed over all time at
/// `window` and `attribution`.  A job that saw no error on its locations
/// skips expose, and that is most jobs.  Serial and deterministic; traced
/// as stage3.mask_jobs.
ExposurePass mask_jobs(const JobTable& table, const ErrorIndexView& index,
                       common::Duration window, Attribution attribution);

/// A job at one pass position, as a fold reads it.
struct PassJob {
  common::TimePoint start = 0;
  common::TimePoint end = 0;
  slurm::JobState state = slurm::JobState::kCompleted;
  std::span<const PackedGpu> gpus;
};

/// An exposed job's masks in cfg.period, from `packed`, its pass masks (at
/// cfg's window and attribution, over all time).  A job ending in the
/// period is clamped only below, and only when start + 1 < period.begin:
/// such a boundary job re-runs expose with the period clamp and counts in
/// `boundary_jobs`; every other job keeps its pass masks.  A job the pass
/// found unexposed stays unexposed in every period.
ExposureMasks masks_in_period(const ErrorIndexView& index, std::uint32_t packed,
                              const PassJob& job, const JobImpactConfig& cfg,
                              std::vector<std::int32_t>& node_scratch,
                              std::uint64_t& boundary_jobs);

/// Table II counts over the jobs at positions [lo, hi), which must be
/// exactly those ending in cfg.period.  Only exposed jobs can touch a row:
/// each is read through job_at(pos) -> PassJob and masks_in_period, and
/// on_exposed(pos, job, masks) sees, in position order, every one whose
/// masks stay nonzero.  The totals count every job, from positions.
template <typename JobAt, typename OnExposed>
ImpactTally fold_pass(const ErrorIndexView& index, const PassColumns& pass,
                      const JobImpactConfig& cfg, std::size_t lo,
                      std::size_t hi, JobAt&& job_at, OnExposed&& on_exposed,
                      std::uint64_t& boundary_jobs) {
  ImpactTally tally;
  std::vector<std::int32_t> node_scratch;
  for (std::size_t x = positions_below(pass.exposed_pos, lo),
                   x_hi = positions_below(pass.exposed_pos, hi);
       x < x_hi; ++x) {
    const std::size_t pos = pass.exposed_pos[x];
    const PassJob job = job_at(pos);
    const auto m = masks_in_period(index, pass.exposed_masks[x], job, cfg,
                                   node_scratch, boundary_jobs);
    tally.add(job.state, m);
    if (m.run_mask != 0) on_exposed(pos, job, m);
  }
  tally.jobs_analyzed = hi - lo;
  tally.failed_jobs_total = positions_below(pass.failed_pos, hi) -
                            positions_below(pass.failed_pos, lo);
  return tally;
}

/// Table II over cfg.period, folded from `pass` (mask_jobs over `table` and
/// `index` at cfg's window and attribution).  `exposures`, when non-null,
/// receives the jobs ending in the period with a nonzero run mask, in
/// job-table order, for the mitigation what-ifs.
JobImpact fold_job_impact(const JobTable& table, const ErrorIndexView& index,
                          const ExposurePass& pass, const JobImpactConfig& cfg,
                          std::vector<JobExposure>* exposures = nullptr);

/// Convenience: index `errors`, run the pass at cfg's window and
/// attribution, then fold it over cfg.period.  Errors and jobs may be in
/// any order.
JobImpact compute_job_impact(const JobTable& table,
                             const std::vector<CoalescedError>& errors,
                             const JobImpactConfig& cfg,
                             std::vector<JobExposure>* exposures = nullptr);

}  // namespace gpures::analysis
