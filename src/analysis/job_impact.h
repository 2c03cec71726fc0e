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
// This header holds the exposure join once for every consumer: the batch
// pipeline, the mitigation what-ifs and the gpures.idx query engine.  One
// location layout (ErrorIndex, read through ErrorIndexView; the .idx loc
// sections store it verbatim), one per-job attribution rule (expose) and
// one Table II fold (ImpactTally).  Only the job loops differ: the batch
// join shards a JobTable over contiguous job ranges on a thread pool and
// merges per-shard outputs in fixed shard order, so the parallel result is
// byte-identical to the serial one (see DESIGN.md "Parallel pipeline
// determinism"); the query engine walks end-sorted mapped job columns.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/coalesce.h"
#include "analysis/job_stats.h"
#include "analysis/periods.h"
#include "common/thread_pool.h"

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

/// Index the reported-family errors falling inside `period`.  O(E log E);
/// the build is deterministic for any input order.
ErrorIndex build_error_index(const std::vector<CoalescedError>& errors,
                             const Period& period);

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

/// Table II counts, folded one job at a time and merged by summation, so
/// any job partition yields the serial counts exactly.
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
  void merge(const ImpactTally& other);
  /// Table II: totals plus one row per reported family, with Wilson CIs.
  JobImpact finish(const JobImpactConfig& cfg) const;
};

/// Per-shard tallies of one exposure join (shard 0 only in serial mode).
/// Reported through the obs registry as pipe.stage3.shard.N.* counters.
struct ExposureJoinStats {
  struct Shard {
    std::uint64_t jobs_scanned = 0;  ///< jobs in the shard's range and period
    std::uint64_t jobs_exposed = 0;  ///< of those, jobs with >= 1 error
  };
  std::vector<Shard> shards;

  std::uint64_t total_exposed() const;
};

/// Compute exposures for every job ending in cfg.period (jobs with no
/// errors are omitted).  With a pool, the job table is sharded into
/// pool->size() contiguous ranges joined concurrently against `index`;
/// per-shard outputs are concatenated in shard order, so the returned
/// vector is identical to a serial join for any worker count.
std::vector<JobExposure> compute_exposures(
    const JobTable& table, const ErrorIndexView& index,
    const JobImpactConfig& cfg, common::ThreadPool* pool = nullptr,
    ExposureJoinStats* stats = nullptr);

/// Convenience overload: builds the index, then joins serially.
std::vector<JobExposure> compute_exposures(
    const JobTable& table, const std::vector<CoalescedError>& errors,
    const JobImpactConfig& cfg);

/// Bit index of a family in exposure masks; -1 if not a reported family.
int exposure_bit(xid::Code code);

/// Correlate coalesced errors with job records.  Errors may be in any order;
/// jobs may be in any order.  With a pool, the join is sharded as in
/// compute_exposures and the per-shard tallies are merged in fixed shard
/// order — integer sums, so the result is exactly the serial one.  The same
/// pass fills `exposures`, when non-null, with compute_exposures' list, so
/// Table II and the mitigation what-ifs can share one join.
JobImpact compute_job_impact(const JobTable& table,
                             const std::vector<CoalescedError>& errors,
                             const JobImpactConfig& cfg,
                             common::ThreadPool* pool = nullptr,
                             ExposureJoinStats* stats = nullptr,
                             std::vector<JobExposure>* exposures = nullptr);

}  // namespace gpures::analysis
