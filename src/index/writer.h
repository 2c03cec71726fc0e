// Writer for the persistent error index (gpures.idx).
//
// Serializes the pipeline's Stage II/III outputs — coalesced errors, job
// exposure intervals, unavailability intervals — into the columnar format
// defined in format.h, together with each job's exposure masks at the
// recorded attribution (the exposure join, run once at write time).  The
// writer is a pure function of its input: columns are sorted with
// total-order keys, padding is zeroed, and nothing time-of-day- or
// thread-dependent is emitted, so a pipeline run that is byte-identical
// across --threads produces a byte-identical artifact too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/availability.h"
#include "analysis/coalesce.h"
#include "analysis/job_impact.h"
#include "analysis/job_stats.h"
#include "analysis/periods.h"
#include "cluster/topology.h"
#include "common/error.h"

namespace gpures::index {

/// Everything the artifact captures.  Pointers are borrowed for the call.
struct IndexBuildInput {
  analysis::StudyPeriods periods;
  /// Job-failure attribution window the pipeline ran with (queries may
  /// override it per call; this is the recorded default).
  common::Duration attribution_window = 20;
  analysis::Attribution attribution = analysis::Attribution::kGpuLevel;
  /// AvailabilityConfig::max_interval_h the intervals were computed with.
  double max_interval_h = 24.0 * 30;
  /// Aggregate-MTBE outlier handling (ErrorStatsConfig) the pipeline ran
  /// with; recorded so query-time MTTF replays the exact batch semantics.
  double outlier_share = 0.5;
  std::uint64_t outlier_min = 1000;
  bool exclude_outliers_from_totals = true;
  const cluster::Topology* topo = nullptr;
  const std::vector<analysis::CoalescedError>* errors = nullptr;
  const analysis::JobTable* jobs = nullptr;
  const std::vector<analysis::Unavailability>* unavailability = nullptr;
};

struct IndexWriteStats {
  std::uint64_t bytes = 0;
  std::uint64_t errors = 0;
  std::uint64_t loc_entries = 0;
  std::uint64_t jobs = 0;
  std::uint64_t job_gpus = 0;
  std::uint64_t unavailability = 0;
  /// Unavailability intervals dropped because their host is not in the
  /// topology (the artifact stores node indices, not names).
  std::uint64_t dropped_unknown_hosts = 0;
};

/// Serialize to bytes.  Deterministic: equal inputs yield equal strings.
common::Result<std::string> serialize_index(const IndexBuildInput& in);

/// Serialize and write to `path` (atomically via a temp file + rename, so a
/// crashed writer never leaves a half-written artifact under the real name).
common::Result<IndexWriteStats> write_index(const IndexBuildInput& in,
                                            const std::string& path);

}  // namespace gpures::index
