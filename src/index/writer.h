// Writer for the persistent error index (gpures.idx).
//
// Serializes the pipeline's Stage II/III outputs — coalesced errors, job
// exposure intervals, unavailability intervals — into the columnar format
// defined in format.h, together with the run's error index and exposure
// pass (analysis::mask_jobs) at the recorded attribution.  The
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
#include "cluster/topology.h"
#include "common/error.h"
#include "index/format.h"

namespace gpures::index {

/// Everything the artifact captures: the settings it records, and the
/// results, borrowed for the call.
struct IndexBuildInput : IndexSettings {
  const cluster::Topology* topo = nullptr;
  const std::vector<analysis::CoalescedError>* errors = nullptr;
  const analysis::JobTable* jobs = nullptr;
  const std::vector<analysis::Unavailability>* unavailability = nullptr;
  /// The run's build_error_index(*errors) and its mask_jobs pass at the
  /// recorded window and attribution; the writer builds its own when null.
  const analysis::ErrorIndex* loc = nullptr;
  const analysis::ExposurePass* pass = nullptr;
};

struct IndexWriteStats {
  std::uint64_t bytes = 0;
  IndexMeta meta;  ///< the meta block written, every element count included
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
