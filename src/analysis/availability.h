// Stage III: node unavailability and availability modeling (paper Fig. 2 and
// §V-C).  Drain/resume lifecycle records are paired per node into
// unavailability intervals; their distribution is Fig. 2, their mean is the
// MTTR, and together with the MTBE-derived MTTF (conservative: every GPU
// error interrupts the node) they give availability = MTTF / (MTTF + MTTR).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/extraction.h"
#include "analysis/periods.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace gpures::analysis {

/// One recovered unavailability interval.
struct Unavailability {
  std::string host;
  common::TimePoint begin = 0;  ///< drain
  common::TimePoint end = 0;    ///< resume
  double hours() const { return common::to_hours(end - begin); }
};

struct AvailabilityConfig {
  /// Ignore pathological intervals longer than this (unpaired records).
  double max_interval_h = 24.0 * 30;
  /// Period to analyze (paper: operational period).
  Period period;
  std::int32_t node_count = 106;
};

/// Steady-state availability MTTF / (MTTF + MTTR) (paper §V-C); 1.0 when
/// the MTTF is not finite and positive (a window without errors never
/// interrupts the node) or the MTTR is negative.
double availability(double mttf_h, double mttr_h);

struct AvailabilityStats {
  AvailabilityConfig cfg;
  std::vector<Unavailability> intervals;
  common::Summary duration_hours;     ///< Fig. 2 distribution summary
  std::vector<common::EcdfPoint> ecdf;///< Fig. 2 curve
  double total_node_hours_lost = 0.0; ///< paper: ~5,700 node-hours
  double mttr_h = 0.0;                ///< mean repair time (paper: ~0.88 h)
  std::uint64_t unpaired_drains = 0;  ///< drains with no matching resume
  std::uint64_t unpaired_resumes = 0;

  /// analysis::availability of an MTTF estimate (per-node MTBE in hours)
  /// and this MTTR.
  double availability(double mttf_h) const {
    return analysis::availability(mttf_h, mttr_h);
  }
  /// Downtime minutes per node per day implied by `availability`.
  static double downtime_minutes_per_day(double availability);
};

/// Pair lifecycle records (any order) into intervals and summarize.  With a
/// pool, hosts are sharded into contiguous ranges of the sorted host list
/// and paired concurrently; shard outputs merge in fixed shard order, so the
/// result (including every floating-point aggregate) is bit-identical to a
/// serial run for any worker count.
AvailabilityStats compute_availability(
    const std::vector<LifecycleRecord>& lifecycle,
    const AvailabilityConfig& cfg, common::ThreadPool* pool = nullptr);

}  // namespace gpures::analysis
