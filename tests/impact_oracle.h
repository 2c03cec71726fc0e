// A naive Table II reference for the tests: every job ending in the period,
// one at a time in job-table order, exposed with the period clamp and
// folded by ImpactTally.  It shares only the attribution rule (expose) and
// the tally with the code under test; no exposure pass, no stored masks,
// no boundary re-expose and no position arithmetic, so batch and query,
// which now read one fold, are each checked against something else.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/job_impact.h"
#include "slurm/job.h"

namespace gpures::testing {

/// Table II over cfg.period; `exposures`, when non-null, receives the jobs
/// that saw an error, in job-table order.
inline analysis::JobImpact oracle_impact(
    const analysis::JobTable& table,
    const std::vector<analysis::CoalescedError>& errors,
    const analysis::JobImpactConfig& cfg,
    std::vector<analysis::JobExposure>* exposures = nullptr) {
  const auto index = analysis::build_error_index(errors);
  analysis::ImpactTally tally;
  std::vector<std::int32_t> scratch;
  if (exposures != nullptr) exposures->clear();
  for (std::size_t i = 0; i < table.jobs.size(); ++i) {
    const auto& j = table.jobs[i];
    if (!cfg.period.contains(j.end)) continue;
    const auto m = analysis::expose(index.view(), j.start, j.end,
                                    table.gpus_of(j), cfg, scratch);
    tally.add(j.state, m);
    if (exposures != nullptr && m.run_mask != 0) {
      exposures->push_back(
          {i, m.run_mask, m.window_mask,
           slurm::is_failure(j.state) && m.window_mask != 0});
    }
  }
  return tally.finish(cfg);
}

}  // namespace gpures::testing
