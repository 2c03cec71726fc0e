// One run's Stage-III results (paper Fig. 1) and the catalog of reports that
// render them.  Every artifact of a run — the --report blocks on stdout, the
// CSV and JSON exports, the .idx unavailability section and the markdown
// document — reads one Stage3Results, so each derivation runs at most once
// per run, and the exposure join behind Table II also feeds the mitigation
// what-ifs.
//
// The getters memoise and are therefore non-const: the object belongs to the
// caller and is used from one thread.  ResultSet's own accessors stay const
// and cache-free, because pool workers call them and a lazily built cache
// inside a const method races under --threads.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/result_set.h"

namespace gpures::analysis {

class Stage3Results {
 public:
  /// `res` must be finished and outlive this object.
  explicit Stage3Results(const ResultSet& res);

  const ResultSet& results() const { return res_; }

  const ErrorStats& error_stats();
  /// Table II, from the run's one exposure join.
  const JobImpact& job_impact();
  /// The per-job exposure list of the same join.
  const std::vector<JobExposure>& exposures();
  const JobStats& job_stats();  ///< full characterization window
  const AvailabilityStats& availability();
  /// ResultSet::mttf_estimate_h, read from the memoised error_stats().
  double mttf_estimate_h();

  /// The text of report_catalog()[i], rendered once under its report.<name>
  /// trace span; null when the report needs jobs and the table has none.
  const std::string* report(std::size_t i);

 private:
  void join();

  const ResultSet& res_;
  std::optional<ErrorStats> error_stats_;
  std::optional<JobImpact> job_impact_;
  std::vector<JobExposure> exposures_;
  std::optional<JobStats> job_stats_;
  std::optional<AvailabilityStats> availability_;
  std::vector<std::optional<std::string>> reports_;
};

/// One report: a --report value, a stdout block and a markdown section.
struct ReportEntry {
  const char* name;     ///< the --report value
  const char* span;     ///< trace span around the render: "report.<name>"
  const char* heading;  ///< markdown section heading
  bool needs_jobs;      ///< skipped when the job table is empty
  std::string (*render)(Stage3Results&);
};

/// Every report, in stdout order (the markdown document's order too).
std::span<const ReportEntry> report_catalog();

}  // namespace gpures::analysis
