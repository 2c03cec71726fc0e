#include "analysis/stage3_results.h"

#include "analysis/mitigation.h"
#include "analysis/reports.h"
#include "analysis/survival.h"
#include "analysis/trends.h"
#include "obs/trace.h"

namespace gpures::analysis {

namespace {

constexpr ReportEntry kCatalog[] = {
    {"table1", "report.table1", "Error counts and MTBE (Table I)", false,
     [](Stage3Results& r) { return render_table1(r.error_stats()); }},
    {"findings", "report.findings", "Headline findings", false,
     [](Stage3Results& r) { return render_findings(r.error_stats()); }},
    {"table2", "report.table2", "GPU error impact on jobs (Table II)", true,
     [](Stage3Results& r) { return render_table2(r.job_impact()); }},
    {"table3", "report.table3", "Job population (Table III)", true,
     [](Stage3Results& r) { return render_table3(r.job_stats()); }},
    {"fig2", "report.fig2", "Unavailability and availability (Fig. 2)", false,
     [](Stage3Results& r) {
       return render_fig2(r.availability(), r.mttf_estimate_h());
     }},
    {"trends", "report.trends", "Trends, burstiness, concentration", false,
     [](Stage3Results& r) {
       const auto& res = r.results();
       return render_trends(res.errors(), res.periods(), res.pool());
     }},
    {"mitigation", "report.mitigation", "Mitigation what-ifs", true,
     [](Stage3Results& r) {
       const auto& res = r.results();
       return render_mitigation(res.jobs(), r.exposures(),
                                res.impact_config());
     }},
    {"survival", "report.survival", "Survival analysis", false,
     [](Stage3Results& r) {
       const auto& res = r.results();
       return render_survival(res.errors(), res.periods(),
                              res.topo().total_gpus(), res.pool());
     }},
};

}  // namespace

std::span<const ReportEntry> report_catalog() { return kCatalog; }

Stage3Results::Stage3Results(const ResultSet& res)
    : res_(res), reports_(std::size(kCatalog)) {}

const ErrorStats& Stage3Results::error_stats() {
  if (!error_stats_) error_stats_ = res_.error_stats();
  return *error_stats_;
}

void Stage3Results::join() {
  if (!job_impact_) job_impact_ = res_.job_impact(&exposures_);
}

const JobImpact& Stage3Results::job_impact() {
  join();
  return *job_impact_;
}

const std::vector<JobExposure>& Stage3Results::exposures() {
  join();
  return exposures_;
}

const JobStats& Stage3Results::job_stats() {
  if (!job_stats_) job_stats_ = res_.job_stats();
  return *job_stats_;
}

const AvailabilityStats& Stage3Results::availability() {
  if (!availability_) availability_ = res_.availability();
  return *availability_;
}

double Stage3Results::mttf_estimate_h() {
  return error_stats().total.op.mtbe_per_node_h;
}

const std::string* Stage3Results::report(std::size_t i) {
  const auto& entry = kCatalog[i];
  if (entry.needs_jobs && res_.jobs().jobs.empty()) return nullptr;
  auto& text = reports_[i];
  if (!text) {
    OBS_SPAN(entry.span);
    text = entry.render(*this);
  }
  return &*text;
}

}  // namespace gpures::analysis
