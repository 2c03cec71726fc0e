#include "analysis/markdown_report.h"

#include <cstdio>

#include "analysis/mitigation.h"
#include "analysis/reports.h"
#include "analysis/reproduction.h"
#include "analysis/survival.h"
#include "analysis/trends.h"

namespace gpures::analysis {

namespace {

/// Monospace block: the ASCII tables render cleanly inside fenced code.
void section(std::string& out, const std::string& heading,
             const std::string& body) {
  out += "## " + heading + "\n\n```\n" + body;
  if (!body.empty() && body.back() != '\n') out += '\n';
  out += "```\n\n";
}

}  // namespace

std::string render_markdown_report(const AnalysisPipeline& pipe,
                                   const cluster::Topology& topo,
                                   const MarkdownReportOptions& opts) {
  std::string out;
  out += "# " + opts.title + "\n\n";

  const auto& periods = pipe.config().periods;
  const auto& c = pipe.counters();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "Window: %s .. %s (operational from %s). Cluster: %d nodes / %d GPUs.\n"
      "Ingested %llu log lines (%llu XID records, %llu lifecycle, %llu "
      "rejected) and %zu job records; %zu coalesced errors.\n\n",
      common::format_date(periods.pre.begin).c_str(),
      common::format_date(periods.op.end).c_str(),
      common::format_date(periods.op.begin).c_str(), topo.node_count(),
      topo.total_gpus(), static_cast<unsigned long long>(c.log_lines),
      static_cast<unsigned long long>(c.xid_records),
      static_cast<unsigned long long>(c.lifecycle_records),
      static_cast<unsigned long long>(c.rejected_lines),
      pipe.jobs().jobs.size(), pipe.errors().size());
  out += buf;

  const auto stats = pipe.error_stats();
  const bool have_jobs = !pipe.jobs().jobs.empty();

  if (opts.quality != nullptr) {
    out += opts.quality->to_markdown();
    out += '\n';
  }
  if (opts.include_table1) {
    section(out, "Error counts and MTBE (Table I)", render_table1(stats));
  }
  if (opts.include_findings) {
    section(out, "Headline findings", render_findings(stats));
  }
  if (opts.include_table2 && have_jobs) {
    section(out, "GPU error impact on jobs (Table II)",
            render_table2(pipe.job_impact()));
  }
  if (opts.include_table3 && have_jobs) {
    section(out, "Job population (Table III)", render_table3(pipe.job_stats()));
  }
  if (opts.include_fig2) {
    section(out, "Unavailability and availability (Fig. 2)",
            render_fig2(pipe.availability(), pipe.mttf_estimate_h()));
  }
  if (opts.include_trends) {
    section(out, "Trends, burstiness, concentration",
            render_trends(pipe.errors(), periods, pipe.pool()));
  }
  if (opts.include_survival) {
    section(out, "Survival analysis",
            render_survival(pipe.errors(), periods, topo.total_gpus(),
                            pipe.pool()));
  }
  if (opts.include_mitigation && have_jobs) {
    section(out, "Mitigation what-ifs",
            render_mitigation(pipe.jobs(), pipe.errors(), pipe.impact_config(),
                              pipe.pool()));
  }
  if (opts.include_scorecard) {
    const auto impact = have_jobs ? pipe.job_impact() : JobImpact{};
    const auto jobs = have_jobs ? pipe.job_stats() : JobStats{};
    const auto avail = pipe.availability();
    const auto card = score_reproduction(
        &stats, have_jobs ? &impact : nullptr, have_jobs ? &jobs : nullptr,
        &avail, pipe.mttf_estimate_h());
    section(out, "Reproduction scorecard", card.render());
  }
  return out;
}

}  // namespace gpures::analysis
