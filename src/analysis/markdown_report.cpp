#include "analysis/markdown_report.h"

#include <cstdio>

#include "analysis/reproduction.h"

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

std::string render_markdown_report(Stage3Results& results,
                                   const MarkdownReportOptions& opts) {
  std::string out = "# GPU resilience characterization\n\n";

  const auto& res = results.results();
  const auto count = [&res](const char* name) {
    return static_cast<unsigned long long>(res.metrics().counter_value(name));
  };
  const auto& periods = res.periods();
  const auto& topo = res.topo();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "Window: %s .. %s (operational from %s). Cluster: %d nodes / %d GPUs.\n"
      "Ingested %llu log lines (%llu XID records, %llu lifecycle, %llu "
      "rejected) and %zu job records; %zu coalesced errors.\n\n",
      common::format_date(periods.pre.begin).c_str(),
      common::format_date(periods.op.end).c_str(),
      common::format_date(periods.op.begin).c_str(), topo.node_count(),
      topo.total_gpus(), count("pipe.log_lines"), count("pipe.xid_records"),
      count("pipe.lifecycle_records"), count("pipe.rejected_lines"),
      res.jobs().jobs.size(), res.errors().size());
  out += buf;

  if (opts.quality != nullptr) {
    out += opts.quality->to_markdown();
    out += '\n';
  }
  const auto catalog = report_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (const auto* body = results.report(i)) {
      section(out, catalog[i].heading, *body);
    }
  }
  if (opts.include_scorecard) {
    const bool have_jobs = !res.jobs().jobs.empty();
    const auto card = score_reproduction(
        &results.error_stats(), have_jobs ? &results.job_impact() : nullptr,
        have_jobs ? &results.job_stats() : nullptr, &results.availability(),
        results.mttf_estimate_h());
    section(out, "Reproduction scorecard", card.render());
  }
  return out;
}

}  // namespace gpures::analysis
