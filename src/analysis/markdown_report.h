// Markdown report generation: one self-contained document with every table,
// figure series, finding, and extension analysis a pipeline produced — the
// artifact a reliability team would attach to a quarterly review.  The
// `gpures-analyze --report-md FILE` flag writes it.
#pragma once

#include <string>

#include "analysis/data_quality.h"
#include "analysis/stage3_results.h"

namespace gpures::analysis {

struct MarkdownReportOptions {
  /// When non-null, a "Data quality" section describing what ingestion
  /// dropped or quarantined is rendered first (readers must know how much
  /// of the input the numbers below actually saw).
  const DataQualityReport* quality = nullptr;
  bool include_scorecard = false;   ///< only meaningful at full Delta scale
};

/// Render the full report: a header with the pipeline's ingest counters
/// (`pipe.*` in the results' metrics registry), then every report_catalog()
/// section in catalog order, each body byte-equal to its --report block on
/// stdout.
std::string render_markdown_report(Stage3Results& results,
                                   const MarkdownReportOptions& opts = {});

}  // namespace gpures::analysis
