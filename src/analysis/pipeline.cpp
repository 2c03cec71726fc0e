#include "analysis/pipeline.h"

#include <stdexcept>

#include "obs/trace.h"

namespace gpures::analysis {

AnalysisPipeline::AnalysisPipeline(const cluster::Topology& topo,
                                   PipelineConfig cfg)
    : ResultSet(&topo, cfg.periods, cfg, cfg.num_threads, cfg.metrics),
      cfg_(cfg),
      logs_(topo, cfg_.coalescer, errors_, lifecycle_, metrics(), "pipe",
            pool()),
      accounting_(topo, jobs_, metrics(), "pipe", pool()) {}

void AnalysisPipeline::ingest_day(common::TimePoint day_start,
                                  logsys::DayBuffer&& day) {
  if (finished_) throw std::logic_error("pipeline: ingest after finish()");
  const logsys::DayBuffer owned = std::move(day);
  logs_.ingest(day_start, owned);
}

void AnalysisPipeline::ingest_log_day(common::TimePoint day_start,
                                      std::span<const logsys::RawLine> lines) {
  logsys::DayBuffer day;
  std::size_t bytes = 0;
  for (const auto& l : lines) bytes += l.text.size() + 1;
  day.reserve(lines.size(), bytes);
  for (const auto& l : lines) day.append(l.time, l.text);
  ingest_day(day_start, std::move(day));
}

void AnalysisPipeline::ingest_log_text(common::TimePoint day_start,
                                       std::string&& text) {
  // The file text becomes the day arena outright; slicing on '\n' is the
  // only pass over the bytes (empty lines are skipped, as before).
  ingest_day(day_start,
             logsys::DayBuffer::from_text(day_start, std::move(text)));
}

void AnalysisPipeline::ingest_log_text(common::TimePoint day_start,
                                       std::string_view text) {
  ingest_log_text(day_start, std::string(text));
}

bool AnalysisPipeline::ingest_accounting_line(std::string_view line) {
  if (finished_) throw std::logic_error("pipeline: ingest after finish()");
  return accounting_.row(line) != AccountingIngest::Row::kRejected;
}

common::Status AnalysisPipeline::ingest_accounting(std::string_view text,
                                                   const std::string& path,
                                                   const IngestRules& rules,
                                                   AccountingCursor& cur) {
  if (finished_) throw std::logic_error("pipeline: ingest after finish()");
  return accounting_.consume(text, path, rules, cur);
}

void AnalysisPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  OBS_SPAN("pipeline.finish");
  logs_.finish();
  sort_results();
}

}  // namespace gpures::analysis
