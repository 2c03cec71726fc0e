#include "analysis/pipeline.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/trace.h"

namespace gpures::analysis {

AnalysisPipeline::AnalysisPipeline(const cluster::Topology& topo,
                                   PipelineConfig cfg)
    : ResultSet(&topo, cfg.periods, cfg, cfg.num_threads, cfg.metrics),
      cfg_(cfg),
      accounting_(topo, jobs_, metrics(), "pipe"),
      stage1_(metrics(), "pipe") {
  auto& reg = metrics();
  out_of_order_ = &reg.counter("pipe.out_of_order_observations");
  errors_coalesced_ = &reg.counter("pipe.errors_coalesced");
  day_parse_us_ =
      &reg.histogram("pipe.stage1.day_parse_us", obs::latency_buckets_us());
  // One Stage-I worker slot and one Stage-II shard per thread; serial mode
  // is the one-slot, one-shard case run on the calling thread.
  const std::size_t n = std::max<std::size_t>(1, cfg_.num_threads);
  worker_metrics_.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    const std::string prefix = "pipe.worker." + std::to_string(w) + ".";
    worker_metrics_[w].days_parsed = &reg.counter(prefix + "days_parsed");
    worker_metrics_[w].lines = &reg.counter(prefix + "lines");
    worker_metrics_[w].parse_time_ns = &reg.counter(prefix + "parse_time_ns");
  }
  // Each shard owns a private coalescer over a disjoint set of GPUs.
  shard_coalescers_.reserve(n);
  shard_errors_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    auto* sink = &shard_errors_[s];
    auto* coalesced = errors_coalesced_;
    shard_coalescers_.push_back(std::make_unique<Coalescer>(
        cfg_.coalescer, [sink, coalesced](const CoalescedError& e) {
          sink->push_back(e);
          coalesced->inc();
        }));
  }
  batch_days_ = cfg_.stage1_batch_days > 0
                    ? cfg_.stage1_batch_days
                    : 4 * static_cast<std::size_t>(cfg_.num_threads);
  batch_days_ = std::max<std::size_t>(1, batch_days_);
}

AnalysisPipeline::~AnalysisPipeline() = default;

Stage1Batch AnalysisPipeline::parse_day(std::size_t worker,
                                        common::TimePoint day_start,
                                        const logsys::DayBuffer& day) const {
  OBS_SPAN("stage1.parse_day");
  const auto t0 = std::chrono::steady_clock::now();
  Stage1Batch out;
  // Plain local tallies flushed to the registry once per day: the hot loop
  // touches no atomics.
  const auto tallies =
      classify_lines(topo(), day, 0, day.size(), day_start, out);
  stage1_.add(tallies);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  day_parse_us_->observe(static_cast<double>(ns) / 1000.0);
  const auto& wm = worker_metrics_[worker % worker_metrics_.size()];
  wm.days_parsed->inc();
  wm.lines->add(tallies.lines);
  wm.parse_time_ns->add(ns);
  return out;
}

std::size_t AnalysisPipeline::shard_of(xid::GpuId gpu) const {
  return static_cast<std::size_t>(xid::gpu_key(gpu)) %
         shard_coalescers_.size();
}

void AnalysisPipeline::ingest_day(common::TimePoint day_start,
                                  logsys::DayBuffer&& day) {
  if (finished_) throw std::logic_error("pipeline: ingest after finish()");
  pending_days_.push_back(PendingDay{day_start, std::move(day)});
  if (pending_days_.size() >= batch_days_) flush_pending_days();
}

template <typename Fn>
void AnalysisPipeline::for_each(std::size_t n, Fn&& fn) {
  if (pool() != nullptr) return pool()->parallel_for(n, fn);
  for (std::size_t i = 0; i < n; ++i) fn(i, std::size_t{0});
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

void AnalysisPipeline::flush_pending_days() {
  if (pending_days_.empty()) return;
  // Stage I: each worker parses a contiguous chunk of days; outputs are
  // indexed by day, so merge order is ingestion order regardless of which
  // worker parsed what.
  std::vector<Stage1Batch> parsed(pending_days_.size());
  for_each(pending_days_.size(), [&](std::size_t i, std::size_t w) {
    parsed[i] =
        parse_day(w, pending_days_[i].day_start, pending_days_[i].day);
  });
  // Deterministic ordered merge: day index order, stable within-day order —
  // the same sequence at any worker count.
  {
    OBS_SPAN("stage1.merge_days");
    for (auto& day : parsed) {
      for (auto& l : day.lifecycle) lifecycle_.push_back(std::move(l));
    }
  }
  pending_days_.clear();
  // Stage II: shard s owns a disjoint set of (GPU, code) keys and walks the
  // batch in day and line order, so its coalescer sees the same per-key
  // subsequence as a single coalescer would.
  for_each(shard_coalescers_.size(), [&](std::size_t s, std::size_t) {
    OBS_SPAN("stage2.coalesce_shard");
    for (const auto& day : parsed) {
      for (const auto& o : day.obs) {
        if (shard_of(o.gpu) == s) shard_coalescers_[s]->add(o);
      }
    }
  });
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
  flush_pending_days();
  for_each(shard_coalescers_.size(), [&](std::size_t s, std::size_t) {
    shard_coalescers_[s]->flush();
  });
  for (std::size_t s = 0; s < shard_coalescers_.size(); ++s) {
    errors_.insert(errors_.end(), shard_errors_[s].begin(),
                   shard_errors_[s].end());
    out_of_order_->add(shard_coalescers_[s]->out_of_order());
    shard_errors_[s].clear();
    shard_errors_[s].shrink_to_fit();
  }
  sort_results();
}

AnalysisPipeline::Counters AnalysisPipeline::counters() const {
  Counters c;
  c.log_lines = stage1_.log_lines->value();
  c.xid_records = stage1_.xid_records->value();
  c.lifecycle_records = stage1_.lifecycle_records->value();
  c.rejected_lines = stage1_.rejected_lines->value();
  c.unknown_hosts = stage1_.unknown_hosts->value();
  c.accounting_lines = metrics().counter_value("pipe.accounting_lines");
  c.accounting_errors = metrics().counter_value("pipe.accounting_errors");
  c.out_of_order_observations = out_of_order_->value();
  return c;
}

}  // namespace gpures::analysis
