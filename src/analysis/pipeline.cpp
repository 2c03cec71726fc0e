#include "analysis/pipeline.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/strings.h"
#include "obs/trace.h"
#include "slurm/accounting.h"

namespace gpures::analysis {

namespace {

// Deterministic total order on coalesced errors: two distinct errors can
// never tie (same (gpu, code) errors are > window apart by construction).
bool error_before(const CoalescedError& a, const CoalescedError& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.gpu != b.gpu) return a.gpu < b.gpu;
  return xid::to_number(a.code) < xid::to_number(b.code);
}

std::unique_ptr<LineParser> make_parser(const PipelineConfig& cfg) {
  if (cfg.use_regex_parser) return std::make_unique<RegexLineParser>();
  return std::make_unique<FastLineParser>();
}

}  // namespace

AnalysisPipeline::AnalysisPipeline(const cluster::Topology& topo,
                                   PipelineConfig cfg)
    : topo_(topo), cfg_(cfg) {
  if (cfg_.metrics != nullptr) {
    metrics_ = cfg_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  m_.log_lines = &metrics_->counter("pipe.log_lines");
  m_.xid_records = &metrics_->counter("pipe.xid_records");
  m_.lifecycle_records = &metrics_->counter("pipe.lifecycle_records");
  m_.rejected_lines = &metrics_->counter("pipe.rejected_lines");
  m_.unknown_hosts = &metrics_->counter("pipe.unknown_hosts");
  m_.accounting_lines = &metrics_->counter("pipe.accounting_lines");
  m_.accounting_errors = &metrics_->counter("pipe.accounting_errors");
  m_.out_of_order = &metrics_->counter("pipe.out_of_order_observations");
  m_.errors_coalesced = &metrics_->counter("pipe.errors_coalesced");
  m_.day_parse_us =
      &metrics_->histogram("pipe.stage1.day_parse_us", obs::latency_buckets_us());
  m_.stage3_exposures = &metrics_->counter("pipe.stage3.exposures");
  m_.stage3_join_us = &metrics_->histogram("pipe.stage3.exposure_join_us",
                                           obs::latency_buckets_us());
  const std::size_t worker_slots =
      cfg_.num_threads == 0 ? 1 : cfg_.num_threads;
  worker_metrics_.resize(worker_slots);
  stage3_shard_metrics_.resize(worker_slots);
  for (std::size_t w = 0; w < worker_slots; ++w) {
    const std::string prefix = "pipe.worker." + std::to_string(w) + ".";
    worker_metrics_[w].days_parsed = &metrics_->counter(prefix + "days_parsed");
    worker_metrics_[w].lines = &metrics_->counter(prefix + "lines");
    worker_metrics_[w].parse_time_ns =
        &metrics_->counter(prefix + "parse_time_ns");
    const std::string s3 = "pipe.stage3.shard." + std::to_string(w) + ".";
    stage3_shard_metrics_[w].jobs = &metrics_->counter(s3 + "jobs");
    stage3_shard_metrics_[w].exposed = &metrics_->counter(s3 + "exposed");
  }

  if (cfg_.num_threads == 0) {
    parser_ = make_parser(cfg_);
    coalescer_ = std::make_unique<Coalescer>(
        cfg_.coalescer, [this](const CoalescedError& e) {
          errors_.push_back(e);
          m_.errors_coalesced->inc();
        });
    return;
  }
  // Parallel mode: N workers, each with a private Stage-I parser; N Stage-II
  // shards, each owning a private coalescer over a disjoint set of GPUs.
  const std::size_t n = cfg_.num_threads;
  pool_ = std::make_unique<common::ThreadPool>(n);
  worker_parsers_.reserve(n);
  shard_coalescers_.reserve(n);
  shard_errors_.resize(n);
  shard_feed_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    worker_parsers_.push_back(make_parser(cfg_));
    auto* sink = &shard_errors_[s];
    auto* coalesced = m_.errors_coalesced;
    shard_coalescers_.push_back(std::make_unique<Coalescer>(
        cfg_.coalescer, [sink, coalesced](const CoalescedError& e) {
          sink->push_back(e);
          coalesced->inc();
        }));
  }
  batch_days_ = cfg_.stage1_batch_days > 0
                    ? cfg_.stage1_batch_days
                    : 4 * static_cast<std::size_t>(cfg_.num_threads);
}

AnalysisPipeline::~AnalysisPipeline() = default;

AnalysisPipeline::DayParse AnalysisPipeline::parse_day(
    const LineParser& parser, std::size_t worker, common::TimePoint day_start,
    const logsys::DayBuffer& day) const {
  OBS_SPAN("stage1.parse_day");
  const auto t0 = std::chrono::steady_clock::now();
  DayParse out;
  // Plain local tallies flushed to the registry once per day: the hot loop
  // touches no atomics, and per-day sums are order-independent so the
  // parallel schedule cannot change any metric value.
  std::uint64_t log_lines = 0, rejected = 0, unknown = 0;
  std::uint64_t xids = 0, lifecycles = 0;
  const std::size_t n_lines = day.size();
  for (std::size_t i = 0; i < n_lines; ++i) {
    ++log_lines;
    // The slice (and the XidRecord views borrowed from it) lives in the
    // day arena; hosts/PCI ids are resolved to indices right here, so
    // nothing outlives the iteration.
    auto parsed = parser.parse(day.line(i), day_start);
    if (!parsed) {
      ++rejected;
      continue;
    }
    if (auto* xrec = std::get_if<XidRecord>(&*parsed)) {
      const auto node = topo_.node_index(xrec->host);
      if (!node) {
        ++unknown;
        continue;
      }
      const auto slot = topo_.slot_for_pci(*node, xrec->pci);
      if (!slot) {
        ++unknown;
        continue;
      }
      ++xids;
      XidObservation obs;
      obs.time = xrec->time;
      obs.gpu = {*node, *slot};
      obs.xid = xrec->xid;
      out.obs.push_back(obs);
    } else if (auto* lrec = std::get_if<LifecycleRecord>(&*parsed)) {
      if (!topo_.node_index(lrec->host)) {
        ++unknown;
        continue;
      }
      ++lifecycles;
      out.lifecycle.push_back(std::move(*lrec));
    }
  }
  m_.log_lines->add(log_lines);
  m_.rejected_lines->add(rejected);
  m_.unknown_hosts->add(unknown);
  m_.xid_records->add(xids);
  m_.lifecycle_records->add(lifecycles);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  m_.day_parse_us->observe(static_cast<double>(ns) / 1000.0);
  const auto& wm = worker_metrics_[worker % worker_metrics_.size()];
  wm.days_parsed->inc();
  wm.lines->add(log_lines);
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
  if (pool_) {
    pending_days_.push_back(PendingDay{day_start, std::move(day)});
    if (pending_days_.size() >= batch_days_) flush_pending_days();
    return;
  }
  auto parsed = parse_day(*parser_, 0, day_start, day);
  for (auto& l : parsed.lifecycle) lifecycle_.push_back(std::move(l));
  for (const auto& o : parsed.obs) coalescer_->add(o);
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
  // Stage I: each worker parses a contiguous chunk of days with its private
  // parser; outputs are indexed by day, so merge order is ingestion order
  // regardless of which worker parsed what.
  std::vector<DayParse> parsed(pending_days_.size());
  pool_->parallel_for(
      pending_days_.size(), [&](std::size_t i, std::size_t w) {
        parsed[i] =
            parse_day(*worker_parsers_[w], w, pending_days_[i].day_start,
                      pending_days_[i].day);
      });
  // Deterministic ordered merge: day index order, stable within-day order —
  // exactly the sequence the serial path would have produced.
  {
    OBS_SPAN("stage1.merge_days");
    for (auto& day : parsed) {
      for (auto& l : day.lifecycle) lifecycle_.push_back(std::move(l));
      for (const auto& o : day.obs) shard_feed_[shard_of(o.gpu)].push_back(o);
    }
  }
  pending_days_.clear();
  // Stage II: shard s owns a disjoint set of (GPU, code) keys, so its
  // coalescer sees the same per-key subsequence as the serial coalescer.
  pool_->parallel_for(shard_feed_.size(), [&](std::size_t s, std::size_t) {
    OBS_SPAN("stage2.coalesce_shard");
    for (const auto& o : shard_feed_[s]) shard_coalescers_[s]->add(o);
    shard_feed_[s].clear();
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
  const auto trimmed = common::trim(line);
  if (trimmed.empty()) return true;
  m_.accounting_lines->inc();
  if (trimmed == slurm::kAccountingHeader) return true;
  if (!slurm::parse_accounting_line(trimmed, topo_, acct_record_).ok()) {
    m_.accounting_errors->inc();
    return false;
  }
  jobs_.add(acct_record_);
  return true;
}

void AnalysisPipeline::finish() {
  if (finished_) return;
  finished_ = true;
  OBS_SPAN("pipeline.finish");
  if (pool_) {
    flush_pending_days();
    pool_->parallel_for(shard_coalescers_.size(),
                        [&](std::size_t s, std::size_t) {
                          shard_coalescers_[s]->flush();
                        });
    for (std::size_t s = 0; s < shard_coalescers_.size(); ++s) {
      errors_.insert(errors_.end(), shard_errors_[s].begin(),
                     shard_errors_[s].end());
      m_.out_of_order->add(shard_coalescers_[s]->out_of_order());
      shard_errors_[s].clear();
      shard_errors_[s].shrink_to_fit();
    }
  } else {
    coalescer_->flush();
    m_.out_of_order->add(coalescer_->out_of_order());
  }
  // error_before is a total order on the data (no distinct errors tie), so
  // the sorted sequence — and every downstream artifact — is identical no
  // matter how the errors were produced or interleaved upstream.
  std::sort(errors_.begin(), errors_.end(), error_before);
  // Lifecycle ties (same second) keep ingestion order in both modes: the
  // pre-sort sequence is identical (day order, within-day order) and
  // stable_sort preserves it.
  std::stable_sort(lifecycle_.begin(), lifecycle_.end(),
                   [](const LifecycleRecord& a, const LifecycleRecord& b) {
                     return a.time < b.time;
                   });
}

AnalysisPipeline::Counters AnalysisPipeline::counters() const {
  Counters c;
  c.log_lines = m_.log_lines->value();
  c.xid_records = m_.xid_records->value();
  c.lifecycle_records = m_.lifecycle_records->value();
  c.rejected_lines = m_.rejected_lines->value();
  c.unknown_hosts = m_.unknown_hosts->value();
  c.accounting_lines = m_.accounting_lines->value();
  c.accounting_errors = m_.accounting_errors->value();
  c.out_of_order_observations = m_.out_of_order->value();
  return c;
}

ErrorStats AnalysisPipeline::error_stats() const {
  OBS_SPAN("stage3.error_stats");
  ErrorStatsConfig cfg;
  cfg.node_count = topo_.node_count();
  cfg.outlier_share = cfg_.outlier_share;
  cfg.outlier_min = cfg_.outlier_min;
  return compute_error_stats(errors_, cfg_.periods, cfg);
}

JobStats AnalysisPipeline::job_stats() const {
  OBS_SPAN("stage3.job_stats");
  return compute_job_stats(jobs_, cfg_.periods.whole());
}

JobStats AnalysisPipeline::job_stats(const Period& w) const {
  OBS_SPAN("stage3.job_stats");
  return compute_job_stats(jobs_, w);
}

JobImpact AnalysisPipeline::job_impact() const {
  OBS_SPAN("stage3.job_impact");
  JobImpactConfig cfg;
  cfg.window = cfg_.attribution_window;
  cfg.period = cfg_.periods.op;
  cfg.attribution = cfg_.attribution;
  const auto t0 = std::chrono::steady_clock::now();
  ExposureJoinStats join;
  auto out = compute_job_impact(jobs_, errors_, cfg, pool_.get(), &join);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  m_.stage3_join_us->observe(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              elapsed)
                              .count()) /
      1000.0);
  m_.stage3_exposures->add(join.total_exposed());
  for (std::size_t s = 0; s < join.shards.size(); ++s) {
    const auto& sm = stage3_shard_metrics_[s % stage3_shard_metrics_.size()];
    sm.jobs->add(join.shards[s].jobs_scanned);
    sm.exposed->add(join.shards[s].jobs_exposed);
  }
  return out;
}

AvailabilityStats AnalysisPipeline::availability() const {
  OBS_SPAN("stage3.availability");
  AvailabilityConfig cfg;
  cfg.period = cfg_.periods.op;
  cfg.node_count = topo_.node_count();
  return compute_availability(lifecycle_, cfg, pool_.get());
}

double AnalysisPipeline::mttf_estimate_h() const {
  const auto stats = error_stats();
  return stats.total.op.mtbe_per_node_h;
}

}  // namespace gpures::analysis
