#include "analysis/campaign.h"

#include <algorithm>

#include "logsys/syslog.h"
#include "obs/trace.h"
#include "slurm/accounting.h"

namespace gpures::analysis {

CampaignConfig CampaignConfig::delta_a100() { return CampaignConfig{}; }

CampaignConfig CampaignConfig::quick() {
  CampaignConfig c;
  c.faults = cluster::FaultConfig::test_config();
  // ~20k jobs over the 60-day operational slice of the quick window.
  c.workload_scale =
      20000.0 / (c.workload.op_jobs * (c.faults.op_hours() / 21528.0));
  c.noise_lines_per_day = 50.0;
  return c;
}

// Replays one merged shard event into the consumer-side stack.  This is the
// serial tail of the sharded simulation: by the time an event gets here its
// global position is fixed by the (time, node, seq) merge, so rendering and
// job-layer propagation are pure functions of the merged stream.
void DeltaCampaign::apply_event(const cluster::SimEvent& e) {
  switch (e.kind) {
    case cluster::SimEvent::Kind::kRawXid: {
      // pci_bus returns a 10-char string — SSO, so still allocation-free.
      const auto pci = topo_.pci_bus({e.node, e.slot});
      log_stream_->append_with(e.time, [&](std::string& out) {
        logsys::append_xid_line(out, e.time, topo_.node(e.node).name, pci,
                                e.code, e.detail);
      });
      ++raw_lines_;
      break;
    }
    case cluster::SimEvent::Kind::kError:
      if (failure_) failure_->on_error(e.note);
      break;
    case cluster::SimEvent::Kind::kDrainBegin:
      log_stream_->append_with(e.time, [&](std::string& out) {
        logsys::append_drain_line(out, e.time, topo_.node(e.node).name);
      });
      ++raw_lines_;
      if (failure_) failure_->on_drain_begin(e.node, e.time);
      break;
    case cluster::SimEvent::Kind::kNodeDown:
      if (failure_) failure_->on_node_down(e.node, e.time);
      break;
    case cluster::SimEvent::Kind::kNodeUp:
      log_stream_->append_with(e.time, [&](std::string& out) {
        logsys::append_resume_line(out, e.time, topo_.node(e.node).name);
      });
      ++raw_lines_;
      if (failure_) failure_->on_node_up(e.node, e.time);
      break;
  }
}

DeltaCampaign::DeltaCampaign(CampaignConfig cfg)
    : cfg_(std::move(cfg)),
      periods_(StudyPeriods::make(cfg_.faults.study_begin, cfg_.faults.op_begin,
                                  cfg_.faults.study_end)),
      topo_(cfg_.spec),
      engine_(cfg_.faults.study_begin),
      noise_rng_(common::Rng(cfg_.seed).fork("noise")) {
  common::Rng root(cfg_.seed);

  cfg_.pipeline.periods = periods_;
  if (cfg_.pipeline.metrics == nullptr) cfg_.pipeline.metrics = cfg_.metrics;
  pipeline_ = std::make_unique<AnalysisPipeline>(topo_, cfg_.pipeline);
  engine_.set_metrics(cfg_.metrics);

  log_stream_ = std::make_unique<logsys::DayLogStream>(
      [this](common::TimePoint day_start, logsys::DayBuffer&& day) {
        if (dataset_ != nullptr) dataset_->write_day(day_start, day);
        pipeline_->ingest_day(day_start, std::move(day));
      });

  cluster::ShardedClusterSim::Options sim_opts;
  sim_opts.shards = cfg_.sim_shards;
  // Shards run on the pipeline's pool when one exists (--threads > 0); the
  // shard structure itself never depends on the pool, so thread count only
  // changes wall-clock, never output.
  sim_opts.pool = pipeline_->pool();
  sim_ = std::make_unique<cluster::ShardedClusterSim>(topo_, cfg_.faults,
                                                      root.fork("sim"),
                                                      sim_opts);
  sim_->set_metrics(cfg_.metrics);

  if (cfg_.with_jobs) {
    slurm::SchedulerConfig sched_cfg = cfg_.scheduler;
    sched_cfg.p_user_failed = cfg_.workload.p_user_failed;
    sched_cfg.p_cancelled = cfg_.workload.p_cancelled;
    scheduler_ = std::make_unique<slurm::Scheduler>(engine_, topo_, sched_cfg,
                                                    root.fork("sched"));
    scheduler_->set_metrics(cfg_.metrics);
    auto wl_cfg = cfg_.workload;
    wl_cfg.op_jobs *= cfg_.workload_scale;
    workload_ = std::make_unique<slurm::WorkloadModel>(wl_cfg,
                                                       root.fork("workload"));
    failure_ = std::make_unique<slurm::FailurePropagator>(
        *scheduler_, cfg_.failure, root.fork("failure"));
    sim_->set_busy_snapshot_provider(
        [this](std::vector<common::TimePoint>& out) {
          scheduler_->snapshot_busy_until(out);
        });
  }
}

DeltaCampaign::~DeltaCampaign() = default;

void DeltaCampaign::set_progress_reporter(obs::ProgressReporter* reporter) {
  if (reporter == nullptr) {
    progress_ = nullptr;
    return;
  }
  progress_ = [reporter](int done, int total) {
    reporter->update(static_cast<std::size_t>(done),
                     static_cast<std::size_t>(total));
  };
}

const std::vector<slurm::JobRecord>& DeltaCampaign::job_records() const {
  static const std::vector<slurm::JobRecord> kEmpty;
  return scheduler_ ? scheduler_->records() : kEmpty;
}

std::uint64_t DeltaCampaign::jobs_killed_by_errors() const {
  return failure_ ? failure_->jobs_killed() : 0;
}

void DeltaCampaign::schedule_next_arrival(common::TimePoint from) {
  const auto t = workload_->next_arrival(from, cfg_.faults.study_begin,
                                         cfg_.faults.op_begin,
                                         cfg_.faults.study_end);
  if (t >= cfg_.faults.study_end) return;
  engine_.schedule_at(t, [this] {
    scheduler_->submit(workload_->draw_job(engine_.now()));
    schedule_next_arrival(engine_.now());
  });
}

void DeltaCampaign::emit_noise_for_day(common::TimePoint day_start) {
  const auto n = noise_rng_.poisson(cfg_.noise_lines_per_day);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto t = day_start + static_cast<common::Duration>(
                                   noise_rng_.uniform_u64(common::kDay));
    const auto node = static_cast<std::int32_t>(
        noise_rng_.uniform_u64(static_cast<std::uint64_t>(topo_.node_count())));
    log_stream_->append_with(t, [&](std::string& out) {
      logsys::append_noise_line(out, noise_rng_, t, topo_.node(node).name);
    });
    ++raw_lines_;
  }
}

void DeltaCampaign::run() {
  if (ran_) return;
  ran_ = true;
  OBS_SPAN("campaign.run");

  sim_->start();
  if (workload_) schedule_next_arrival(cfg_.faults.study_begin);

  const auto begin = cfg_.faults.study_begin;
  const auto end = cfg_.faults.study_end;
  const int total_days =
      static_cast<int>(common::day_index(end) - common::day_index(begin));
  int day = 0;
  for (common::TimePoint t = begin; t < end; t += common::kDay, ++day) {
    const common::TimePoint day_end = std::min(t + common::kDay, end);
    // Day epoch: freeze the scheduler's busy snapshot, let every shard
    // simulate the day against it (in parallel when a pool is set), then
    // replay the merged event stream into the consumer engine so scheduler,
    // workload, and failure propagation advance in lockstep with the faults.
    std::vector<cluster::SimEvent> events;
    {
      OBS_SPAN("campaign.shard_advance");
      sim_->begin_day();
      events = sim_->advance_to(day_end);
    }
    {
      OBS_SPAN("campaign.replay");
      for (const auto& e : events) {
        // Raw records may be future-dated past day_end (duplicate-line and
        // NVLink offsets); clamp so the consumer clock never leaves the
        // epoch.
        engine_.run_until(std::min(e.time, day_end));
        apply_event(e);
      }
      engine_.run_until(day_end);
    }
    {
      OBS_SPAN("campaign.noise");
      emit_noise_for_day(t);
    }
    {
      OBS_SPAN("campaign.log_flush");
      log_stream_->flush_through(engine_.now());
    }
    if (progress_ && (day % 64 == 0 || day + 1 == total_days)) {
      progress_(day + 1, total_days);
    }
  }

  {
    OBS_SPAN("campaign.replay");
    if (scheduler_) scheduler_->finalize(end);
  }
  {
    OBS_SPAN("campaign.log_flush");
    log_stream_->finalize();
  }

  if (scheduler_) {
    OBS_SPAN("campaign.ingest_accounting");
    // Rows render into one reused chunk of a few MB, which is written and
    // then ingested whole, in line ranges on the pipeline's pool.  Lenient
    // rules with no budget count a row that fails to parse and go on.
    constexpr std::size_t kChunkBytes = 4 << 20;
    IngestRules rules;
    rules.policy = IngestPolicy::kLenient;
    AccountingCursor cur;
    std::string chunk;
    chunk.reserve(kChunkBytes + 4096);
    chunk += slurm::kAccountingHeader;
    chunk += '\n';
    const auto& records = scheduler_->records();
    std::size_t next = 0;
    // A chunk that fills up is flushed and followed by another, possibly
    // empty one; the chunk that ends short of full is the last.
    bool full = false;
    do {
      {
        OBS_SPAN("campaign.accounting_render");
        while (next < records.size() && chunk.size() < kChunkBytes) {
          slurm::append_accounting_line(chunk, records[next++], topo_);
          chunk += '\n';
        }
      }
      full = chunk.size() >= kChunkBytes;
      if (dataset_ != nullptr) dataset_->write_accounting_text(chunk);
      pipeline_->ingest_accounting(chunk, "slurm_accounting.txt", rules, cur)
          .throw_if_error();
      chunk.clear();
    } while (full);
  }
  pipeline_->finish();
  if (dataset_ != nullptr) dataset_->finalize().throw_if_error();
}

}  // namespace gpures::analysis
