// Stage III micro-benchmarks: the exposure pass and its surroundings.
//
//  * error-index construction cost (built once per run);
//  * the exposure pass (mask_jobs) over a synthetic ~200k-job population at
//    both attribution granularities;
//  * the fold of that pass into Table II over the operational period;
//  * the full Table II computation (index + pass + fold) at both
//    attribution granularities;
//  * availability pairing, host-sharded on a pool.
//
// The synthetic dataset is sized like the quick campaign (a 60-day
// operational slice) so CI can run this to completion in seconds.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/availability.h"
#include "analysis/extraction.h"
#include "analysis/job_impact.h"
#include "analysis/job_stats.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/time.h"

namespace {

using namespace gpures;

constexpr std::int32_t kNodes = 106;
constexpr std::int32_t kGpusPerNode = 4;

analysis::Period op_period() {
  analysis::Period p;
  p.begin = common::make_date(2023, 6, 1);
  p.end = p.begin + 60 * common::kDay;
  return p;
}

// ~200k jobs ending inside the operational period, GPU counts skewed toward
// single-GPU like the paper's Table III population, with a realistic failure
// share so the window test has both outcomes to classify.
const analysis::JobTable& job_table() {
  static const auto* table = [] {
    auto* t = new analysis::JobTable;
    common::Rng rng(11);
    const auto p = op_period();
    const auto span = static_cast<std::uint64_t>(p.end - p.begin);
    for (std::uint64_t i = 0; i < 200000; ++i) {
      slurm::JobRecord rec;
      rec.id = i + 1;
      rec.start = p.begin + static_cast<common::Duration>(
                                rng.uniform_u64(span - common::kHour));
      rec.end = rec.start + 600 +
                static_cast<common::Duration>(rng.uniform_u64(6 * common::kHour));
      if (rec.end >= p.end) rec.end = p.end - 1;
      rec.state = rng.bernoulli(0.12) ? slurm::JobState::kFailed
                                      : slurm::JobState::kCompleted;
      const double width = rng.uniform();
      const std::int32_t gpus = width < 0.70 ? 1
                                : width < 0.95 ? 2
                                               : 8;
      rec.gpus = gpus;
      rec.nodes = (gpus + kGpusPerNode - 1) / kGpusPerNode;
      const auto node = static_cast<std::int32_t>(rng.uniform_u64(kNodes));
      for (std::int32_t g = 0; g < gpus; ++g) {
        rec.gpu_list.push_back({(node + g / kGpusPerNode) % kNodes,
                                g % kGpusPerNode});
      }
      rec.name = rng.bernoulli(0.3) ? "train_resnet" : "solver_run";
      t->add(rec);
    }
    return t;
  }();
  return *table;
}

// ~40k coalesced errors spread over the fleet and period: enough collisions
// with the job population that the join does real per-location work.
const std::vector<analysis::CoalescedError>& errors() {
  static const auto* errs = [] {
    auto* v = new std::vector<analysis::CoalescedError>;
    common::Rng rng(17);
    const auto p = op_period();
    const auto span = static_cast<std::uint64_t>(p.end - p.begin);
    constexpr xid::Code kCodes[] = {
        xid::Code::kMmuError,      xid::Code::kDoubleBitEcc,
        xid::Code::kNvlinkError,   xid::Code::kGspRpcTimeout,
        xid::Code::kPmuSpiFailure, xid::Code::kFallenOffBus};
    for (int i = 0; i < 40000; ++i) {
      analysis::CoalescedError e;
      e.time = p.begin + static_cast<common::Duration>(rng.uniform_u64(span));
      e.last = e.time;
      e.gpu = {static_cast<std::int32_t>(rng.uniform_u64(kNodes)),
               static_cast<std::int32_t>(rng.uniform_u64(kGpusPerNode))};
      e.code = kCodes[rng.uniform_u64(std::size(kCodes))];
      v->push_back(e);
    }
    return v;
  }();
  return *errs;
}

analysis::JobImpactConfig impact_config(analysis::Attribution attr) {
  analysis::JobImpactConfig cfg;
  cfg.window = 20;
  cfg.period = op_period();
  cfg.attribution = attr;
  return cfg;
}

void BM_BuildErrorIndex(benchmark::State& state) {
  const auto& errs = errors();
  for (auto _ : state) {
    auto index = analysis::build_error_index(errs);
    benchmark::DoNotOptimize(index.time.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(errs.size()));
}
BENCHMARK(BM_BuildErrorIndex)->Unit(benchmark::kMillisecond);

analysis::Attribution attribution_arg(const benchmark::State& state) {
  return state.range(0) == 0 ? analysis::Attribution::kGpuLevel
                             : analysis::Attribution::kNodeLevel;
}

// The Stage-III hot loop: the run's one exposure pass, every job sorted by
// end and swept against the read-only index.  Arg 0 is device-level
// attribution, 1 node-level.
void BM_MaskJobs(benchmark::State& state) {
  const auto cfg = impact_config(attribution_arg(state));
  const auto& table = job_table();
  const auto index = analysis::build_error_index(errors());
  std::size_t exposed = 0;
  for (auto _ : state) {
    auto pass = analysis::mask_jobs(table, index.view(), cfg.window,
                                    cfg.attribution);
    exposed = pass.exposed_pos.size();
    benchmark::DoNotOptimize(pass.exposed_pos.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.jobs.size()));
  state.counters["exposed"] = benchmark::Counter(static_cast<double>(exposed));
}
BENCHMARK(BM_MaskJobs)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Table II and the mitigation exposure list folded from a finished pass:
// what a run adds for the operational period once the pass exists.
void BM_FoldJobImpact(benchmark::State& state) {
  const auto cfg = impact_config(analysis::Attribution::kGpuLevel);
  const auto& table = job_table();
  const auto index = analysis::build_error_index(errors());
  const auto pass =
      analysis::mask_jobs(table, index.view(), cfg.window, cfg.attribution);
  std::vector<analysis::JobExposure> exposures;
  for (auto _ : state) {
    auto impact =
        analysis::fold_job_impact(table, index.view(), pass, cfg, &exposures);
    benchmark::DoNotOptimize(impact.rows.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.jobs.size()));
}
BENCHMARK(BM_FoldJobImpact)->Unit(benchmark::kMillisecond);

// Full Table II: index build + pass + fold + Wilson intervals, i.e. exactly
// what ResultSet::job_impact() runs.  Arg 0 is device-level attribution, 1
// node-level, where every job on the node counts, so groups are larger and
// the per-job scan does more mask work.
void BM_JobImpact(benchmark::State& state) {
  const auto cfg = impact_config(attribution_arg(state));
  const auto& table = job_table();
  const auto& errs = errors();
  std::uint64_t failed = 0;
  for (auto _ : state) {
    auto impact = analysis::compute_job_impact(table, errs, cfg);
    failed = impact.gpu_failed_jobs;
    benchmark::DoNotOptimize(impact.rows.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.jobs.size()));
  state.counters["gpu_failed"] = benchmark::Counter(static_cast<double>(failed));
}
BENCHMARK(BM_JobImpact)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Availability pairing over a synthetic drain/resume stream, host-sharded.
void BM_Availability(benchmark::State& state) {
  static const auto* lifecycle = [] {
    auto* v = new std::vector<analysis::LifecycleRecord>;
    common::Rng rng(23);
    const auto p = op_period();
    for (std::int32_t n = 0; n < kNodes; ++n) {
      common::TimePoint t = p.begin;
      const std::string host = "gpub" + std::to_string(n);
      while (t < p.end) {
        t += static_cast<common::Duration>(common::kHour +
                                           rng.uniform_u64(common::kDay));
        if (t >= p.end) break;
        const auto repair =
            static_cast<common::Duration>(300 + rng.uniform_u64(4 * 3600));
        v->push_back({t, host, analysis::LifecycleRecord::Kind::kDrain});
        v->push_back(
            {t + repair, host, analysis::LifecycleRecord::Kind::kResume});
        t += repair;
      }
    }
    return v;
  }();
  analysis::AvailabilityConfig cfg;
  cfg.period = op_period();
  cfg.node_count = kNodes;
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<common::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<common::ThreadPool>(threads);
  for (auto _ : state) {
    auto stats = analysis::compute_availability(*lifecycle, cfg, pool.get());
    benchmark::DoNotOptimize(stats.mttr_h);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lifecycle->size()));
}
BENCHMARK(BM_Availability)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
