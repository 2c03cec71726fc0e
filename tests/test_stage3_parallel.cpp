// Differential tests for Stage III under threads: the exposure pass and its
// Table II fold against the naive per-job oracle (tests/impact_oracle.h),
// run by several callers at once over one shared index; the host-sharded
// availability pairing; and the task-parallel survival/trends/mitigation
// renders.  Each must produce results *identical* to the serial reference —
// every exposure field, every counter, every floating-point aggregate,
// every rendered byte — for any worker count.  Together with
// test_parallel_determinism (Stages I+II) this closes the determinism story
// end to end: `--threads N` never changes output.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/availability.h"
#include "analysis/export.h"
#include "analysis/job_impact.h"
#include "analysis/job_stats.h"
#include "analysis/mitigation.h"
#include "analysis/reports.h"
#include "analysis/survival.h"
#include "analysis/trends.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "impact_oracle.h"

namespace an = gpures::analysis;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace sl = gpures::slurm;

namespace {

constexpr std::int32_t kNodes = 64;
constexpr std::int32_t kGpusPerNode = 4;

an::StudyPeriods periods() {
  const auto begin = ct::make_date(2023, 1, 1);
  const auto op = ct::make_date(2023, 2, 1);
  return an::StudyPeriods::make(begin, op, op + 60 * ct::kDay);
}

// ~40k jobs ending in op, mixed widths and states.
const an::JobTable& job_table() {
  static const auto* table = [] {
    auto* t = new an::JobTable;
    ct::Rng rng(101);
    const auto p = periods().op;
    const auto span = static_cast<std::uint64_t>(p.end - p.begin);
    for (std::uint64_t i = 0; i < 40000; ++i) {
      sl::JobRecord rec;
      rec.id = i + 1;
      rec.start = p.begin + static_cast<ct::Duration>(
                                rng.uniform_u64(span - ct::kHour));
      rec.end = rec.start + 300 +
                static_cast<ct::Duration>(rng.uniform_u64(8 * ct::kHour));
      if (rec.end >= p.end) rec.end = p.end - 1;
      rec.state = rng.bernoulli(0.15) ? sl::JobState::kFailed
                                      : sl::JobState::kCompleted;
      const double width = rng.uniform();
      const std::int32_t gpus = width < 0.70 ? 1 : width < 0.95 ? 2 : 8;
      rec.gpus = gpus;
      rec.nodes = (gpus + kGpusPerNode - 1) / kGpusPerNode;
      const auto node = static_cast<std::int32_t>(rng.uniform_u64(kNodes));
      for (std::int32_t g = 0; g < gpus; ++g) {
        rec.gpu_list.push_back({(node + g / kGpusPerNode) % kNodes,
                                g % kGpusPerNode});
      }
      rec.name = rng.bernoulli(0.3) ? "train_job" : "mhd_solver";
      t->add(rec);
    }
    // The boundary: jobs straddling op.begin, and jobs ending before it.
    for (std::uint64_t i = 0; i < 2000; ++i) {
      sl::JobRecord rec;
      rec.id = 40001 + i;
      rec.start = p.begin - 300 -
                  static_cast<ct::Duration>(rng.uniform_u64(8 * ct::kHour));
      rec.end = i % 4 == 3 ? p.begin - 1 - static_cast<ct::Duration>(
                                               rng.uniform_u64(200))
                           : p.begin + static_cast<ct::Duration>(
                                           rng.uniform_u64(8 * ct::kHour));
      rec.state = i % 3 == 0 ? sl::JobState::kFailed
                             : sl::JobState::kCompleted;
      rec.gpus = 1;
      rec.nodes = 1;
      rec.gpu_list.push_back(
          {static_cast<std::int32_t>(rng.uniform_u64(kNodes)),
           static_cast<std::int32_t>(rng.uniform_u64(kGpusPerNode))});
      rec.name = "mhd_solver";
      t->add(rec);
    }
    return t;
  }();
  return *table;
}

// Random fleet errors plus errors planted inside the attribution window of
// every ~25th job, so the GPU-failed classification path is exercised hard,
// and errors before op.begin: random ones in the 8 hours before it, and one
// inside the pre-op part of every other straddling job's run.
const std::vector<an::CoalescedError>& errors() {
  static const auto* errs = [] {
    auto* v = new std::vector<an::CoalescedError>;
    ct::Rng rng(202);
    const auto p = periods().op;
    const auto span = static_cast<std::uint64_t>(p.end - p.begin);
    constexpr gx::Code kCodes[] = {
        gx::Code::kMmuError,      gx::Code::kDoubleBitEcc,
        gx::Code::kNvlinkError,   gx::Code::kGspRpcTimeout,
        gx::Code::kPmuSpiFailure, gx::Code::kUncontainedEccError};
    for (int i = 0; i < 10000; ++i) {
      an::CoalescedError e;
      e.time = p.begin + static_cast<ct::Duration>(rng.uniform_u64(span));
      e.last = e.time;
      e.gpu = {static_cast<std::int32_t>(rng.uniform_u64(kNodes)),
               static_cast<std::int32_t>(rng.uniform_u64(kGpusPerNode))};
      e.code = kCodes[rng.uniform_u64(std::size(kCodes))];
      v->push_back(e);
    }
    const auto& table = job_table();
    for (std::size_t i = 0; i < table.jobs.size(); i += 25) {
      const auto& j = table.jobs[i];
      const auto gpus = table.gpus_of(j);
      if (gpus.empty()) continue;
      an::CoalescedError e;
      e.time = j.end - 5;
      e.last = e.time;
      e.gpu = {an::packed_node(gpus[0]), an::packed_slot(gpus[0])};
      e.code = kCodes[rng.uniform_u64(std::size(kCodes))];
      v->push_back(e);
    }
    for (int i = 0; i < 1000; ++i) {
      an::CoalescedError e;
      e.time = p.begin - 1 -
               static_cast<ct::Duration>(rng.uniform_u64(8 * ct::kHour));
      e.last = e.time;
      e.gpu = {static_cast<std::int32_t>(rng.uniform_u64(kNodes)),
               static_cast<std::int32_t>(rng.uniform_u64(kGpusPerNode))};
      e.code = kCodes[rng.uniform_u64(std::size(kCodes))];
      v->push_back(e);
    }
    for (std::size_t i = 0; i < table.jobs.size(); ++i) {
      const auto& j = table.jobs[i];
      if (j.start >= p.begin || j.end < p.begin || i % 2 != 0) continue;
      const auto g = table.gpus_of(j)[0];
      an::CoalescedError e;
      e.time = j.start + 1 + (p.begin - j.start) / 2;
      e.last = e.time;
      e.gpu = {an::packed_node(g), an::packed_slot(g)};
      e.code = kCodes[rng.uniform_u64(std::size(kCodes))];
      v->push_back(e);
    }
    return v;
  }();
  return *errs;
}

an::JobImpactConfig impact_config(an::Attribution attr) {
  an::JobImpactConfig cfg;
  cfg.window = 20;
  cfg.period = periods().op;
  cfg.attribution = attr;
  return cfg;
}

void expect_exposures_equal(const std::vector<an::JobExposure>& a,
                            const std::vector<an::JobExposure>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].job_index, b[i].job_index) << "exposure " << i;
    ASSERT_EQ(a[i].run_mask, b[i].run_mask) << "exposure " << i;
    ASSERT_EQ(a[i].window_mask, b[i].window_mask) << "exposure " << i;
    ASSERT_EQ(a[i].gpu_failed, b[i].gpu_failed) << "exposure " << i;
  }
}

void expect_impact_equal(const an::JobImpact& a, const an::JobImpact& b) {
  EXPECT_EQ(a.jobs_analyzed, b.jobs_analyzed);
  EXPECT_EQ(a.failed_jobs_total, b.failed_jobs_total);
  EXPECT_EQ(a.gpu_failed_jobs, b.gpu_failed_jobs);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].code, b.rows[i].code) << "row " << i;
    EXPECT_EQ(a.rows[i].failed_jobs, b.rows[i].failed_jobs) << "row " << i;
    EXPECT_EQ(a.rows[i].encountering_jobs, b.rows[i].encountering_jobs)
        << "row " << i;
    // Derived doubles must be bit-equal: same integer inputs, same ops.
    EXPECT_EQ(a.rows[i].failure_probability, b.rows[i].failure_probability);
    EXPECT_EQ(a.rows[i].ci.lo, b.rows[i].ci.lo) << "row " << i;
    EXPECT_EQ(a.rows[i].ci.hi, b.rows[i].ci.hi) << "row " << i;
  }
  EXPECT_EQ(an::render_table2(a), an::render_table2(b));
  std::ostringstream ca, cb;
  an::write_table2_csv(ca, a);
  an::write_table2_csv(cb, b);
  EXPECT_EQ(ca.str(), cb.str());
}

/// Jobs ending in op that started before it and saw an error there: the
/// ones whose pass masks the fold must not keep.
std::size_t boundary_jobs_with_early_errors(const an::JobImpactConfig& cfg) {
  const auto index = an::build_error_index(errors());
  auto all_time = cfg;
  all_time.period = {std::numeric_limits<ct::TimePoint>::min(),
                     std::numeric_limits<ct::TimePoint>::max()};
  std::vector<std::int32_t> scratch;
  std::size_t n = 0;
  for (const auto& j : job_table().jobs) {
    if (!cfg.period.contains(j.end) || j.start + 1 >= cfg.period.begin) {
      continue;
    }
    const auto gpus = job_table().gpus_of(j);
    const auto in_op = an::expose(index.view(), j.start, j.end, gpus, cfg,
                                  scratch);
    const auto ever = an::expose(index.view(), j.start, j.end, gpus, all_time,
                                 scratch);
    n += in_op.run_mask != ever.run_mask;
  }
  return n;
}

struct Case {
  std::uint32_t threads;
  an::Attribution attribution;
};

class Stage3Parallel : public ::testing::TestWithParam<Case> {};

}  // namespace

// The exposure list of the batch fold equals the serial per-job oracle's,
// exposure for exposure, at both attribution granularities, on a fixture
// whose jobs straddle op.begin with errors before it.  `threads` callers
// run the pass and the fold at once over one shared index, as query
// readers share one mapping.
TEST_P(Stage3Parallel, ExposureJoinMatchesSerial) {
  const auto param = GetParam();
  const auto cfg = impact_config(param.attribution);
  ASSERT_GT(boundary_jobs_with_early_errors(cfg), 100u);
  std::vector<an::JobExposure> want;
  gpures::testing::oracle_impact(job_table(), errors(), cfg, &want);
  ASSERT_GT(want.size(), 1000u);

  const auto index = an::build_error_index(errors());
  ct::ThreadPool pool(param.threads);
  std::vector<std::vector<an::JobExposure>> got(param.threads);
  pool.parallel_for(param.threads, [&](std::size_t caller, std::size_t) {
    const auto pass = an::mask_jobs(job_table(), index.view(), cfg.window,
                                    cfg.attribution);
    an::fold_job_impact(job_table(), index.view(), pass, cfg, &got[caller]);
  });
  for (const auto& exposures : got) expect_exposures_equal(want, exposures);
}

// Table II from the batch fold, totals included, equals the oracle's.
TEST_P(Stage3Parallel, JobImpactMatchesSerial) {
  const auto param = GetParam();
  const auto cfg = impact_config(param.attribution);
  const auto want = gpures::testing::oracle_impact(job_table(), errors(), cfg);
  ASSERT_GT(want.gpu_failed_jobs, 100u);

  ct::ThreadPool pool(param.threads);
  std::vector<an::JobImpact> got(param.threads);
  pool.parallel_for(param.threads, [&](std::size_t caller, std::size_t) {
    got[caller] = an::compute_job_impact(job_table(), errors(), cfg);
  });
  for (const auto& impact : got) expect_impact_equal(want, impact);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndAttribution, Stage3Parallel,
    ::testing::Values(Case{2, an::Attribution::kGpuLevel},
                      Case{4, an::Attribution::kGpuLevel},
                      Case{8, an::Attribution::kGpuLevel},
                      Case{2, an::Attribution::kNodeLevel},
                      Case{4, an::Attribution::kNodeLevel},
                      Case{8, an::Attribution::kNodeLevel}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.attribution == an::Attribution::kGpuLevel
                             ? "gpu"
                             : "node") +
             "_threads" + std::to_string(info.param.threads);
    });

TEST(Stage3Parallel, PoolsOfDifferentSizesAgree) {
  // The mitigation render that runs its own pass ignores its pool, and its
  // floating-point sums match the oracle's exposure list to the byte.
  const auto cfg = impact_config(an::Attribution::kGpuLevel);
  std::vector<an::JobExposure> want;
  gpures::testing::oracle_impact(job_table(), errors(), cfg, &want);
  const auto bytes = an::render_mitigation(job_table(), want, cfg);
  ct::ThreadPool three(3);
  ct::ThreadPool seven(7);
  EXPECT_EQ(an::render_mitigation(job_table(), errors(), cfg, &three), bytes);
  EXPECT_EQ(an::render_mitigation(job_table(), errors(), cfg, &seven), bytes);
}

namespace {

/// Entry range [lo, hi) of the groups whose keys fall in [key_lo, key_hi].
std::size_t entries_in(const an::ErrorIndexView& index, std::int64_t key_lo,
                       std::int64_t key_hi) {
  const auto [lo, hi] = index.key_range(key_lo, key_hi);
  return index.offsets[hi] - index.offsets[lo];
}

}  // namespace

TEST(Stage3Parallel, ErrorIndexMatchesNaiveScan) {
  const auto owned = an::build_error_index(errors());
  const auto index = owned.view();
  ASSERT_GT(index.keys.size(), 0u);
  ASSERT_EQ(index.offsets.size(), index.keys.size() + 1);
  ASSERT_EQ(index.time.size(), index.bit.size());

  std::size_t total = 0;
  for (std::int32_t node = 0; node < kNodes; ++node) {
    for (std::int32_t slot = 0; slot < kGpusPerNode; ++slot) {
      const auto key = an::pack_gpu(node, slot);
      const auto [lo, hi] = index.key_range(key, key);
      ASSERT_LE(hi - lo, 1u);
      std::size_t expected = 0;
      for (const auto& e : errors()) {
        if (e.gpu.node == node && e.gpu.slot == slot &&
            an::exposure_bit(e.code) >= 0) {
          ++expected;
        }
      }
      EXPECT_EQ(entries_in(index, key, key), expected)
          << "gpu " << node << "/" << slot;
      for (std::uint64_t i = index.offsets[lo] + 1; i < index.offsets[hi];
           ++i) {
        EXPECT_LE(index.time[i - 1], index.time[i]);
      }
      total += expected;
    }
  }
  EXPECT_EQ(total, index.time.size());
  const auto ghost = an::pack_gpu(kNodes + 5, 0);
  EXPECT_EQ(entries_in(index, ghost, ghost), 0u);
}

TEST(Stage3Parallel, NodeLevelIndexGroupsByNode) {
  // Node-level attribution reads the same GPU-keyed index: a node's errors
  // are exactly the groups in [pack_gpu(node, 0), pack_gpu(node, 0xff)].
  const auto owned = an::build_error_index(errors());
  const auto index = owned.view();
  std::size_t total = 0;
  for (std::int32_t node = 0; node < kNodes; ++node) {
    std::size_t expected = 0;
    for (const auto& e : errors()) {
      if (e.gpu.node == node && an::exposure_bit(e.code) >= 0) {
        ++expected;
      }
    }
    const auto lo_key = an::pack_gpu(node, 0);
    const auto hi_key = an::pack_gpu(node, 0xff);
    EXPECT_EQ(entries_in(index, lo_key, hi_key), expected) << "node " << node;
    const auto [lo, hi] = index.key_range(lo_key, hi_key);
    for (std::size_t k = lo; k < hi; ++k) {
      EXPECT_EQ(an::packed_node(static_cast<an::PackedGpu>(index.keys[k])),
                node);
    }
    total += expected;
  }
  EXPECT_EQ(total, index.time.size());
  EXPECT_EQ(entries_in(index, an::pack_gpu(kNodes, 0),
                       an::pack_gpu(kNodes, 0xff)),
            0u);
}

TEST(Stage3Parallel, AvailabilityBitIdenticalAcrossWorkerCounts) {
  // Drain/resume stream over many hosts, deliberately shuffled across hosts
  // (records arrive interleaved, as from a real consolidated log).
  std::vector<an::LifecycleRecord> lifecycle;
  ct::Rng rng(303);
  const auto p = periods().op;
  for (std::int32_t n = 0; n < kNodes; ++n) {
    ct::TimePoint t = p.begin;
    const std::string host = "gpub" + std::to_string(n);
    while (t < p.end) {
      t += static_cast<ct::Duration>(ct::kHour + rng.uniform_u64(2 * ct::kDay));
      if (t >= p.end) break;
      const auto repair =
          static_cast<ct::Duration>(120 + rng.uniform_u64(6 * 3600));
      lifecycle.push_back({t, host, an::LifecycleRecord::Kind::kDrain});
      lifecycle.push_back(
          {t + repair, host, an::LifecycleRecord::Kind::kResume});
      t += repair;
    }
  }
  // Interleave hosts by time so per-host grouping actually has work to do.
  std::sort(lifecycle.begin(), lifecycle.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });

  an::AvailabilityConfig cfg;
  cfg.period = p;
  cfg.node_count = kNodes;
  const auto serial = an::compute_availability(lifecycle, cfg);
  ASSERT_GT(serial.intervals.size(), 100u);

  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    ct::ThreadPool pool(threads);
    const auto parallel = an::compute_availability(lifecycle, cfg, &pool);
    ASSERT_EQ(serial.intervals.size(), parallel.intervals.size());
    for (std::size_t i = 0; i < serial.intervals.size(); ++i) {
      EXPECT_EQ(serial.intervals[i].host, parallel.intervals[i].host);
      EXPECT_EQ(serial.intervals[i].begin, parallel.intervals[i].begin);
      EXPECT_EQ(serial.intervals[i].end, parallel.intervals[i].end);
    }
    // Floating-point aggregates must be *bit*-equal, not approximately so:
    // the merge concatenates per-shard durations in host order and folds
    // exactly as the serial loop does.
    EXPECT_EQ(serial.total_node_hours_lost, parallel.total_node_hours_lost);
    EXPECT_EQ(serial.mttr_h, parallel.mttr_h);
    EXPECT_EQ(serial.unpaired_drains, parallel.unpaired_drains);
    EXPECT_EQ(serial.unpaired_resumes, parallel.unpaired_resumes);
    ASSERT_EQ(serial.ecdf.size(), parallel.ecdf.size());
    for (std::size_t i = 0; i < serial.ecdf.size(); ++i) {
      EXPECT_EQ(serial.ecdf[i].x, parallel.ecdf[i].x);
      EXPECT_EQ(serial.ecdf[i].p, parallel.ecdf[i].p);
    }
    std::ostringstream cs, cp;
    an::write_fig2_csv(cs, serial);
    an::write_fig2_csv(cp, parallel);
    EXPECT_EQ(cs.str(), cp.str());
  }
}

TEST(Stage3Parallel, SurvivalTrendsMitigationRenderIdenticalBytes) {
  // The remaining Stage-III renders fan out internally (KM shards, Weibull
  // fits, trend statistics, the mitigation join); their report strings must
  // not change by a byte under any pool.
  const auto pds = periods();
  const auto icfg = impact_config(an::Attribution::kGpuLevel);
  const std::string survival_serial =
      an::render_survival(errors(), pds, kNodes * kGpusPerNode);
  const std::string trends_serial = an::render_trends(errors(), pds);
  const std::string mitigation_serial =
      an::render_mitigation(job_table(), errors(), icfg);
  ASSERT_FALSE(survival_serial.empty());
  ASSERT_FALSE(trends_serial.empty());
  ASSERT_FALSE(mitigation_serial.empty());

  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    ct::ThreadPool pool(threads);
    EXPECT_EQ(survival_serial,
              an::render_survival(errors(), pds, kNodes * kGpusPerNode, &pool));
    EXPECT_EQ(trends_serial, an::render_trends(errors(), pds, &pool));
    EXPECT_EQ(mitigation_serial,
              an::render_mitigation(job_table(), errors(), icfg, &pool));
  }
}

TEST(Stage3Parallel, MitigationSpanOverloadsMatchLegacyPath) {
  // Mitigation reads the exposure list of Table II's fold; the what-ifs
  // and the render over it must agree with the oracle's list and with the
  // render entry point that runs its own pass.
  const auto cfg = impact_config(an::Attribution::kGpuLevel);
  std::vector<an::JobExposure> shared;
  an::compute_job_impact(job_table(), errors(), cfg, &shared);
  std::vector<an::JobExposure> own;
  gpures::testing::oracle_impact(job_table(), errors(), cfg, &own);

  const auto a = an::compute_lost_work(job_table(), shared, cfg);
  const auto b = an::compute_lost_work(job_table(), own, cfg);
  EXPECT_EQ(a.gpu_failed_jobs, b.gpu_failed_jobs);
  EXPECT_EQ(a.lost_gpu_hours, b.lost_gpu_hours);
  EXPECT_EQ(a.total_gpu_hours, b.total_gpu_hours);
  EXPECT_EQ(a.lost_fraction, b.lost_fraction);

  const auto ma = an::compute_masking_whatif(job_table(), shared, cfg,
                                             {gx::Code::kMmuError});
  const auto mb = an::compute_masking_whatif(job_table(), own, cfg,
                                             {gx::Code::kMmuError});
  EXPECT_EQ(ma.gpu_failed_jobs, mb.gpu_failed_jobs);
  EXPECT_EQ(ma.maskable_jobs, mb.maskable_jobs);
  EXPECT_EQ(ma.recoverable_gpu_hours, mb.recoverable_gpu_hours);

  EXPECT_EQ(an::render_mitigation(job_table(), shared, cfg),
            an::render_mitigation(job_table(), errors(), cfg));
}
