// Differential tests for parallel Stage III: the job-range-sharded exposure
// join, the host-sharded availability pairing, and the task-parallel
// survival/trends/mitigation renders must all produce results *identical*
// to their serial counterparts — every exposure field, every counter, every
// floating-point aggregate, every rendered byte — for any worker count.
// Together with test_parallel_determinism (Stages I+II) this closes the
// determinism story end to end: `--threads N` never changes output.
#include <gtest/gtest.h>

#include <algorithm>
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
    return t;
  }();
  return *table;
}

// Random fleet errors plus errors planted inside the attribution window of
// every ~25th job, so the GPU-failed classification path is exercised hard.
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

struct Case {
  std::uint32_t threads;
  an::Attribution attribution;
};

class Stage3Parallel : public ::testing::TestWithParam<Case> {};

}  // namespace

// The tentpole contract: the sharded exposure join concatenated in shard
// order equals the serial join, exposure for exposure, at every worker
// count and both attribution granularities.
TEST_P(Stage3Parallel, ExposureJoinMatchesSerial) {
  const auto param = GetParam();
  const auto cfg = impact_config(param.attribution);
  const auto owned = an::build_error_index(errors(), cfg.period);
  const auto index = owned.view();

  an::ExposureJoinStats serial_stats;
  const auto serial = an::compute_exposures(job_table(), index, cfg, nullptr,
                                            &serial_stats);
  ASSERT_GT(serial.size(), 1000u);
  ASSERT_EQ(serial_stats.shards.size(), 1u);

  ct::ThreadPool pool(param.threads);
  an::ExposureJoinStats par_stats;
  const auto parallel =
      an::compute_exposures(job_table(), index, cfg, &pool, &par_stats);
  expect_exposures_equal(serial, parallel);

  // Shard tallies partition the totals exactly.
  ASSERT_EQ(par_stats.shards.size(), static_cast<std::size_t>(param.threads));
  std::uint64_t scanned = 0;
  for (const auto& s : par_stats.shards) scanned += s.jobs_scanned;
  EXPECT_EQ(scanned, serial_stats.shards[0].jobs_scanned);
  EXPECT_EQ(par_stats.total_exposed(), serial_stats.total_exposed());
  EXPECT_EQ(par_stats.total_exposed(), parallel.size());
}

TEST_P(Stage3Parallel, JobImpactMatchesSerial) {
  const auto param = GetParam();
  const auto cfg = impact_config(param.attribution);
  const auto serial = an::compute_job_impact(job_table(), errors(), cfg);
  ASSERT_GT(serial.gpu_failed_jobs, 100u);

  // The same pass lists the exposures, as compute_exposures would.
  ct::ThreadPool pool(param.threads);
  std::vector<an::JobExposure> exposures;
  const auto parallel = an::compute_job_impact(job_table(), errors(), cfg,
                                               &pool, nullptr, &exposures);
  expect_impact_equal(serial, parallel);
  expect_exposures_equal(an::compute_exposures(job_table(), errors(), cfg),
                         exposures);
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
  // Transitivity at odd worker counts: the shard partition differs but the
  // concatenated output cannot.
  const auto cfg = impact_config(an::Attribution::kGpuLevel);
  const auto owned = an::build_error_index(errors(), cfg.period);
  const auto index = owned.view();
  ct::ThreadPool three(3);
  ct::ThreadPool seven(7);
  expect_exposures_equal(
      an::compute_exposures(job_table(), index, cfg, &three),
      an::compute_exposures(job_table(), index, cfg, &seven));
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
  const auto cfg = impact_config(an::Attribution::kGpuLevel);
  const auto owned = an::build_error_index(errors(), cfg.period);
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
            cfg.period.contains(e.time) && an::exposure_bit(e.code) >= 0) {
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
  const auto cfg = impact_config(an::Attribution::kNodeLevel);
  const auto owned = an::build_error_index(errors(), cfg.period);
  const auto index = owned.view();
  std::size_t total = 0;
  for (std::int32_t node = 0; node < kNodes; ++node) {
    std::size_t expected = 0;
    for (const auto& e : errors()) {
      if (e.gpu.node == node && cfg.period.contains(e.time) &&
          an::exposure_bit(e.code) >= 0) {
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
  // Mitigation reads the exposure list of Table II's join; the what-ifs and
  // the render over it must agree with a separate compute_exposures join
  // and with the render entry point that joins for itself.
  const auto cfg = impact_config(an::Attribution::kGpuLevel);
  std::vector<an::JobExposure> shared;
  an::compute_job_impact(job_table(), errors(), cfg, nullptr, nullptr,
                         &shared);
  const auto own = an::compute_exposures(job_table(), errors(), cfg);

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
