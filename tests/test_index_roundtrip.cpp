// Round-trip tests for the persistent error index: everything the writer
// serializes must come back bit-equal through the memory-mapped reader, for
// all three column families, including the empty-dataset and single-error
// edges — and the artifact must be byte-identical no matter how many worker
// threads the producing pipeline ran with.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "analysis/availability.h"
#include "analysis/job_impact.h"
#include "analysis/pipeline.h"
#include "cluster/topology.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/rng.h"
#include "impact_oracle.h"
#include "index/format.h"
#include "index/query.h"
#include "index/reader.h"
#include "index/writer.h"
#include "logsys/syslog.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace ix = gpures::index;
namespace ls = gpures::logsys;
namespace fs = std::filesystem;

namespace {

fs::path temp_file(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("gpures_idx_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir / "gpures.idx";
}

an::StudyPeriods periods() {
  return an::StudyPeriods::make(ct::make_date(2023, 1, 1),
                                ct::make_date(2023, 2, 1),
                                ct::make_date(2023, 6, 1));
}

an::CoalescedError err(ct::TimePoint t, std::int32_t node, std::int32_t slot,
                       std::uint16_t code, std::uint16_t raw,
                       std::uint32_t lines) {
  an::CoalescedError e;
  e.time = t;
  e.last = t + 5;
  e.gpu = {node, slot};
  e.code = static_cast<gx::Code>(code);
  e.raw_xid = raw;
  e.raw_lines = lines;
  return e;
}

/// A small hand-built corpus exercising every column family: deliberately
/// unsorted input (the writer owns the ordering), an excluded code (13,
/// stored but never exposure-joined), a wide spilled job, and an
/// unavailability interval on a host the topology does not know.
struct Corpus {
  cl::Topology topo{cl::ClusterSpec::small()};
  an::StudyPeriods pds = periods();
  std::vector<an::CoalescedError> errors;
  an::JobTable jobs;
  std::vector<an::Unavailability> unavail;

  Corpus() {
    const auto t0 = pds.op.begin;
    errors.push_back(err(t0 + 5000, 2, 1, 63, 63, 3));
    errors.push_back(err(t0 + 100, 0, 0, 119, 120, 1));
    errors.push_back(err(t0 + 100, 0, 0, 79, 79, 2));   // tie on (time, gpu)
    errors.push_back(err(t0 + 100, 1, 3, 48, 48, 1));
    errors.push_back(err(t0 - 900, 3, 0, 94, 94, 1));   // pre-op period
    errors.push_back(err(t0 + 7000, 2, 1, 13, 13, 1));  // excluded code

    an::JobView a;
    a.id = 7;
    a.start = t0;
    a.end = t0 + 6000;
    a.gpus = 2;
    a.state = gpures::slurm::JobState::kFailed;
    a.inline_count = 2;
    a.gpus_inline[0] = an::pack_gpu(2, 1);
    a.gpus_inline[1] = an::pack_gpu(0, 0);
    jobs.jobs.push_back(a);

    an::JobView wide;  // spilled GPU list
    wide.id = 3;
    wide.start = t0 - 50;
    wide.end = t0 + 6000;  // same end as `a`, earlier start: sorts first
    wide.gpus = 6;
    wide.state = gpures::slurm::JobState::kCompleted;
    wide.spill_index = 0;
    jobs.spill.push_back({an::pack_gpu(0, 0), an::pack_gpu(0, 1),
                          an::pack_gpu(0, 2), an::pack_gpu(0, 3),
                          an::pack_gpu(1, 0), an::pack_gpu(1, 1)});
    jobs.jobs.push_back(wide);

    an::Unavailability u1{topo.node(2).name, t0 + 4000, t0 + 8000};
    an::Unavailability u2{topo.node(0).name, t0 + 50, t0 + 150};
    an::Unavailability u3{"ghost-node", t0 + 10, t0 + 20};  // dropped
    unavail = {u1, u2, u3};
  }

  ix::IndexBuildInput input() const {
    ix::IndexBuildInput in;
    in.periods = pds;
    in.attribution_window = 20;
    in.attribution = an::Attribution::kGpuLevel;
    in.topo = &topo;
    in.errors = &errors;
    in.jobs = &jobs;
    in.unavailability = &unavail;
    return in;
  }
};

}  // namespace

TEST(IndexRoundTrip, ErrorColumnsSurviveWriteAndMmapRead) {
  Corpus c;
  const auto path = temp_file("errors");
  const auto stats = ix::write_index(c.input(), path.string());
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats.value().meta.error_count, c.errors.size());
  EXPECT_EQ(stats.value().bytes, fs::file_size(path));

  auto opened = ix::IndexReader::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  const auto reader = std::move(opened).take();

  // The writer sorts by (time, gpu, code, raw_xid, ...); reproduce that
  // order independently and demand every column matches field for field.
  auto want = c.errors;
  std::sort(want.begin(), want.end(),
            [](const an::CoalescedError& a, const an::CoalescedError& b) {
              if (a.time != b.time) return a.time < b.time;
              const auto ga = an::pack_gpu(a.gpu.node, a.gpu.slot);
              const auto gb = an::pack_gpu(b.gpu.node, b.gpu.slot);
              if (ga != gb) return ga < gb;
              return gx::to_number(a.code) < gx::to_number(b.code);
            });
  ASSERT_EQ(reader.err_time().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(reader.err_time()[i], want[i].time) << i;
    EXPECT_EQ(reader.err_last()[i], want[i].last) << i;
    EXPECT_EQ(reader.err_gpu()[i],
              an::pack_gpu(want[i].gpu.node, want[i].gpu.slot))
        << i;
    EXPECT_EQ(reader.err_code()[i], gx::to_number(want[i].code)) << i;
    EXPECT_EQ(reader.err_raw_xid()[i], want[i].raw_xid) << i;
    EXPECT_EQ(reader.err_raw_lines()[i], want[i].raw_lines) << i;
  }

  // The loc sections are the batch error index, column for column.
  const auto batch = an::build_error_index(c.errors);
  const auto& loc = reader.error_index();
  EXPECT_TRUE(std::ranges::equal(loc.keys, batch.keys));
  EXPECT_TRUE(std::ranges::equal(loc.offsets, batch.offsets));
  EXPECT_TRUE(std::ranges::equal(loc.time, batch.time));
  EXPECT_TRUE(std::ranges::equal(loc.bit, batch.bit));
  EXPECT_EQ(reader.meta().loc_entry_count, batch.time.size());
}

TEST(IndexRoundTrip, JobAndUnavailabilityColumnsSurvive) {
  Corpus c;
  const auto path = temp_file("jobs");
  const auto stats = ix::write_index(c.input(), path.string());
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats.value().meta.job_count, 2u);
  EXPECT_EQ(stats.value().meta.job_gpu_count, 8u);
  EXPECT_EQ(stats.value().meta.unavail_count, 2u);
  EXPECT_EQ(stats.value().dropped_unknown_hosts, 1u);

  auto opened = ix::IndexReader::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  const auto reader = std::move(opened).take();

  // Jobs sorted by (end, start, id): the wide job (earlier start) first.
  ASSERT_EQ(reader.job_id().size(), 2u);
  EXPECT_EQ(reader.job_id()[0], 3u);
  EXPECT_EQ(reader.job_id()[1], 7u);
  EXPECT_EQ(reader.job_start()[0], c.jobs.jobs[1].start);
  EXPECT_EQ(reader.job_end()[0], c.jobs.jobs[1].end);
  EXPECT_EQ(reader.job_state()[1],
            static_cast<std::uint8_t>(gpures::slurm::JobState::kFailed));
  const auto wide_gpus = reader.job_gpus(0);
  ASSERT_EQ(wide_gpus.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(wide_gpus[i], c.jobs.spill[0][i]) << i;
  }
  const auto small_gpus = reader.job_gpus(1);
  ASSERT_EQ(small_gpus.size(), 2u);
  EXPECT_EQ(small_gpus[0], an::pack_gpu(2, 1));
  EXPECT_EQ(small_gpus[1], an::pack_gpu(0, 0));

  // Unavailability sorted by (begin, node, end); the unknown host is gone.
  ASSERT_EQ(reader.unavail_node().size(), 2u);
  EXPECT_EQ(reader.unavail_node()[0], 0);
  EXPECT_EQ(reader.unavail_node()[1], 2);
  EXPECT_EQ(reader.unavail_begin()[0], c.pds.op.begin + 50);
  EXPECT_EQ(reader.unavail_end()[1], c.pds.op.begin + 8000);

  // Node directory round-trips both ways.
  ASSERT_EQ(reader.meta().node_count,
            static_cast<std::uint32_t>(c.topo.node_count()));
  for (std::int32_t n = 0; n < c.topo.node_count(); ++n) {
    EXPECT_EQ(reader.node_name(static_cast<std::uint32_t>(n)),
              c.topo.node(n).name);
    EXPECT_EQ(reader.node_index(c.topo.node(n).name), n);
  }
  EXPECT_FALSE(reader.node_index("ghost-node").has_value());
}

TEST(IndexRoundTrip, AttributionSectionsHoldTheWriteTimeJoin) {
  // Both jobs saw errors on their GPUs during their runs (the 63 at
  // t0 + 5000 and the 119/79 pair at t0 + 100); only job 7 failed.
  Corpus c;
  const auto path = temp_file("attribution");
  const auto stats = ix::write_index(c.input(), path.string());
  ASSERT_TRUE(stats.ok()) << stats.error().message;

  auto opened = ix::IndexReader::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  const auto reader = std::move(opened).take();
  EXPECT_EQ(reader.meta().exposed_count, 2u);
  EXPECT_EQ(reader.meta().failed_count, 1u);
  ASSERT_EQ(reader.job_exposed_pos().size(), 2u);
  EXPECT_EQ(reader.job_exposed_pos()[0], 0u);
  EXPECT_EQ(reader.job_exposed_pos()[1], 1u);
  ASSERT_EQ(reader.job_failed_pos().size(), 1u);
  EXPECT_EQ(reader.job_failed_pos()[0], 1u);

  // The stored masks are expose() over an unbounded period at the recorded
  // window and attribution.
  an::JobImpactConfig cfg;
  cfg.window = 20;
  cfg.period = {std::numeric_limits<ct::TimePoint>::min(),
                std::numeric_limits<ct::TimePoint>::max()};
  std::vector<std::int32_t> scratch;
  for (std::size_t k = 0; k < 2; ++k) {
    const std::size_t j = reader.job_exposed_pos()[k];
    const auto m = an::expose(reader.error_index(), reader.job_start()[j],
                              reader.job_end()[j], reader.job_gpus(j), cfg,
                              scratch);
    EXPECT_NE(m.run_mask, 0u);
    EXPECT_EQ(reader.job_exposed_masks()[k],
              an::pack_masks(m.run_mask, m.window_mask))
        << k;
  }
}

TEST(IndexRoundTrip, AttributionHonoursTheRunEdges) {
  // A run is (start, end]: an error stamped at a job's start belongs to the
  // GPU's previous tenant, one stamped at its end counts.  Jobs on GPU
  // (0, 0) and on its neighbour (0, 1) around errors on (0, 0), at device
  // and at node level, against expose itself for every job.
  Corpus c;
  const auto t = c.pds.op.begin;
  c.errors = {err(t, 0, 0, 63, 63, 1), err(t + 100, 0, 0, 79, 79, 1),
              err(t + 200, 0, 0, 48, 48, 1)};
  c.jobs = an::JobTable();
  const std::pair<std::int64_t, std::int64_t> runs[] = {
      {0, 50}, {60, 100}, {99, 150}, {101, 199}, {150, 200}, {200, 260}};
  std::uint64_t id = 1;
  for (const std::int32_t slot : {0, 1}) {
    for (const auto& [start, end] : runs) {
      an::JobView v;
      v.id = id++;
      v.start = t + start;
      v.end = t + end;
      v.state = id % 2 == 0 ? gpures::slurm::JobState::kFailed
                            : gpures::slurm::JobState::kCompleted;
      v.inline_count = 1;
      v.gpus_inline[0] = an::pack_gpu(0, slot);
      c.jobs.jobs.push_back(v);
    }
  }
  for (const auto level :
       {an::Attribution::kGpuLevel, an::Attribution::kNodeLevel}) {
    auto in = c.input();
    in.attribution = level;
    const auto path = temp_file("edges");
    ASSERT_TRUE(ix::write_index(in, path.string()).ok());
    auto opened = ix::IndexReader::open(path.string());
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    const auto reader = std::move(opened).take();

    an::JobImpactConfig cfg;
    cfg.window = in.attribution_window;
    cfg.period = {std::numeric_limits<ct::TimePoint>::min(),
                  std::numeric_limits<ct::TimePoint>::max()};
    cfg.attribution = level;
    std::vector<std::int32_t> scratch;
    std::size_t k = 0;
    for (std::size_t j = 0; j < reader.meta().job_count; ++j) {
      const auto m = an::expose(reader.error_index(), reader.job_start()[j],
                                reader.job_end()[j], reader.job_gpus(j), cfg,
                                scratch);
      if (m.run_mask == 0) continue;
      ASSERT_LT(k, reader.job_exposed_pos().size()) << j;
      EXPECT_EQ(reader.job_exposed_pos()[k], j);
      EXPECT_EQ(reader.job_exposed_masks()[k],
                an::pack_masks(m.run_mask, m.window_mask))
          << j;
      ++k;
    }
    EXPECT_EQ(k, reader.job_exposed_pos().size());
    // Runs (60, 100], (99, 150] and (150, 200] hold an error; on slot 1
    // only node-level attribution sees them.
    EXPECT_EQ(k, level == an::Attribution::kGpuLevel ? 3u : 6u);
  }
}

TEST(IndexRoundTrip, MetaBlockSurvives) {
  Corpus c;
  auto in = c.input();
  in.attribution_window = 45;
  in.attribution = an::Attribution::kNodeLevel;
  in.max_interval_h = 12.5;
  in.outlier_share = 0.25;
  in.outlier_min = 7;
  in.exclude_outliers_from_totals = false;
  const auto path = temp_file("meta");
  ASSERT_TRUE(ix::write_index(in, path.string()).ok());
  auto opened = ix::IndexReader::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  const auto& m = opened.value().meta();
  EXPECT_EQ(m.periods.pre.begin, c.pds.pre.begin);
  EXPECT_EQ(m.periods.pre.end, c.pds.pre.end);
  EXPECT_EQ(m.periods.op.begin, c.pds.op.begin);
  EXPECT_EQ(m.periods.op.end, c.pds.op.end);
  EXPECT_EQ(m.attribution_window, 45);
  EXPECT_EQ(m.attribution, an::Attribution::kNodeLevel);
  EXPECT_EQ(m.max_interval_h, 12.5);
  EXPECT_EQ(m.outlier_share, 0.25);
  EXPECT_EQ(m.outlier_min, 7u);
  EXPECT_FALSE(m.exclude_outliers_from_totals);
  EXPECT_EQ(m.error_count, c.errors.size());
  EXPECT_EQ(m.job_count, 2u);
  EXPECT_EQ(m.unavail_count, 2u);
}

TEST(IndexRoundTrip, EmptyDatasetRoundTrips) {
  cl::Topology topo(cl::ClusterSpec::small());
  const std::vector<an::CoalescedError> no_errors;
  const an::JobTable no_jobs;
  const std::vector<an::Unavailability> no_unavail;
  ix::IndexBuildInput in;
  in.periods = periods();
  in.topo = &topo;
  in.errors = &no_errors;
  in.jobs = &no_jobs;
  in.unavailability = &no_unavail;

  const auto path = temp_file("empty");
  const auto stats = ix::write_index(in, path.string());
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats.value().meta.error_count, 0u);

  auto opened = ix::IndexReader::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  const auto& reader = opened.value();
  EXPECT_EQ(reader.meta().error_count, 0u);
  EXPECT_TRUE(reader.err_time().empty());
  EXPECT_TRUE(reader.error_index().keys.empty());
  EXPECT_TRUE(reader.job_id().empty());
  EXPECT_TRUE(reader.unavail_begin().empty());
  const auto key = an::pack_gpu(0, 0);
  const auto [lo, hi] = reader.error_index().key_range(key, key);
  EXPECT_EQ(lo, hi);
  EXPECT_TRUE(reader.job_gpus(0).empty());  // out of range is empty, not UB
}

TEST(IndexRoundTrip, SingleErrorRoundTrips) {
  cl::Topology topo(cl::ClusterSpec::small());
  const auto pds = periods();
  const std::vector<an::CoalescedError> one = {
      err(pds.op.begin + 42, 1, 2, 63, 63, 9)};
  const an::JobTable no_jobs;
  const std::vector<an::Unavailability> no_unavail;
  ix::IndexBuildInput in;
  in.periods = pds;
  in.topo = &topo;
  in.errors = &one;
  in.jobs = &no_jobs;
  in.unavailability = &no_unavail;

  const auto path = temp_file("single");
  ASSERT_TRUE(ix::write_index(in, path.string()).ok());
  auto opened = ix::IndexReader::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  const auto& reader = opened.value();
  ASSERT_EQ(reader.err_time().size(), 1u);
  EXPECT_EQ(reader.err_time()[0], pds.op.begin + 42);
  EXPECT_EQ(reader.err_gpu()[0], an::pack_gpu(1, 2));
  EXPECT_EQ(reader.err_code()[0], 63);
  EXPECT_EQ(reader.err_raw_lines()[0], 9u);
  const auto& loc = reader.error_index();
  const auto key = an::pack_gpu(1, 2);
  const auto [lo, hi] = loc.key_range(key, key);
  ASSERT_EQ(hi - lo, 1u);
  ASSERT_EQ(loc.offsets[hi] - loc.offsets[lo], 1u);
  EXPECT_EQ(loc.time[loc.offsets[lo]], pds.op.begin + 42);
}

namespace {

an::JobView job(std::uint64_t id, ct::TimePoint start, ct::TimePoint end,
                gpures::slurm::JobState state, an::PackedGpu gpu) {
  an::JobView j;
  j.id = id;
  j.start = start;
  j.end = end;
  j.gpus = 1;
  j.state = state;
  j.inline_count = 1;
  j.gpus_inline[0] = gpu;
  return j;
}

void expect_same_impact(const an::JobImpact& got, const an::JobImpact& want) {
  EXPECT_EQ(got.jobs_analyzed, want.jobs_analyzed);
  EXPECT_EQ(got.failed_jobs_total, want.failed_jobs_total);
  EXPECT_EQ(got.gpu_failed_jobs, want.gpu_failed_jobs);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].code, want.rows[i].code) << i;
    EXPECT_EQ(got.rows[i].encountering_jobs, want.rows[i].encountering_jobs)
        << i;
    EXPECT_EQ(got.rows[i].failed_jobs, want.rows[i].failed_jobs) << i;
    EXPECT_EQ(got.rows[i].failure_probability,
              want.rows[i].failure_probability)
        << i;
    EXPECT_EQ(got.rows[i].ci.lo, want.rows[i].ci.lo) << i;
    EXPECT_EQ(got.rows[i].ci.hi, want.rows[i].ci.hi) << i;
  }
}

std::uint64_t encountering(const an::JobImpact& impact, std::uint16_t xid) {
  return impact.find(static_cast<gx::Code>(xid))->encountering_jobs;
}
std::uint64_t failed(const an::JobImpact& impact, std::uint16_t xid) {
  return impact.find(static_cast<gx::Code>(xid))->failed_jobs;
}

}  // namespace

TEST(IndexRoundTrip, QueryImpactMatchesBatchAtWindowBoundaries) {
  // The query window [from, to) clamps both jobs (by end) and errors (by
  // time); the attribution excludes an error at a job's exact start second.
  // Errors sit at from - 1, from, to - 1, to and at a job's start second,
  // and job A straddles `from` with the error at from - 1 on its GPU.  The
  // query and the batch fold each equal the naive per-job oracle.
  using gpures::slurm::JobState;
  Corpus c;
  const auto from = c.pds.op.begin + 1000;
  const auto to = c.pds.op.begin + 5000;
  const auto g10 = an::pack_gpu(1, 0);
  const auto g11 = an::pack_gpu(1, 1);
  const auto g21 = an::pack_gpu(2, 1);
  c.errors = {
      err(from - 1, 1, 0, 31, 31, 1),    // before the window
      err(from, 1, 0, 48, 48, 1),        // first second of the window
      err(from + 90, 1, 0, 63, 63, 1),   // in job A's final 20 s
      err(from + 200, 2, 1, 74, 74, 1),  // job B's start second
      err(to - 1, 2, 1, 79, 79, 1),      // last second, job B's end
      err(to, 2, 1, 94, 94, 1),          // first second after the window
  };
  c.jobs = {};
  // A starts before the window and ends inside it.
  c.jobs.jobs.push_back(job(1, from - 500, from + 100, JobState::kFailed, g10));
  c.jobs.jobs.push_back(job(2, from + 200, to - 1, JobState::kFailed, g21));
  // Ends at `to`: outside the window.
  c.jobs.jobs.push_back(job(3, from + 300, to, JobState::kFailed, g21));
  // Shares node 1 with A on another GPU: exposed only at node level.
  c.jobs.jobs.push_back(job(4, from - 10, from + 150, JobState::kCompleted, g11));
  // Ends before the window.
  c.jobs.jobs.push_back(job(5, from - 2000, from - 1, JobState::kFailed, g10));
  // Fails inside the window without seeing an error.
  c.jobs.jobs.push_back(
      job(6, from + 400, from + 900, JobState::kFailed, an::pack_gpu(3, 0)));

  const auto path = temp_file("boundaries");
  ASSERT_TRUE(ix::write_index(c.input(), path.string()).ok());
  auto opened = ix::IndexReader::open(path.string());
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  const auto reader = std::move(opened).take();

  ix::Predicate p;
  p.from = from;
  p.to = to;
  an::JobImpactConfig cfg;
  cfg.window = 20;
  cfg.period = {from, to};
  for (const int attribution : {0, 1}) {
    SCOPED_TRACE(attribution == 0 ? "device level" : "node level");
    cfg.attribution = attribution == 0 ? an::Attribution::kGpuLevel
                                       : an::Attribution::kNodeLevel;
    ix::QueryOptions opts;
    opts.attribution = attribution;
    ix::QueryEngine engine(reader, opts);
    const auto want = gpures::testing::oracle_impact(c.jobs, c.errors, cfg);
    expect_same_impact(engine.impact(p), want);
    expect_same_impact(an::compute_job_impact(c.jobs, c.errors, cfg), want);

    EXPECT_EQ(want.jobs_analyzed, 4u);
    EXPECT_EQ(want.failed_jobs_total, 3u);
    EXPECT_EQ(want.gpu_failed_jobs, 2u);
    for (const std::uint16_t outside : {31, 74, 94}) {
      EXPECT_EQ(encountering(want, outside), 0u) << "xid " << outside;
    }
    const std::uint64_t node_share = attribution == 0 ? 1u : 2u;
    EXPECT_EQ(encountering(want, 48), node_share);
    EXPECT_EQ(encountering(want, 63), node_share);
    EXPECT_EQ(encountering(want, 79), 1u);
    EXPECT_EQ(failed(want, 48), 0u);
    EXPECT_EQ(failed(want, 63), 1u);
    EXPECT_EQ(failed(want, 79), 1u);
  }
}

TEST(IndexRoundTrip, StoredPassEqualsTheInMemoryPass) {
  // Random jobs and errors around op.begin on the small topology.  The
  // artifact written from the run's own index and pass, as the tools write
  // it, equals the one the writer builds alone, and its attribution
  // sections read back as that pass, column for column.
  Corpus c;
  const auto t0 = c.pds.op.begin;
  ct::Rng rng(29);
  const auto nodes = static_cast<std::uint64_t>(c.topo.node_count());
  const auto any_gpu = [&] {
    const auto node = static_cast<std::int32_t>(rng.uniform_u64(nodes));
    return an::pack_gpu(node, static_cast<std::int32_t>(rng.uniform_u64(
                                  static_cast<std::uint64_t>(
                                      c.topo.gpus_on_node(node)))));
  };
  constexpr std::uint16_t kCodes[] = {31, 48, 63, 74, 79, 94, 119, 13};
  c.errors.clear();
  for (int i = 0; i < 400; ++i) {
    const auto g = any_gpu();
    const auto code = kCodes[rng.uniform_u64(std::size(kCodes))];
    c.errors.push_back(
        err(t0 - 3600 + static_cast<ct::Duration>(rng.uniform_u64(5 * 3600)),
            an::packed_node(g), an::packed_slot(g), code, code, 1));
  }
  c.jobs = {};
  for (std::uint64_t id = 1; id <= 600; ++id) {
    const auto start =
        t0 - 3600 + static_cast<ct::Duration>(rng.uniform_u64(4 * 3600));
    c.jobs.jobs.push_back(
        job(id, start, start + static_cast<ct::Duration>(rng.uniform_u64(3600)),
            rng.bernoulli(0.3) ? gpures::slurm::JobState::kFailed
                               : gpures::slurm::JobState::kCompleted,
            any_gpu()));
  }
  for (const auto level :
       {an::Attribution::kGpuLevel, an::Attribution::kNodeLevel}) {
    SCOPED_TRACE(level == an::Attribution::kGpuLevel ? "device level"
                                                     : "node level");
    const auto index = an::build_error_index(c.errors);
    const auto pass = an::mask_jobs(c.jobs, index.view(), 20, level);
    ASSERT_GT(pass.exposed_pos.size(), 50u);
    ASSERT_GT(pass.failed_pos.size(), 50u);
    auto in = c.input();
    in.attribution = level;
    const auto alone = ix::serialize_index(in);
    in.loc = &index;
    in.pass = &pass;
    const auto path = temp_file("pass");
    ASSERT_TRUE(ix::write_index(in, path.string()).ok());
    ASSERT_TRUE(alone.ok());
    EXPECT_EQ(ct::read_file(path.string()).value(), alone.value());

    auto opened = ix::IndexReader::open(path.string());
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    const auto reader = std::move(opened).take();
    EXPECT_TRUE(std::ranges::equal(reader.job_exposed_pos(), pass.exposed_pos));
    EXPECT_TRUE(
        std::ranges::equal(reader.job_exposed_masks(), pass.exposed_masks));
    EXPECT_TRUE(std::ranges::equal(reader.job_failed_pos(), pass.failed_pos));
    for (std::size_t pos = 0; pos < pass.order.size(); ++pos) {
      EXPECT_EQ(reader.job_id()[pos], c.jobs.jobs[pass.order[pos]].id) << pos;
    }
  }
}

// The artifact's bytes, pinned: the round-trip corpus at device level, the
// same corpus at node level with every recorded setting off its default,
// and an empty input.  A refactor of the writer or of the field codec must
// leave every byte in place; a deliberate format change bumps
// kFormatVersion and these constants together.
TEST(IndexRoundTrip, FormatBytesArePinned) {
  Corpus c;
  const auto hash_of = [](const ix::IndexBuildInput& in) {
    const auto bytes = ix::serialize_index(in);
    EXPECT_TRUE(bytes.ok()) << bytes.error().message;
    return ct::xxhash64(bytes.ok() ? bytes.value() : std::string());
  };
  EXPECT_EQ(hash_of(c.input()), 0xef4d4fe4785915fcull);

  auto node = c.input();
  node.attribution = an::Attribution::kNodeLevel;
  node.attribution_window = 45;
  node.max_interval_h = 12.5;
  node.outlier_share = 0.25;
  node.outlier_min = 7;
  node.exclude_outliers_from_totals = false;
  EXPECT_EQ(hash_of(node), 0x8f885f3edfa31e98ull);

  const std::vector<an::CoalescedError> no_errors;
  const an::JobTable no_jobs;
  const std::vector<an::Unavailability> no_unavail;
  ix::IndexBuildInput empty;
  empty.periods = periods();
  empty.topo = &c.topo;
  empty.errors = &no_errors;
  empty.jobs = &no_jobs;
  empty.unavailability = &no_unavail;
  EXPECT_EQ(hash_of(empty), 0x04fd5c05c4aa6414ull);
}

TEST(IndexRoundTrip, SerializationIsDeterministic) {
  Corpus c;
  const auto a = ix::serialize_index(c.input());
  const auto b = ix::serialize_index(c.input());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), b.value());
}

namespace {

/// Same synthetic-campaign shape as test_parallel_determinism: enough churn
/// that Stage I/II parallelism would surface any ordering leak in the
/// artifact.
void ingest_synthetic(an::AnalysisPipeline& pipe, const cl::Topology& topo,
                      std::uint64_t seed, int days) {
  constexpr std::uint16_t kCodes[] = {31, 48, 63, 74, 79, 94, 119, 120, 122};
  ct::Rng rng(seed);
  const auto day0 = ct::make_date(2023, 2, 1);
  for (int d = 0; d < days; ++d) {
    ct::TimePoint t = day0 + d * ct::kDay;
    std::string text;
    const int n = 200 + static_cast<int>(rng.uniform_u64(100));
    for (int i = 0; i < n; ++i) {
      t += static_cast<ct::Duration>(rng.uniform_u64(400));
      const auto node = static_cast<std::int32_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(topo.node_count())));
      const auto& name = topo.node(node).name;
      const double what = rng.uniform();
      if (what < 0.8) {
        const auto slot = static_cast<std::int32_t>(rng.uniform_u64(
            static_cast<std::uint64_t>(topo.gpus_on_node(node))));
        const auto code = static_cast<gx::Code>(
            kCodes[rng.uniform_u64(std::size(kCodes))]);
        text += ls::render_xid_line(t, name, topo.pci_bus({node, slot}), code,
                                    "roundtrip");
      } else if (what < 0.9) {
        text += ls::render_drain_line(t, name);
      } else {
        text += ls::render_resume_line(t, name);
      }
      text += '\n';
    }
    pipe.ingest_log_text(day0 + d * ct::kDay, text);
  }
  pipe.finish();
}

}  // namespace

TEST(IndexRoundTrip, ArtifactIsByteIdenticalAcrossThreadCounts) {
  cl::Topology topo(cl::ClusterSpec::delta_a100());
  std::string baseline;
  for (const std::uint32_t threads : {0u, 2u, 4u, 8u}) {
    an::PipelineConfig cfg;
    cfg.num_threads = threads;
    an::AnalysisPipeline pipe(topo, cfg);
    ingest_synthetic(pipe, topo, 17, 8);
    const auto avail = pipe.availability();

    ix::IndexBuildInput in;
    in.periods = cfg.periods;
    in.attribution_window = cfg.attribution_window;
    in.attribution = cfg.attribution;
    in.topo = &topo;
    in.errors = &pipe.errors();
    in.jobs = &pipe.jobs();
    in.unavailability = &avail.intervals;
    const auto bytes = ix::serialize_index(in);
    ASSERT_TRUE(bytes.ok()) << bytes.error().message;
    if (threads == 0) {
      baseline = bytes.value();
      ASSERT_GT(pipe.errors().size(), 100u) << "corpus too thin to trust";
    } else {
      EXPECT_EQ(bytes.value(), baseline)
          << "gpures.idx differs at --threads " << threads;
    }
  }
}
