// Differential harness for the query serving layer: a seeded corpus of
// random node / XID / time-window predicates, every one answered twice —
// once by the IndexReader + QueryEngine over the mapped artifact, once
// computed fresh from the pipeline's in-memory outputs with the batch
// machinery — and held exactly equal (integer counts ==, doubles bitwise
// via the same arithmetic).  Impact is checked at the recorded settings (a
// fold of the masks stored at write time, boundary jobs re-exposed), on an
// index written at node-level attribution, and under window and
// attribution overrides (the replayed join).  Also proves the cache is
// semantically invisible (cache-on vs cache-off) and that four threads
// hammering one shared mapping agree with the serial answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <thread>
#include <vector>

#include <unistd.h>

#include "analysis/availability.h"
#include "analysis/campaign.h"
#include "analysis/error_stats.h"
#include "analysis/job_impact.h"
#include "analysis/pipeline.h"
#include "common/rng.h"
#include "common/stats.h"
#include "index/query.h"
#include "index/reader.h"
#include "index/writer.h"
#include "obs/metrics.h"

namespace an = gpures::analysis;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace ix = gpures::index;
namespace obs = gpures::obs;
namespace fs = std::filesystem;

namespace {

/// One simulated campaign (errors + jobs + unavailability) shared by every
/// test in this binary, with its index written and mapped once.
class QueryDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    an::CampaignConfig cfg = an::CampaignConfig::quick();
    cfg.seed = 23;
    cfg.workload_scale *= 0.3;
    campaign_ = new an::DeltaCampaign(cfg);
    campaign_->run();
    avail_ = new an::AvailabilityStats(campaign_->pipeline().availability());

    // Per-process: ctest -j runs each case as its own process, and one must
    // never rewrite the index another has mapped.
    dir_ = fs::temp_directory_path() /
           ("gpures_idx_differential." + std::to_string(::getpid()));
    const auto& dir = dir_;
    fs::remove_all(dir);
    fs::create_directories(dir);
    path_ = (dir / "gpures.idx").string();

    ix::IndexBuildInput in;
    in.periods = campaign_->periods();
    in.attribution_window = cfg.pipeline.attribution_window;
    in.attribution = cfg.pipeline.attribution;
    in.outlier_share = cfg.pipeline.outlier_share;
    in.outlier_min = cfg.pipeline.outlier_min;
    in.topo = &campaign_->topology();
    in.errors = &campaign_->pipeline().errors();
    in.jobs = &campaign_->pipeline().jobs();
    in.unavailability = &avail_->intervals;
    const auto wrote = ix::write_index(in, path_);
    ASSERT_TRUE(wrote.ok()) << wrote.error().message;

    auto opened = ix::IndexReader::open(path_);
    ASSERT_TRUE(opened.ok()) << opened.error().message;
    reader_ = new ix::IndexReader(std::move(opened).take());
    ASSERT_GT(reader_->meta().error_count, 50u) << "corpus too thin";
    ASSERT_GT(reader_->meta().job_count, 500u) << "corpus too thin";
    ASSERT_EQ(in.attribution, an::Attribution::kGpuLevel);

    // The same outputs written at node-level attribution: its stored masks
    // are the node-level join's.
    in.attribution = an::Attribution::kNodeLevel;
    const auto node_path = (dir / "gpures_node.idx").string();
    const auto wrote_node = ix::write_index(in, node_path);
    ASSERT_TRUE(wrote_node.ok()) << wrote_node.error().message;
    auto opened_node = ix::IndexReader::open(node_path);
    ASSERT_TRUE(opened_node.ok()) << opened_node.error().message;
    node_reader_ = new ix::IndexReader(std::move(opened_node).take());
    ASSERT_EQ(node_reader_->meta().attribution, 1u);
  }

  static void TearDownTestSuite() {
    delete reader_;
    reader_ = nullptr;
    delete node_reader_;
    node_reader_ = nullptr;
    delete avail_;
    avail_ = nullptr;
    delete campaign_;
    campaign_ = nullptr;
    fs::remove_all(dir_);
  }

  static an::DeltaCampaign* campaign_;
  static an::AvailabilityStats* avail_;
  static ix::IndexReader* reader_;
  static ix::IndexReader* node_reader_;  ///< written at node-level attribution
  static std::string path_;
  static fs::path dir_;
};

an::DeltaCampaign* QueryDifferential::campaign_ = nullptr;
an::AvailabilityStats* QueryDifferential::avail_ = nullptr;
ix::IndexReader* QueryDifferential::reader_ = nullptr;
ix::IndexReader* QueryDifferential::node_reader_ = nullptr;
std::string QueryDifferential::path_;
fs::path QueryDifferential::dir_;

/// Seeded predicate corpus: mixes empty, narrow, and whole-study windows
/// with optional node and XID filters (including family aliases 120/123,
/// excluded code 13, and a never-logged XID).
std::vector<ix::Predicate> make_corpus(const ix::IndexReader& reader,
                                       std::uint64_t seed, int n) {
  constexpr std::uint16_t kXids[] = {31, 48, 63, 64, 74,  79, 94,
                                     95, 119, 120, 122, 123, 13, 777};
  const auto& meta = reader.meta();
  const auto begin = meta.periods.pre.begin;
  const auto span =
      static_cast<std::uint64_t>(meta.periods.op.end - begin);
  ct::Rng rng = ct::Rng(seed).fork("predicates");
  std::vector<ix::Predicate> out;
  for (int i = 0; i < n; ++i) {
    ix::Predicate p;
    const auto a = begin + static_cast<std::int64_t>(rng.uniform_u64(span));
    const auto b = begin + static_cast<std::int64_t>(rng.uniform_u64(span));
    p.from = std::min(a, b);
    p.to = std::max(a, b);
    if (rng.uniform() < 0.15) {  // whole-study window
      p.from = begin;
      p.to = meta.periods.op.end;
    }
    if (rng.uniform() < 0.5) {
      p.node = static_cast<std::int32_t>(rng.uniform_u64(meta.node_count));
    }
    if (rng.uniform() < 0.5) {
      p.xid = kXids[rng.uniform_u64(std::size(kXids))];
    }
    out.push_back(p);
  }
  return out;
}

/// Windows that open inside long exposed jobs, so the fold must re-expose
/// them with the window clamp: for each of the `n` longest exposed jobs,
/// `from` falls in the middle of its run and `to` just past its end, with
/// and without a node predicate on one of its nodes.
std::vector<ix::Predicate> make_boundary_corpus(const ix::IndexReader& reader,
                                                std::size_t n) {
  const auto start = reader.job_start();
  const auto end = reader.job_end();
  std::vector<std::uint32_t> longest(reader.job_exposed_pos().begin(),
                                     reader.job_exposed_pos().end());
  std::sort(longest.begin(), longest.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const auto la = end[a] - start[a];
              const auto lb = end[b] - start[b];
              return la != lb ? la > lb : a < b;
            });
  longest.resize(std::min(longest.size(), n));
  std::vector<ix::Predicate> out;
  for (const std::uint32_t j : longest) {
    ix::Predicate p;
    p.from = start[j] + (end[j] - start[j]) / 2;
    p.to = end[j] + 1 + (end[j] - start[j]) / 4;
    out.push_back(p);
    p.node = an::packed_node(reader.job_gpus(j).front());
    out.push_back(p);
    p.xid = 79;
    out.push_back(p);
  }
  return out;
}

std::uint16_t canonical_xid(std::uint16_t xid) {
  if (!gx::is_known(xid)) return xid;
  return gx::to_number(gx::merge_key(static_cast<gx::Code>(xid)));
}

/// Reference count: a naive full scan of the pipeline's coalesced errors,
/// then the same MTBE arithmetic the batch reports use.
ix::CountResult ref_count(const an::DeltaCampaign& campaign,
                          std::uint32_t node_count, const ix::Predicate& p) {
  ix::CountResult out;
  out.window_hours = ct::to_hours(p.to - p.from);
  const std::optional<std::uint16_t> want =
      p.xid.has_value() ? std::optional<std::uint16_t>(canonical_xid(*p.xid))
                        : std::nullopt;
  for (const auto& e : campaign.pipeline().errors()) {
    if (e.time < p.from || e.time >= p.to) continue;
    if (p.node.has_value() && e.gpu.node != *p.node) continue;
    if (want.has_value() && gx::to_number(e.code) != *want) continue;
    ++out.count;
  }
  out.mtbe_system_h = ct::mtbe(out.window_hours, out.count);
  out.mtbe_per_node_h =
      out.mtbe_system_h *
      (p.node.has_value() ? 1.0 : static_cast<double>(node_count));
  return out;
}

/// Reference impact: the batch compute_job_impact over a node-filtered copy
/// of the job table with the predicate window as the analysis period.
an::JobImpact ref_impact(const an::DeltaCampaign& campaign,
                         const ix::Predicate& p, ct::Duration window,
                         an::Attribution attribution) {
  an::JobTable table = campaign.pipeline().jobs();  // spill stays aligned
  if (p.node.has_value()) {
    std::vector<an::JobView> kept;
    for (const auto& j : table.jobs) {
      const auto gpus = table.gpus_of(j);
      if (std::any_of(gpus.begin(), gpus.end(), [&](an::PackedGpu g) {
            return an::packed_node(g) == *p.node;
          })) {
        kept.push_back(j);
      }
    }
    table.jobs = std::move(kept);
  }
  an::JobImpactConfig cfg;
  cfg.window = window;
  cfg.period = {p.from, p.to};
  cfg.attribution = attribution;
  return an::compute_job_impact(table, campaign.pipeline().errors(), cfg);
}

/// Reference availability: filter + sort the pipeline's intervals exactly as
/// the artifact stores them, then the documented fold and formulas.
ix::AvailabilityResult ref_availability(const an::DeltaCampaign& campaign,
                                        const an::AvailabilityStats& avail,
                                        std::uint32_t node_count,
                                        const ix::Predicate& p) {
  struct Row {
    std::int64_t begin;
    std::int32_t node;
    std::int64_t end;
  };
  std::vector<Row> rows;
  for (const auto& u : avail.intervals) {
    const auto node = campaign.topology().node_index(u.host);
    if (!node.has_value()) continue;
    if (u.begin < p.from || u.begin >= p.to) continue;
    if (p.node.has_value() && *node != *p.node) continue;
    rows.push_back({u.begin, *node, u.end});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    if (a.node != b.node) return a.node < b.node;
    return a.end < b.end;
  });
  ix::AvailabilityResult out;
  std::vector<double> durations;
  for (const auto& r : rows) {
    durations.push_back(ct::to_hours(r.end - r.begin));
    out.hours_lost += durations.back();
  }
  out.intervals = durations.size();
  out.mttr_h = ct::summarize(durations).mean;
  // MTTF: the batch aggregate MTBE — compute_error_stats itself over the
  // window's errors (any XID filter deliberately ignored), with the
  // pipeline's outlier config and the window standing in for the op period.
  std::vector<an::CoalescedError> errs;
  for (const auto& e : campaign.pipeline().errors()) {
    if (e.time < p.from || e.time >= p.to) continue;
    if (p.node.has_value() && e.gpu.node != *p.node) continue;
    errs.push_back(e);
  }
  an::StudyPeriods periods;
  periods.pre = {p.from, p.from};
  periods.op = {p.from, p.to};
  an::ErrorStatsConfig cfg;
  cfg.node_count =
      p.node.has_value() ? 1 : static_cast<std::int32_t>(node_count);
  cfg.outlier_share = campaign.pipeline().config().outlier_share;
  cfg.outlier_min = campaign.pipeline().config().outlier_min;
  out.mttf_h =
      an::compute_error_stats(errs, periods, cfg).total.op.mtbe_per_node_h;
  if (!std::isfinite(out.mttf_h) || out.mttf_h <= 0.0 || out.mttr_h < 0.0) {
    out.availability = 1.0;
  } else {
    out.availability = out.mttf_h / (out.mttf_h + out.mttr_h);
  }
  return out;
}

void expect_count_eq(const ix::CountResult& got, const ix::CountResult& want,
                     const ix::Predicate& p, const char* what) {
  SCOPED_TRACE(std::string(what) + " from=" + std::to_string(p.from) +
               " to=" + std::to_string(p.to) +
               (p.node ? " node=" + std::to_string(*p.node) : "") +
               (p.xid ? " xid=" + std::to_string(*p.xid) : ""));
  EXPECT_EQ(got.count, want.count);
  EXPECT_EQ(got.window_hours, want.window_hours);
  // Same arithmetic on the same integers: bitwise equality, inf included.
  EXPECT_TRUE(got.mtbe_system_h == want.mtbe_system_h ||
              (std::isinf(got.mtbe_system_h) && std::isinf(want.mtbe_system_h)))
      << got.mtbe_system_h << " vs " << want.mtbe_system_h;
  EXPECT_TRUE(
      got.mtbe_per_node_h == want.mtbe_per_node_h ||
      (std::isinf(got.mtbe_per_node_h) && std::isinf(want.mtbe_per_node_h)))
      << got.mtbe_per_node_h << " vs " << want.mtbe_per_node_h;
}

void expect_impact_eq(const an::JobImpact& got, const an::JobImpact& want,
                      const ix::Predicate& p) {
  SCOPED_TRACE("impact from=" + std::to_string(p.from) +
               " to=" + std::to_string(p.to) +
               (p.node ? " node=" + std::to_string(*p.node) : "") +
               (p.xid ? " xid=" + std::to_string(*p.xid) : ""));
  EXPECT_EQ(got.jobs_analyzed, want.jobs_analyzed);
  EXPECT_EQ(got.failed_jobs_total, want.failed_jobs_total);
  EXPECT_EQ(got.gpu_failed_jobs, want.gpu_failed_jobs);
  const int want_bit =
      p.xid.has_value()
          ? an::exposure_bit(static_cast<gx::Code>(canonical_xid(*p.xid)))
          : -1;
  std::size_t gi = 0;
  for (std::size_t b = 0; b < want.rows.size(); ++b) {
    if (p.xid.has_value() && static_cast<int>(b) != want_bit) continue;
    ASSERT_LT(gi, got.rows.size());
    const auto& g = got.rows[gi++];
    const auto& w = want.rows[b];
    EXPECT_EQ(g.code, w.code);
    EXPECT_EQ(g.encountering_jobs, w.encountering_jobs);
    EXPECT_EQ(g.failed_jobs, w.failed_jobs);
    EXPECT_EQ(g.failure_probability, w.failure_probability);
    EXPECT_EQ(g.ci.p, w.ci.p);
    EXPECT_EQ(g.ci.lo, w.ci.lo);
    EXPECT_EQ(g.ci.hi, w.ci.hi);
  }
  EXPECT_EQ(gi, got.rows.size());
}

void expect_avail_eq(const ix::AvailabilityResult& got,
                     const ix::AvailabilityResult& want,
                     const ix::Predicate& p) {
  SCOPED_TRACE("availability from=" + std::to_string(p.from) +
               " to=" + std::to_string(p.to) +
               (p.node ? " node=" + std::to_string(*p.node) : ""));
  EXPECT_EQ(got.intervals, want.intervals);
  EXPECT_EQ(got.hours_lost, want.hours_lost);
  EXPECT_EQ(got.mttr_h, want.mttr_h);
  EXPECT_TRUE(got.mttf_h == want.mttf_h ||
              (std::isinf(got.mttf_h) && std::isinf(want.mttf_h)));
  EXPECT_EQ(got.availability, want.availability);
}

}  // namespace

TEST_F(QueryDifferential, CountsMatchNaiveScanOnSeededCorpus) {
  ix::QueryEngine engine(*reader_);
  for (const auto& p : make_corpus(*reader_, 101, 120)) {
    expect_count_eq(engine.count(p),
                    ref_count(*campaign_, reader_->meta().node_count, p), p,
                    "count");
  }
}

TEST_F(QueryDifferential, ImpactMatchesBatchJoinOnSeededCorpus) {
  // At the recorded settings every answer is a fold of the stored masks;
  // the batch join is the oracle.
  obs::MetricsRegistry registry;
  ix::QueryOptions opts;
  opts.metrics = &registry;
  ix::QueryEngine engine(*reader_, opts);
  for (const auto& p : make_corpus(*reader_, 202, 400)) {
    expect_impact_eq(
        engine.impact(p),
        ref_impact(*campaign_, p, engine.effective_window(),
                   engine.node_level() ? an::Attribution::kNodeLevel
                                       : an::Attribution::kGpuLevel),
        p);
  }
  EXPECT_EQ(registry.counter("query.impact.replays").value(), 0u);
}

TEST_F(QueryDifferential, WindowsOpeningInsideExposedJobsReExposeThem) {
  // A job that started before `from` may have seen errors the window
  // clamps away, so its stored masks do not apply.  These windows open in
  // the middle of the longest exposed jobs: the boundary path must run,
  // and still match the batch join.
  obs::MetricsRegistry registry;
  ix::QueryOptions opts;
  opts.metrics = &registry;
  opts.cache_capacity = 0;
  ix::QueryEngine engine(*reader_, opts);
  const auto corpus = make_boundary_corpus(*reader_, 40);
  ASSERT_GE(corpus.size(), 60u);
  for (const auto& p : corpus) {
    expect_impact_eq(engine.impact(p),
                     ref_impact(*campaign_, p, engine.effective_window(),
                                an::Attribution::kGpuLevel),
                     p);
  }
  EXPECT_GE(registry.counter("query.impact.boundary_jobs").value(),
            corpus.size());
  EXPECT_EQ(registry.counter("query.impact.replays").value(), 0u);
}

TEST_F(QueryDifferential, NodeLevelIndexFoldsItsOwnMasks) {
  // An index written at node-level attribution answers node-level Table II
  // from its stored masks, boundary windows included.
  obs::MetricsRegistry registry;
  ix::QueryOptions opts;
  opts.metrics = &registry;
  ix::QueryEngine engine(*node_reader_, opts);
  ASSERT_TRUE(engine.node_level());
  auto corpus = make_corpus(*node_reader_, 808, 120);
  const auto boundary = make_boundary_corpus(*node_reader_, 20);
  corpus.insert(corpus.end(), boundary.begin(), boundary.end());
  for (const auto& p : corpus) {
    expect_impact_eq(engine.impact(p),
                     ref_impact(*campaign_, p, engine.effective_window(),
                                an::Attribution::kNodeLevel),
                     p);
  }
  EXPECT_EQ(registry.counter("query.impact.replays").value(), 0u);
  EXPECT_GT(registry.counter("query.impact.boundary_jobs").value(), 0u);
}

TEST_F(QueryDifferential, NodesOutsideTheTopologyMatchNoJob) {
  const auto node_count =
      static_cast<std::int32_t>(reader_->meta().node_count);
  for (const int window : {-1, 30}) {
    ix::QueryOptions opts;
    opts.attribution_window = window;
    ix::QueryEngine engine(*reader_, opts);
    for (const std::int32_t node : {-1, node_count, node_count + 7}) {
      for (const std::optional<std::uint16_t> xid :
           {std::optional<std::uint16_t>(), std::optional<std::uint16_t>(79)}) {
        ix::Predicate p = engine.whole_period();
        p.node = node;
        p.xid = xid;
        const auto got = engine.impact(p);
        EXPECT_EQ(got.jobs_analyzed, 0u);
        expect_impact_eq(got,
                         ref_impact(*campaign_, p, engine.effective_window(),
                                    an::Attribution::kGpuLevel),
                         p);
      }
    }
  }
}

TEST_F(QueryDifferential, NodeLevelAttributionAlsoMatches) {
  obs::MetricsRegistry registry;
  ix::QueryOptions opts;
  opts.attribution = 1;  // override the recorded device-level setting
  opts.metrics = &registry;
  ix::QueryEngine engine(*reader_, opts);
  const auto corpus = make_corpus(*reader_, 303, 15);
  for (const auto& p : corpus) {
    expect_impact_eq(engine.impact(p),
                     ref_impact(*campaign_, p, engine.effective_window(),
                                an::Attribution::kNodeLevel),
                     p);
  }
  // An overridden attribution cannot use the stored masks: every miss
  // replays the join.
  EXPECT_EQ(registry.counter("query.impact.replays").value(),
            registry.counter("query.cache.misses").value());
  EXPECT_GT(registry.counter("query.impact.replays").value(), 0u);
}

TEST_F(QueryDifferential, WindowOverridesReplayTheJoin) {
  // --window overrides, alone and with --node-level, on both indexes.
  for (const auto* reader : {reader_, node_reader_}) {
    for (const int attribution : {-1, 0, 1}) {
      obs::MetricsRegistry registry;
      ix::QueryOptions opts;
      opts.attribution_window = 30;
      opts.attribution = attribution;
      opts.metrics = &registry;
      ix::QueryEngine engine(*reader, opts);
      ASSERT_EQ(engine.effective_window(), 30);
      auto corpus = make_corpus(*reader, 909, 12);
      const auto boundary = make_boundary_corpus(*reader, 4);
      corpus.insert(corpus.end(), boundary.begin(), boundary.end());
      for (const auto& p : corpus) {
        expect_impact_eq(engine.impact(p),
                         ref_impact(*campaign_, p, 30,
                                    engine.node_level()
                                        ? an::Attribution::kNodeLevel
                                        : an::Attribution::kGpuLevel),
                         p);
      }
      EXPECT_GT(registry.counter("query.impact.replays").value(), 0u);
      EXPECT_EQ(registry.counter("query.impact.boundary_jobs").value(), 0u);
    }
  }
}

TEST_F(QueryDifferential, AvailabilityMatchesPipelineOnSeededCorpus) {
  ix::QueryEngine engine(*reader_);
  for (const auto& p : make_corpus(*reader_, 404, 120)) {
    expect_avail_eq(
        engine.availability(p),
        ref_availability(*campaign_, *avail_, reader_->meta().node_count, p),
        p);
  }
}

TEST_F(QueryDifferential, WholePeriodAvailabilityMatchesFig2) {
  // The headline number: the whole-op-period query must reproduce the
  // pipeline's §V-C availability computation exactly.
  ix::QueryEngine engine(*reader_);
  ix::Predicate p;
  p.from = reader_->meta().periods.op.begin;
  p.to = reader_->meta().periods.op.end;
  const auto got = engine.availability(p);
  const double mttf = campaign_->pipeline().mttf_estimate_h();
  EXPECT_EQ(got.availability, avail_->availability(mttf));
  EXPECT_EQ(got.mttr_h, avail_->mttr_h);
  EXPECT_EQ(got.mttf_h, mttf);
}

TEST_F(QueryDifferential, CacheOnAndOffAgreeBitwise) {
  ix::QueryOptions cached_opts;
  cached_opts.cache_capacity = 8;  // small: forces evictions mid-corpus
  ix::QueryOptions uncached_opts;
  uncached_opts.cache_capacity = 0;
  ix::QueryEngine cached(*reader_, cached_opts);
  ix::QueryEngine uncached(*reader_, uncached_opts);

  const auto corpus = make_corpus(*reader_, 505, 30);
  for (int pass = 0; pass < 2; ++pass) {  // second pass hits the cache
    for (const auto& p : corpus) {
      expect_count_eq(cached.count(p), uncached.count(p), p, "count");
      expect_avail_eq(cached.availability(p), uncached.availability(p), p);
      const auto a = cached.impact(p);
      const auto b = uncached.impact(p);
      EXPECT_EQ(a.jobs_analyzed, b.jobs_analyzed);
      EXPECT_EQ(a.gpu_failed_jobs, b.gpu_failed_jobs);
      ASSERT_EQ(a.rows.size(), b.rows.size());
      for (std::size_t i = 0; i < a.rows.size(); ++i) {
        EXPECT_EQ(a.rows[i].encountering_jobs, b.rows[i].encountering_jobs);
        EXPECT_EQ(a.rows[i].failed_jobs, b.rows[i].failed_jobs);
        EXPECT_EQ(a.rows[i].failure_probability, b.rows[i].failure_probability);
        EXPECT_EQ(a.rows[i].ci.lo, b.rows[i].ci.lo);
        EXPECT_EQ(a.rows[i].ci.hi, b.rows[i].ci.hi);
      }
    }
  }
  // The sequential sweep above legitimately never revisits an entry before
  // the 8-slot LRU evicts it; an immediate repeat is the guaranteed hit.
  const auto misses_before = cached.cache_misses();
  const auto first = cached.count(corpus.front());
  expect_count_eq(cached.count(corpus.front()), first, corpus.front(),
                  "repeat");
  EXPECT_GT(cached.cache_hits(), 0u);
  EXPECT_EQ(cached.cache_misses(), misses_before + 1);
  EXPECT_EQ(uncached.cache_hits(), 0u);
}

TEST_F(QueryDifferential, FourConcurrentReadersAgreeWithSerialAnswers) {
  // One shared engine (shared cache, shared mapping), four threads asking
  // the same corpus in different orders; every answer must equal the serial
  // reference computed up front.
  const auto corpus = make_corpus(*reader_, 606, 40);
  std::vector<ix::CountResult> want_counts;
  std::vector<ix::AvailabilityResult> want_avail;
  for (const auto& p : corpus) {
    want_counts.push_back(
        ref_count(*campaign_, reader_->meta().node_count, p));
    want_avail.push_back(ref_availability(*campaign_, *avail_,
                                          reader_->meta().node_count, p));
  }

  ix::QueryEngine engine(*reader_);
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < corpus.size(); ++k) {
        // Stagger the order per thread so hits and misses interleave.
        const std::size_t i = (k + static_cast<std::size_t>(t) * 7) %
                              corpus.size();
        const auto c = engine.count(corpus[i]);
        const auto v = engine.availability(corpus[i]);
        if (c.count != want_counts[i].count ||
            c.mtbe_per_node_h != want_counts[i].mtbe_per_node_h) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
        if (v.intervals != want_avail[i].intervals ||
            v.availability != want_avail[i].availability) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_EQ(engine.cache_hits() + engine.cache_misses(),
            4u * corpus.size() * 2u);
}

TEST_F(QueryDifferential, MetricsRegistryObservesCallsWithoutChangingResults) {
  obs::MetricsRegistry registry;
  ix::QueryOptions opts;
  opts.metrics = &registry;
  ix::QueryEngine with_metrics(*reader_, opts);
  ix::QueryEngine without(*reader_);
  const auto corpus = make_corpus(*reader_, 707, 10);
  for (const auto& p : corpus) {
    expect_count_eq(with_metrics.count(p), without.count(p), p, "count");
  }
  EXPECT_EQ(registry.counter("query.calls.count").value(), corpus.size());
  EXPECT_EQ(registry.counter("query.cache.hits").value() +
                registry.counter("query.cache.misses").value(),
            corpus.size());
}

TEST(QueryAvailability, OutlierThresholdsAreInclusiveLikeErrorStats) {
  // Availability's MTTF folds counts instead of rebuilding errors, so the
  // outlier edges must match compute_error_stats exactly: a GPU holding
  // exactly outlier_min errors, or exactly outlier_share of its code's
  // window count, is an outlier.  Two GPUs share XID 95 evenly (both
  // outliers over the whole span), one has three MMU errors (below the
  // minimum), and RRE/RRF rows feed the derived row.
  const gpures::cluster::Topology topo(
      gpures::cluster::ClusterSpec::small(4, 0));
  const auto t0 = ct::make_date(2023, 3, 1);
  std::vector<an::CoalescedError> errors;
  const auto add = [&](std::int64_t h, gx::GpuId gpu, gx::Code code) {
    an::CoalescedError e;
    e.time = t0 + h * ct::kHour;
    e.last = e.time;
    e.gpu = gpu;
    e.code = code;
    e.raw_xid = gx::to_number(code);
    errors.push_back(e);
  };
  for (int i = 0; i < 4; ++i) {
    add(10 * i, {0, 0}, gx::Code::kUncontainedEccError);
    add(10 * i + 5, {1, 1}, gx::Code::kUncontainedEccError);
  }
  for (int i = 0; i < 3; ++i) add(7 * i + 2, {2, 0}, gx::Code::kMmuError);
  add(3, {3, 2}, gx::Code::kRowRemapEvent);
  add(33, {3, 2}, gx::Code::kRowRemapFailure);
  std::sort(errors.begin(), errors.end(),
            [](const auto& a, const auto& b) { return a.time < b.time; });

  const an::JobTable jobs;
  const std::vector<an::Unavailability> unavail;
  ix::IndexBuildInput in;
  in.periods = an::StudyPeriods::make(t0, t0 + 24 * ct::kHour,
                                      t0 + 30 * ct::kDay);
  in.outlier_share = 0.5;
  in.outlier_min = 4;
  in.topo = &topo;
  in.errors = &errors;
  in.jobs = &jobs;
  in.unavailability = &unavail;
  const auto path = fs::temp_directory_path() /
                    ("gpures_avail_edges." + std::to_string(::getpid()));
  ASSERT_TRUE(ix::write_index(in, path.string()).ok());
  auto reader = ix::IndexReader::open(path.string());
  ASSERT_TRUE(reader.ok()) << reader.error().message;
  ix::QueryEngine engine(reader.value());

  std::size_t outlier_windows = 0;
  for (const std::int64_t from_h : {0, 1, 6, 11}) {
    for (const std::int64_t to_h : {16, 31, 36, 48}) {
      for (const std::optional<std::int32_t> node :
           {std::optional<std::int32_t>(), std::optional<std::int32_t>(0),
            std::optional<std::int32_t>(3)}) {
        ix::Predicate p;
        p.from = t0 + from_h * ct::kHour;
        p.to = t0 + to_h * ct::kHour;
        p.node = node;
        std::vector<an::CoalescedError> window;
        for (const auto& e : errors) {
          if (e.time < p.from || e.time >= p.to) continue;
          if (node.has_value() && e.gpu.node != *node) continue;
          window.push_back(e);
        }
        an::StudyPeriods periods;
        periods.pre = {p.from, p.from};
        periods.op = {p.from, p.to};
        an::ErrorStatsConfig cfg;
        cfg.node_count = node.has_value() ? 1 : topo.node_count();
        cfg.outlier_share = in.outlier_share;
        cfg.outlier_min = in.outlier_min;
        const auto stats = an::compute_error_stats(window, periods, cfg);
        outlier_windows += stats.outliers.empty() ? 0 : 1;
        const double want = stats.total.op.mtbe_per_node_h;
        const double got = engine.availability(p).mttf_h;
        EXPECT_TRUE(got == want || (std::isinf(got) && std::isinf(want)))
            << "from +" << from_h << "h to +" << to_h << "h node "
            << (node ? std::to_string(*node) : "-") << ": " << got << " vs "
            << want;
      }
    }
  }
  EXPECT_GT(outlier_windows, 4u);
  fs::remove_all(path);
}
