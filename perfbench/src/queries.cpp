#include "queries.h"

#include <algorithm>
#include <array>

#include "bench.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/time.h"
#include "obs/trace.h"

namespace perfbench {

namespace idx = gpures::index;
using gpures::common::kDay;

const char* to_string(QueryOp op) {
  switch (op) {
    case QueryOp::kCount:
      return "count";
    case QueryOp::kImpact:
      return "impact";
    case QueryOp::kAvailability:
      return "availability";
  }
  return "?";
}

namespace {

/// Calls per 1,000 for each (op, window) class; a window of 0 days is the
/// whole recorded study.  The 20 whole-period impact calls per 1,000 are
/// the latency tail, so p99 lands inside that class on every seed.
struct Stratum {
  QueryOp op;
  std::int64_t days;
  std::size_t per_mille;
};
constexpr std::array<Stratum, 12> kStrata = {{
    {QueryOp::kCount, 1, 160},
    {QueryOp::kCount, 7, 140},
    {QueryOp::kCount, 30, 100},
    {QueryOp::kCount, 0, 40},
    {QueryOp::kAvailability, 1, 100},
    {QueryOp::kAvailability, 7, 80},
    {QueryOp::kAvailability, 30, 50},
    {QueryOp::kAvailability, 0, 20},
    {QueryOp::kImpact, 1, 140},
    {QueryOp::kImpact, 7, 100},
    {QueryOp::kImpact, 30, 50},
    {QueryOp::kImpact, 0, 20},
}};

/// Raw XIDs the predicates filter on (the paper's reported families plus
/// a few that only count).
constexpr std::array<std::uint16_t, 12> kXids = {13, 31, 43, 48, 63, 64,
                                                 74, 79, 94, 95, 119, 120};

void mix(std::uint64_t& h, const void* p, std::size_t n) {
  h = gpures::common::xxhash64(p, n, h);
}
template <typename T>
void mix(std::uint64_t& h, T v) {
  mix(h, &v, sizeof v);
}

}  // namespace

std::vector<Query> make_query_set(const idx::IndexReader& reader,
                                  std::uint64_t seed, std::size_t n) {
  gpures::common::Rng rng(seed ^ 0x7065726662656e63ull);
  const auto whole = reader.meta().periods.whole();
  const auto nodes = static_cast<std::int64_t>(reader.meta().node_count);

  // Within each stratum, the k-th call filters on a node when k is odd and
  // on an XID when k % 3 == 0, and in windowed strata call 7j+6 repeats
  // call 7j+5 right after it (a cache hit).  Window starts and filtered
  // nodes are evenly spaced over the study and the fleet, and XIDs cycle
  // through kXids, each from an offset drawn from the seed: a call's cost
  // depends on which nodes, XIDs and days it covers, and independent draws
  // made a round's time vary by seed by as much as 15%.
  std::vector<std::vector<Query>> units;
  for (const auto& s : kStrata) {
    const auto calls = static_cast<std::int64_t>(n * s.per_mille / 1000);
    const std::int64_t len = s.days * kDay;
    const std::int64_t starts =
        std::max<std::int64_t>(1, (whole.end - whole.begin - len) / kDay);
    const std::int64_t start0 = rng.uniform_int(0, starts - 1);
    const std::int64_t node0 = nodes > 0 ? rng.uniform_int(0, nodes - 1) : 0;
    const std::uint64_t xid0 = rng.uniform_u64(kXids.size());
    for (std::int64_t k = 0; k < calls; ++k) {
      if (s.days > 0 && k % 7 == 6) {
        units.back().push_back(units.back().front());
        continue;
      }
      Query q;
      q.op = s.op;
      q.pred.from = whole.begin;
      q.pred.to = whole.end;
      if (s.days > 0) {
        q.pred.from += (start0 + k * starts / calls) % starts * kDay;
        q.pred.to = std::min(q.pred.from + len, whole.end);
      }
      if (nodes > 0 && k % 2 == 1) {
        q.pred.node = static_cast<std::int32_t>(
            (node0 + k / 2 * nodes / std::max<std::int64_t>(1, calls / 2)) % nodes);
      }
      if (k % 3 == 0) q.pred.xid = kXids[(xid0 + k / 3) % kXids.size()];
      units.push_back({q});
    }
  }
  rng.shuffle(units);
  std::vector<Query> set;
  set.reserve(n);
  for (const auto& unit : units) set.insert(set.end(), unit.begin(), unit.end());
  return set;
}

QueryRound run_query_round(const idx::IndexReader& reader,
                           const std::vector<Query>& set, bool traced) {
  QueryRound r;
  for (auto& v : r.latency_us) v.reserve(set.size());
  std::uint64_t h = 0;
  const Stopwatch wall;
  idx::QueryEngine engine(reader);
  for (const Query& q : set) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      gpures::obs::ScopedSpan span(
          traced ? (q.op == QueryOp::kCount    ? "pb:query.count"
                    : q.op == QueryOp::kImpact ? "pb:query.impact"
                                               : "pb:query.availability")
                 : "",
          traced ? gpures::obs::Tracer::current() : nullptr);
      switch (q.op) {
        case QueryOp::kCount: {
          const auto a = engine.count(q.pred);
          mix(h, a.count);
          mix(h, a.window_hours);
          mix(h, a.mtbe_system_h);
          mix(h, a.mtbe_per_node_h);
          break;
        }
        case QueryOp::kImpact: {
          const auto a = engine.impact(q.pred);
          mix(h, a.jobs_analyzed);
          mix(h, a.failed_jobs_total);
          mix(h, a.gpu_failed_jobs);
          for (const auto& row : a.rows) {
            mix(h, static_cast<std::uint32_t>(row.code));
            mix(h, row.failed_jobs);
            mix(h, row.encountering_jobs);
            mix(h, row.failure_probability);
            mix(h, row.ci.p);
            mix(h, row.ci.lo);
            mix(h, row.ci.hi);
          }
          break;
        }
        case QueryOp::kAvailability: {
          const auto a = engine.availability(q.pred);
          mix(h, a.intervals);
          mix(h, a.hours_lost);
          mix(h, a.mttr_h);
          mix(h, a.mttf_h);
          mix(h, a.availability);
          break;
        }
      }
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    r.latency_us[static_cast<int>(q.op)].push_back(us);
  }
  r.wall_s = wall.seconds();
  r.answer_hash = h;
  r.cache_hits = engine.cache_hits();
  r.cache_misses = engine.cache_misses();
  return r;
}

}  // namespace perfbench
