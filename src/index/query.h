// Query API over a mapped gpures.idx: counts, MTBE, job-failure
// probability, and availability for arbitrary node / XID / time-window
// predicates, without re-running the pipeline.
//
// Semantics are the batch pipeline's, re-executed over the mapped columns
// with identical arithmetic — the differential suite
// (tests/test_index_query_differential.cpp) holds every answer bit-equal to
// the same statistic computed fresh from pipeline outputs:
//
//  * count/MTBE: coalesced errors with leader time in [from, to) matching
//    the node/XID filters; MTBE = window_hours / count (+inf when clean),
//    per-node MTBE = system MTBE x node count (x1 under a node predicate).
//    An XID predicate is canonicalized through xid::merge_key, so --xid 120
//    counts the merged GSP family exactly like Table I does.
//  * impact: compute_job_impact with period = [from, to), folded by
//    analysis::ImpactTally.  At the recorded window and attribution the
//    fold reads the masks the writer stored (analysis::expose over an
//    unbounded period): a job ending in [from, to) is clamped only below,
//    and only when start + 1 < from, so only those boundary jobs re-run
//    expose with the window clamp, and an unexposed job stays unexposed in
//    every window.  An engine whose window or attribution differs replays
//    the join over every job in the window.  Under a node predicate only
//    jobs allocated on that node participate.
//  * availability: stored unavailability intervals with drain time in
//    [from, to) (and on the node, if given); MTTR is their summarize() mean,
//    MTTF is the aggregate per-node MTBE over the same node/time predicate —
//    computed by compute_error_stats itself over errors rebuilt from the
//    columns, with the recorded ErrorStatsConfig (outlier exclusion, derived
//    uncorrectable-ECC row), so a [op.begin, op.end) query reproduces the
//    batch mttf_estimate_h / Fig. 2 bitwise — and availability =
//    MTTF / (MTTF + MTTR) with the pipeline's guards.  An XID filter
//    deliberately does not narrow the MTTF.
//
// Results are cached in a small LRU keyed by the full predicate; cached and
// uncached answers are identical by construction (queries are pure functions
// of the immutable mapping), which the differential suite also asserts.
// The engine is safe for concurrent callers sharing one reader.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "analysis/job_impact.h"
#include "common/time.h"
#include "index/reader.h"
#include "obs/metrics.h"
#include "xid/xid.h"

namespace gpures::index {

/// What to select.  `from`/`to` bound the leader-time window [from, to).
struct Predicate {
  std::optional<std::int32_t> node;  ///< topology node index
  std::optional<std::uint16_t> xid; ///< raw XID; canonicalized via merge_key
  common::TimePoint from = 0;
  common::TimePoint to = 0;
};

struct CountResult {
  std::uint64_t count = 0;
  double window_hours = 0.0;
  double mtbe_system_h = 0.0;
  double mtbe_per_node_h = 0.0;
};

struct AvailabilityResult {
  std::uint64_t intervals = 0;
  double hours_lost = 0.0;
  double mttr_h = 0.0;
  double mttf_h = 0.0;
  double availability = 1.0;
};

struct QueryOptions {
  /// LRU capacity in cached results; 0 disables caching entirely.
  std::size_t cache_capacity = 64;
  /// Attribution window in seconds; negative means "as recorded at write
  /// time" (IndexMeta::attribution_window).
  common::Duration attribution_window = -1;
  /// -1: as recorded; 0: device-level; 1: node-level.
  int attribution = -1;
  /// Optional sink for query.* metrics (per-op latency histograms under
  /// `query.latency_us{op=...}`, cache hit/miss/eviction counters, per-verb
  /// call counts, impact replays and boundary jobs).  Never affects results.
  obs::MetricsRegistry* metrics = nullptr;
  /// Log queries slower than this many microseconds as warn records on the
  /// installed obs::Logger (op, latency, predicate key, cache outcome).
  /// 0 disables the slow-query log.  Diagnostics only — never affects
  /// results.
  double slow_query_us = 0.0;
};

class QueryEngine {
 public:
  explicit QueryEngine(const IndexReader& reader, QueryOptions opts = {});

  CountResult count(const Predicate& p);
  /// Table II over the jobs ending in [from, to): analysis::compute_job_impact
  /// with that window as the period.  Under an XID filter the rows are
  /// restricted to its family (none for a non-family XID).
  analysis::JobImpact impact(const Predicate& p);
  AvailabilityResult availability(const Predicate& p);

  /// Predicate spanning the whole recorded study window.
  Predicate whole_period() const;

  std::uint64_t cache_hits() const { return cache_hits_.value(); }
  std::uint64_t cache_misses() const { return cache_misses_.value(); }

  common::Duration effective_window() const { return window_; }
  bool node_level() const { return node_level_; }

 private:
  using Cached =
      std::variant<CountResult, analysis::JobImpact, AvailabilityResult>;

  CountResult compute_count(const Predicate& p) const;
  analysis::JobImpact compute_impact(const Predicate& p) const;
  AvailabilityResult compute_availability(const Predicate& p) const;
  /// Batch-total MTBE (compute_error_stats' aggregate, folded over the
  /// window's columns) used as the availability MTTF; ignores any XID
  /// filter on `p`.
  double aggregate_mtbe_per_node_h(const Predicate& p) const;

  /// Look up `key`; on miss, compute() runs outside the lock (possibly
  /// concurrently with an identical miss — results are pure, so the race is
  /// benign) and the result is inserted.  `op` names the verb for the
  /// latency histogram and the slow-query log.
  template <typename T, typename Fn>
  T cached(const char* op, obs::Histogram* latency, const std::string& key,
           Fn&& compute);

  const IndexReader& reader_;
  common::Duration window_;
  bool node_level_;
  /// Window and attribution equal the recorded ones: impact folds the
  /// stored masks instead of replaying the join.
  bool recorded_;
  std::size_t capacity_;
  double slow_query_us_;

  std::mutex mu_;
  std::list<std::pair<std::string, Cached>> lru_;  ///< front = most recent
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, Cached>>::iterator>
      map_;
  obs::Counter cache_hits_;
  obs::Counter cache_misses_;

  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_count_calls_ = nullptr;
  obs::Counter* m_impact_calls_ = nullptr;
  obs::Counter* m_avail_calls_ = nullptr;
  obs::Counter* m_impact_replays_ = nullptr;
  obs::Counter* m_impact_boundary_jobs_ = nullptr;
  /// Per-op children of `query.latency_us{op=...}`.
  obs::Histogram* m_latency_count_ = nullptr;
  obs::Histogram* m_latency_impact_ = nullptr;
  obs::Histogram* m_latency_avail_ = nullptr;
};

}  // namespace gpures::index
