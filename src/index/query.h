// Query API over a mapped gpures.idx: counts, MTBE, job-failure
// probability, and availability for arbitrary node / XID / time-window
// predicates, without re-running the pipeline.
//
// Semantics are the batch pipeline's: each answer folds the mapped columns
// through the same analysis routine batch uses (analysis::period_stats,
// ImpactTally, tally_errors, availability), and the differential suite
// (tests/test_index_query_differential.cpp) holds every answer bit-equal to
// the same statistic computed fresh from pipeline outputs:
//
//  * count/MTBE: coalesced errors with leader time in [from, to) matching
//    the node/XID filters; the MTBE pair is Table I's period_stats cell
//    (+inf when clean) over all nodes, or one under a node predicate.  An
//    XID predicate is canonicalized through xid::merge_key, so --xid 120
//    counts the merged GSP family exactly like Table I does.
//  * impact: Table II over the jobs ending in [from, to).  At the recorded
//    window and attribution it is analysis::fold_pass over the stored
//    exposure-pass columns, the fold batch runs over the operational
//    period: boundary jobs re-expose with the window clamp
//    (analysis::masks_in_period), and an unexposed job stays unexposed in
//    every window.  An engine whose window or attribution differs replays
//    the join over every job in the window.  Under a node predicate only
//    jobs allocated on that node participate.
//  * availability: stored unavailability intervals with drain time in
//    [from, to) (and on the node, if given); MTTR is their summarize() mean,
//    MTTF is Table I's aggregate per-node MTBE (tally_errors' total at the
//    recorded outlier config) over the same node/time predicate, so a
//    [op.begin, op.end) query reproduces the batch mttf_estimate_h and
//    Fig. 2 bitwise.  An XID filter deliberately does not narrow the MTTF.
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
