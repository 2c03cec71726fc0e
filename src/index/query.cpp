#include "index/query.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>

#include "analysis/job_impact.h"
#include "analysis/job_stats.h"
#include "common/stats.h"
#include "index/format.h"
#include "obs/log.h"
#include "slurm/job.h"

namespace gpures::index {

namespace {

/// Canonical stored code for a raw XID predicate: reported families are
/// merged exactly like Stage II does (120 -> 119, 123 -> 122), everything
/// else passes through (and matches only if stored verbatim).
std::uint16_t canonical_xid(std::uint16_t xid) {
  if (!xid::is_known(xid)) return xid;
  return xid::to_number(xid::merge_key(static_cast<xid::Code>(xid)));
}

std::size_t lower_idx(std::span<const std::int64_t> v, std::int64_t t) {
  return static_cast<std::size_t>(
      std::lower_bound(v.begin(), v.end(), t) - v.begin());
}

std::size_t lower_pos(std::span<const std::uint32_t> v, std::size_t pos) {
  return static_cast<std::size_t>(
      std::lower_bound(v.begin(), v.end(), pos) - v.begin());
}

/// First position in [g, end) of `list` holding a GPU of the node whose
/// first packed key is `key_lo`, or `end`.  Blocks without a match are
/// skipped whole, with a branch-free test the compiler can vectorize.
std::uint64_t next_on_node(std::span<const std::int32_t> list, std::uint64_t g,
                           std::uint64_t end, std::int32_t key_lo) {
  const auto on_node = [key_lo](std::int32_t key) {
    return static_cast<std::uint32_t>(key - key_lo) <= 0xffu;
  };
  constexpr std::uint64_t kBlock = 32;
  for (; g + kBlock <= end; g += kBlock) {
    unsigned any = 0;
    for (std::uint64_t i = 0; i < kBlock; ++i) any |= on_node(list[g + i]);
    if (any != 0) break;
  }
  while (g < end && !on_node(list[g])) ++g;
  return g;
}

/// The job in [from, hi) whose GPU-list range holds position g, given
/// offs[from] <= g < offs[hi]: a galloping search forward from `from`.
std::size_t owner_of(std::span<const std::uint64_t> offs, std::size_t from,
                     std::size_t hi, std::uint64_t g) {
  std::size_t step = 1;
  while (from + step < hi && offs[from + step] <= g) {
    from += step;
    step *= 2;
  }
  const std::size_t top = std::min(from + step, hi);  // offs[top] > g
  return static_cast<std::size_t>(
      std::upper_bound(offs.begin() + from + 1, offs.begin() + top + 1, g) -
      offs.begin() - 1);
}

std::string key_of(std::string_view verb, const Predicate& p) {
  std::string k(verb);
  k += '|';
  if (p.node.has_value()) k += std::to_string(*p.node);
  k += '|';
  if (p.xid.has_value()) k += std::to_string(*p.xid);
  k += '|';
  k += std::to_string(p.from);
  k += '|';
  k += std::to_string(p.to);
  return k;
}

}  // namespace

QueryEngine::QueryEngine(const IndexReader& reader, QueryOptions opts)
    : reader_(reader),
      window_(opts.attribution_window >= 0 ? opts.attribution_window
                                           : reader.meta().attribution_window),
      node_level_(opts.attribution >= 0 ? opts.attribution == 1
                                        : reader.meta().attribution == 1),
      recorded_(window_ == reader.meta().attribution_window &&
                node_level_ == (reader.meta().attribution == 1)),
      capacity_(opts.cache_capacity),
      slow_query_us_(opts.slow_query_us) {
  if (opts.metrics != nullptr) {
    auto& reg = *opts.metrics;
    reg.describe("query.cache.hits", "Query LRU cache hits", "queries");
    reg.describe("query.cache.misses", "Query LRU cache misses", "queries");
    reg.describe("query.cache.evictions",
                 "Query results evicted from the LRU cache", "queries");
    reg.describe("query.latency_us", "End-to-end query latency by verb", "us");
    reg.describe("query.impact.replays",
                 "Impact queries that re-ran the exposure join because the "
                 "window or attribution differs from the recorded one",
                 "queries");
    reg.describe("query.impact.boundary_jobs",
                 "Jobs re-exposed by impact queries because they started "
                 "before the query window",
                 "jobs");
    m_hits_ = &reg.counter("query.cache.hits");
    m_misses_ = &reg.counter("query.cache.misses");
    m_evictions_ = &reg.counter("query.cache.evictions");
    m_count_calls_ = &reg.counter("query.calls.count");
    m_impact_calls_ = &reg.counter("query.calls.impact");
    m_avail_calls_ = &reg.counter("query.calls.availability");
    m_impact_replays_ = &reg.counter("query.impact.replays");
    m_impact_boundary_jobs_ = &reg.counter("query.impact.boundary_jobs");
    m_latency_count_ = &reg.histogram("query.latency_us", {{"op", "count"}},
                                      obs::latency_buckets_us());
    m_latency_impact_ = &reg.histogram("query.latency_us", {{"op", "impact"}},
                                       obs::latency_buckets_us());
    m_latency_avail_ =
        &reg.histogram("query.latency_us", {{"op", "availability"}},
                       obs::latency_buckets_us());
  }
}

Predicate QueryEngine::whole_period() const {
  Predicate p;
  p.from = reader_.meta().periods.pre.begin;
  p.to = reader_.meta().periods.op.end;
  return p;
}

template <typename T, typename Fn>
T QueryEngine::cached(const char* op, obs::Histogram* latency,
                      const std::string& key, Fn&& compute) {
  const auto t0 = std::chrono::steady_clock::now();
  bool hit = false;
  const auto observe_latency = [&] {
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (latency != nullptr) latency->observe(us);
    if (slow_query_us_ > 0.0 && us >= slow_query_us_) {
      obs::Logger::current().warn(
          "query", "slow query",
          {{"op", op}, {"latency_us", us}, {"key", key}, {"cached", hit}});
    }
  };
  if (capacity_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      cache_hits_.inc();
      if (m_hits_ != nullptr) m_hits_->inc();
      T out = std::get<T>(it->second->second);
      hit = true;
      observe_latency();
      return out;
    }
  }
  cache_misses_.inc();
  if (m_misses_ != nullptr) m_misses_->inc();
  T out = compute();
  if (capacity_ > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.find(key) == map_.end()) {
      lru_.emplace_front(key, Cached(out));
      map_.emplace(key, lru_.begin());
      while (map_.size() > capacity_) {
        map_.erase(lru_.back().first);
        lru_.pop_back();
        if (m_evictions_ != nullptr) m_evictions_->inc();
      }
    }
  }
  observe_latency();
  return out;
}

CountResult QueryEngine::count(const Predicate& p) {
  if (m_count_calls_ != nullptr) m_count_calls_->inc();
  return cached<CountResult>("count", m_latency_count_, key_of("count", p),
                             [&] { return compute_count(p); });
}

analysis::JobImpact QueryEngine::impact(const Predicate& p) {
  if (m_impact_calls_ != nullptr) m_impact_calls_->inc();
  // The effective window/attribution are fixed per engine, but key them
  // anyway so engines sharing a future external cache could not collide.
  std::string key = key_of("impact", p);
  key += '|';
  key += std::to_string(window_);
  key += node_level_ ? "|n" : "|g";
  return cached<analysis::JobImpact>("impact", m_latency_impact_, key,
                                     [&] { return compute_impact(p); });
}

AvailabilityResult QueryEngine::availability(const Predicate& p) {
  if (m_avail_calls_ != nullptr) m_avail_calls_->inc();
  return cached<AvailabilityResult>("availability", m_latency_avail_,
                                    key_of("avail", p),
                                    [&] { return compute_availability(p); });
}

CountResult QueryEngine::compute_count(const Predicate& p) const {
  CountResult out;
  out.window_hours = common::to_hours(p.to - p.from);

  const auto times = reader_.err_time();
  const auto gpus = reader_.err_gpu();
  const auto codes = reader_.err_code();
  const std::size_t lo = lower_idx(times, p.from);
  const std::size_t hi = lower_idx(times, p.to);
  const std::optional<std::uint16_t> want_code =
      p.xid.has_value() ? std::optional<std::uint16_t>(canonical_xid(*p.xid))
                        : std::nullopt;
  for (std::size_t i = lo; i < hi; ++i) {
    if (p.node.has_value() && analysis::packed_node(gpus[i]) != *p.node) {
      continue;
    }
    if (want_code.has_value() && codes[i] != *want_code) continue;
    ++out.count;
  }
  out.mtbe_system_h = common::mtbe(out.window_hours, out.count);
  const double nodes =
      p.node.has_value() ? 1.0
                         : static_cast<double>(reader_.meta().node_count);
  out.mtbe_per_node_h = out.mtbe_system_h * nodes;
  return out;
}

analysis::JobImpact QueryEngine::compute_impact(const Predicate& p) const {
  analysis::JobImpactConfig cfg;
  cfg.window = window_;
  cfg.period = {p.from, p.to};
  cfg.attribution = node_level_ ? analysis::Attribution::kNodeLevel
                                : analysis::Attribution::kGpuLevel;

  const auto job_end = reader_.job_end();
  const auto job_start = reader_.job_start();
  const auto job_state = reader_.job_state();
  const std::size_t lo = lower_idx(job_end, p.from);
  const std::size_t hi = std::max(lo, lower_idx(job_end, p.to));
  const auto state_of = [&](std::size_t idx) {
    return static_cast<slurm::JobState>(job_state[idx]);
  };
  std::vector<std::int32_t> node_scratch;
  const auto replay = [&](std::size_t idx) {
    return analysis::expose(reader_.error_index(), job_start[idx],
                            job_end[idx], reader_.job_gpus(idx), cfg,
                            node_scratch);
  };
  // Job `idx`'s masks in this window, for ascending `idx`.  At the recorded
  // settings a job ending in [from, to) is clamped only below, and only when
  // start + 1 < from: such a boundary job re-runs expose with the window
  // clamp; any other job's masks are the stored ones, or zero when the
  // writer found it unexposed.  Otherwise the stored masks do not apply and
  // every job replays the join.
  const auto xpos = reader_.job_exposed_pos();
  const auto xmask = reader_.job_exposed_masks();
  std::size_t k = lower_pos(xpos, lo);
  std::uint64_t boundary = 0;
  const auto masks_at = [&](std::size_t idx) -> analysis::ExposureMasks {
    if (!recorded_) return replay(idx);
    while (k < xpos.size() && xpos[k] < idx) ++k;
    if (k == xpos.size() || xpos[k] != idx) return {};
    if (job_start[idx] + 1 < p.from) {
      ++boundary;
      return replay(idx);
    }
    return {run_mask_of(xmask[k]), window_mask_of(xmask[k])};
  };

  analysis::ImpactTally tally;
  if (p.node.has_value()) {
    // The window's jobs own one contiguous run of the GPU list; scan it for
    // the node's packed-GPU keys and fold each job found once.  Every
    // stored key is on a topology node, so another node matches no job.
    const bool known = *p.node >= 0 && static_cast<std::uint32_t>(*p.node) <
                                           reader_.meta().node_count;
    const std::size_t scan_hi = known ? hi : lo;
    const auto offs = reader_.job_gpu_offsets();
    const auto list = reader_.job_gpu_list();
    const std::int32_t key_lo = known ? analysis::pack_gpu(*p.node, 0) : 0;
    const std::uint64_t g_hi = offs[scan_hi];
    std::size_t idx = lo;  // the job owning the next match is >= idx
    for (std::uint64_t g = next_on_node(list, offs[lo], g_hi, key_lo);
         g < g_hi; g = next_on_node(list, offs[idx], g_hi, key_lo)) {
      idx = owner_of(offs, idx, scan_hi, g);
      tally.add(state_of(idx), masks_at(idx));
      ++idx;
    }
  } else if (!recorded_) {
    for (std::size_t idx = lo; idx < hi; ++idx) {
      tally.add(state_of(idx), masks_at(idx));
    }
  } else {
    // Only exposed jobs can touch a row; the totals count every job.
    for (std::size_t x = k, x_hi = lower_pos(xpos, hi); x < x_hi; ++x) {
      tally.add(state_of(xpos[x]), masks_at(xpos[x]));
    }
    const auto fpos = reader_.job_failed_pos();
    tally.jobs_analyzed = hi - lo;
    tally.failed_jobs_total = lower_pos(fpos, hi) - lower_pos(fpos, lo);
  }
  if (!recorded_ && m_impact_replays_ != nullptr) m_impact_replays_->inc();
  if (m_impact_boundary_jobs_ != nullptr) {
    m_impact_boundary_jobs_->add(boundary);
  }

  auto out = tally.finish(cfg);
  if (p.xid.has_value()) {
    const int bit = analysis::exposure_bit(
        static_cast<xid::Code>(canonical_xid(*p.xid)));
    std::vector<analysis::ImpactRow> rows;
    if (bit >= 0) rows.push_back(out.rows[static_cast<std::size_t>(bit)]);
    out.rows = std::move(rows);
  }
  return out;
}

double QueryEngine::aggregate_mtbe_per_node_h(const Predicate& p) const {
  const auto times = reader_.err_time();
  const auto gpus = reader_.err_gpu();
  const auto codes = reader_.err_code();
  const std::size_t lo = lower_idx(times, p.from);
  const std::size_t hi = std::max(lo, lower_idx(times, p.to));
  const auto in_scope = [&](std::size_t i) {
    return !p.node.has_value() || analysis::packed_node(gpus[i]) == *p.node;
  };

  // compute_error_stats' aggregate with the window as the operational
  // period, counted instead of rebuilt: every tracked code's window count,
  // minus its outlier GPUs' errors, plus the derived RRE + RRF row once
  // more.  Tracked codes are all below 128.
  std::array<std::uint64_t, 128> count{};
  for (std::size_t i = lo; i < hi; ++i) {
    if (in_scope(i) && codes[i] < count.size()) ++count[codes[i]];
  }
  const auto& meta = reader_.meta();
  std::uint64_t total =
      count[xid::to_number(xid::Code::kRowRemapEvent)] +
      count[xid::to_number(xid::Code::kRowRemapFailure)];
  std::vector<std::int32_t> keys;
  for (std::uint16_t c = 0; c < count.size(); ++c) {
    if (count[c] == 0 || !xid::is_known(c)) continue;
    std::uint64_t kept = count[c];
    // A GPU needs outlier_min errors of the code to be its outlier, so only
    // a code that reaches it needs per-GPU counts.
    if (meta.exclude_outliers_from_totals && count[c] >= meta.outlier_min) {
      keys.clear();
      for (std::size_t i = lo; i < hi; ++i) {
        if (codes[i] == c && in_scope(i)) keys.push_back(gpus[i]);
      }
      std::sort(keys.begin(), keys.end());
      std::uint64_t outliers = 0;
      for (std::size_t a = 0, b = 0; a < keys.size(); a = b) {
        while (b < keys.size() && keys[b] == keys[a]) ++b;
        const std::uint64_t n = b - a;
        if (n >= meta.outlier_min &&
            static_cast<double>(n) / static_cast<double>(count[c]) >=
                meta.outlier_share) {
          outliers += n;
        }
      }
      kept -= std::min(kept, outliers);
    }
    total += kept;
  }
  const double node_count =
      p.node.has_value() ? 1.0 : static_cast<double>(meta.node_count);
  return common::mtbe(common::to_hours(p.to - p.from), total) * node_count;
}

AvailabilityResult QueryEngine::compute_availability(const Predicate& p) const {
  AvailabilityResult out;
  const auto begins = reader_.unavail_begin();
  const auto ends = reader_.unavail_end();
  const auto nodes = reader_.unavail_node();
  const std::size_t lo = lower_idx(begins, p.from);
  const std::size_t hi = lower_idx(begins, p.to);

  // Fold in stored (begin, node, end) order; the differential reference
  // reproduces this exact accumulation sequence.
  std::vector<double> durations;
  for (std::size_t i = lo; i < hi; ++i) {
    if (p.node.has_value() && nodes[i] != *p.node) continue;
    const double h = common::to_hours(ends[i] - begins[i]);
    durations.push_back(h);
    out.hours_lost += h;
  }
  out.intervals = durations.size();
  out.mttr_h = common::summarize(durations).mean;

  // MTTF: the aggregate per-node MTBE under the same node/time predicate
  // (the paper's conservative every-error-interrupts-the-node assumption; an
  // XID filter deliberately does not narrow it).  "Aggregate" is the batch
  // pipeline's total — outliers excluded, derived uncorrectable-ECC row
  // double-counted — under the recorded outlier config.
  out.mttf_h = aggregate_mtbe_per_node_h(p);
  if (!std::isfinite(out.mttf_h) || out.mttf_h <= 0.0 || out.mttr_h < 0.0) {
    out.availability = 1.0;
  } else {
    out.availability = out.mttf_h / (out.mttf_h + out.mttr_h);
  }
  return out;
}

}  // namespace gpures::index
