#include "analysis/job_impact.h"

#include <algorithm>
#include <bit>

namespace gpures::analysis {

namespace {

/// Run fn(shard, lo, hi) over contiguous job ranges partitioning
/// [0, total): pool->size() shards on the pool, or one inline shard.  The
/// job -> shard assignment is purely a function of (total, shards), never of
/// thread timing.
template <typename Fn>
void for_each_shard(common::ThreadPool* pool, std::size_t total, Fn&& fn) {
  const std::size_t shards = pool != nullptr ? pool->size() : 1;
  const auto run = [&](std::size_t s) {
    fn(s, total * s / shards, total * (s + 1) / shards);
  };
  if (pool != nullptr) {
    pool->parallel_for(shards, [&](std::size_t s, std::size_t) { run(s); });
  } else {
    run(0);
  }
}

bool gpu_failed(slurm::JobState state, const ExposureMasks& m) {
  return slurm::is_failure(state) && m.window_mask != 0;
}

/// The one batch job loop: every job of the table ending in cfg.period is
/// exposed once and folded into its shard's tally; with `exposures`, jobs
/// that saw an error are also listed.  Per-shard lists concatenate in shard
/// order — shards cover contiguous job ranges, so that is the serial
/// job-index order — and per-shard tallies merge by integer summation.
JobImpact join(const JobTable& table, const ErrorIndexView& index,
               const JobImpactConfig& cfg, common::ThreadPool* pool,
               ExposureJoinStats* stats, std::vector<JobExposure>* exposures) {
  const std::size_t shards = pool != nullptr ? pool->size() : 1;
  std::vector<ImpactTally> tallies(shards);
  std::vector<std::vector<JobExposure>> shard_out(shards);
  for_each_shard(pool, table.jobs.size(),
                 [&](std::size_t s, std::size_t lo, std::size_t hi) {
                   std::vector<std::int32_t> node_scratch;
                   for (std::size_t idx = lo; idx < hi; ++idx) {
                     const auto& j = table.jobs[idx];
                     if (!cfg.period.contains(j.end)) continue;
                     const auto m = expose(index, j.start, j.end,
                                           table.gpus_of(j), cfg, node_scratch);
                     tallies[s].add(j.state, m);
                     if (exposures == nullptr || m.run_mask == 0) continue;
                     shard_out[s].push_back({idx, m.run_mask, m.window_mask,
                                             gpu_failed(j.state, m)});
                   }
                 });

  ImpactTally total;
  for (const auto& t : tallies) total.merge(t);
  if (stats != nullptr) {
    stats->shards.clear();
    for (const auto& t : tallies) {
      stats->shards.push_back({t.jobs_analyzed, t.jobs_exposed});
    }
  }
  if (exposures != nullptr) {
    exposures->clear();
    exposures->reserve(total.jobs_exposed);
    for (const auto& v : shard_out) {
      exposures->insert(exposures->end(), v.begin(), v.end());
    }
  }
  return total.finish(cfg);
}

}  // namespace

const ImpactRow* JobImpact::find(xid::Code code) const {
  for (const auto& r : rows) {
    if (r.code == code) return &r;
  }
  return nullptr;
}

int exposure_bit(xid::Code code) {
  const auto order = xid::report_order();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == code) return static_cast<int>(i);
  }
  return -1;
}

std::uint64_t ExposureJoinStats::total_exposed() const {
  std::uint64_t sum = 0;
  for (const auto& s : shards) sum += s.jobs_exposed;
  return sum;
}

std::pair<std::size_t, std::size_t> ErrorIndexView::key_range(
    std::int64_t key_lo, std::int64_t key_hi) const {
  // A range holds at most one node's GPUs, so walk rather than search the
  // upper end.
  auto it = std::lower_bound(keys.begin(), keys.end(), key_lo);
  const auto lo = static_cast<std::size_t>(it - keys.begin());
  while (it != keys.end() && *it <= key_hi) ++it;
  return {lo, static_cast<std::size_t>(it - keys.begin())};
}

ErrorIndex build_error_index(const std::vector<CoalescedError>& errors,
                             const Period& period) {
  struct Keyed {
    std::int64_t key;
    common::TimePoint time;
    std::uint32_t bit;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(errors.size());
  for (const auto& e : errors) {
    if (!period.contains(e.time)) continue;
    const int bit = exposure_bit(e.code);
    if (bit < 0) continue;
    keyed.push_back({pack_gpu(e.gpu.node, e.gpu.slot), e.time,
                     static_cast<std::uint32_t>(bit)});
  }
  // Full (key, time, bit) order: the per-key groups come out time-sorted and
  // the build is deterministic for any input order.  Masks OR over a time
  // range, so tie order inside a group cannot change any downstream value.
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.time != b.time) return a.time < b.time;
    return a.bit < b.bit;
  });

  ErrorIndex index;
  index.time.reserve(keyed.size());
  index.bit.reserve(keyed.size());
  for (const auto& k : keyed) {
    if (index.keys.empty() || index.keys.back() != k.key) {
      index.keys.push_back(k.key);
      index.offsets.push_back(index.time.size());
    }
    index.time.push_back(k.time);
    index.bit.push_back(k.bit);
  }
  index.offsets.push_back(index.time.size());
  return index;
}

ExposureMasks expose(const ErrorIndexView& index, common::TimePoint start,
                     common::TimePoint end, std::span<const PackedGpu> gpus,
                     const JobImpactConfig& cfg,
                     std::vector<std::int32_t>& node_scratch) {
  // Strictly after start: an error stamped at the exact second a job started
  // belongs to the GPU's previous tenant (the scheduler can hand a freed GPU
  // to a queued job within the same second the error killed its former
  // owner).  The period clamps both ends.
  const common::TimePoint from = std::max(start + 1, cfg.period.begin);
  const common::TimePoint to = std::min(end, cfg.period.end - 1);
  const common::TimePoint window_from = end - cfg.window;
  ExposureMasks m;
  const auto scan = [&](std::pair<std::size_t, std::size_t> groups) {
    for (std::size_t k = groups.first; k < groups.second; ++k) {
      const auto* first = index.time.data() + index.offsets[k];
      const auto* last = index.time.data() + index.offsets[k + 1];
      for (auto* t = std::lower_bound(first, last, from); t != last && *t <= to;
           ++t) {
        const std::uint32_t bit = 1u << index.bit[t - index.time.data()];
        m.run_mask |= bit;
        if (*t >= window_from) m.window_mask |= bit;
      }
    }
  };
  if (cfg.attribution == Attribution::kGpuLevel) {
    for (const PackedGpu g : gpus) scan(index.key_range(g, g));
    return m;
  }
  node_scratch.clear();
  for (const PackedGpu g : gpus) {
    const std::int32_t node = packed_node(g);
    if (std::find(node_scratch.begin(), node_scratch.end(), node) ==
        node_scratch.end()) {
      node_scratch.push_back(node);
    }
  }
  for (const std::int32_t node : node_scratch) {
    scan(index.key_range(pack_gpu(node, 0), pack_gpu(node, 0xff)));
  }
  return m;
}

void ImpactTally::add(slurm::JobState state, const ExposureMasks& masks) {
  ++jobs_analyzed;
  if (slurm::is_failure(state)) ++failed_jobs_total;
  if (masks.run_mask == 0) return;
  ++jobs_exposed;
  for (std::uint32_t r = masks.run_mask; r != 0; r &= r - 1) {
    ++encountering[static_cast<std::size_t>(std::countr_zero(r))];
  }
  if (!gpu_failed(state, masks)) return;
  ++gpu_failed_jobs;
  for (std::uint32_t w = masks.window_mask; w != 0; w &= w - 1) {
    ++failed[static_cast<std::size_t>(std::countr_zero(w))];
  }
}

void ImpactTally::merge(const ImpactTally& other) {
  jobs_analyzed += other.jobs_analyzed;
  failed_jobs_total += other.failed_jobs_total;
  gpu_failed_jobs += other.gpu_failed_jobs;
  jobs_exposed += other.jobs_exposed;
  for (std::size_t b = 0; b < kBits; ++b) {
    encountering[b] += other.encountering[b];
    failed[b] += other.failed[b];
  }
}

JobImpact ImpactTally::finish(const JobImpactConfig& cfg) const {
  JobImpact out;
  out.cfg = cfg;
  out.jobs_analyzed = jobs_analyzed;
  out.failed_jobs_total = failed_jobs_total;
  out.gpu_failed_jobs = gpu_failed_jobs;
  const auto order = xid::report_order();
  for (std::size_t b = 0; b < order.size(); ++b) {
    ImpactRow row;
    row.code = order[b];
    row.failed_jobs = failed[b];
    row.encountering_jobs = encountering[b];
    if (encountering[b] > 0) {
      row.failure_probability = static_cast<double>(failed[b]) /
                                static_cast<double>(encountering[b]);
      row.ci = common::wilson_interval(failed[b], encountering[b]);
    }
    out.rows.push_back(row);
  }
  return out;
}

std::vector<JobExposure> compute_exposures(
    const JobTable& table, const ErrorIndexView& index,
    const JobImpactConfig& cfg, common::ThreadPool* pool,
    ExposureJoinStats* stats) {
  std::vector<JobExposure> out;
  join(table, index, cfg, pool, stats, &out);
  return out;
}

std::vector<JobExposure> compute_exposures(
    const JobTable& table, const std::vector<CoalescedError>& errors,
    const JobImpactConfig& cfg) {
  return compute_exposures(table, build_error_index(errors, cfg.period).view(),
                           cfg);
}

JobImpact compute_job_impact(const JobTable& table,
                             const std::vector<CoalescedError>& errors,
                             const JobImpactConfig& cfg,
                             common::ThreadPool* pool, ExposureJoinStats* stats,
                             std::vector<JobExposure>* exposures) {
  return join(table, build_error_index(errors, cfg.period).view(), cfg, pool,
              stats, exposures);
}

}  // namespace gpures::analysis
