#include "analysis/job_impact.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "obs/trace.h"

namespace gpures::analysis {

namespace {

bool gpu_failed(slurm::JobState state, const ExposureMasks& m) {
  return slurm::is_failure(state) && m.window_mask != 0;
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

std::pair<std::size_t, std::size_t> ErrorIndexView::key_range(
    std::int64_t key_lo, std::int64_t key_hi) const {
  // A range holds at most one node's GPUs, so walk rather than search the
  // upper end.
  auto it = std::lower_bound(keys.begin(), keys.end(), key_lo);
  const auto lo = static_cast<std::size_t>(it - keys.begin());
  while (it != keys.end() && *it <= key_hi) ++it;
  return {lo, static_cast<std::size_t>(it - keys.begin())};
}

ErrorIndex build_error_index(const std::vector<CoalescedError>& errors) {
  OBS_SPAN("stage3.error_index");
  struct Keyed {
    std::int64_t key;
    common::TimePoint time;
    std::uint32_t bit;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(errors.size());
  for (const auto& e : errors) {
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

JobImpact ImpactTally::finish(const JobImpactConfig& cfg) const {
  JobImpact out;
  out.cfg = cfg;
  out.jobs_analyzed = jobs_analyzed;
  out.failed_jobs_total = failed_jobs_total;
  out.gpu_failed_jobs = gpu_failed_jobs;
  out.jobs_exposed = jobs_exposed;
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

ExposurePass mask_jobs(const JobTable& table, const ErrorIndexView& index,
                       common::Duration window, Attribution attribution) {
  OBS_SPAN("stage3.mask_jobs");
  // Jobs in (end, start, id) order, sorted as a compact key array; the
  // table index breaks any remaining tie, so the order is total.
  struct JobKey {
    common::TimePoint end;
    common::TimePoint start;
    std::uint64_t id;
    std::uint32_t idx;
  };
  ExposurePass pass;
  {
    std::vector<JobKey> keys;
    keys.reserve(table.jobs.size());
    for (std::size_t i = 0; i < table.jobs.size(); ++i) {
      const auto& j = table.jobs[i];
      keys.push_back({j.end, j.start, j.id, static_cast<std::uint32_t>(i)});
    }
    std::sort(keys.begin(), keys.end(), [](const JobKey& a, const JobKey& b) {
      if (a.end != b.end) return a.end < b.end;
      if (a.start != b.start) return a.start < b.start;
      if (a.id != b.id) return a.id < b.id;
      return a.idx < b.idx;
    });
    pass.order.reserve(keys.size());
    for (const JobKey& k : keys) pass.order.push_back(k.idx);
  }

  // Over all time: a period [from, to) selects jobs ending inside it, so its
  // upper clamp never bites, and masks_in_period redoes the lower one.
  const JobImpactConfig cfg{window,
                            {std::numeric_limits<common::TimePoint>::min(),
                             std::numeric_limits<common::TimePoint>::max()},
                            attribution};

  // Each location's indexed error times, ascending: a loc group at device
  // level; at node level a node's groups are adjacent, and their entries,
  // sorted, are the node's.  Jobs come in end order, so a cursor per
  // location sweeps forward to the first error after the current job's
  // end; the job saw an error there iff the one before it is after its
  // start.
  const bool by_node = attribution == Attribution::kNodeLevel;
  const auto location = [by_node](std::int64_t key) {
    return by_node ? key >> 8 : key;
  };
  std::vector<std::int64_t> times(index.time.begin(), index.time.end());
  struct Sweep {
    std::uint64_t begin = 0;
    std::uint64_t next = 0;  ///< first entry after the current job's end
    std::uint64_t end = 0;
  };
  std::vector<Sweep> sweep(
      index.keys.empty() || index.keys.back() < 0
          ? 0
          : static_cast<std::size_t>(location(index.keys.back())) + 1);
  for (std::size_t k = 0; k < index.keys.size(); ++k) {
    if (index.keys[k] < 0) continue;
    Sweep& w = sweep[static_cast<std::size_t>(location(index.keys[k]))];
    if (w.begin == w.end) w.begin = w.next = index.offsets[k];
    w.end = index.offsets[k + 1];
  }
  if (by_node) {
    for (const Sweep& w : sweep) {
      std::sort(times.begin() + static_cast<std::ptrdiff_t>(w.begin),
                times.begin() + static_cast<std::ptrdiff_t>(w.end));
    }
  }
  const auto sees_errors = [&](const JobView& j,
                               std::span<const PackedGpu> gpus) {
    bool seen = false;
    for (const PackedGpu g : gpus) {
      const std::int64_t l = location(g);
      if (l < 0 || static_cast<std::uint64_t>(l) >= sweep.size()) continue;
      Sweep& w = sweep[static_cast<std::size_t>(l)];
      while (w.next < w.end && times[w.next] <= j.end) ++w.next;
      seen |= w.next > w.begin && times[w.next - 1] > j.start;
    }
    return seen;
  };
  std::vector<std::int32_t> node_scratch;
  for (std::size_t pos = 0; pos < pass.order.size(); ++pos) {
    const auto& j = table.jobs[pass.order[pos]];
    const auto gpus = table.gpus_of(j);
    const auto m = sees_errors(j, gpus)
                       ? expose(index, j.start, j.end, gpus, cfg, node_scratch)
                       : ExposureMasks{};
    if (m.run_mask != 0) {
      pass.exposed_pos.push_back(static_cast<std::uint32_t>(pos));
      pass.exposed_masks.push_back(pack_masks(m.run_mask, m.window_mask));
    }
    if (slurm::is_failure(j.state)) {
      pass.failed_pos.push_back(static_cast<std::uint32_t>(pos));
    }
  }
  return pass;
}

ExposureMasks masks_in_period(const ErrorIndexView& index, std::uint32_t packed,
                              const PassJob& job, const JobImpactConfig& cfg,
                              std::vector<std::int32_t>& node_scratch,
                              std::uint64_t& boundary_jobs) {
  if (job.start + 1 < cfg.period.begin) {
    ++boundary_jobs;
    return expose(index, job.start, job.end, job.gpus, cfg, node_scratch);
  }
  return {run_mask_of(packed), window_mask_of(packed)};
}

JobImpact fold_job_impact(const JobTable& table, const ErrorIndexView& index,
                          const ExposurePass& pass, const JobImpactConfig& cfg,
                          std::vector<JobExposure>* exposures) {
  const auto ending_before = [&](common::TimePoint t) -> std::size_t {
    return std::ranges::partition_point(pass.order, [&](std::uint32_t i) {
             return table.jobs[i].end < t;
           }) - pass.order.begin();
  };
  const std::size_t lo = ending_before(cfg.period.begin);
  std::vector<JobExposure> listed;
  std::uint64_t boundary_jobs = 0;
  const auto tally = fold_pass(
      index, pass.columns(), cfg, lo,
      std::max(lo, ending_before(cfg.period.end)),
      [&](std::size_t pos) {
        const auto& j = table.jobs[pass.order[pos]];
        return PassJob{j.start, j.end, j.state, table.gpus_of(j)};
      },
      [&](std::size_t pos, const PassJob& job, const ExposureMasks& m) {
        listed.push_back({pass.order[pos], m.run_mask, m.window_mask,
                          gpu_failed(job.state, m)});
      },
      boundary_jobs);
  if (exposures != nullptr) {
    // Job-table order, so the mitigation sums add in the same sequence
    // whatever the pass order.
    std::ranges::sort(listed, {}, &JobExposure::job_index);
    *exposures = std::move(listed);
  }
  return tally.finish(cfg);
}

JobImpact compute_job_impact(const JobTable& table,
                             const std::vector<CoalescedError>& errors,
                             const JobImpactConfig& cfg,
                             std::vector<JobExposure>* exposures) {
  const auto index = build_error_index(errors);
  return fold_job_impact(
      table, index.view(),
      mask_jobs(table, index.view(), cfg.window, cfg.attribution), cfg,
      exposures);
}

}  // namespace gpures::analysis
