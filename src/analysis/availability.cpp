#include "analysis/availability.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace gpures::analysis {

namespace {

/// Pair one host's records (already grouped, any order) into intervals,
/// appending accepted durations/intervals in drain order.
struct HostAccum {
  std::vector<Unavailability> intervals;
  std::vector<double> durations;
  std::uint64_t unpaired_drains = 0;
  std::uint64_t unpaired_resumes = 0;
};

void pair_host(const std::string& host, std::vector<LifecycleRecord>& recs,
               const AvailabilityConfig& cfg, HostAccum& acc) {
  std::sort(recs.begin(), recs.end(),
            [](const LifecycleRecord& a, const LifecycleRecord& b) {
              return a.time < b.time;
            });
  bool open = false;
  common::TimePoint drain_at = 0;
  for (const auto& r : recs) {
    if (r.kind == LifecycleRecord::Kind::kDrain) {
      if (open) ++acc.unpaired_drains;  // drain while already draining
      open = true;
      drain_at = r.time;
    } else {
      if (!open) {
        ++acc.unpaired_resumes;
        continue;
      }
      open = false;
      if (!cfg.period.contains(drain_at)) continue;
      Unavailability u;
      u.host = host;
      u.begin = drain_at;
      u.end = r.time;
      if (u.hours() < 0.0 || u.hours() > cfg.max_interval_h) continue;
      acc.durations.push_back(u.hours());
      acc.intervals.push_back(std::move(u));
    }
  }
  if (open) ++acc.unpaired_drains;  // study ended while down
}

}  // namespace

double availability(double mttf_h, double mttr_h) {
  if (!std::isfinite(mttf_h) || mttf_h <= 0.0 || mttr_h < 0.0) return 1.0;
  return mttf_h / (mttf_h + mttr_h);
}

double AvailabilityStats::downtime_minutes_per_day(double availability) {
  return (1.0 - availability) * 24.0 * 60.0;
}

AvailabilityStats compute_availability(
    const std::vector<LifecycleRecord>& lifecycle,
    const AvailabilityConfig& cfg, common::ThreadPool* pool) {
  AvailabilityStats out;
  out.cfg = cfg;

  // Group records per host; the map fixes the host processing order, and
  // within a host records keep input order, independent of sharding.
  std::map<std::string, std::vector<LifecycleRecord>> by_host;
  for (const auto& r : lifecycle) by_host[r.host].push_back(r);

  std::vector<std::pair<const std::string*, std::vector<LifecycleRecord>*>>
      hosts;
  hosts.reserve(by_host.size());
  for (auto& [host, recs] : by_host) hosts.push_back({&host, &recs});

  // Shard contiguous host ranges (hosts are in map = sorted order); each
  // shard pairs its hosts independently.  Concatenating shard outputs in
  // shard order reproduces the serial host-by-host emission sequence, so the
  // duration vector — and every float folded over it — is bit-identical.
  const std::size_t shards = pool != nullptr ? pool->size() : 1;
  std::vector<HostAccum> accum(shards);
  const auto run_shard = [&](std::size_t s) {
    const std::size_t lo = hosts.size() * s / shards;
    const std::size_t hi = hosts.size() * (s + 1) / shards;
    for (std::size_t i = lo; i < hi; ++i) {
      pair_host(*hosts[i].first, *hosts[i].second, cfg, accum[s]);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(shards, [&](std::size_t s, std::size_t) {
      run_shard(s);
    });
  } else {
    run_shard(0);
  }

  std::vector<double> durations;
  for (auto& a : accum) {
    out.unpaired_drains += a.unpaired_drains;
    out.unpaired_resumes += a.unpaired_resumes;
    durations.insert(durations.end(), a.durations.begin(), a.durations.end());
    out.intervals.insert(out.intervals.end(),
                         std::make_move_iterator(a.intervals.begin()),
                         std::make_move_iterator(a.intervals.end()));
  }
  // Left fold in emission order — the same accumulation sequence as pairing
  // and summing in one serial pass.
  for (const double h : durations) out.total_node_hours_lost += h;

  std::sort(out.intervals.begin(), out.intervals.end(),
            [](const Unavailability& a, const Unavailability& b) {
              return a.begin < b.begin;
            });
  out.duration_hours = common::summarize(durations);
  out.mttr_h = out.duration_hours.mean;
  out.ecdf = common::make_ecdf(durations, 60);
  return out;
}

}  // namespace gpures::analysis
