#include "slurm/scheduler.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace gpures::slurm {

Scheduler::Scheduler(des::Engine& engine, const cluster::Topology& topo,
                     SchedulerConfig cfg, common::Rng rng)
    : engine_(engine), topo_(topo), cfg_(cfg), rng_(rng.fork("scheduler")) {
  const auto n_nodes = static_cast<std::size_t>(topo_.node_count());
  nodes_.resize(n_nodes);
  word_count_ = (n_nodes + 63) / 64;
  index_.assign(word_count_ * kMaxGpusPerNode, 0);
  for (std::int32_t n = 0; n < topo_.node_count(); ++n) {
    // Topology caps nodes at kMaxGpusPerNode GPUs, so levels fit the rows.
    nodes_[static_cast<std::size_t>(n)].slot.assign(
        static_cast<std::size_t>(topo_.gpus_on_node(n)), 0);
    add_free(n, topo_.gpus_on_node(n));
  }
}

void Scheduler::set_level(std::int32_t n, std::int32_t from, std::int32_t to) {
  const auto word = static_cast<std::size_t>(n) / 64;
  const std::uint64_t bit = std::uint64_t{1} << (n % 64);
  for (std::int32_t k = to + 1; k <= from; ++k) {
    index_[static_cast<std::size_t>(k - 1) * word_count_ + word] &= ~bit;
  }
  for (std::int32_t k = from + 1; k <= to; ++k) {
    index_[static_cast<std::size_t>(k - 1) * word_count_ + word] |= bit;
  }
  schedulable_free_ += to - from;
}

void Scheduler::add_free(std::int32_t n, std::int32_t delta) {
  auto& res = nodes_[static_cast<std::size_t>(n)];
  const std::int32_t before = level(res);
  res.free = static_cast<std::uint8_t>(res.free + delta);
  total_free_ += delta;
  set_level(n, before, level(res));
}

void Scheduler::set_schedulable(std::int32_t n, bool on) {
  auto& res = nodes_.at(static_cast<std::size_t>(n));
  const std::int32_t before = level(res);
  res.schedulable = on;
  set_level(n, before, level(res));
}

std::int32_t Scheduler::first_in_row(std::int32_t k, std::int32_t from,
                                     std::int32_t to) const {
  if (from >= to) return -1;
  const std::uint64_t* bits = row(k);
  auto w = static_cast<std::size_t>(from) / 64;
  const auto last = static_cast<std::size_t>(to - 1) / 64;
  std::uint64_t word = bits[w] & (~std::uint64_t{0} << (from % 64));
  while (word == 0) {
    if (++w > last) return -1;
    word = bits[w];
  }
  const auto n = static_cast<std::int32_t>(w * 64) + std::countr_zero(word);
  return n < to ? n : -1;
}

void Scheduler::set_metrics(obs::MetricsRegistry* m) {
  if (m == nullptr) {
    submitted_metric_ = nullptr;
    started_metric_ = nullptr;
    failed_metric_ = nullptr;
    completed_metric_ = nullptr;
    queue_metric_ = nullptr;
    running_metric_ = nullptr;
    return;
  }
  submitted_metric_ = &m->counter("slurm.jobs_submitted");
  started_metric_ = &m->counter("slurm.jobs_started");
  failed_metric_ = &m->counter("slurm.jobs_failed");
  completed_metric_ = &m->counter("slurm.jobs_completed");
  queue_metric_ = &m->gauge("slurm.queue_depth");
  running_metric_ = &m->gauge("slurm.running_jobs");
}

void Scheduler::update_gauges() {
  if (queue_metric_ == nullptr) return;
  queue_metric_->set(static_cast<std::int64_t>(queue_.size()));
  running_metric_->set(static_cast<std::int64_t>(running_.size()));
}

JobId Scheduler::submit(const JobRequest& req) {
  const JobId id = next_id_++;
  queue_.push_back({id, req});
  if (submitted_metric_ != nullptr) submitted_metric_->inc();
  try_dispatch();
  update_gauges();
  return id;
}

void Scheduler::drain_node(std::int32_t node) { set_schedulable(node, false); }

void Scheduler::node_down(std::int32_t node) {
  set_schedulable(node, false);
  // Kill every job still holding a GPU here; multi-node jobs die entirely.
  for (const JobId id : jobs_on_node(node)) {
    fail_job(id, JobState::kNodeFail, engine_.now());
  }
}

void Scheduler::node_up(std::int32_t node) {
  set_schedulable(node, true);
  try_dispatch();
}

bool Scheduler::node_schedulable(std::int32_t node) const {
  return nodes_.at(static_cast<std::size_t>(node)).schedulable;
}

std::optional<JobId> Scheduler::job_on_gpu(xid::GpuId gpu) const {
  const auto& res = nodes_.at(static_cast<std::size_t>(gpu.node));
  const JobId id = res.slot.at(static_cast<std::size_t>(gpu.slot));
  if (id == 0) return std::nullopt;
  return id;
}

std::vector<JobId> Scheduler::jobs_on_node(std::int32_t node) const {
  const auto& res = nodes_.at(static_cast<std::size_t>(node));
  std::vector<JobId> out;
  for (const JobId id : res.slot) {
    if (id != 0 && std::find(out.begin(), out.end(), id) == out.end()) {
      out.push_back(id);
    }
  }
  return out;
}

void Scheduler::fail_job(JobId id, JobState state, common::TimePoint end) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  engine_.cancel(it->second.end_event);
  Running r = std::move(it->second);
  running_.erase(it);
  const common::TimePoint end_at = std::max(end, r.rec.start);
  finish(std::move(r), end_at, state);
}

common::Duration Scheduler::drain_time_estimate(std::int32_t node,
                                                common::TimePoint now,
                                                common::Duration cap) const {
  common::Duration longest = 0;
  for (const JobId id : jobs_on_node(node)) {
    const auto it = running_.find(id);
    if (it == running_.end()) continue;
    const auto natural_end =
        it->second.rec.start +
        static_cast<common::Duration>(it->second.duration_s);
    longest = std::max(longest, natural_end - now);
  }
  return std::clamp<common::Duration>(longest, 0, cap);
}

void Scheduler::snapshot_busy_until(std::vector<common::TimePoint>& out) const {
  out.assign(static_cast<std::size_t>(topo_.total_gpus()), 0);
  for (const auto& [id, r] : running_) {
    const auto natural_end =
        r.rec.start + static_cast<common::Duration>(r.duration_s);
    for (const auto& g : r.rec.gpu_list) {
      out[static_cast<std::size_t>(topo_.flat_index(g))] = natural_end;
    }
  }
}

void Scheduler::try_dispatch() {
  // Anti-starvation: when the head has waited too long, suspend backfill so
  // the freed pool can grow to meet it.
  std::int32_t depth = cfg_.backfill_depth;
  if (!queue_.empty() &&
      engine_.now() - queue_.front().req.submit > cfg_.head_starvation_s) {
    depth = 0;
  }
  std::int32_t examined = 0;
  auto it = queue_.begin();
  while (it != queue_.end() && examined <= depth) {
    ++examined;
    if (it->req.gpus > schedulable_free_) {
      // This job cannot run (allocate() would refuse it); backfill may still
      // find smaller jobs behind it.
      ++it;
      continue;
    }
    if (try_start(*it)) {
      it = queue_.erase(it);
      // A successful start consumes resources; restart the scan from the
      // (possibly new) head so FCFS order is respected for what remains.
      examined = 0;
      it = queue_.begin();
      continue;
    }
    ++it;
  }
}

std::vector<xid::GpuId> Scheduler::allocate(std::int32_t gpus_needed) {
  // No placement can fill a request larger than the schedulable pool (and a
  // request for no GPUs never starts).
  if (gpus_needed < 1 || gpus_needed > schedulable_free_) return {};
  std::vector<xid::GpuId> picked;
  picked.reserve(static_cast<std::size_t>(gpus_needed));
  // Take up to `want` free slots of node n in slot order; returns what is
  // still wanted.
  const auto take = [&](std::int32_t n, std::int32_t want) {
    const auto& slot = nodes_[static_cast<std::size_t>(n)].slot;
    for (std::int32_t s = 0;
         s < static_cast<std::int32_t>(slot.size()) && want > 0; ++s) {
      if (slot[static_cast<std::size_t>(s)] == 0) {
        picked.push_back({n, s});
        --want;
      }
    }
    return want;
  };

  // Prefer a single node when the request can fit on one (rotating
  // first-fit); fall through to multi-node placement otherwise.
  if (gpus_needed <= kMaxGpusPerNode) {
    const std::int32_t n_nodes = topo_.node_count();
    std::int32_t n = first_in_row(gpus_needed, alloc_cursor_, n_nodes);
    if (n < 0) n = first_in_row(gpus_needed, 0, alloc_cursor_);
    if (n >= 0) {
      take(n, gpus_needed);
      alloc_cursor_ = (n + 1) % n_nodes;
      return picked;
    }
    // No single node can host it right now (either too large for any node
    // type or fragmentation); spread it across nodes below.
  }

  // Multi-node request: greedily take the freest schedulable nodes, walking
  // the exact-free buckets (row f minus row f+1) from the top, each in node
  // order.  The pool check above guarantees the walk fills the request.
  std::int32_t remaining = gpus_needed;
  for (std::int32_t f = kMaxGpusPerNode; f >= 1 && remaining > 0; --f) {
    const std::uint64_t* at_least = row(f);
    const std::uint64_t* above = f < kMaxGpusPerNode ? row(f + 1) : nullptr;
    for (std::size_t w = 0; w < word_count_ && remaining > 0; ++w) {
      std::uint64_t bucket = at_least[w] & ~(above ? above[w] : 0);
      while (bucket != 0 && remaining > 0) {
        const auto n =
            static_cast<std::int32_t>(w * 64) + std::countr_zero(bucket);
        bucket &= bucket - 1;
        remaining = take(n, remaining);
      }
    }
  }
  return picked;
}

bool Scheduler::try_start(const Pending& p) {
  auto gpus = allocate(p.req.gpus);
  if (gpus.empty()) return false;

  Running r;
  r.rec.id = p.id;
  r.rec.name = p.req.name;
  r.rec.submit = p.req.submit;
  r.rec.start = engine_.now();
  r.rec.gpus = p.req.gpus;
  r.rec.is_ml = p.req.is_ml;
  r.duration_s = p.req.duration_s;
  r.hit_walltime = p.req.duration_s >= p.req.walltime_s - 0.5;
  r.rec.gpu_list = std::move(gpus);

  // Mark ownership.  allocate() lists each node's GPUs contiguously, so a
  // node joins node_list once, when the node changes.
  std::vector<std::int32_t> node_list;
  for (const auto& g : r.rec.gpu_list) {
    nodes_[static_cast<std::size_t>(g.node)]
        .slot[static_cast<std::size_t>(g.slot)] = p.id;
    add_free(g.node, -1);
    if (node_list.empty() || node_list.back() != g.node) {
      node_list.push_back(g.node);
    }
  }
  std::sort(node_list.begin(), node_list.end());
  r.rec.node_list = std::move(node_list);
  r.rec.nodes = static_cast<std::int32_t>(r.rec.node_list.size());

  const auto end_at =
      engine_.now() + std::max<common::Duration>(
                          1, static_cast<common::Duration>(r.duration_s));
  const JobId id = p.id;
  r.end_event = engine_.schedule_at(end_at, [this, id] { complete_natural(id); });
  running_.emplace(id, std::move(r));
  ++started_;
  if (started_metric_ != nullptr) started_metric_->inc();
  return true;
}

void Scheduler::release(const Running& r) {
  for (const auto& g : r.rec.gpu_list) {
    auto& slot = nodes_[static_cast<std::size_t>(g.node)]
                     .slot[static_cast<std::size_t>(g.slot)];
    if (slot == r.rec.id) {
      slot = 0;
      add_free(g.node, +1);
    }
  }
}

JobState Scheduler::natural_state(const Running& r) {
  if (r.hit_walltime) return JobState::kTimeout;
  const double u = rng_.uniform();
  if (u < cfg_.p_user_failed) return JobState::kFailed;
  if (u < cfg_.p_user_failed + cfg_.p_cancelled) return JobState::kCancelled;
  return JobState::kCompleted;
}

void Scheduler::complete_natural(JobId id) {
  auto it = running_.find(id);
  if (it == running_.end()) return;
  Running r = std::move(it->second);
  running_.erase(it);
  const JobState state = natural_state(r);
  finish(std::move(r), engine_.now(), state);
}

void Scheduler::finish(Running r, common::TimePoint end, JobState state) {
  release(r);
  r.rec.end = end;
  r.rec.state = state;
  r.rec.exit_code = state == JobState::kCompleted ? 0 : 1;
  records_.push_back(std::move(r.rec));
  if (failed_metric_ != nullptr) {
    if (is_failure(state)) {
      failed_metric_->inc();
    } else if (state == JobState::kCompleted) {
      completed_metric_->inc();
    }
  }
  try_dispatch();
  update_gauges();
}

void Scheduler::finalize(common::TimePoint study_end) {
  // Jobs still running at the snapshot boundary: truncate as CANCELLED.
  std::vector<JobId> ids;
  ids.reserve(running_.size());
  for (const auto& [id, r] : running_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const JobId id : ids) {
    auto it = running_.find(id);
    engine_.cancel(it->second.end_event);
    Running r = std::move(it->second);
    running_.erase(it);
    release(r);
    r.rec.end = study_end;
    r.rec.state = JobState::kCancelled;
    r.rec.exit_code = 1;
    records_.push_back(std::move(r.rec));
  }
  queue_.clear();
}

}  // namespace gpures::slurm
