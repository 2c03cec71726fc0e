// GPU-granular FCFS + backfill scheduler over the cluster topology.
//
// Models the slice of Slurm behaviour the study depends on: jobs queue FCFS,
// a bounded backfill scan lets small jobs skip over a blocked head, nodes can
// be drained (no new work) and downed (running jobs die with NODE_FAIL), and
// every terminal job yields an accounting record.  The error-propagation
// layer can look up which job holds a GPU and fail it with a chosen state
// and end time — that 'error at t, job ends within seconds' coupling is what
// the pipeline's 20-second attribution window later recovers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "des/event_queue.h"
#include "obs/metrics.h"
#include "slurm/job.h"
#include "slurm/workload_model.h"
#include "xid/event.h"

namespace gpures::slurm {

struct SchedulerConfig {
  /// How many queued jobs past the head each dispatch pass may examine.
  std::int32_t backfill_depth = 32;
  /// Anti-starvation: once the head of the queue has waited this long,
  /// backfill stops so freed GPUs accumulate for it (poor man's EASY
  /// reservation — without it, system-scale jobs never start at ~75%
  /// utilization).
  common::Duration head_starvation_s = 2 * common::kHour;
  /// Baseline terminal-state mix for jobs that end naturally (GPU-error and
  /// node-failure deaths are decided by the failure layer instead).
  double p_user_failed = 0.17;
  double p_cancelled = 0.06;
};

class Scheduler {
 public:
  Scheduler(des::Engine& engine, const cluster::Topology& topo,
            SchedulerConfig cfg, common::Rng rng);

  /// Attach observability counters (slurm.jobs_submitted/started/failed/
  /// completed) and gauges (slurm.queue_depth, slurm.running_jobs).  Counts
  /// only — scheduling decisions and RNG draws are unaffected.
  void set_metrics(obs::MetricsRegistry* m);

  // ---- job intake ----
  /// Enqueue a job drawn from the workload model. Returns its JobId.
  JobId submit(const JobRequest& req);

  // ---- node availability (wired from the cluster simulator) ----
  void drain_node(std::int32_t node);
  /// Node reboots: running jobs on it die *now* with NODE_FAIL.
  void node_down(std::int32_t node);
  void node_up(std::int32_t node);
  bool node_schedulable(std::int32_t node) const;

  // ---- error propagation hooks ----
  /// Job currently holding the given GPU, if any.
  std::optional<JobId> job_on_gpu(xid::GpuId gpu) const;
  /// Jobs with at least one GPU on the node.
  std::vector<JobId> jobs_on_node(std::int32_t node) const;
  /// Terminate a running job at time `end` (>= now) with the given state.
  /// No-op if the job already ended. `end` may be a few seconds in the
  /// future (error-induced crashes take moments to unwind).
  void fail_job(JobId id, JobState state, common::TimePoint end);

  /// Longest remaining natural runtime among jobs on `node`, capped; this is
  /// the cluster simulator's drain-time estimate.
  common::Duration drain_time_estimate(std::int32_t node,
                                       common::TimePoint now,
                                       common::Duration cap) const;

  /// Fill `out[flat GPU index]` with the natural end time of the job holding
  /// each GPU (0 = idle), using the same start + natural-runtime arithmetic
  /// as drain_time_estimate.  The sharded fleet simulator freezes one such
  /// snapshot per day epoch so shards can answer busy/drain queries without
  /// reading live scheduler state mid-day.
  void snapshot_busy_until(std::vector<common::TimePoint>& out) const;

  // ---- introspection / results ----
  std::size_t queued() const { return queue_.size(); }
  std::size_t running() const { return running_.size(); }
  std::int32_t free_gpus() const { return total_free_; }
  const std::vector<JobRecord>& records() const { return records_; }

  /// Jobs started so far whose start time fell at or after `t0`.
  std::uint64_t started_jobs() const { return started_; }

  /// Truncate any still-running/queued jobs at the end of the study: running
  /// jobs are recorded as CANCELLED at `study_end`; queued jobs are dropped.
  void finalize(common::TimePoint study_end);

 private:
  struct Pending {
    JobId id;
    JobRequest req;
  };
  struct Running {
    JobRecord rec;
    double duration_s;                  ///< natural runtime
    bool hit_walltime = false;
    des::EventId end_event = 0;
  };

  void try_dispatch();
  bool try_start(const Pending& p);
  /// Pick GPUs for a job; empty result if it cannot start now.  Placement,
  /// in order:
  ///   * a request larger than the schedulable free pool fails at once;
  ///   * a request for <= 8 GPUs takes the first schedulable node at or after
  ///     alloc_cursor_ (wrapping) with that many free GPUs, and the cursor
  ///     moves past it (rotating first-fit);
  ///   * otherwise it spreads over the freest schedulable nodes, ties to the
  ///     lower node index, taking each node's free slots in slot order.
  std::vector<xid::GpuId> allocate(std::int32_t gpus_needed);
  void release(const Running& r);
  void complete_natural(JobId id);
  void finish(Running r, common::TimePoint end, JobState state);
  JobState natural_state(const Running& r);

  des::Engine& engine_;
  const cluster::Topology& topo_;
  SchedulerConfig cfg_;
  common::Rng rng_;

  struct NodeRes {
    std::uint8_t free = 0;      ///< count of free GPU slots
    bool schedulable = true;
    std::vector<JobId> slot;    ///< per-slot owner (0 = free)
  };
  std::vector<NodeRes> nodes_;
  std::int32_t total_free_ = 0;
  std::int32_t alloc_cursor_ = 0;  ///< rotating first-fit start

  // ---- placement index ----
  // A node's level is its free GPU count if it is schedulable, else 0.
  // Row k (1..kMaxGpusPerNode) is a node bitset: bit n set iff node n's level
  // is >= k.  So row k answers "which nodes can host k GPUs" and row f minus
  // row f+1 is the bucket of nodes with exactly f free; placement scans
  // words, never nodes.
  static constexpr std::int32_t kMaxGpusPerNode = 8;
  static std::int32_t level(const NodeRes& r) {
    return r.schedulable ? r.free : 0;
  }
  /// Move node `n` from level `from` to level `to` in the index.
  void set_level(std::int32_t n, std::int32_t from, std::int32_t to);
  /// Change node `n`'s free count by `delta`, keeping the index in step.
  void add_free(std::int32_t n, std::int32_t delta);
  /// Drain/down (false) or return (true) node `n`, keeping the index in step.
  void set_schedulable(std::int32_t n, bool on);
  /// Row k's words ([word_count_] of them).
  const std::uint64_t* row(std::int32_t k) const {
    return index_.data() + static_cast<std::size_t>(k - 1) * word_count_;
  }
  /// First node >= `from` and < `to` with its bit set in row k, else -1.
  std::int32_t first_in_row(std::int32_t k, std::int32_t from,
                            std::int32_t to) const;
  std::size_t word_count_ = 0;
  std::vector<std::uint64_t> index_;  ///< kMaxGpusPerNode rows of node bits
  std::int32_t schedulable_free_ = 0;  ///< sum of levels

  std::deque<Pending> queue_;
  std::unordered_map<JobId, Running> running_;
  std::vector<JobRecord> records_;
  JobId next_id_ = 1;
  std::uint64_t started_ = 0;

  obs::Counter* submitted_metric_ = nullptr;
  obs::Counter* started_metric_ = nullptr;
  obs::Counter* failed_metric_ = nullptr;
  obs::Counter* completed_metric_ = nullptr;
  obs::Gauge* queue_metric_ = nullptr;
  obs::Gauge* running_metric_ = nullptr;

  /// Refresh the queue/running gauges after a state change.
  void update_gauges();
};

}  // namespace gpures::slurm
