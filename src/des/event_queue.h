// Discrete-event simulation core.
//
// A minimal but production-grade DES kernel: a stable priority queue of
// (time, sequence, callback) entries with cancellation support.  The cluster
// fault simulator and the Slurm scheduler share engines so that error
// injection and job lifecycle events interleave on a single clock; under the
// sharded fleet simulation each node-range shard additionally owns a private
// engine (see cluster/sharded_sim.h).
//
// Storage is a hand-rolled binary heap over a vector (not std::priority_queue)
// so that campaigns can reserve() capacity up front and so that the
// lazily-cancelled tombstones can be compacted: cancel() is O(1) and leaves
// the entry in the heap, but once tombstones outnumber half the pending
// events the heap is rebuilt without them — long campaigns with many
// cancelled job-end events would otherwise grow the heap without bound.
//
// Event ids are dense (1, 2, 3, ...), so the lifecycle of every id is one
// byte in a flat vector indexed by id — pending, tombstone (cancelled but
// still in the heap) or done — plus a count of each live state.  Scheduling,
// cancelling and dispatching an event touch only that byte.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"

namespace gpures::des {

/// Handle for a scheduled event; used to cancel it.
using EventId = std::uint64_t;

/// The simulation engine.
///
/// Events scheduled for the same timestamp fire in scheduling order (stable),
/// which makes simulations reproducible independent of heap tie-breaking.
class Engine {
 public:
  using Callback = std::function<void()>;

  explicit Engine(common::TimePoint start = 0) : now_(start) {}

  common::TimePoint now() const { return now_; }

  /// Attach observability counters (des.events_scheduled/dispatched/
  /// cancelled, des.queue_depth gauge).  Pass nullptr to detach.  Metrics
  /// record only event counts and queue depth — never time — so attaching
  /// a registry cannot change simulation results.
  void set_metrics(obs::MetricsRegistry* m);

  /// Labeled-family variant: registers the same des.* metrics as children
  /// with the given labels (e.g. {{"shard", "3"}}), so per-shard engines
  /// report distinct series instead of racing on one shared gauge.
  void set_metrics(obs::MetricsRegistry* m, std::span<const obs::Label> labels);

  /// Pre-size internal storage for `n` events (heap and per-id states).
  /// Purely an allocation hint; never changes results.
  void reserve(std::size_t n);

  /// Schedule `cb` at absolute time `t` (must be >= now()).
  EventId schedule_at(common::TimePoint t, Callback cb);

  /// Schedule `cb` after `delay` seconds.
  EventId schedule_after(common::Duration delay, Callback cb);

  /// Cancel a pending event.  Returns false if it already fired, was
  /// cancelled, or was never returned by schedule_at (including id 0).
  /// Cancellation is O(1); storage is reclaimed lazily, and the heap is
  /// compacted once tombstones exceed half the pending count.
  bool cancel(EventId id);

  /// True if no runnable events remain.
  bool empty() const { return pending_ == 0; }

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return pending_; }

  /// Cancelled-but-not-yet-reclaimed entries still occupying heap slots
  /// (diagnostics; exercised by the compaction tests).
  std::size_t cancelled_tombstones() const { return tombstones_; }

  /// Run until the queue empties or the clock passes `until`.
  /// Events at exactly `until` are executed.  Returns the number of events
  /// dispatched.
  std::uint64_t run_until(common::TimePoint until);

  /// Run until the queue is empty.
  std::uint64_t run();

  /// Dispatch exactly one event if available; returns whether one ran.
  bool step();

  /// Total events dispatched over the engine's lifetime.
  std::uint64_t dispatched_total() const { return dispatched_total_; }

 private:
  struct Entry {
    common::TimePoint time;
    std::uint64_t seq;
    EventId id;
    Callback cb;
  };

  /// Heap comparator: "a sorts after b", i.e. the heap top is the entry with
  /// the smallest (time, seq).
  static bool entry_after(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  /// Lifecycle of one event id; `state_[id]`.
  enum class State : std::uint8_t { kPending, kTombstone, kDone };

  /// Pop the heap top without dispatching (tombstone reclamation).
  void pop_top();

  /// If the heap top is a tombstone, reclaim it and return true.
  bool pop_tombstone();

  /// Rebuild the heap without cancelled entries once tombstones exceed half
  /// the pending count (with a floor so tiny queues never thrash).
  void maybe_compact();

  static constexpr std::size_t kCompactMin = 64;

  common::TimePoint now_;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::uint64_t dispatched_total_ = 0;
  obs::Counter* scheduled_metric_ = nullptr;
  obs::Counter* dispatched_metric_ = nullptr;
  obs::Counter* cancelled_metric_ = nullptr;
  obs::Gauge* depth_metric_ = nullptr;
  std::vector<Entry> heap_;   ///< binary min-heap on (time, seq)
  /// Per-id state; index 0 is a placeholder so ids index directly.
  std::vector<State> state_{State::kDone};
  std::size_t pending_ = 0;     ///< ids in kPending
  std::size_t tombstones_ = 0;  ///< ids in kTombstone (all still in heap_)
};

}  // namespace gpures::des
