#include "des/event_queue.h"

#include <algorithm>
#include <stdexcept>

namespace gpures::des {

void Engine::set_metrics(obs::MetricsRegistry* m) {
  set_metrics(m, std::span<const obs::Label>{});
}

void Engine::set_metrics(obs::MetricsRegistry* m,
                         std::span<const obs::Label> labels) {
  if (m == nullptr) {
    scheduled_metric_ = nullptr;
    dispatched_metric_ = nullptr;
    cancelled_metric_ = nullptr;
    depth_metric_ = nullptr;
    return;
  }
  scheduled_metric_ = &m->counter("des.events_scheduled", labels);
  dispatched_metric_ = &m->counter("des.events_dispatched", labels);
  cancelled_metric_ = &m->counter("des.events_cancelled", labels);
  depth_metric_ = &m->gauge("des.queue_depth", labels);
}

void Engine::reserve(std::size_t n) {
  heap_.reserve(n);
  state_.reserve(state_.size() + n);
}

EventId Engine::schedule_at(common::TimePoint t, Callback cb) {
  if (t < now_) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  const EventId id = next_id_++;
  heap_.push_back(Entry{t, next_seq_++, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), entry_after);
  state_.push_back(State::kPending);  // state_[id]: ids are dense
  ++pending_;
  if (scheduled_metric_ != nullptr) {
    scheduled_metric_->inc();
    depth_metric_->set(static_cast<std::int64_t>(pending_));
  }
  return id;
}

EventId Engine::schedule_after(common::Duration delay, Callback cb) {
  if (delay < 0) {
    throw std::invalid_argument("Engine::schedule_after: negative delay");
  }
  return schedule_at(now_ + delay, std::move(cb));
}

bool Engine::cancel(EventId id) {
  // Id 0 and ids schedule_at never returned fall outside state_ or hit its
  // kDone slot 0.
  if (id >= state_.size() || state_[id] != State::kPending) return false;
  state_[id] = State::kTombstone;  // stays in the heap until popped
  --pending_;
  ++tombstones_;
  if (cancelled_metric_ != nullptr) {
    cancelled_metric_->inc();
    depth_metric_->set(static_cast<std::int64_t>(pending_));
  }
  maybe_compact();
  return true;
}

void Engine::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), entry_after);
  heap_.pop_back();
}

bool Engine::pop_tombstone() {
  State& s = state_[heap_.front().id];
  if (s != State::kTombstone) return false;
  s = State::kDone;
  --tombstones_;
  pop_top();
  return true;
}

void Engine::maybe_compact() {
  if (tombstones_ < kCompactMin || tombstones_ * 2 <= pending_) return;
  // Drop tombstoned entries in place, then restore the heap invariant.  The
  // surviving entries keep their relative order before make_heap, so the
  // rebuilt layout — and therefore all subsequent pops — is a deterministic
  // function of the operation sequence alone.
  std::erase_if(heap_, [this](const Entry& e) {
    State& s = state_[e.id];
    if (s != State::kTombstone) return false;
    s = State::kDone;
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end(), entry_after);
  tombstones_ = 0;
}

bool Engine::step() {
  while (!heap_.empty()) {
    if (pop_tombstone()) continue;
    // Move the entry out before dispatching: the callback may schedule or
    // cancel events, which mutates the heap.
    Entry e = std::move(heap_.front());
    pop_top();
    now_ = e.time;
    state_[e.id] = State::kDone;
    --pending_;
    ++dispatched_total_;
    if (dispatched_metric_ != nullptr) {
      dispatched_metric_->inc();
      depth_metric_->set(static_cast<std::int64_t>(pending_));
    }
    e.cb();
    return true;
  }
  return false;
}

std::uint64_t Engine::run_until(common::TimePoint until) {
  std::uint64_t dispatched = 0;
  while (!heap_.empty()) {
    if (pop_tombstone()) continue;
    if (heap_.front().time > until) break;
    if (step()) ++dispatched;
  }
  // Even if nothing ran, advance the clock to `until` so successive windows
  // (e.g. day-by-day simulation) observe monotonic time.
  if (now_ < until) now_ = until;
  return dispatched;
}

std::uint64_t Engine::run() {
  std::uint64_t dispatched = 0;
  while (step()) ++dispatched;
  return dispatched;
}

}  // namespace gpures::des
