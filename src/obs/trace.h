// Scoped wall-time tracing spans, exported as Chrome Trace Event JSON
// (loadable in chrome://tracing and Perfetto).
//
// Usage: install a Tracer for the run, drop OBS_SPAN("stage1.parse_range")
// at the top of the scope to time, write to_chrome_json() at the end.
// When no tracer is installed a span is a single relaxed atomic load —
// instrumentation can stay in release builds.
//
// Spans record begin/end pairs per thread (events carry the obs thread
// slot as their tid).  Wall time never flows into analysis results: a
// trace is an obs artifact only, so tracing on vs. off cannot perturb the
// pipeline's byte-identical-output guarantee.
#pragma once

#include <chrono>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gpures::obs {

class Tracer {
 public:
  struct Event {
    std::string name;
    std::uint64_t ts_us = 0;   ///< begin, relative to tracer construction
    std::uint64_t dur_us = 0;  ///< wall duration
    std::uint64_t tid = 0;     ///< obs::thread_slot() of the recording thread
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Process-wide current tracer used by OBS_SPAN.  Pass nullptr to
  /// uninstall; the tracer must outlive its installation.
  static void install(Tracer* t);
  static Tracer* current();

  /// Microseconds since this tracer was constructed.
  std::uint64_t now_us() const;

  /// Append one completed span (thread-safe).
  void record(std::string name, std::uint64_t ts_us, std::uint64_t dur_us);

  std::size_t event_count() const;

  /// Chrome Trace Event JSON: {"traceEvents":[{"name","cat","ph":"X","ts",
  /// "dur","pid","tid"},...],"displayTimeUnit":"ms"}.  Events are sorted by
  /// (ts, tid, name) so repeated exports of the same run are stable.
  std::string to_chrome_json() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// RAII span: times its enclosing scope on the installed tracer (or an
/// explicit one); inert when none is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, Tracer::current()) {}
  ScopedSpan(const char* name, Tracer* tracer) : tracer_(tracer) {
    if (tracer_ != nullptr) {
      name_ = name;
      start_us_ = tracer_->now_us();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, start_us_, tracer_->now_us() - start_us_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_ = "";
  std::uint64_t start_us_ = 0;
};

}  // namespace gpures::obs

#define GPURES_OBS_CONCAT_(a, b) a##b
#define GPURES_OBS_CONCAT(a, b) GPURES_OBS_CONCAT_(a, b)
/// Time the enclosing scope under `name` on the installed tracer.
#define OBS_SPAN(name) \
  ::gpures::obs::ScopedSpan GPURES_OBS_CONCAT(obs_span_, __LINE__){name}
