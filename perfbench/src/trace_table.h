// Per-layer table of a traced leg, built from an obs::Tracer's events.
//
// Benchmark spans are named "pb:<layer>.<call>" and wrap public library
// calls on the leg's own thread; the program's spans (dataset.load,
// stage1.parse_day, ...) nest inside them or run on pool workers.  A span's
// self time is its duration minus the part covered by its children on the
// same thread.  Coverage is the share of the leg's wall inside top-level
// benchmark spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanStats {
  std::uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
  bool leg_thread = false;  ///< recorded on the leg's thread (else a worker)
};

struct TraceSummary {
  std::map<std::string, SpanStats> spans;  ///< by span name
  double covered_s = 0;                    ///< top-level benchmark spans
  double wall_s = 0;

  double coverage() const { return wall_s > 0 ? covered_s / wall_s : 0; }
};

/// Summarize the Chrome Trace Event JSON of obs::Tracer::to_chrome_json.
TraceSummary summarize_trace(const std::string& chrome_json,
                             std::uint64_t leg_tid, double wall_s);

/// Table rows for a leg: span, thread, calls, total, self, share of wall.
std::vector<std::string> render_table(const std::string& leg,
                                      const TraceSummary& summary);

}  // namespace perfbench
