// gpures-health: render an operator health report from telemetry sidecars.
//
//   gpures-health --metrics FILE [--telemetry FILE] [--format md|json]
//                 [--out FILE]
//
// Consumes the observability artifacts the other tools emit — the metrics
// registry snapshot JSON (--metrics) and the live telemetry sampler JSONL
// (--telemetry) — and renders one operator-facing report: pipeline
// throughput, latency quantiles per histogram family, query cache
// effectiveness and impact replays, ingest quality (drop reasons), and an RSS/CPU timeline.
//
// The report is a pure function of its input files: no clocks, no
// environment probes, so the same sidecars always render the same bytes.
// Exit code 0 even when the report flags findings — this is a reporting
// tool, not a gate; use the "status" field for alerting.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cli.h"
#include "common/io.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "obs/quantile.h"

using namespace gpures;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gpures-health --metrics FILE [options]\n"
      "  --metrics FILE    metrics registry snapshot JSON, as written by\n"
      "                    gpures-analyze/-query/-simulate --metrics (required)\n"
      "  --telemetry FILE  telemetry sampler JSONL (from --telemetry)\n"
      "  --format F        report format: md (default) or json\n"
      "  --out FILE        write the report here instead of stdout\n");
}

// ---------------------------------------------------------------------------
// Parsed sidecar model

struct HistData {
  std::string name;  ///< rendered name, labels included
  std::string family;
  std::vector<obs::Label> labels;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  double sum = 0.0;

  /// Per the relaxed-read contract the per-bucket counts are authoritative;
  /// the sampled "count" field may lag and is ignored here.
  std::uint64_t bucket_total() const {
    std::uint64_t t = 0;
    for (const std::uint64_t c : counts) t += c;
    return t;
  }
};

struct GaugeData {
  double value = 0.0;
  double max = 0.0;
};

struct Metrics {
  std::map<std::string, double> counters;    // rendered name -> value
  std::map<std::string, GaugeData> gauges;   // rendered name -> value/max
  std::vector<HistData> histograms;          // registry (sorted-name) order
};

struct TelemetrySample {
  double seq = 0.0;
  double elapsed_ms = 0.0;
  std::string reason;
  bool proc_valid = false;
  double rss_kb = 0.0;
  double cpu_s = 0.0;  // utime + stime
  double open_fds = 0.0;
  double log_lines = -1.0;  // pipe.log_lines counter at sample time, if present
};

struct Finding {
  std::string severity;  // "warn" | "info"
  std::string message;
};

common::Result<Metrics> load_metrics(const std::string& path) {
  auto text = common::read_file(path);
  if (!text.ok()) return text.error();
  auto doc = common::parse_json(text.value());
  if (!doc.ok()) {
    return common::Error::make(path + ": " + doc.error().message);
  }
  const auto& root = doc.value();
  if (!root.is_object()) {
    return common::Error::make(path + ": metrics snapshot must be an object");
  }
  Metrics m;
  if (const auto* counters = root.find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [name, v] : counters->members()) {
      if (v.is_number()) m.counters.emplace(name, v.as_number());
    }
  }
  if (const auto* gauges = root.find("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (const auto& [name, v] : gauges->members()) {
      if (!v.is_object()) continue;
      GaugeData g;
      if (const auto* value = v.find("value"); value && value->is_number()) {
        g.value = value->as_number();
      }
      if (const auto* max = v.find("max"); max && max->is_number()) {
        g.max = max->as_number();
      }
      m.gauges.emplace(name, g);
    }
  }
  if (const auto* hists = root.find("histograms");
      hists != nullptr && hists->is_object()) {
    for (const auto& [name, v] : hists->members()) {
      if (!v.is_object()) continue;
      HistData h;
      h.name = name;
      auto parsed = obs::parse_labeled_name(name);
      h.family = std::move(parsed.family);
      h.labels = std::move(parsed.labels);
      if (const auto* bounds = v.find("bounds");
          bounds != nullptr && bounds->is_array()) {
        for (const auto& b : bounds->items()) {
          if (b.is_number()) h.bounds.push_back(b.as_number());
        }
      }
      if (const auto* counts = v.find("counts");
          counts != nullptr && counts->is_array()) {
        for (const auto& c : counts->items()) {
          if (c.is_number()) {
            h.counts.push_back(static_cast<std::uint64_t>(c.as_number()));
          }
        }
      }
      if (const auto* sum = v.find("sum"); sum && sum->is_number()) {
        h.sum = sum->as_number();
      }
      if (h.counts.size() != h.bounds.size() + 1) continue;  // malformed entry
      m.histograms.push_back(std::move(h));
    }
  }
  return m;
}

common::Result<std::vector<TelemetrySample>> load_telemetry(
    const std::string& path) {
  auto text = common::read_file(path);
  if (!text.ok()) return text.error();
  std::vector<TelemetrySample> samples;
  std::string_view rest = text.value();
  std::size_t line_no = 0;
  while (!rest.empty()) {
    ++line_no;
    const auto nl = rest.find('\n');
    const std::string_view line =
        nl == std::string_view::npos ? rest : rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    if (line.empty()) continue;
    auto doc = common::parse_json(line);
    if (!doc.ok()) {
      return common::Error::make(path + ":" + std::to_string(line_no) + ": " +
                                 doc.error().message);
    }
    const auto& rec = doc.value();
    if (!rec.is_object()) continue;
    TelemetrySample s;
    if (const auto* v = rec.find("seq"); v && v->is_number()) {
      s.seq = v->as_number();
    }
    if (const auto* v = rec.find("elapsed_ms"); v && v->is_number()) {
      s.elapsed_ms = v->as_number();
    }
    if (const auto* v = rec.find("reason"); v && v->is_string()) {
      s.reason = v->as_string();
    }
    if (const auto* proc = rec.find("proc");
        proc != nullptr && proc->is_object()) {
      if (const auto* v = proc->find("valid"); v && v->is_bool()) {
        s.proc_valid = v->as_bool();
      }
      if (const auto* v = proc->find("rss_kb"); v && v->is_number()) {
        s.rss_kb = v->as_number();
      }
      double cpu = 0.0;
      if (const auto* v = proc->find("utime_s"); v && v->is_number()) {
        cpu += v->as_number();
      }
      if (const auto* v = proc->find("stime_s"); v && v->is_number()) {
        cpu += v->as_number();
      }
      s.cpu_s = cpu;
      if (const auto* v = proc->find("open_fds"); v && v->is_number()) {
        s.open_fds = v->as_number();
      }
    }
    if (const auto* counters = rec.find("counters");
        counters != nullptr && counters->is_object()) {
      if (const auto* v = counters->find("pipe.log_lines");
          v != nullptr && v->is_number()) {
        s.log_lines = v->as_number();
      }
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

// ---------------------------------------------------------------------------
// Derived views

double counter_or(const Metrics& m, std::string_view name, double fallback) {
  const auto it = m.counters.find(std::string(name));
  return it == m.counters.end() ? fallback : it->second;
}

double gauge_or(const Metrics& m, std::string_view name, double fallback) {
  const auto it = m.gauges.find(std::string(name));
  return it == m.gauges.end() ? fallback : it->second.value;
}

/// Any serve.* counter or gauge in the snapshot means it came from
/// gpures-serve and the daemon section applies.
bool has_serve_metrics(const Metrics& m) {
  for (const auto& [name, value] : m.counters) {
    if (name.rfind("serve.", 0) == 0) return true;
  }
  for (const auto& [name, g] : m.gauges) {
    if (name.rfind("serve.", 0) == 0) return true;
  }
  return false;
}

/// Sum of every counter in a family across label sets (and the unlabeled
/// child, if present).
double family_sum(const Metrics& m, std::string_view family) {
  double total = 0.0;
  for (const auto& [name, value] : m.counters) {
    if (obs::parse_labeled_name(name).family == family) total += value;
  }
  return total;
}

struct HistRow {
  const HistData* h = nullptr;
  std::uint64_t count = 0;
  double mean = std::numeric_limits<double>::quiet_NaN();
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double p95 = std::numeric_limits<double>::quiet_NaN();
  double p99 = std::numeric_limits<double>::quiet_NaN();
};

HistRow hist_row(const HistData& h) {
  HistRow r;
  r.h = &h;
  r.count = h.bucket_total();
  if (r.count > 0) r.mean = h.sum / static_cast<double>(r.count);
  r.p50 = obs::estimate_quantile(h.bounds, h.counts, 0.50);
  r.p95 = obs::estimate_quantile(h.bounds, h.counts, 0.95);
  r.p99 = obs::estimate_quantile(h.bounds, h.counts, 0.99);
  return r;
}

/// Timeline rows capped for readability: first, last, and evenly spaced
/// interior samples (deterministic selection).
std::vector<std::size_t> timeline_indices(std::size_t n, std::size_t cap) {
  std::vector<std::size_t> out;
  if (n == 0) return out;
  if (n <= cap) {
    for (std::size_t i = 0; i < n; ++i) out.push_back(i);
    return out;
  }
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(i * (n - 1) / (cap - 1));
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Rendering helpers

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "n/a";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", v);
  }
  return buf;
}

std::string fmt_pct(double v) {
  if (!std::isfinite(v)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", v * 100.0);
  return buf;
}

std::string label_text(const std::vector<obs::Label>& labels) {
  if (labels.empty()) return "-";
  std::string out;
  for (const auto& l : labels) {
    if (!out.empty()) out += ", ";
    out += l.key;
    out += '=';
    out += l.value;
  }
  return out;
}

void json_number_or_null(common::JsonWriter& w, std::string_view key,
                         double v) {
  w.key(key);
  if (std::isfinite(v)) {
    w.value(v);
  } else {
    w.null();
  }
}

// ---------------------------------------------------------------------------
// Report assembly

struct Report {
  std::string metrics_path;
  std::string telemetry_path;
  Metrics metrics;
  std::vector<TelemetrySample> samples;
  std::vector<Finding> findings;

  // Derived once so md and json renderings agree.
  double log_lines = 0.0;
  double dropped_total = 0.0;
  double drop_rate = std::numeric_limits<double>::quiet_NaN();
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double cache_evictions = 0.0;
  double cache_hit_ratio = std::numeric_limits<double>::quiet_NaN();
  /// Impact queries that re-ran the exposure join, and the boundary jobs
  /// the stored-mask fold re-exposed.
  double impact_replays = 0.0;
  double impact_boundary_jobs = 0.0;
  std::vector<HistRow> latency;

  // Daemon health (present only in gpures-serve snapshots).
  bool has_serve = false;
  double serve_degraded = 0.0;
  double serve_stalled = 0.0;
  double serve_retry_attempts = 0.0;
  double serve_retry_recovered = 0.0;
  double serve_retry_exhausted = 0.0;
  double serve_ckpt_age = 0.0;
  double serve_ckpt_interval = 0.0;
  double serve_ckpt_failures = 0.0;
  double serve_ckpt_bytes = 0.0;
  /// Checkpoint bytes written per byte ingested (the gauge is in ppm).
  double serve_ckpt_amplification = std::numeric_limits<double>::quiet_NaN();
  const HistRow* serve_ckpt_write_us = nullptr;  ///< into `latency`
  double serve_watermark_lag_bytes = 0.0;
};

void derive(Report& r) {
  const Metrics& m = r.metrics;
  r.log_lines = counter_or(m, "pipe.log_lines", 0.0);
  r.dropped_total = family_sum(m, "ingest.lines_dropped");
  const double seen = r.log_lines + r.dropped_total;
  if (seen > 0.0) r.drop_rate = r.dropped_total / seen;
  r.cache_hits = family_sum(m, "query.cache.hits");
  r.cache_misses = family_sum(m, "query.cache.misses");
  r.cache_evictions = family_sum(m, "query.cache.evictions");
  const double lookups = r.cache_hits + r.cache_misses;
  if (lookups > 0.0) r.cache_hit_ratio = r.cache_hits / lookups;
  r.impact_replays = family_sum(m, "query.impact.replays");
  r.impact_boundary_jobs = family_sum(m, "query.impact.boundary_jobs");
  for (const auto& h : m.histograms) r.latency.push_back(hist_row(h));

  if (std::isfinite(r.drop_rate) && r.drop_rate > 0.01) {
    r.findings.push_back(
        {"warn", "ingest drop rate above 1% (" + fmt_pct(r.drop_rate) +
                     "); check quarantine reasons"});
  }
  if (counter_or(m, "pipe.accounting_errors", 0.0) > 0.0) {
    r.findings.push_back(
        {"warn",
         "accounting rows rejected (pipe.accounting_errors=" +
             fmt_num(counter_or(m, "pipe.accounting_errors", 0.0)) + ")"});
  }
  if (lookups >= 100.0 && std::isfinite(r.cache_hit_ratio) &&
      r.cache_hit_ratio < 0.5) {
    r.findings.push_back({"info", "query cache hit ratio below 50% (" +
                                      fmt_pct(r.cache_hit_ratio) + ")"});
  }
  r.has_serve = has_serve_metrics(m);
  if (r.has_serve) {
    r.serve_degraded = gauge_or(m, "serve.sources.degraded", 0.0);
    r.serve_stalled = gauge_or(m, "serve.sources.stalled", 0.0);
    r.serve_retry_attempts = counter_or(m, "serve.retry.attempts", 0.0);
    r.serve_retry_recovered = counter_or(m, "serve.retry.recovered", 0.0);
    r.serve_retry_exhausted = counter_or(m, "serve.retry.exhausted", 0.0);
    r.serve_ckpt_age = gauge_or(m, "serve.checkpoint.age_ticks", 0.0);
    r.serve_ckpt_interval =
        gauge_or(m, "serve.checkpoint.interval_ticks", 0.0);
    r.serve_ckpt_failures = counter_or(m, "serve.checkpoint.failures", 0.0);
    r.serve_ckpt_bytes = counter_or(m, "serve.checkpoint.bytes", 0.0);
    const double amplification_ppm =
        gauge_or(m, "serve.checkpoint.amplification_ppm",
                 std::numeric_limits<double>::quiet_NaN());
    r.serve_ckpt_amplification = amplification_ppm / 1e6;
    for (const auto& row : r.latency) {
      if (row.h->family == "serve.checkpoint.write_us") {
        r.serve_ckpt_write_us = &row;
      }
    }
    r.serve_watermark_lag_bytes = gauge_or(m, "serve.frontier.lag_bytes", 0.0);
    if (r.serve_degraded > 0.0) {
      r.findings.push_back(
          {"warn", fmt_num(r.serve_degraded) +
                       " serve source(s) degraded (retry budget exhausted); "
                       "see the quality report's degraded_sources"});
    }
    if (r.serve_stalled > 0.0) {
      r.findings.push_back(
          {"warn", fmt_num(r.serve_stalled) +
                       " serve source(s) stalled (watermark not advancing)"});
    }
    if (r.serve_retry_exhausted > 0.0) {
      r.findings.push_back(
          {"warn", "serve read retries exhausted " +
                       fmt_num(r.serve_retry_exhausted) +
                       " time(s); sources were degraded"});
    }
    if (r.serve_ckpt_failures > 0.0) {
      r.findings.push_back({"warn", "serve checkpoint writes failed " +
                                        fmt_num(r.serve_ckpt_failures) +
                                        " time(s); recovery window is stale"});
    }
    if (r.serve_ckpt_amplification > 1.0) {
      r.findings.push_back(
          {"warn", "serve checkpoints wrote " +
                       fmt_num(r.serve_ckpt_amplification) +
                       "x the ingested bytes; checkpoint cost should track "
                       "new results, not history"});
    }
    if (r.serve_ckpt_interval > 0.0 &&
        r.serve_ckpt_age > 3.0 * r.serve_ckpt_interval) {
      r.findings.push_back(
          {"warn", "last serve checkpoint is " + fmt_num(r.serve_ckpt_age) +
                       " ticks old (interval " +
                       fmt_num(r.serve_ckpt_interval) +
                       "); a crash now replays that much work"});
    }
    if (r.serve_retry_attempts > 0.0 && r.serve_retry_exhausted == 0.0) {
      r.findings.push_back(
          {"info", fmt_num(r.serve_retry_attempts) +
                       " transient read fault(s) absorbed by retry (" +
                       fmt_num(r.serve_retry_recovered) + " reads recovered)"});
    }
  }
  if (r.samples.size() >= 2) {
    const auto& first = r.samples.front();
    const auto& last = r.samples.back();
    if (first.proc_valid && last.proc_valid && first.rss_kb > 0.0 &&
        last.rss_kb > 2.0 * first.rss_kb &&
        last.rss_kb - first.rss_kb > 102400.0) {
      r.findings.push_back(
          {"info", "RSS more than doubled over the run (" +
                       fmt_num(first.rss_kb) + " kB -> " +
                       fmt_num(last.rss_kb) + " kB)"});
    }
  }
}

std::string_view status(const Report& r) {
  for (const auto& f : r.findings) {
    if (f.severity == "warn") return "attention";
  }
  return "ok";
}

std::string render_md(const Report& r) {
  std::string out;
  out += "# gpures health report\n\n";
  out += "- metrics: `" + r.metrics_path + "`\n";
  if (!r.telemetry_path.empty()) {
    out += "- telemetry: `" + r.telemetry_path + "` (" +
           std::to_string(r.samples.size()) + " samples)\n";
  }
  out += "- status: **";
  out += status(r);
  out += "**\n";

  if (!r.findings.empty()) {
    out += "\n## Findings\n\n";
    for (const auto& f : r.findings) {
      out += "- [" + f.severity + "] " + f.message + "\n";
    }
  }

  out += "\n## Pipeline throughput\n\n";
  out += "| counter | value |\n|---|---|\n";
  static const char* kPipeline[] = {
      "pipe.log_lines",         "pipe.xid_records",
      "pipe.lifecycle_records", "pipe.rejected_lines",
      "pipe.unknown_hosts",     "pipe.accounting_lines",
      "pipe.accounting_errors", "pipe.out_of_order_observations",
      "pipe.errors_coalesced",
  };
  bool any_pipeline = false;
  for (const char* name : kPipeline) {
    const auto it = r.metrics.counters.find(name);
    if (it == r.metrics.counters.end()) continue;
    any_pipeline = true;
    out += "| " + it->first + " | " + fmt_num(it->second) + " |\n";
  }
  if (!any_pipeline) out += "| (no pipeline counters in snapshot) | |\n";

  out += "\n## Latency quantiles\n\n";
  if (r.latency.empty()) {
    out += "No histograms in snapshot.\n";
  } else {
    out +=
        "| family | labels | count | mean | p50 | p95 | p99 |\n"
        "|---|---|---|---|---|---|---|\n";
    for (const auto& row : r.latency) {
      out += "| " + row.h->family + " | " + label_text(row.h->labels) + " | " +
             std::to_string(row.count) + " | " + fmt_num(row.mean) + " | " +
             fmt_num(row.p50) + " | " + fmt_num(row.p95) + " | " +
             fmt_num(row.p99) + " |\n";
    }
    out += "\nValues are in each family's native unit (see its `# UNIT` in "
           "the Prometheus exposition); latency families are microseconds.\n";
  }

  if (r.has_serve) {
    out += "\n## Serve\n\n";
    out += "| metric | value |\n|---|---|\n";
    static const char* kServeCounters[] = {
        "serve.ticks",             "serve.dir_scans",
        "serve.bytes_ingested",    "serve.log_lines",
        "serve.errors_coalesced",  "serve.retry.attempts",
        "serve.retry.recovered",   "serve.retry.exhausted",
        "serve.sources.degraded_total", "serve.checkpoint.writes",
        "serve.checkpoint.failures",    "serve.checkpoint.bytes",
    };
    for (const char* name : kServeCounters) {
      const auto it = r.metrics.counters.find(name);
      if (it == r.metrics.counters.end()) continue;
      out += "| " + it->first + " | " + fmt_num(it->second) + " |\n";
    }
    static const char* kServeGauges[] = {
        "serve.sources.total",          "serve.sources.sealed",
        "serve.sources.degraded",       "serve.sources.stalled",
        "serve.watermark_epoch",        "serve.frontier.lag_bytes",
        "serve.checkpoint.age_ticks",   "serve.checkpoint.last_seq",
        "serve.checkpoint.interval_ticks",
    };
    for (const char* name : kServeGauges) {
      const auto it = r.metrics.gauges.find(name);
      if (it == r.metrics.gauges.end()) continue;
      out += "| " + it->first + " | " + fmt_num(it->second.value) + " |\n";
    }
    if (std::isfinite(r.serve_ckpt_amplification)) {
      char ratio[32];
      std::snprintf(ratio, sizeof(ratio), "%.4f", r.serve_ckpt_amplification);
      out += "| serve.checkpoint.amplification (checkpoint / ingested "
             "bytes) | " +
             std::string(ratio) + " |\n";
    }
    if (const HistRow* w = r.serve_ckpt_write_us; w != nullptr) {
      out += "| serve.checkpoint.write_us (count / p50 / p99) | " +
             std::to_string(w->count) + " / " + fmt_num(w->p50) + " / " +
             fmt_num(w->p99) + " |\n";
    }
  }

  out += "\n## Query cache\n\n";
  if (r.cache_hits + r.cache_misses + r.cache_evictions == 0.0) {
    out += "No query cache activity in snapshot.\n";
  } else {
    out += "| metric | value |\n|---|---|\n";
    out += "| hits | " + fmt_num(r.cache_hits) + " |\n";
    out += "| misses | " + fmt_num(r.cache_misses) + " |\n";
    out += "| evictions | " + fmt_num(r.cache_evictions) + " |\n";
    out += "| hit ratio | " + fmt_pct(r.cache_hit_ratio) + " |\n";
    out += "| impact replays | " + fmt_num(r.impact_replays) + " |\n";
    out += "| impact boundary jobs | " + fmt_num(r.impact_boundary_jobs) +
           " |\n";
  }

  out += "\n## Ingest quality\n\n";
  bool any_dropped = false;
  for (const auto& [name, value] : r.metrics.counters) {
    const auto parsed = obs::parse_labeled_name(name);
    if (parsed.family != "ingest.lines_dropped") continue;
    if (!any_dropped) {
      out += "| reason | lines dropped |\n|---|---|\n";
      any_dropped = true;
    }
    std::string reason = "(unlabeled)";
    for (const auto& l : parsed.labels) {
      if (l.key == "reason") reason = l.value;
    }
    out += "| " + reason + " | " + fmt_num(value) + " |\n";
  }
  if (any_dropped) {
    out += "| **total** | " + fmt_num(r.dropped_total) + " |\n";
    out += "\nDrop rate: " + fmt_pct(r.drop_rate) +
           " of observed raw lines.\n";
  } else {
    out += "No lines quarantined.\n";
  }
  if (const auto it = r.metrics.gauges.find("ingest.prefetch.in_flight");
      it != r.metrics.gauges.end()) {
    out += "Peak prefetch depth: " + fmt_num(it->second.max) + " days.\n";
  }

  if (!r.telemetry_path.empty()) {
    out += "\n## Resource timeline\n\n";
    if (r.samples.empty()) {
      out += "Telemetry file contained no samples.\n";
    } else {
      const auto& first = r.samples.front();
      const auto& last = r.samples.back();
      out += "- duration: " + fmt_num(last.elapsed_ms) + " ms across " +
             std::to_string(r.samples.size()) + " samples\n";
      if (last.proc_valid) {
        double peak_rss = 0.0;
        double peak_fds = 0.0;
        for (const auto& s : r.samples) {
          peak_rss = std::max(peak_rss, s.rss_kb);
          peak_fds = std::max(peak_fds, s.open_fds);
        }
        out += "- RSS: start " + fmt_num(first.rss_kb) + " kB, peak " +
               fmt_num(peak_rss) + " kB, final " + fmt_num(last.rss_kb) +
               " kB\n";
        out += "- CPU time: " + fmt_num(last.cpu_s) + " s\n";
        out += "- open fds: peak " + fmt_num(peak_fds) + "\n";
      }
      if (first.log_lines >= 0.0 && last.log_lines > first.log_lines &&
          last.elapsed_ms > first.elapsed_ms) {
        const double rate = (last.log_lines - first.log_lines) /
                            ((last.elapsed_ms - first.elapsed_ms) / 1000.0);
        out += "- ingest rate: " + fmt_num(rate) + " lines/s over the "
               "sampled window\n";
      }
      out += "\n| seq | elapsed_ms | reason | rss_kb | cpu_s | open_fds |\n"
             "|---|---|---|---|---|---|\n";
      for (const std::size_t i :
           timeline_indices(r.samples.size(), 12)) {
        const auto& s = r.samples[i];
        out += "| " + fmt_num(s.seq) + " | " + fmt_num(s.elapsed_ms) + " | " +
               s.reason + " | " + fmt_num(s.rss_kb) + " | " +
               fmt_num(s.cpu_s) + " | " + fmt_num(s.open_fds) + " |\n";
      }
    }
  }
  return out;
}

std::string render_json(const Report& r) {
  common::JsonWriter w;
  w.begin_object();
  w.kv("status", status(r));
  w.key("source");
  w.begin_object();
  w.kv("metrics", r.metrics_path);
  if (!r.telemetry_path.empty()) w.kv("telemetry", r.telemetry_path);
  w.end_object();
  w.key("findings");
  w.begin_array();
  for (const auto& f : r.findings) {
    w.begin_object();
    w.kv("severity", f.severity);
    w.kv("message", f.message);
    w.end_object();
  }
  w.end_array();
  w.key("pipeline");
  w.begin_object();
  for (const auto& [name, value] : r.metrics.counters) {
    if (name.rfind("pipe.", 0) == 0) w.kv(name, value);
  }
  w.end_object();
  w.key("latency");
  w.begin_array();
  for (const auto& row : r.latency) {
    w.begin_object();
    w.kv("family", row.h->family);
    w.key("labels");
    w.begin_object();
    for (const auto& l : row.h->labels) w.kv(l.key, l.value);
    w.end_object();
    w.kv("count", row.count);
    json_number_or_null(w, "mean", row.mean);
    json_number_or_null(w, "p50", row.p50);
    json_number_or_null(w, "p95", row.p95);
    json_number_or_null(w, "p99", row.p99);
    w.end_object();
  }
  w.end_array();
  if (r.has_serve) {
    w.key("serve");
    w.begin_object();
    w.kv("sources_degraded", r.serve_degraded);
    w.kv("sources_stalled", r.serve_stalled);
    w.kv("retry_attempts", r.serve_retry_attempts);
    w.kv("retry_recovered", r.serve_retry_recovered);
    w.kv("retry_exhausted", r.serve_retry_exhausted);
    w.kv("checkpoint_age_ticks", r.serve_ckpt_age);
    w.kv("checkpoint_interval_ticks", r.serve_ckpt_interval);
    w.kv("checkpoint_failures", r.serve_ckpt_failures);
    w.kv("checkpoint_bytes", r.serve_ckpt_bytes);
    json_number_or_null(w, "checkpoint_amplification",
                        r.serve_ckpt_amplification);
    if (const HistRow* h = r.serve_ckpt_write_us; h != nullptr) {
      json_number_or_null(w, "checkpoint_write_us_p50", h->p50);
      json_number_or_null(w, "checkpoint_write_us_p99", h->p99);
    }
    w.kv("frontier_lag_bytes", r.serve_watermark_lag_bytes);
    w.end_object();
  }
  w.key("cache");
  w.begin_object();
  w.kv("hits", r.cache_hits);
  w.kv("misses", r.cache_misses);
  w.kv("evictions", r.cache_evictions);
  json_number_or_null(w, "hit_ratio", r.cache_hit_ratio);
  w.end_object();
  w.key("impact");
  w.begin_object();
  w.kv("replays", r.impact_replays);
  w.kv("boundary_jobs", r.impact_boundary_jobs);
  w.end_object();
  w.key("ingest");
  w.begin_object();
  w.key("dropped_by_reason");
  w.begin_object();
  for (const auto& [name, value] : r.metrics.counters) {
    const auto parsed = obs::parse_labeled_name(name);
    if (parsed.family != "ingest.lines_dropped") continue;
    std::string reason = "(unlabeled)";
    for (const auto& l : parsed.labels) {
      if (l.key == "reason") reason = l.value;
    }
    w.kv(reason, value);
  }
  w.end_object();
  w.kv("dropped_total", r.dropped_total);
  json_number_or_null(w, "drop_rate", r.drop_rate);
  if (const auto it = r.metrics.gauges.find("ingest.prefetch.in_flight");
      it != r.metrics.gauges.end()) {
    w.kv("prefetch_peak_depth", it->second.max);
  }
  w.end_object();
  if (!r.telemetry_path.empty()) {
    w.key("telemetry");
    w.begin_object();
    w.kv("samples", static_cast<std::uint64_t>(r.samples.size()));
    if (!r.samples.empty()) {
      const auto& first = r.samples.front();
      const auto& last = r.samples.back();
      w.kv("duration_ms", last.elapsed_ms);
      double peak_rss = 0.0;
      for (const auto& s : r.samples) peak_rss = std::max(peak_rss, s.rss_kb);
      w.kv("rss_kb_start", first.rss_kb);
      w.kv("rss_kb_peak", peak_rss);
      w.kv("rss_kb_final", last.rss_kb);
      w.kv("cpu_s_final", last.cpu_s);
      w.key("timeline");
      w.begin_array();
      for (const auto& s : r.samples) {
        w.begin_object();
        w.kv("seq", s.seq);
        w.kv("elapsed_ms", s.elapsed_ms);
        w.kv("reason", s.reason);
        w.kv("rss_kb", s.rss_kb);
        w.kv("cpu_s", s.cpu_s);
        w.kv("open_fds", s.open_fds);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
  std::string out = std::move(w).str();
  out += '\n';
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_file;
  std::string telemetry_file;
  std::string out_file;
  std::string format = "md";

  cli::Args args("gpures-health", argc, argv);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (arg == "--metrics") {
      metrics_file = args.value();
    } else if (arg == "--telemetry") {
      telemetry_file = args.value();
    } else if (arg == "--out") {
      out_file = args.value();
    } else if (arg == "--format") {
      format = args.value();
      if (format != "md" && format != "json") {
        std::fprintf(stderr, "gpures-health: --format wants md or json\n");
        return 2;
      }
    } else {
      args.unknown(usage);
    }
  }
  if (metrics_file.empty()) {
    usage();
    return 2;
  }

  Report report;
  report.metrics_path = metrics_file;
  report.telemetry_path = telemetry_file;
  auto metrics = load_metrics(metrics_file);
  if (!metrics.ok()) {
    std::fprintf(stderr, "gpures-health: %s\n",
                 metrics.error().message.c_str());
    return 1;
  }
  report.metrics = std::move(metrics).take();
  if (!telemetry_file.empty()) {
    auto samples = load_telemetry(telemetry_file);
    if (!samples.ok()) {
      std::fprintf(stderr, "gpures-health: %s\n",
                   samples.error().message.c_str());
      return 1;
    }
    report.samples = std::move(samples).take();
  }
  derive(report);

  const std::string rendered =
      format == "json" ? render_json(report) : render_md(report);
  if (out_file.empty()) {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    return 0;
  }
  const auto st = common::write_text_file(out_file, rendered);
  if (!st.ok()) {
    std::fprintf(stderr, "gpures-health: %s\n", st.error().message.c_str());
    return 1;
  }
  return 0;
}
