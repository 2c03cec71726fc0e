// gpures-query: answer resilience questions from a gpures.idx artifact
// without re-running the pipeline.
//
//   gpures-query --index gpures.idx [--node gpua042] [--xid 63]
//                [--from 2022-10-01 --to 2023-01-01] [options]
//
// The artifact comes from `gpures-analyze --data DIR --write-index FILE`.
// Query semantics match the batch pipeline exactly (see src/index/query.h);
// the reader memory-maps the file, so repeated invocations are served from
// the page cache.  Exit status: 0 on success, 1 on a bad/corrupt index or
// unknown node, 2 on usage errors.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "cli.h"
#include "common/io.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/time.h"
#include "index/query.h"
#include "index/reader.h"
#include "obs/log.h"
#include "xid/xid.h"

using namespace gpures;

namespace {

constexpr std::string_view kTool = "gpures-query";

/// --from/--to: a YYYY-MM-DD[ HH:MM:SS] timestamp.
cli::Flag time_flag(std::string name, std::optional<common::TimePoint>& t,
                    std::string help) {
  return {std::move(name), "TS", std::move(help), [&t](cli::Args& a) {
            const char* v = a.value();
            t = common::parse_iso(v);
            if (!t) {
              a.fail(a.flag() + " wants YYYY-MM-DD[ HH:MM:SS], got '" + v +
                     "'");
            }
          }};
}

std::string fmt_or_dash(double v) {
  if (!std::isfinite(v)) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

const char* family_abbrev(xid::Code code) {
  const auto d = xid::describe(code);
  return d.has_value() ? d->abbrev.data() : "?";
}

/// The verbs --report asked for, answered.
struct Answers {
  std::optional<index::CountResult> count;
  std::optional<analysis::JobImpact> impact;
  std::optional<index::AvailabilityResult> avail;
};

void render_md(const index::QueryEngine& eng, const index::Predicate& p,
               const index::IndexReader& reader, const Answers& a) {
  const auto& [count, impact, avail] = a;
  std::printf("# gpures-query\n\n");
  std::printf("- index: %s\n", reader.path().c_str());
  std::printf("- window: %s .. %s (%.2f h)\n",
              common::format_iso(p.from).c_str(),
              common::format_iso(p.to).c_str(),
              common::to_hours(p.to - p.from));
  if (p.node.has_value()) {
    const auto name = reader.node_name(static_cast<std::uint32_t>(*p.node));
    std::printf("- node: %.*s\n", static_cast<int>(name.size()), name.data());
  }
  if (p.xid.has_value()) std::printf("- xid: %u\n", unsigned{*p.xid});
  std::printf("- attribution: %s, window %llds\n",
              eng.node_level() ? "node" : "device",
              static_cast<long long>(eng.effective_window()));
  if (count) {
    std::printf("\n## Errors\n\n");
    std::printf("| errors | MTBE system (h) | MTBE per node (h) |\n");
    std::printf("|---|---|---|\n");
    std::printf("| %llu | %s | %s |\n",
                static_cast<unsigned long long>(count->count),
                fmt_or_dash(count->mtbe_system_h).c_str(),
                fmt_or_dash(count->mtbe_per_node_h).c_str());
  }
  if (impact) {
    std::printf("\n## Job impact\n\n");
    std::printf("jobs analyzed: %llu, failed (any cause): %llu, "
                "GPU-failed: %llu\n\n",
                static_cast<unsigned long long>(impact->jobs_analyzed),
                static_cast<unsigned long long>(impact->failed_jobs_total),
                static_cast<unsigned long long>(impact->gpu_failed_jobs));
    std::printf("| XID | family | encountering | failed | P(fail) | 95%% CI |\n");
    std::printf("|---|---|---|---|---|---|\n");
    for (const auto& r : impact->rows) {
      std::printf("| %u | %s | %llu | %llu | %s | [%s, %s] |\n",
                  unsigned{xid::to_number(r.code)}, family_abbrev(r.code),
                  static_cast<unsigned long long>(r.encountering_jobs),
                  static_cast<unsigned long long>(r.failed_jobs),
                  fmt_or_dash(r.failure_probability).c_str(),
                  fmt_or_dash(r.ci.lo).c_str(), fmt_or_dash(r.ci.hi).c_str());
    }
  }
  if (avail) {
    std::printf("\n## Availability\n\n");
    std::printf(
        "| intervals | node-hours lost | MTTR (h) | MTTF (h) | availability "
        "|\n");
    std::printf("|---|---|---|---|---|\n");
    std::printf("| %llu | %.4f | %s | %s | %s |\n",
                static_cast<unsigned long long>(avail->intervals),
                avail->hours_lost, fmt_or_dash(avail->mttr_h).c_str(),
                fmt_or_dash(avail->mttf_h).c_str(),
                fmt_or_dash(avail->availability).c_str());
  }
}

void render_csv(const Answers& a) {
  const auto& [count, impact, avail] = a;
  const auto num = [](double v) {
    if (!std::isfinite(v)) return std::string();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return std::string(buf);
  };
  if (count) {
    std::printf("report,count,window_hours,mtbe_system_h,mtbe_per_node_h\n");
    std::printf("count,%llu,%s,%s,%s\n",
                static_cast<unsigned long long>(count->count),
                num(count->window_hours).c_str(),
                num(count->mtbe_system_h).c_str(),
                num(count->mtbe_per_node_h).c_str());
  }
  if (impact) {
    std::printf(
        "report,xid,encountering_jobs,failed_jobs,failure_probability,ci_lo,"
        "ci_hi\n");
    for (const auto& r : impact->rows) {
      std::printf("impact,%u,%llu,%llu,%s,%s,%s\n",
                  unsigned{xid::to_number(r.code)},
                  static_cast<unsigned long long>(r.encountering_jobs),
                  static_cast<unsigned long long>(r.failed_jobs),
                  num(r.failure_probability).c_str(), num(r.ci.lo).c_str(),
                  num(r.ci.hi).c_str());
    }
  }
  if (avail) {
    std::printf(
        "report,intervals,hours_lost,mttr_h,mttf_h,availability\n");
    std::printf("availability,%llu,%s,%s,%s,%s\n",
                static_cast<unsigned long long>(avail->intervals),
                num(avail->hours_lost).c_str(), num(avail->mttr_h).c_str(),
                num(avail->mttf_h).c_str(), num(avail->availability).c_str());
  }
}

void render_json(const index::QueryEngine& eng, const index::Predicate& p,
                 const index::IndexReader& reader, const Answers& a) {
  const auto& [count, impact, avail] = a;
  common::JsonWriter w;
  // A non-finite value (a clean window's MTBE) is null.
  const auto fin = [&w](std::string_view key, double v) {
    w.key(key);
    std::isfinite(v) ? w.value(v) : w.null();
  };
  w.begin_object();
  w.key("query");
  w.begin_object();
  w.kv("index", reader.path());
  w.kv("from", common::format_iso(p.from));
  w.kv("to", common::format_iso(p.to));
  w.key("node");
  p.node ? w.value(reader.node_name(static_cast<std::uint32_t>(*p.node)))
         : w.null();
  w.key("xid");
  p.xid ? w.value(std::uint64_t{*p.xid}) : w.null();
  w.kv("attribution", eng.node_level() ? "node" : "device");
  w.kv("attribution_window_s",
       static_cast<std::int64_t>(eng.effective_window()));
  w.end_object();
  if (count) {
    w.key("count");
    w.begin_object();
    w.kv("errors", count->count);
    w.kv("window_hours", count->window_hours);
    fin("mtbe_system_h", count->mtbe_system_h);
    fin("mtbe_per_node_h", count->mtbe_per_node_h);
    w.end_object();
  }
  if (impact) {
    w.key("impact");
    w.begin_object();
    w.kv("jobs_analyzed", impact->jobs_analyzed);
    w.kv("failed_jobs_total", impact->failed_jobs_total);
    w.kv("gpu_failed_jobs", impact->gpu_failed_jobs);
    w.key("rows");
    w.begin_array();
    for (const auto& r : impact->rows) {
      w.begin_object();
      w.kv("xid", std::uint64_t{xid::to_number(r.code)});
      w.kv("encountering_jobs", r.encountering_jobs);
      w.kv("failed_jobs", r.failed_jobs);
      w.kv("failure_probability", r.failure_probability);
      w.kv("ci_lo", r.ci.lo);
      w.kv("ci_hi", r.ci.hi);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  if (avail) {
    w.key("availability");
    w.begin_object();
    w.kv("intervals", avail->intervals);
    w.kv("hours_lost", avail->hours_lost);
    fin("mttr_h", avail->mttr_h);
    fin("mttf_h", avail->mttf_h);
    fin("availability", avail->availability);
    w.end_object();
  }
  w.end_object();
  std::printf("%s\n", std::move(w).str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  cli::Run run(kTool);
  std::string index_file;
  std::string node_name;
  std::string report = "all";
  std::string format = "md";
  bool info = false;
  std::optional<common::TimePoint> from;
  std::optional<common::TimePoint> to;
  index::Predicate pred;
  index::QueryOptions qopts;
  cli::parse(kTool, argc, argv, {
      cli::required("--index", "FILE", index_file, "gpures.idx artifact"),
      cli::text("--node", "NAME", node_name,
                "restrict to one node (e.g. gpua042)"),
      {"--xid", "N", "restrict to one XID (family-merged: 120 -> 119)",
       [&pred](cli::Args& a) {
         const long long x = a.count();
         if (x > 0xffff) a.fail("--xid must be in [0, 65535]");
         pred.xid = static_cast<std::uint16_t>(x);
       }},
      time_flag("--from", from, "window start, YYYY-MM-DD[ HH:MM:SS]"),
      time_flag("--to", to,
                "window end (exclusive); default: recorded study window"),
      {"--report", "WHAT", "count|impact|availability|all (default all)",
       [&report](cli::Args& a) {
         report = a.value();
         if (report != "all" && report != "count" && report != "impact" &&
             report != "availability") {
           a.fail("--report must be count, impact, availability, or all");
         }
       }},
      {"--format", "F", "json|csv|md (default md)",
       [&format](cli::Args& a) {
         format = a.value();
         if (format != "json" && format != "csv" && format != "md") {
           a.fail("--format must be json, csv, or md");
         }
       }},
      cli::count("--window", "S", qopts.attribution_window,
                 "attribution window override (default: recorded)"),
      cli::toggle("--node-level", qopts.attribution, 1,
                  "node-level attribution (default: recorded)"),
      cli::count("--cache", "N", qopts.cache_capacity,
                 "LRU result-cache capacity (0 disables; default 64)"),
      cli::shared::metrics(run.metrics_file),
      cli::count("--slow-query-us", "N", qopts.slow_query_us,
                 "log queries slower than N microseconds (0 = off)"),
      cli::shared::log_json(run.log),
      cli::shared::log_level(run.log),
      cli::toggle("--info", info, true, "print artifact metadata and exit"),
  });
  if (!run.start()) return 1;

  auto opened = index::IndexReader::open(index_file);
  if (!opened.ok()) {
    obs::Logger::current().error("query", opened.error().message);
    return 1;
  }
  const index::IndexReader reader = std::move(opened).take();
  const auto& meta = reader.meta();

  if (info) {
    std::printf("gpures index %s (%llu bytes, format v%u)\n",
                index_file.c_str(),
                static_cast<unsigned long long>(reader.file_bytes()),
                index::kFormatVersion);
    std::printf("  study window: %s .. %s (op from %s)\n",
                common::format_iso(meta.periods.pre.begin).c_str(),
                common::format_iso(meta.periods.op.end).c_str(),
                common::format_iso(meta.periods.op.begin).c_str());
    const bool node_level =
        meta.attribution == analysis::Attribution::kNodeLevel;
    std::printf("  nodes: %u, attribution: %s, window: %llds\n",
                meta.node_count, node_level ? "node" : "device",
                static_cast<long long>(meta.attribution_window));
    std::printf("  errors: %llu (%llu exposure entries), jobs: %llu, "
                "unavailability intervals: %llu\n",
                static_cast<unsigned long long>(meta.error_count),
                static_cast<unsigned long long>(meta.loc_entry_count),
                static_cast<unsigned long long>(meta.job_count),
                static_cast<unsigned long long>(meta.unavail_count));
    std::printf("  exposed jobs: %llu, failed jobs: %llu\n",
                static_cast<unsigned long long>(meta.exposed_count),
                static_cast<unsigned long long>(meta.failed_count));
    return run.finish() ? 0 : 1;
  }

  if (!node_name.empty()) {
    const auto idx = reader.node_index(node_name);
    if (!idx.has_value()) {
      obs::Logger::current().error("query", "node is not in this index",
                                   {{"node", node_name}});
      return 1;
    }
    pred.node = *idx;
  }

  if (!run.metrics_file.empty()) qopts.metrics = &run.registry;
  index::QueryEngine engine(reader, qopts);
  pred.from = from.value_or(meta.periods.pre.begin);
  pred.to = to.value_or(meta.periods.op.end);
  if (pred.to < pred.from) {
    std::fprintf(stderr, "gpures-query: --to must not precede --from\n");
    return 2;
  }

  const auto wants = [&](std::string_view verb) {
    return report == "all" || report == verb;
  };
  Answers answers;
  if (wants("count")) answers.count = engine.count(pred);
  if (wants("impact")) answers.impact = engine.impact(pred);
  if (wants("availability")) answers.avail = engine.availability(pred);

  if (format == "md") {
    render_md(engine, pred, reader, answers);
  } else if (format == "csv") {
    render_csv(answers);
  } else {
    render_json(engine, pred, reader, answers);
  }

  return run.finish() ? 0 : 1;
}
