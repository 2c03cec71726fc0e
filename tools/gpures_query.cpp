// gpures-query: answer resilience questions from a gpures.idx artifact
// without re-running the pipeline.
//
//   gpures-query --index gpures.idx [--node gpua042] [--xid 63]
//                [--from 2022-10-01 --to 2023-01-01]
//                [--report count|impact|availability|all]
//                [--format json|csv|md] [--window S] [--node-level]
//                [--cache N] [--metrics FILE[.prom]] [--slow-query-us N]
//                [--log-json FILE] [--log-level L] [--info]
//
// The artifact comes from `gpures-analyze --data DIR --write-index FILE`.
// Query semantics match the batch pipeline exactly (see src/index/query.h);
// the reader memory-maps the file, so repeated invocations are served from
// the page cache.  Exit status: 0 on success, 1 on a bad/corrupt index or
// unknown node, 2 on usage errors.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "cli.h"
#include "common/io.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/time.h"
#include "index/query.h"
#include "index/reader.h"
#include "obs/expfmt.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "xid/xid.h"

using namespace gpures;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gpures-query --index FILE [options]\n"
      "  --index FILE     gpures.idx artifact (required)\n"
      "  --node NAME      restrict to one node (e.g. gpua042)\n"
      "  --xid N          restrict to one XID (family-merged: 120 -> 119)\n"
      "  --from TS        window start, YYYY-MM-DD[ HH:MM:SS]\n"
      "  --to TS          window end (exclusive); default: recorded study\n"
      "                   window\n"
      "  --report WHAT    count|impact|availability|all  (default all)\n"
      "  --format F       json|csv|md                    (default md)\n"
      "  --window S       attribution window override (default: recorded)\n"
      "  --node-level     node-level attribution (default: recorded)\n"
      "  --cache N        LRU result-cache capacity (0 disables; default 64)\n"
      "  --metrics FILE   write query.* metrics snapshot; a .prom suffix\n"
      "                   selects Prometheus text exposition\n"
      "  --slow-query-us N\n"
      "                   log queries slower than N microseconds (0 = off)\n"
      "  --log-json FILE  mirror log records to FILE as JSONL\n"
      "  --log-level L    debug|info|warn|error (default info)\n"
      "  --info           print artifact metadata and exit\n");
}

common::TimePoint parse_time_arg(const char* flag, std::string_view s) {
  const auto t = common::parse_iso(s);
  if (!t.has_value()) {
    std::fprintf(stderr,
                 "gpures-query: %s wants YYYY-MM-DD[ HH:MM:SS], got '%s'\n",
                 flag, std::string(s).c_str());
    std::exit(2);
  }
  return *t;
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

void render_md(const index::QueryEngine& eng, const index::Predicate& p,
               const index::IndexReader& reader, bool want_count,
               bool want_impact, bool want_avail,
               const index::CountResult* count,
               const index::ImpactResult* impact,
               const index::AvailabilityResult* avail) {
  std::printf("# gpures-query\n\n");
  std::printf("- index: %s\n", reader.path().c_str());
  std::printf("- window: %s .. %s (%.2f h)\n",
              common::format_iso(p.from).c_str(),
              common::format_iso(p.to).c_str(),
              common::to_hours(p.to - p.from));
  if (p.node.has_value()) {
    std::printf("- node: %s\n",
                std::string(reader.node_name(
                                static_cast<std::uint32_t>(*p.node)))
                    .c_str());
  }
  if (p.xid.has_value()) std::printf("- xid: %u\n", unsigned{*p.xid});
  std::printf("- attribution: %s, window %llds\n",
              eng.node_level() ? "node" : "device",
              static_cast<long long>(eng.effective_window()));
  if (want_count && count != nullptr) {
    std::printf("\n## Errors\n\n");
    std::printf("| errors | MTBE system (h) | MTBE per node (h) |\n");
    std::printf("|---|---|---|\n");
    std::printf("| %llu | %s | %s |\n",
                static_cast<unsigned long long>(count->count),
                fmt_or_dash(count->mtbe_system_h).c_str(),
                fmt_or_dash(count->mtbe_per_node_h).c_str());
  }
  if (want_impact && impact != nullptr) {
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
  if (want_avail && avail != nullptr) {
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

void render_csv(bool want_count, bool want_impact, bool want_avail,
                const index::CountResult* count,
                const index::ImpactResult* impact,
                const index::AvailabilityResult* avail) {
  const auto num = [](double v) {
    if (!std::isfinite(v)) return std::string();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return std::string(buf);
  };
  if (want_count && count != nullptr) {
    std::printf("report,count,window_hours,mtbe_system_h,mtbe_per_node_h\n");
    std::printf("count,%llu,%s,%s,%s\n",
                static_cast<unsigned long long>(count->count),
                num(count->window_hours).c_str(),
                num(count->mtbe_system_h).c_str(),
                num(count->mtbe_per_node_h).c_str());
  }
  if (want_impact && impact != nullptr) {
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
  if (want_avail && avail != nullptr) {
    std::printf(
        "report,intervals,hours_lost,mttr_h,mttf_h,availability\n");
    std::printf("availability,%llu,%s,%s,%s,%s\n",
                static_cast<unsigned long long>(avail->intervals),
                num(avail->hours_lost).c_str(), num(avail->mttr_h).c_str(),
                num(avail->mttf_h).c_str(), num(avail->availability).c_str());
  }
}

void render_json(const index::QueryEngine& eng, const index::Predicate& p,
                 const index::IndexReader& reader, bool want_count,
                 bool want_impact, bool want_avail,
                 const index::CountResult* count,
                 const index::ImpactResult* impact,
                 const index::AvailabilityResult* avail) {
  common::JsonWriter w;
  const auto fin = [&w](double v) {
    std::isfinite(v) ? w.value(v) : w.null();
  };
  w.begin_object();
  w.key("query");
  w.begin_object();
  w.kv("index", reader.path());
  w.kv("from", common::format_iso(p.from));
  w.kv("to", common::format_iso(p.to));
  w.key("node");
  if (p.node.has_value()) {
    w.value(std::string_view(
        reader.node_name(static_cast<std::uint32_t>(*p.node))));
  } else {
    w.null();
  }
  w.key("xid");
  if (p.xid.has_value()) {
    w.value(std::uint64_t{*p.xid});
  } else {
    w.null();
  }
  w.kv("attribution", eng.node_level() ? "node" : "device");
  w.kv("attribution_window_s",
       static_cast<std::int64_t>(eng.effective_window()));
  w.end_object();
  if (want_count && count != nullptr) {
    w.key("count");
    w.begin_object();
    w.kv("errors", count->count);
    w.kv("window_hours", count->window_hours);
    w.key("mtbe_system_h");
    fin(count->mtbe_system_h);
    w.key("mtbe_per_node_h");
    fin(count->mtbe_per_node_h);
    w.end_object();
  }
  if (want_impact && impact != nullptr) {
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
  if (want_avail && avail != nullptr) {
    w.key("availability");
    w.begin_object();
    w.kv("intervals", avail->intervals);
    w.kv("hours_lost", avail->hours_lost);
    w.key("mttr_h");
    fin(avail->mttr_h);
    w.key("mttf_h");
    fin(avail->mttf_h);
    w.key("availability");
    fin(avail->availability);
    w.end_object();
  }
  w.end_object();
  std::printf("%s\n", std::move(w).str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string index_file;
  std::string node_name;
  std::string report = "all";
  std::string format = "md";
  std::string metrics_file;
  cli::LogFlags log_flags;
  bool info = false;
  bool have_from = false;
  bool have_to = false;
  index::Predicate pred;
  index::QueryOptions qopts;

  cli::Args args("gpures-query", argc, argv);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (arg == "--index") {
      index_file = args.value();
    } else if (arg == "--node") {
      node_name = args.value();
    } else if (arg == "--xid") {
      const long long x = args.count();
      if (x > 0xffff) {
        std::fprintf(stderr, "gpures-query: --xid must be in [0, 65535]\n");
        return 2;
      }
      pred.xid = static_cast<std::uint16_t>(x);
    } else if (arg == "--from") {
      pred.from = parse_time_arg("--from", args.value());
      have_from = true;
    } else if (arg == "--to") {
      pred.to = parse_time_arg("--to", args.value());
      have_to = true;
    } else if (arg == "--report") {
      report = args.value();
    } else if (arg == "--format") {
      format = args.value();
    } else if (arg == "--window") {
      qopts.attribution_window = args.count();
    } else if (arg == "--node-level") {
      qopts.attribution = 1;
    } else if (arg == "--cache") {
      qopts.cache_capacity = static_cast<std::size_t>(args.count());
    } else if (arg == "--metrics") {
      metrics_file = args.value();
    } else if (arg == "--slow-query-us") {
      qopts.slow_query_us = static_cast<double>(args.count());
    } else if (arg == "--log-json") {
      log_flags.json_file = args.value();
    } else if (arg == "--log-level") {
      log_flags.level = cli::parse_log_level("gpures-query", args.value());
    } else if (arg == "--info") {
      info = true;
    } else {
      args.unknown(usage);
    }
  }
  if (index_file.empty()) {
    usage();
    return 2;
  }
  const bool want_count = report == "all" || report == "count";
  const bool want_impact = report == "all" || report == "impact";
  const bool want_avail = report == "all" || report == "availability";
  if (!want_count && !want_impact && !want_avail) {
    std::fprintf(stderr,
                 "gpures-query: --report must be count, impact, "
                 "availability, or all\n");
    return 2;
  }
  if (format != "json" && format != "csv" && format != "md") {
    std::fprintf(stderr, "gpures-query: --format must be json, csv, or md\n");
    return 2;
  }

  const auto logger = cli::start_logger("gpures-query", log_flags);
  if (!logger) return 1;

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
                1u);
    std::printf("  study window: %s .. %s (op from %s)\n",
                common::format_iso(meta.periods.pre.begin).c_str(),
                common::format_iso(meta.periods.op.end).c_str(),
                common::format_iso(meta.periods.op.begin).c_str());
    std::printf("  nodes: %u, attribution: %s, window: %llds\n",
                meta.node_count, meta.attribution == 0 ? "device" : "node",
                static_cast<long long>(meta.attribution_window));
    std::printf("  errors: %llu (%llu exposure entries), jobs: %llu, "
                "unavailability intervals: %llu\n",
                static_cast<unsigned long long>(meta.error_count),
                static_cast<unsigned long long>(meta.loc_entry_count),
                static_cast<unsigned long long>(meta.job_count),
                static_cast<unsigned long long>(meta.unavail_count));
    return 0;
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

  obs::MetricsRegistry registry;
  if (!metrics_file.empty()) qopts.metrics = &registry;
  index::QueryEngine engine(reader, qopts);
  if (!have_from) pred.from = meta.periods.pre.begin;
  if (!have_to) pred.to = meta.periods.op.end;
  if (pred.to < pred.from) {
    std::fprintf(stderr, "gpures-query: --to must not precede --from\n");
    return 2;
  }

  index::CountResult count;
  index::ImpactResult impact;
  index::AvailabilityResult avail;
  if (want_count) count = engine.count(pred);
  if (want_impact) impact = engine.impact(pred);
  if (want_avail) avail = engine.availability(pred);

  if (format == "md") {
    render_md(engine, pred, reader, want_count, want_impact, want_avail,
              &count, &impact, &avail);
  } else if (format == "csv") {
    render_csv(want_count, want_impact, want_avail, &count, &impact, &avail);
  } else {
    render_json(engine, pred, reader, want_count, want_impact, want_avail,
                &count, &impact, &avail);
  }

  const bool wrote = cli::write_artifact(
      "gpures-query", metrics_file,
      obs::render_metrics_file(registry, metrics_file));
  return wrote ? 0 : 1;
}
