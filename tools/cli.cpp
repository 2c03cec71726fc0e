#include "cli.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "analysis/export.h"
#include "common/strings.h"
#include "index/writer.h"
#include "obs/expfmt.h"
#include "obs/telemetry.h"
#include "simd/scan.h"

namespace gpures::cli {

namespace {

/// Log component of a tool: its name without the "gpures-" prefix.
std::string component(std::string_view tool) {
  constexpr std::string_view kPrefix = "gpures-";
  if (tool.substr(0, kPrefix.size()) == kPrefix) {
    tool.remove_prefix(kPrefix.size());
  }
  return std::string(tool);
}

/// The --report choices: "all|none|" then analysis::report_catalog()'s
/// names in catalog order.
std::string report_choices() {
  std::string out = "all|none";
  for (const auto& entry : analysis::report_catalog()) {
    out += '|';
    out += entry.name;
  }
  return out;
}

/// The usage text, generated from the flag table: the required flags on
/// the first line, then one entry per flag with its help wrapped at column
/// 79 and indented to column 25.
void print_usage(std::string_view tool, const std::vector<Flag>& flags) {
  constexpr std::size_t kIndent = 25;
  constexpr std::size_t kWidth = 79;
  std::string out = "usage: " + std::string(tool);
  for (const auto& f : flags) {
    if (f.required != nullptr) out += " " + f.name + " " + f.meta;
  }
  out += " [options]\n";
  for (const auto& f : flags) {
    std::string line = "  " + f.name + (f.meta.empty() ? "" : " " + f.meta);
    if (line.size() + 1 >= kIndent) {
      out += line + '\n';
      line.clear();
    }
    line.resize(kIndent, ' ');
    std::size_t words = 0;
    for (const auto word : common::split(f.help, ' ')) {
      if (words > 0 && line.size() + 1 + word.size() > kWidth) {
        out += line + '\n';
        line.assign(kIndent, ' ');
        words = 0;
      }
      if (words++ > 0) line += ' ';
      line += word;
    }
    out += line + '\n';
  }
  std::fputs(out.c_str(), stderr);
}

}  // namespace

Args::Args(std::string_view tool, int argc, char** argv)
    : tool_(tool), argc_(argc), argv_(argv) {}

bool Args::next() {
  if (++i_ >= argc_) return false;
  flag_ = argv_[i_];
  return true;
}

const char* Args::value() {
  if (i_ + 1 >= argc_) fail(flag_ + " needs a value");
  return argv_[++i_];
}

long long Args::count(long long min) {
  const long long v = parse_count(tool_, flag_.c_str(), value());
  if (v < min) fail(flag_ + " must be >= " + std::to_string(min));
  return v;
}

std::uint32_t Args::threads() {
  const long long n = count();
  if (n > 256) fail(flag_ + " must be in [0, 256]");
  return static_cast<std::uint32_t>(n);
}

double Args::number() {
  const char* s = value();
  const double v = common::parse_double(s);
  if (!std::isfinite(v) || v < 0) {
    fail(flag_ + " wants a non-negative number, got '" + s + "'");
  }
  return v;
}

void Args::fail(const std::string& what) const {
  std::fprintf(stderr, "%s: %s\n", tool_.c_str(), what.c_str());
  std::exit(2);
}

void parse(std::string_view tool, int argc, char** argv,
           const std::vector<Flag>& flags) {
  Args args(tool, argc, argv);
  while (args.next()) {
    const auto it = std::ranges::find(flags, args.flag(), &Flag::name);
    if (it != flags.end()) {
      it->set(args);
    } else if (args.flag() == "--help" || args.flag() == "-h") {
      print_usage(tool, flags);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n",
                   std::string(tool).c_str(), args.flag().c_str());
      print_usage(tool, flags);
      std::exit(2);
    }
  }
  for (const auto& f : flags) {
    if (f.required != nullptr && f.required->empty()) {
      print_usage(tool, flags);
      std::exit(2);
    }
  }
}

Flag text(std::string name, std::string meta, std::string& target,
          std::string help) {
  return {std::move(name), std::move(meta), std::move(help),
          [&target](Args& a) { target = a.value(); }};
}

Flag required(std::string name, std::string meta, std::string& target,
              std::string help) {
  auto flag = text(std::move(name), std::move(meta), target,
                   std::move(help) + " (required)");
  flag.required = &target;
  return flag;
}

Flag output(std::string name, std::string meta, std::string& target,
            std::string help) {
  return {std::move(name), std::move(meta), std::move(help),
          [&target](Args& a) {
            target = a.value();
            const auto dir = std::filesystem::path(target).parent_path();
            std::error_code ec;
            if (!dir.empty() && !std::filesystem::is_directory(dir, ec)) {
              a.fail(a.flag() + " " + target + ": no directory " +
                     dir.string());
            }
          }};
}

Flag number(std::string name, std::string meta, double& target,
            std::string help) {
  return {std::move(name), std::move(meta), std::move(help),
          [&target](Args& a) { target = a.number(); }};
}

namespace shared {

Flag threads(std::uint32_t& n) {
  return {"--threads", "N",
          "worker threads (0 = serial; output is byte-identical at any "
          "value)",
          [&n](Args& a) { n = a.threads(); }};
}

Flag coalesce_window(analysis::AnalysisKnobs& k) {
  return count("--coalesce-window", "S", k.coalescer.window,
               "Stage II coalescing window in seconds (default 30)");
}

Flag window(analysis::AnalysisKnobs& k) {
  return count("--window", "S", k.attribution_window,
               "job-failure attribution window in seconds (default 20)");
}

Flag node_level(analysis::AnalysisKnobs& k) {
  return toggle("--node-level", k.attribution,
                analysis::Attribution::kNodeLevel,
                "node-level attribution (default: device)");
}

Flag report(EmitRequest& e) {
  return {"--report", "WHAT",
          "reports to print (default all): " + report_choices(),
          [&e](Args& a) {
            const std::string_view v = a.value();
            const auto catalog = analysis::report_catalog();
            if (v != "all" && v != "none" &&
                std::none_of(catalog.begin(), catalog.end(),
                             [&](const auto& r) { return v == r.name; })) {
              a.fail("--report must be " + report_choices());
            }
            e.report = v;
          }};
}

Flag write_index(EmitRequest& e) {
  return output("--write-index", "FILE", e.index_file,
                "write the binary error index (gpures.idx) for gpures-query; "
                "deterministic across --threads");
}

Flag export_json(EmitRequest& e) {
  return output("--export-json", "FILE", e.json_file,
                "write everything as one JSON document");
}

Flag ingest_policy(analysis::IngestPolicy& p) {
  return {"--ingest-policy", "P",
          std::string("strict: fail on the first corrupt input; lenient: "
                      "quarantine corrupt lines, degrade unreadable sources "
                      "and keep going (default ") +
              std::string(analysis::to_string(p)) + ")",
          [&p](Args& a) {
            const auto policy = analysis::parse_ingest_policy(a.value());
            if (!policy) a.fail("--ingest-policy must be strict or lenient");
            p = *policy;
          }};
}

Flag error_budget(std::uint64_t& n) {
  return count("--error-budget", "N", n,
               "lenient: abort if any one file exceeds N quarantined lines / "
               "rejected rows (0 = off)");
}

Flag quality_report(std::string& file) {
  return output("--quality-report", "FILE", file,
                "write the data-quality accounting as JSON");
}

Flag chaos_io_fault(std::optional<common::IoFaultPlan>& plan) {
  return {"--chaos-io-fault", "SPEC",
          "testing: fail reads of paths containing SUBSTRING after BYTES, "
          "as SUBSTRING:BYTES[:KIND[:TIMES]] with KIND "
          "fail|transient|eintr|short-read (see common/io.h)",
          [&plan](Args& a) {
            auto parsed = common::parse_io_fault_spec(a.value());
            if (!parsed.ok()) {
              a.fail("--chaos-io-fault: " + parsed.error().message);
            }
            plan = std::move(parsed).take();
          }};
}

Flag metrics(std::string& file) {
  return output("--metrics", "FILE", file,
                "write the metrics registry snapshot; a .prom suffix selects "
                "Prometheus text exposition instead of JSON");
}

Flag trace(std::string& file) {
  return output("--trace", "FILE", file,
                "write a Chrome Trace Event JSON timeline");
}

Flag log_json(LogFlags& log) {
  return output("--log-json", "FILE", log.json_file,
                "mirror log records to FILE as JSONL");
}

Flag log_level(LogFlags& log) {
  return {"--log-level", "L", "debug|info|warn|error (default info)",
          [&log](Args& a) {
            const auto level = obs::parse_log_level(a.value());
            if (!level) a.fail("--log-level must be debug|info|warn|error");
            log.level = *level;
          }};
}

Flag quiet(LogFlags& log) {
  return toggle("--quiet", log.quiet, true,
                "only errors on stderr: no progress, summaries or warnings");
}

Flag progress(LogFlags& log) {
  return toggle("--progress", log.quiet, false,
                "progress and summaries on stderr (the default; undoes an "
                "earlier --quiet)");
}

}  // namespace shared

long long parse_count(std::string_view tool, const char* flag,
                      std::string_view s) {
  const long long v = common::parse_ll(s);
  if (v < 0) {
    std::fprintf(stderr, "%s: %s wants a non-negative integer, got '%s'\n",
                 std::string(tool).c_str(), flag, std::string(s).c_str());
    std::exit(2);
  }
  return v;
}

bool write_artifact(std::string_view tool, const std::filesystem::path& path,
                    std::string_view text) {
  if (path.empty()) return true;
  const auto st = common::write_file_atomic(path.string(), text);
  if (!st.ok()) {
    obs::Logger::current().error(component(tool), "artifact write failed",
                                 {{"path", path.string()},
                                  {"error", st.error().message}});
    return false;
  }
  return true;
}

Run::Run(std::string_view tool) : tool_(tool) {}

Run::~Run() { obs::Tracer::install(nullptr); }

bool Run::start(std::string dataset) {
  obs::Logger::Options opts;
  opts.min_level = log.level;
  if (log.quiet) opts.text_min_level = obs::LogLevel::kError;
  opts.jsonl_path = log.json_file;
  opts.max_per_key = 100;
  logger_ = std::make_unique<obs::Logger>(opts);
  if (!logger_->sink_status().ok()) {
    std::fprintf(stderr, "%s: %s\n", tool_.c_str(),
                 logger_->sink_status().error().message.c_str());
    return false;
  }
  obs::Logger::install(logger_.get());
  if (!trace_file.empty()) obs::Tracer::install(&tracer_);
  if (!telemetry_file.empty()) {
    // Live telemetry: background sampling of the registry + /proc/self into
    // a JSONL sidecar.  Strictly an observer — golden-compared artifacts are
    // byte-identical with the sampler on or off at any interval.
    obs::TelemetrySampler::Options topts;
    topts.path = telemetry_file;
    topts.interval = std::chrono::milliseconds(telemetry_interval_ms);
    topts.registry = &registry;
    telemetry_ = std::make_unique<obs::TelemetrySampler>(topts);
    const auto st = telemetry_->start();
    if (!st.ok()) {
      logger_->error(component(tool_), st.error().message);
      return false;
    }
  }
  manifest.tool = tool_;
  manifest.dataset = std::move(dataset);
  manifest.started_at = obs::wall_clock_iso();
  // The CPUID scan-backend decision: artifacts are byte-identical across
  // backends, but a throughput anomaly should be attributable to it.
  manifest.extra.emplace_back("simd_backend",
                              std::string(simd::to_string(simd::active())));
  return true;
}

bool Run::finish(const std::filesystem::path& manifest_path) {
  obs::Tracer::install(nullptr);
  if (telemetry_) telemetry_->stop();
  manifest.finished_at = obs::wall_clock_iso();
  return (manifest_path.empty() ||
          write_artifact(tool_, manifest_path, manifest.to_json(&registry))) &&
         (metrics_file.empty() ||
          write_artifact(tool_, metrics_file,
                         obs::render_metrics_file(registry, metrics_file))) &&
         (trace_file.empty() ||
          write_artifact(tool_, trace_file, tracer_.to_chrome_json()));
}

bool emit_results(std::string_view tool, analysis::Stage3Results& results,
                  const EmitRequest& req, std::uint64_t* index_bytes) {
  auto& log = obs::Logger::current();
  const auto comp = component(tool);
  const auto& res = results.results();
  const auto catalog = analysis::report_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (req.report != "all" && req.report != catalog[i].name) continue;
    if (const auto* text = results.report(i)) {
      std::printf("%s\n", text->c_str());
    }
  }

  if (!req.index_file.empty()) {
    OBS_SPAN("index.write");
    const auto& knobs = res.knobs();
    index::IndexBuildInput in;
    in.periods = res.periods();
    in.attribution_window = knobs.attribution_window;
    in.attribution = knobs.attribution;
    in.outlier_share = knobs.outlier_share;
    in.outlier_min = knobs.outlier_min;
    in.topo = &res.topo();
    in.errors = &res.errors();
    in.jobs = &res.jobs();
    in.unavailability = &results.availability().intervals;
    in.loc = &results.error_index();
    in.pass = &results.exposure_pass();
    const auto wrote = index::write_index(in, req.index_file);
    if (!wrote.ok()) {
      log.error(comp, wrote.error().message);
      return false;
    }
    const auto& ws = wrote.value();
    log.info(comp, "wrote index",
             {{"path", req.index_file},
              {"bytes", ws.bytes},
              {"errors", ws.meta.error_count},
              {"jobs", ws.meta.job_count},
              {"unavailability", ws.meta.unavail_count}});
    if (index_bytes != nullptr) *index_bytes = ws.bytes;
  }

  if (!req.json_file.empty()) {
    analysis::ExportBundle bundle;
    bundle.error_stats = &results.error_stats();
    bundle.job_stats = &results.job_stats();
    bundle.job_impact = &results.job_impact();
    bundle.availability = &results.availability();
    bundle.mttf_h = results.mttf_estimate_h();
    const auto json = analysis::to_json(bundle) + "\n";
    if (!write_artifact(tool, req.json_file, json)) return false;
    log.info(comp, "wrote JSON export", {{"path", req.json_file}});
  }
  return true;
}

}  // namespace gpures::cli
