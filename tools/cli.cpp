#include "cli.h"

#include <cstdio>
#include <cstdlib>

#include "analysis/export.h"
#include "common/strings.h"
#include "index/writer.h"
#include "obs/trace.h"

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

}  // namespace

Args::Args(std::string_view tool, int argc, char** argv)
    : tool_(tool), argc_(argc), argv_(argv) {}

bool Args::next() {
  if (++i_ >= argc_) return false;
  flag_ = argv_[i_];
  return true;
}

const char* Args::value() {
  if (i_ + 1 >= argc_) {
    std::fprintf(stderr, "%s: %s needs a value\n", tool_.c_str(),
                 flag_.c_str());
    std::exit(2);
  }
  return argv_[++i_];
}

long long Args::count(long long min) {
  const long long v = parse_count(tool_, flag_.c_str(), value());
  if (v < min) {
    std::fprintf(stderr, "%s: %s must be >= %lld\n", tool_.c_str(),
                 flag_.c_str(), min);
    std::exit(2);
  }
  return v;
}

std::uint32_t Args::threads() {
  const long long n = count();
  if (n > 256) {
    std::fprintf(stderr, "%s: %s must be in [0, 256]\n", tool_.c_str(),
                 flag_.c_str());
    std::exit(2);
  }
  return static_cast<std::uint32_t>(n);
}

void Args::unknown(void (*usage)()) const {
  if (flag_ == "--help" || flag_ == "-h") {
    usage();
    std::exit(0);
  }
  std::fprintf(stderr, "%s: unknown argument '%s'\n", tool_.c_str(),
               flag_.c_str());
  usage();
  std::exit(2);
}

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

obs::LogLevel parse_log_level(std::string_view tool, const char* value) {
  const auto level = obs::parse_log_level(value);
  if (!level) {
    std::fprintf(stderr, "%s: --log-level must be debug|info|warn|error\n",
                 std::string(tool).c_str());
    std::exit(2);
  }
  return *level;
}

std::string report_choices() {
  std::string out = "all|none";
  for (const auto& entry : analysis::report_catalog()) {
    out += '|';
    out += entry.name;
  }
  return out;
}

std::string parse_report(std::string_view tool, const char* value) {
  const std::string_view v = value;
  if (v == "all" || v == "none") return value;
  for (const auto& entry : analysis::report_catalog()) {
    if (v == entry.name) return value;
  }
  std::fprintf(stderr, "%s: --report must be %s\n", std::string(tool).c_str(),
               report_choices().c_str());
  std::exit(2);
}

analysis::IngestPolicy parse_ingest_policy(std::string_view tool,
                                           const char* value) {
  const auto policy = analysis::parse_ingest_policy(value);
  if (!policy) {
    std::fprintf(stderr, "%s: --ingest-policy must be strict or lenient\n",
                 std::string(tool).c_str());
    std::exit(2);
  }
  return *policy;
}

std::unique_ptr<obs::Logger> start_logger(std::string_view tool,
                                          const LogFlags& flags) {
  obs::Logger::Options opts;
  opts.min_level = flags.level;
  if (flags.quiet) opts.text_min_level = obs::LogLevel::kError;
  opts.jsonl_path = flags.json_file;
  opts.max_per_key = 100;
  auto logger = std::make_unique<obs::Logger>(opts);
  if (!logger->sink_status().ok()) {
    std::fprintf(stderr, "%s: %s\n", std::string(tool).c_str(),
                 logger->sink_status().error().message.c_str());
    return nullptr;
  }
  obs::Logger::install(logger.get());
  return logger;
}

bool arm_io_fault(std::string_view tool, const std::string& spec,
                  common::IoFaultPlan& plan) {
  if (spec.empty()) return true;
  auto parsed = common::parse_io_fault_spec(spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: --chaos-io-fault: %s\n",
                 std::string(tool).c_str(), parsed.error().message.c_str());
    return false;
  }
  plan = std::move(parsed).take();
  common::set_io_fault_plan(&plan);
  return true;
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
    const auto wrote = index::write_index(in, req.index_file);
    if (!wrote.ok()) {
      log.error(comp, wrote.error().message);
      return false;
    }
    const auto& ws = wrote.value();
    log.info(comp, "wrote index",
             {{"path", req.index_file},
              {"bytes", ws.bytes},
              {"errors", ws.errors},
              {"jobs", ws.jobs},
              {"unavailability", ws.unavailability}});
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
