#include "cli.h"

#include <cstdio>
#include <cstdlib>

#include "analysis/export.h"
#include "analysis/mitigation.h"
#include "analysis/reports.h"
#include "analysis/survival.h"
#include "analysis/trends.h"
#include "common/strings.h"
#include "index/writer.h"
#include "simd/dispatch.h"

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

bool select_simd(std::string_view tool, const std::string& choice) {
  // --simd (CLI) beats GPURES_SIMD (environment) beats auto-detection.  The
  // library degrades a bad environment value to auto, but an explicit CLI
  // request for an unavailable backend is a hard usage error.
  if (choice.empty()) return true;
  const std::string name(tool);
  const auto backend = simd::parse_backend(choice);
  if (!backend) {
    std::fprintf(stderr, "%s: --simd must be auto|scalar|swar|avx2\n",
                 name.c_str());
    return false;
  }
  if (!simd::set_active(*backend)) {
    std::fprintf(stderr, "%s: --simd %s: backend not available on this host\n",
                 name.c_str(), choice.c_str());
    return false;
  }
  return true;
}

void print_simd_info() {
  // Machine-readable dispatch probe for CI matrix legs: which backend the
  // dispatcher resolved to (after --simd / GPURES_SIMD) and which the host
  // can run at all.
  std::printf("active %s\n",
              std::string(simd::to_string(simd::active())).c_str());
  std::printf("available");
  for (const auto b : simd::all_available()) {
    std::printf(" %s", std::string(simd::to_string(b)).c_str());
  }
  std::printf("\n");
}

bool emit_results(std::string_view tool, const analysis::ResultSet& res,
                  const EmitRequest& req, std::uint64_t* index_bytes) {
  auto& log = obs::Logger::current();
  const auto comp = component(tool);
  const auto& periods = res.periods();
  const bool have_jobs = !res.jobs().jobs.empty();
  const auto stats = res.error_stats();
  const bool all = req.report == "all";
  const auto want = [&](const char* name) { return all || req.report == name; };
  if (want("table1")) {
    std::printf("%s\n", analysis::render_table1(stats).c_str());
  }
  if (want("findings")) {
    std::printf("%s\n", analysis::render_findings(stats).c_str());
  }
  if (want("table2") && have_jobs) {
    std::printf("%s\n", analysis::render_table2(res.job_impact()).c_str());
  }
  if (want("table3") && have_jobs) {
    std::printf("%s\n", analysis::render_table3(res.job_stats()).c_str());
  }
  if (want("fig2")) {
    std::printf("%s\n", analysis::render_fig2(res.availability(),
                                              res.mttf_estimate_h())
                            .c_str());
  }
  if (want("trends")) {
    std::printf("%s\n",
                analysis::render_trends(res.errors(), periods, res.pool())
                    .c_str());
  }
  if (want("mitigation") && have_jobs) {
    std::printf("%s\n",
                analysis::render_mitigation(res.jobs(), res.errors(),
                                            res.impact_config(), res.pool())
                    .c_str());
  }
  if (want("survival")) {
    std::printf("%s\n", analysis::render_survival(res.errors(), periods,
                                                  res.topo().total_gpus(),
                                                  res.pool())
                            .c_str());
  }

  if (!req.index_file.empty()) {
    const auto avail = res.availability();
    const auto& knobs = res.knobs();
    index::IndexBuildInput in;
    in.periods = periods;
    in.attribution_window = knobs.attribution_window;
    in.attribution = knobs.attribution;
    in.outlier_share = knobs.outlier_share;
    in.outlier_min = knobs.outlier_min;
    in.topo = &res.topo();
    in.errors = &res.errors();
    in.jobs = &res.jobs();
    in.unavailability = &avail.intervals;
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
    const auto impact = res.job_impact();
    const auto jobs = res.job_stats();
    const auto avail = res.availability();
    analysis::ExportBundle bundle;
    bundle.error_stats = &stats;
    bundle.job_stats = &jobs;
    bundle.job_impact = &impact;
    bundle.availability = &avail;
    bundle.mttf_h = res.mttf_estimate_h();
    const auto json = analysis::to_json(bundle) + "\n";
    if (!write_artifact(tool, req.json_file, json)) return false;
    log.info(comp, "wrote JSON export", {{"path", req.json_file}});
  }
  return true;
}

}  // namespace gpures::cli
