// gpures-perfbench: end-to-end benchmark of the gpures tool paths.
//
//   gpures-perfbench --workload paper|fleet|logs|smoke --seed N --seconds S
//                    --trace 0|1 --work DIR [--state DIR] [--tamper LEG]
//
// Generates the workload's dataset from the seed, then repeats cycles of the
// six legs (see bench.h), each leg in a forked child, for --seconds (at
// least three cycles); cross-checks their output digests, and prints one JSON
// object as the last line of stdout:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// --trace 0 reports the end-to-end metrics, each aggregated over the run's
// instances of its leg; --trace 1 then runs every leg once more under an
// obs::Tracer, and reports the per-layer metrics and tracing overhead.  A
// human-readable summary (and, traced, the per-layer tables) goes to stderr.
// --state keeps each (workload, seed)'s query-answer digest so later runs of
// the same seed are checked against it.  --tamper alters one leg's output
// before it is hashed (the self-check's own test).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <sstream>
#include <tuple>

#include "bench.h"
#include "common/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "trace_table.h"

namespace pb = perfbench;
namespace fs = std::filesystem;

namespace {

struct Leg {
  const char* name;
  const char* wall_key;  ///< the value holding the leg's timed wall
  std::function<pb::LegResult(const pb::LegContext&)> run;
};

const std::vector<Leg>& legs() {
  static const std::vector<Leg> kLegs = {
      {"setup", "setup_s", pb::leg_setup},
      {"analyze_serial", "analyze_serial_s",
       [](const pb::LegContext& c) { return pb::leg_analyze(c, 0); }},
      {"analyze_parallel", "analyze_parallel_s",
       [](const pb::LegContext& c) { return pb::leg_analyze(c, pb::kWorkers); }},
      {"query", "query_leg_s", pb::leg_query},
      {"serve", "serve_s",
       [](const pb::LegContext& c) { return pb::leg_serve(c, false); }},
      // Last: it writes the most, and sync() follows it.
      {"serve_ckpt", "serve_ckpt_s",
       [](const pb::LegContext& c) { return pb::leg_serve(c, true); }},
  };
  return kLegs;
}

const Leg& leg_kind(std::string_view name) {
  for (const Leg& leg : legs()) {
    if (name == leg.name) return leg;
  }
  std::abort();
}

/// The untraced legs in the order a cycle visits them.  After the first
/// set-up, a run repeats cycles; a visit runs its leg only while the leg's
/// instances so far add up to less than its share of --seconds (one share
/// per visit in the cycle), or number fewer than kMinInstances.  The speed
/// of a shared host varies from second to second and drifts over tens of
/// seconds, so each metric gets a set measured time, over instances spread
/// across the run.  The query legs, whose calls are the shortest and so the
/// noisiest, get two shares.  serve_ckpt ends a cycle: it writes the most,
/// and sync() follows it.
constexpr const char* kCycle[] = {"analyze_serial", "query", "analyze_parallel",
                                  "serve", "query", "serve_ckpt"};
constexpr int kMinInstances = 2;
/// Set-ups per run.  The first writes the dataset every other leg reads;
/// each later one ends one of the first cycles, regenerates the same
/// dataset into a directory of its own, and is only timed and size-checked.
/// Those datasets stay until the run ends: deleting a dataset mid-run slowed
/// the legs after it.
constexpr int kSetups = 3;

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

std::string serialize(const pb::LegResult& r) {
  std::ostringstream os;
  char buf[64];
  for (const auto& [k, v] : r.values) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << "v " << k << ' ' << buf << '\n';
  }
  for (const auto& [k, v] : r.hashes) os << "h " << k << ' ' << v << '\n';
  for (const auto& line : r.table) os << "t " << one_line(line) << '\n';
  if (!r.error.empty()) os << "e " << one_line(r.error) << '\n';
  return os.str();
}

pb::LegResult deserialize(const std::string& text) {
  pb::LegResult r;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.size() < 2) continue;
    const std::string body = line.substr(2);
    const auto sp = body.find(' ');
    switch (line[0]) {
      case 'v':
        r.values[body.substr(0, sp)] = std::strtod(body.c_str() + sp + 1, nullptr);
        break;
      case 'h':
        r.hashes[body.substr(0, sp)] = sp == std::string::npos ? "" : body.substr(sp + 1);
        break;
      case 't':
        r.table.push_back(body);
        break;
      case 'e':
        r.error = body;
        break;
    }
  }
  return r;
}

bool write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// The child's side: run the leg (under a tracer when asked), summarize the
/// trace, and send the result up the pipe.
pb::LegResult run_in_child(const Leg& leg, const pb::LegContext& ctx) {
  gpures::obs::Tracer tracer;
  if (ctx.traced) gpures::obs::Tracer::install(&tracer);
  const std::uint64_t leg_tid = gpures::obs::thread_slot();
  pb::LegResult r;
  try {
    r = leg.run(ctx);
  } catch (const std::exception& e) {
    r.error = std::string(leg.name) + ": " + e.what();
  }
  gpures::obs::Tracer::install(nullptr);
  if (ctx.traced && r.error.empty()) {
    const auto summary =
        pb::summarize_trace(tracer.to_chrome_json(), leg_tid, r.values[leg.wall_key]);
    for (const auto& [name, st] : summary.spans) {
      if (st.leg_thread && name.rfind("pb:", 0) == 0) {
        r.values["trace." + name.substr(3)] = st.total_s;
      }
    }
    r.values["trace.coverage"] = summary.coverage();
    r.table = pb::render_table(leg.name, summary);
  }
  return r;
}

/// Run one leg in a forked child; the parent collects its result and peak
/// RSS.  A crash or non-zero exit of the child is a leg failure.
pb::LegResult run_leg(const Leg& leg, const pb::LegContext& ctx) {
  int fds[2];
  if (::pipe(fds) != 0) {
    pb::LegResult r;
    r.error = std::string("pipe: ") + std::strerror(errno);
    return r;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    pb::LegResult r;
    r.error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return r;
  }
  if (pid == 0) {
    ::close(fds[0]);
    const bool sent = write_all(fds[1], serialize(run_in_child(leg, ctx)));
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(sent ? 0 : 3);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  pb::LegResult r = deserialize(text);
  r.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.error = std::string(leg.name) + ": child exited abnormally (status " +
              std::to_string(status) + ")" +
              (r.error.empty() ? "" : "; " + r.error);
  }
  return r;
}

struct Run {
  std::map<std::string, pb::LegResult> legs;  ///< by instance name
  /// Untraced instance names of each leg kind, in run order; the first is
  /// the kind's own name, later ones get "#2", "#3", ...; the traced copy of
  /// a kind is "<kind>_traced".
  std::map<std::string, std::vector<std::string>> instances;
  std::vector<std::string> failures;  ///< one line per failed check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  const pb::LegResult& leg(const std::string& name) const {
    static const pb::LegResult kEmpty;
    const auto it = legs.find(name);
    return it == legs.end() ? kEmpty : it->second;
  }
  double value(const std::string& leg_name, const std::string& key) const {
    const auto& v = leg(leg_name).values;
    const auto it = v.find(key);
    return it == v.end() ? 0.0 : it->second;
  }
  const std::vector<std::string>& of(const std::string& kind) const {
    static const std::vector<std::string> kNone;
    const auto it = instances.find(kind);
    return it == instances.end() ? kNone : it->second;
  }
  /// `key` (or peak RSS when `key` is empty) of each untraced instance of
  /// `kind`, in run order.
  std::vector<double> values(const std::string& kind, const std::string& key) const {
    std::vector<double> v;
    for (const auto& name : of(kind)) {
      v.push_back(key.empty() ? leg(name).peak_rss_mb : value(name, key));
    }
    return v;
  }
  double median(const std::string& kind, const std::string& key) const {
    std::vector<double> v = values(kind, key);
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  }
  double mean(const std::string& kind, const std::string& key) const {
    const std::vector<double> v = values(kind, key);
    double sum = 0;
    for (const double x : v) sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  }
};

/// Run one leg as instance `name` and record it; false when it failed.
bool run_instance(const Leg& leg, const std::string& name,
                  const pb::LegContext& ctx, Run& run) {
  auto r = run_leg(leg, ctx);
  run.attempted += 1;
  if (!r.error.empty()) {
    run.failed += 1;
    run.failures.push_back(name + ": " + r.error);
  }
  std::fprintf(stderr, "perfbench: %-24s %8.3f s  peak RSS %7.1f MB%s\n",
               name.c_str(), r.values[leg.wall_key], r.peak_rss_mb,
               r.error.empty() ? "" : "  FAILED");
  // Flush dirty pages outside the timed regions, so the next leg does not
  // pay for this one's writeback.
  if (std::string_view(leg.name) == "setup" ||
      std::string_view(leg.name) == "serve_ckpt") {
    ::sync();
  }
  const bool ok = r.error.empty();
  run.legs[name] = std::move(r);
  return ok;
}

/// Run the next untraced instance of `kind`; false when it failed.
bool run_next(const char* kind, const pb::LegContext& ctx, Run& run) {
  auto& names = run.instances[kind];
  std::string name = kind;
  if (!names.empty()) name += '#' + std::to_string(names.size() + 1);
  names.push_back(name);
  return run_instance(leg_kind(kind), name, ctx, run);
}

/// The untraced schedule: set-up, then cycles until every leg kind has its
/// share of `seconds`; stops early when the first set-up fails (no dataset).
void run_schedule(const pb::LegContext& ctx, double seconds, Run& run) {
  if (!run_next("setup", ctx, run)) return;
  std::map<std::string, double> budget, spent;
  for (const char* kind : kCycle) {
    budget[kind] += seconds / static_cast<double>(std::size(kCycle));
  }
  for (int cycle = 0;; ++cycle) {
    bool ran = false;
    for (const char* kind : kCycle) {
      if (spent[kind] >= budget[kind] && run.of(kind).size() >= kMinInstances) {
        continue;
      }
      // A failed leg is not repeated.
      spent[kind] = run_next(kind, ctx, run)
                        ? spent[kind] + run.value(run.of(kind).back(),
                                                  leg_kind(kind).wall_key)
                        : budget[kind];
      ran = true;
    }
    if (cycle + 1 < kSetups) {
      pb::LegContext extra = ctx;
      extra.dataset = ctx.work / ("ds" + std::to_string(cycle + 2));
      run_next("setup", extra, run);
    } else if (!ran) {
      return;
    }
  }
}

/// Each leg kind once more under a tracer.
void run_traced(const pb::LegContext& ctx, Run& run) {
  for (const Leg& leg : legs()) {
    if (!run_instance(leg, leg.name + std::string("_traced"), ctx, run) &&
        std::string_view(leg.name) == "setup") {
      return;
    }
  }
}

/// Output self-checks: `leg` must match `ref` on every digest they share.
void expect_same(Run& run, const std::string& ref, const std::string& leg,
                 std::initializer_list<const char*> outputs) {
  if (run.legs.count(ref) == 0 || run.legs.count(leg) == 0) return;
  for (const char* out : outputs) {
    const auto& a = run.leg(ref).hashes;
    const auto& b = run.leg(leg).hashes;
    const auto ia = a.find(out);
    const auto ib = b.find(out);
    if (ia == a.end() || ib == b.end() || ia->second.empty() ||
        ia->second != ib->second) {
      run.failed += 1;
      run.failures.push_back(leg + ": " + out + " differs from " + ref);
      return;
    }
  }
}

/// Query calls made by the untraced query legs (each one operation).
std::uint64_t query_calls(const Run& run) {
  double calls = 0;
  for (const auto& name : run.of("query")) {
    calls += run.value(name, "query.calls") * run.value(name, "query.rounds");
  }
  return static_cast<std::uint64_t>(calls);
}

/// The query-answer stream of a (workload, seed) must never change: the
/// first run records it under `state`, later runs compare.
void check_answers_record(Run& run, const fs::path& state,
                          const std::string& workload, std::uint64_t seed) {
  if (state.empty() || run.legs.count("query") == 0) return;
  const std::string answers = run.leg("query").hashes.count("answers")
                                  ? run.leg("query").hashes.at("answers")
                                  : "";
  if (answers.empty()) return;
  const fs::path file = state / (workload + "-" + std::to_string(seed) + ".answers");
  const auto prev = gpures::common::read_file(file.string());
  if (prev.ok()) {
    if (prev.value() != answers) {
      run.failed += query_calls(run);
      run.failures.push_back("query: answer stream differs from an earlier run "
                             "of the same seed (" + prev.value() + " vs " +
                             answers + ")");
    }
    return;
  }
  std::error_code ec;
  fs::create_directories(state, ec);
  (void)gpures::common::write_file_atomic(file.string(), answers);
}

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

/// setup_s is the median of the run's set-ups; every other metric is the
/// mean over its leg's untraced instances.  From one second to the next,
/// a shared host runs a leg at one of two speeds about 20% apart; a median
/// over a handful of instances jumps between them, a mean does not.
Metrics end_to_end(const Run& run) {
  return {
      {"setup_s", run.median("setup", "setup_s"), "s"},
      {"analyze_serial_s", run.mean("analyze_serial", "analyze_serial_s"), "s"},
      {"analyze_parallel_s", run.mean("analyze_parallel", "analyze_parallel_s"), "s"},
      {"analyze_peak_rss_mb", run.mean("analyze_parallel", ""), "MB"},
      {"serve_s", run.mean("serve", "serve_s"), "s"},
      {"serve_ckpt_s", run.mean("serve_ckpt", "serve_ckpt_s"), "s"},
      {"serve_ckpt_peak_rss_mb", run.mean("serve_ckpt", ""), "MB"},
      {"query_open_ms", run.mean("query", "query_open_ms"), "ms"},
      {"query_s", run.mean("query", "query_s"), "s"},
      {"query_p50_us", run.mean("query", "query_p50_us"), "us"},
      {"query_p99_us", run.mean("query", "query_p99_us"), "us"},
  };
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics of a trace run: span times from the traced legs,
/// counters and everything else from the untraced legs of the same run.
Metrics per_layer(const Run& run) {
  const auto T = [&](const char* leg, const char* span) {
    return run.value(std::string(leg) + "_traced", std::string("trace.") + span);
  };
  const auto V = [&](const char* leg, const char* key) { return run.median(leg, key); };
  const char* as = "analyze_serial";
  Metrics m = {
      {"campaign.run_s", T("setup", "campaign.run"), "s"},
      {"campaign.jobs", V("setup", "campaign.jobs"), "count"},
      {"campaign.raw_lines", V("setup", "campaign.raw_lines"), "count"},
      {"dataset.finalize_s", T("setup", "dataset.finalize"), "s"},
      {"dataset.bytes", V("setup", "dataset.bytes"), "bytes"},
      {"io.read_s", T(as, "io.read"), "s"},
      {"io.read_bytes", run.value("analyze_serial_traced", "io.read_bytes"), "bytes"},
      {"logsys.screen_s", T(as, "logsys.screen"), "s"},
      {"logsys.lines_in", run.value("analyze_serial_traced", "logsys.lines_in"), "count"},
      {"logsys.lines_kept", run.value("analyze_serial_traced", "logsys.lines_kept"), "count"},
      {"stage1.ingest_s", T(as, "stage1.ingest"), "s"},
      {"pipe.log_lines", V(as, "pipe.log_lines"), "count"},
      {"pipe.xid_records", V(as, "pipe.xid_records"), "count"},
      {"pipe.rejected_lines", V(as, "pipe.rejected_lines"), "count"},
      {"stage1.useful_line_ratio",
       ratio(V(as, "pipe.log_lines") - V(as, "pipe.rejected_lines"), V(as, "pipe.log_lines")),
       "ratio"},
  };
  const double acc_ingest = T(as, "accounting.ingest");
  const double parse = run.value("analyze_serial_traced", "slurm.parse_s");
  const double rows = run.value("analyze_serial_traced", "accounting.rows");
  Metrics more = {
      {"accounting.ingest_s", acc_ingest, "s"},
      {"slurm.parse_s", parse, "s"},
      {"accounting.jobtable_s", std::max(0.0, acc_ingest - parse), "s"},
      {"accounting.rows", rows, "count"},
      {"accounting.rows_per_s", ratio(rows, acc_ingest), "1/s"},
      {"stage2.finish_s", T(as, "stage2.finish"), "s"},
      {"pipe.errors_coalesced", V(as, "pipe.errors_coalesced"), "count"},
      {"stage2.observations_per_error",
       ratio(V(as, "pipe.xid_records"), V(as, "pipe.errors_coalesced")), "ratio"},
      {"stage3.error_stats_s", T(as, "stage3.error_stats"), "s"},
      {"stage3.job_stats_s", T(as, "stage3.job_stats"), "s"},
      {"stage3.job_impact_s", T(as, "stage3.job_impact"), "s"},
      {"stage3.availability_s", T(as, "stage3.availability"), "s"},
      {"pipe.stage3_exposures", V(as, "pipe.stage3_exposures"), "count"},
  };
  m.insert(m.end(), more.begin(), more.end());
  for (const char* report : {"table1", "findings", "table2", "table3", "fig2",
                             "trends", "mitigation", "survival"}) {
    const std::string span = std::string("report.") + report;
    m.emplace_back(span + ".render_s", T(as, span.c_str()), "s");
    m.emplace_back(span + ".bytes", V(as, (span + ".bytes").c_str()), "bytes");
  }
  const double serial = V(as, "analyze_serial_s");
  const double parallel = V("analyze_parallel", "analyze_parallel_s");
  const double busy = V("analyze_parallel", "stage1.worker_busy_s");
  const double speedup = ratio(serial, parallel);
  const double workers = pb::kWorkers;
  const double ckpt_bytes = V("serve_ckpt", "serve.ckpt_bytes");
  more = {
      {"index.write_s", T(as, "index.write"), "s"},
      {"index.bytes", V(as, "index.bytes"), "bytes"},
      {"stage1.worker_busy_s", busy, "s"},
      {"stage1.worker_utilisation", ratio(busy, workers * parallel), "ratio"},
      // Amdahl: speedup S on N workers gives serial fraction (N/S - 1)/(N - 1).
      {"analyze.amdahl_serial_fraction",
       speedup > 0 ? (workers / speedup - 1.0) / (workers - 1.0) : 0.0, "ratio"},
      {"index.open_verify_mb_per_s", V("query", "index.open_verify_mb_per_s"), "MB/s"},
      {"query.count_us", V("query", "query.count_us"), "us"},
      {"query.impact_us", V("query", "query.impact_us"), "us"},
      {"query.availability_us", V("query", "query.availability_us"), "us"},
      {"query.cache_hit_ratio", V("query", "query.cache_hit_ratio"), "ratio"},
      {"query.calls", V("query", "query.calls"), "count"},
      {"serve.ticks", V("serve", "serve.ticks"), "count"},
      {"serve.tick_s", T("serve", "serve.tick"), "s"},
      {"serve.bytes_ingested", V("serve", "serve.bytes_ingested"), "bytes"},
      {"serve.retries", V("serve", "serve.retries"), "count"},
      {"serve.ckpt_generations", V("serve_ckpt", "serve.ckpt_generations"), "count"},
      {"serve.ckpt_bytes", ckpt_bytes, "bytes"},
      {"serve.ckpt_write_s", V("serve_ckpt", "serve.ckpt_write_s"), "s"},
      {"serve.ckpt_amplification",
       ratio(ckpt_bytes, V("serve_ckpt", "serve.bytes_ingested")), "ratio"},
  };
  m.insert(m.end(), more.begin(), more.end());
  for (const Leg& leg : legs()) {
    const std::string traced = std::string(leg.name) + "_traced";
    m.emplace_back(std::string("trace.") + leg.name + ".coverage",
                   run.value(traced, "trace.coverage"), "ratio");
    m.emplace_back(std::string("trace.") + leg.name + ".overhead_s",
                   run.value(traced, leg.wall_key) - run.median(leg.name, leg.wall_key),
                   "s");
  }
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gpures-perfbench: %s\n"
               "usage: gpures-perfbench --workload paper|fleet|logs|smoke "
               "--seed N --seconds S --trace 0|1 --work DIR [--state DIR] "
               "[--tamper LEG]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, tamper;
  std::optional<std::uint64_t> seed;
  double seconds = -1;
  int trace = -1;
  fs::path work, state;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) usage("--seed needs an integer");
    } else if (arg == "--seconds") {
      seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(seconds > 0)) usage("--seconds needs a positive number");
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      trace = val == "1";
    } else if (arg == "--work") {
      work = val;
    } else if (arg == "--state") {
      state = val;
    } else if (arg == "--tamper") {
      tamper = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const auto wl = pb::find_workload(workload);
  if (!wl) usage("unknown --workload");
  if (!seed || seconds < 0 || trace < 0 || work.empty()) {
    usage("--seed, --seconds, --trace and --work are required");
  }

  pb::LegContext ctx;
  ctx.wl = *wl;
  ctx.seed = *seed;
  ctx.work = work;
  ctx.dataset = work / "ds";
  ctx.tamper = tamper;
  std::error_code ec;
  fs::create_directories(work, ec);
  if (ec) usage(("cannot create --work: " + ec.message()).c_str());

  Run run;
  run_schedule(ctx, seconds, run);
  if (trace == 1 && run.failures.empty()) {
    ctx.traced = true;
    run_traced(ctx, run);
  }

  // Self-checks: every analyze and serve leg renders the same report bytes
  // and writes the same index bytes as the first serial analyze; every query
  // leg returns the same answer stream, which also repeats across runs.
  for (const char* kind : {"analyze_serial", "analyze_parallel", "serve", "serve_ckpt"}) {
    for (const auto& name : run.of(kind)) {
      if (name != "analyze_serial") expect_same(run, "analyze_serial", name, {"report", "idx"});
    }
    if (trace == 1) {
      expect_same(run, "analyze_serial", kind + std::string("_traced"), {"report", "idx"});
    }
  }
  for (const auto& name : run.of("query")) {
    if (name != "query") expect_same(run, "query", name, {"answers"});
  }
  if (trace == 1) expect_same(run, "query", "query_traced", {"answers"});
  // Every set-up of the seed writes a dataset of the same size.
  std::vector<std::string> setups = run.of("setup");
  if (trace == 1) setups.push_back("setup_traced");
  for (const auto& name : setups) {
    if (run.legs.count(name) != 0 &&
        run.value("setup", "dataset.bytes") != run.value(name, "dataset.bytes")) {
      run.failed += 1;
      run.failures.push_back(name + ": dataset size differs from setup");
    }
  }
  check_answers_record(run, state, wl->name, *seed);
  // Each query call is one operation, on top of one per leg.
  run.attempted += query_calls(run);
  for (const auto& f : run.failures) std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());

  if (trace == 1) {
    for (const Leg& leg : legs()) {
      for (const auto& line : run.leg(std::string(leg.name) + "_traced").table) {
        std::fprintf(stderr, "%s\n", line.c_str());
      }
      std::fprintf(stderr, "\n");
    }
  }
  const Metrics metrics = trace == 1 ? per_layer(run) : end_to_end(run);
  std::ostringstream js;
  js << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(run.attempted, 1)
     << ", \"failed\": " << run.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    js << (i ? ", " : "") << '"' << name << "\": {\"value\": " << json_number(value)
       << ", \"unit\": \"" << unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return run.failed == 0 ? 0 : 1;
}
