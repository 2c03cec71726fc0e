// The six legs of a benchmark run.  Each replays the public-call sequence
// of one CLI tool (named in bench.h); with LegContext::traced the calls are
// wrapped in "pb:<layer>.<call>" spans and the serial analyze leg runs the
// loader's per-day steps itself so each layer gets its own span.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "analysis/dataset.h"
#include "analysis/mitigation.h"
#include "analysis/reports.h"
#include "analysis/survival.h"
#include "analysis/trends.h"
#include "bench.h"
#include "common/hash.h"
#include "common/io.h"
#include "common/strings.h"
#include "index/writer.h"
#include "obs/trace.h"
#include "queries.h"
#include "serve/serve.h"
#include "slurm/accounting.h"

namespace perfbench {

namespace an = gpures::analysis;
namespace common = gpures::common;
namespace obs = gpures::obs;

std::optional<Workload> find_workload(const std::string& name) {
  // name, quick, nodes, jobs, noise, scale, queries per round
  static const Workload kAll[] = {
      {"paper", false, 0, true, 200.0, 0.05, 1200},
      {"fleet", true, 200, true, 200.0, 0.5, 1200},
      {"logs", false, 300, false, 1000.0, 1.0, 1200},
      // Tiny dataset for the benchmark's own tests.
      {"smoke", true, 8, true, 50.0, 0.5, 200},
  };
  for (const auto& wl : kAll) {
    if (wl.name == name) return wl;
  }
  return std::nullopt;
}

an::CampaignConfig campaign_config(const Workload& wl, std::uint64_t seed) {
  an::CampaignConfig cfg =
      wl.quick ? an::CampaignConfig::quick() : an::CampaignConfig::delta_a100();
  cfg.seed = seed;
  cfg.with_jobs = wl.jobs;
  cfg.noise_lines_per_day = wl.noise;
  cfg.workload_scale *= wl.scale;
  cfg.pipeline.num_threads = kWorkers;
  if (wl.nodes > 0) {
    // gpures-simulate --nodes: a Delta-shaped fleet (100:6 four- to
    // eight-way nodes) with fault and workload intensity scaled by the GPU
    // ratio, dropping configured episodes that fall off the fleet.
    const auto nodes8 = static_cast<std::int32_t>(
        std::llround(static_cast<double>(wl.nodes) * 6.0 / 106.0));
    const double base_gpus = cfg.spec.total_gpus();
    cfg.spec = gpures::cluster::ClusterSpec::scaled(wl.nodes - nodes8, nodes8);
    const double ratio = cfg.spec.total_gpus() / base_gpus;
    cfg.faults.scale *= ratio;
    cfg.workload_scale *= ratio;
    const auto node_count = cfg.spec.node_count();
    std::erase_if(cfg.faults.uncontained_episodes,
                  [&](const auto& ep) { return ep.gpu.node >= node_count; });
    std::erase_if(cfg.faults.degraded_memory_episodes,
                  [&](const auto& ep) { return ep.gpu.node >= node_count; });
  }
  return cfg;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string file_digest(const fs::path& path) {
  auto bytes = common::read_file(path.string());
  if (!bytes.ok()) return "";
  return hex64(common::xxhash64(bytes.value()));
}

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

namespace {

/// A benchmark span; inert unless the leg's child installed a tracer.
using Span = obs::ScopedSpan;

/// The analysis knobs the emit phase needs (CLI defaults).
struct EmitConfig {
  an::StudyPeriods periods;
  common::Duration attribution_window = 20;
  an::Attribution attribution = an::Attribution::kGpuLevel;
  double outlier_share = 0.5;
  std::uint64_t outlier_min = 1000;
};

/// `--report all` then `--write-index`, over an AnalysisPipeline or a
/// ServeSession (same accessors), in the CLI's order.  Records each report's
/// size as report.<name>.bytes.
template <typename Results>
std::string emit(const Results& res, const gpures::cluster::Topology& topo,
                 const EmitConfig& ec, const fs::path& index_path,
                 LegResult& r) {
  std::string out;
  const auto add = [&](const char* name, std::string text) {
    r.values[std::string("report.") + name + ".bytes"] =
        static_cast<double>(text.size());
    out += text;
    out += '\n';
  };
  const bool jobs = !res.jobs().jobs.empty();
  an::ErrorStats stats;
  {
    Span s("pb:stage3.error_stats");
    stats = res.error_stats();
  }
  {
    Span s("pb:report.table1");
    add("table1", an::render_table1(stats));
  }
  {
    Span s("pb:report.findings");
    add("findings", an::render_findings(stats));
  }
  if (jobs) {
    an::JobImpact impact;
    {
      Span s("pb:stage3.job_impact");
      impact = res.job_impact();
    }
    Span s("pb:report.table2");
    add("table2", an::render_table2(impact));
  }
  if (jobs) {
    an::JobStats js;
    {
      Span s("pb:stage3.job_stats");
      js = res.job_stats();
    }
    Span s("pb:report.table3");
    add("table3", an::render_table3(js));
  }
  {
    an::AvailabilityStats avail;
    double mttf = 0;
    {
      Span s("pb:stage3.availability");
      avail = res.availability();
      mttf = res.mttf_estimate_h();
    }
    Span s("pb:report.fig2");
    add("fig2", an::render_fig2(avail, mttf));
  }
  {
    Span s("pb:report.trends");
    add("trends", an::render_trends(res.errors(), ec.periods, res.pool()));
  }
  if (jobs) {
    an::JobImpactConfig icfg;
    icfg.window = ec.attribution_window;
    icfg.period = ec.periods.op;
    icfg.attribution = ec.attribution;
    Span s("pb:report.mitigation");
    add("mitigation",
        an::render_mitigation(res.jobs(), res.errors(), icfg, res.pool()));
  }
  {
    Span s("pb:report.survival");
    add("survival", an::render_survival(res.errors(), ec.periods,
                                        topo.total_gpus(), res.pool()));
  }

  an::AvailabilityStats avail;
  {
    Span s("pb:stage3.availability");
    avail = res.availability();
  }
  Span s("pb:index.write");
  gpures::index::IndexBuildInput in;
  in.periods = ec.periods;
  in.attribution_window = ec.attribution_window;
  in.attribution = ec.attribution;
  in.outlier_share = ec.outlier_share;
  in.outlier_min = ec.outlier_min;
  in.topo = &topo;
  in.errors = &res.errors();
  in.jobs = &res.jobs();
  in.unavailability = &avail.intervals;
  const auto wrote = gpures::index::write_index(in, index_path.string());
  if (!wrote.ok()) {
    r.error = "index write: " + wrote.error().message;
  } else {
    r.values["index.bytes"] = static_cast<double>(wrote.value().bytes);
  }
  return out;
}

/// Hash a leg's outputs; `tamper` alters the report first (self-check test).
void digest_outputs(const LegContext& ctx, const std::string& leg,
                    std::string report, const fs::path& index_path,
                    LegResult& r) {
  if (ctx.tamper == leg) report += "tampered\n";
  r.hashes["report"] = hex64(common::xxhash64(report));
  r.hashes["idx"] = file_digest(index_path);
}

/// load_dataset's serial path, one public call per span: day-file read,
/// screen, Stage-I ingest; accounting read and row ingest; Stage-II finish.
/// Clean input only — any quarantined line or rejected row is an error.
common::Status exploded_load(const fs::path& dir, an::AnalysisPipeline& pipe,
                             const an::IngestOptions& opt, LegResult& r) {
  std::vector<std::pair<fs::path, common::TimePoint>> days;
  {
    Span s("pb:dataset.list");
    for (const auto& e : fs::directory_iterator(dir / "syslog")) {
      const auto date = an::day_file_date(e.path().filename().string());
      if (date && e.is_regular_file()) days.emplace_back(e.path(), *date);
    }
    std::sort(days.begin(), days.end());
  }
  double read_bytes = 0, lines_in = 0, lines_kept = 0, rows = 0;
  for (const auto& [path, date] : days) {
    common::Result<std::string> text = common::Error::make("unread");
    {
      Span s("pb:io.read");
      text = common::read_file(path.string());
    }
    if (!text.ok()) return text.error();
    read_bytes += static_cast<double>(text.value().size());
    gpures::logsys::ScreenCounts sc;
    gpures::logsys::DayBuffer day;
    {
      Span s("pb:logsys.screen");
      day = gpures::logsys::DayBuffer::from_text(date, std::move(text).take(),
                                                 opt.screen, sc);
    }
    if (sc.quarantined_lines() > 0) {
      return common::Error::make("quarantined lines in " + path.string());
    }
    lines_in += static_cast<double>(sc.kept_lines + sc.quarantined_lines());
    lines_kept += static_cast<double>(sc.kept_lines);
    Span s("pb:stage1.ingest");
    pipe.ingest_day(date, std::move(day));
  }
  const auto acc_path = dir / "slurm_accounting.txt";
  if (fs::exists(acc_path)) {
    common::Result<std::string> acc = common::Error::make("unread");
    {
      Span s("pb:io.read");
      acc = common::read_file(acc_path.string());
    }
    if (!acc.ok()) return acc.error();
    read_bytes += static_cast<double>(acc.value().size());
    Span s("pb:accounting.ingest");
    const std::string_view text = acc.value();
    std::size_t start = 0;
    while (start < text.size()) {
      const std::size_t nl = text.find('\n', start);
      const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
      if (!pipe.ingest_accounting_line(text.substr(start, end - start))) {
        return common::Error::make("rejected accounting row");
      }
      rows += 1;
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
  }
  {
    Span s("pb:stage2.finish");
    pipe.finish();
  }
  r.values["io.read_bytes"] = read_bytes;
  r.values["logsys.lines_in"] = lines_in;
  r.values["logsys.lines_kept"] = lines_kept;
  r.values["accounting.lines"] = rows;
  return {};
}

/// slurm::parse_accounting_line alone over every data row of the dump
/// (outside any leg's wall): the JobTable share of accounting ingest is
/// accounting.ingest_s minus this.
void time_accounting_parse(const fs::path& dir,
                           const gpures::cluster::Topology& topo,
                           LegResult& r) {
  const auto acc = common::read_file((dir / "slurm_accounting.txt").string());
  if (!acc.ok()) return;
  const std::string header = gpures::slurm::accounting_header();
  const std::string_view text = acc.value();
  std::uint64_t parsed = 0;
  const Stopwatch t;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    const auto line = common::trim(text.substr(start, end - start));
    if (!line.empty() && line != header) {
      parsed += gpures::slurm::parse_accounting_line(line, topo).ok() ? 1 : 0;
    }
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  r.values["slurm.parse_s"] = t.seconds();
  r.values["accounting.rows"] = static_cast<double>(parsed);
}

double registry_sum(const obs::MetricsRegistry& reg, const std::string& prefix,
                    const std::string& suffix) {
  double total = 0;
  for (const auto& c : reg.snapshot().counters) {
    if (c.name.rfind(prefix, 0) == 0 && c.name.size() >= suffix.size() &&
        c.name.compare(c.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      total += static_cast<double>(c.value);
    }
  }
  return total;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace

LegResult leg_setup(const LegContext& ctx) {
  LegResult r;
  auto cfg = campaign_config(ctx.wl, ctx.seed);
  obs::MetricsRegistry reg;
  cfg.metrics = &reg;
  an::DatasetManifest manifest;
  manifest.name = ctx.wl.quick ? "delta-a100-quick" : "delta-a100-full";
  manifest.spec = cfg.spec;
  manifest.periods = an::StudyPeriods::make(
      cfg.faults.study_begin, cfg.faults.op_begin, cfg.faults.study_end);
  fs::remove_all(ctx.dataset);

  const Stopwatch wall;
  an::DatasetWriter writer(ctx.dataset, manifest);
  an::DeltaCampaign campaign(cfg);
  campaign.set_dataset_writer(&writer);
  {
    Span s("pb:campaign.run");
    campaign.run();
  }
  common::Status st;
  {
    Span s("pb:dataset.finalize");
    st = writer.finalize();
  }
  r.values["setup_s"] = wall.seconds();
  if (!st.ok()) r.error = "dataset finalize: " + st.error().message;
  r.values["campaign.jobs"] = static_cast<double>(campaign.job_records().size());
  r.values["campaign.raw_lines"] =
      static_cast<double>(campaign.raw_log_lines());
  r.values["dataset.bytes"] = static_cast<double>(tree_bytes(ctx.dataset));
  return r;
}

LegResult leg_analyze(const LegContext& ctx, std::uint32_t workers) {
  LegResult r;
  const std::string leg = workers == 0 ? "analyze_serial" : "analyze_parallel";
  const fs::path index_path = ctx.work / (leg + ".idx");
  obs::MetricsRegistry reg;

  const Stopwatch wall;
  std::optional<Span> setup_span;
  setup_span.emplace("pb:analyze.setup");
  const auto manifest = an::read_manifest(ctx.dataset);
  if (!manifest.ok()) {
    r.error = manifest.error().message;
    return r;
  }
  an::PipelineConfig pcfg;
  pcfg.periods = manifest.value().periods;
  pcfg.num_threads = workers;
  pcfg.metrics = &reg;
  const gpures::cluster::Topology topo(manifest.value().spec);
  an::AnalysisPipeline pipe(topo, pcfg);
  an::DataQualityReport quality;
  an::IngestOptions iopt;
  iopt.expect_begin = pcfg.periods.pre.begin;
  iopt.expect_end = pcfg.periods.op.end;
  iopt.quality = &quality;
  setup_span.reset();

  common::Status st;
  if (ctx.traced && workers == 0) {
    st = exploded_load(ctx.dataset, pipe, iopt, r);
  } else {
    Span s("pb:dataset.load");
    const auto loaded = an::load_dataset(ctx.dataset, pipe, iopt);
    if (!loaded.ok()) st = loaded.error();
  }
  if (!st.ok()) {
    r.error = "load: " + st.error().message;
    return r;
  }
  EmitConfig ec;
  ec.periods = pcfg.periods;
  auto report = emit(pipe, topo, ec, index_path, r);
  r.values[leg + "_s"] = wall.seconds();

  r.values["pipe.log_lines"] = static_cast<double>(reg.counter_value("pipe.log_lines"));
  r.values["pipe.xid_records"] = static_cast<double>(reg.counter_value("pipe.xid_records"));
  r.values["pipe.rejected_lines"] = static_cast<double>(reg.counter_value("pipe.rejected_lines"));
  r.values["pipe.errors_coalesced"] = static_cast<double>(reg.counter_value("pipe.errors_coalesced"));
  r.values["pipe.stage3_exposures"] = static_cast<double>(reg.counter_value("pipe.stage3.exposures"));
  r.values["stage1.worker_busy_s"] =
      registry_sum(reg, "pipe.worker.", ".parse_time_ns") * 1e-9;
  if (ctx.traced && workers == 0) time_accounting_parse(ctx.dataset, topo, r);
  digest_outputs(ctx, leg, std::move(report), index_path, r);
  return r;
}

LegResult leg_query(const LegContext& ctx) {
  LegResult r;
  const fs::path index_path = ctx.work / "analyze_serial.idx";
  constexpr int kOpens = 9;

  const Stopwatch wall;
  std::vector<double> open_ms;
  std::optional<gpures::index::IndexReader> reader;
  for (int i = 0; i < kOpens; ++i) {
    reader.reset();
    const Stopwatch t;
    auto opened = [&] {
      Span s("pb:index.open");
      return gpures::index::IndexReader::open(index_path.string());
    }();
    open_ms.push_back(t.seconds() * 1e3);
    if (!opened.ok()) {
      r.error = "index open: " + opened.error().message;
      return r;
    }
    reader.emplace(std::move(opened).take());
  }
  std::vector<Query> set;
  {
    Span s("pb:query.plan");
    set = make_query_set(*reader, ctx.seed, ctx.wl.queries);
  }

  // Whole rounds, each with a fresh engine (cold cache), until
  // kRoundSeconds is spent (at least one); every round must return the same
  // answer stream.
  constexpr double kRoundSeconds = 0.5;
  std::vector<QueryRound> rounds;
  const Stopwatch loop;
  while (rounds.empty() || loop.seconds() < kRoundSeconds) {
    rounds.push_back(run_query_round(*reader, set, ctx.traced));
    if (rounds.back().answer_hash != rounds.front().answer_hash) {
      r.error = "query answers differ between rounds";
      return r;
    }
  }
  r.values["query_leg_s"] = wall.seconds();

  std::vector<double> walls, all;
  std::vector<double> by_op[kQueryOps];
  for (const auto& rd : rounds) {
    walls.push_back(rd.wall_s);
    for (int op = 0; op < kQueryOps; ++op) {
      by_op[op].insert(by_op[op].end(), rd.latency_us[op].begin(),
                       rd.latency_us[op].end());
      all.insert(all.end(), rd.latency_us[op].begin(), rd.latency_us[op].end());
    }
  }
  r.values["query_open_ms"] = median(open_ms);
  r.values["query_s"] = median(walls);
  r.values["query_p50_us"] = percentile(all, 0.50);
  r.values["query_p99_us"] = percentile(all, 0.99);
  r.values["query.rounds"] = static_cast<double>(rounds.size());
  r.values["query.calls"] = static_cast<double>(set.size());
  for (int op = 0; op < kQueryOps; ++op) {
    r.values[std::string("query.") + to_string(static_cast<QueryOp>(op)) +
             "_us"] = percentile(by_op[op], 0.50);
  }
  const auto& first = rounds.front();
  const double lookups = static_cast<double>(first.cache_hits + first.cache_misses);
  r.values["query.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(first.cache_hits) / lookups : 0;
  r.values["index.open_verify_mb_per_s"] =
      static_cast<double>(reader->file_bytes()) / 1e6 /
      (median(open_ms) * 1e-3);
  std::string answers = hex64(first.answer_hash);
  if (ctx.tamper == "query") answers += "-tampered";
  r.hashes["answers"] = answers;
  return r;
}

LegResult leg_serve(const LegContext& ctx, bool checkpoints) {
  LegResult r;
  const std::string leg = checkpoints ? "serve_ckpt" : "serve";
  const fs::path index_path = ctx.work / (leg + ".idx");
  obs::MetricsRegistry reg;
  gpures::serve::ServeConfig scfg;
  scfg.data_dir = ctx.dataset;
  scfg.threads = kWorkers;
  scfg.metrics = &reg;
  if (checkpoints) {
    scfg.checkpoint_dir = ctx.work / "ckpt";
    fs::remove_all(scfg.checkpoint_dir);
  }
  // Checkpoint write time, between the session's ckpt-pre and ckpt-post
  // hook points.
  double ckpt_write_s = 0;
  std::chrono::steady_clock::time_point ckpt_began;
  scfg.chaos_point = [&](const char* point) {
    const std::string_view p = point;
    if (p == "ckpt-pre") {
      ckpt_began = std::chrono::steady_clock::now();
    } else if (p == "ckpt-post") {
      ckpt_write_s += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - ckpt_began)
                          .count();
    }
  };
  EmitConfig ec;
  ec.attribution_window = scfg.attribution_window;
  ec.attribution = scfg.attribution;
  ec.outlier_share = scfg.outlier_share;
  ec.outlier_min = scfg.outlier_min;

  const Stopwatch wall;
  gpures::serve::ServeSession session(std::move(scfg));
  common::Status st;
  {
    Span s("pb:serve.open");
    st = session.open(false);
  }
  while (st.ok()) {
    {
      Span s("pb:serve.tick");
      st = session.tick();
    }
    if (session.idle()) break;
  }
  if (st.ok()) {
    Span s("pb:serve.checkpoint_now");
    st = session.checkpoint_now();
  }
  if (st.ok()) {
    Span s("pb:serve.finalize");
    st = session.finalize();
  }
  if (!st.ok()) {
    r.error = leg + ": " + st.error().message;
    return r;
  }
  ec.periods = session.periods();
  auto report = emit(session, session.topo(), ec, index_path, r);
  r.values[leg + "_s"] = wall.seconds();

  r.values["serve.ticks"] = static_cast<double>(session.ticks());
  r.values["serve.bytes_ingested"] =
      static_cast<double>(reg.counter_value("serve.bytes_ingested"));
  r.values["serve.retries"] =
      static_cast<double>(reg.counter_value("serve.retry.attempts"));
  r.values["serve.ckpt_generations"] =
      static_cast<double>(reg.counter_value("serve.checkpoint.writes"));
  r.values["serve.ckpt_bytes"] =
      static_cast<double>(reg.counter_value("serve.checkpoint.bytes"));
  r.values["serve.ckpt_write_s"] = ckpt_write_s;
  digest_outputs(ctx, leg, std::move(report), index_path, r);
  return r;
}

}  // namespace perfbench
