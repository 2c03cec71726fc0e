// Serve-daemon benchmarks:
//
//  * follow-mode ingestion (ServeSession tick loop + finalize) vs the batch
//    loader over the same dataset, at 0/4 worker threads — the price of
//    incremental, checkpointable ingestion;
//  * chunk-size sweep: small chunks mean more ticks (more scheduler and
//    directory-scan overhead) for identical results;
//  * frontier serialize/parse as the open coalescer state grows, and one
//    store generation (segment append + frontier write) as the history a
//    daemon has already emitted grows — the write must stay O(delta).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/dataset.h"
#include "analysis/pipeline.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "logsys/log_store.h"
#include "logsys/syslog.h"
#include "serve/checkpoint.h"
#include "serve/serve.h"
#include "slurm/accounting.h"

namespace {

using namespace gpures;
namespace fs = std::filesystem;

const common::TimePoint kDay0 = common::make_date(2023, 6, 1);
constexpr int kDays = 8;
constexpr int kLinesPerDay = 20000;

const cluster::Topology& topo() {
  static const cluster::Topology t{cluster::ClusterSpec::small(4, 0)};
  return t;
}

/// Build (once) a dataset big enough that ingestion dominates setup.
const fs::path& dataset() {
  static const fs::path dir = [] {
    const auto d = fs::temp_directory_path() / "gpures_bench_serve";
    fs::remove_all(d);
    analysis::DatasetManifest m;
    m.spec = cluster::ClusterSpec::small(4, 0);
    m.periods = analysis::StudyPeriods::make(kDay0, kDay0 + 2 * common::kDay,
                                             kDay0 + kDays * common::kDay);
    analysis::DatasetWriter w(d, m);
    common::Rng rng(42);
    constexpr std::uint16_t codes[] = {31, 48, 63, 79, 94, 95, 119, 120};
    for (int day = 0; day < kDays; ++day) {
      const auto start = kDay0 + day * common::kDay;
      std::vector<logsys::RawLine> lines;
      lines.reserve(kLinesPerDay);
      for (int i = 0; i < kLinesPerDay; ++i) {
        const auto t = start + static_cast<common::Duration>(
                                   rng.uniform_u64(common::kDay));
        const auto node = static_cast<std::int32_t>(rng.uniform_u64(4));
        const auto& host = topo().node(node).name;
        if (rng.uniform() < 0.6) {
          const auto slot = static_cast<std::int32_t>(rng.uniform_u64(4));
          const auto code = static_cast<xid::Code>(
              codes[rng.uniform_u64(std::size(codes))]);
          lines.push_back(
              {t, logsys::render_xid_line(t, host, topo().pci_bus({node, slot}),
                                          code, "bench")});
        } else {
          lines.push_back({t, logsys::render_noise_line(rng, t, host)});
        }
      }
      std::sort(lines.begin(), lines.end(),
                [](const logsys::RawLine& a, const logsys::RawLine& b) {
                  return a.time < b.time;
                });
      w.write_day(start, lines);
    }
    w.write_accounting_line(slurm::accounting_header());
    for (int j = 0; j < 500; ++j) {
      slurm::JobRecord rec;
      rec.id = static_cast<slurm::JobId>(1000 + j);
      rec.name = "job" + std::to_string(j);
      rec.submit = kDay0 + j * 120;
      rec.start = rec.submit + 30;
      rec.end = rec.start + 1800;
      rec.gpus = 1;
      rec.nodes = 1;
      rec.node_list = {j % 4};
      rec.gpu_list = {{j % 4, j % 4}};
      w.write_accounting_line(slurm::to_accounting_line(rec, topo()));
    }
    const auto st = w.finalize();
    if (!st.ok()) std::abort();
    return d;
  }();
  return dir;
}

void run_serve(std::uint32_t threads, std::uint64_t chunk_bytes,
               benchmark::State& state) {
  std::uint64_t errors = 0;
  for (auto _ : state) {
    serve::ServeConfig cfg;
    cfg.data_dir = dataset();
    cfg.threads = threads;
    cfg.max_chunk_bytes = chunk_bytes;
    serve::ServeSession s(std::move(cfg));
    if (!s.open(false).ok()) std::abort();
    while (!s.idle()) {
      if (!s.tick().ok()) std::abort();
    }
    if (!s.finalize().ok()) std::abort();
    errors = s.errors().size();
    benchmark::DoNotOptimize(errors);
  }
  state.counters["errors"] = static_cast<double>(errors);
}

void BM_ServeOnce(benchmark::State& state) {
  run_serve(static_cast<std::uint32_t>(state.range(0)), 4 << 20, state);
}
BENCHMARK(BM_ServeOnce)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ServeChunkSweep(benchmark::State& state) {
  run_serve(0, static_cast<std::uint64_t>(state.range(0)), state);
}
BENCHMARK(BM_ServeChunkSweep)
    ->Arg(16 << 10)
    ->Arg(256 << 10)
    ->Arg(4 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_BatchLoad(benchmark::State& state) {
  for (auto _ : state) {
    const auto m = analysis::read_manifest(dataset());
    if (!m.ok()) std::abort();
    const cluster::Topology t(m.value().spec);
    analysis::PipelineConfig pcfg;
    pcfg.periods = m.value().periods;
    pcfg.num_threads = static_cast<std::uint32_t>(state.range(0));
    analysis::AnalysisPipeline pipe(t, pcfg);
    analysis::IngestOptions opt;
    opt.policy = analysis::IngestPolicy::kLenient;
    const auto loaded = analysis::load_dataset(dataset(), pipe, opt);
    if (!loaded.ok()) std::abort();
    benchmark::DoNotOptimize(pipe.errors().size());
  }
}
BENCHMARK(BM_BatchLoad)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

std::vector<analysis::CoalescedError> synthetic_errors(std::int64_t n,
                                                       std::int64_t first) {
  common::Rng rng(static_cast<std::uint64_t>(7 + first));
  std::vector<analysis::CoalescedError> out;
  for (std::int64_t i = first; i < first + n; ++i) {
    analysis::CoalescedError e;
    e.time = kDay0 + i;
    e.last = e.time + 5;
    e.gpu = {static_cast<std::int32_t>(rng.uniform_u64(4)),
             static_cast<std::int32_t>(rng.uniform_u64(4))};
    e.code = xid::Code::kGspRpcTimeout;
    e.raw_xid = 119;
    e.raw_lines = 3;
    out.push_back(e);
  }
  return out;
}

serve::CheckpointFrontier synthetic_frontier(std::int64_t n_open) {
  serve::CheckpointFrontier f;
  f.config_hash = 0xfeedface;
  f.seq = 3;
  f.tick = 1000;
  for (int day = 0; day < kDays; ++day) {
    serve::SourceSnapshot s;
    s.name = "syslog-2023-06-0" + std::to_string(day + 1) + ".log";
    s.date = kDay0 + day * common::kDay;
    s.offset = 1 << 20;
    s.lines_seen = kLinesPerDay;
    s.existed = true;
    s.sealed = day + 1 < kDays;
    f.sources.push_back(std::move(s));
  }
  f.coalescer.open = synthetic_errors(n_open, 0);
  f.coalescer.records_in = static_cast<std::uint64_t>(n_open) * 3;
  return f;
}

void BM_CheckpointSerialize(benchmark::State& state) {
  const auto f = synthetic_frontier(state.range(0));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string s = serve::serialize_generation(f, {});
    bytes = s.size();
    benchmark::DoNotOptimize(s.data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointSerialize)->Arg(100)->Arg(1000)->Arg(10000);

void BM_CheckpointParse(benchmark::State& state) {
  const std::string bytes =
      serve::serialize_generation(synthetic_frontier(state.range(0)), {});
  for (auto _ : state) {
    auto parsed = serve::parse_generation(bytes);
    if (!parsed.ok()) std::abort();
    benchmark::DoNotOptimize(parsed.value().frontier.coalescer.open.size());
  }
}
BENCHMARK(BM_CheckpointParse)->Arg(100)->Arg(1000)->Arg(10000);

/// One generation over a history of range(0) already-committed errors plus
/// 100 new ones: time and bytes should not grow with the history.
void BM_CheckpointStoreWrite(benchmark::State& state) {
  const auto dir = fs::temp_directory_path() /
                   ("gpures_bench_serve_ckpt_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  serve::CheckpointStore store(dir, 2);
  auto f = synthetic_frontier(16);
  if (!store.reset(f.config_hash).ok()) std::abort();
  auto errors = synthetic_errors(state.range(0), 0);
  ++f.seq;
  if (!store.write(f, serve::ResultStreams{errors, {}, {}, {}}).ok()) {
    std::abort();
  }
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto more = synthetic_errors(100, static_cast<std::int64_t>(
                                                errors.size()));
    errors.insert(errors.end(), more.begin(), more.end());
    ++f.seq;
    const auto written =
        store.write(f, serve::ResultStreams{errors, {}, {}, {}});
    if (!written.ok()) std::abort();
    bytes = written.value();
  }
  state.counters["bytes_per_generation"] = static_cast<double>(bytes);
  fs::remove_all(dir);
}
BENCHMARK(BM_CheckpointStoreWrite)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
