// Pipeline micro-benchmarks (the Fig. 1 stages as code):
//  * Stage I throughput: fast hand-rolled matcher vs std::regex reference
//    (ablation A3 in DESIGN.md) over a realistic log mix;
//  * Stage II coalescing throughput;
//  * end-to-end day ingestion;
//  * Stage I+II over a multi-day campaign, serial vs 2/4/8 worker threads
//    (the deterministic sharded mode; speedup requires a multi-core host).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "analysis/coalesce.h"
#include "analysis/extraction.h"
#include "analysis/pipeline.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "logsys/syslog.h"

namespace {

using namespace gpures;

// A realistic day of log traffic: ~70% XID lines (with duplicates), a few
// lifecycle lines, the rest noise.
std::vector<std::string> make_day_lines(
    std::size_t n, std::uint64_t seed,
    common::TimePoint day = common::make_date(2023, 6, 1)) {
  common::Rng rng(seed);
  cluster::Topology topo(cluster::ClusterSpec::delta_a100());
  std::vector<std::string> lines;
  lines.reserve(n);
  constexpr std::uint16_t kCodes[] = {31, 48, 63, 64, 74, 79, 94, 95,
                                      119, 120, 122, 123};
  for (std::size_t i = 0; i < n; ++i) {
    const auto t =
        day + static_cast<common::Duration>(rng.uniform_u64(common::kDay));
    const auto node = static_cast<std::int32_t>(rng.uniform_u64(106));
    const auto& name = topo.node(node).name;
    const double what = rng.uniform();
    if (what < 0.70) {
      const auto slot = static_cast<std::int32_t>(
          rng.uniform_u64(static_cast<std::uint64_t>(topo.gpus_on_node(node))));
      const auto code = static_cast<xid::Code>(
          kCodes[rng.uniform_u64(std::size(kCodes))]);
      lines.push_back(logsys::render_xid_line(
          t, name, topo.pci_bus({node, slot}), code,
          "pid=1234, detail payload for benchmarking"));
    } else if (what < 0.72) {
      lines.push_back(logsys::render_drain_line(t, name));
    } else if (what < 0.74) {
      lines.push_back(logsys::render_resume_line(t, name));
    } else {
      lines.push_back(logsys::render_noise_line(rng, t, name));
    }
  }
  return lines;
}

const std::vector<std::string>& day_lines() {
  static const auto lines = make_day_lines(100000, 42);
  return lines;
}

void BM_StageI_FastMatcher(benchmark::State& state) {
  const auto& lines = day_lines();
  analysis::FastLineParser parser;
  const auto day = common::make_date(2023, 6, 1);
  std::size_t matched = 0;
  for (auto _ : state) {
    for (const auto& l : lines) {
      auto p = parser.parse(l, day);
      matched += p.has_value();
      benchmark::DoNotOptimize(p);
    }
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_StageI_FastMatcher)->Unit(benchmark::kMillisecond);

void BM_StageI_RegexMatcher(benchmark::State& state) {
  const auto& lines = day_lines();
  analysis::RegexLineParser parser;
  const auto day = common::make_date(2023, 6, 1);
  std::size_t matched = 0;
  for (auto _ : state) {
    for (const auto& l : lines) {
      auto p = parser.parse(l, day);
      matched += p.has_value();
      benchmark::DoNotOptimize(p);
    }
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_StageI_RegexMatcher)->Unit(benchmark::kMillisecond);

void BM_StageII_Coalescing(benchmark::State& state) {
  common::Rng rng(7);
  std::vector<analysis::XidObservation> obs;
  obs.reserve(200000);
  common::TimePoint t = 0;
  for (int i = 0; i < 200000; ++i) {
    t += static_cast<common::Duration>(rng.uniform_u64(20));
    obs.push_back({t,
                   {static_cast<std::int32_t>(rng.uniform_u64(106)),
                    static_cast<std::int32_t>(rng.uniform_u64(4))},
                   static_cast<std::uint16_t>(rng.bernoulli(0.5) ? 31 : 95)});
  }
  analysis::CoalescerConfig cfg;
  cfg.window = 30;
  for (auto _ : state) {
    std::uint64_t out_count = 0;
    analysis::Coalescer c(cfg, [&](const analysis::CoalescedError&) {
      ++out_count;
    });
    for (const auto& o : obs) c.add(o);
    c.flush();
    benchmark::DoNotOptimize(out_count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(obs.size()));
}
BENCHMARK(BM_StageII_Coalescing)->Unit(benchmark::kMillisecond);

void BM_EndToEnd_DayIngestion(benchmark::State& state) {
  cluster::Topology topo(cluster::ClusterSpec::delta_a100());
  const auto day = common::make_date(2023, 6, 1);
  std::vector<logsys::RawLine> raw;
  for (const auto& l : day_lines()) raw.push_back({day, l});
  for (auto _ : state) {
    analysis::PipelineConfig cfg;
    analysis::AnalysisPipeline pipe(topo, cfg);
    pipe.ingest_log_day(day, raw);
    pipe.finish();
    benchmark::DoNotOptimize(pipe.errors().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_EndToEnd_DayIngestion)->Unit(benchmark::kMillisecond);

// Stage I+II over a standard multi-day campaign slice: 8 consolidated days of
// 50k lines each through the full parse -> resolve -> coalesce path.  Arg 0
// is the serial reference; 2/4/8 classify each day in that many line ranges
// and coalesce on one coalescer in line order, so the output is
// byte-identical to serial by construction.
void BM_StageI_II_MultiDay(benchmark::State& state) {
  constexpr int kDays = 8;
  constexpr std::size_t kLinesPerDay = 50000;
  cluster::Topology topo(cluster::ClusterSpec::delta_a100());
  const auto day0 = common::make_date(2023, 6, 1);
  static std::vector<std::vector<logsys::RawLine>>* days = [] {
    auto* out = new std::vector<std::vector<logsys::RawLine>>;
    for (int d = 0; d < kDays; ++d) {
      const auto start = common::make_date(2023, 6, 1) + d * common::kDay;
      std::vector<logsys::RawLine> raw;
      for (auto& l : make_day_lines(kLinesPerDay,
                                    42 + static_cast<std::uint64_t>(d), start)) {
        raw.push_back({start, std::move(l)});
      }
      out->push_back(std::move(raw));
    }
    return out;
  }();
  std::size_t errors = 0;
  // Per-stage totals come from the pipeline's own obs registry (the same
  // counters the CLIs export with --metrics), accumulated across iterations.
  std::uint64_t lines_parsed = 0;
  std::uint64_t observations = 0;
  std::uint64_t coalesced = 0;
  for (auto _ : state) {
    analysis::PipelineConfig cfg;
    cfg.num_threads = static_cast<std::uint32_t>(state.range(0));
    analysis::AnalysisPipeline pipe(topo, cfg);
    for (int d = 0; d < kDays; ++d) {
      pipe.ingest_log_day(day0 + d * common::kDay, (*days)[static_cast<std::size_t>(d)]);
    }
    pipe.finish();
    errors = pipe.errors().size();
    benchmark::DoNotOptimize(errors);
    const auto& reg = pipe.metrics();
    lines_parsed += reg.counter_value("pipe.log_lines");
    observations += reg.counter_value("pipe.xid_records");
    coalesced += reg.counter_value("pipe.errors_coalesced");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDays * kLinesPerDay));
  state.counters["errors"] =
      benchmark::Counter(static_cast<double>(errors));
  // Stage-I and Stage-II throughput as rates (per wall second of the loop).
  state.counters["lines/s"] = benchmark::Counter(
      static_cast<double>(lines_parsed), benchmark::Counter::kIsRate);
  state.counters["obs/s"] = benchmark::Counter(
      static_cast<double>(observations), benchmark::Counter::kIsRate);
  state.counters["coalesced/s"] = benchmark::Counter(
      static_cast<double>(coalesced), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StageI_II_MultiDay)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SyslogRendering(benchmark::State& state) {
  cluster::Topology topo(cluster::ClusterSpec::delta_a100());
  const auto day = common::make_date(2023, 6, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    auto line = logsys::render_xid_line(
        day + static_cast<common::Duration>(i % common::kDay), "gpua042",
        "0000:27:00", xid::Code::kMmuError, "MMU Fault payload");
    benchmark::DoNotOptimize(line);
    ++i;
  }
}
BENCHMARK(BM_SyslogRendering);

}  // namespace

BENCHMARK_MAIN();
