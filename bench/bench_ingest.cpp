// Ingest-path micro-benchmarks for the arena-backed zero-copy log path:
//
//  * emit:  per-line std::string rendering (the seed data model) vs
//           append_* straight into a DayBuffer arena;
//  * write: per-line ofstream<< loop vs DatasetWriter streaming the arena
//           in maximal contiguous runs;
//  * load:  the seed's istreambuf_iterator + getline replica vs one sized
//           read_file adopted as the arena by DayBuffer::from_text;
//  * load+parse: a day file through the full Stage-I path, seed replica vs
//           arena (the CI regression gate asserts arena >= 2x here);
//  * Stage-I parse over pre-built arenas at 0/2/4/8 worker threads.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/extraction.h"
#include "analysis/pipeline.h"
#include "cluster/topology.h"
#include "common/io.h"
#include "common/rng.h"
#include "logsys/day_buffer.h"
#include "logsys/log_store.h"
#include "logsys/syslog.h"
#include "simd/scan.h"

namespace {

using namespace gpures;
namespace fs = std::filesystem;

constexpr std::size_t kLinesPerDay = 50000;
constexpr std::uint16_t kCodes[] = {31, 48, 63, 64, 74, 79, 94, 95,
                                    119, 120, 122, 123};

const cluster::Topology& topo() {
  static const cluster::Topology t{cluster::ClusterSpec::delta_a100()};
  return t;
}

/// One RNG-driven line decision, shared by both emit paths so they produce
/// identical byte streams (70% XID / 2% drain / 2% resume / 26% noise).
template <typename XidFn, typename DrainFn, typename ResumeFn, typename NoiseFn>
void emit_mix(common::Rng& rng, common::TimePoint day, XidFn&& xid,
              DrainFn&& drain, ResumeFn&& resume, NoiseFn&& noise) {
  const auto t = day + static_cast<common::Duration>(rng.uniform_u64(common::kDay));
  const auto node = static_cast<std::int32_t>(rng.uniform_u64(106));
  const auto& name = topo().node(node).name;
  const double what = rng.uniform();
  if (what < 0.70) {
    const auto slot = static_cast<std::int32_t>(rng.uniform_u64(
        static_cast<std::uint64_t>(topo().gpus_on_node(node))));
    const auto code =
        static_cast<xid::Code>(kCodes[rng.uniform_u64(std::size(kCodes))]);
    xid(t, name, topo().pci_bus({node, slot}), code);
  } else if (what < 0.72) {
    drain(t, name);
  } else if (what < 0.74) {
    resume(t, name);
  } else {
    noise(rng, t, name);
  }
}

constexpr const char* kDetail = "pid=1234, detail payload for benchmarking";

std::vector<logsys::RawLine> make_day_lines(std::size_t n, std::uint64_t seed,
                                            common::TimePoint day) {
  common::Rng rng(seed);
  std::vector<logsys::RawLine> lines;
  lines.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    emit_mix(
        rng, day,
        [&](common::TimePoint t, std::string_view name, std::string_view pci,
            xid::Code code) {
          lines.push_back({t, logsys::render_xid_line(t, name, pci, code, kDetail)});
        },
        [&](common::TimePoint t, std::string_view name) {
          lines.push_back({t, logsys::render_drain_line(t, name)});
        },
        [&](common::TimePoint t, std::string_view name) {
          lines.push_back({t, logsys::render_resume_line(t, name)});
        },
        [&](common::Rng& r, common::TimePoint t, std::string_view name) {
          lines.push_back({t, logsys::render_noise_line(r, t, name)});
        });
  }
  return lines;
}

logsys::DayBuffer make_day_arena(std::size_t n, std::uint64_t seed,
                                 common::TimePoint day) {
  common::Rng rng(seed);
  logsys::DayBuffer buf;
  buf.reserve(n, n * 140);
  for (std::size_t i = 0; i < n; ++i) {
    emit_mix(
        rng, day,
        [&](common::TimePoint t, std::string_view name, std::string_view pci,
            xid::Code code) {
          auto& out = buf.open_line(t);
          logsys::append_xid_line(out, t, name, pci, code, kDetail);
          buf.close_line();
        },
        [&](common::TimePoint t, std::string_view name) {
          auto& out = buf.open_line(t);
          logsys::append_drain_line(out, t, name);
          buf.close_line();
        },
        [&](common::TimePoint t, std::string_view name) {
          auto& out = buf.open_line(t);
          logsys::append_resume_line(out, t, name);
          buf.close_line();
        },
        [&](common::Rng& r, common::TimePoint t, std::string_view name) {
          auto& out = buf.open_line(t);
          logsys::append_noise_line(out, r, t, name);
          buf.close_line();
        });
  }
  return buf;
}

/// A sorted on-disk day file shared by the write/load/parse benchmarks.
const fs::path& day_file() {
  static const fs::path path = [] {
    const auto day = common::make_date(2023, 6, 1);
    auto buf = make_day_arena(kLinesPerDay, 42, day);
    buf.sort_by_time();
    const auto p =
        fs::temp_directory_path() / "gpures_bench_ingest-syslog-2023-06-01.log";
    std::ofstream os(p, std::ios::trunc | std::ios::binary);
    buf.for_each_run([&os](std::string_view run) {
      os.write(run.data(), static_cast<std::streamsize>(run.size()));
    });
    return p;
  }();
  return path;
}

// --- emit ------------------------------------------------------------------

void BM_Emit_PerLineStrings(benchmark::State& state) {
  const auto day = common::make_date(2023, 6, 1);
  for (auto _ : state) {
    auto lines = make_day_lines(kLinesPerDay, 42, day);
    std::stable_sort(lines.begin(), lines.end(),
                     [](const logsys::RawLine& a, const logsys::RawLine& b) {
                       return a.time < b.time;
                     });
    benchmark::DoNotOptimize(lines.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLinesPerDay));
}
BENCHMARK(BM_Emit_PerLineStrings)->Unit(benchmark::kMillisecond);

void BM_Emit_Arena(benchmark::State& state) {
  const auto day = common::make_date(2023, 6, 1);
  for (auto _ : state) {
    auto buf = make_day_arena(kLinesPerDay, 42, day);
    buf.sort_by_time();
    benchmark::DoNotOptimize(buf.bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLinesPerDay));
}
BENCHMARK(BM_Emit_Arena)->Unit(benchmark::kMillisecond);

// --- write -----------------------------------------------------------------

void BM_DayWrite_PerLineStreams(benchmark::State& state) {
  const auto day = common::make_date(2023, 6, 1);
  auto lines = make_day_lines(kLinesPerDay, 42, day);
  std::stable_sort(lines.begin(), lines.end(),
                   [](const logsys::RawLine& a, const logsys::RawLine& b) {
                     return a.time < b.time;
                   });
  const auto path = fs::temp_directory_path() / "gpures_bench_ingest-w1.log";
  for (auto _ : state) {
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    for (const auto& l : lines) os << l.text << '\n';
  }
  fs::remove(path);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLinesPerDay));
}
BENCHMARK(BM_DayWrite_PerLineStreams)->Unit(benchmark::kMillisecond);

void BM_DayWrite_ArenaRuns(benchmark::State& state) {
  const auto day = common::make_date(2023, 6, 1);
  auto buf = make_day_arena(kLinesPerDay, 42, day);
  buf.sort_by_time();
  const auto path = fs::temp_directory_path() / "gpures_bench_ingest-w2.log";
  for (auto _ : state) {
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    buf.for_each_run([&os](std::string_view run) {
      os.write(run.data(), static_cast<std::streamsize>(run.size()));
    });
  }
  fs::remove(path);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLinesPerDay));
}
BENCHMARK(BM_DayWrite_ArenaRuns)->Unit(benchmark::kMillisecond);

// --- load ------------------------------------------------------------------

void BM_DayLoad_SeedGetline(benchmark::State& state) {
  // The seed loader: istreambuf_iterator pulls the file through the stream
  // buffer one character at a time, then getline re-splits into one heap
  // string per line.
  const auto& path = day_file();
  std::size_t lines_total = 0;
  for (auto _ : state) {
    std::ifstream is(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    std::vector<std::string> lines;
    std::string line;
    std::istringstream ss(text);
    while (std::getline(ss, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    lines_total = lines.size();
    benchmark::DoNotOptimize(lines.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines_total));
}
BENCHMARK(BM_DayLoad_SeedGetline)->Unit(benchmark::kMillisecond);

void BM_DayLoad_ArenaFromText(benchmark::State& state) {
  // The PR loader: one sized read, text adopted as the arena, slices found
  // with memchr.
  const auto& path = day_file();
  const auto day = common::make_date(2023, 6, 1);
  std::size_t lines_total = 0;
  for (auto _ : state) {
    auto text = common::read_file(path.string());
    auto buf =
        logsys::DayBuffer::from_text(day, std::move(text).take());
    lines_total = buf.size();
    benchmark::DoNotOptimize(buf.bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines_total));
}
BENCHMARK(BM_DayLoad_ArenaFromText)->Unit(benchmark::kMillisecond);

// --- load + Stage-I parse (the CI-gated pair) ------------------------------

void BM_LoadParse_SeedPath(benchmark::State& state) {
  // The seed dataset loader, replicated verbatim: istreambuf_iterator pulls
  // the file one character at a time, ingest_log_text's split copies every
  // line into its own heap string, and Stage I parses those strings.
  const auto& path = day_file();
  const auto day = common::make_date(2023, 6, 1);
  const analysis::FastLineParser parser;
  std::size_t matched = 0;
  for (auto _ : state) {
    std::ifstream is(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    std::vector<logsys::RawLine> lines;
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t nl = text.find('\n', start);
      if (nl == std::string::npos) nl = text.size();
      if (nl > start) {
        lines.push_back(
            logsys::RawLine{day, std::string(text.substr(start, nl - start))});
      }
      start = nl + 1;
    }
    matched = 0;
    for (const auto& l : lines) {
      auto p = parser.parse(l.text, day);
      matched += p.has_value();
      benchmark::DoNotOptimize(p);
    }
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLinesPerDay));
}
BENCHMARK(BM_LoadParse_SeedPath)->Unit(benchmark::kMillisecond);

void BM_LoadParse_ArenaPath(benchmark::State& state) {
  // The PR loader: one sized read, text adopted as the day arena, Stage I
  // parses string_view slices in place — no per-line strings anywhere.
  const auto& path = day_file();
  const auto day = common::make_date(2023, 6, 1);
  const analysis::FastLineParser parser;
  std::size_t matched = 0;
  for (auto _ : state) {
    auto text = common::read_file(path.string());
    const auto buf =
        logsys::DayBuffer::from_text(day, std::move(text).take());
    matched = 0;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      auto p = parser.parse(buf.line(i), day);
      matched += p.has_value();
      benchmark::DoNotOptimize(p);
    }
  }
  benchmark::DoNotOptimize(matched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLinesPerDay));
}
BENCHMARK(BM_LoadParse_ArenaPath)->Unit(benchmark::kMillisecond);

// --- Stage-I parse over arenas, serial vs worker threads -------------------

void BM_StageI_ArenaParse(benchmark::State& state) {
  constexpr int kDays = 4;
  const auto day0 = common::make_date(2023, 6, 1);
  static std::vector<std::string>* days = [] {
    auto* out = new std::vector<std::string>;
    for (int d = 0; d < kDays; ++d) {
      auto buf = make_day_arena(kLinesPerDay,
                                42 + static_cast<std::uint64_t>(d),
                                common::make_date(2023, 6, 1) + d * common::kDay);
      buf.sort_by_time();
      out->push_back(logsys::render_day(buf));
    }
    return out;
  }();
  for (auto _ : state) {
    analysis::PipelineConfig cfg;
    cfg.num_threads = static_cast<std::uint32_t>(state.range(0));
    analysis::AnalysisPipeline pipe(topo(), cfg);
    for (int d = 0; d < kDays; ++d) {
      pipe.ingest_log_text(day0 + d * common::kDay,
                           std::string((*days)[static_cast<std::size_t>(d)]));
    }
    pipe.finish();
    benchmark::DoNotOptimize(pipe.errors().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDays * kLinesPerDay));
}
BENCHMARK(BM_StageI_ArenaParse)
    ->Arg(0)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- screened scan + Stage-I parse, one leg per scan backend ---------------

/// Noise-heavy day text for the per-backend legs.  The 70%-XID mix above
/// spends most of its time in backend-independent field extraction, which
/// would mask kernel differences; real consolidated syslog is mostly noise
/// the scanner classifies and the prefilter rejects, so that is the mix the
/// backend comparison should run on (12% XID / 2% drain / 2% resume / 84%
/// noise).
const std::string& noisy_day_text() {
  static const std::string text = [] {
    const auto day = common::make_date(2023, 6, 1);
    common::Rng rng(1207);
    logsys::DayBuffer buf;
    buf.reserve(kLinesPerDay, kLinesPerDay * 160);
    for (std::size_t i = 0; i < kLinesPerDay; ++i) {
      const auto t =
          day + static_cast<common::Duration>(rng.uniform_u64(common::kDay));
      const auto node = static_cast<std::int32_t>(rng.uniform_u64(106));
      const auto& name = topo().node(node).name;
      const double what = rng.uniform();
      auto& out = buf.open_line(t);
      if (what < 0.12) {
        const auto slot = static_cast<std::int32_t>(rng.uniform_u64(
            static_cast<std::uint64_t>(topo().gpus_on_node(node))));
        const auto code =
            static_cast<xid::Code>(kCodes[rng.uniform_u64(std::size(kCodes))]);
        logsys::append_xid_line(out, t, name, topo().pci_bus({node, slot}),
                                code, kDetail);
      } else if (what < 0.14) {
        logsys::append_drain_line(out, t, name);
      } else if (what < 0.16) {
        logsys::append_resume_line(out, t, name);
      } else {
        logsys::append_noise_line(out, rng, t, name);
      }
      buf.close_line();
    }
    buf.sort_by_time();
    return logsys::render_day(buf);
  }();
  return text;
}

/// The full screened Stage-I path — quarantine scan, line slicing, parse —
/// pinned to one scan backend.  CI reads items_per_second off these legs and
/// enforces that the avx2 leg, where the host has one, clears 1.5x the
/// scalar leg.
void BM_ParseDay_Simd(benchmark::State& state, simd::Backend backend) {
  const auto saved = simd::active();
  if (!simd::set_active(backend)) {
    state.SkipWithError("scan backend unavailable on this host");
    return;
  }
  const auto day = common::make_date(2023, 6, 1);
  const auto& text = noisy_day_text();
  const analysis::FastLineParser parser;
  std::size_t matched = 0;
  for (auto _ : state) {
    std::string copy = text;
    logsys::ScreenCounts counts;
    const auto buf = logsys::DayBuffer::from_text(day, std::move(copy),
                                                  logsys::LineScreen{}, counts);
    matched = 0;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      auto p = parser.parse(buf.line(i), day);
      matched += p.has_value();
      benchmark::DoNotOptimize(p);
    }
  }
  benchmark::DoNotOptimize(matched);
  simd::set_active(saved);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLinesPerDay));
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the per-backend legs can only be
// registered at runtime, after probing which backends this host supports.
int main(int argc, char** argv) {
  namespace sd = gpures::simd;
  for (const auto backend : sd::all_available()) {
    std::string name = "BM_ParseDay_Simd/";
    name += sd::to_string(backend);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [backend](benchmark::State& s) {
                                   BM_ParseDay_Simd(s, backend);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
