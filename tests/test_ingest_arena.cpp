// Arena ingestion round trip (PR "zero-copy log path"): the emit → write →
// load → parse chain over DayBuffer arenas must be byte- and result-identical
// to the per-line-string path it replaced, at every worker count — and the
// emit and parse hot loops must not touch the heap at all.
//
// This binary overrides global operator new/delete with a counting hook, so
// the zero-allocation claims are asserted, not assumed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/extraction.h"
#include "analysis/pipeline.h"
#include "cluster/topology.h"
#include "common/io.h"
#include "common/rng.h"
#include "logsys/day_buffer.h"
#include "logsys/log_store.h"
#include "logsys/syslog.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace ls = gpures::logsys;
namespace sl = gpures::slurm;
namespace gx = gpures::xid;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Global allocation counter.  Only operator new is counted; deletes are
// pass-through.  The hook is process-wide, so tests snapshot the counter
// immediately around the loop under scrutiny (gtest itself allocates).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  return std::malloc(n);
}
}  // namespace

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

fs::path temp_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("gpures_arena_" + name);
  fs::remove_all(dir);
  return dir;
}

/// A realistic mixed day (XID / drain / resume / noise) rendered through the
/// seed-style per-line API.  Deterministic in `seed`, so an emitter using the
/// append_* arena API with the same seed produces the same byte stream.
std::vector<ls::RawLine> make_mixed_lines(const cl::Topology& topo,
                                          std::size_t n, std::uint64_t seed,
                                          ct::TimePoint day) {
  ct::Rng rng(seed);
  std::vector<ls::RawLine> lines;
  lines.reserve(n);
  constexpr std::uint16_t kCodes[] = {31, 48, 63, 74, 79, 94, 95, 119};
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = day + static_cast<ct::Duration>(rng.uniform_u64(ct::kDay));
    const auto node = static_cast<std::int32_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(topo.node_count())));
    const auto& name = topo.node(node).name;
    const double what = rng.uniform();
    if (what < 0.70) {
      const auto slot = static_cast<std::int32_t>(rng.uniform_u64(
          static_cast<std::uint64_t>(topo.gpus_on_node(node))));
      const auto code =
          static_cast<gx::Code>(kCodes[rng.uniform_u64(std::size(kCodes))]);
      lines.push_back({t, ls::render_xid_line(t, name, topo.pci_bus({node, slot}),
                                              code, "pid=77, arena test payload")});
    } else if (what < 0.72) {
      lines.push_back({t, ls::render_drain_line(t, name)});
    } else if (what < 0.74) {
      lines.push_back({t, ls::render_resume_line(t, name)});
    } else {
      lines.push_back({t, ls::render_noise_line(rng, t, name)});
    }
  }
  return lines;
}

/// The same mix emitted through the arena hot path (append_* into a
/// DayBuffer) with the same RNG draws.
ls::DayBuffer emit_mixed_arena(const cl::Topology& topo, std::size_t n,
                               std::uint64_t seed, ct::TimePoint day) {
  ct::Rng rng(seed);
  ls::DayBuffer buf;
  buf.reserve(n, n * 140);
  constexpr std::uint16_t kCodes[] = {31, 48, 63, 74, 79, 94, 95, 119};
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = day + static_cast<ct::Duration>(rng.uniform_u64(ct::kDay));
    const auto node = static_cast<std::int32_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(topo.node_count())));
    const auto& name = topo.node(node).name;
    const double what = rng.uniform();
    if (what < 0.70) {
      const auto slot = static_cast<std::int32_t>(rng.uniform_u64(
          static_cast<std::uint64_t>(topo.gpus_on_node(node))));
      const auto code =
          static_cast<gx::Code>(kCodes[rng.uniform_u64(std::size(kCodes))]);
      const auto pci = topo.pci_bus({node, slot});
      auto& out = buf.open_line(t);
      ls::append_xid_line(out, t, name, pci, code, "pid=77, arena test payload");
      buf.close_line();
    } else if (what < 0.72) {
      auto& out = buf.open_line(t);
      ls::append_drain_line(out, t, name);
      buf.close_line();
    } else if (what < 0.74) {
      auto& out = buf.open_line(t);
      ls::append_resume_line(out, t, name);
      buf.close_line();
    } else {
      auto& out = buf.open_line(t);
      ls::append_noise_line(out, rng, t, name);
      buf.close_line();
    }
  }
  return buf;
}

an::DatasetManifest small_manifest(const cl::ClusterSpec& spec) {
  an::DatasetManifest m;
  m.name = "arena-test";
  m.spec = spec;
  m.periods = an::StudyPeriods::make(ct::make_date(2023, 1, 1),
                                     ct::make_date(2023, 3, 1),
                                     ct::make_date(2024, 1, 1));
  return m;
}

void expect_same_results(const an::AnalysisPipeline& a,
                         const an::AnalysisPipeline& b,
                         const std::string& what) {
  ASSERT_EQ(a.errors().size(), b.errors().size()) << what;
  for (std::size_t i = 0; i < a.errors().size(); ++i) {
    EXPECT_EQ(a.errors()[i].time, b.errors()[i].time) << what << " #" << i;
    EXPECT_EQ(a.errors()[i].gpu, b.errors()[i].gpu) << what << " #" << i;
    EXPECT_EQ(a.errors()[i].code, b.errors()[i].code) << what << " #" << i;
    EXPECT_EQ(a.errors()[i].raw_lines, b.errors()[i].raw_lines)
        << what << " #" << i;
  }
  ASSERT_EQ(a.lifecycle().size(), b.lifecycle().size()) << what;
  for (std::size_t i = 0; i < a.lifecycle().size(); ++i) {
    EXPECT_EQ(a.lifecycle()[i].time, b.lifecycle()[i].time) << what;
    EXPECT_EQ(a.lifecycle()[i].host, b.lifecycle()[i].host) << what;
    EXPECT_EQ(a.lifecycle()[i].kind, b.lifecycle()[i].kind) << what;
  }
  for (const char* name :
       {"pipe.log_lines", "pipe.xid_records", "pipe.rejected_lines"}) {
    EXPECT_EQ(a.metrics().counter_value(name), b.metrics().counter_value(name))
        << what << " " << name;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(ArenaRoundTrip, ArenaEmitMatchesPerLineEmitByteForByte) {
  // The arena emit path (append_* into a DayBuffer, slice sort) must produce
  // the same day-file bytes as the seed path (render_* per-line strings,
  // stable_sort, join with '\n').
  const cl::Topology topo(cl::ClusterSpec::small(4, 2));
  const auto day = ct::make_date(2023, 6, 1);

  auto lines = make_mixed_lines(topo, 4000, 99, day);
  auto arena = emit_mixed_arena(topo, 4000, 99, day);
  ASSERT_EQ(lines.size(), arena.size());

  std::stable_sort(lines.begin(), lines.end(),
                   [](const ls::RawLine& a, const ls::RawLine& b) {
                     return a.time < b.time;
                   });
  arena.sort_by_time();

  std::string per_line_text;
  for (const auto& l : lines) {
    per_line_text += l.text;
    per_line_text += '\n';
  }
  EXPECT_EQ(ls::render_day(arena), per_line_text);

  // And the DatasetWriter streams the exact same bytes from the arena runs.
  const auto dir = temp_dir("emit_bytes");
  {
    an::DatasetWriter w(dir, small_manifest(cl::ClusterSpec::small(4, 2)));
    w.write_day(day, arena);
    w.finalize();
  }
  const auto on_disk =
      gpures::common::read_file((dir / "syslog" / "syslog-2023-06-01.log").string());
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(on_disk.value(), per_line_text);
  fs::remove_all(dir);
}

TEST(ArenaRoundTrip, EqualTimestampsKeepEmissionOrderOnDisk) {
  // Slice sort is stable: lines sharing a timestamp land on disk in emission
  // order, exactly like the seed's stable_sort over per-line strings.
  const auto dir = temp_dir("stable");
  const auto day = ct::make_date(2023, 6, 2);
  ls::DayBuffer buf;
  buf.append(day + 50, "zeta late");
  buf.append(day + 10, "first at t+10");
  buf.append(day + 10, "second at t+10");
  buf.append(day + 10, "third at t+10");
  buf.append(day + 1, "earliest");
  buf.sort_by_time();
  {
    an::DatasetWriter w(dir, small_manifest(cl::ClusterSpec::small(1, 0)));
    w.write_day(day, buf);
    w.finalize();
  }
  const auto text =
      gpures::common::read_file((dir / "syslog" / "syslog-2023-06-02.log").string());
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(),
            "earliest\nfirst at t+10\nsecond at t+10\nthird at t+10\n"
            "zeta late\n");
  fs::remove_all(dir);
}

TEST(ArenaRoundTrip, DiskReplayMatchesPerLineIngestionAtEveryWorkerCount) {
  // Full differential: three emitted days are teed to disk via the arena
  // writer, then loaded back (prefetched reads + from_text arenas) through
  // pipelines at 0/2/4/8 workers.  Every replay must reproduce the serial
  // per-line ingestion (ingest_log_day over RawLine spans) exactly.
  const auto spec = cl::ClusterSpec::small(6, 3);
  const cl::Topology topo(spec);
  const auto day0 = ct::make_date(2023, 6, 10);
  const auto dir = temp_dir("replay");

  std::vector<std::vector<ls::RawLine>> days;
  {
    an::DatasetWriter w(dir, small_manifest(spec));
    for (int d = 0; d < 3; ++d) {
      const auto day = day0 + d * ct::kDay;
      auto lines = make_mixed_lines(topo, 5000, 7 + static_cast<std::uint64_t>(d), day);
      auto arena = emit_mixed_arena(topo, 5000, 7 + static_cast<std::uint64_t>(d), day);
      arena.sort_by_time();
      w.write_day(day, arena);
      std::stable_sort(lines.begin(), lines.end(),
                       [](const ls::RawLine& a, const ls::RawLine& b) {
                         return a.time < b.time;
                       });
      days.push_back(std::move(lines));
    }
    w.finalize();
  }

  an::PipelineConfig base;
  base.periods = small_manifest(spec).periods;
  an::AnalysisPipeline reference(topo, base);
  for (int d = 0; d < 3; ++d) {
    reference.ingest_log_day(day0 + d * ct::kDay, days[static_cast<std::size_t>(d)]);
  }
  reference.finish();
  ASSERT_GT(reference.errors().size(), 0u);
  ASSERT_GT(reference.lifecycle().size(), 0u);

  for (const std::uint32_t threads : {0u, 2u, 4u, 8u}) {
    an::PipelineConfig cfg = base;
    cfg.num_threads = threads;
    an::AnalysisPipeline pipe(topo, cfg);
    const auto loaded = an::load_dataset(dir, pipe);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_EQ(loaded.value(), 3u);
    expect_same_results(reference, pipe,
                        "replay threads=" + std::to_string(threads));
  }
  fs::remove_all(dir);
}

TEST(ArenaRoundTrip, FromTextArenaIngestionMatchesSpanIngestion) {
  // ingest_log_text (the loader's zero-copy entry: file text adopted as the
  // arena) and ingest_log_day (per-line span) agree in memory, no disk.
  const auto spec = cl::ClusterSpec::small(4, 2);
  const cl::Topology topo(spec);
  const auto day = ct::make_date(2023, 7, 1);
  auto lines = make_mixed_lines(topo, 3000, 21, day);
  std::stable_sort(lines.begin(), lines.end(),
                   [](const ls::RawLine& a, const ls::RawLine& b) {
                     return a.time < b.time;
                   });
  std::string text;
  for (const auto& l : lines) {
    text += l.text;
    text += '\n';
  }

  an::AnalysisPipeline span_pipe(topo, {});
  span_pipe.ingest_log_day(day, lines);
  span_pipe.finish();

  an::AnalysisPipeline text_pipe(topo, {});
  text_pipe.ingest_log_text(day, std::move(text));
  text_pipe.finish();

  expect_same_results(span_pipe, text_pipe, "from_text vs span");
}

// ---------------------------------------------------------------------------
// Zero-allocation guarantees
// ---------------------------------------------------------------------------

TEST(ArenaAllocation, EmitHotPathDoesNotAllocate) {
  // With the day arena pre-sized, emitting XID / drain / resume / noise lines
  // through the append_* path performs zero heap allocations: the formatters
  // write digits in place and Topology::pci_bus returns an SSO string.
  const cl::Topology topo(cl::ClusterSpec::small(4, 2));
  const auto day = ct::make_date(2023, 8, 1);
  ct::Rng rng(5);
  ls::DayBuffer buf;
  buf.reserve(4096, 1u << 20);
  const auto& name = topo.node(1).name;
  const auto pci = topo.pci_bus({1, 0});

  const auto before = heap_allocs();
  for (int i = 0; i < 1000; ++i) {
    const auto t = day + i;
    auto& out = buf.open_line(t);
    ls::append_xid_line(out, t, name, pci, gx::Code::kUncontainedEccError,
                        "pid=77, payload");
    buf.close_line();
    auto& out2 = buf.open_line(t);
    ls::append_drain_line(out2, t, name);
    buf.close_line();
    auto& out3 = buf.open_line(t);
    ls::append_resume_line(out3, t, name);
    buf.close_line();
    auto& out4 = buf.open_line(t);
    ls::append_noise_line(out4, rng, t, name);
    buf.close_line();
  }
  const auto after = heap_allocs();
  EXPECT_EQ(after - before, 0u) << "emit hot path allocated";
  EXPECT_EQ(buf.size(), 4000u);
}

TEST(ArenaAllocation, SortAndRunVisitationDoNotAllocatePerLine) {
  // sort_by_time permutes 16-byte slices (std::stable_sort may grab one
  // scratch buffer — that is O(1) buffers, not O(lines)); for_each_run only
  // walks offsets.  Allow a small constant, reject anything per-line.
  const cl::Topology topo(cl::ClusterSpec::small(4, 2));
  auto buf = emit_mixed_arena(topo, 4000, 11, ct::make_date(2023, 8, 2));
  const auto before = heap_allocs();
  buf.sort_by_time();
  std::size_t bytes = 0;
  buf.for_each_run([&bytes](std::string_view run) { bytes += run.size(); });
  const auto after = heap_allocs();
  EXPECT_EQ(bytes, buf.bytes());
  EXPECT_LT(after - before, 8u) << "slice sort should not allocate per line";
}

TEST(ArenaAllocation, ParseHotPathDoesNotAllocate) {
  // Stage-I parsing over arena slices is allocation-free: XidRecord carries
  // string_views borrowed from the arena, and the rare LifecycleRecord hosts
  // ("gpua001"-style) fit in the small-string buffer.
  const cl::Topology topo(cl::ClusterSpec::small(4, 2));
  const auto day = ct::make_date(2023, 8, 3);
  auto buf = emit_mixed_arena(topo, 4000, 13, day);
  buf.sort_by_time();
  const an::FastLineParser parser;

  // Warm-up pass (first-touch lazy init, if any, happens here).
  std::size_t matched = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    matched += parser.parse(buf.line(i), day).has_value();
  }
  ASSERT_GT(matched, 0u);

  const auto before = heap_allocs();
  std::size_t matched2 = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    auto p = parser.parse(buf.line(i), day);
    matched2 += p.has_value();
  }
  const auto after = heap_allocs();
  EXPECT_EQ(after - before, 0u) << "parse hot path allocated";
  EXPECT_EQ(matched2, matched);
}

namespace {

/// Accounting rows of 1-8 GPUs over 1-2 nodes, with job names of varied
/// length, rendered through the writer the campaign uses.
std::vector<std::string> make_accounting_rows(const cl::Topology& topo,
                                              std::size_t n,
                                              std::uint64_t seed) {
  ct::Rng rng(seed);
  constexpr const char* kNames[] = {"train_resnet50", "namd_md", "BERT_ft",
                                    "cfd_sweep_long_parameter_scan_17", "x"};
  std::vector<std::string> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sl::JobRecord r;
    r.id = 1000 + i;
    r.name = kNames[rng.uniform_u64(std::size(kNames))];
    r.submit = ct::make_date(2023, 8, 1) + static_cast<ct::Duration>(i);
    r.start = r.submit + 30;
    r.end = r.start + 600 + static_cast<ct::Duration>(rng.uniform_u64(7200));
    r.state = rng.uniform_u64(4) == 0 ? sl::JobState::kFailed
                                      : sl::JobState::kCompleted;
    r.exit_code = r.state == sl::JobState::kFailed ? 1 : 0;
    const auto node = static_cast<std::int32_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(topo.node_count() - 1)));
    const auto gpus = static_cast<std::int32_t>(1 + rng.uniform_u64(8));
    for (std::int32_t g = 0; g < gpus; ++g) {
      const std::int32_t nd = node + g / 4;
      if (r.node_list.empty() || r.node_list.back() != nd) {
        r.node_list.push_back(nd);
      }
      r.gpu_list.push_back({nd, g % 4});
    }
    r.nodes = static_cast<std::int32_t>(r.node_list.size());
    r.gpus = gpus;
    rows.push_back(sl::to_accounting_line(r, topo));
  }
  return rows;
}

}  // namespace

TEST(ArenaAllocation, AccountingRowParseDoesNotAllocateAfterWarmUp) {
  // The reusing parse cuts fields in place and refills one caller-owned
  // record: once its name and lists have grown, no row touches the heap.
  const cl::Topology topo(cl::ClusterSpec::small(8, 2));
  const auto rows = make_accounting_rows(topo, 2000, 17);
  sl::JobRecord rec;
  for (const auto& row : rows) {
    ASSERT_TRUE(sl::parse_accounting_line(row, topo, rec).ok()) << row;
  }

  const auto before = heap_allocs();
  std::size_t ok = 0;
  std::size_t gpus = 0;
  for (const auto& row : rows) {
    ok += sl::parse_accounting_line(row, topo, rec).ok();
    gpus += rec.gpu_list.size();
  }
  const auto after = heap_allocs();
  EXPECT_EQ(after - before, 0u) << "accounting row parse allocated";
  EXPECT_EQ(ok, rows.size());
  EXPECT_GT(gpus, rows.size());

  // The reused record parses each row to exactly what a fresh one does,
  // even right after a row that failed halfway through.
  for (const auto& row : rows) {
    const auto torn = std::string_view(row).substr(0, row.size() - 3);
    EXPECT_FALSE(sl::parse_accounting_line(torn, topo, rec).ok());
    ASSERT_TRUE(sl::parse_accounting_line(row, topo, rec).ok());
    const auto fresh = sl::parse_accounting_line(row, topo);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(sl::to_accounting_line(rec, topo), row);
    EXPECT_EQ(sl::to_accounting_line(fresh.value(), topo), row);
    EXPECT_EQ(rec.is_ml, fresh.value().is_ml);
  }
}

TEST(ArenaAllocation, JobTableAddOfNarrowJobDoesNotAllocate) {
  // Jobs with <= 4 GPUs pack straight into the inline slots; with `jobs`
  // pre-sized, adding one makes no allocation.  Wide jobs still spill.
  const cl::Topology topo(cl::ClusterSpec::small(8, 2));
  const auto rows = make_accounting_rows(topo, 2000, 19);
  std::vector<sl::JobRecord> narrow;
  std::size_t wide = 0;
  for (const auto& row : rows) {
    auto rec = sl::parse_accounting_line(row, topo);
    ASSERT_TRUE(rec.ok());
    if (rec.value().gpu_list.size() <= 4) {
      narrow.push_back(std::move(rec).take());
    } else {
      ++wide;
    }
  }
  ASSERT_GT(narrow.size(), 100u);
  ASSERT_GT(wide, 100u);

  an::JobTable table;
  table.jobs.reserve(narrow.size());
  const auto before = heap_allocs();
  for (const auto& rec : narrow) table.add(rec);
  const auto after = heap_allocs();
  EXPECT_EQ(after - before, 0u) << "JobTable::add of a narrow job allocated";
  ASSERT_EQ(table.jobs.size(), narrow.size());
  EXPECT_TRUE(table.spill.empty());
  for (std::size_t i = 0; i < narrow.size(); ++i) {
    const auto got = table.gpus_of(table.jobs[i]);
    ASSERT_EQ(got.size(), narrow[i].gpu_list.size());
    for (std::size_t g = 0; g < got.size(); ++g) {
      EXPECT_EQ(got[g], an::pack_gpu(narrow[i].gpu_list[g].node,
                                     narrow[i].gpu_list[g].slot));
    }
  }
}
