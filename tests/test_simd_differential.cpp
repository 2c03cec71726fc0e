// Backend differential suite at pipeline scale: the dispatch contract says
// the active SIMD backend may change how fast Stage I runs, never a single
// output byte.  This suite runs the screened slicer, the full pipeline, and
// a chaos-corrupted lenient ingest under every available backend at several
// worker counts, and requires byte-identical artifacts everywhere:
// rendered tables, CSV/JSON exports, the data-quality report, and the
// serialized binary index.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "analysis/export.h"
#include "analysis/pipeline.h"
#include "analysis/reports.h"
#include "chaos/chaos.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "index/writer.h"
#include "logsys/day_buffer.h"
#include "logsys/syslog.h"
#include "simd/scan.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace ch = gpures::chaos;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace ix = gpures::index;
namespace ls = gpures::logsys;
namespace sd = gpures::simd;
namespace sl = gpures::slurm;
namespace fs = std::filesystem;

namespace {

const ct::TimePoint kDay0 = ct::make_date(2023, 6, 1);

/// RAII backend switch: tests must leave the process-global dispatch state
/// the way they found it or later tests would silently run the wrong code.
class BackendGuard {
 public:
  explicit BackendGuard(sd::Backend b) : saved_(sd::active()) {
    EXPECT_TRUE(sd::set_active(b));
  }
  ~BackendGuard() { sd::set_active(saved_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  sd::Backend saved_;
};

// ---- screened slicing ------------------------------------------------------

struct SliceResult {
  std::string arena;
  std::vector<std::string> lines;
  ls::ScreenCounts counts;
};

SliceResult slice_screened(const std::string& text, sd::Backend backend,
                           std::uint32_t max_line_len = 8192) {
  BackendGuard guard(backend);
  ls::LineScreen screen;
  screen.max_line_len = max_line_len;
  SliceResult out;
  std::string copy = text;  // from_text consumes its argument
  const auto buf =
      ls::DayBuffer::from_text(kDay0, std::move(copy), screen, out.counts);
  out.arena = buf.arena();
  for (std::size_t i = 0; i < buf.size(); ++i) {
    out.lines.emplace_back(buf.line(i));
  }
  return out;
}

void expect_same_slicing(const std::string& text,
                         std::uint32_t max_line_len = 8192) {
  const auto ref = slice_screened(text, sd::Backend::kScalar, max_line_len);
  for (const auto backend : sd::all_available()) {
    const auto got = slice_screened(text, backend, max_line_len);
    const auto label = std::string(sd::to_string(backend));
    ASSERT_EQ(got.arena, ref.arena) << label;
    ASSERT_EQ(got.lines, ref.lines) << label;
    ASSERT_EQ(got.counts.kept_lines, ref.counts.kept_lines) << label;
    ASSERT_EQ(got.counts.kept_bytes, ref.counts.kept_bytes) << label;
    ASSERT_EQ(got.counts.binary_lines, ref.counts.binary_lines) << label;
    ASSERT_EQ(got.counts.binary_bytes, ref.counts.binary_bytes) << label;
    ASSERT_EQ(got.counts.overlong_lines, ref.counts.overlong_lines) << label;
    ASSERT_EQ(got.counts.overlong_bytes, ref.counts.overlong_bytes) << label;
    ASSERT_EQ(got.counts.torn_lines, ref.counts.torn_lines) << label;
    ASSERT_EQ(got.counts.torn_bytes, ref.counts.torn_bytes) << label;
    ASSERT_EQ(got.counts.crlf_bytes, ref.counts.crlf_bytes) << label;
    ASSERT_EQ(got.counts.first_line, ref.counts.first_line) << label;
    ASSERT_EQ(got.counts.first_offset, ref.counts.first_offset) << label;
    ASSERT_EQ(got.counts.first_category == nullptr,
              ref.counts.first_category == nullptr)
        << label;
    if (got.counts.first_category != nullptr) {
      ASSERT_STREQ(got.counts.first_category, ref.counts.first_category)
          << label;
    }
  }
}

// ---- pipeline runs ---------------------------------------------------------

/// Everything a pipeline run externalizes, rendered to one string.
std::string rendered_artifacts(const an::AnalysisPipeline& pipe) {
  const auto stats = pipe.error_stats();
  const auto avail = pipe.availability();
  std::ostringstream os;
  os << an::render_table1(stats);
  os << an::render_findings(stats);
  an::write_table1_csv(os, stats);
  an::write_fig2_csv(os, avail);
  an::ExportBundle bundle;
  bundle.error_stats = &stats;
  bundle.availability = &avail;
  bundle.mttf_h = pipe.mttf_estimate_h();
  os << an::to_json(bundle);
  return os.str();
}

std::string serialized_index(const an::AnalysisPipeline& pipe,
                             const cl::Topology& topo,
                             const an::StudyPeriods& periods) {
  ix::IndexBuildInput in;
  in.periods = periods;
  in.topo = &topo;
  const auto errors = pipe.errors();
  const auto unavail = pipe.availability().intervals;
  in.errors = &errors;
  in.jobs = &pipe.jobs();
  in.unavailability = &unavail;
  const auto bytes = ix::serialize_index(in);
  EXPECT_TRUE(bytes.ok()) << (bytes.ok() ? "" : bytes.error().message);
  return bytes.ok() ? bytes.value() : std::string();
}

fs::path temp_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("gpures_scan_" + name);
  fs::remove_all(dir);
  return dir;
}

/// Small but complete dataset: XIDs (with duplication bursts), lifecycle
/// churn, noise, and an accounting dump — every Stage the backends touch.
fs::path make_clean_dataset(const std::string& name, int n_days) {
  const auto dir = temp_dir(name);
  an::DatasetManifest m;
  m.spec = cl::ClusterSpec::small(2, 0);
  m.periods = an::StudyPeriods::make(kDay0, kDay0 + 2 * ct::kDay,
                                     kDay0 + n_days * ct::kDay);
  const cl::Topology topo(m.spec);
  an::DatasetWriter w(dir, m);
  ct::Rng rng(404);
  constexpr gx::Code kCodes[] = {
      gx::Code::kMmuError,       gx::Code::kGspRpcTimeout,
      gx::Code::kNvlinkError,    gx::Code::kUncontainedEccError,
      gx::Code::kRowRemapEvent,  gx::Code::kPmuSpiFailure};
  for (int d = 0; d < n_days; ++d) {
    const auto day = kDay0 + d * ct::kDay;
    std::vector<ls::RawLine> lines;
    ct::TimePoint t = day;
    for (int i = 0; i < 40; ++i) {
      t += static_cast<ct::Duration>(60 + rng.uniform_u64(1200));
      const auto node = static_cast<std::int32_t>(rng.uniform_u64(2));
      const auto& host = topo.node(node).name;
      const double what = rng.uniform();
      if (what < 0.6) {
        const auto slot = static_cast<std::int32_t>(rng.uniform_u64(4));
        const auto code = kCodes[rng.uniform_u64(std::size(kCodes))];
        const int burst = 1 + static_cast<int>(rng.uniform_u64(3));
        for (int b = 0; b < burst; ++b) {
          lines.push_back({t + b * 2,
                           ls::render_xid_line(t + b * 2, host,
                                               topo.pci_bus({node, slot}),
                                               code, "simd differential")});
        }
      } else if (what < 0.7) {
        lines.push_back({t, ls::render_drain_line(t, host)});
      } else if (what < 0.8) {
        lines.push_back({t, ls::render_resume_line(t, host)});
      } else {
        lines.push_back({t, ls::render_noise_line(rng, t, host)});
      }
    }
    w.write_day(day, lines);
  }
  w.write_accounting_line(sl::accounting_header());
  const cl::Topology t2(m.spec);
  for (int j = 0; j < 10; ++j) {
    sl::JobRecord rec;
    rec.id = static_cast<sl::JobId>(500 + j);
    rec.name = "job" + std::to_string(j);
    rec.submit = kDay0 + j * 4000;
    rec.start = rec.submit + 120;
    rec.end = rec.start + 7200;
    rec.gpus = 1;
    rec.nodes = 1;
    rec.node_list = {j % 2};
    rec.gpu_list = {{j % 2, j % 4}};
    w.write_accounting_line(sl::to_accounting_line(rec, t2));
  }
  const auto st = w.finalize();
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  return dir;
}

struct RunResult {
  std::string artifacts;
  std::string quality_json;
  std::string index_bytes;
  std::uint64_t days = 0;
};

RunResult run_dataset(const fs::path& dir, sd::Backend backend,
                      std::uint32_t threads, an::IngestPolicy policy) {
  BackendGuard guard(backend);
  RunResult out;
  const auto m = an::read_manifest(dir);
  EXPECT_TRUE(m.ok()) << (m.ok() ? "" : m.error().message);
  const cl::Topology topo(m.value().spec);
  an::PipelineConfig pcfg;
  pcfg.periods = m.value().periods;
  pcfg.num_threads = threads;
  an::AnalysisPipeline pipe(topo, pcfg);
  an::DataQualityReport quality;
  an::IngestOptions opt;
  opt.policy = policy;
  opt.expect_begin = m.value().periods.pre.begin;
  opt.expect_end = m.value().periods.op.end;
  opt.quality = &quality;
  const auto loaded = an::load_dataset(dir, pipe, opt);
  EXPECT_TRUE(loaded.ok()) << (loaded.ok() ? "" : loaded.error().message);
  if (!loaded.ok()) return out;
  out.days = loaded.value();
  out.artifacts = rendered_artifacts(pipe);
  out.quality_json = quality.to_json();
  out.index_bytes = serialized_index(pipe, topo, m.value().periods);
  return out;
}

}  // namespace

TEST(SimdScreening, ChaosMatrixCasesClassifyIdentically) {
  // Hand-built corpora hitting the quarantine precedence (torn > overlong >
  // binary), CRLF normalization, lone '\r', and chunk-edge placements.
  const std::string long_line(9000, 'L');
  const std::vector<std::string> corpora = {
      "",
      "\n",
      "clean line\nanother\n",
      "clean\r\ncrlf line\r\n",         // CRLF archive
      "mixed\nunix\r\ndos\n",           // mixed terminators
      "lone\rcarriage\n",               // lone \r = binary content
      "\r\n\r\n\r\n",                   // empty CRLF lines
      "bin\x01line\nok\n",              // control byte
      "tab\tline\nok\n",                // tab is fine
      long_line + "\nok\n",             // overlong
      long_line + "\x01\n",             // overlong AND binary -> overlong
      "ok\ntorn fragment",              // torn at EOF
      long_line,                        // torn AND overlong -> torn
      "ok\n" + std::string("x", 1) + "\x1f",  // torn AND binary -> torn
      "a\rb\r\nc\rd\n",                 // lone \r and CRLF interleaved
      "trailing\r",                     // torn line ending in lone \r
      std::string(31, 'a') + "\r\n" + std::string(32, 'b') + "\x7f\n",
  };
  for (const auto& text : corpora) {
    expect_same_slicing(text);
    expect_same_slicing(text, 16);  // tiny screen: everything overlong
  }
}

TEST(SimdScreening, RandomChaosCorporaClassifyIdentically) {
  ct::Rng rng(777777);
  const std::string alphabet = "abcXID: \t\x01\x7f\r\n\r\n\n\n\xc3\xa9";
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t len = rng.uniform_u64(600);
    std::string text;
    text.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      text += alphabet[rng.uniform_u64(alphabet.size())];
    }
    expect_same_slicing(text);
    expect_same_slicing(text, 24);
  }
}

TEST(SimdDifferential, CleanDatasetIdenticalAcrossBackendsAndThreads) {
  const auto dir = make_clean_dataset("clean", 10);
  const auto ref =
      run_dataset(dir, sd::Backend::kScalar, 0, an::IngestPolicy::kStrict);
  ASSERT_FALSE(ref.artifacts.empty());
  for (const auto backend : sd::all_available()) {
    for (const std::uint32_t threads : {0u, 2u, 4u, 8u}) {
      const auto got =
          run_dataset(dir, backend, threads, an::IngestPolicy::kStrict);
      const auto label = std::string(sd::to_string(backend)) + "/threads=" +
                         std::to_string(threads);
      ASSERT_EQ(got.days, ref.days) << label;
      ASSERT_EQ(got.artifacts, ref.artifacts) << label;
      ASSERT_EQ(got.quality_json, ref.quality_json) << label;
      ASSERT_EQ(got.index_bytes, ref.index_bytes) << label;
    }
  }
  fs::remove_all(dir);
}

TEST(SimdDifferential, ChaosDatasetIdenticalAcrossBackendsAndThreads) {
  // The PR-5 chaos matrix (line-level faults + CRLF-adjacent damage) under
  // every backend: quarantine decisions and artifact bytes must not depend
  // on the scan implementation.
  const auto clean = make_clean_dataset("prechaos", 10);
  const auto dir = temp_dir("chaos");
  const auto spec = ch::CorruptionSpec::parse(
      "garbage:6,overlong:3,truncate:1,duplicate:4,reorder:1,bad-accounting:2");
  ASSERT_TRUE(spec.ok()) << (spec.ok() ? "" : spec.error().message);
  const auto ledger = ch::corrupt_dataset(clean, dir, 20230601, spec.value());
  ASSERT_TRUE(ledger.ok()) << (ledger.ok() ? "" : ledger.error().message);

  const auto ref =
      run_dataset(dir, sd::Backend::kScalar, 0, an::IngestPolicy::kLenient);
  ASSERT_FALSE(ref.artifacts.empty());
  for (const auto backend : sd::all_available()) {
    for (const std::uint32_t threads : {0u, 2u, 4u, 8u}) {
      const auto got =
          run_dataset(dir, backend, threads, an::IngestPolicy::kLenient);
      const auto label = std::string(sd::to_string(backend)) + "/threads=" +
                         std::to_string(threads);
      ASSERT_EQ(got.days, ref.days) << label;
      ASSERT_EQ(got.artifacts, ref.artifacts) << label;
      ASSERT_EQ(got.quality_json, ref.quality_json) << label;
      ASSERT_EQ(got.index_bytes, ref.index_bytes) << label;
    }
  }
  fs::remove_all(clean);
  fs::remove_all(dir);
}
