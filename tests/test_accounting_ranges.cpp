// Line-range accounting ingest: AccountingIngest::consume converts rows in
// contiguous, newline-aligned ranges on the pool and merges them in row
// order.  At any worker count and any chunking, the job table (every field,
// the spill lists and indices), the counters, the cursor and every strict
// or budget error must equal a row-by-row walk of the same bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/dataset.h"
#include "analysis/ingest.h"
#include "analysis/job_stats.h"
#include "analysis/pipeline.h"
#include "cluster/topology.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/time.h"
#include "logsys/syslog.h"
#include "obs/metrics.h"
#include "serve/serve.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace ls = gpures::logsys;
namespace ob = gpures::obs;
namespace sl = gpures::slurm;
namespace sv = gpures::serve;
namespace fs = std::filesystem;

namespace {

const ct::TimePoint kDay0 = ct::make_date(2023, 6, 1);
const std::string kPath = "dump/slurm_accounting.txt";
constexpr std::size_t kWorkerCounts[] = {0, 1, 2, 4, 8};

const cl::Topology& topo() {
  static const cl::Topology t(cl::ClusterSpec::small(6, 2));
  return t;
}

/// A messy dump of `rows` jobs: the header, blank and whitespace-only
/// lines, repeated headers, CRLF endings, wide jobs whose GPU lists spill,
/// and, when `unterminated`, a last row with no newline.
std::string make_dump(int rows, bool unterminated) {
  static constexpr sl::JobState kStates[] = {
      sl::JobState::kCompleted, sl::JobState::kFailed,
      sl::JobState::kCancelled, sl::JobState::kTimeout,
      sl::JobState::kNodeFail};
  const std::int32_t nodes = topo().node_count();
  std::string out = sl::accounting_header() + "\n";
  for (int j = 0; j < rows; ++j) {
    if (j % 97 == 13) out += "\n";
    if (j % 211 == 50) out += "   \r\n";
    if (j % 389 == 100) out += sl::accounting_header() + "\r\n";
    sl::JobRecord rec;
    rec.id = static_cast<sl::JobId>(5000 + j);
    rec.name = j % 3 == 0 ? "train_bert_" + std::to_string(j)
                          : "simulate_" + std::to_string(j);
    rec.submit = kDay0 + j * 300;
    rec.start = rec.submit + j % 60;
    rec.end = rec.start + 600 + (j * 37) % 7200;
    rec.state = kStates[j % 5];
    rec.exit_code = rec.state == sl::JobState::kFailed ? 1 : 0;
    const std::int32_t a = j % nodes;
    if (j % 7 == 0) {  // wide: every GPU of two nodes, spilled
      const std::int32_t b = (a + 1) % nodes;
      rec.node_list = {a, b};
      for (const std::int32_t n : rec.node_list) {
        for (std::int32_t s = 0; s < topo().gpus_on_node(n); ++s) {
          rec.gpu_list.push_back({n, s});
        }
      }
    } else {
      rec.node_list = {a};
      for (std::int32_t s = 0; s <= j % 4; ++s) rec.gpu_list.push_back({a, s});
    }
    rec.nodes = static_cast<std::int32_t>(rec.node_list.size());
    rec.gpus = static_cast<std::int32_t>(rec.gpu_list.size());
    out += sl::to_accounting_line(rec, topo());
    out += j % 5 == 0 ? "\r\n" : "\n";
  }
  if (unterminated) out.pop_back();
  return out;
}

/// Physical lines of `text` as (first byte, length without the newline).
std::vector<std::pair<std::size_t, std::size_t>> lines_of(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t start = 0; start < text.size();) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    out.emplace_back(start, end - start);
    start = end + 1;
  }
  return out;
}

bool is_data_row(const std::string& text,
                 std::pair<std::size_t, std::size_t> l) {
  const auto t = ct::trim(std::string_view(text).substr(l.first, l.second));
  return !t.empty() && t != sl::kAccountingHeader;
}

/// Make the data row starting at byte `at` malformed without moving any
/// byte: its first '|' becomes ';', so it has ten fields.
void corrupt_row(std::string& text, std::size_t at) {
  const std::size_t bar = text.find('|', at);
  ASSERT_NE(bar, std::string::npos);
  text[bar] = ';';
}

/// The ranges consume() cuts `text` into at `workers` pool threads.
std::vector<std::size_t> cuts_at(const std::string& text, std::size_t workers) {
  const std::size_t n =
      workers == 0 ? 1
                   : std::clamp<std::size_t>(
                         text.size() / an::AccountingIngest::kMinRangeBytes, 1,
                         workers);
  return an::line_range_cuts(text, n);
}

struct Outcome {
  std::optional<ct::Error> error;
  an::JobTable table;
  an::AccountingCursor cur;
  std::uint64_t lines = 0;   ///< t.accounting_lines
  std::uint64_t errors = 0;  ///< t.accounting_errors
};

/// `text` cut after a newline into chunks of at most `chunk` bytes (one
/// chunk when 0, or when no newline allows a cut).
std::vector<std::string_view> chunks_of(std::string_view text,
                                        std::size_t chunk) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  do {
    std::size_t end = text.size();
    if (chunk > 0 && text.size() - pos > chunk) {
      const std::size_t nl = text.rfind('\n', pos + chunk - 1);
      end = nl != std::string_view::npos && nl >= pos ? nl + 1 : text.size();
    }
    out.push_back(text.substr(pos, end - pos));
    pos = end;
  } while (pos < text.size());
  return out;
}

/// consume() over the chunks of `text` at `workers` pool threads (0 = no
/// pool), stopping at the first error.
Outcome run_consume(const std::string& text, std::size_t workers,
                    const an::IngestRules& rules, std::size_t chunk = 0) {
  Outcome out;
  ob::MetricsRegistry reg;
  std::unique_ptr<ct::ThreadPool> pool;
  if (workers > 0) pool = std::make_unique<ct::ThreadPool>(workers);
  an::AccountingIngest ingest(topo(), out.table, reg, "t", pool.get());
  for (const auto piece : chunks_of(text, chunk)) {
    const auto st = ingest.consume(piece, kPath, rules, out.cur);
    if (!st.ok()) {
      out.error = st.error();
      break;
    }
  }
  out.lines = reg.counter_value("t.accounting_lines");
  out.errors = reg.counter_value("t.accounting_errors");
  return out;
}

/// The reference: the same chunks one row at a time through
/// AccountingIngest::row, with the strict and budget decisions taken at
/// each row.
Outcome run_rows(const std::string& text, const an::IngestRules& rules,
                 std::size_t chunk = 0) {
  Outcome out;
  ob::MetricsRegistry reg;
  an::AccountingIngest ingest(topo(), out.table, reg, "t");
  auto& cur = out.cur;
  for (const auto piece : chunks_of(text, chunk)) {
    for (std::size_t start = 0; start < piece.size() && !out.error;) {
      const std::size_t nl = piece.find('\n', start);
      const std::size_t end = nl == std::string_view::npos ? piece.size() : nl;
      const auto line = piece.substr(start, end - start);
      const auto r = ingest.row(line);
      if (r == an::AccountingIngest::Row::kKept) ++cur.rows_kept;
      if (r == an::AccountingIngest::Row::kRejected) {
        if (rules.policy == an::IngestPolicy::kStrict) {
          out.error = ct::Error::at("dataset: malformed accounting row", kPath,
                                    cur.line_no + 1, cur.offset + start);
          break;
        }
        ++cur.rows_rejected;
        cur.bytes_rejected += ct::trim(line).size();
        if (rules.error_budget > 0 && cur.rows_rejected > rules.error_budget) {
          out.error = ct::Error::make(
              "dataset: accounting error budget exceeded: " +
              std::to_string(cur.rows_rejected) + " rejected rows in " +
              kPath + " (budget " + std::to_string(rules.error_budget) + ")");
          break;
        }
      }
      ++cur.line_no;
      start = end + 1;
    }
    if (out.error) break;
    cur.offset += piece.size();
  }
  out.lines = reg.counter_value("t.accounting_lines");
  out.errors = reg.counter_value("t.accounting_errors");
  return out;
}

void expect_same_table(const an::JobTable& got, const an::JobTable& want,
                       const std::string& ctx) {
  ASSERT_EQ(got.jobs.size(), want.jobs.size()) << ctx;
  for (std::size_t i = 0; i < want.jobs.size(); ++i) {
    const auto& g = got.jobs[i];
    const auto& w = want.jobs[i];
    ASSERT_TRUE(g.id == w.id && g.start == w.start && g.end == w.end &&
                g.gpus == w.gpus && g.state == w.state && g.is_ml == w.is_ml &&
                g.inline_count == w.inline_count &&
                g.gpus_inline == w.gpus_inline &&
                g.spill_index == w.spill_index)
        << ctx << ": job " << i << " (id " << g.id << " vs " << w.id << ")";
  }
  EXPECT_EQ(got.spill, want.spill) << ctx;
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& ctx) {
  ASSERT_EQ(got.error.has_value(), want.error.has_value())
      << ctx << ": " << (got.error ? got.error->message : want.error->message);
  if (want.error) {
    EXPECT_EQ(got.error->message, want.error->message) << ctx;
    EXPECT_EQ(got.error->line, want.error->line) << ctx;
    EXPECT_EQ(got.error->offset, want.error->offset) << ctx;
  }
  EXPECT_EQ(got.cur.offset, want.cur.offset) << ctx;
  EXPECT_EQ(got.cur.line_no, want.cur.line_no) << ctx;
  EXPECT_EQ(got.cur.rows_kept, want.cur.rows_kept) << ctx;
  EXPECT_EQ(got.cur.rows_rejected, want.cur.rows_rejected) << ctx;
  EXPECT_EQ(got.cur.bytes_rejected, want.cur.bytes_rejected) << ctx;
  EXPECT_EQ(got.lines, want.lines) << ctx;
  EXPECT_EQ(got.errors, want.errors) << ctx;
  expect_same_table(got.table, want.table, ctx);
}

an::IngestRules rules_of(an::IngestPolicy policy, std::uint64_t budget = 0) {
  an::IngestRules r;
  r.policy = policy;
  r.error_budget = budget;
  return r;
}

/// Byte offsets of the data rows next to every cut consume() makes at 2, 4
/// and 8 workers (the last row before it and the first at or after it),
/// plus the first and last data rows: where an offense must be located
/// exactly.
std::vector<std::size_t> rows_at_cuts(const std::string& text) {
  const auto lines = lines_of(text);
  std::vector<std::size_t> data;
  for (const auto& l : lines) {
    if (is_data_row(text, l)) data.push_back(l.first);
  }
  std::vector<std::size_t> out = {data.front(), data.back()};
  for (const std::size_t w : {2, 4, 8}) {
    const auto cuts = cuts_at(text, w);
    for (std::size_t i = 1; i + 1 < cuts.size(); ++i) {
      const auto after = std::lower_bound(data.begin(), data.end(), cuts[i]);
      if (after != data.end()) out.push_back(*after);
      if (after != data.begin()) out.push_back(*std::prev(after));
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

TEST(AccountingRanges, CutsAreContiguousAndLineAligned) {
  for (const std::string text :
       {std::string(), std::string("no newline"), std::string("\n\n\n"),
        std::string("a\nbb\nccc\ndddd"), make_dump(50, true),
        make_dump(50, false), std::string(5000, 'x') + "\ny\n"}) {
    for (const std::size_t n : {1, 2, 3, 8, 64}) {
      const auto cuts = an::line_range_cuts(text, n);
      ASSERT_EQ(cuts.size(), n + 1);
      EXPECT_EQ(cuts.front(), 0u);
      EXPECT_EQ(cuts.back(), text.size());
      for (std::size_t i = 1; i < cuts.size(); ++i) {
        EXPECT_LE(cuts[i - 1], cuts[i]);
        if (i + 1 < cuts.size() && cuts[i] > 0 && cuts[i] < text.size()) {
          EXPECT_EQ(text[cuts[i] - 1], '\n') << "cut " << i << " of " << n;
        }
      }
    }
  }
  // The first line start at or after each share of the text.
  EXPECT_EQ(an::line_range_cuts("aaaa\nbb\ncccc\n", 2),
            (std::vector<std::size_t>{0, 8, 13}));
  EXPECT_EQ(an::line_range_cuts("aaa\nbbb\n", 2),
            (std::vector<std::size_t>{0, 4, 8}));
}

TEST(AccountingRanges, MessyDumpMatchesRowByRowAtAnyWorkerCount) {
  for (const bool unterminated : {false, true}) {
    const std::string text = make_dump(4000, unterminated);
    // Large enough that 8 workers cut 8 non-empty ranges.
    ASSERT_GE(text.size(), 8 * an::AccountingIngest::kMinRangeBytes);
    const auto cuts8 = cuts_at(text, 8);
    for (std::size_t i = 1; i < cuts8.size(); ++i) {
      ASSERT_LT(cuts8[i - 1], cuts8[i]);
    }
    for (const auto policy :
         {an::IngestPolicy::kStrict, an::IngestPolicy::kLenient}) {
      const auto rules = rules_of(policy);
      const Outcome want = run_rows(text, rules);
      ASSERT_FALSE(want.error.has_value());
      EXPECT_EQ(want.cur.rows_kept, 4000u);
      EXPECT_FALSE(want.table.spill.empty());
      for (const std::size_t w : kWorkerCounts) {
        expect_same(run_consume(text, w, rules), want,
                    "workers " + std::to_string(w) + " unterminated " +
                        std::to_string(unterminated));
      }
    }
  }
}

TEST(AccountingRanges, ChunkedConsumeMatchesOneChunk) {
  const std::string text = make_dump(3000, true);
  const auto rules = rules_of(an::IngestPolicy::kLenient);
  const Outcome want = run_rows(text, rules);
  for (const std::size_t chunk : {std::size_t{70000}, std::size_t{4096},
                                  std::size_t{150}}) {
    const Outcome chunked = run_rows(text, rules, chunk);
    expect_same(chunked, want, "reference chunk " + std::to_string(chunk));
    for (const std::size_t w : {0, 4}) {
      expect_same(run_consume(text, w, rules, chunk), want,
                  "chunk " + std::to_string(chunk) + " workers " +
                      std::to_string(w));
    }
  }
}

TEST(AccountingRanges, StrictNamesTheFirstOffenseOnEachSideOfEveryCut) {
  const std::string clean = make_dump(3000, true);
  const auto rules = rules_of(an::IngestPolicy::kStrict);
  const auto rows = rows_at_cuts(clean);
  ASSERT_GE(rows.size(), 12u);
  for (const std::size_t at : rows) {
    std::string text = clean;
    corrupt_row(text, at);
    // A second offense later never wins over the first.
    if (at != rows.back()) corrupt_row(text, rows.back());
    const Outcome want = run_rows(text, rules);
    ASSERT_TRUE(want.error.has_value());
    ASSERT_EQ(want.error->offset, std::optional<std::uint64_t>(at));
    const Outcome chunked = run_rows(text, rules, 70000);
    ASSERT_EQ(chunked.error->message, want.error->message);
    for (const std::size_t w : kWorkerCounts) {
      const std::string ctx =
          "offense at byte " + std::to_string(at) + ", workers " +
          std::to_string(w);
      expect_same(run_consume(text, w, rules), want, ctx);
      expect_same(run_consume(text, w, rules, 70000), chunked,
                  ctx + " chunked");
    }
  }
}

TEST(AccountingRanges, LenientRejectsAndTheBudgetMatchRowByRow) {
  std::string text = make_dump(3000, false);
  auto rows = rows_at_cuts(text);
  const auto lines = lines_of(text);
  for (std::size_t i = 0; i < lines.size(); i += 301) {
    if (is_data_row(text, lines[i])) rows.push_back(lines[i].first);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  for (const std::size_t at : rows) corrupt_row(text, at);
  const std::uint64_t bad = rows.size();

  for (const std::uint64_t budget :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5}, bad / 2, bad - 1,
        bad, bad + 1}) {
    const auto rules = rules_of(an::IngestPolicy::kLenient, budget);
    const Outcome want = run_rows(text, rules);
    const bool exceeded = budget > 0 && budget < bad;
    ASSERT_EQ(want.error.has_value(), exceeded) << "budget " << budget;
    if (!exceeded) EXPECT_EQ(want.cur.rows_rejected, bad);
    const Outcome chunked = run_rows(text, rules, 70000);
    for (const std::size_t w : kWorkerCounts) {
      const std::string ctx = "budget " + std::to_string(budget) +
                              ", workers " + std::to_string(w);
      expect_same(run_consume(text, w, rules), want, ctx);
      expect_same(run_consume(text, w, rules, 70000), chunked,
                  ctx + " chunked");
    }
  }
}

namespace {

/// A two-day dataset whose accounting dump is `dump`, written as is.
fs::path write_dataset(const std::string& name, const std::string& dump) {
  const auto dir = fs::temp_directory_path() /
                   ("gpures_acct_ranges_" + name + "_" +
                    std::to_string(::getpid()));
  fs::remove_all(dir);
  an::DatasetManifest m;
  m.spec = cl::ClusterSpec::small(6, 2);
  m.periods = an::StudyPeriods::make(kDay0, kDay0 + ct::kDay,
                                     kDay0 + 2 * ct::kDay);
  an::DatasetWriter w(dir, m);
  for (int d = 0; d < 2; ++d) {
    const auto day = kDay0 + d * ct::kDay;
    std::vector<ls::RawLine> lines;
    lines.push_back({day + 3600, ls::render_xid_line(
                                     day + 3600, "gpua001",
                                     topo().pci_bus({0, d}),
                                     gx::Code::kGspRpcTimeout,
                                     "Timeout waiting for RPC from GSP!")});
    w.write_day(day, lines);
  }
  w.write_accounting_text(dump);
  const auto st = w.finalize();
  EXPECT_TRUE(st.ok()) << (st.ok() ? "" : st.error().message);
  return dir;
}

struct Loaded {
  std::optional<ct::Error> error;
  an::JobTable table;
  an::DataQualityReport quality;
};

Loaded batch_load(const fs::path& dir, std::uint32_t threads,
                  an::IngestPolicy policy) {
  Loaded out;
  an::PipelineConfig pcfg;
  pcfg.periods = an::read_manifest(dir).value().periods;
  pcfg.num_threads = threads;
  an::AnalysisPipeline pipe(topo(), pcfg);
  an::IngestOptions opt;
  opt.policy = policy;
  opt.quality = &out.quality;
  const auto loaded = an::load_dataset(dir, pipe, opt);
  if (!loaded.ok()) {
    out.error = loaded.error();
    return out;
  }
  out.table = pipe.jobs();
  return out;
}

Loaded serve_once(const fs::path& dir, std::uint32_t threads,
                  an::IngestPolicy policy, std::uint64_t max_chunk_bytes) {
  Loaded out;
  sv::ServeConfig cfg;
  cfg.data_dir = dir;
  cfg.threads = threads;
  cfg.policy = policy;
  cfg.max_chunk_bytes = max_chunk_bytes;
  sv::ServeSession s(std::move(cfg));
  auto st = s.open(false);
  for (int i = 0; st.ok() && i < 100000 && !s.idle(); ++i) st = s.tick();
  if (st.ok()) st = s.finalize();
  if (!st.ok()) {
    out.error = st.error();
    return out;
  }
  out.table = s.jobs();
  out.quality = s.quality();
  return out;
}

}  // namespace

TEST(AccountingRanges, ServeMatchesBatchAtAnyChunkSizeAndWorkerCount) {
  std::string dump = make_dump(2500, true);
  const auto rows = rows_at_cuts(dump);
  for (std::size_t i = 0; i < rows.size(); i += 2) corrupt_row(dump, rows[i]);
  const auto dir = write_dataset("serve", dump);

  const Loaded batch = batch_load(dir, 0, an::IngestPolicy::kLenient);
  ASSERT_FALSE(batch.error.has_value()) << batch.error->message;
  EXPECT_EQ(batch.quality.accounting_rows_rejected, (rows.size() + 1) / 2);
  const Loaded strict = batch_load(dir, 0, an::IngestPolicy::kStrict);
  ASSERT_TRUE(strict.error.has_value());

  for (const std::uint32_t threads : {0u, 4u}) {
    const std::string t = "threads " + std::to_string(threads);
    const Loaded par = batch_load(dir, threads, an::IngestPolicy::kLenient);
    expect_same_table(par.table, batch.table, "batch " + t);
    EXPECT_EQ(par.quality.to_json(), batch.quality.to_json()) << t;
    EXPECT_EQ(batch_load(dir, threads, an::IngestPolicy::kStrict)
                  .error.value_or(ct::Error{})
                  .message,
              strict.error->message)
        << t;
    for (const std::uint64_t chunk :
         {std::uint64_t{4} << 20, std::uint64_t{70000}, std::uint64_t{4096}}) {
      const std::string ctx = t + ", chunk " + std::to_string(chunk);
      const Loaded served =
          serve_once(dir, threads, an::IngestPolicy::kLenient, chunk);
      ASSERT_FALSE(served.error.has_value())
          << ctx << ": " << served.error->message;
      expect_same_table(served.table, batch.table, "serve " + ctx);
      EXPECT_EQ(served.quality.accounting_rows_kept,
                batch.quality.accounting_rows_kept)
          << ctx;
      EXPECT_EQ(served.quality.accounting_rows_rejected,
                batch.quality.accounting_rows_rejected)
          << ctx;
      EXPECT_EQ(served.quality.accounting_bytes_rejected,
                batch.quality.accounting_bytes_rejected)
          << ctx;
      const Loaded served_strict =
          serve_once(dir, threads, an::IngestPolicy::kStrict, chunk);
      ASSERT_TRUE(served_strict.error.has_value()) << ctx;
      EXPECT_EQ(served_strict.error->message, strict.error->message) << ctx;
    }
  }
  fs::remove_all(dir);
}
