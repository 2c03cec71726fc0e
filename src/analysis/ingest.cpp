#include "analysis/ingest.h"

#include <algorithm>
#include <chrono>
#include <variant>

#include "common/strings.h"
#include "obs/trace.h"
#include "simd/scan.h"
#include "slurm/accounting.h"

namespace gpures::analysis {

namespace {

/// Fold one screened chunk's tallies into its file's cumulative counts; the
/// chunk-relative first offense is rebased onto the whole file.
void fold(logsys::ScreenCounts& into, const logsys::ScreenCounts& sc,
          std::uint64_t base_line, std::uint64_t base_offset) {
  into.kept_lines += sc.kept_lines;
  into.kept_bytes += sc.kept_bytes;
  into.binary_lines += sc.binary_lines;
  into.binary_bytes += sc.binary_bytes;
  into.overlong_lines += sc.overlong_lines;
  into.overlong_bytes += sc.overlong_bytes;
  into.torn_lines += sc.torn_lines;
  into.torn_bytes += sc.torn_bytes;
  into.crlf_bytes += sc.crlf_bytes;
  if (into.first_category == nullptr && sc.first_category != nullptr) {
    into.first_category = sc.first_category;
    into.first_line = base_line + sc.first_line;
    into.first_offset = base_offset + sc.first_offset;
  }
}

using Row = AccountingIngest::Row;

/// The row policy for one trimmed, non-blank line: the header is skipped, a
/// row that does not parse into `rec` is rejected, any other is kept.
Row classify_row(std::string_view trimmed, const cluster::Topology& topo,
                 slurm::JobRecord& rec) {
  if (trimmed == slurm::kAccountingHeader) return Row::kSkipped;
  return slurm::parse_accounting_line(trimmed, topo, rec).ok() ? Row::kKept
                                                               : Row::kRejected;
}

/// A malformed row seen by one range, located for the row-order replay.
struct RejectedRow {
  std::uint64_t line = 0;   ///< physical lines before it in its range
  std::size_t offset = 0;   ///< its first byte in the consumed text
  std::uint64_t bytes = 0;  ///< trimmed length
  std::uint64_t rows = 0;   ///< non-blank lines before it in its range
  std::uint64_t kept = 0;   ///< rows kept before it in its range
};

/// One contiguous line range of a consumed text, and what converting it
/// left behind.
struct RowRange {
  std::size_t lo = 0;       ///< first byte in the text
  std::size_t hi = 0;       ///< one past its last byte
  std::uint64_t lines = 0;  ///< physical lines: the job-table slots it gets
  std::size_t slot = 0;     ///< its first job-table slot
  std::uint64_t rows = 0;   ///< non-blank lines (`accounting_lines`)
  std::uint64_t kept = 0;   ///< views written from `slot` on
  std::vector<RejectedRow> rejected;
  std::vector<std::vector<PackedGpu>> spill;  ///< range-local spill lists
  std::vector<std::uint64_t> spilled;  ///< kept-row index of each spill list
};

/// Count the physical lines of `r` (the last range may end unterminated).
void count_lines(std::string_view text, RowRange& r) {
  r.lines = simd::active_ops().count_byte(text.data() + r.lo, r.hi - r.lo,
                                          '\n');
  if (r.hi == text.size() && r.hi > r.lo && text.back() != '\n') ++r.lines;
}

/// Convert the rows of `r` into out[0, r.kept) through a range-local record.
/// A range stops at a rejection the merge is certain to stop at: the first
/// one under strict, the one past the error budget under lenient.
void convert_range(std::string_view text, const cluster::Topology& topo,
                   const IngestRules& rules, JobView* out, RowRange& r) {
  OBS_SPAN("accounting.parse_range");
  slurm::JobRecord rec;
  std::uint64_t line = 0;
  for (std::size_t start = r.lo; start < r.hi; ++line) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    const auto trimmed = common::trim(text.substr(start, end - start));
    const std::size_t line_start = start;
    start = end + 1;
    if (trimmed.empty()) continue;
    const Row kind = classify_row(trimmed, topo, rec);
    if (kind == Row::kRejected) {
      r.rejected.push_back({line, line_start, trimmed.size(), r.rows, r.kept});
      ++r.rows;
      if (rules.policy == IngestPolicy::kStrict ||
          (rules.error_budget > 0 && r.rejected.size() > rules.error_budget)) {
        return;
      }
      continue;
    }
    ++r.rows;
    if (kind == Row::kKept) {
      const JobView v = JobTable::convert(rec, r.spill);
      if (v.spill_index >= 0) r.spilled.push_back(r.kept);
      out[r.kept++] = v;
    }
  }
}

/// Classify lines [lo, hi) of the day file `day` starting at `day_start`:
/// XID lines resolve host -> node -> GPU slot into observations, lifecycle
/// lines on known hosts into records.  The hot path: no allocation on the
/// reject path, no per-line callback.
LineTallies classify_lines(const cluster::Topology& topo,
                           const logsys::DayBuffer& day, std::size_t lo,
                           std::size_t hi, common::TimePoint day_start,
                           Stage1Batch& out) {
  const FastLineParser parser;
  LineTallies t;
  for (std::size_t i = lo; i < hi; ++i) {
    ++t.lines;
    // The slice (and the XidRecord views borrowed from it) lives in the day
    // arena; hosts/PCI ids are resolved to indices right here, so nothing
    // outlives the iteration.
    auto parsed = parser.parse(day.line(i), day_start);
    if (!parsed) {
      ++t.rejected;
      continue;
    }
    if (auto* xrec = std::get_if<XidRecord>(&*parsed)) {
      const auto node = topo.node_index(xrec->host);
      if (!node) {
        ++t.unknown_hosts;
        continue;
      }
      const auto slot = topo.slot_for_pci(*node, xrec->pci);
      if (!slot) {
        ++t.unknown_hosts;
        continue;
      }
      ++t.xids;
      XidObservation obs;
      obs.time = xrec->time;
      obs.gpu = {*node, *slot};
      obs.xid = xrec->xid;
      out.obs.push_back(obs);
    } else if (auto* lrec = std::get_if<LifecycleRecord>(&*parsed)) {
      if (!topo.node_index(lrec->host)) {
        ++t.unknown_hosts;
        continue;
      }
      ++t.lifecycles;
      out.lifecycle.push_back(std::move(*lrec));
    }
  }
  return t;
}

}  // namespace

Stage1Counters::Stage1Counters(obs::MetricsRegistry& reg,
                               const std::string& prefix)
    : log_lines(&reg.counter(prefix + ".log_lines")),
      xid_records(&reg.counter(prefix + ".xid_records")),
      lifecycle_records(&reg.counter(prefix + ".lifecycle_records")),
      rejected_lines(&reg.counter(prefix + ".rejected_lines")),
      unknown_hosts(&reg.counter(prefix + ".unknown_hosts")) {}

void Stage1Counters::add(const LineTallies& t) const {
  log_lines->add(t.lines);
  rejected_lines->add(t.rejected);
  unknown_hosts->add(t.unknown_hosts);
  xid_records->add(t.xids);
  lifecycle_records->add(t.lifecycles);
}

LogIngest::LogIngest(const cluster::Topology& topo, const CoalescerConfig& cfg,
                     std::vector<CoalescedError>& errors,
                     std::vector<LifecycleRecord>& lifecycle,
                     obs::MetricsRegistry& reg, const std::string& prefix,
                     common::ThreadPool* pool)
    : topo_(topo),
      lifecycle_(lifecycle),
      pool_(pool),
      stage1_(reg, prefix),
      errors_coalesced_(&reg.counter(prefix + ".errors_coalesced")),
      out_of_order_(&reg.counter(prefix + ".out_of_order_observations")),
      day_parse_us_(&reg.histogram(prefix + ".stage1.day_parse_us",
                                   obs::latency_buckets_us())),
      coalescer_(cfg, [&errors, coalesced = errors_coalesced_](
                          const CoalescedError& e) {
        errors.push_back(e);
        coalesced->inc();
      }) {
  const std::string days_help =
      "Line ranges this worker slot classified: a day file or serve chunk "
      "splits into ranges of at least " +
      std::to_string(kMinRangeLines) + " lines, at most one per worker";
  workers_.resize(pool_ != nullptr ? pool_->size() : 1);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const std::string slot = prefix + ".worker." + std::to_string(w) + ".";
    reg.describe(slot + "days_parsed", days_help, "ranges");
    workers_[w].days_parsed = &reg.counter(slot + "days_parsed");
    workers_[w].lines = &reg.counter(slot + "lines");
    workers_[w].parse_time_ns = &reg.counter(slot + "parse_time_ns");
  }
}

common::TimePoint LogIngest::ingest(common::TimePoint date,
                                    const logsys::DayBuffer& day) {
  using Clock = std::chrono::steady_clock;
  const auto began = Clock::now();
  const std::size_t n = day.size();
  const std::size_t ranges =
      pool_ == nullptr
          ? 1
          : std::clamp<std::size_t>(n / kMinRangeLines, 1, pool_->size());
  ranges_.resize(ranges);
  // Plain local tallies flushed to the registry once per range: the hot
  // loop touches no atomics.
  const auto classify = [&](std::size_t i, std::size_t w) {
    OBS_SPAN("stage1.parse_range");
    const auto t0 = Clock::now();
    // Fill a local batch (keeping the reused buffers): adjacent elements of
    // ranges_ share a cache line, and pushing through them would make the
    // workers contend on it for every record.
    Stage1Batch out = std::move(ranges_[i]);
    out.obs.clear();
    out.lifecycle.clear();
    const auto tallies = classify_lines(topo_, day, i * n / ranges,
                                        (i + 1) * n / ranges, date, out);
    ranges_[i] = std::move(out);
    stage1_.add(tallies);
    const auto& wm = workers_[w];
    wm.days_parsed->inc();
    wm.lines->add(tallies.lines);
    wm.parse_time_ns->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count()));
  };
  if (ranges > 1) {
    pool_->parallel_for(ranges, classify);
  } else {
    classify(0, 0);
  }
  day_parse_us_->observe(
      std::chrono::duration<double, std::micro>(Clock::now() - began).count());

  // Stage II in line order: one coalescer sees every (GPU, code) key's
  // observations in the order a serial walk would.
  OBS_SPAN("stage2.coalesce");
  common::TimePoint newest = 0;
  for (auto& out : ranges_) {
    for (auto& l : out.lifecycle) lifecycle_.push_back(std::move(l));
    for (const auto& o : out.obs) {
      coalescer_.add(o);
      newest = std::max(newest, o.time);
    }
  }
  return newest;
}

void LogIngest::finish() {
  coalescer_.flush();
  out_of_order_->add(coalescer_.out_of_order());
}

DayScreen::DayScreen(obs::MetricsRegistry& reg, IngestRules rules)
    : rules_(rules) {
  // Quarantine reasons as one labeled family, so the --metrics artifact
  // breaks dropped lines down by cause.
  reg.describe("ingest.lines_dropped",
               "Raw log lines quarantined by the ingest screen, by reason",
               "lines");
  dropped_torn_ = &reg.counter("ingest.lines_dropped", {{"reason", "torn"}});
  dropped_binary_ =
      &reg.counter("ingest.lines_dropped", {{"reason", "binary"}});
  dropped_overlong_ =
      &reg.counter("ingest.lines_dropped", {{"reason", "overlong"}});
}

common::Result<logsys::DayBuffer> DayScreen::screen(
    const std::string& path, common::TimePoint date, std::string&& text,
    std::uint64_t base_line, std::uint64_t base_offset,
    logsys::ScreenCounts& file_counts) {
  logsys::ScreenCounts sc;
  auto day = logsys::DayBuffer::from_text(date, std::move(text), rules_.screen,
                                          sc);
  if (sc.torn_lines > 0) dropped_torn_->add(sc.torn_lines);
  if (sc.binary_lines > 0) dropped_binary_->add(sc.binary_lines);
  if (sc.overlong_lines > 0) dropped_overlong_->add(sc.overlong_lines);
  if (sc.quarantined_lines() > 0 && rules_.policy == IngestPolicy::kStrict) {
    return common::Error::at("dataset: " + std::string(sc.first_category) +
                                 " line rejected by strict ingest",
                             path, base_line + sc.first_line,
                             base_offset + sc.first_offset);
  }
  fold(file_counts, sc, base_line, base_offset);
  const std::uint64_t quarantined = file_counts.quarantined_lines();
  if (rules_.error_budget > 0 && quarantined > rules_.error_budget) {
    return common::Error::make(
        "dataset: per-day error budget exceeded: " +
        std::to_string(quarantined) + " quarantined lines in " + path +
        " (budget " + std::to_string(rules_.error_budget) + ")");
  }
  return day;
}

void warn_screened(const logsys::ScreenCounts& counts, const std::string& path,
                   const WarnFn& warn) {
  if (!warn) return;
  if (counts.quarantined_lines() > 0) {
    warn("quarantined " + std::to_string(counts.quarantined_lines()) +
         " corrupt lines (" + std::to_string(counts.quarantined_bytes()) +
         " bytes) in " + path);
  }
  if (counts.crlf_bytes > 0) {
    warn("normalized " + std::to_string(counts.crlf_bytes) +
         " CRLF line terminators in " + path);
  }
}

void warn_rejected_rows(const AccountingCursor& cur, const std::string& path,
                        const WarnFn& warn) {
  if (cur.rows_rejected > 0 && warn) {
    warn("rejected " + std::to_string(cur.rows_rejected) +
         " malformed accounting rows in " + path);
  }
}

std::vector<std::size_t> line_range_cuts(std::string_view text,
                                         std::size_t ranges) {
  ranges = std::max<std::size_t>(1, ranges);
  std::vector<std::size_t> cuts(ranges + 1, text.size());
  cuts[0] = 0;
  for (std::size_t i = 1; i < ranges; ++i) {
    const std::size_t target = std::max(cuts[i - 1], text.size() * i / ranges);
    if (target == 0) {
      cuts[i] = 0;
      continue;
    }
    // The first line start at or after `target`: just past the first
    // newline at or after target - 1.
    const std::size_t nl = text.find('\n', target - 1);
    cuts[i] = nl == std::string_view::npos ? text.size() : nl + 1;
  }
  return cuts;
}

AccountingIngest::AccountingIngest(const cluster::Topology& topo,
                                   JobTable& jobs, obs::MetricsRegistry& reg,
                                   const std::string& prefix,
                                   common::ThreadPool* pool)
    : topo_(topo),
      jobs_(jobs),
      pool_(pool),
      lines_(&reg.counter(prefix + ".accounting_lines")),
      errors_(&reg.counter(prefix + ".accounting_errors")) {}

AccountingIngest::Row AccountingIngest::row(std::string_view line) {
  const auto trimmed = common::trim(line);
  if (trimmed.empty()) return Row::kSkipped;
  lines_->inc();
  const Row r = classify_row(trimmed, topo_, record_);
  if (r == Row::kRejected) errors_->inc();
  if (r == Row::kKept) jobs_.add(record_);
  return r;
}

common::Status AccountingIngest::consume(std::string_view text,
                                         const std::string& path,
                                         const IngestRules& rules,
                                         AccountingCursor& cur) {
  // One range per worker, none under kMinRangeBytes; serial mode is the
  // one-range case run inline.
  const std::size_t n =
      pool_ == nullptr ? 1
                       : std::clamp<std::size_t>(text.size() / kMinRangeBytes,
                                                 1, pool_->size());
  const auto cuts = line_range_cuts(text, n);
  std::vector<RowRange> ranges(n);
  for (std::size_t i = 0; i < n; ++i) {
    ranges[i].lo = cuts[i];
    ranges[i].hi = cuts[i + 1];
  }
  const auto each_range = [&](const auto& fn) {
    if (n == 1) return fn(ranges[0]);
    pool_->parallel_for(n, [&](std::size_t i, std::size_t) { fn(ranges[i]); });
  };

  // Every physical line gets a slot, so each range writes its views straight
  // into the table with no per-range buffer and no reallocation.
  each_range([&](RowRange& r) { count_lines(text, r); });
  const std::size_t base = jobs_.jobs.size();
  std::size_t slots = base;
  for (auto& r : ranges) {
    r.slot = slots;
    slots += r.lines;
  }
  jobs_.jobs.resize(slots);
  JobView* views = jobs_.jobs.data();
  each_range([&](RowRange& r) {
    convert_range(text, topo_, rules, views + r.slot, r);
  });

  // Replay the rows in order: close up the unused slots, rebase the spill
  // lists, and stop where a row-by-row loop would have stopped.
  OBS_SPAN("accounting.merge");
  common::Status st;
  std::size_t dst = base;
  std::uint64_t lines = 0;   // physical lines of the ranges merged whole
  std::uint64_t rows = 0;    // non-blank lines consumed
  std::uint64_t errors = 0;  // rejected rows consumed
  for (auto& r : ranges) {
    const RejectedRow* stop = nullptr;
    for (const auto& rej : r.rejected) {
      ++errors;
      if (rules.policy == IngestPolicy::kStrict) {
        st = common::Error::at("dataset: malformed accounting row", path,
                               cur.line_no + lines + rej.line + 1,
                               cur.offset + rej.offset);
        stop = &rej;
        break;
      }
      cur.rows_rejected += 1;
      cur.bytes_rejected += rej.bytes;
      if (rules.error_budget > 0 && cur.rows_rejected > rules.error_budget) {
        st = common::Error::make(
            "dataset: accounting error budget exceeded: " +
            std::to_string(cur.rows_rejected) + " rejected rows in " + path +
            " (budget " + std::to_string(rules.error_budget) + ")");
        stop = &rej;
        break;
      }
    }
    const std::uint64_t keep = stop != nullptr ? stop->kept : r.kept;
    if (dst != r.slot) {
      std::copy(views + r.slot, views + r.slot + keep, views + dst);
    }
    for (std::size_t k = 0; k < r.spilled.size() && r.spilled[k] < keep; ++k) {
      views[dst + r.spilled[k]].spill_index =
          static_cast<std::int32_t>(jobs_.spill.size());
      jobs_.spill.push_back(std::move(r.spill[k]));
    }
    dst += keep;
    cur.rows_kept += keep;
    rows += stop != nullptr ? stop->rows + 1 : r.rows;
    if (stop != nullptr) {
      cur.line_no += lines + stop->line;
      break;
    }
    lines += r.lines;
  }
  jobs_.jobs.resize(dst);
  lines_->add(rows);
  errors_->add(errors);
  if (!st.ok()) return st;
  cur.line_no += lines;
  cur.offset += text.size();
  return {};
}

}  // namespace gpures::analysis
