#include "analysis/ingest.h"

#include <variant>

#include "common/strings.h"
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

}  // namespace

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

AccountingIngest::AccountingIngest(const cluster::Topology& topo,
                                   JobTable& jobs, obs::MetricsRegistry& reg,
                                   const std::string& prefix)
    : topo_(topo),
      jobs_(jobs),
      lines_(&reg.counter(prefix + ".accounting_lines")),
      errors_(&reg.counter(prefix + ".accounting_errors")) {}

AccountingIngest::Row AccountingIngest::row(std::string_view line) {
  const auto trimmed = common::trim(line);
  if (trimmed.empty()) return Row::kSkipped;
  lines_->inc();
  if (trimmed == slurm::kAccountingHeader) return Row::kSkipped;
  if (!slurm::parse_accounting_line(trimmed, topo_, record_).ok()) {
    errors_->inc();
    return Row::kRejected;
  }
  jobs_.add(record_);
  return Row::kKept;
}

common::Status AccountingIngest::consume(std::string_view text,
                                         const std::string& path,
                                         const IngestRules& rules,
                                         AccountingCursor& cur) {
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    const auto line = text.substr(start, end - start);
    const Row r = row(line);
    if (r == Row::kKept) {
      cur.rows_kept += 1;
    } else if (r == Row::kRejected) {
      if (rules.policy == IngestPolicy::kStrict) {
        return common::Error::at("dataset: malformed accounting row", path,
                                 cur.line_no + 1, cur.offset + start);
      }
      cur.rows_rejected += 1;
      cur.bytes_rejected += common::trim(line).size();
      if (rules.error_budget > 0 && cur.rows_rejected > rules.error_budget) {
        return common::Error::make(
            "dataset: accounting error budget exceeded: " +
            std::to_string(cur.rows_rejected) + " rejected rows in " + path +
            " (budget " + std::to_string(rules.error_budget) + ")");
      }
    }
    cur.line_no += 1;
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  cur.offset += text.size();
  return {};
}

}  // namespace gpures::analysis
