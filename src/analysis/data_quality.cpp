#include "analysis/data_quality.h"

#include "common/json.h"

namespace gpures::analysis {

std::string_view to_string(IngestPolicy policy) {
  switch (policy) {
    case IngestPolicy::kStrict:
      return "strict";
    case IngestPolicy::kLenient:
      return "lenient";
  }
  return "unknown";
}

std::optional<IngestPolicy> parse_ingest_policy(std::string_view name) {
  if (name == "strict") return IngestPolicy::kStrict;
  if (name == "lenient") return IngestPolicy::kLenient;
  return std::nullopt;
}

bool DataQualityReport::clean() const {
  return quarantined_lines() == 0 && missing_days.empty() &&
         skipped_days.empty() && stray_files.empty() &&
         degraded_sources.empty() && zero_byte_days == 0 &&
         accounting_present && accounting_error.empty() &&
         accounting_rows_rejected == 0;
}

void DataQualityReport::add_coverage(
    common::TimePoint begin, common::TimePoint end,
    const std::vector<common::TimePoint>& present) {
  if (end <= begin) return;
  std::size_t next = 0;
  for (common::TimePoint t = common::start_of_day(begin); t < end;
       t += common::kDay) {
    days_expected += 1;
    while (next < present.size() && present[next] < t) ++next;
    if (next >= present.size() || present[next] != t) {
      missing_days.push_back(common::format_date(t));
    }
  }
}

void LineCounts::add(const logsys::ScreenCounts& c) {
  lines_kept += c.kept_lines;
  bytes_kept += c.kept_bytes;
  binary_lines += c.binary_lines;
  binary_bytes += c.binary_bytes;
  overlong_lines += c.overlong_lines;
  overlong_bytes += c.overlong_bytes;
  torn_lines += c.torn_lines;
  torn_bytes += c.torn_bytes;
  crlf_bytes += c.crlf_bytes;
}

void DataQualityReport::add_day(common::TimePoint date,
                                std::uint64_t file_bytes,
                                const logsys::ScreenCounts& c) {
  days_present += 1;
  add(c);
  if (file_bytes == 0) zero_byte_days += 1;
  if (c.quarantined_lines() > 0 || file_bytes == 0 || c.crlf_bytes > 0) {
    DayQuality dq;
    dq.add(c);
    dq.date = common::format_date(date);
    dq.file_bytes = file_bytes;
    days.push_back(std::move(dq));
  }
}

void DataQualityReport::publish(obs::MetricsRegistry& reg) const {
  reg.counter("ingest.lines_kept").add(lines_kept);
  reg.counter("ingest.lines_quarantined").add(quarantined_lines());
  reg.counter("ingest.bytes_quarantined").add(quarantined_bytes());
  reg.counter("ingest.days_missing").add(missing_days.size());
  reg.counter("ingest.days_skipped").add(skipped_days.size());
  reg.counter("ingest.days_zero_byte").add(zero_byte_days);
  reg.counter("ingest.stray_files").add(stray_files.size());
  reg.counter("ingest.accounting_rows_rejected").add(accounting_rows_rejected);
}

std::string DataQualityReport::to_json() const {
  common::JsonWriter w;
  w.begin_object();
  w.kv("policy", to_string(policy));
  w.kv("error_budget", error_budget);
  w.kv("clean", clean());

  w.key("coverage");
  w.begin_object();
  w.kv("days_expected", days_expected);
  w.kv("days_present", days_present);
  w.kv("zero_byte_days", zero_byte_days);
  w.key("missing_days");
  w.begin_array();
  for (const auto& d : missing_days) w.value(d);
  w.end_array();
  w.key("skipped_days");
  w.begin_array();
  for (const auto& d : skipped_days) {
    w.begin_object();
    w.kv("date", d.date);
    w.kv("reason", d.reason);
    w.end_object();
  }
  w.end_array();
  w.key("stray_files");
  w.begin_array();
  for (const auto& f : stray_files) w.value(f);
  w.end_array();
  // Emitted only when present so batch-load quality documents are
  // byte-identical to the pre-serve schema.
  if (!degraded_sources.empty()) {
    w.key("degraded_sources");
    w.begin_array();
    for (const auto& d : degraded_sources) {
      w.begin_object();
      w.kv("name", d.name);
      w.kv("reason", d.reason);
      w.kv("bytes_ingested", d.bytes_ingested);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();

  w.key("lines");
  w.begin_object();
  w.kv("kept", lines_kept);
  w.kv("kept_bytes", bytes_kept);
  w.kv("quarantined", quarantined_lines());
  w.kv("quarantined_bytes", quarantined_bytes());
  w.kv("binary", binary_lines);
  w.kv("binary_bytes", binary_bytes);
  w.kv("overlong", overlong_lines);
  w.kv("overlong_bytes", overlong_bytes);
  w.kv("torn", torn_lines);
  w.kv("torn_bytes", torn_bytes);
  w.kv("crlf_bytes_stripped", crlf_bytes);
  w.end_object();

  w.key("accounting");
  w.begin_object();
  w.kv("present", accounting_present);
  if (!accounting_error.empty()) w.kv("error", accounting_error);
  w.kv("rows_kept", accounting_rows_kept);
  w.kv("rows_rejected", accounting_rows_rejected);
  w.kv("bytes_rejected", accounting_bytes_rejected);
  w.end_object();

  w.key("days");
  w.begin_array();
  for (const auto& d : days) {
    w.begin_object();
    w.kv("date", d.date);
    w.kv("file_bytes", d.file_bytes);
    w.kv("lines_kept", d.lines_kept);
    w.kv("bytes_kept", d.bytes_kept);
    w.kv("binary", d.binary_lines);
    w.kv("binary_bytes", d.binary_bytes);
    w.kv("overlong", d.overlong_lines);
    w.kv("overlong_bytes", d.overlong_bytes);
    w.kv("torn", d.torn_lines);
    w.kv("torn_bytes", d.torn_bytes);
    w.kv("crlf_bytes_stripped", d.crlf_bytes);
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return std::move(w).str();
}

std::string DataQualityReport::to_markdown() const {
  std::string out;
  out += "## Data quality\n\n";
  out += "Ingestion policy: `";
  out += to_string(policy);
  out += "`";
  if (error_budget > 0) {
    out += " (per-file error budget " + std::to_string(error_budget) + ")";
  }
  out += clean() ? " — input was clean.\n\n" : " — input had defects.\n\n";

  out += "| metric | value |\n|---|---|\n";
  out += "| day files ingested | " + std::to_string(days_present) + " / " +
         (days_expected > 0 ? std::to_string(days_expected) : "?") +
         " expected |\n";
  out += "| missing days | " + std::to_string(missing_days.size()) + " |\n";
  out += "| unreadable days skipped | " + std::to_string(skipped_days.size()) +
         " |\n";
  out += "| zero-byte days | " + std::to_string(zero_byte_days) + " |\n";
  out += "| stray files in syslog/ | " + std::to_string(stray_files.size()) +
         " |\n";
  out += "| log lines kept | " + std::to_string(lines_kept) + " |\n";
  out += "| log lines quarantined | " + std::to_string(quarantined_lines()) +
         " (" + std::to_string(quarantined_bytes()) + " bytes) |\n";
  out += "| — binary garbage | " + std::to_string(binary_lines) + " |\n";
  out += "| — overlong | " + std::to_string(overlong_lines) + " |\n";
  out += "| — torn at EOF | " + std::to_string(torn_lines) + " |\n";
  out += "| CRLF terminator bytes stripped | " + std::to_string(crlf_bytes) +
         " |\n";
  out += "| accounting dump | ";
  out += accounting_present ? "present" : "missing";
  if (!accounting_error.empty()) out += " (" + accounting_error + ")";
  out += " |\n";
  out += "| accounting rows kept | " + std::to_string(accounting_rows_kept) +
         " |\n";
  out += "| accounting rows rejected | " +
         std::to_string(accounting_rows_rejected) + " (" +
         std::to_string(accounting_bytes_rejected) + " bytes) |\n";

  if (!missing_days.empty()) {
    out += "\nMissing days:";
    for (const auto& d : missing_days) out += " " + d;
    out += "\n";
  }
  if (!skipped_days.empty()) {
    out += "\nSkipped days:\n";
    for (const auto& d : skipped_days) {
      out += "- " + d.date + ": " + d.reason + "\n";
    }
  }
  if (!degraded_sources.empty()) {
    out += "\nDegraded sources (retry budget exhausted):\n";
    for (const auto& d : degraded_sources) {
      out += "- " + d.name + ": " + d.reason + " (" +
             std::to_string(d.bytes_ingested) + " bytes ingested)\n";
    }
  }
  return out;
}

}  // namespace gpures::analysis
