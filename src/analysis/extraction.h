// Stage I: raw-log extraction.
//
// Consumes consolidated per-day syslog text and extracts (a) NVRM XID
// error records and (b) node drain/resume lifecycle records, rejecting all
// other lines.  Two matchers with the same parse() are provided:
//
//  * FastLineParser — a hand-rolled scanner (the only one the pipeline
//    runs; see analysis/ingest.h);
//  * RegexLineParser — a std::regex reference implementation mirroring the
//    paper's "RegEX pattern-matching for filtering system logs", kept as
//    the test oracle.
//
// Property tests assert the two agree line-for-line; the pipeline benchmark
// compares their throughput (ablation A3 in DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "common/time.h"

namespace gpures::analysis {

/// A parsed NVRM XID line.  The text fields are views borrowed from the
/// input line (zero-copy Stage I): they are valid only as long as the line's
/// backing storage — consume or resolve them before the next line.  XID
/// lines outnumber everything the pipeline keeps, so this is the record type
/// that must not allocate.
struct XidRecord {
  common::TimePoint time = 0;
  std::string_view host;
  std::string_view pci;   ///< e.g. "0000:27:00"
  std::uint16_t xid = 0;  ///< raw XID number (not yet validated/merged)
  std::string_view detail;  ///< payload after "<xid>, "
};

/// A parsed node lifecycle line (slurmctld drain / resume).  Keeps an owned
/// host string: lifecycle records are rare and stored long-term by the
/// availability analysis, so they must outlive the parsed line.
struct LifecycleRecord {
  enum class Kind : std::uint8_t { kDrain, kResume };
  common::TimePoint time = 0;
  std::string host;
  Kind kind = Kind::kDrain;
};

using ParsedLine = std::variant<XidRecord, LifecycleRecord>;

/// Hand-rolled scanner; no allocation on the reject path.  `day_start`
/// provides the year context that classic syslog timestamps lack (day files
/// are consolidated per calendar day).
class FastLineParser {
 public:
  std::optional<ParsedLine> parse(std::string_view line,
                                  common::TimePoint day_start) const;
};

/// std::regex reference implementation of the same parse().
class RegexLineParser {
 public:
  RegexLineParser();
  std::optional<ParsedLine> parse(std::string_view line,
                                  common::TimePoint day_start) const;

 private:
  struct Impl;
  std::shared_ptr<const Impl> impl_;
};

/// Parse the syslog timestamp at the head of `line` using the year of
/// `day_start`, correcting for the Dec->Jan rollover (a line stamped Jan 1
/// can sit in a Dec 31 day file when duplicates straddle midnight).
std::optional<common::TimePoint> parse_line_time(std::string_view line,
                                                 common::TimePoint day_start);

}  // namespace gpures::analysis
