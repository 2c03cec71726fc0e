// Branchless fixed-field parsing for the Stage-I hot path.
//
// The companion to common/fmt.h: where fmt.h renders fixed-width syslog
// fields without snprintf, these helpers parse them back without
// per-character branches.  A syslog header is pure fixed layout
// ("Mon DD HH:MM:SS"), so validity can be computed as arithmetic over all
// the bytes at once and resolved with a single final select — no
// mispredicted digit-by-digit loop, no 12-iteration month-name compare
// chain.  The formatters' tests round-trip through these parsers, so the
// two directions cannot drift apart.
//
// All helpers are backend-independent scalar code (branchless, no
// intrinsics): the scan dispatch in src/simd never changes their results,
// which keeps timestamp parsing trivially byte-identical across backends.
#pragma once

#include <cstdint>

namespace gpures::common {

/// Parse exactly two ASCII digits ("07" -> 7).  Returns -1 if either byte
/// is not a digit.  Branchless: both bytes are range-checked arithmetically
/// and the result selected once.
int parse_2digit(const char* p);

/// Parse the two-byte syslog day-of-month field, space- or zero-padded
/// (" 5" -> 5, "05" -> 5, "31" -> 31).  Returns -1 on any other shape;
/// range validity against the month is the caller's job.
int parse_day_of_month(const char* p);

/// Parse "HH:MM:SS" (exactly 8 bytes) to seconds since midnight, validating
/// digits, separators, and field ranges (H <= 23, M/S <= 59) in one
/// branchless pass.  Returns -1 on any violation.
int parse_hhmmss(const char* p);

/// Month number (1..12) for a 3-byte English abbreviation ("Jan".."Dec",
/// exact case), 0 otherwise.  Perfect hash: the three bytes are packed into
/// one word and multiplied into a 16-slot table with no collisions among
/// the twelve months — one multiply and one table probe replace the
/// month-name string-compare chain.
int month_number(const char* p);

}  // namespace gpures::common
