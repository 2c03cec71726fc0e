// gpures.idx on-disk format (see DESIGN.md "The persistent error index").
//
// The artifact is a little-endian columnar file, written once after
// Stage II/III and served forever after by a zero-copy memory-mapped
// reader.  Layout:
//
//   [0, 48)                 fixed header
//   [48, 48 + 25 * 32)      section table, one 32-byte entry per section
//   [848, file_size)        the 25 sections, gapless, each 8-aligned and
//                           zero-padded to a multiple of 8 bytes
//
// Header (all integers little-endian):
//   off  0  u8[8]  magic "GPURESIX"
//   off  8  u32    format version (currently 2)
//   off 12  u32    endian tag 0x01020304 (reads back scrambled on a
//                  byte-swapped interpretation)
//   off 16  u64    file size in bytes
//   off 24  u32    section count (currently 25)
//   off 28  u32    reserved, zero
//   off 32  u64    XXH64 of the section-table bytes
//   off 40  u64    XXH64 of header bytes [0, 40)
//
// Section-table entry:
//   off  0  u32    section id (SectionId; entries in id order)
//   off  4  u32    reserved, zero
//   off  8  u64    absolute byte offset (multiple of 8)
//   off 16  u64    padded size in bytes (multiple of 8)
//   off 24  u64    XXH64 of the section bytes [offset, offset + size)
//
// Integrity: every byte of the file is under exactly one checksum — the
// header hash covers [0, 40), the stored header hash is self-checking, the
// table hash covers the table, and each section hash covers its payload
// *including* the zero padding.  Any single flipped bit therefore fails
// verification at open (the corruption fuzz test's core property).
//
// Declarations: the header, the section-table entry and the meta block are
// each one record below (IndexHeader, SectionEntry, IndexMeta) whose
// fields() list is its on-disk layout, encoded and decoded through
// common/codec.h; every section's id, name, element width and element count
// is one row of kSections.  The writer, the reader, the corrupters and the
// tests find fields and sections through these; this diagram is the spec
// they must match (IndexRoundTrip.FormatBytesArePinned).
//
// Versioning: readers accept exactly kFormatVersion.  A bumped version is
// reported as "unsupported format version" *before* any payload is trusted;
// adding sections or fields means bumping the version (there is no
// silent-skip path for unknown sections by design — the artifact is cheap
// to regenerate from the dataset).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "analysis/job_impact.h"
#include "analysis/periods.h"
#include "common/codec.h"
#include "common/time.h"

namespace gpures::index {

inline constexpr std::array<char, 8> kMagic = {'G', 'P', 'U', 'R',
                                               'E', 'S', 'I', 'X'};
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::uint32_t kSectionCount = 25;

/// The fixed header at offset 0.
struct IndexHeader {
  std::array<char, 8> magic = kMagic;
  std::uint32_t version = kFormatVersion;
  std::uint32_t endian_tag = kEndianTag;
  std::uint64_t file_size = 0;
  std::uint32_t section_count = kSectionCount;
  std::uint64_t table_hash = 0;   ///< XXH64 of the section table
  std::uint64_t header_hash = 0;  ///< XXH64 of the header bytes before it
};
template <typename IO>
constexpr void fields(IO& io, common::Rec<IO, IndexHeader>& h) {
  io(h.magic, h.version, h.endian_tag, h.file_size, h.section_count,
     std::uint32_t{0}, h.table_hash, h.header_hash);
}

/// One section-table entry; entries follow the header in id order.
struct SectionEntry {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;  ///< absolute, a multiple of 8
  std::uint64_t size = 0;    ///< padded, a multiple of 8
  std::uint64_t hash = 0;    ///< XXH64 of [offset, offset + size)
};
template <typename IO>
constexpr void fields(IO& io, common::Rec<IO, SectionEntry>& e) {
  io(e.id, std::uint32_t{0}, e.offset, e.size, e.hash);
}

inline constexpr std::size_t kHeaderSize = common::encoded_size<IndexHeader>();
inline constexpr std::size_t kSectionEntrySize =
    common::encoded_size<SectionEntry>();
inline constexpr std::size_t kSectionTableOffset = kHeaderSize;
inline constexpr std::size_t kSectionBase =
    kHeaderSize + kSectionCount * kSectionEntrySize;

/// The pipeline settings an artifact records: queries replay them.
struct IndexSettings {
  analysis::StudyPeriods periods;
  /// Job-failure attribution window, in seconds (queries may override it
  /// per call; this is the recorded default).
  common::Duration attribution_window = 20;
  analysis::Attribution attribution = analysis::Attribution::kGpuLevel;
  /// AvailabilityConfig::max_interval_h the intervals were computed with.
  double max_interval_h = 24.0 * 30;
  /// Aggregate-MTBE outlier handling (ErrorStatsConfig): the query engine
  /// replays it, so an availability answer over the operational window is
  /// bitwise-equal to the batch Fig. 2 computation.
  double outlier_share = 0.5;
  std::uint64_t outlier_min = 1000;
  bool exclude_outliers_from_totals = true;
};

/// The meta block (section 1): the settings plus every element count.  The
/// counts are redundant with the section sizes; the reader cross-checks
/// them.
struct IndexMeta : IndexSettings {
  std::uint32_t node_count = 0;
  std::uint64_t error_count = 0;
  std::uint64_t loc_entry_count = 0;
  std::uint64_t job_count = 0;
  std::uint64_t job_gpu_count = 0;
  std::uint64_t unavail_count = 0;
  /// Jobs with a nonzero run mask at the recorded attribution.
  std::uint64_t exposed_count = 0;
  /// Jobs in a failure state.
  std::uint64_t failed_count = 0;
};
template <typename IO>
constexpr void fields(IO& io, common::Rec<IO, IndexMeta>& m) {
  io(m.periods.pre.begin, m.periods.pre.end, m.periods.op.begin,
     m.periods.op.end, m.attribution_window, m.max_interval_h, m.node_count,
     m.attribution, m.error_count, m.loc_entry_count, m.job_count,
     m.job_gpu_count, m.unavail_count, m.outlier_share, m.outlier_min);
  io.template num<std::uint32_t>(m.exclude_outliers_from_totals);
  io(std::uint32_t{0}, m.exposed_count, m.failed_count);
}

/// Sections in file order.  Ids are explicit (they are written to disk) and
/// dense from 1 so the reader can verify entry i carries id i + 1.
enum class SectionId : std::uint32_t {
  kMeta = 1,             ///< the IndexMeta block
  kNodeNameOffsets = 2,  ///< bounds into the name blob, one per node + 1
  kNodeNameBlob = 3,     ///< concatenated node names, no terminators
  // Coalesced errors, sorted by (time, gpu, code, raw_xid).
  kErrTime = 4,          ///< leader timestamps
  kErrLast = 5,          ///< last merged occurrence
  kErrGpu = 6,           ///< packed GPU (node << 8 | slot)
  kErrCode = 7,          ///< canonical (family-merged) XID
  kErrRawXid = 8,        ///< XID as logged
  kErrRawLines = 9,      ///< raw lines merged into the error
  // Exposure-join location index: reported-family errors grouped by
  // packed-GPU key (groups sorted by key, entries by (time, bit)).  These
  // are the four columns of analysis::ErrorIndex, as build_error_index
  // returns them; the reader exposes them as an analysis::ErrorIndexView.
  kLocKeys = 10,         ///< distinct location keys, ascending
  kLocOffsets = 11,      ///< group bounds into the entry columns
  kLocTime = 12,         ///< entry timestamps
  kLocBit = 13,          ///< xid::report_order() bit
  // Job exposure intervals, sorted by (end, start, id) for binary search on
  // end time (the impact analysis selects jobs by end).
  kJobId = 14,
  kJobStart = 15,
  kJobEnd = 16,
  kJobState = 17,        ///< slurm::JobState
  kJobGpuOffsets = 18,   ///< bounds into kJobGpuList
  kJobGpuList = 19,      ///< packed GPUs per job, CSR
  // Unavailability intervals, sorted by (begin, node, end).
  kUnavailNode = 20,     ///< topology node index
  kUnavailBegin = 21,    ///< drain time
  kUnavailEnd = 22,      ///< resume time
  // Write-time exposure attribution (v2): the columns of analysis::mask_jobs
  // over the loc index above, at the recorded window and attribution.
  // Positions index the job columns.
  kJobExposedPos = 23,   ///< jobs with a nonzero run mask, ascending
  kJobExposedMasks = 24, ///< pack_masks(run, window) per exposed job
  kJobFailedPos = 25,    ///< jobs in a failure state, ascending
};

/// Round a byte count up to the 8-byte section granule.
constexpr std::uint64_t pad8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

/// What every section's element count follows from: the meta block's
/// counts, and the two that only the sections themselves record.
struct SectionCounts {
  IndexMeta meta;
  std::uint64_t name_bytes = 0;  ///< node-name blob length
  std::uint64_t loc_keys = 0;    ///< distinct location keys
};

/// One row of the section table.
struct SectionSpec {
  SectionId id;
  std::string_view name;
  std::uint64_t width;                           ///< bytes per element
  std::uint64_t (*count)(const SectionCounts&);  ///< elements

  /// The section's padded size in bytes.
  constexpr std::uint64_t size(const SectionCounts& c) const {
    return pad8(width * count(c));
  }
};

/// Every section, in id (and file) order.
inline constexpr std::array<SectionSpec, kSectionCount> kSections = [] {
  using enum SectionId;
  using C = const SectionCounts&;
  constexpr auto errors = [](C c) { return c.meta.error_count; };
  constexpr auto entries = [](C c) { return c.meta.loc_entry_count; };
  constexpr auto jobs = [](C c) { return c.meta.job_count; };
  constexpr auto unavail = [](C c) { return c.meta.unavail_count; };
  constexpr auto exposed = [](C c) { return c.meta.exposed_count; };
  return std::array<SectionSpec, kSectionCount>{{
      {kMeta, "meta", common::encoded_size<IndexMeta>(),
       [](C) { return std::uint64_t{1}; }},
      {kNodeNameOffsets, "node_name_offsets", 4,
       [](C c) { return c.meta.node_count + std::uint64_t{1}; }},
      {kNodeNameBlob, "node_name_blob", 1, [](C c) { return c.name_bytes; }},
      {kErrTime, "err_time", 8, errors},
      {kErrLast, "err_last", 8, errors},
      {kErrGpu, "err_gpu", 4, errors},
      {kErrCode, "err_code", 2, errors},
      {kErrRawXid, "err_raw_xid", 2, errors},
      {kErrRawLines, "err_raw_lines", 4, errors},
      {kLocKeys, "loc_keys", 8, [](C c) { return c.loc_keys; }},
      {kLocOffsets, "loc_offsets", 8, [](C c) { return c.loc_keys + 1; }},
      {kLocTime, "loc_time", 8, entries},
      {kLocBit, "loc_bit", 4, entries},
      {kJobId, "job_id", 8, jobs},
      {kJobStart, "job_start", 8, jobs},
      {kJobEnd, "job_end", 8, jobs},
      {kJobState, "job_state", 1, jobs},
      {kJobGpuOffsets, "job_gpu_offsets", 8,
       [](C c) { return c.meta.job_count + 1; }},
      {kJobGpuList, "job_gpu_list", 4,
       [](C c) { return c.meta.job_gpu_count; }},
      {kUnavailNode, "unavail_node", 4, unavail},
      {kUnavailBegin, "unavail_begin", 8, unavail},
      {kUnavailEnd, "unavail_end", 8, unavail},
      {kJobExposedPos, "job_exposed_pos", 4, exposed},
      {kJobExposedMasks, "job_exposed_masks", 4, exposed},
      {kJobFailedPos, "job_failed_pos", 4,
       [](C c) { return c.meta.failed_count; }},
  }};
}();
static_assert(
    [] {
      for (std::size_t i = 0; i < kSections.size(); ++i) {
        if (kSections[i].id != static_cast<SectionId>(i + 1)) return false;
      }
      return true;
    }(),
    "kSections rows must be in id order, from 1");

/// Section `id`'s row of kSections.
constexpr const SectionSpec& section_spec(SectionId id) {
  return kSections[static_cast<std::size_t>(id) - 1];
}

/// Section `id`'s name, "unknown" for an id outside the table.
constexpr std::string_view section_name(SectionId id) {
  const auto i = static_cast<std::size_t>(id) - 1;
  return i < kSections.size() ? kSections[i].name : "unknown";
}

}  // namespace gpures::index
