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
// Versioning: readers accept exactly kFormatVersion.  A bumped version is
// reported as "unsupported format version" *before* any payload is trusted;
// adding sections or fields means bumping the version (there is no
// silent-skip path for unknown sections by design — the artifact is cheap
// to regenerate from the dataset).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace gpures::index {

inline constexpr char kMagic[8] = {'G', 'P', 'U', 'R', 'E', 'S', 'I', 'X'};
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kEndianTag = 0x01020304u;
inline constexpr std::size_t kHeaderSize = 48;
inline constexpr std::size_t kSectionEntrySize = 32;
inline constexpr std::uint32_t kSectionCount = 25;
inline constexpr std::size_t kSectionTableOffset = kHeaderSize;
inline constexpr std::size_t kSectionBase =
    kHeaderSize + kSectionCount * kSectionEntrySize;

// Header field offsets.
inline constexpr std::size_t kOffMagic = 0;
inline constexpr std::size_t kOffVersion = 8;
inline constexpr std::size_t kOffEndianTag = 12;
inline constexpr std::size_t kOffFileSize = 16;
inline constexpr std::size_t kOffSectionCount = 24;
inline constexpr std::size_t kOffTableHash = 32;
inline constexpr std::size_t kOffHeaderHash = 40;
/// The header hash covers bytes [0, kHeaderHashedBytes).
inline constexpr std::size_t kHeaderHashedBytes = kOffHeaderHash;

/// Sections in file order.  Ids are explicit (they are written to disk) and
/// dense from 1 so the reader can verify entry i carries id i + 1.
enum class SectionId : std::uint32_t {
  kMeta = 1,             ///< fixed-size IndexMeta block
  kNodeNameOffsets = 2,  ///< u32[node_count + 1] into the name blob
  kNodeNameBlob = 3,     ///< concatenated node names, no terminators
  // Coalesced errors, sorted by (time, gpu, code, raw_xid).
  kErrTime = 4,          ///< i64[E] leader timestamps
  kErrLast = 5,          ///< i64[E] last merged occurrence
  kErrGpu = 6,           ///< i32[E] packed GPU (node << 8 | slot)
  kErrCode = 7,          ///< u16[E] canonical (family-merged) XID
  kErrRawXid = 8,        ///< u16[E] XID as logged
  kErrRawLines = 9,      ///< u32[E] raw lines merged into the error
  // Exposure-join location index: reported-family errors grouped by
  // packed-GPU key (groups sorted by key, entries by (time, bit)).  These
  // are the four columns of analysis::ErrorIndex, as build_error_index
  // returns them over an unbounded period; the reader exposes them as an
  // analysis::ErrorIndexView.
  kLocKeys = 10,         ///< i64[K] distinct location keys, ascending
  kLocOffsets = 11,      ///< u64[K + 1] group bounds into the entry columns
  kLocTime = 12,         ///< i64[L] entry timestamps
  kLocBit = 13,          ///< u32[L] xid::report_order() bit
  // Job exposure intervals, sorted by (end, start, id) for binary search on
  // end time (the impact analysis selects jobs by end).
  kJobId = 14,           ///< u64[J]
  kJobStart = 15,        ///< i64[J]
  kJobEnd = 16,          ///< i64[J]
  kJobState = 17,        ///< u8[J] slurm::JobState
  kJobGpuOffsets = 18,   ///< u64[J + 1] bounds into kJobGpuList
  kJobGpuList = 19,      ///< i32[G] packed GPUs per job, CSR
  // Unavailability intervals, sorted by (begin, node, end).
  kUnavailNode = 20,     ///< i32[U] topology node index
  kUnavailBegin = 21,    ///< i64[U] drain time
  kUnavailEnd = 22,      ///< i64[U] resume time
  // Write-time exposure attribution (v2): analysis::expose over the loc
  // index above for every job, at the recorded window and attribution and
  // an unbounded period.  Positions index the job columns.
  kJobExposedPos = 23,   ///< u32[X] jobs with a nonzero run mask, ascending
  kJobExposedMasks = 24, ///< u32[X] pack_masks(run, window) per exposed job
  kJobFailedPos = 25,    ///< u32[F] jobs in a failure state, ascending
};

std::string_view section_name(SectionId id);

/// Fixed-size meta block (section 1).  All counts are redundant with the
/// section sizes; the reader cross-checks them.
inline constexpr std::size_t kMetaSize = 136;
inline constexpr std::size_t kMetaPreBegin = 0;    // i64
inline constexpr std::size_t kMetaPreEnd = 8;      // i64
inline constexpr std::size_t kMetaOpBegin = 16;    // i64
inline constexpr std::size_t kMetaOpEnd = 24;      // i64
inline constexpr std::size_t kMetaWindow = 32;     // i64 attribution window, s
inline constexpr std::size_t kMetaMaxIntervalH = 40;  // f64
inline constexpr std::size_t kMetaNodeCount = 48;  // u32
inline constexpr std::size_t kMetaAttribution = 52;  // u32: 0 gpu, 1 node
inline constexpr std::size_t kMetaErrorCount = 56;    // u64
inline constexpr std::size_t kMetaLocEntryCount = 64; // u64
inline constexpr std::size_t kMetaJobCount = 72;      // u64
inline constexpr std::size_t kMetaJobGpuCount = 80;   // u64
inline constexpr std::size_t kMetaUnavailCount = 88;  // u64
// Aggregate-MTBE (ErrorStatsConfig) parameters the pipeline ran with; the
// query engine replays them so an availability answer over the operational
// window is bitwise-equal to the batch Fig. 2 computation.
inline constexpr std::size_t kMetaOutlierShare = 96;      // f64
inline constexpr std::size_t kMetaOutlierMin = 104;       // u64
inline constexpr std::size_t kMetaExcludeOutliers = 112;  // u32: 0 no, 1 yes
// bytes [116, 120) reserved, zero
inline constexpr std::size_t kMetaExposedCount = 120;  // u64
inline constexpr std::size_t kMetaFailedCount = 128;   // u64

/// An exposed job's run and window masks (xid::report_order() bits, ten
/// families) share one u32: run mask low, window mask high.
inline constexpr std::uint32_t kMaskBits = 16;
constexpr std::uint32_t pack_masks(std::uint32_t run, std::uint32_t window) {
  return run | (window << kMaskBits);
}
constexpr std::uint32_t run_mask_of(std::uint32_t packed) {
  return packed & ((1u << kMaskBits) - 1);
}
constexpr std::uint32_t window_mask_of(std::uint32_t packed) {
  return packed >> kMaskBits;
}

/// Round a byte count up to the 8-byte section granule.
constexpr std::uint64_t pad8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

// ---- little-endian field codecs -------------------------------------------
// The file defines fields as little-endian byte sequences; these helpers are
// correct on any host.  (The zero-copy column views additionally require a
// little-endian host; IndexReader::open enforces that.)

inline void store_le16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}
inline void store_le32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
inline void store_le64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
inline void store_f64(unsigned char* p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  store_le64(p, bits);
}

inline std::uint16_t load_le16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
inline std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
inline std::uint64_t load_le64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
inline double load_f64(const unsigned char* p) {
  const std::uint64_t bits = load_le64(p);
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

}  // namespace gpures::index
