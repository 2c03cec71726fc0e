// Crash-safe checkpoints for the follow-mode serve daemon.
//
// Durable state is split in two, so a generation costs O(records emitted
// since the previous one), not O(history):
//
//  * Result segments: one append-only file per emitted-result stream —
//    coalesced errors, lifecycle records, JobTable::jobs and
//    JobTable::spill (seg-<stream>.bin).  The session only ever appends to
//    these vectors until finalize() sorts them, so each generation is the
//    range [committed, size()) of every stream.
//  * Frontier generations: ckpt-<seq>.bin, a small file holding everything
//    that is not an append-only result — per-source byte offsets and
//    quality tallies, the accounting-tail cursor, strays, the coalescer's
//    open groups and counters, tick and watermark — plus each segment's
//    committed length, record count and hash chain.
//
// Both are little-endian and checksummed with XXH64, and every record in
// them is one fields() list walked by the field codec (common/codec.h) to
// encode and to decode.  Frontier file: fixed 40-byte header (magic,
// version, endian tag, payload size, payload XXH64, header XXH64), then the
// payload.  Segment file: 32-byte header (magic, version, stream id,
// config_hash, header XXH64), then blocks of [u64 payload length][u64
// record count][payload][u64 XXH64 of the three preceding fields].  The
// headers and the block prefix are declared below; the payload records'
// fields() lists are in checkpoint.cpp, one per persisted record type, in
// on-disk order.  A segment's hash chain folds each block hash into the
// previous chain value (XXH64 seeded with it), which binds a generation to
// the exact blocks it committed.
//
// CheckpointStore::write appends one block per grown stream, then renames
// the frontier into place (common::write_file_atomic).  A crash between the
// two leaves bytes past the committed length; load_latest verifies every
// committed block, truncates each segment back to the committed length of
// the generation it loads, and falls back newest-to-oldest past any
// generation whose frontier or blocks fail verification — an older
// generation's committed lengths are always a prefix of the segments.
// Because the serve loop is deterministic given (dataset bytes, config),
// restoring and replaying the remaining ticks reproduces the exact byte
// sequence an uninterrupted run would have produced — the property the
// kill-resume differential suite asserts.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/coalesce.h"
#include "analysis/extraction.h"
#include "analysis/ingest.h"
#include "analysis/job_stats.h"
#include "common/codec.h"
#include "common/error.h"
#include "common/time.h"
#include "logsys/day_buffer.h"

namespace gpures::serve {

inline constexpr std::array<char, 8> kCheckpointMagic = {'G', 'P', 'U', 'R',
                                                         'E', 'S', 'C', 'K'};
inline constexpr std::array<char, 8> kSegmentMagic = {'G', 'P', 'U', 'R',
                                                      'E', 'S', 'S', 'G'};
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::uint32_t kCheckpointEndianTag = 0x01020304u;

/// A frontier file's header.
struct CheckpointHeader {
  std::array<char, 8> magic = kCheckpointMagic;
  std::uint32_t version = kCheckpointVersion;
  std::uint32_t endian_tag = kCheckpointEndianTag;
  std::uint64_t payload_size = 0;
  std::uint64_t payload_hash = 0;  ///< XXH64 of the payload
  std::uint64_t header_hash = 0;   ///< XXH64 of the header bytes before it
};
template <typename IO>
constexpr void fields(IO& io, common::Rec<IO, CheckpointHeader>& h) {
  io(h.magic, h.version, h.endian_tag, h.payload_size, h.payload_hash,
     h.header_hash);
}

/// A segment file's header.
struct SegmentHeader {
  std::array<char, 8> magic = kSegmentMagic;
  std::uint32_t version = kCheckpointVersion;
  std::uint32_t stream = 0;  ///< the Segment
  std::uint64_t config_hash = 0;
  std::uint64_t header_hash = 0;  ///< XXH64 of the header bytes before it
};
template <typename IO>
constexpr void fields(IO& io, common::Rec<IO, SegmentHeader>& h) {
  io(h.magic, h.version, h.stream, h.config_hash, h.header_hash);
}

/// What precedes each block's payload; the block's XXH64 follows it.
struct BlockPrefix {
  std::uint64_t payload_bytes = 0;
  std::uint64_t records = 0;
};
template <typename IO>
constexpr void fields(IO& io, common::Rec<IO, BlockPrefix>& b) {
  io(b.payload_bytes, b.records);
}

inline constexpr std::size_t kCheckpointHeaderSize =
    common::encoded_size<CheckpointHeader>();
inline constexpr std::size_t kSegmentHeaderSize =
    common::encoded_size<SegmentHeader>();

/// The emitted-result streams, one segment file each.
enum class Segment : std::uint8_t { kErrors, kLifecycle, kJobs, kSpill };
inline constexpr std::size_t kSegmentCount = 4;

/// Persistent slice of one tailed day file's state.
struct SourceSnapshot {
  std::string name;              ///< file name (syslog-YYYY-MM-DD.log)
  common::TimePoint date = 0;
  std::uint64_t offset = 0;      ///< consumed bytes (always a line boundary,
                                 ///< except after the final torn fragment)
  std::uint64_t lines_seen = 0;  ///< physical lines consumed
  bool existed = false;          ///< a stat/read ever saw the file
  bool sealed = false;           ///< fully consumed, quality recorded
  bool degraded = false;         ///< quarantined after retry exhaustion
  bool recovered = false;        ///< degraded, but a later re-probe succeeded
  std::string degrade_reason;
  std::uint64_t last_progress_tick = 0;
  common::TimePoint last_event = 0;  ///< per-source watermark
  logsys::ScreenCounts counts;       ///< cumulative across chunks
};

/// Persistent accounting-tail state: the ingest cursor plus the daemon's
/// source state.
struct AccountingSnapshot : analysis::AccountingCursor {
  bool seen = false;  ///< the dump existed at least once
  bool degraded = false;
  std::string degrade_reason;
};

/// Everything a resumed daemon needs besides the emitted results.
struct CheckpointFrontier {
  std::uint64_t config_hash = 0;  ///< guard: resume must match the run config
  std::uint64_t seq = 0;          ///< checkpoint generation (1-based)
  std::uint64_t tick = 0;         ///< tick count at snapshot time
  common::TimePoint watermark = 0;
  std::vector<SourceSnapshot> sources;  ///< date order
  AccountingSnapshot accounting;
  std::vector<std::string> stray_files;  ///< observed so far, sorted
  analysis::CoalescerState coalescer;
};

/// A loaded generation: the frontier plus the results its segments hold.
struct CheckpointData : CheckpointFrontier {
  std::vector<analysis::CoalescedError> errors;  ///< emitted so far, feed order
  std::vector<analysis::LifecycleRecord> lifecycle;
  analysis::JobTable jobs;
};

/// The session's result vectors, whole; a write appends what lies past the
/// previous generation.
struct ResultStreams {
  std::span<const analysis::CoalescedError> errors;
  std::span<const analysis::LifecycleRecord> lifecycle;
  std::span<const analysis::JobView> jobs;
  std::span<const std::vector<analysis::PackedGpu>> spill;
};

/// How much of one segment a generation committed.
struct SegmentExtent {
  std::uint64_t bytes = kSegmentHeaderSize;  ///< committed file length
  std::uint64_t records = 0;
  std::uint64_t chain = 0;  ///< XXH64 chain over the committed block hashes
};
using SegmentExtents = std::array<SegmentExtent, kSegmentCount>;

/// One frontier file's content.
struct Generation {
  CheckpointFrontier frontier;
  SegmentExtents segments;
};

/// Serialize a frontier file (header + checksummed payload).
std::string serialize_generation(const CheckpointFrontier& frontier,
                                 const SegmentExtents& segments);

/// Parse and verify a frontier file.  Any header/payload corruption — bad
/// magic, wrong version, size mismatch, checksum mismatch, truncated field —
/// returns an Error describing the defect; it never crashes.
common::Result<Generation> parse_generation(std::string_view bytes);

/// On-disk checkpoint store in one directory: the four result segments plus
/// rotating frontier generations `ckpt-<seq>.bin`, newest `keep` retained.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::filesystem::path dir, std::uint32_t keep = 2);

  /// Fresh start: create the directory if absent, delete every generation
  /// and segment, then create empty segments stamped with `config_hash`.
  /// Required before the first write unless load_latest returned a
  /// generation.
  common::Status reset(std::uint64_t config_hash);

  /// Load the newest generation whose frontier file and every committed
  /// segment block verify.  Failing generations are reported through `note`
  /// and skipped (clean fallback).  On success each segment is truncated to
  /// that generation's committed length, newer generations are removed, and
  /// later writes continue from it.  An empty optional means no usable
  /// generation exists: call reset() for a fresh start.
  common::Result<std::optional<CheckpointData>> load_latest(
      const std::function<void(const std::string&)>& note);

  /// Write generation frontier.seq: append each stream's records past the
  /// previous generation as one block, call `between` (null allowed; the
  /// only crash window where segments and frontier disagree), then rename
  /// the frontier into place and prune older generations.  Returns the
  /// bytes written.  Results must only have grown since the last write.
  common::Result<std::uint64_t> write(
      const CheckpointFrontier& frontier, const ResultStreams& results,
      const std::function<void()>& between = nullptr);

  /// Where generation `seq` and segment `s` live (for tests and chaos).
  std::filesystem::path path_for(std::uint64_t seq) const;
  std::filesystem::path segment_path(Segment s) const;

  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
  std::uint32_t keep_;
  bool ready_ = false;  ///< reset() or a successful load_latest() ran
  std::uint64_t config_hash_ = 0;
  SegmentExtents committed_{};
};

}  // namespace gpures::serve
