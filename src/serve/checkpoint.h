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
// Both use the gpures.idx little-endian helpers and XXH64.  Frontier file:
// fixed 40-byte header (magic, version, endian tag, payload size, payload
// XXH64, header XXH64), then the payload.  Segment file: 32-byte header
// (magic, version, stream id, config_hash, header XXH64), then blocks of
// [u64 payload length][u64 record count][payload][u64 XXH64 of the three
// preceding fields].  A segment's hash chain folds each block hash into the
// previous chain value (XXH64 seeded with it), which binds a generation to
// the exact blocks it committed.  The payload layouts are the fields()
// lists in checkpoint.cpp: one per persisted record type, in on-disk order,
// walked by the same code to encode and to decode.
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
#include "common/error.h"
#include "common/time.h"
#include "logsys/day_buffer.h"

namespace gpures::serve {

inline constexpr char kCheckpointMagic[8] = {'G', 'P', 'U', 'R',
                                             'E', 'S', 'C', 'K'};
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::uint32_t kCheckpointEndianTag = 0x01020304u;
/// magic(8) + version(4) + endian(4) + payload_size(8) + payload_hash(8) +
/// header_hash(8).
inline constexpr std::size_t kCheckpointHeaderSize = 40;

/// magic "GPURESSG"(8) + version(4) + stream(4) + config_hash(8) +
/// header_hash(8).
inline constexpr std::size_t kSegmentHeaderSize = 32;

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
