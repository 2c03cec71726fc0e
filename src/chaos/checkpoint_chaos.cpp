#include "chaos/checkpoint_chaos.h"

#include "common/hash.h"
#include "common/io.h"
#include "common/rng.h"
#include "index/format.h"
#include "serve/checkpoint.h"

namespace gpures::chaos {

namespace {

// Frontier header field offsets (see serve/checkpoint.h): magic[8],
// version u32, endian u32, payload_size u64, payload_hash u64,
// header_hash u64.
constexpr std::uint64_t kOffVersion = 8;
constexpr std::uint64_t kOffHeaderHash = 32;
constexpr std::uint64_t kHeaderHashedBytes = 32;

// Segment header field offsets: magic[8], version u32, stream u32,
// config_hash u64, header_hash u64.
constexpr std::uint64_t kSegOffConfigHash = 16;
constexpr std::uint64_t kSegOffHeaderHash = 24;

unsigned char* bytes_at(std::string& s, std::uint64_t off) {
  return reinterpret_cast<unsigned char*>(s.data()) + off;
}

CheckpointCorruption flip_bit(std::string& s, common::Rng& rng,
                              std::uint64_t lo, std::uint64_t hi,
                              std::string_view fault, std::string_view where) {
  CheckpointCorruption c;
  c.fault = fault;
  c.original_size = s.size();
  c.corrupted_size = s.size();
  c.byte_offset = lo + rng.uniform_u64(hi - lo);
  c.bit = static_cast<std::uint32_t>(rng.uniform_u64(8));
  *bytes_at(s, c.byte_offset) ^= static_cast<unsigned char>(1u << c.bit);
  c.detail = "flipped bit " + std::to_string(c.bit) + " of byte " +
             std::to_string(c.byte_offset) + " (" + std::string(where) + ")";
  return c;
}

/// Cut anywhere in [0, size): always strictly shorter, so a header check or
/// a length check must fire.
CheckpointCorruption truncate(std::string& s, common::Rng& rng,
                              std::string_view fault) {
  CheckpointCorruption c;
  c.fault = fault;
  c.original_size = s.size();
  c.byte_offset = rng.uniform_u64(s.size());
  s.resize(c.byte_offset);
  c.corrupted_size = s.size();
  c.detail = "truncated from " + std::to_string(c.original_size) + " to " +
             std::to_string(c.byte_offset) + " bytes";
  return c;
}

template <typename Fault>
common::Result<CheckpointCorruption> corrupt_file(
    const std::filesystem::path& src, const std::filesystem::path& dst,
    std::uint64_t seed, Fault fault,
    common::Result<CheckpointCorruption> (*corrupt)(std::string&,
                                                    std::uint64_t, Fault)) {
  auto text = common::read_file(src.string());
  if (!text.ok()) return text.error();
  std::string bytes = std::move(text).take();
  auto c = corrupt(bytes, seed, fault);
  if (!c.ok()) return c;
  const auto st = common::write_text_file(dst.string(), bytes);
  if (!st.ok()) return st.error();
  return c;
}

}  // namespace

std::string_view to_string(CheckpointFault fault) {
  switch (fault) {
    case CheckpointFault::kHeaderBitFlip: return "header-bit-flip";
    case CheckpointFault::kPayloadBitFlip: return "payload-bit-flip";
    case CheckpointFault::kAnyBitFlip: return "any-bit-flip";
    case CheckpointFault::kTruncate: return "truncate";
    case CheckpointFault::kVersionBump: return "version-bump";
  }
  return "unknown";
}

std::string_view to_string(SegmentFault fault) {
  switch (fault) {
    case SegmentFault::kHeaderBitFlip: return "segment-header-bit-flip";
    case SegmentFault::kBlockBitFlip: return "segment-block-bit-flip";
    case SegmentFault::kTruncate: return "segment-truncate";
    case SegmentFault::kTornTail: return "segment-torn-tail";
    case SegmentFault::kForeignConfig: return "segment-foreign-config";
  }
  return "unknown";
}

common::Result<CheckpointCorruption> corrupt_checkpoint_bytes(
    std::string& bytes, std::uint64_t seed, CheckpointFault fault) {
  common::Rng rng(seed);
  rng = rng.fork(to_string(fault));
  const std::string_view name = to_string(fault);

  const std::uint64_t size = bytes.size();
  if (size < serve::kCheckpointHeaderSize) {
    return common::Error::make(
        "corrupt_checkpoint: input is smaller than a checkpoint header (" +
        std::to_string(size) + " bytes)");
  }

  switch (fault) {
    case CheckpointFault::kHeaderBitFlip:
      return flip_bit(bytes, rng, 0, serve::kCheckpointHeaderSize, name,
                      "header");
    case CheckpointFault::kPayloadBitFlip: {
      if (size <= serve::kCheckpointHeaderSize) {
        return common::Error::make(
            "corrupt_checkpoint: no payload bytes to corrupt");
      }
      return flip_bit(bytes, rng, serve::kCheckpointHeaderSize, size, name,
                      "payload");
    }
    case CheckpointFault::kAnyBitFlip:
      return flip_bit(bytes, rng, 0, size, name, "anywhere");
    case CheckpointFault::kTruncate:
      return truncate(bytes, rng, name);
    case CheckpointFault::kVersionBump: {
      CheckpointCorruption c;
      c.fault = name;
      c.original_size = size;
      c.corrupted_size = size;
      c.byte_offset = kOffVersion;
      index::store_le32(bytes_at(bytes, kOffVersion),
                        serve::kCheckpointVersion + 1);
      // Keep the header self-consistent so the reader's rejection is the
      // version check, not the header checksum.
      index::store_le64(bytes_at(bytes, kOffHeaderHash),
                        common::xxhash64(bytes.data(), kHeaderHashedBytes));
      c.detail = "bumped version to " +
                 std::to_string(serve::kCheckpointVersion + 1) +
                 ", header hash fixed up";
      return c;
    }
  }
  return common::Error::make("corrupt_checkpoint: unknown fault");
}

common::Result<CheckpointCorruption> corrupt_segment_bytes(
    std::string& bytes, std::uint64_t seed, SegmentFault fault) {
  common::Rng rng(seed);
  rng = rng.fork(to_string(fault));
  const std::string_view name = to_string(fault);

  const std::uint64_t size = bytes.size();
  if (size < serve::kSegmentHeaderSize) {
    return common::Error::make(
        "corrupt_segment: input is smaller than a segment header (" +
        std::to_string(size) + " bytes)");
  }

  switch (fault) {
    case SegmentFault::kHeaderBitFlip:
      return flip_bit(bytes, rng, 0, serve::kSegmentHeaderSize, name,
                      "segment header");
    case SegmentFault::kBlockBitFlip:
      if (size == serve::kSegmentHeaderSize) {
        return common::Error::make("corrupt_segment: no block to corrupt");
      }
      return flip_bit(bytes, rng, serve::kSegmentHeaderSize, size, name,
                      "segment block");
    case SegmentFault::kTruncate:
      return truncate(bytes, rng, name);
    case SegmentFault::kTornTail: {
      CheckpointCorruption c;
      c.fault = name;
      c.original_size = size;
      c.byte_offset = size;
      const std::uint64_t n = 1 + rng.uniform_u64(64);
      for (std::uint64_t i = 0; i < n; ++i) {
        bytes.push_back(static_cast<char>(rng.uniform_u64(256)));
      }
      c.corrupted_size = bytes.size();
      c.detail = "appended " + std::to_string(n) + " garbage bytes";
      return c;
    }
    case SegmentFault::kForeignConfig: {
      CheckpointCorruption c;
      c.fault = name;
      c.original_size = size;
      c.corrupted_size = size;
      c.byte_offset = kSegOffConfigHash;
      const std::uint64_t foreign =
          index::load_le64(bytes_at(bytes, kSegOffConfigHash)) ^
          (rng.uniform_u64(~0ull) | 1);
      index::store_le64(bytes_at(bytes, kSegOffConfigHash), foreign);
      index::store_le64(bytes_at(bytes, kSegOffHeaderHash),
                        common::xxhash64(bytes.data(), kSegOffHeaderHash));
      c.detail = "stamped a foreign config_hash, header hash fixed up";
      return c;
    }
  }
  return common::Error::make("corrupt_segment: unknown fault");
}

common::Result<CheckpointCorruption> corrupt_checkpoint_file(
    const std::filesystem::path& src, const std::filesystem::path& dst,
    std::uint64_t seed, CheckpointFault fault) {
  return corrupt_file(src, dst, seed, fault, &corrupt_checkpoint_bytes);
}

common::Result<CheckpointCorruption> corrupt_segment_file(
    const std::filesystem::path& src, const std::filesystem::path& dst,
    std::uint64_t seed, SegmentFault fault) {
  return corrupt_file(src, dst, seed, fault, &corrupt_segment_bytes);
}

}  // namespace gpures::chaos
