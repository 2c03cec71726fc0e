// Structure-aware corrupter for serve checkpoint files.
//
// Sibling of the index corrupter (index_chaos.h), specialized to the two
// checkpoint file kinds (see serve/checkpoint.h):
//  * frontier generations (ckpt-NNNNNNNN.bin): a 40-byte header — magic,
//    version, endian tag, payload size, payload XXH64, header XXH64 —
//    followed by the serialized frontier;
//  * result segments (seg-<stream>.bin): a 32-byte header — magic, version,
//    stream id, config_hash, header XXH64 — followed by checksummed blocks.
// Faults target specific validation steps so tests can assert the reader
// fails on the *intended* check, and that CheckpointStore::load_latest
// falls back past the damaged generation instead of crashing.
// kVersionBump and kForeignConfig recompute the header hash so the
// rejection is provably version negotiation / the config_hash guard, not
// an incidental checksum mismatch.
//
// Deterministic: (seed, fault) over the same input bytes always produces
// the same corrupted bytes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "common/error.h"

namespace gpures::chaos {

/// Faults for a frontier generation file.
enum class CheckpointFault : std::uint8_t {
  kHeaderBitFlip,   ///< flip one bit in the 40-byte header
  kPayloadBitFlip,  ///< flip one bit in the payload
  kAnyBitFlip,      ///< flip one bit anywhere in the file
  kTruncate,        ///< cut the file short
  kVersionBump,     ///< future format version, header hash fixed up
};

/// Faults for a result segment file.  The bit flips and the truncation land
/// in bytes a generation committed when the file holds no uncommitted tail.
enum class SegmentFault : std::uint8_t {
  kHeaderBitFlip,   ///< flip one bit in the 32-byte segment header
  kBlockBitFlip,    ///< flip one bit in a block (past the header)
  kTruncate,        ///< cut the file short
  kTornTail,        ///< append 1-64 garbage bytes, like a torn append
  kForeignConfig,   ///< another run's config_hash, header hash fixed up
};

std::string_view to_string(CheckpointFault fault);
std::string_view to_string(SegmentFault fault);

/// What was done, for test diagnostics.
struct CheckpointCorruption {
  std::string_view fault;  ///< to_string() of the fault applied
  std::uint64_t original_size = 0;
  std::uint64_t corrupted_size = 0;
  std::uint64_t byte_offset = 0;  ///< flipped byte / first truncated or
                                  ///< appended byte
  std::uint32_t bit = 0;          ///< flipped bit index for bit-flip faults
  std::string detail;
};

/// Corrupt a serialized frontier file's `bytes` in place.  Fails (without
/// touching `bytes`) when the input is too small to host the fault.
common::Result<CheckpointCorruption> corrupt_checkpoint_bytes(
    std::string& bytes, std::uint64_t seed, CheckpointFault fault);

/// Corrupt a segment file's `bytes` in place; fails (untouched) when the
/// input is too small to host the fault — kBlockBitFlip needs a block.
common::Result<CheckpointCorruption> corrupt_segment_bytes(
    std::string& bytes, std::uint64_t seed, SegmentFault fault);

/// Read `src`, corrupt, write `dst` (never modifies `src`; `src` == `dst`
/// overwrites in place on disk).
common::Result<CheckpointCorruption> corrupt_checkpoint_file(
    const std::filesystem::path& src, const std::filesystem::path& dst,
    std::uint64_t seed, CheckpointFault fault);
common::Result<CheckpointCorruption> corrupt_segment_file(
    const std::filesystem::path& src, const std::filesystem::path& dst,
    std::uint64_t seed, SegmentFault fault);

}  // namespace gpures::chaos
