// Zero-copy memory-mapped reader for gpures.idx.
//
// `open` maps the file, verifies the full integrity chain (magic, endian
// tag, version, header hash, table hash, per-section hashes, section
// geometry, column invariants), and only then exposes typed column views
// straight into the mapping — no deserialization, no allocation per query.
//
// Lifetime and aliasing rules: every span returned by a reader aliases the
// mapping and is valid exactly as long as the IndexReader that produced it
// (moving the reader keeps views valid — the mapping moves with it).  The
// mapping is immutable, so any number of threads may share one reader, or
// open their own readers onto the same file, without synchronization.
//
// A corrupt, truncated, or version-skewed file yields a located
// common::Error from open (never a crash or a wrong answer): nothing past
// the failed check is ever dereferenced.  The format is little-endian by
// definition; big-endian hosts are refused up front rather than served
// byte-swapped garbage.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "analysis/job_impact.h"
#include "common/error.h"
#include "common/mmap.h"
#include "index/format.h"

namespace gpures::index {

class IndexReader {
 public:
  /// Map and fully verify `path`.  Every failure is a located Error naming
  /// the file and the byte offset of the offending structure.
  static common::Result<IndexReader> open(const std::string& path);

  IndexReader(IndexReader&&) = default;
  IndexReader& operator=(IndexReader&&) = default;
  IndexReader(const IndexReader&) = delete;
  IndexReader& operator=(const IndexReader&) = delete;

  const IndexMeta& meta() const { return meta_; }
  const std::string& path() const { return file_.path(); }
  std::uint64_t file_bytes() const { return file_.size(); }

  std::string_view node_name(std::uint32_t idx) const;
  /// Inverse lookup; nullopt for names not in the artifact.
  std::optional<std::int32_t> node_index(std::string_view name) const;

  // Coalesced-error columns, sorted by (time, gpu, code, raw_xid).
  auto err_time() const { return column<kErrTime, std::int64_t>(); }
  auto err_last() const { return column<kErrLast, std::int64_t>(); }
  auto err_gpu() const { return column<kErrGpu, std::int32_t>(); }
  auto err_code() const { return column<kErrCode, std::uint16_t>(); }
  auto err_raw_xid() const { return column<kErrRawXid, std::uint16_t>(); }
  auto err_raw_lines() const { return column<kErrRawLines, std::uint32_t>(); }

  /// The exposure-join location index (reported families only, grouped by
  /// packed GPU): the same layout analysis::build_error_index produces.
  const analysis::ErrorIndexView& error_index() const { return loc_; }

  // Job columns, sorted by (end, start, id).
  auto job_id() const { return column<kJobId, std::uint64_t>(); }
  auto job_start() const { return column<kJobStart, std::int64_t>(); }
  auto job_end() const { return column<kJobEnd, std::int64_t>(); }
  auto job_state() const { return column<kJobState, std::uint8_t>(); }
  auto job_gpu_offsets() const {
    return column<kJobGpuOffsets, std::uint64_t>();
  }
  auto job_gpu_list() const { return column<kJobGpuList, std::int32_t>(); }
  /// Packed GPUs allocated to job `j` (index into the job columns).
  std::span<const std::int32_t> job_gpus(std::size_t j) const;

  // Write-time attribution at the recorded window and attribution, over an
  // unbounded period: positions (into the job columns) of the jobs with a
  // nonzero run mask, their packed masks (analysis::pack_masks), and the
  // positions of the jobs in a failure state.  Positions ascend.
  auto job_exposed_pos() const {
    return column<kJobExposedPos, std::uint32_t>();
  }
  auto job_exposed_masks() const {
    return column<kJobExposedMasks, std::uint32_t>();
  }
  auto job_failed_pos() const {
    return column<kJobFailedPos, std::uint32_t>();
  }

  // Unavailability columns, sorted by (begin, node, end).
  auto unavail_node() const { return column<kUnavailNode, std::int32_t>(); }
  auto unavail_begin() const { return column<kUnavailBegin, std::int64_t>(); }
  auto unavail_end() const { return column<kUnavailEnd, std::int64_t>(); }

 private:
  using enum SectionId;

  IndexReader() = default;

  /// Section `id`'s elements, in place in the mapping.
  template <SectionId id, typename T>
  std::span<const T> column() const {
    static_assert(sizeof(T) == section_spec(id).width);
    const auto bytes = columns_[static_cast<std::size_t>(id) - 1];
    return {reinterpret_cast<const T*>(bytes.data()),
            bytes.size() / sizeof(T)};
  }

  common::MappedFile file_;
  IndexMeta meta_;
  /// Each section's element bytes (padding excluded), verified by open().
  std::array<std::span<const unsigned char>, kSectionCount> columns_{};
  analysis::ErrorIndexView loc_;
};

}  // namespace gpures::index
