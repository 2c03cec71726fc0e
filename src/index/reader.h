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

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "analysis/job_impact.h"
#include "analysis/periods.h"
#include "common/error.h"
#include "common/mmap.h"
#include "common/time.h"

namespace gpures::index {

/// Decoded meta block (section 1).
struct IndexMeta {
  analysis::StudyPeriods periods;
  common::Duration attribution_window = 20;
  double max_interval_h = 24.0 * 30;
  /// ErrorStatsConfig the aggregate MTBE was computed with (see query.h).
  double outlier_share = 0.5;
  std::uint64_t outlier_min = 1000;
  bool exclude_outliers_from_totals = true;
  std::uint32_t node_count = 0;
  /// 0 = device-level attribution, 1 = node-level (the pipeline's setting).
  std::uint32_t attribution = 0;
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
  std::span<const std::int64_t> err_time() const { return err_time_; }
  std::span<const std::int64_t> err_last() const { return err_last_; }
  std::span<const std::int32_t> err_gpu() const { return err_gpu_; }
  std::span<const std::uint16_t> err_code() const { return err_code_; }
  std::span<const std::uint16_t> err_raw_xid() const { return err_raw_xid_; }
  std::span<const std::uint32_t> err_raw_lines() const {
    return err_raw_lines_;
  }

  /// The exposure-join location index (reported families only, grouped by
  /// packed GPU): the same layout analysis::build_error_index produces.
  const analysis::ErrorIndexView& error_index() const { return loc_; }

  // Job columns, sorted by (end, start, id).
  std::span<const std::uint64_t> job_id() const { return job_id_; }
  std::span<const std::int64_t> job_start() const { return job_start_; }
  std::span<const std::int64_t> job_end() const { return job_end_; }
  std::span<const std::uint8_t> job_state() const { return job_state_; }
  std::span<const std::uint64_t> job_gpu_offsets() const {
    return job_gpu_offsets_;
  }
  std::span<const std::int32_t> job_gpu_list() const { return job_gpu_list_; }
  /// Packed GPUs allocated to job `j` (index into the job columns).
  std::span<const std::int32_t> job_gpus(std::size_t j) const;

  // Write-time attribution at the recorded window and attribution, over an
  // unbounded period: positions (into the job columns) of the jobs with a
  // nonzero run mask, their packed masks (format.h pack_masks), and the
  // positions of the jobs in a failure state.  Positions ascend.
  std::span<const std::uint32_t> job_exposed_pos() const {
    return job_exposed_pos_;
  }
  std::span<const std::uint32_t> job_exposed_masks() const {
    return job_exposed_masks_;
  }
  std::span<const std::uint32_t> job_failed_pos() const {
    return job_failed_pos_;
  }

  // Unavailability columns, sorted by (begin, node, end).
  std::span<const std::int32_t> unavail_node() const { return unavail_node_; }
  std::span<const std::int64_t> unavail_begin() const {
    return unavail_begin_;
  }
  std::span<const std::int64_t> unavail_end() const { return unavail_end_; }

 private:
  IndexReader() = default;

  common::MappedFile file_;
  IndexMeta meta_;

  std::span<const std::uint32_t> name_offsets_;
  std::string_view name_blob_;
  std::span<const std::int64_t> err_time_;
  std::span<const std::int64_t> err_last_;
  std::span<const std::int32_t> err_gpu_;
  std::span<const std::uint16_t> err_code_;
  std::span<const std::uint16_t> err_raw_xid_;
  std::span<const std::uint32_t> err_raw_lines_;
  analysis::ErrorIndexView loc_;
  std::span<const std::uint64_t> job_id_;
  std::span<const std::int64_t> job_start_;
  std::span<const std::int64_t> job_end_;
  std::span<const std::uint8_t> job_state_;
  std::span<const std::uint64_t> job_gpu_offsets_;
  std::span<const std::int32_t> job_gpu_list_;
  std::span<const std::uint32_t> job_exposed_pos_;
  std::span<const std::uint32_t> job_exposed_masks_;
  std::span<const std::uint32_t> job_failed_pos_;
  std::span<const std::int32_t> unavail_node_;
  std::span<const std::int64_t> unavail_begin_;
  std::span<const std::int64_t> unavail_end_;
};

}  // namespace gpures::index
