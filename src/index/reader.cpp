#include "index/reader.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <optional>

#include "common/hash.h"
#include "index/format.h"
#include "xid/xid.h"

namespace gpures::index {

namespace {

common::Error at(std::string msg, const std::string& path,
                 std::uint64_t offset) {
  return common::Error::at(std::move(msg), path, std::nullopt, offset);
}

struct Section {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;  ///< padded
};

}  // namespace

common::Result<IndexReader> IndexReader::open(const std::string& path) {
  if constexpr (std::endian::native != std::endian::little) {
    return common::Error::make(
        "the gpures index format is little-endian; zero-copy reads are not "
        "supported on big-endian hosts");
  }

  auto mapped = common::MappedFile::open(path);
  if (!mapped.ok()) return mapped.error();
  IndexReader r;
  r.file_ = std::move(mapped).take();
  const auto* base = reinterpret_cast<const unsigned char*>(r.file_.data());
  const std::uint64_t size = r.file_.size();

  // ---- header ---------------------------------------------------------------
  if (size < kHeaderSize) {
    return at("index file too small for a header (" + std::to_string(size) +
                  " bytes)",
              path, 0);
  }
  if (std::memcmp(base + kOffMagic, kMagic, sizeof(kMagic)) != 0) {
    return at("not a gpures index (bad magic)", path, kOffMagic);
  }
  if (load_le32(base + kOffEndianTag) != kEndianTag) {
    return at("index endian tag mismatch (file written with incompatible "
              "byte order?)",
              path, kOffEndianTag);
  }
  const std::uint32_t version = load_le32(base + kOffVersion);
  if (version != kFormatVersion) {
    return at("unsupported index format version " + std::to_string(version) +
                  " (this reader understands version " +
                  std::to_string(kFormatVersion) + ")",
              path, kOffVersion);
  }
  if (common::xxhash64(base, kHeaderHashedBytes) !=
      load_le64(base + kOffHeaderHash)) {
    return at("index header checksum mismatch", path, kOffHeaderHash);
  }
  if (load_le64(base + kOffFileSize) != size) {
    return at("index file size mismatch: header says " +
                  std::to_string(load_le64(base + kOffFileSize)) +
                  ", file has " + std::to_string(size),
              path, kOffFileSize);
  }
  const std::uint32_t section_count = load_le32(base + kOffSectionCount);
  if (section_count != kSectionCount) {
    return at("unexpected section count " + std::to_string(section_count),
              path, kOffSectionCount);
  }

  // ---- section table --------------------------------------------------------
  if (size < kSectionBase) {
    return at("index file truncated inside the section table", path,
              kSectionTableOffset);
  }
  if (common::xxhash64(base + kSectionTableOffset,
                       kSectionCount * kSectionEntrySize) !=
      load_le64(base + kOffTableHash)) {
    return at("index section-table checksum mismatch", path, kOffTableHash);
  }
  std::array<Section, kSectionCount> secs;
  std::uint64_t expect_offset = kSectionBase;
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const unsigned char* e =
        base + kSectionTableOffset + i * kSectionEntrySize;
    const std::uint64_t entry_off =
        kSectionTableOffset + i * kSectionEntrySize;
    if (load_le32(e) != i + 1) {
      return at("index section entry " + std::to_string(i) +
                    " carries id " + std::to_string(load_le32(e)) +
                    ", expected " + std::to_string(i + 1),
                path, entry_off);
    }
    secs[i].offset = load_le64(e + 8);
    secs[i].size = load_le64(e + 16);
    if (secs[i].offset != expect_offset) {
      return at("index section '" +
                    std::string(section_name(static_cast<SectionId>(i + 1))) +
                    "' is not gapless: offset " +
                    std::to_string(secs[i].offset) + ", expected " +
                    std::to_string(expect_offset),
                path, entry_off);
    }
    if (secs[i].size % 8 != 0 || secs[i].size > size - secs[i].offset) {
      return at("index section '" +
                    std::string(section_name(static_cast<SectionId>(i + 1))) +
                    "' extends past the end of the file",
                path, entry_off);
    }
    expect_offset += secs[i].size;
  }
  if (expect_offset != size) {
    return at("index has " + std::to_string(size - expect_offset) +
                  " trailing bytes after the last section",
              path, expect_offset);
  }
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const unsigned char* e =
        base + kSectionTableOffset + i * kSectionEntrySize;
    if (common::xxhash64(base + secs[i].offset, secs[i].size) !=
        load_le64(e + 24)) {
      return at("index section '" +
                    std::string(section_name(static_cast<SectionId>(i + 1))) +
                    "' checksum mismatch",
                path, secs[i].offset);
    }
  }
  const auto sec = [&](SectionId id) -> const Section& {
    return secs[static_cast<std::size_t>(id) - 1];
  };

  // ---- meta -----------------------------------------------------------------
  const Section& ms = sec(SectionId::kMeta);
  if (ms.size != pad8(kMetaSize)) {
    return at("index meta section has unexpected size " +
                  std::to_string(ms.size),
              path, ms.offset);
  }
  const unsigned char* m = base + ms.offset;
  IndexMeta& meta = r.meta_;
  meta.periods.pre.begin =
      static_cast<std::int64_t>(load_le64(m + kMetaPreBegin));
  meta.periods.pre.end = static_cast<std::int64_t>(load_le64(m + kMetaPreEnd));
  meta.periods.op.begin =
      static_cast<std::int64_t>(load_le64(m + kMetaOpBegin));
  meta.periods.op.end = static_cast<std::int64_t>(load_le64(m + kMetaOpEnd));
  meta.attribution_window =
      static_cast<std::int64_t>(load_le64(m + kMetaWindow));
  meta.max_interval_h = load_f64(m + kMetaMaxIntervalH);
  meta.node_count = load_le32(m + kMetaNodeCount);
  meta.attribution = load_le32(m + kMetaAttribution);
  meta.error_count = load_le64(m + kMetaErrorCount);
  meta.loc_entry_count = load_le64(m + kMetaLocEntryCount);
  meta.job_count = load_le64(m + kMetaJobCount);
  meta.job_gpu_count = load_le64(m + kMetaJobGpuCount);
  meta.unavail_count = load_le64(m + kMetaUnavailCount);
  meta.outlier_share = load_f64(m + kMetaOutlierShare);
  meta.outlier_min = load_le64(m + kMetaOutlierMin);
  meta.exclude_outliers_from_totals = load_le32(m + kMetaExcludeOutliers) != 0;
  meta.exposed_count = load_le64(m + kMetaExposedCount);
  meta.failed_count = load_le64(m + kMetaFailedCount);
  if (meta.attribution > 1) {
    return at("index meta: attribution must be 0 (device) or 1 (node), got " +
                  std::to_string(meta.attribution),
              path, ms.offset + kMetaAttribution);
  }
  if (meta.exposed_count > meta.job_count) {
    return at("index meta: exposed job count exceeds the job count", path,
              ms.offset + kMetaExposedCount);
  }
  if (meta.failed_count > meta.job_count) {
    return at("index meta: failed job count exceeds the job count", path,
              ms.offset + kMetaFailedCount);
  }

  // ---- typed columns --------------------------------------------------------
  // Each bind verifies a section's padded size matches its element count
  // exactly, then casts (T is one of the little-endian fixed-width types the
  // format defines, alignment <= 8 like the section offsets).  The first
  // failure is kept and every later bind is skipped.
  std::optional<common::Error> bind_error;
  const auto bind = [&](auto& span_member, SectionId id, std::uint64_t count) {
    using T = typename std::remove_reference_t<
        decltype(span_member)>::element_type;
    if (bind_error) return;
    const Section& s = sec(id);
    if (count > s.size / sizeof(T) || pad8(count * sizeof(T)) != s.size) {
      bind_error = at("index section '" + std::string(section_name(id)) +
                          "' size does not match its element count",
                      path, s.offset);
      return;
    }
    span_member = {reinterpret_cast<T*>(base + s.offset), count};
  };
  // Key count is implied by the key section's own size (i64 elements pack
  // the 8-byte granule exactly, so size / 8 is the element count).
  const std::uint64_t key_count = sec(SectionId::kLocKeys).size / 8;
  bind(r.name_offsets_, SectionId::kNodeNameOffsets,
       std::uint64_t{meta.node_count} + 1);
  if (bind_error) return *bind_error;
  {
    const Section& bs = sec(SectionId::kNodeNameBlob);
    const std::uint32_t blob_len = r.name_offsets_.back();
    if (pad8(blob_len) != bs.size) {
      return at("index node-name blob size does not match the offset table",
                path, bs.offset);
    }
    r.name_blob_ = std::string_view(
        reinterpret_cast<const char*>(base + bs.offset), blob_len);
  }
  bind(r.err_time_, SectionId::kErrTime, meta.error_count);
  bind(r.err_last_, SectionId::kErrLast, meta.error_count);
  bind(r.err_gpu_, SectionId::kErrGpu, meta.error_count);
  bind(r.err_code_, SectionId::kErrCode, meta.error_count);
  bind(r.err_raw_xid_, SectionId::kErrRawXid, meta.error_count);
  bind(r.err_raw_lines_, SectionId::kErrRawLines, meta.error_count);
  bind(r.loc_.keys, SectionId::kLocKeys, key_count);
  bind(r.loc_.offsets, SectionId::kLocOffsets, key_count + 1);
  bind(r.loc_.time, SectionId::kLocTime, meta.loc_entry_count);
  bind(r.loc_.bit, SectionId::kLocBit, meta.loc_entry_count);
  bind(r.job_id_, SectionId::kJobId, meta.job_count);
  bind(r.job_start_, SectionId::kJobStart, meta.job_count);
  bind(r.job_end_, SectionId::kJobEnd, meta.job_count);
  bind(r.job_state_, SectionId::kJobState, meta.job_count);
  bind(r.job_gpu_offsets_, SectionId::kJobGpuOffsets, meta.job_count + 1);
  bind(r.job_gpu_list_, SectionId::kJobGpuList, meta.job_gpu_count);
  bind(r.unavail_node_, SectionId::kUnavailNode, meta.unavail_count);
  bind(r.unavail_begin_, SectionId::kUnavailBegin, meta.unavail_count);
  bind(r.unavail_end_, SectionId::kUnavailEnd, meta.unavail_count);
  bind(r.job_exposed_pos_, SectionId::kJobExposedPos, meta.exposed_count);
  bind(r.job_exposed_masks_, SectionId::kJobExposedMasks, meta.exposed_count);
  bind(r.job_failed_pos_, SectionId::kJobFailedPos, meta.failed_count);
  if (bind_error) return *bind_error;

  // ---- column invariants ----------------------------------------------------
  // Everything binary search or CSR indexing relies on is proven here, once,
  // so per-query code can trust the views unconditionally.  The messages are
  // literals: only a violation pays for building the located error.
  const auto violated = [&](const char* msg, SectionId id) {
    return at(std::string("index invariant violated: ") + msg, path,
              sec(id).offset);
  };
  const std::int64_t max_key =
      (static_cast<std::int64_t>(meta.node_count) << 8) - 1;
  const auto& loc = r.loc_;
  for (std::size_t i = 0; i + 1 < r.name_offsets_.size(); ++i) {
    if (r.name_offsets_[i] > r.name_offsets_[i + 1]) {
      return violated("node-name offsets must be nondecreasing",
                      SectionId::kNodeNameOffsets);
    }
  }
  for (std::size_t i = 0; i < r.err_time_.size(); ++i) {
    if (i > 0 && r.err_time_[i - 1] > r.err_time_[i]) {
      return violated("error times must be nondecreasing",
                      SectionId::kErrTime);
    }
    if (r.err_gpu_[i] < 0 || r.err_gpu_[i] > max_key) {
      return violated("error GPU key out of topology range",
                      SectionId::kErrGpu);
    }
  }
  for (std::size_t i = 0; i < loc.keys.size(); ++i) {
    if (i > 0 && loc.keys[i - 1] >= loc.keys[i]) {
      return violated("location keys must be strictly increasing",
                      SectionId::kLocKeys);
    }
    if (loc.keys[i] < 0 || loc.keys[i] > max_key) {
      return violated("location key out of topology range",
                      SectionId::kLocKeys);
    }
  }
  for (std::size_t i = 0; i < loc.offsets.size(); ++i) {
    const bool mono = i == 0 ? loc.offsets[0] == 0
                             : loc.offsets[i - 1] <= loc.offsets[i];
    if (!mono || loc.offsets[i] > meta.loc_entry_count) {
      return violated("location offsets must be nondecreasing and in range",
                      SectionId::kLocOffsets);
    }
  }
  if (loc.offsets.back() != meta.loc_entry_count) {
    return violated("location offsets must cover every entry",
                    SectionId::kLocOffsets);
  }
  for (std::size_t k = 0; k + 1 < loc.offsets.size(); ++k) {
    for (std::uint64_t i = loc.offsets[k] + 1; i < loc.offsets[k + 1]; ++i) {
      if (loc.time[i - 1] > loc.time[i]) {
        return violated("location entries must be time-sorted per key",
                        SectionId::kLocTime);
      }
    }
  }
  for (const std::uint32_t b : loc.bit) {
    if (b >= xid::report_order().size()) {
      return violated("location bit out of family range", SectionId::kLocBit);
    }
  }
  for (std::size_t i = 1; i < r.job_end_.size(); ++i) {
    if (r.job_end_[i - 1] > r.job_end_[i]) {
      return violated("job end times must be nondecreasing",
                      SectionId::kJobEnd);
    }
  }
  for (std::size_t i = 0; i < r.job_gpu_offsets_.size(); ++i) {
    const bool mono = i == 0 ? r.job_gpu_offsets_[0] == 0
                             : r.job_gpu_offsets_[i - 1] <=
                                   r.job_gpu_offsets_[i];
    if (!mono || r.job_gpu_offsets_[i] > meta.job_gpu_count) {
      return violated("job GPU offsets must be nondecreasing and in range",
                      SectionId::kJobGpuOffsets);
    }
  }
  if (!r.job_gpu_offsets_.empty() &&
      r.job_gpu_offsets_.back() != meta.job_gpu_count) {
    return violated("job GPU offsets must cover every allocation",
                    SectionId::kJobGpuOffsets);
  }
  for (const std::int32_t g : r.job_gpu_list_) {
    if (g < 0 || g > max_key) {
      return violated("job GPU key out of topology range",
                      SectionId::kJobGpuList);
    }
  }
  for (std::size_t i = 0; i < r.unavail_node_.size(); ++i) {
    if (r.unavail_node_[i] < 0 ||
        static_cast<std::uint32_t>(r.unavail_node_[i]) >= meta.node_count) {
      return violated("unavailability node out of topology range",
                      SectionId::kUnavailNode);
    }
    if (i > 0 && r.unavail_begin_[i - 1] > r.unavail_begin_[i]) {
      return violated("unavailability intervals must be begin-sorted",
                      SectionId::kUnavailBegin);
    }
  }
  // The attribution sections: the query fold trusts positions as job
  // indices and masks as Table II bits.
  const auto ascending_below_jobs = [&](std::span<const std::uint32_t> pos) {
    for (std::size_t i = 0; i < pos.size(); ++i) {
      if ((i > 0 && pos[i - 1] >= pos[i]) || pos[i] >= meta.job_count) {
        return false;
      }
    }
    return true;
  };
  if (!ascending_below_jobs(r.job_exposed_pos_)) {
    return violated(
        "exposed job positions must be strictly increasing and below the "
        "job count",
        SectionId::kJobExposedPos);
  }
  const std::uint32_t families = (1u << xid::report_order().size()) - 1;
  for (const std::uint32_t packed : r.job_exposed_masks_) {
    const std::uint32_t run = run_mask_of(packed);
    const std::uint32_t window = window_mask_of(packed);
    if ((run & ~families) != 0 || (window & ~families) != 0) {
      return violated("exposure masks must stay within the family range",
                      SectionId::kJobExposedMasks);
    }
    if (run == 0) {
      return violated("exposed job run masks must be nonzero",
                      SectionId::kJobExposedMasks);
    }
    if ((window & ~run) != 0) {
      return violated("exposure window mask must be a subset of the run mask",
                      SectionId::kJobExposedMasks);
    }
  }
  if (!ascending_below_jobs(r.job_failed_pos_)) {
    return violated(
        "failed job positions must be strictly increasing and below the job "
        "count",
        SectionId::kJobFailedPos);
  }
  return r;
}

std::string_view IndexReader::node_name(std::uint32_t idx) const {
  if (idx + 1 >= name_offsets_.size()) return {};
  return name_blob_.substr(name_offsets_[idx],
                           name_offsets_[idx + 1] - name_offsets_[idx]);
}

std::optional<std::int32_t> IndexReader::node_index(
    std::string_view name) const {
  for (std::uint32_t i = 0; i < meta_.node_count; ++i) {
    if (node_name(i) == name) return static_cast<std::int32_t>(i);
  }
  return std::nullopt;
}

std::span<const std::int32_t> IndexReader::job_gpus(std::size_t j) const {
  if (j + 1 >= job_gpu_offsets_.size()) return {};
  const std::uint64_t lo = job_gpu_offsets_[j];
  const std::uint64_t hi = job_gpu_offsets_[j + 1];
  return job_gpu_list_.subspan(lo, hi - lo);
}

}  // namespace gpures::index
