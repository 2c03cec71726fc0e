#include "index/reader.h"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>

#include "common/hash.h"
#include "xid/xid.h"

namespace gpures::index {

namespace {

common::Error at(std::string msg, const std::string& path,
                 std::uint64_t offset) {
  return common::Error::at(std::move(msg), path, std::nullopt, offset);
}

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
  const auto h = common::load_record<IndexHeader>(base);
  const auto header_at = [&h](const auto& field) {
    return common::offset_of(h, field);
  };
  if (h.magic != kMagic) {
    return at("not a gpures index (bad magic)", path, header_at(h.magic));
  }
  if (h.endian_tag != kEndianTag) {
    return at("index endian tag mismatch (file written with incompatible "
              "byte order?)",
              path, header_at(h.endian_tag));
  }
  if (h.version != kFormatVersion) {
    return at("unsupported index format version " + std::to_string(h.version) +
                  " (this reader understands version " +
                  std::to_string(kFormatVersion) + ")",
              path, header_at(h.version));
  }
  if (common::header_hash_at<IndexHeader>(base) != h.header_hash) {
    return at("index header checksum mismatch", path,
              header_at(h.header_hash));
  }
  if (h.file_size != size) {
    return at("index file size mismatch: header says " +
                  std::to_string(h.file_size) + ", file has " +
                  std::to_string(size),
              path, header_at(h.file_size));
  }
  if (h.section_count != kSectionCount) {
    return at("unexpected section count " + std::to_string(h.section_count),
              path, header_at(h.section_count));
  }

  // ---- section table --------------------------------------------------------
  if (size < kSectionBase) {
    return at("index file truncated inside the section table", path,
              kSectionTableOffset);
  }
  if (common::xxhash64(base + kSectionTableOffset,
                       kSectionCount * kSectionEntrySize) != h.table_hash) {
    return at("index section-table checksum mismatch", path,
              header_at(h.table_hash));
  }
  std::array<SectionEntry, kSectionCount> secs;
  std::uint64_t expect_offset = kSectionBase;
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const std::uint64_t entry_off =
        kSectionTableOffset + i * kSectionEntrySize;
    const auto& e = secs[i] =
        common::load_record<SectionEntry>(base + entry_off);
    const std::string_view name = kSections[i].name;
    if (e.id != i + 1) {
      return at("index section entry " + std::to_string(i) + " carries id " +
                    std::to_string(e.id) + ", expected " +
                    std::to_string(i + 1),
                path, entry_off);
    }
    if (e.offset != expect_offset) {
      return at("index section '" + std::string(name) +
                    "' is not gapless: offset " + std::to_string(e.offset) +
                    ", expected " + std::to_string(expect_offset),
                path, entry_off);
    }
    if (e.size % 8 != 0 || e.size > size - e.offset) {
      return at("index section '" + std::string(name) +
                    "' extends past the end of the file",
                path, entry_off);
    }
    expect_offset += e.size;
  }
  if (expect_offset != size) {
    return at("index has " + std::to_string(size - expect_offset) +
                  " trailing bytes after the last section",
              path, expect_offset);
  }
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    if (common::xxhash64(base + secs[i].offset, secs[i].size) !=
        secs[i].hash) {
      return at("index section '" + std::string(kSections[i].name) +
                    "' checksum mismatch",
                path, secs[i].offset);
    }
  }
  const auto sec = [&](SectionId id) -> const SectionEntry& {
    return secs[static_cast<std::size_t>(id) - 1];
  };

  // ---- meta -----------------------------------------------------------------
  const SectionEntry& ms = sec(kMeta);
  if (ms.size != section_spec(kMeta).size({})) {
    return at("index meta section has unexpected size " +
                  std::to_string(ms.size),
              path, ms.offset);
  }
  const IndexMeta& meta = r.meta_ =
      common::load_record<IndexMeta>(base + ms.offset);
  const auto meta_at = [&](const auto& field) {
    return ms.offset + common::offset_of(meta, field);
  };
  if (meta.attribution != analysis::Attribution::kGpuLevel &&
      meta.attribution != analysis::Attribution::kNodeLevel) {
    return at("index meta: attribution must be 0 (device) or 1 (node), got " +
                  std::to_string(common::wire(meta.attribution)),
              path, meta_at(meta.attribution));
  }
  if (meta.exposed_count > meta.job_count) {
    return at("index meta: exposed job count exceeds the job count", path,
              meta_at(meta.exposed_count));
  }
  if (meta.failed_count > meta.job_count) {
    return at("index meta: failed job count exceeds the job count", path,
              meta_at(meta.failed_count));
  }

  // ---- typed columns --------------------------------------------------------
  // Each section's padded size must match the element count kSections gives
  // it exactly; the accessors then view its elements in place (each a
  // little-endian fixed-width type the format defines, alignment <= 8 like
  // the section offsets).  The key count is implied by the key section's own
  // size (i64 elements pack the 8-byte granule exactly, so size / 8 is the
  // element count), and the name-blob length by the name offsets.
  SectionCounts counts{meta, 0, sec(kLocKeys).size / 8};
  for (std::size_t i = 1; i < kSectionCount; ++i) {
    const SectionSpec& spec = kSections[i];
    const SectionEntry& s = secs[i];
    if (spec.id == kNodeNameBlob) {
      counts.name_bytes = r.column<kNodeNameOffsets, std::uint32_t>().back();
    }
    const std::uint64_t count = spec.count(counts);
    if (count > s.size / spec.width || pad8(count * spec.width) != s.size) {
      return at(spec.id == kNodeNameBlob
                    ? "index node-name blob size does not match the offset "
                      "table"
                    : "index section '" + std::string(spec.name) +
                          "' size does not match its element count",
                path, s.offset);
    }
    r.columns_[i] = {base + s.offset, count * spec.width};
  }
  r.loc_ = {r.column<kLocKeys, std::int64_t>(),
            r.column<kLocOffsets, std::uint64_t>(),
            r.column<kLocTime, std::int64_t>(),
            r.column<kLocBit, std::uint32_t>()};

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
  const auto off_topology = [max_key](std::int64_t key) {
    return key < 0 || key > max_key;
  };
  const auto& loc = r.loc_;
  const auto err_time = r.err_time();
  const auto err_gpu = r.err_gpu();
  const auto job_gpu_offsets = r.job_gpu_offsets();
  const auto unavail_node = r.unavail_node();
  const auto unavail_begin = r.unavail_begin();
  if (!std::ranges::is_sorted(r.column<kNodeNameOffsets, std::uint32_t>())) {
    return violated("node-name offsets must be nondecreasing",
                    kNodeNameOffsets);
  }
  for (std::size_t i = 0; i < err_time.size(); ++i) {
    if (i > 0 && err_time[i - 1] > err_time[i]) {
      return violated("error times must be nondecreasing", kErrTime);
    }
    if (off_topology(err_gpu[i])) {
      return violated("error GPU key out of topology range", kErrGpu);
    }
  }
  for (std::size_t i = 0; i < loc.keys.size(); ++i) {
    if (i > 0 && loc.keys[i - 1] >= loc.keys[i]) {
      return violated("location keys must be strictly increasing",
                      kLocKeys);
    }
    if (off_topology(loc.keys[i])) {
      return violated("location key out of topology range", kLocKeys);
    }
  }
  for (std::size_t i = 0; i < loc.offsets.size(); ++i) {
    const bool mono = i == 0 ? loc.offsets[0] == 0
                             : loc.offsets[i - 1] <= loc.offsets[i];
    if (!mono || loc.offsets[i] > meta.loc_entry_count) {
      return violated("location offsets must be nondecreasing and in range",
                      kLocOffsets);
    }
  }
  if (loc.offsets.back() != meta.loc_entry_count) {
    return violated("location offsets must cover every entry", kLocOffsets);
  }
  for (std::size_t k = 0; k + 1 < loc.offsets.size(); ++k) {
    for (std::uint64_t i = loc.offsets[k] + 1; i < loc.offsets[k + 1]; ++i) {
      if (loc.time[i - 1] > loc.time[i]) {
        return violated("location entries must be time-sorted per key",
                        kLocTime);
      }
    }
  }
  if (std::ranges::any_of(loc.bit, [](std::uint32_t b) {
        return b >= xid::report_order().size();
      })) {
    return violated("location bit out of family range", kLocBit);
  }
  if (!std::ranges::is_sorted(r.job_end())) {
    return violated("job end times must be nondecreasing", kJobEnd);
  }
  for (std::size_t i = 0; i < job_gpu_offsets.size(); ++i) {
    const bool mono = i == 0 ? job_gpu_offsets[0] == 0
                             : job_gpu_offsets[i - 1] <= job_gpu_offsets[i];
    if (!mono || job_gpu_offsets[i] > meta.job_gpu_count) {
      return violated("job GPU offsets must be nondecreasing and in range",
                      kJobGpuOffsets);
    }
  }
  if (!job_gpu_offsets.empty() &&
      job_gpu_offsets.back() != meta.job_gpu_count) {
    return violated("job GPU offsets must cover every allocation",
                    kJobGpuOffsets);
  }
  if (std::ranges::any_of(r.job_gpu_list(), off_topology)) {
    return violated("job GPU key out of topology range", kJobGpuList);
  }
  for (std::size_t i = 0; i < unavail_node.size(); ++i) {
    if (unavail_node[i] < 0 ||
        static_cast<std::uint32_t>(unavail_node[i]) >= meta.node_count) {
      return violated("unavailability node out of topology range",
                      kUnavailNode);
    }
    if (i > 0 && unavail_begin[i - 1] > unavail_begin[i]) {
      return violated("unavailability intervals must be begin-sorted",
                      kUnavailBegin);
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
  if (!ascending_below_jobs(r.job_exposed_pos())) {
    return violated(
        "exposed job positions must be strictly increasing and below the "
        "job count",
        kJobExposedPos);
  }
  const std::uint32_t families = (1u << xid::report_order().size()) - 1;
  for (const std::uint32_t packed : r.job_exposed_masks()) {
    const std::uint32_t run = analysis::run_mask_of(packed);
    const std::uint32_t window = analysis::window_mask_of(packed);
    if ((run & ~families) != 0 || (window & ~families) != 0) {
      return violated("exposure masks must stay within the family range",
                      kJobExposedMasks);
    }
    if (run == 0) {
      return violated("exposed job run masks must be nonzero",
                      kJobExposedMasks);
    }
    if ((window & ~run) != 0) {
      return violated("exposure window mask must be a subset of the run mask",
                      kJobExposedMasks);
    }
  }
  if (!ascending_below_jobs(r.job_failed_pos())) {
    return violated(
        "failed job positions must be strictly increasing and below the job "
        "count",
        kJobFailedPos);
  }
  return r;
}

std::string_view IndexReader::node_name(std::uint32_t idx) const {
  const auto offs = column<kNodeNameOffsets, std::uint32_t>();
  const auto blob = column<kNodeNameBlob, char>();
  if (idx + 1 >= offs.size()) return {};
  return {blob.data() + offs[idx], offs[idx + 1] - offs[idx]};
}

std::optional<std::int32_t> IndexReader::node_index(
    std::string_view name) const {
  for (std::uint32_t i = 0; i < meta_.node_count; ++i) {
    if (node_name(i) == name) return static_cast<std::int32_t>(i);
  }
  return std::nullopt;
}

std::span<const std::int32_t> IndexReader::job_gpus(std::size_t j) const {
  const auto offs = job_gpu_offsets();
  if (j + 1 >= offs.size()) return {};
  return job_gpu_list().subspan(offs[j], offs[j + 1] - offs[j]);
}

}  // namespace gpures::index
