#include "index/writer.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>

#include "common/hash.h"
#include "common/io.h"
#include "index/format.h"
#include "xid/event.h"

namespace gpures::index {

namespace {

namespace an = gpures::analysis;

void append_u8(std::string& s, std::uint8_t v) {
  s.push_back(static_cast<char>(v));
}
void append_le16(std::string& s, std::uint16_t v) {
  unsigned char b[2];
  store_le16(b, v);
  s.append(reinterpret_cast<const char*>(b), 2);
}
void append_le32(std::string& s, std::uint32_t v) {
  unsigned char b[4];
  store_le32(b, v);
  s.append(reinterpret_cast<const char*>(b), 4);
}
void append_le64(std::string& s, std::uint64_t v) {
  unsigned char b[8];
  store_le64(b, v);
  s.append(reinterpret_cast<const char*>(b), 8);
}
void append_i64(std::string& s, std::int64_t v) {
  append_le64(s, static_cast<std::uint64_t>(v));
}
void append_i32(std::string& s, std::int32_t v) {
  append_le32(s, static_cast<std::uint32_t>(v));
}
void append_f64(std::string& s, double v) {
  unsigned char b[8];
  store_f64(b, v);
  s.append(reinterpret_cast<const char*>(b), 8);
}

}  // namespace

common::Result<std::string> serialize_index(const IndexBuildInput& in) {
  if (in.topo == nullptr || in.errors == nullptr || in.jobs == nullptr ||
      in.unavailability == nullptr) {
    return common::Error::make(
        "index writer: topology, errors, jobs, and unavailability inputs are "
        "all required");
  }
  const auto& topo = *in.topo;
  const auto& errors = *in.errors;
  const auto& jobs = *in.jobs;

  // ---- sort orders (total-order keys: deterministic for any input order) --
  std::vector<std::size_t> err_order(errors.size());
  std::iota(err_order.begin(), err_order.end(), std::size_t{0});
  std::sort(err_order.begin(), err_order.end(),
            [&](std::size_t a, std::size_t b) {
              const auto& x = errors[a];
              const auto& y = errors[b];
              if (x.time != y.time) return x.time < y.time;
              if (x.gpu != y.gpu) return x.gpu < y.gpu;
              if (x.code != y.code) return x.code < y.code;
              if (x.raw_xid != y.raw_xid) return x.raw_xid < y.raw_xid;
              if (x.last != y.last) return x.last < y.last;
              return x.raw_lines < y.raw_lines;
            });

  // The exposure-join location index, serialized verbatim.  No period
  // filter: queries clamp to their own window, so one artifact serves any.
  const auto loc = an::build_error_index(
      errors, {std::numeric_limits<common::TimePoint>::min(),
               std::numeric_limits<common::TimePoint>::max()});

  std::vector<std::size_t> job_order(jobs.jobs.size());
  std::iota(job_order.begin(), job_order.end(), std::size_t{0});
  std::sort(job_order.begin(), job_order.end(),
            [&](std::size_t a, std::size_t b) {
              const auto& x = jobs.jobs[a];
              const auto& y = jobs.jobs[b];
              if (x.end != y.end) return x.end < y.end;
              if (x.start != y.start) return x.start < y.start;
              return x.id < y.id;
            });

  struct Interval {
    std::int32_t node;
    common::TimePoint begin;
    common::TimePoint end;
  };
  std::vector<Interval> unavail;
  unavail.reserve(in.unavailability->size());
  for (const auto& u : *in.unavailability) {
    const auto node = topo.node_index(u.host);
    if (node.has_value()) unavail.push_back({*node, u.begin, u.end});
  }
  std::sort(unavail.begin(), unavail.end(),
            [](const Interval& a, const Interval& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.node != b.node) return a.node < b.node;
              return a.end < b.end;
            });

  std::uint64_t job_gpus = 0;
  for (const auto& j : jobs.jobs) {
    job_gpus += jobs.gpus_of(j).size();
  }

  // ---- section payloads, in id order ---------------------------------------
  std::vector<std::string> sections(kSectionCount);
  const auto sec = [&](SectionId id) -> std::string& {
    return sections[static_cast<std::size_t>(id) - 1];
  };

  {
    std::string& s = sec(SectionId::kMeta);
    s.reserve(kMetaSize);
    append_i64(s, in.periods.pre.begin);
    append_i64(s, in.periods.pre.end);
    append_i64(s, in.periods.op.begin);
    append_i64(s, in.periods.op.end);
    append_i64(s, in.attribution_window);
    append_f64(s, in.max_interval_h);
    append_le32(s, static_cast<std::uint32_t>(topo.node_count()));
    append_le32(s, in.attribution == an::Attribution::kGpuLevel ? 0u : 1u);
    append_le64(s, errors.size());
    append_le64(s, loc.time.size());
    append_le64(s, jobs.jobs.size());
    append_le64(s, job_gpus);
    append_le64(s, unavail.size());
    append_f64(s, in.outlier_share);
    append_le64(s, in.outlier_min);
    append_le32(s, in.exclude_outliers_from_totals ? 1u : 0u);
    append_le32(s, 0);
  }
  {
    std::string& offs = sec(SectionId::kNodeNameOffsets);
    std::string& blob = sec(SectionId::kNodeNameBlob);
    append_le32(offs, 0);
    for (std::int32_t n = 0; n < topo.node_count(); ++n) {
      blob += topo.node(n).name;
      append_le32(offs, static_cast<std::uint32_t>(blob.size()));
    }
  }
  for (const std::size_t i : err_order) {
    const auto& e = errors[i];
    append_i64(sec(SectionId::kErrTime), e.time);
    append_i64(sec(SectionId::kErrLast), e.last);
    append_i32(sec(SectionId::kErrGpu), an::pack_gpu(e.gpu.node, e.gpu.slot));
    append_le16(sec(SectionId::kErrCode), xid::to_number(e.code));
    append_le16(sec(SectionId::kErrRawXid), e.raw_xid);
    append_le32(sec(SectionId::kErrRawLines), e.raw_lines);
  }
  for (const std::int64_t key : loc.keys) {
    append_i64(sec(SectionId::kLocKeys), key);
  }
  for (const std::uint64_t off : loc.offsets) {
    append_le64(sec(SectionId::kLocOffsets), off);
  }
  for (const std::int64_t t : loc.time) append_i64(sec(SectionId::kLocTime), t);
  for (const std::uint32_t b : loc.bit) append_le32(sec(SectionId::kLocBit), b);
  {
    std::string& goffs = sec(SectionId::kJobGpuOffsets);
    std::uint64_t gcount = 0;
    append_le64(goffs, 0);
    for (const std::size_t i : job_order) {
      const auto& j = jobs.jobs[i];
      append_le64(sec(SectionId::kJobId), j.id);
      append_i64(sec(SectionId::kJobStart), j.start);
      append_i64(sec(SectionId::kJobEnd), j.end);
      append_u8(sec(SectionId::kJobState), static_cast<std::uint8_t>(j.state));
      for (const an::PackedGpu g : jobs.gpus_of(j)) {
        append_i32(sec(SectionId::kJobGpuList), g);
        ++gcount;
      }
      append_le64(goffs, gcount);
    }
  }
  for (const auto& u : unavail) {
    append_i32(sec(SectionId::kUnavailNode), u.node);
    append_i64(sec(SectionId::kUnavailBegin), u.begin);
    append_i64(sec(SectionId::kUnavailEnd), u.end);
  }

  // ---- assemble: header + table + gapless padded sections ------------------
  for (auto& s : sections) {
    s.resize(pad8(s.size()), '\0');
  }
  std::uint64_t file_size = kSectionBase;
  for (const auto& s : sections) file_size += s.size();

  std::string table;
  table.reserve(kSectionCount * kSectionEntrySize);
  std::uint64_t offset = kSectionBase;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    append_le32(table, static_cast<std::uint32_t>(i + 1));
    append_le32(table, 0);
    append_le64(table, offset);
    append_le64(table, sections[i].size());
    append_le64(table, common::xxhash64(sections[i]));
    offset += sections[i].size();
  }

  std::string out;
  out.reserve(file_size);
  out.append(kMagic, sizeof(kMagic));
  append_le32(out, kFormatVersion);
  append_le32(out, kEndianTag);
  append_le64(out, file_size);
  append_le32(out, kSectionCount);
  append_le32(out, 0);
  append_le64(out, common::xxhash64(table));
  append_le64(out, common::xxhash64(std::string_view(out).substr(
                       0, kHeaderHashedBytes)));
  out += table;
  for (const auto& s : sections) out += s;
  return out;
}

common::Result<IndexWriteStats> write_index(const IndexBuildInput& in,
                                            const std::string& path) {
  auto bytes = serialize_index(in);
  if (!bytes.ok()) return bytes.error();

  const auto written = common::write_file_atomic(path, bytes.value());
  if (!written.ok()) {
    return common::Error::at("cannot write index: " + written.error().message,
                             path, std::nullopt);
  }

  IndexWriteStats stats;
  stats.bytes = bytes.value().size();
  const auto* meta = reinterpret_cast<const unsigned char*>(
                         bytes.value().data()) + kSectionBase;
  stats.errors = load_le64(meta + kMetaErrorCount);
  stats.loc_entries = load_le64(meta + kMetaLocEntryCount);
  stats.jobs = load_le64(meta + kMetaJobCount);
  stats.job_gpus = load_le64(meta + kMetaJobGpuCount);
  stats.unavailability = load_le64(meta + kMetaUnavailCount);
  // Every interval the writer did not store named an unknown host.
  stats.dropped_unknown_hosts =
      in.unavailability->size() - stats.unavailability;
  return stats;
}

}  // namespace gpures::index
