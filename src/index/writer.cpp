#include "index/writer.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <optional>

#include "common/hash.h"
#include "common/io.h"
#include "xid/event.h"

namespace gpures::index {

namespace an = gpures::analysis;

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

  if (jobs.jobs.size() > std::numeric_limits<std::uint32_t>::max()) {
    return common::Error::make(
        "index writer: job positions are u32; too many jobs (" +
        std::to_string(jobs.jobs.size()) + ")");
  }
  // The run's error index and exposure pass, or the writer's own.
  std::optional<an::ErrorIndex> own_loc;
  std::optional<an::ExposurePass> own_pass;
  const auto& loc =
      in.loc != nullptr ? *in.loc : own_loc.emplace(an::build_error_index(errors));
  const auto& pass = in.pass != nullptr
                         ? *in.pass
                         : own_pass.emplace(an::mask_jobs(
                               jobs, loc.view(), in.attribution_window,
                               in.attribution));

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

  IndexMeta meta;
  static_cast<IndexSettings&>(meta) = in;
  meta.node_count = static_cast<std::uint32_t>(topo.node_count());
  meta.error_count = errors.size();
  meta.loc_entry_count = loc.time.size();
  meta.job_count = jobs.jobs.size();
  for (const auto& j : jobs.jobs) meta.job_gpu_count += jobs.gpus_of(j).size();
  meta.unavail_count = unavail.size();
  meta.exposed_count = pass.exposed_pos.size();
  meta.failed_count = pass.failed_pos.size();

  // ---- layout: every section's exact size, padded, gapless ---------------
  SectionCounts counts{meta, 0, loc.keys.size()};
  for (std::int32_t n = 0; n < topo.node_count(); ++n) {
    counts.name_bytes += topo.node(n).name.size();
  }
  std::array<SectionEntry, kSectionCount> table;
  std::uint64_t file_size = kSectionBase;
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    table[i].id = static_cast<std::uint32_t>(i + 1);
    table[i].offset = file_size;
    table[i].size = kSections[i].size(counts);
    file_size += table[i].size;
  }
  // Zero-filled, so the padding is zero; columns are written in place.
  std::string out(file_size, '\0');
  auto* const base = reinterpret_cast<unsigned char*>(out.data());
  using Column = common::Writer<>;
  const auto sec = [&](SectionId id) {
    return Column(base + table[static_cast<std::size_t>(id) - 1].offset);
  };

  // ---- section payloads ----------------------------------------------------
  sec(SectionId::kMeta)(meta);
  {
    Column offs = sec(SectionId::kNodeNameOffsets);
    Column blob = sec(SectionId::kNodeNameBlob);
    std::uint32_t len = 0;
    offs(len);
    for (std::int32_t n = 0; n < topo.node_count(); ++n) {
      blob.bytes(topo.node(n).name);
      len += static_cast<std::uint32_t>(topo.node(n).name.size());
      offs(len);
    }
  }
  {
    Column time = sec(SectionId::kErrTime);
    Column last = sec(SectionId::kErrLast);
    Column gpu = sec(SectionId::kErrGpu);
    Column code = sec(SectionId::kErrCode);
    Column raw_xid = sec(SectionId::kErrRawXid);
    Column raw_lines = sec(SectionId::kErrRawLines);
    for (const std::size_t i : err_order) {
      const auto& e = errors[i];
      time(e.time);
      last(e.last);
      gpu(an::pack_gpu(e.gpu.node, e.gpu.slot));
      code(xid::to_number(e.code));
      raw_xid(e.raw_xid);
      raw_lines(e.raw_lines);
    }
  }
  sec(SectionId::kLocKeys).items(loc.keys);
  sec(SectionId::kLocOffsets).items(loc.offsets);
  sec(SectionId::kLocTime).items(loc.time);
  sec(SectionId::kLocBit).items(loc.bit);
  {
    Column id = sec(SectionId::kJobId);
    Column start = sec(SectionId::kJobStart);
    Column end = sec(SectionId::kJobEnd);
    Column state = sec(SectionId::kJobState);
    Column goffs = sec(SectionId::kJobGpuOffsets);
    Column glist = sec(SectionId::kJobGpuList);
    std::uint64_t gcount = 0;
    goffs(gcount);
    for (const std::uint32_t idx : pass.order) {
      const auto& j = jobs.jobs[idx];
      id(j.id);
      start(j.start);
      end(j.end);
      state(j.state);
      const auto gpus = jobs.gpus_of(j);
      for (const an::PackedGpu g : gpus) glist(g);
      gcount += gpus.size();
      goffs(gcount);
    }
  }
  {
    Column node = sec(SectionId::kUnavailNode);
    Column begin = sec(SectionId::kUnavailBegin);
    Column end = sec(SectionId::kUnavailEnd);
    for (const auto& u : unavail) {
      node(u.node);
      begin(u.begin);
      end(u.end);
    }
  }
  sec(SectionId::kJobExposedPos).items(pass.exposed_pos);
  sec(SectionId::kJobExposedMasks).items(pass.exposed_masks);
  sec(SectionId::kJobFailedPos).items(pass.failed_pos);

  // ---- section table, then the header that hashes it -----------------------
  for (auto& entry : table) {
    entry.hash = common::xxhash64(base + entry.offset, entry.size);
  }
  Column(base + kSectionTableOffset).items(table);
  IndexHeader header;
  header.file_size = file_size;
  header.table_hash = common::xxhash64(base + kSectionTableOffset,
                                       kSectionCount * kSectionEntrySize);
  common::store_sealed(base, header);
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
  stats.meta =
      common::load_record<IndexMeta>(bytes.value().data() + kSectionBase);
  // Every interval the writer did not store named an unknown host.
  stats.dropped_unknown_hosts =
      in.unavailability->size() - stats.meta.unavail_count;
  return stats;
}

}  // namespace gpures::index
