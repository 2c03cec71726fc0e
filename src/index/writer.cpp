#include "index/writer.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string_view>

#include "common/hash.h"
#include "common/io.h"
#include "index/format.h"
#include "slurm/job.h"
#include "xid/event.h"

namespace gpures::index {

namespace {

namespace an = gpures::analysis;

/// Sequential little-endian writes into a section of the output buffer.
struct Cursor {
  unsigned char* p;

  void u8(std::uint8_t v) { *p++ = v; }
  void le16(std::uint16_t v) {
    store_le16(p, v);
    p += 2;
  }
  void le32(std::uint32_t v) {
    store_le32(p, v);
    p += 4;
  }
  void le64(std::uint64_t v) {
    store_le64(p, v);
    p += 8;
  }
  void i32(std::int32_t v) { le32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { le64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    store_f64(p, v);
    p += 8;
  }
  void bytes(std::string_view v) {
    std::memcpy(p, v.data(), v.size());
    p += v.size();
  }
};

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

  // Jobs in (end, start, id) order, sorted as a compact key array; the
  // table index breaks any remaining tie, so the order is total.
  struct JobKey {
    common::TimePoint end;
    common::TimePoint start;
    std::uint64_t id;
    std::size_t idx;
  };
  std::vector<JobKey> job_order;
  job_order.reserve(jobs.jobs.size());
  for (std::size_t i = 0; i < jobs.jobs.size(); ++i) {
    const auto& j = jobs.jobs[i];
    job_order.push_back({j.end, j.start, j.id, i});
  }
  std::sort(job_order.begin(), job_order.end(),
            [](const JobKey& a, const JobKey& b) {
              if (a.end != b.end) return a.end < b.end;
              if (a.start != b.start) return a.start < b.start;
              if (a.id != b.id) return a.id < b.id;
              return a.idx < b.idx;
            });
  if (job_order.size() > std::numeric_limits<std::uint32_t>::max()) {
    return common::Error::make(
        "index writer: job positions are u32; too many jobs (" +
        std::to_string(job_order.size()) + ")");
  }

  // Write-time attribution: the one expose, in job-end order, at the
  // recorded window and attribution over an unbounded period.  A query
  // window [from, to) selects jobs ending inside it, so its upper clamp
  // never bites, and its lower clamp only for jobs with start + 1 < from;
  // every other job's masks are these.
  an::JobImpactConfig attribution;
  attribution.window = in.attribution_window;
  attribution.period = {std::numeric_limits<common::TimePoint>::min(),
                        std::numeric_limits<common::TimePoint>::max()};
  attribution.attribution = in.attribution;
  std::vector<std::uint32_t> exposed_pos;
  std::vector<std::uint32_t> exposed_masks;
  std::vector<std::uint32_t> failed_pos;
  std::uint64_t job_gpus = 0;
  {
    // Each location's indexed error times, ascending: a loc group at device
    // level; at node level a node's groups are adjacent, and their entries,
    // sorted, are the node's.  Jobs come in end order, so a cursor per
    // location sweeps forward to the first error after the current job's
    // end; the job saw an error there iff the one before it is after its
    // start.  A job that saw none has run mask 0 and skips expose, and that
    // is most jobs.
    const bool by_node = in.attribution == an::Attribution::kNodeLevel;
    const auto location = [by_node](std::int64_t key) {
      return by_node ? key >> 8 : key;
    };
    std::vector<std::int64_t> times(loc.time.begin(), loc.time.end());
    struct Sweep {
      std::uint64_t begin = 0;
      std::uint64_t next = 0;  ///< first entry after the current job's end
      std::uint64_t end = 0;
    };
    std::vector<Sweep> sweep(
        loc.keys.empty() || loc.keys.back() < 0
            ? 0
            : static_cast<std::size_t>(location(loc.keys.back())) + 1);
    for (std::size_t k = 0; k < loc.keys.size(); ++k) {
      if (loc.keys[k] < 0) continue;
      Sweep& w = sweep[static_cast<std::size_t>(location(loc.keys[k]))];
      if (w.begin == w.end) w.begin = w.next = loc.offsets[k];
      w.end = loc.offsets[k + 1];
    }
    if (by_node) {
      for (const Sweep& w : sweep) {
        std::sort(times.begin() + static_cast<std::ptrdiff_t>(w.begin),
                  times.begin() + static_cast<std::ptrdiff_t>(w.end));
      }
    }
    const auto sees_errors = [&](const an::JobView& j,
                                 std::span<const an::PackedGpu> gpus) {
      bool seen = false;
      for (const an::PackedGpu g : gpus) {
        const std::int64_t l = location(g);
        if (l < 0 || static_cast<std::uint64_t>(l) >= sweep.size()) continue;
        Sweep& w = sweep[static_cast<std::size_t>(l)];
        while (w.next < w.end && times[w.next] <= j.end) ++w.next;
        seen |= w.next > w.begin && times[w.next - 1] > j.start;
      }
      return seen;
    };
    std::vector<std::int32_t> node_scratch;
    for (std::size_t pos = 0; pos < job_order.size(); ++pos) {
      const auto& j = jobs.jobs[job_order[pos].idx];
      const auto gpus = jobs.gpus_of(j);
      job_gpus += gpus.size();
      const auto m = sees_errors(j, gpus)
                         ? an::expose(loc.view(), j.start, j.end, gpus,
                                      attribution, node_scratch)
                         : an::ExposureMasks{};
      if (m.run_mask != 0) {
        exposed_pos.push_back(static_cast<std::uint32_t>(pos));
        exposed_masks.push_back(pack_masks(m.run_mask, m.window_mask));
      }
      if (slurm::is_failure(j.state)) {
        failed_pos.push_back(static_cast<std::uint32_t>(pos));
      }
    }
  }

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

  // ---- layout: every section's exact size, padded, gapless ---------------
  std::array<std::uint64_t, kSectionCount> offset{};
  std::array<std::uint64_t, kSectionCount> padded{};
  std::uint64_t file_size = kSectionBase;
  {
    const std::uint64_t e = errors.size();
    const std::uint64_t k = loc.keys.size();
    const std::uint64_t l = loc.time.size();
    const std::uint64_t j = job_order.size();
    const std::uint64_t u = unavail.size();
    const std::uint64_t x = exposed_pos.size();
    std::uint64_t blob = 0;
    for (std::int32_t n = 0; n < topo.node_count(); ++n) {
      blob += topo.node(n).name.size();
    }
    const std::uint64_t bytes[kSectionCount] = {
        kMetaSize,                                                // meta
        4 * (static_cast<std::uint64_t>(topo.node_count()) + 1),  // names
        blob,
        8 * e, 8 * e, 4 * e, 2 * e, 2 * e, 4 * e,  // errors
        8 * k, 8 * (k + 1), 8 * l, 4 * l,          // location index
        8 * j, 8 * j, 8 * j, j, 8 * (j + 1), 4 * job_gpus,  // jobs
        4 * u, 8 * u, 8 * u,                                // unavailability
        4 * x, 4 * x, 4 * failed_pos.size(),                // attribution
    };
    for (std::size_t i = 0; i < kSectionCount; ++i) {
      offset[i] = file_size;
      padded[i] = pad8(bytes[i]);
      file_size += padded[i];
    }
  }
  // Zero-filled, so the padding is zero; columns are written in place.
  std::string out(file_size, '\0');
  auto* const base = reinterpret_cast<unsigned char*>(out.data());
  const auto sec = [&](SectionId id) {
    return Cursor{base + offset[static_cast<std::size_t>(id) - 1]};
  };

  // ---- section payloads ----------------------------------------------------
  {
    Cursor m = sec(SectionId::kMeta);
    m.i64(in.periods.pre.begin);
    m.i64(in.periods.pre.end);
    m.i64(in.periods.op.begin);
    m.i64(in.periods.op.end);
    m.i64(in.attribution_window);
    m.f64(in.max_interval_h);
    m.le32(static_cast<std::uint32_t>(topo.node_count()));
    m.le32(in.attribution == an::Attribution::kGpuLevel ? 0u : 1u);
    m.le64(errors.size());
    m.le64(loc.time.size());
    m.le64(jobs.jobs.size());
    m.le64(job_gpus);
    m.le64(unavail.size());
    m.f64(in.outlier_share);
    m.le64(in.outlier_min);
    m.le32(in.exclude_outliers_from_totals ? 1u : 0u);
    m.le32(0);
    m.le64(exposed_pos.size());
    m.le64(failed_pos.size());
  }
  {
    Cursor offs = sec(SectionId::kNodeNameOffsets);
    Cursor blob = sec(SectionId::kNodeNameBlob);
    std::uint32_t len = 0;
    offs.le32(0);
    for (std::int32_t n = 0; n < topo.node_count(); ++n) {
      blob.bytes(topo.node(n).name);
      len += static_cast<std::uint32_t>(topo.node(n).name.size());
      offs.le32(len);
    }
  }
  {
    Cursor time = sec(SectionId::kErrTime);
    Cursor last = sec(SectionId::kErrLast);
    Cursor gpu = sec(SectionId::kErrGpu);
    Cursor code = sec(SectionId::kErrCode);
    Cursor raw_xid = sec(SectionId::kErrRawXid);
    Cursor raw_lines = sec(SectionId::kErrRawLines);
    for (const std::size_t i : err_order) {
      const auto& e = errors[i];
      time.i64(e.time);
      last.i64(e.last);
      gpu.i32(an::pack_gpu(e.gpu.node, e.gpu.slot));
      code.le16(xid::to_number(e.code));
      raw_xid.le16(e.raw_xid);
      raw_lines.le32(e.raw_lines);
    }
  }
  {
    Cursor keys = sec(SectionId::kLocKeys);
    Cursor offs = sec(SectionId::kLocOffsets);
    Cursor time = sec(SectionId::kLocTime);
    Cursor bit = sec(SectionId::kLocBit);
    for (const std::int64_t key : loc.keys) keys.i64(key);
    for (const std::uint64_t off : loc.offsets) offs.le64(off);
    for (const std::int64_t t : loc.time) time.i64(t);
    for (const std::uint32_t b : loc.bit) bit.le32(b);
  }
  {
    Cursor id = sec(SectionId::kJobId);
    Cursor start = sec(SectionId::kJobStart);
    Cursor end = sec(SectionId::kJobEnd);
    Cursor state = sec(SectionId::kJobState);
    Cursor goffs = sec(SectionId::kJobGpuOffsets);
    Cursor glist = sec(SectionId::kJobGpuList);
    std::uint64_t gcount = 0;
    goffs.le64(0);
    for (const JobKey& key : job_order) {
      const auto& j = jobs.jobs[key.idx];
      id.le64(j.id);
      start.i64(j.start);
      end.i64(j.end);
      state.u8(static_cast<std::uint8_t>(j.state));
      const auto gpus = jobs.gpus_of(j);
      for (const an::PackedGpu g : gpus) glist.i32(g);
      gcount += gpus.size();
      goffs.le64(gcount);
    }
  }
  {
    Cursor node = sec(SectionId::kUnavailNode);
    Cursor begin = sec(SectionId::kUnavailBegin);
    Cursor end = sec(SectionId::kUnavailEnd);
    for (const auto& u : unavail) {
      node.i32(u.node);
      begin.i64(u.begin);
      end.i64(u.end);
    }
  }
  {
    Cursor xpos = sec(SectionId::kJobExposedPos);
    Cursor xmask = sec(SectionId::kJobExposedMasks);
    Cursor fpos = sec(SectionId::kJobFailedPos);
    for (const std::uint32_t pos : exposed_pos) xpos.le32(pos);
    for (const std::uint32_t m : exposed_masks) xmask.le32(m);
    for (const std::uint32_t pos : failed_pos) fpos.le32(pos);
  }

  // ---- section table, then the header that hashes it -----------------------
  Cursor table{base + kSectionTableOffset};
  for (std::size_t i = 0; i < kSectionCount; ++i) {
    table.le32(static_cast<std::uint32_t>(i + 1));
    table.le32(0);
    table.le64(offset[i]);
    table.le64(padded[i]);
    table.le64(common::xxhash64(base + offset[i], padded[i]));
  }
  Cursor header{base};
  header.bytes(std::string_view(kMagic, sizeof(kMagic)));
  header.le32(kFormatVersion);
  header.le32(kEndianTag);
  header.le64(file_size);
  header.le32(kSectionCount);
  header.le32(0);
  header.le64(common::xxhash64(base + kSectionTableOffset,
                               kSectionCount * kSectionEntrySize));
  header.le64(common::xxhash64(base, kHeaderHashedBytes));
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
