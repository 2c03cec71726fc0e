#include "index/writer.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>

#include "common/hash.h"
#include "common/io.h"
#include "slurm/job.h"
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

  IndexMeta meta;
  static_cast<IndexSettings&>(meta) = in;
  meta.node_count = static_cast<std::uint32_t>(topo.node_count());
  meta.error_count = errors.size();
  meta.loc_entry_count = loc.time.size();
  meta.job_count = jobs.jobs.size();
  meta.job_gpu_count = job_gpus;
  meta.unavail_count = unavail.size();
  meta.exposed_count = exposed_pos.size();
  meta.failed_count = failed_pos.size();

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
    for (const JobKey& key : job_order) {
      const auto& j = jobs.jobs[key.idx];
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
  sec(SectionId::kJobExposedPos).items(exposed_pos);
  sec(SectionId::kJobExposedMasks).items(exposed_masks);
  sec(SectionId::kJobFailedPos).items(failed_pos);

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
