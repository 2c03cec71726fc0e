#include "serve/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/io.h"
#include "index/format.h"
#include "xid/xid.h"

namespace gpures::serve {

namespace fs = std::filesystem;

namespace {

using index::load_le16;
using index::load_le32;
using index::load_le64;
using index::store_le16;
using index::store_le32;
using index::store_le64;

constexpr char kSegmentMagic[8] = {'G', 'P', 'U', 'R', 'E', 'S', 'S', 'G'};

/// Segment file names, indexed by Segment.
constexpr std::array<const char*, kSegmentCount> kSegmentNames = {
    "seg-errors.bin", "seg-lifecycle.bin", "seg-jobs.bin", "seg-spill.bin"};

/// Block framing: u64 payload length + u64 record count before the payload,
/// u64 XXH64 of all of it after.
constexpr std::size_t kBlockPrefix = 16;
constexpr std::size_t kBlockOverhead = kBlockPrefix + 8;

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
void append_u8(std::string& s, std::uint8_t v) {
  s.push_back(static_cast<char>(v));
}
void append_str(std::string& s, std::string_view v) {
  append_le32(s, static_cast<std::uint32_t>(v.size()));
  s.append(v);
}

// ---- one encoder per result stream -------------------------------------

void encode(std::string& s, const analysis::CoalescedError& e) {
  append_i64(s, e.time);
  append_i64(s, e.last);
  append_i32(s, e.gpu.node);
  append_i32(s, e.gpu.slot);
  append_le16(s, xid::to_number(e.code));
  append_le16(s, e.raw_xid);
  append_le32(s, e.raw_lines);
}
void encode(std::string& s, const analysis::LifecycleRecord& l) {
  append_i64(s, l.time);
  append_u8(s, static_cast<std::uint8_t>(l.kind));
  append_str(s, l.host);
}
void encode(std::string& s, const analysis::JobView& j) {
  append_le64(s, j.id);
  append_i64(s, j.start);
  append_i64(s, j.end);
  append_i32(s, j.gpus);
  append_u8(s, static_cast<std::uint8_t>(j.state));
  append_u8(s, j.is_ml ? 1 : 0);
  append_u8(s, j.inline_count);
  for (const auto g : j.gpus_inline) append_i32(s, g);
  append_i32(s, j.spill_index);
}
void encode(std::string& s, const std::vector<analysis::PackedGpu>& spill) {
  append_le32(s, static_cast<std::uint32_t>(spill.size()));
  for (const auto g : spill) append_i32(s, g);
}

/// first_category is one of three static strings (or null); a small enum
/// survives serialization where the pointer cannot.
std::uint8_t category_code(const char* category) {
  if (category == nullptr) return 0;
  if (std::strcmp(category, "torn") == 0) return 1;
  if (std::strcmp(category, "overlong") == 0) return 2;
  return 3;  // "binary"
}
const char* category_from_code(std::uint8_t code) {
  switch (code) {
    case 1:
      return "torn";
    case 2:
      return "overlong";
    case 3:
      return "binary";
    default:
      return nullptr;
  }
}

/// Bounds-checked little-endian reader.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool failed() const { return failed_; }

  std::uint64_t u64() {
    if (!take(8)) return 0;
    return load_le64(at(pos_ - 8));
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    return load_le32(at(pos_ - 4));
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    return load_le16(at(pos_ - 2));
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_ - 1]);
  }
  std::string str() {
    const std::uint32_t len = u32();
    if (!take(len)) return {};
    return std::string(data_.substr(pos_ - len, len));
  }
  analysis::CoalescedError error() {
    analysis::CoalescedError e;
    e.time = i64();
    e.last = i64();
    e.gpu.node = i32();
    e.gpu.slot = i32();
    e.code = static_cast<xid::Code>(u16());
    e.raw_xid = u16();
    e.raw_lines = u32();
    return e;
  }
  analysis::LifecycleRecord lifecycle() {
    analysis::LifecycleRecord l;
    l.time = i64();
    l.kind = static_cast<analysis::LifecycleRecord::Kind>(u8());
    l.host = str();
    return l;
  }
  analysis::JobView job() {
    analysis::JobView j;
    j.id = u64();
    j.start = i64();
    j.end = i64();
    j.gpus = i32();
    j.state = static_cast<slurm::JobState>(u8());
    j.is_ml = u8() != 0;
    j.inline_count = u8();
    for (auto& g : j.gpus_inline) g = i32();
    j.spill_index = i32();
    return j;
  }
  std::vector<analysis::PackedGpu> spill() {
    const std::uint32_t n = u32();
    std::vector<analysis::PackedGpu> gpus;
    for (std::uint32_t g = 0; g < n && !failed_; ++g) gpus.push_back(i32());
    return gpus;
  }
  bool done() const { return pos_ == data_.size(); }

 private:
  bool take(std::size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    pos_ += n;
    return true;
  }
  const unsigned char* at(std::size_t p) const {
    return reinterpret_cast<const unsigned char*>(data_.data()) + p;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// ---- segment framing ----------------------------------------------------

std::string segment_header(Segment s, std::uint64_t config_hash) {
  std::string h(kSegmentMagic, sizeof(kSegmentMagic));
  append_le32(h, kCheckpointVersion);
  append_le32(h, static_cast<std::uint32_t>(s));
  append_le64(h, config_hash);
  append_le64(h, common::xxhash64(h));
  return h;
}

/// Next value of a segment's hash chain after a block whose stored XXH64
/// is the 8 bytes at `block_hash`.
std::uint64_t fold_chain(std::uint64_t chain, const char* block_hash) {
  return common::xxhash64(block_hash, 8, chain);
}

template <typename T>
std::string make_block(std::span<const T> records) {
  std::string b;
  append_le64(b, 0);  // payload length, patched below
  append_le64(b, records.size());
  for (const auto& r : records) encode(b, r);
  store_le64(reinterpret_cast<unsigned char*>(b.data()),
             b.size() - kBlockPrefix);
  append_le64(b, common::xxhash64(b));
  return b;
}

/// The block holding records [from, size()) of stream `s`.
std::string make_block(Segment s, const ResultStreams& r, std::uint64_t from) {
  switch (s) {
    case Segment::kErrors:
      return make_block(r.errors.subspan(from));
    case Segment::kLifecycle:
      return make_block(r.lifecycle.subspan(from));
    case Segment::kJobs:
      return make_block(r.jobs.subspan(from));
    case Segment::kSpill:
      return make_block(r.spill.subspan(from));
  }
  return {};
}

std::uint64_t stream_size(Segment s, const ResultStreams& r) {
  switch (s) {
    case Segment::kErrors:
      return r.errors.size();
    case Segment::kLifecycle:
      return r.lifecycle.size();
    case Segment::kJobs:
      return r.jobs.size();
    case Segment::kSpill:
      return r.spill.size();
  }
  return 0;
}

/// Decode `count` records of stream `s` from a verified block payload.
bool decode_block(Segment s, std::string_view payload, std::uint64_t count,
                  CheckpointData& out) {
  Cursor c(payload);
  for (std::uint64_t i = 0; i < count && !c.failed(); ++i) {
    switch (s) {
      case Segment::kErrors:
        out.errors.push_back(c.error());
        break;
      case Segment::kLifecycle:
        out.lifecycle.push_back(c.lifecycle());
        break;
      case Segment::kJobs:
        out.jobs.jobs.push_back(c.job());
        break;
      case Segment::kSpill:
        out.jobs.spill.push_back(c.spill());
        break;
    }
  }
  return !c.failed() && c.done();
}

/// Verify the committed prefix `extent` of segment file `file` — header,
/// every block checksum, record count and hash chain — and decode its
/// records into `out`.
common::Status read_segment(Segment s, std::string_view file,
                            std::uint64_t config_hash,
                            const SegmentExtent& extent, CheckpointData& out) {
  const std::string name = kSegmentNames[static_cast<std::size_t>(s)];
  auto fail = [&](const std::string& what) {
    return common::Error::make("segment " + name + ": " + what);
  };
  if (extent.bytes < kSegmentHeaderSize || file.size() < extent.bytes) {
    return fail("shorter than its committed length (" +
                std::to_string(file.size()) + " < " +
                std::to_string(extent.bytes) + " bytes)");
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(file.data());
  if (std::memcmp(bytes, kSegmentMagic, sizeof(kSegmentMagic)) != 0 ||
      load_le32(bytes + 8) != kCheckpointVersion ||
      load_le32(bytes + 12) != static_cast<std::uint32_t>(s) ||
      common::xxhash64(bytes, 24) != load_le64(bytes + 24)) {
    return fail("bad header");
  }
  if (load_le64(bytes + 16) != config_hash) {
    return fail("config_hash mismatch (written by another run)");
  }
  std::uint64_t pos = kSegmentHeaderSize;
  std::uint64_t records = 0;
  std::uint64_t chain = 0;
  while (pos < extent.bytes) {
    if (extent.bytes - pos < kBlockOverhead) return fail("torn block header");
    const std::uint64_t len = load_le64(bytes + pos);
    const std::uint64_t count = load_le64(bytes + pos + 8);
    if (len > extent.bytes - pos - kBlockOverhead) {
      return fail("block at byte " + std::to_string(pos) +
                  " overruns the committed length");
    }
    const std::uint64_t hash_at = pos + kBlockPrefix + len;
    if (common::xxhash64(file.data() + pos, kBlockPrefix + len) !=
        load_le64(bytes + hash_at)) {
      return fail("block checksum mismatch at byte " + std::to_string(pos));
    }
    if (!decode_block(s, file.substr(pos + kBlockPrefix, len), count, out)) {
      return fail("block at byte " + std::to_string(pos) +
                  " does not hold its record count");
    }
    chain = fold_chain(chain, file.data() + hash_at);
    records += count;
    pos = hash_at + 8;
  }
  if (records != extent.records || chain != extent.chain) {
    return fail("blocks do not match the generation's record count and chain");
  }
  return common::Status{};
}

/// Cut `path` back to `bytes` when a torn or abandoned append left more.
common::Status truncate_to(const fs::path& path, std::uint64_t bytes) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) {
    return common::Error::make("cannot stat segment " + path.string() + ": " +
                               ec.message());
  }
  if (size < bytes) {
    return common::Error::make("segment " + path.string() +
                               " is shorter than its committed length");
  }
  if (size > bytes) {
    fs::resize_file(path, bytes, ec);
    if (ec) {
      return common::Error::make("cannot truncate segment " + path.string() +
                                 ": " + ec.message());
    }
  }
  return common::Status{};
}

/// The generation number of `name` when it looks like ckpt-<seq>.bin.
std::optional<std::uint64_t> checkpoint_seq(std::string_view name) {
  if (name.size() < 10 || name.substr(0, 5) != "ckpt-" ||
      name.substr(name.size() - 4) != ".bin") {
    return std::nullopt;
  }
  const auto digits = name.substr(5, name.size() - 9);
  if (digits.empty()) return std::nullopt;
  std::uint64_t seq = 0;
  for (const char ch : digits) {
    if (ch < '0' || ch > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(ch - '0');
  }
  return seq;
}

}  // namespace

std::string serialize_generation(const CheckpointFrontier& frontier,
                                 const SegmentExtents& segments) {
  std::string p;
  append_le64(p, frontier.config_hash);
  append_le64(p, frontier.seq);
  append_le64(p, frontier.tick);
  append_i64(p, frontier.watermark);

  append_le32(p, static_cast<std::uint32_t>(frontier.sources.size()));
  for (const auto& src : frontier.sources) {
    append_str(p, src.name);
    append_i64(p, src.date);
    append_le64(p, src.offset);
    append_le64(p, src.lines_seen);
    std::uint8_t flags = 0;
    if (src.existed) flags |= 1;
    if (src.sealed) flags |= 2;
    if (src.degraded) flags |= 4;
    if (src.recovered) flags |= 8;
    append_u8(p, flags);
    append_str(p, src.degrade_reason);
    append_le64(p, src.last_progress_tick);
    append_i64(p, src.last_event);
    const auto& c = src.counts;
    append_le64(p, c.kept_lines);
    append_le64(p, c.kept_bytes);
    append_le64(p, c.binary_lines);
    append_le64(p, c.binary_bytes);
    append_le64(p, c.overlong_lines);
    append_le64(p, c.overlong_bytes);
    append_le64(p, c.torn_lines);
    append_le64(p, c.torn_bytes);
    append_le64(p, c.crlf_bytes);
    append_le64(p, c.first_line);
    append_le64(p, c.first_offset);
    append_u8(p, category_code(c.first_category));
  }

  {
    const auto& a = frontier.accounting;
    std::uint8_t flags = 0;
    if (a.seen) flags |= 1;
    if (a.degraded) flags |= 2;
    append_u8(p, flags);
    append_str(p, a.degrade_reason);
    append_le64(p, a.offset);
    append_le64(p, a.line_no);
    append_le64(p, a.rows_kept);
    append_le64(p, a.rows_rejected);
    append_le64(p, a.bytes_rejected);
  }

  append_le32(p, static_cast<std::uint32_t>(frontier.stray_files.size()));
  for (const auto& f : frontier.stray_files) append_str(p, f);

  append_le64(p, frontier.coalescer.records_in);
  append_le64(p, frontier.coalescer.errors_out);
  append_le64(p, frontier.coalescer.out_of_order);
  append_le32(p, static_cast<std::uint32_t>(frontier.coalescer.open.size()));
  for (const auto& e : frontier.coalescer.open) encode(p, e);

  for (const auto& seg : segments) {
    append_le64(p, seg.bytes);
    append_le64(p, seg.records);
    append_le64(p, seg.chain);
  }

  std::string out;
  out.reserve(kCheckpointHeaderSize + p.size());
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  append_le32(out, kCheckpointVersion);
  append_le32(out, kCheckpointEndianTag);
  append_le64(out, p.size());
  append_le64(out, common::xxhash64(p));
  append_le64(out, common::xxhash64(std::string_view(out)));
  out += p;
  return out;
}

common::Result<Generation> parse_generation(std::string_view bytes) {
  if (bytes.size() < kCheckpointHeaderSize) {
    return common::Error::make("checkpoint: file shorter than header (" +
                               std::to_string(bytes.size()) + " bytes)");
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return common::Error::make("checkpoint: bad magic");
  }
  const auto* h = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::uint32_t version = load_le32(h + 8);
  if (version != kCheckpointVersion) {
    return common::Error::make("checkpoint: unsupported version " +
                               std::to_string(version));
  }
  if (load_le32(h + 12) != kCheckpointEndianTag) {
    return common::Error::make("checkpoint: endian tag mismatch");
  }
  const std::uint64_t payload_size = load_le64(h + 16);
  const std::uint64_t payload_hash = load_le64(h + 24);
  const std::uint64_t header_hash = load_le64(h + 32);
  if (common::xxhash64(bytes.substr(0, 32)) != header_hash) {
    return common::Error::make("checkpoint: header checksum mismatch");
  }
  if (bytes.size() - kCheckpointHeaderSize != payload_size) {
    return common::Error::make(
        "checkpoint: payload size mismatch (header says " +
        std::to_string(payload_size) + ", file carries " +
        std::to_string(bytes.size() - kCheckpointHeaderSize) + ")");
  }
  const std::string_view payload = bytes.substr(kCheckpointHeaderSize);
  if (common::xxhash64(payload) != payload_hash) {
    return common::Error::make("checkpoint: payload checksum mismatch");
  }

  Cursor c(payload);
  Generation gen;
  CheckpointFrontier& data = gen.frontier;
  data.config_hash = c.u64();
  data.seq = c.u64();
  data.tick = c.u64();
  data.watermark = c.i64();

  const std::uint32_t nsources = c.u32();
  for (std::uint32_t i = 0; i < nsources && !c.failed(); ++i) {
    SourceSnapshot src;
    src.name = c.str();
    src.date = c.i64();
    src.offset = c.u64();
    src.lines_seen = c.u64();
    const std::uint8_t flags = c.u8();
    src.existed = (flags & 1) != 0;
    src.sealed = (flags & 2) != 0;
    src.degraded = (flags & 4) != 0;
    src.recovered = (flags & 8) != 0;
    src.degrade_reason = c.str();
    src.last_progress_tick = c.u64();
    src.last_event = c.i64();
    auto& sc = src.counts;
    sc.kept_lines = c.u64();
    sc.kept_bytes = c.u64();
    sc.binary_lines = c.u64();
    sc.binary_bytes = c.u64();
    sc.overlong_lines = c.u64();
    sc.overlong_bytes = c.u64();
    sc.torn_lines = c.u64();
    sc.torn_bytes = c.u64();
    sc.crlf_bytes = c.u64();
    sc.first_line = c.u64();
    sc.first_offset = c.u64();
    sc.first_category = category_from_code(c.u8());
    data.sources.push_back(std::move(src));
  }

  {
    auto& a = data.accounting;
    const std::uint8_t flags = c.u8();
    a.seen = (flags & 1) != 0;
    a.degraded = (flags & 2) != 0;
    a.degrade_reason = c.str();
    a.offset = c.u64();
    a.line_no = c.u64();
    a.rows_kept = c.u64();
    a.rows_rejected = c.u64();
    a.bytes_rejected = c.u64();
  }

  const std::uint32_t nstray = c.u32();
  for (std::uint32_t i = 0; i < nstray && !c.failed(); ++i) {
    data.stray_files.push_back(c.str());
  }

  data.coalescer.records_in = c.u64();
  data.coalescer.errors_out = c.u64();
  data.coalescer.out_of_order = c.u64();
  const std::uint32_t nopen = c.u32();
  for (std::uint32_t i = 0; i < nopen && !c.failed(); ++i) {
    data.coalescer.open.push_back(c.error());
  }

  for (auto& seg : gen.segments) {
    seg.bytes = c.u64();
    seg.records = c.u64();
    seg.chain = c.u64();
  }

  if (c.failed() || !c.done()) {
    return common::Error::make(
        "checkpoint: payload truncated or trailing garbage");
  }
  return gen;
}

CheckpointStore::CheckpointStore(fs::path dir, std::uint32_t keep)
    : dir_(std::move(dir)), keep_(keep == 0 ? 1 : keep) {}

fs::path CheckpointStore::path_for(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%08llu.bin",
                static_cast<unsigned long long>(seq));
  return dir_ / name;
}

fs::path CheckpointStore::segment_path(Segment s) const {
  return dir_ / kSegmentNames[static_cast<std::size_t>(s)];
}

common::Status CheckpointStore::reset(std::uint64_t config_hash) {
  ready_ = false;
  // The store owns its directory: file writes never create directories.
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return common::Error::make("cannot create checkpoint dir " +
                               dir_.string() + ": " + ec.message());
  }
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const bool segment = std::find(kSegmentNames.begin(), kSegmentNames.end(),
                                   name) != kSegmentNames.end();
    if (segment || checkpoint_seq(name).has_value()) {
      std::error_code rm;
      fs::remove(entry.path(), rm);
      if (rm) {
        return common::Error::make("cannot remove old checkpoint file " +
                                   entry.path().string() + ": " +
                                   rm.message());
      }
    }
  }
  for (std::size_t s = 0; s < kSegmentCount; ++s) {
    const auto seg = static_cast<Segment>(s);
    auto st = common::write_file_atomic(segment_path(seg).string(),
                                        segment_header(seg, config_hash));
    if (!st.ok()) return st;
  }
  config_hash_ = config_hash;
  committed_ = SegmentExtents{};
  ready_ = true;
  return common::Status{};
}

common::Result<std::uint64_t> CheckpointStore::write(
    const CheckpointFrontier& frontier, const ResultStreams& results,
    const std::function<void()>& between) {
  if (!ready_) {
    return common::Error::make(
        "checkpoint store: write before reset() or load_latest()");
  }
  common::check(frontier.config_hash == config_hash_,
                "CheckpointStore: frontier config_hash differs from the "
                "segments'");
  SegmentExtents next = committed_;
  std::uint64_t written = 0;
  for (std::size_t s = 0; s < kSegmentCount; ++s) {
    const auto seg = static_cast<Segment>(s);
    auto& ext = next[s];
    const std::uint64_t size = stream_size(seg, results);
    common::check(size >= ext.records,
                  "CheckpointStore: a result stream shrank between "
                  "generations");
    if (size == ext.records) continue;
    const std::string block = make_block(seg, results, ext.records);
    const auto path = segment_path(seg);
    // A torn append or an uncommitted earlier attempt may have left bytes
    // past the committed length; the new block replaces them.
    auto st = truncate_to(path, ext.bytes);
    if (!st.ok()) return st.error();
    st = common::append_file(path.string(), block);
    if (!st.ok()) return st.error();
    ext.bytes += block.size();
    ext.records = size;
    ext.chain = fold_chain(ext.chain, block.data() + block.size() - 8);
    written += block.size();
  }
  if (between) between();
  const std::string bytes = serialize_generation(frontier, next);
  auto st = common::write_file_atomic(path_for(frontier.seq).string(), bytes);
  if (!st.ok()) return st.error();
  committed_ = next;
  written += bytes.size();
  // Prune generations older than the newest `keep_`.  A failed remove is
  // harmless (extra generations only cost disk), so errors are ignored.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const auto seq = checkpoint_seq(entry.path().filename().string());
    if (seq.has_value() && *seq + keep_ <= frontier.seq) {
      std::error_code rm;
      fs::remove(entry.path(), rm);
    }
  }
  return written;
}

common::Result<std::optional<CheckpointData>> CheckpointStore::load_latest(
    const std::function<void(const std::string&)>& note) {
  std::error_code ec;
  if (!fs::is_directory(dir_, ec)) return std::optional<CheckpointData>{};
  std::vector<std::pair<std::uint64_t, fs::path>> found;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const auto seq = checkpoint_seq(entry.path().filename().string());
    if (seq.has_value()) found.emplace_back(*seq, entry.path());
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  // Each segment is read once, on first use, and shared by every
  // generation tried.
  std::array<std::optional<common::Result<std::string>>, kSegmentCount> files;
  for (std::size_t i = 0; i < found.size(); ++i) {
    const auto& path = found[i].second;
    const std::string name = path.filename().string();
    auto bytes = common::read_file(path.string());
    if (!bytes.ok()) {
      if (note) {
        note("checkpoint " + name + " unreadable, falling back: " +
             bytes.error().message);
      }
      continue;
    }
    auto parsed = parse_generation(bytes.value());
    if (!parsed.ok()) {
      if (note) {
        note("checkpoint " + name + " corrupt, falling back: " +
             parsed.error().message);
      }
      continue;
    }
    Generation& gen = parsed.value();
    CheckpointData data;
    static_cast<CheckpointFrontier&>(data) = std::move(gen.frontier);
    common::Status st;
    for (std::size_t s = 0; s < kSegmentCount && st.ok(); ++s) {
      const auto seg = static_cast<Segment>(s);
      if (!files[s].has_value()) {
        files[s] = common::read_file(segment_path(seg).string());
      }
      if (!files[s]->ok()) {
        st = files[s]->error();
      } else {
        st = read_segment(seg, files[s]->value(), data.config_hash,
                          gen.segments[s], data);
      }
    }
    if (!st.ok()) {
      if (note) {
        note("checkpoint " + name + " does not match its segments, " +
             "falling back: " + st.error().message);
      }
      continue;
    }
    // Resume from this generation: drop what lies past it — a torn append,
    // or blocks of newer generations that failed verification.
    for (std::size_t s = 0; s < kSegmentCount; ++s) {
      auto trunc = truncate_to(segment_path(static_cast<Segment>(s)),
                               gen.segments[s].bytes);
      if (!trunc.ok()) return trunc.error();
    }
    for (std::size_t j = 0; j < i; ++j) {
      std::error_code rm;
      fs::remove(found[j].second, rm);
    }
    config_hash_ = data.config_hash;
    committed_ = gen.segments;
    ready_ = true;
    return std::optional<CheckpointData>(std::move(data));
  }
  return std::optional<CheckpointData>{};
}

}  // namespace gpures::serve
