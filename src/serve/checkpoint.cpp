#include "serve/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/io.h"

namespace gpures::serve {

namespace fs = std::filesystem;

namespace {

/// Segment file names, indexed by Segment.
constexpr std::array<const char*, kSegmentCount> kSegmentNames = {
    "seg-errors.bin", "seg-lifecycle.bin", "seg-jobs.bin", "seg-spill.bin"};

/// Block framing: the prefix before the payload, its XXH64 after.
constexpr std::size_t kBlockPrefix = common::encoded_size<BlockPrefix>();
constexpr std::size_t kBlockOverhead = kBlockPrefix + 8;

/// first_category is one of three static strings (or null); its index here
/// survives serialization where the pointer cannot.
constexpr const char* kCategories[] = {nullptr, "torn", "overlong", "binary"};

// ---- field codec --------------------------------------------------------
//
// The payload records are other modules' types, so their fields() live
// here, found through this tag (see common/codec.h).  Two fields' wire
// forms do not follow from their C++ types — packed flag bits and the
// first-offense category code — and are named ops.

struct Schema {};
using Writer = common::Writer<Schema>;
using Cursor = common::Cursor<Schema>;

/// One byte; bit i holds the i-th argument.
template <typename... B>
void flags(Writer& w, B... bits) {
  unsigned f = 0;
  unsigned i = 0;
  ((f |= static_cast<unsigned>(bits) << i++), ...);
  w(static_cast<std::uint8_t>(f));
}
template <typename... B>
void flags(Cursor& c, B&... bits) {
  std::uint8_t f = 0;
  c(f);
  unsigned i = 0;
  ((bits = ((f >> i++) & 1u) != 0), ...);
}

void category(Writer& w, const char* c) {
  std::uint8_t code = c == nullptr ? 0 : 3;  // any other string: "binary"
  for (std::uint8_t i = 1; c != nullptr && i < 3; ++i) {
    if (std::strcmp(c, kCategories[i]) == 0) code = i;
  }
  w(code);
}
void category(Cursor& c, const char*& out) {
  std::uint8_t code = 0;
  c(code);
  out = code < std::size(kCategories) ? kCategories[code] : nullptr;
}

// ---- the schema: every persisted record's fields, in on-disk order ------

template <typename IO>
void fields(IO& io, common::Rec<IO, analysis::CoalescedError>& e) {
  io(e.time, e.last, e.gpu.node, e.gpu.slot, e.code, e.raw_xid, e.raw_lines);
}
template <typename IO>
void fields(IO& io, common::Rec<IO, analysis::LifecycleRecord>& l) {
  io(l.time, l.kind, l.host);
}
template <typename IO>
void fields(IO& io, common::Rec<IO, analysis::JobView>& j) {
  io(j.id, j.start, j.end, j.gpus, j.state, j.is_ml, j.inline_count,
     j.gpus_inline, j.spill_index);
}
template <typename IO>
void fields(IO& io, common::Rec<IO, logsys::ScreenCounts>& c) {
  io(c.kept_lines, c.kept_bytes, c.binary_lines, c.binary_bytes,
     c.overlong_lines, c.overlong_bytes, c.torn_lines, c.torn_bytes,
     c.crlf_bytes, c.first_line, c.first_offset);
  category(io, c.first_category);
}
template <typename IO>
void fields(IO& io, common::Rec<IO, SourceSnapshot>& s) {
  io(s.name, s.date, s.offset, s.lines_seen);
  flags(io, s.existed, s.sealed, s.degraded, s.recovered);
  io(s.degrade_reason, s.last_progress_tick, s.last_event, s.counts);
}
template <typename IO>
void fields(IO& io, common::Rec<IO, AccountingSnapshot>& a) {
  flags(io, a.seen, a.degraded);
  io(a.degrade_reason, a.offset, a.line_no, a.rows_kept, a.rows_rejected,
     a.bytes_rejected);
}
template <typename IO>
void fields(IO& io, common::Rec<IO, analysis::CoalescerState>& c) {
  io(c.records_in, c.errors_out, c.out_of_order, c.open);
}
template <typename IO>
void fields(IO& io, common::Rec<IO, SegmentExtent>& e) {
  io(e.bytes, e.records, e.chain);
}
template <typename IO>
void fields(IO& io, common::Rec<IO, CheckpointFrontier>& f) {
  io(f.config_hash, f.seq, f.tick, f.watermark, f.sources, f.accounting,
     f.stray_files, f.coalescer);
}

// ---- segment framing ----------------------------------------------------

std::string segment_header(Segment s, std::uint64_t config_hash) {
  SegmentHeader h;
  h.stream = static_cast<std::uint32_t>(s);
  h.config_hash = config_hash;
  std::string out(kSegmentHeaderSize, '\0');
  common::store_sealed(out.data(), h);
  return out;
}

/// Next value of a segment's hash chain after a block whose stored XXH64
/// is the 8 bytes at `block_hash`.
std::uint64_t fold_chain(std::uint64_t chain, const char* block_hash) {
  return common::xxhash64(block_hash, 8, chain);
}

/// The one binding of each Segment to its result stream: calls
/// `f(span_of, vector_of)` with accessors for the stream's span in a
/// ResultStreams (what a write appends) and its vector in a CheckpointData
/// (what a load fills).
template <typename F>
auto on_stream(Segment s, F&& f) {
  switch (s) {
    case Segment::kErrors:
      return f([](const ResultStreams& r) { return r.errors; },
               [](CheckpointData& d) -> auto& { return d.errors; });
    case Segment::kLifecycle:
      return f([](const ResultStreams& r) { return r.lifecycle; },
               [](CheckpointData& d) -> auto& { return d.lifecycle; });
    case Segment::kJobs:
      return f([](const ResultStreams& r) { return r.jobs; },
               [](CheckpointData& d) -> auto& { return d.jobs.jobs; });
    case Segment::kSpill:
    default:
      return f([](const ResultStreams& r) { return r.spill; },
               [](CheckpointData& d) -> auto& { return d.jobs.spill; });
  }
}

template <typename T>
std::string make_block(std::span<const T> records) {
  BlockPrefix prefix{0, records.size()};
  std::string b;
  Writer w(b);
  w(prefix);
  for (const auto& r : records) w(r);
  // Patch the payload length, then seal the block with its hash.
  prefix.payload_bytes = b.size() - kBlockPrefix;
  common::store_record(b.data(), prefix);
  w(common::xxhash64(b));
  return b;
}

/// Decode `count` records from a verified block payload into `out`.
template <typename T>
bool decode_block(std::string_view payload, std::uint64_t count,
                  std::vector<T>& out) {
  Cursor c(payload);
  for (std::uint64_t i = 0; i < count && !c.failed(); ++i) {
    c(out.emplace_back());
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
  const auto h = common::load_record<SegmentHeader>(file.data());
  if (h.magic != kSegmentMagic || h.version != kCheckpointVersion ||
      h.stream != static_cast<std::uint32_t>(s) ||
      common::header_hash_at<SegmentHeader>(file.data()) != h.header_hash) {
    return fail("bad header");
  }
  if (h.config_hash != config_hash) {
    return fail("config_hash mismatch (written by another run)");
  }
  std::uint64_t pos = kSegmentHeaderSize;
  std::uint64_t records = 0;
  std::uint64_t chain = 0;
  while (pos < extent.bytes) {
    if (extent.bytes - pos < kBlockOverhead) return fail("torn block header");
    const auto [len, count] =
        common::load_record<BlockPrefix>(file.data() + pos);
    if (len > extent.bytes - pos - kBlockOverhead) {
      return fail("block at byte " + std::to_string(pos) +
                  " overruns the committed length");
    }
    const std::uint64_t hash_at = pos + kBlockPrefix + len;
    if (common::xxhash64(file.data() + pos, kBlockPrefix + len) !=
        common::load_record<std::uint64_t>(file.data() + hash_at)) {
      return fail("block checksum mismatch at byte " + std::to_string(pos));
    }
    const bool decoded = on_stream(s, [&](auto, auto vector_of) {
      return decode_block(file.substr(pos + kBlockPrefix, len), count,
                          vector_of(out));
    });
    if (!decoded) {
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
  Writer payload(p);
  payload(frontier, segments);

  CheckpointHeader h;
  h.payload_size = p.size();
  h.payload_hash = common::xxhash64(p);
  std::string out(kCheckpointHeaderSize, '\0');
  common::store_sealed(out.data(), h);
  out += p;
  return out;
}

common::Result<Generation> parse_generation(std::string_view bytes) {
  if (bytes.size() < kCheckpointHeaderSize) {
    return common::Error::make("checkpoint: file shorter than header (" +
                               std::to_string(bytes.size()) + " bytes)");
  }
  const auto h = common::load_record<CheckpointHeader>(bytes.data());
  if (h.magic != kCheckpointMagic) {
    return common::Error::make("checkpoint: bad magic");
  }
  if (h.version != kCheckpointVersion) {
    return common::Error::make("checkpoint: unsupported version " +
                               std::to_string(h.version));
  }
  if (h.endian_tag != kCheckpointEndianTag) {
    return common::Error::make("checkpoint: endian tag mismatch");
  }
  if (common::header_hash_at<CheckpointHeader>(bytes.data()) !=
      h.header_hash) {
    return common::Error::make("checkpoint: header checksum mismatch");
  }
  if (bytes.size() - kCheckpointHeaderSize != h.payload_size) {
    return common::Error::make(
        "checkpoint: payload size mismatch (header says " +
        std::to_string(h.payload_size) + ", file carries " +
        std::to_string(bytes.size() - kCheckpointHeaderSize) + ")");
  }
  const std::string_view payload = bytes.substr(kCheckpointHeaderSize);
  if (common::xxhash64(payload) != h.payload_hash) {
    return common::Error::make("checkpoint: payload checksum mismatch");
  }

  Cursor c(payload);
  Generation gen;
  c(gen.frontier, gen.segments);
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
    std::uint64_t size = 0;
    const std::string block = on_stream(seg, [&](auto span_of, auto) {
      const auto stream = span_of(results);
      size = stream.size();
      return size > ext.records ? make_block(stream.subspan(ext.records))
                                : std::string();
    });
    common::check(size >= ext.records,
                  "CheckpointStore: a result stream shrank between "
                  "generations");
    if (size == ext.records) continue;
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
