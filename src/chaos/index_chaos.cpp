#include "chaos/index_chaos.h"

#include "common/codec.h"
#include "common/io.h"
#include "common/rng.h"
#include "index/format.h"

namespace gpures::chaos {

namespace {

namespace ix = gpures::index;

unsigned char* bytes_at(std::string& s, std::uint64_t off) {
  return reinterpret_cast<unsigned char*>(s.data()) + off;
}

/// Re-derive the table hash, then the header hash, after editing the
/// table, keeping the file self-consistent up to (but not including) the
/// fault under test.
void fix_table_hash(std::string& s) {
  auto h = common::load_record<ix::IndexHeader>(s.data());
  h.table_hash = common::xxhash64(s.data() + ix::kSectionTableOffset,
                                  ix::kSectionCount * ix::kSectionEntrySize);
  common::store_sealed(s.data(), h);
}

IndexCorruption flip_bit(std::string& s, common::Rng& rng, std::uint64_t lo,
                         std::uint64_t hi, IndexFault fault,
                         std::string_view where) {
  IndexCorruption c;
  c.fault = fault;
  c.original_size = s.size();
  c.corrupted_size = s.size();
  c.byte_offset = lo + rng.uniform_u64(hi - lo);
  c.bit = static_cast<std::uint32_t>(rng.uniform_u64(8));
  *bytes_at(s, c.byte_offset) ^= static_cast<unsigned char>(1u << c.bit);
  c.detail = "flipped bit " + std::to_string(c.bit) + " of byte " +
             std::to_string(c.byte_offset) + " (" + std::string(where) + ")";
  return c;
}

}  // namespace

std::string_view to_string(IndexFault fault) {
  switch (fault) {
    case IndexFault::kHeaderBitFlip: return "header-bit-flip";
    case IndexFault::kTableBitFlip: return "table-bit-flip";
    case IndexFault::kPayloadBitFlip: return "payload-bit-flip";
    case IndexFault::kAnyBitFlip: return "any-bit-flip";
    case IndexFault::kTruncate: return "truncate";
    case IndexFault::kVersionBump: return "version-bump";
    case IndexFault::kBadSectionHash: return "bad-section-hash";
  }
  return "unknown";
}

common::Result<IndexCorruption> corrupt_index_bytes(std::string& bytes,
                                                    std::uint64_t seed,
                                                    IndexFault fault) {
  common::Rng rng(seed);
  // Independent draw streams per fault kind, so seed N's truncation point
  // is unrelated to seed N's flip position.
  rng = rng.fork(to_string(fault));

  const std::uint64_t size = bytes.size();
  if (size < ix::kSectionBase) {
    return common::Error::make(
        "corrupt_index: input is smaller than a header + section table (" +
        std::to_string(size) + " bytes); not a gpures index");
  }

  switch (fault) {
    case IndexFault::kHeaderBitFlip:
      return flip_bit(bytes, rng, 0, ix::kHeaderSize, fault, "header");
    case IndexFault::kTableBitFlip:
      return flip_bit(bytes, rng, ix::kSectionTableOffset, ix::kSectionBase,
                      fault, "section table");
    case IndexFault::kPayloadBitFlip:
      if (size == ix::kSectionBase) {
        return common::Error::make(
            "corrupt_index: index has no section payload bytes to corrupt");
      }
      return flip_bit(bytes, rng, ix::kSectionBase, size, fault,
                      "section payload");
    case IndexFault::kAnyBitFlip:
      return flip_bit(bytes, rng, 0, size, fault, "anywhere");
    case IndexFault::kTruncate: {
      IndexCorruption c;
      c.fault = fault;
      c.original_size = size;
      c.corrupted_size = rng.uniform_u64(size);  // in [0, size)
      c.byte_offset = c.corrupted_size;
      bytes.resize(c.corrupted_size);
      c.detail = "truncated " + std::to_string(size) + " bytes to " +
                 std::to_string(c.corrupted_size);
      return c;
    }
    case IndexFault::kVersionBump: {
      auto h = common::load_record<ix::IndexHeader>(bytes.data());
      IndexCorruption c;
      c.fault = fault;
      c.original_size = size;
      c.corrupted_size = size;
      c.byte_offset = common::offset_of(h, h.version);
      h.version = ix::kFormatVersion + 1 +
                  static_cast<std::uint32_t>(rng.uniform_u64(1000));
      // All checksums stay valid: the only thing wrong with this file is
      // that it comes from the future.
      common::store_sealed(bytes.data(), h);
      c.detail = "bumped format version to " + std::to_string(h.version);
      return c;
    }
    case IndexFault::kBadSectionHash: {
      const std::uint64_t section = rng.uniform_u64(ix::kSectionCount);
      const ix::SectionEntry e;
      const std::uint64_t hash_off = ix::kSectionTableOffset +
                                     section * ix::kSectionEntrySize +
                                     common::offset_of(e, e.hash);
      IndexCorruption c =
          flip_bit(bytes, rng, hash_off, hash_off + 8, fault, "section hash");
      c.fault = fault;
      // Header and table hashes are fixed up, so the reader reaches — and
      // must fail on — the per-section checksum itself.
      fix_table_hash(bytes);
      c.detail += "; section " + std::to_string(section + 1) + " (" +
                  std::string(ix::section_name(
                      static_cast<ix::SectionId>(section + 1))) +
                  "), table/header hashes recomputed";
      return c;
    }
  }
  return common::Error::make("corrupt_index: unknown fault");
}

common::Result<IndexCorruption> corrupt_index_file(
    const std::filesystem::path& src, const std::filesystem::path& dst,
    std::uint64_t seed, IndexFault fault) {
  auto bytes = common::read_file(src.string());
  if (!bytes.ok()) return bytes.error();
  std::string data = std::move(bytes).take();
  auto done = corrupt_index_bytes(data, seed, fault);
  if (!done.ok()) return done.error();
  const auto st = common::write_text_file(dst.string(), data);
  if (!st.ok()) return st.error();
  return done;
}

}  // namespace gpures::chaos
