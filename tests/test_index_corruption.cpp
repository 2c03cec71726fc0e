// Corruption matrix for the mapped index reader: every structure-aware
// fault the chaos corrupter can inject — header/table/payload bit-flips,
// truncation, version skew, a single bad section checksum — must make
// IndexReader::open fail with a located common::Error naming the file.
// Never a crash, never an out-of-bounds read (the suite runs under
// ASan/UBSan in CI), and never a silently wrong answer.  A seeded fuzz
// sweep flips one bit anywhere and demands the integrity chain catches it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "analysis/availability.h"
#include "analysis/job_stats.h"
#include "chaos/index_chaos.h"
#include "cluster/topology.h"
#include "common/codec.h"
#include "common/io.h"
#include "common/rng.h"
#include "index/format.h"
#include "index/reader.h"
#include "index/writer.h"

namespace an = gpures::analysis;
namespace ch = gpures::chaos;
namespace cl = gpures::cluster;
namespace ct = gpures::common;
namespace ix = gpures::index;
namespace fs = std::filesystem;

namespace {

/// A small but fully populated artifact (every section non-empty) shared by
/// all tests; corruption targets then always have real payload to hit.
class IndexCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo_ = new cl::Topology(cl::ClusterSpec::small());
    const auto pds = an::StudyPeriods::make(ct::make_date(2023, 1, 1),
                                            ct::make_date(2023, 2, 1),
                                            ct::make_date(2023, 6, 1));
    errors_ = new std::vector<an::CoalescedError>();
    for (int i = 0; i < 40; ++i) {
      an::CoalescedError e;
      e.time = pds.op.begin + i * 500;
      e.last = e.time + 3;
      e.gpu = {i % topo_->node_count(), i % 4};
      e.code = static_cast<gpures::xid::Code>(i % 2 == 0 ? 63 : 79);
      e.raw_xid = gpures::xid::to_number(e.code);
      e.raw_lines = 1 + static_cast<std::uint32_t>(i % 3);
      errors_->push_back(e);
    }
    jobs_ = new an::JobTable();
    for (std::uint64_t j = 0; j < 25; ++j) {
      an::JobView v;
      v.id = j + 1;
      v.start = pds.op.begin + static_cast<std::int64_t>(j) * 400;
      v.end = v.start + 2000;
      v.state = j % 5 == 0 ? gpures::slurm::JobState::kFailed
                           : gpures::slurm::JobState::kCompleted;
      v.inline_count = 1;
      v.gpus_inline[0] =
          an::pack_gpu(static_cast<std::int32_t>(j) % topo_->node_count(), 0);
      jobs_->jobs.push_back(v);
    }
    unavail_ = new std::vector<an::Unavailability>();
    for (int i = 0; i < 6; ++i) {
      unavail_->push_back({topo_->node(i % topo_->node_count()).name,
                           pds.op.begin + i * 1000,
                           pds.op.begin + i * 1000 + 600});
    }

    ix::IndexBuildInput in;
    in.periods = pds;
    in.topo = topo_;
    in.errors = errors_;
    in.jobs = jobs_;
    in.unavailability = unavail_;
    const auto bytes = ix::serialize_index(in);
    ASSERT_TRUE(bytes.ok()) << bytes.error().message;
    pristine_ = bytes.value();

    // Per-process: ctest -j runs each case as its own process.
    dir_ = fs::temp_directory_path() /
           ("gpures_idx_corruption." + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  static void TearDownTestSuite() {
    delete topo_;
    delete errors_;
    delete jobs_;
    delete unavail_;
    topo_ = nullptr;
    errors_ = nullptr;
    jobs_ = nullptr;
    unavail_ = nullptr;
    fs::remove_all(dir_);
  }

  /// Write `bytes` under a unique name and return the path.
  static std::string write(const std::string& name, const std::string& bytes) {
    const auto path = (dir_ / name).string();
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(static_cast<bool>(os)) << path;
    return path;
  }

  static cl::Topology* topo_;
  static std::vector<an::CoalescedError>* errors_;
  static an::JobTable* jobs_;
  static std::vector<an::Unavailability>* unavail_;
  static std::string pristine_;
  static fs::path dir_;
};

cl::Topology* IndexCorruption::topo_ = nullptr;
std::vector<an::CoalescedError>* IndexCorruption::errors_ = nullptr;
an::JobTable* IndexCorruption::jobs_ = nullptr;
std::vector<an::Unavailability>* IndexCorruption::unavail_ = nullptr;
std::string IndexCorruption::pristine_;
fs::path IndexCorruption::dir_;

constexpr ix::SectionId kAttributionSections[] = {
    ix::SectionId::kJobExposedPos,
    ix::SectionId::kJobExposedMasks,
    ix::SectionId::kJobFailedPos,
};

struct Span {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
};

/// Where entry i of the section table starts.
std::size_t entry_offset(std::size_t i) {
  return ix::kSectionTableOffset + i * ix::kSectionEntrySize;
}

/// Where section `id` sits, read from the table of a well-formed file.
Span section(const std::string& bytes, ix::SectionId id) {
  const auto e = ct::load_record<ix::SectionEntry>(
      bytes.data() + entry_offset(static_cast<std::size_t>(id) - 1));
  return {e.offset, e.size};
}

/// Recompute every section hash, then the table and header hashes, so an
/// edited file passes the integrity chain and reaches the invariants.
void reseal(std::string& bytes) {
  for (std::size_t i = 0; i < ix::kSectionCount; ++i) {
    char* at = bytes.data() + entry_offset(i);
    auto e = ct::load_record<ix::SectionEntry>(at);
    e.hash = ct::xxhash64(bytes.data() + e.offset, e.size);
    ct::store_record(at, e);
  }
  auto h = ct::load_record<ix::IndexHeader>(bytes.data());
  h.table_hash = ct::xxhash64(bytes.data() + ix::kSectionTableOffset,
                              ix::kSectionCount * ix::kSectionEntrySize);
  ct::store_sealed(bytes.data(), h);
}

/// Open must fail with an error that is *located*: non-empty message naming
/// the artifact, so a user can tell which file is bad.
void expect_located_failure(const std::string& path, const std::string& why) {
  auto opened = ix::IndexReader::open(path);
  ASSERT_FALSE(opened.ok()) << why << ": corrupt index opened successfully";
  const auto& err = opened.error();
  EXPECT_FALSE(err.message.empty()) << why;
  EXPECT_NE(err.message.find(fs::path(path).filename().string()),
            std::string::npos)
      << why << ": error does not name the file: " << err.message;
}

}  // namespace

TEST_F(IndexCorruption, PristineArtifactOpens) {
  const auto path = write("pristine.idx", pristine_);
  const auto opened = ix::IndexReader::open(path);
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  EXPECT_EQ(opened.value().meta().error_count, errors_->size());
  // The attribution sections carry real payload too.
  EXPECT_GE(opened.value().meta().exposed_count, 2u);
  EXPECT_GE(opened.value().meta().failed_count, 2u);
}

TEST_F(IndexCorruption, AttributionSectionBitFlipsAndCutsAreCaught) {
  // The random fuzz lands in the small attribution sections only by
  // chance; flip every bit of their first and last words (the last one is
  // padding when the count is odd) and cut inside each of them.
  for (const auto id : kAttributionSections) {
    const Span s = section(pristine_, id);
    ASSERT_GE(s.size, 8u) << ix::section_name(id);
    for (const std::uint64_t off : {s.offset, s.offset + s.size - 4}) {
      for (std::uint64_t byte = off; byte < off + 4; ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
          std::string bytes = pristine_;
          bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
          auto opened = ix::IndexReader::open(write("attr_flip.idx", bytes));
          EXPECT_FALSE(opened.ok())
              << ix::section_name(id) << " byte " << byte << " bit " << bit;
        }
      }
    }
    for (const std::uint64_t cut : {s.offset, s.offset + s.size / 2}) {
      expect_located_failure(write("attr_trunc.idx", pristine_.substr(0, cut)),
                             std::string(ix::section_name(id)) +
                                 " truncated at " + std::to_string(cut));
    }
  }
}

TEST_F(IndexCorruption, AttributionSectionInvariantsAreLocated) {
  // Each forged file is fully re-sealed (section, table and header hashes
  // recomputed), so the reader reaches the invariant itself and must name
  // it, located at its section (or at its meta field).
  const Span meta = section(pristine_, ix::SectionId::kMeta);
  const ix::IndexMeta m;
  const std::uint64_t exposed_at =
      meta.offset + ct::offset_of(m, m.exposed_count);
  const std::uint64_t failed_at =
      meta.offset + ct::offset_of(m, m.failed_count);
  const auto job_count = static_cast<std::uint32_t>(jobs_->jobs.size());
  const auto at = [](std::string& b, std::uint64_t off) {
    return reinterpret_cast<unsigned char*>(b.data()) + off;
  };
  struct Forge {
    const char* message;
    ix::SectionId id;
    std::uint64_t offset;
    std::function<void(std::string&)> edit;
  };
  const Span xpos = section(pristine_, ix::SectionId::kJobExposedPos);
  const Span xmask = section(pristine_, ix::SectionId::kJobExposedMasks);
  const Span fpos = section(pristine_, ix::SectionId::kJobFailedPos);
  const std::vector<Forge> forges = {
      {"exposed job count exceeds the job count", ix::SectionId::kMeta,
       exposed_at,
       [&](std::string& b) {
         ct::store_record(at(b, exposed_at), std::uint64_t{job_count} + 1);
       }},
      {"failed job count exceeds the job count", ix::SectionId::kMeta,
       failed_at,
       [&](std::string& b) {
         ct::store_record(at(b, failed_at), std::uint64_t{job_count} + 1);
       }},
      {"exposed job positions must be strictly increasing",
       ix::SectionId::kJobExposedPos, xpos.offset,
       [&](std::string& b) {
         ct::store_record(at(b, xpos.offset + 4),
                        ct::load_record<std::uint32_t>(at(b, xpos.offset)));
       }},
      {"exposed job positions must be strictly increasing",
       ix::SectionId::kJobExposedPos, xpos.offset,
       [&](std::string& b) { ct::store_record(at(b, xpos.offset), job_count); }},
      {"exposure masks must stay within the family range",
       ix::SectionId::kJobExposedMasks, xmask.offset,
       [&](std::string& b) {
         ct::store_record(at(b, xmask.offset), an::pack_masks(1u << 12, 0));
       }},
      {"exposed job run masks must be nonzero",
       ix::SectionId::kJobExposedMasks, xmask.offset,
       [&](std::string& b) { ct::store_record(at(b, xmask.offset), std::uint32_t{0}); }},
      {"exposure window mask must be a subset of the run mask",
       ix::SectionId::kJobExposedMasks, xmask.offset,
       [&](std::string& b) {
         ct::store_record(at(b, xmask.offset), an::pack_masks(1, 2));
       }},
      {"failed job positions must be strictly increasing",
       ix::SectionId::kJobFailedPos, fpos.offset,
       [&](std::string& b) {
         ct::store_record(at(b, fpos.offset + 4),
                        ct::load_record<std::uint32_t>(at(b, fpos.offset)));
       }},
      {"failed job positions must be strictly increasing",
       ix::SectionId::kJobFailedPos, fpos.offset,
       [&](std::string& b) { ct::store_record(at(b, fpos.offset), job_count); }},
  };
  for (const auto& f : forges) {
    std::string bytes = pristine_;
    f.edit(bytes);
    reseal(bytes);
    auto opened = ix::IndexReader::open(write("forged.idx", bytes));
    ASSERT_FALSE(opened.ok()) << f.message;
    EXPECT_NE(opened.error().message.find(f.message), std::string::npos)
        << opened.error().message;
    EXPECT_EQ(opened.error().offset, f.offset) << f.message;
  }
}

TEST_F(IndexCorruption, VersionOneFileIsRefusedAsUnsupported) {
  // A v1 artifact (no attribution sections) must be refused before any
  // payload is trusted, as version skew rather than corruption.
  std::string bytes = pristine_;
  auto h = ct::load_record<ix::IndexHeader>(bytes.data());
  h.version = 1;
  ct::store_record(bytes.data(), h);
  reseal(bytes);
  auto opened = ix::IndexReader::open(write("v1.idx", bytes));
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.error().message.find("unsupported index format version 1"),
            std::string::npos)
      << opened.error().message;
}

TEST_F(IndexCorruption, EveryFaultKindFailsOpenAcrossSeeds) {
  constexpr ch::IndexFault kFaults[] = {
      ch::IndexFault::kHeaderBitFlip,  ch::IndexFault::kTableBitFlip,
      ch::IndexFault::kPayloadBitFlip, ch::IndexFault::kTruncate,
      ch::IndexFault::kVersionBump,    ch::IndexFault::kBadSectionHash,
  };
  int cases = 0;
  for (const auto fault : kFaults) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      std::string bytes = pristine_;
      const auto done = ch::corrupt_index_bytes(bytes, seed, fault);
      ASSERT_TRUE(done.ok()) << done.error().message;
      const auto name = std::string(ch::to_string(fault)) + "_" +
                        std::to_string(seed) + ".idx";
      expect_located_failure(write(name, bytes),
                             std::string(ch::to_string(fault)) + " seed " +
                                 std::to_string(seed) + " (" +
                                 done.value().detail + ")");
      ++cases;
    }
  }
  EXPECT_EQ(cases, 120);
}

TEST_F(IndexCorruption, AnySingleBitFlipIsCaughtFuzz) {
  // The format's integrity claim: every byte of the file is covered by
  // exactly one checksum, so *any* single-bit flip must fail open.  250
  // seeded flips at uniformly random positions probe that property.
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    std::string bytes = pristine_;
    const auto done =
        ch::corrupt_index_bytes(bytes, seed, ch::IndexFault::kAnyBitFlip);
    ASSERT_TRUE(done.ok()) << done.error().message;
    const auto path = write("fuzz.idx", bytes);
    auto opened = ix::IndexReader::open(path);
    EXPECT_FALSE(opened.ok())
        << "undetected corruption: " << done.value().detail;
  }
}

TEST_F(IndexCorruption, TruncationSweepNeverCrashes) {
  // Beyond the random truncation fault: cut at every boundary the parser
  // cares about (0, mid-header, end of header, mid-table, end of table,
  // just-shy-of-EOF) plus a seeded sweep of arbitrary cuts.
  const std::vector<std::uint64_t> cuts = {
      0,
      1,
      ix::kHeaderSize / 2,
      ix::kHeaderSize,
      ix::kHeaderSize + 1,
      ix::kSectionBase - 1,
      ix::kSectionBase,
      pristine_.size() - 1,
  };
  for (const auto cut : cuts) {
    expect_located_failure(
        write("trunc.idx", pristine_.substr(0, cut)),
        "truncate to " + std::to_string(cut) + " bytes");
  }
  ct::Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const auto cut = rng.uniform_u64(pristine_.size());
    expect_located_failure(
        write("trunc.idx", pristine_.substr(0, cut)),
        "random truncate to " + std::to_string(cut) + " bytes");
  }
}

TEST_F(IndexCorruption, VersionBumpFailsAsVersionNegotiation) {
  // The corrupter keeps every checksum valid, so the only possible failure
  // is the version check itself — proving forward files are refused for the
  // right reason, with a message a user can act on.
  std::string bytes = pristine_;
  ASSERT_TRUE(
      ch::corrupt_index_bytes(bytes, 7, ch::IndexFault::kVersionBump).ok());
  auto opened = ix::IndexReader::open(write("future.idx", bytes));
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.error().message.find("version"), std::string::npos)
      << opened.error().message;
}

TEST_F(IndexCorruption, BadSectionHashNamesTheSection) {
  // Table and header hashes are recomputed by the corrupter, so the reader
  // must reach — and report — the per-section checksum mismatch.
  std::string bytes = pristine_;
  const auto done =
      ch::corrupt_index_bytes(bytes, 11, ch::IndexFault::kBadSectionHash);
  ASSERT_TRUE(done.ok());
  auto opened = ix::IndexReader::open(write("badsec.idx", bytes));
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.error().message.find("checksum"), std::string::npos)
      << opened.error().message;
}

TEST_F(IndexCorruption, WrongMagicAndEmptyFileAreRejected) {
  expect_located_failure(write("empty.idx", ""), "empty file");
  expect_located_failure(write("text.idx", "this is not an index\n"),
                         "random text");
  std::string bytes = pristine_;
  bytes[0] = 'X';
  expect_located_failure(write("magic.idx", bytes), "bad magic");
}

TEST_F(IndexCorruption, MissingFileIsALocatedError) {
  auto opened = ix::IndexReader::open((dir_ / "does_not_exist.idx").string());
  ASSERT_FALSE(opened.ok());
  EXPECT_FALSE(opened.error().message.empty());
}

TEST_F(IndexCorruption, CorruptionIsDeterministicPerSeed) {
  for (const auto fault :
       {ch::IndexFault::kAnyBitFlip, ch::IndexFault::kTruncate}) {
    std::string a = pristine_;
    std::string b = pristine_;
    ASSERT_TRUE(ch::corrupt_index_bytes(a, 5, fault).ok());
    ASSERT_TRUE(ch::corrupt_index_bytes(b, 5, fault).ok());
    EXPECT_EQ(a, b) << ch::to_string(fault);
    std::string c = pristine_;
    ASSERT_TRUE(ch::corrupt_index_bytes(c, 6, fault).ok());
    EXPECT_NE(a, c) << ch::to_string(fault) << ": seeds not independent";
  }
}

TEST_F(IndexCorruption, CorruptFileHelperRoundTrips) {
  const auto src = write("src.idx", pristine_);
  const auto dst = (dir_ / "dst.idx").string();
  const auto done = ch::corrupt_index_file(src, dst, 3,
                                           ch::IndexFault::kPayloadBitFlip);
  ASSERT_TRUE(done.ok()) << done.error().message;
  // Source untouched, destination corrupt.
  EXPECT_TRUE(ix::IndexReader::open(src).ok());
  EXPECT_FALSE(ix::IndexReader::open(dst).ok());
}

// A destination that cannot hold the bytes is an error, not a silent
// success: /dev/full accepts the open and fails the flush at close.
TEST_F(IndexCorruption, CorruptFileHelperReportsAFailedWrite) {
  const auto src = write("src_full.idx", pristine_);
  const auto done = ch::corrupt_index_file(src, "/dev/full", 3,
                                           ch::IndexFault::kPayloadBitFlip);
  EXPECT_FALSE(done.ok());
}
