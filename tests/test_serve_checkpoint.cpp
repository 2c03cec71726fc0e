// Serve checkpoint format: round-trip fidelity, corruption rejection, and
// store rotation/fallback.  The invariants under attack: parse_generation
// accepts exactly the frontier bytes serialize_generation wrote — any
// flipped bit, truncation, or version bump yields a structured error (never
// a crash) — and CheckpointStore::load_latest only ever returns a
// generation whose frontier and committed segment blocks all verify,
// falling back to the previous generation or a fresh start otherwise, and
// truncating torn segment tails.
#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include "chaos/checkpoint_chaos.h"
#include "common/io.h"
#include "serve/checkpoint.h"
#include "slurm/job.h"

namespace ch = gpures::chaos;
namespace ct = gpures::common;
namespace sv = gpures::serve;
namespace an = gpures::analysis;
namespace sl = gpures::slurm;
namespace fs = std::filesystem;

namespace {

const ct::TimePoint kDay0 = ct::make_date(2023, 6, 1);

/// Per-process scratch directory: ctest -j runs each case as its own
/// process, so fixed paths would collide.
fs::path temp_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() /
                   ("gpures_serve_ckpt_" + name + "." +
                    std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A checkpoint exercising every frontier section — multiple sources in
/// mixed states, a mid-tail accounting cursor, strays, open coalescer
/// groups — and every result stream: emitted errors, lifecycle records, and
/// a job table with spilled GPU lists.
sv::CheckpointData representative() {
  sv::CheckpointData d;
  d.config_hash = 0x1122334455667788ull;
  d.seq = 7;
  d.tick = 123;
  d.watermark = kDay0 + 2 * ct::kDay;

  sv::SourceSnapshot s0;
  s0.name = "syslog-2023-06-01.log";
  s0.date = kDay0;
  s0.offset = 4096;
  s0.lines_seen = 37;
  s0.existed = true;
  s0.sealed = true;
  s0.counts.kept_lines = 35;
  s0.counts.kept_bytes = 3900;
  s0.counts.binary_lines = 2;
  s0.counts.binary_bytes = 99;
  s0.counts.crlf_bytes = 1;
  d.sources.push_back(s0);

  sv::SourceSnapshot s1;
  s1.name = "syslog-2023-06-02.log";
  s1.date = kDay0 + ct::kDay;
  s1.offset = 128;
  s1.lines_seen = 3;
  s1.existed = true;
  s1.degraded = true;
  s1.recovered = true;
  s1.degrade_reason = "io: read failed: Input/output error";
  s1.last_progress_tick = 99;
  s1.last_event = kDay0 + ct::kDay + 3600;
  d.sources.push_back(s1);

  d.accounting.seen = true;
  d.accounting.offset = 777;
  d.accounting.line_no = 12;
  d.accounting.rows_kept = 10;
  d.accounting.rows_rejected = 1;
  d.accounting.bytes_rejected = 42;

  d.stray_files = {"README.txt", "syslog-2023-06-01.log.bak"};

  an::CoalescedError open_err;
  open_err.time = kDay0 + 100;
  open_err.last = kDay0 + 130;
  open_err.gpu = {1, 3};
  open_err.code = gpures::xid::Code::kGspRpcTimeout;
  open_err.raw_xid = 119;
  open_err.raw_lines = 4;
  d.coalescer.open.push_back(open_err);
  d.coalescer.records_in = 55;
  d.coalescer.errors_out = 11;
  d.coalescer.out_of_order = 1;

  for (int i = 0; i < 3; ++i) {
    an::CoalescedError done = open_err;
    done.time = kDay0 + 1000 * i;
    done.last = done.time + 40;
    done.gpu = {i % 2, i};
    done.raw_xid = static_cast<std::uint16_t>(79 + i);
    done.raw_lines = static_cast<std::uint32_t>(2 + i);
    d.errors.push_back(done);
  }

  for (int i = 0; i < 2; ++i) {
    an::LifecycleRecord lr;
    lr.time = kDay0 + 9000 + 600 * i;
    lr.host = i == 0 ? "gpua002" : "gpub017";
    lr.kind = i == 0 ? an::LifecycleRecord::Kind::kDrain
                     : an::LifecycleRecord::Kind::kResume;
    d.lifecycle.push_back(lr);
  }

  // Wide, narrow, wide: two spilled GPU lists.
  for (int j = 0; j < 3; ++j) {
    sl::JobRecord rec;
    rec.id = static_cast<sl::JobId>(4242 + j);
    rec.name = j == 1 ? "postprocess" : "train-llm";
    rec.submit = kDay0 + j;
    rec.start = kDay0 + 60 + j;
    rec.end = kDay0 + 7260 + j;
    rec.state = j == 2 ? sl::JobState::kFailed : sl::JobState::kCompleted;
    if (j == 1) {
      rec.gpus = 1;
      rec.nodes = 1;
      rec.node_list = {1};
      rec.gpu_list = {{1, 2}};
    } else {
      rec.gpus = 8;
      rec.nodes = 2;
      rec.node_list = {0, 1};
      rec.gpu_list = {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {1, 0}, {1, 1}, {1, 2},
                      {1, 3}};
    }
    d.jobs.add(rec);
  }
  return d;
}

/// The result streams of `d` that generation 1 (one record of each) or
/// generation 2 (all of them) commits.
sv::ResultStreams streams(const sv::CheckpointData& d, std::uint64_t gen) {
  sv::ResultStreams r{d.errors, d.lifecycle, d.jobs.jobs, d.jobs.spill};
  if (gen == 1) {
    r.errors = r.errors.first(1);
    r.lifecycle = r.lifecycle.first(1);
    r.jobs = r.jobs.first(1);
    r.spill = r.spill.first(1);
  }
  return r;
}

/// A store in `dir` holding generations 1 and 2 of representative().
sv::CheckpointStore two_generations(const fs::path& dir) {
  sv::CheckpointStore store(dir, 2);
  sv::CheckpointData d = representative();
  EXPECT_TRUE(store.reset(d.config_hash).ok());
  for (std::uint64_t gen = 1; gen <= 2; ++gen) {
    d.seq = gen;
    d.tick = 100 * gen;
    const auto w = store.write(d, streams(d, gen));
    EXPECT_TRUE(w.ok()) << w.error().message;
  }
  return store;
}

/// The segment extents generation `seq` recorded.
sv::SegmentExtents extents_of(const sv::CheckpointStore& store,
                              std::uint64_t seq) {
  auto bytes = ct::read_file(store.path_for(seq).string());
  EXPECT_TRUE(bytes.ok());
  auto gen = sv::parse_generation(bytes.value());
  EXPECT_TRUE(gen.ok()) << gen.error().message;
  return gen.value().segments;
}

/// Field-exact comparison of loaded results against the streams written.
void expect_results(const sv::CheckpointData& got,
                    const sv::ResultStreams& want) {
  ASSERT_EQ(got.errors.size(), want.errors.size());
  for (std::size_t i = 0; i < want.errors.size(); ++i) {
    const auto& a = got.errors[i];
    const auto& b = want.errors[i];
    EXPECT_EQ(a.time, b.time) << i;
    EXPECT_EQ(a.last, b.last) << i;
    EXPECT_EQ(a.gpu, b.gpu) << i;
    EXPECT_EQ(a.code, b.code) << i;
    EXPECT_EQ(a.raw_xid, b.raw_xid) << i;
    EXPECT_EQ(a.raw_lines, b.raw_lines) << i;
  }
  ASSERT_EQ(got.lifecycle.size(), want.lifecycle.size());
  for (std::size_t i = 0; i < want.lifecycle.size(); ++i) {
    EXPECT_EQ(got.lifecycle[i].time, want.lifecycle[i].time) << i;
    EXPECT_EQ(got.lifecycle[i].host, want.lifecycle[i].host) << i;
    EXPECT_EQ(got.lifecycle[i].kind, want.lifecycle[i].kind) << i;
  }
  ASSERT_EQ(got.jobs.jobs.size(), want.jobs.size());
  for (std::size_t i = 0; i < want.jobs.size(); ++i) {
    const auto& a = got.jobs.jobs[i];
    const auto& b = want.jobs[i];
    EXPECT_EQ(a.id, b.id) << i;
    EXPECT_EQ(a.start, b.start) << i;
    EXPECT_EQ(a.end, b.end) << i;
    EXPECT_EQ(a.gpus, b.gpus) << i;
    EXPECT_EQ(a.state, b.state) << i;
    EXPECT_EQ(a.is_ml, b.is_ml) << i;
    EXPECT_EQ(a.inline_count, b.inline_count) << i;
    EXPECT_EQ(a.gpus_inline, b.gpus_inline) << i;
    EXPECT_EQ(a.spill_index, b.spill_index) << i;
  }
  ASSERT_EQ(got.jobs.spill.size(), want.spill.size());
  for (std::size_t i = 0; i < want.spill.size(); ++i) {
    EXPECT_EQ(got.jobs.spill[i], want.spill[i]) << i;
  }
}

const sv::Segment kSegments[] = {sv::Segment::kErrors, sv::Segment::kLifecycle,
                                 sv::Segment::kJobs, sv::Segment::kSpill};

}  // namespace


TEST(ServeCheckpoint, RoundTripPreservesEveryField) {
  const sv::CheckpointData d = representative();
  sv::SegmentExtents ext;
  for (std::size_t s = 0; s < ext.size(); ++s) {
    ext[s] = {1000 + s, 10 + s, 0xabcdef00ull + s};
  }
  const std::string bytes = serialize_generation(d, ext);
  ASSERT_GE(bytes.size(), sv::kCheckpointHeaderSize);

  auto parsed = sv::parse_generation(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const sv::CheckpointFrontier& r = parsed.value().frontier;

  EXPECT_EQ(r.config_hash, d.config_hash);
  EXPECT_EQ(r.seq, d.seq);
  EXPECT_EQ(r.tick, d.tick);
  EXPECT_EQ(r.watermark, d.watermark);
  ASSERT_EQ(r.sources.size(), d.sources.size());
  for (std::size_t i = 0; i < d.sources.size(); ++i) {
    EXPECT_EQ(r.sources[i].name, d.sources[i].name) << i;
    EXPECT_EQ(r.sources[i].date, d.sources[i].date) << i;
    EXPECT_EQ(r.sources[i].offset, d.sources[i].offset) << i;
    EXPECT_EQ(r.sources[i].lines_seen, d.sources[i].lines_seen) << i;
    EXPECT_EQ(r.sources[i].existed, d.sources[i].existed) << i;
    EXPECT_EQ(r.sources[i].sealed, d.sources[i].sealed) << i;
    EXPECT_EQ(r.sources[i].degraded, d.sources[i].degraded) << i;
    EXPECT_EQ(r.sources[i].recovered, d.sources[i].recovered) << i;
    EXPECT_EQ(r.sources[i].degrade_reason, d.sources[i].degrade_reason) << i;
    EXPECT_EQ(r.sources[i].last_progress_tick, d.sources[i].last_progress_tick)
        << i;
    EXPECT_EQ(r.sources[i].last_event, d.sources[i].last_event) << i;
    EXPECT_EQ(r.sources[i].counts.binary_lines, d.sources[i].counts.binary_lines)
        << i;
    EXPECT_EQ(r.sources[i].counts.kept_bytes, d.sources[i].counts.kept_bytes)
        << i;
    EXPECT_EQ(r.sources[i].counts.crlf_bytes, d.sources[i].counts.crlf_bytes)
        << i;
  }
  EXPECT_EQ(r.accounting.seen, d.accounting.seen);
  EXPECT_EQ(r.accounting.offset, d.accounting.offset);
  EXPECT_EQ(r.accounting.line_no, d.accounting.line_no);
  EXPECT_EQ(r.accounting.rows_kept, d.accounting.rows_kept);
  EXPECT_EQ(r.accounting.rows_rejected, d.accounting.rows_rejected);
  EXPECT_EQ(r.accounting.bytes_rejected, d.accounting.bytes_rejected);
  EXPECT_EQ(r.stray_files, d.stray_files);
  ASSERT_EQ(r.coalescer.open.size(), 1u);
  EXPECT_EQ(r.coalescer.open[0].gpu, d.coalescer.open[0].gpu);
  EXPECT_EQ(r.coalescer.open[0].raw_lines, d.coalescer.open[0].raw_lines);
  EXPECT_EQ(r.coalescer.records_in, d.coalescer.records_in);
  EXPECT_EQ(r.coalescer.errors_out, d.coalescer.errors_out);
  EXPECT_EQ(r.coalescer.out_of_order, d.coalescer.out_of_order);
  for (std::size_t s = 0; s < ext.size(); ++s) {
    EXPECT_EQ(parsed.value().segments[s].bytes, ext[s].bytes) << s;
    EXPECT_EQ(parsed.value().segments[s].records, ext[s].records) << s;
    EXPECT_EQ(parsed.value().segments[s].chain, ext[s].chain) << s;
  }

  // Serializing the parsed copy reproduces the original bytes exactly —
  // nothing is lost or reordered in either direction.
  EXPECT_EQ(serialize_generation(r, parsed.value().segments), bytes);
}

TEST(ServeCheckpoint, EmptyCheckpointRoundTrips) {
  sv::CheckpointFrontier d;
  d.config_hash = 1;
  const std::string bytes = serialize_generation(d, {});
  auto parsed = sv::parse_generation(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value().frontier.sources.size(), 0u);
  EXPECT_EQ(serialize_generation(parsed.value().frontier,
                                 parsed.value().segments),
            bytes);
}

TEST(ServeCheckpoint, BitFlipAnywhereIsAlwaysDetected) {
  const std::string clean = serialize_generation(representative(), {});
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::string bytes = clean;
    auto c = ch::corrupt_checkpoint_bytes(bytes, seed,
                                          ch::CheckpointFault::kAnyBitFlip);
    ASSERT_TRUE(c.ok()) << c.error().message;
    ASSERT_NE(bytes, clean) << c.value().detail;
    auto parsed = sv::parse_generation(bytes);
    EXPECT_FALSE(parsed.ok()) << "seed " << seed << ": " << c.value().detail;
  }
}

TEST(ServeCheckpoint, HeaderAndPayloadFlipsNameTheDefect) {
  const std::string clean = serialize_generation(representative(), {});
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    std::string h = clean;
    auto ch1 = ch::corrupt_checkpoint_bytes(h, seed,
                                            ch::CheckpointFault::kHeaderBitFlip);
    ASSERT_TRUE(ch1.ok());
    auto ph = sv::parse_generation(h);
    ASSERT_FALSE(ph.ok()) << ch1.value().detail;
    EXPECT_FALSE(ph.error().message.empty());

    std::string p = clean;
    auto ch2 = ch::corrupt_checkpoint_bytes(
        p, seed, ch::CheckpointFault::kPayloadBitFlip);
    ASSERT_TRUE(ch2.ok());
    auto pp = sv::parse_generation(p);
    ASSERT_FALSE(pp.ok()) << ch2.value().detail;
  }
}

TEST(ServeCheckpoint, EveryTruncationLengthRejectedGracefully) {
  const std::string clean = serialize_generation(representative(), {});
  // Walk every prefix length; each must fail parse without crashing (the
  // interesting ones are inside the header and one byte short of the end).
  for (std::size_t len = 0; len < clean.size(); ++len) {
    auto parsed = sv::parse_generation(std::string_view(clean).substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix length " << len;
  }
}

TEST(ServeCheckpoint, FutureVersionIsRejectedByVersionCheck) {
  std::string bytes = serialize_generation(representative(), {});
  auto c = ch::corrupt_checkpoint_bytes(bytes, 1,
                                        ch::CheckpointFault::kVersionBump);
  ASSERT_TRUE(c.ok()) << c.error().message;
  auto parsed = sv::parse_generation(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().message.find("version"), std::string::npos)
      << parsed.error().message;
}

TEST(ServeCheckpointStore, RotationKeepsNewestTwoGenerations) {
  const auto dir = temp_dir("rotate");
  sv::CheckpointStore store(dir, 2);
  sv::CheckpointData d = representative();
  ASSERT_TRUE(store.reset(d.config_hash).ok());
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    d.seq = seq;
    const auto w = store.write(d, streams(d, seq == 1 ? 1 : 2));
    ASSERT_TRUE(w.ok()) << w.error().message;
  }
  EXPECT_FALSE(fs::exists(store.path_for(1)));
  EXPECT_FALSE(fs::exists(store.path_for(2)));
  EXPECT_FALSE(fs::exists(store.path_for(3)));
  EXPECT_TRUE(fs::exists(store.path_for(4)));
  EXPECT_TRUE(fs::exists(store.path_for(5)));

  sv::CheckpointStore reopened(dir, 2);
  auto latest = reopened.load_latest(nullptr);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_EQ(latest.value()->seq, 5u);
  expect_results(*latest.value(), streams(d, 2));
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, SegmentsRoundTripEveryRecordAndAppendOnlyTheDelta) {
  const auto dir = temp_dir("segments");
  const sv::CheckpointData d = representative();
  sv::CheckpointStore store = two_generations(dir);
  const auto e1 = extents_of(store, 1);
  const auto e2 = extents_of(store, 2);
  for (const auto seg : kSegments) {
    const auto s = static_cast<std::size_t>(seg);
    // Generation 2 appended exactly one block past generation 1's.
    EXPECT_GT(e2[s].bytes, e1[s].bytes) << s;
    EXPECT_EQ(fs::file_size(store.segment_path(seg)), e2[s].bytes) << s;
  }
  EXPECT_EQ(e1[0].records, 1u);
  EXPECT_EQ(e2[0].records, d.errors.size());

  // A write with nothing new appends nothing: only the frontier is written.
  sv::CheckpointData again = d;
  again.seq = 3;
  const auto w = store.write(again, streams(d, 2));
  ASSERT_TRUE(w.ok()) << w.error().message;
  EXPECT_EQ(w.value(), fs::file_size(store.path_for(3)));

  sv::CheckpointStore reopened(dir, 2);
  auto latest = reopened.load_latest(nullptr);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_EQ(latest.value()->seq, 3u);
  EXPECT_EQ(latest.value()->tick, d.tick);
  EXPECT_EQ(latest.value()->sources.size(), d.sources.size());
  expect_results(*latest.value(), streams(d, 2));
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, CorruptNewestFallsBackToPreviousGeneration) {
  const auto dir = temp_dir("fallback");
  const sv::CheckpointData d = representative();
  sv::CheckpointStore store = two_generations(dir);
  const auto e1 = extents_of(store, 1);

  auto c = ch::corrupt_checkpoint_file(store.path_for(2), store.path_for(2),
                                       77, ch::CheckpointFault::kPayloadBitFlip);
  ASSERT_TRUE(c.ok()) << c.error().message;

  std::vector<std::string> notes;
  sv::CheckpointStore reopened(dir, 2);
  auto latest = reopened.load_latest([&](const std::string& n) {
    notes.push_back(n);
  });
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_EQ(latest.value()->seq, 1u);
  EXPECT_EQ(latest.value()->tick, 100u);
  expect_results(*latest.value(), streams(d, 1));
  ASSERT_FALSE(notes.empty());
  // Resuming from generation 1 cut every segment back to its committed
  // length and dropped the failed generation.
  for (const auto seg : kSegments) {
    EXPECT_EQ(fs::file_size(reopened.segment_path(seg)),
              e1[static_cast<std::size_t>(seg)].bytes);
  }
  EXPECT_FALSE(fs::exists(reopened.path_for(2)));

  // The resumed store writes generation 2 again, and it verifies.
  sv::CheckpointData next = d;
  next.seq = 2;
  ASSERT_TRUE(reopened.write(next, streams(d, 2)).ok());
  sv::CheckpointStore third(dir, 2);
  auto again = third.load_latest(nullptr);
  ASSERT_TRUE(again.ok() && again.value().has_value());
  EXPECT_EQ(again.value()->seq, 2u);
  expect_results(*again.value(), streams(d, 2));
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, AllGenerationsCorruptMeansFreshStart) {
  const auto dir = temp_dir("all_corrupt");
  sv::CheckpointStore store = two_generations(dir);
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    auto c = ch::corrupt_checkpoint_file(store.path_for(seq),
                                         store.path_for(seq), seq,
                                         ch::CheckpointFault::kTruncate);
    ASSERT_TRUE(c.ok()) << c.error().message;
  }
  sv::CheckpointStore reopened(dir, 2);
  auto latest = reopened.load_latest(nullptr);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  EXPECT_FALSE(latest.value().has_value());
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, EmptyDirectoryIsFreshStart) {
  const auto dir = temp_dir("empty");
  sv::CheckpointStore store(dir, 2);
  auto latest = store.load_latest(nullptr);
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  EXPECT_FALSE(latest.value().has_value());
  // Nothing loaded and no reset(): writing is refused, not guessed.
  EXPECT_FALSE(store.write(representative(), {}).ok());
  fs::remove_all(dir);
}

TEST(ServeCheckpointStore, FreshStartClearsOldSegments) {
  const auto dir = temp_dir("fresh");
  two_generations(dir);
  sv::CheckpointStore store(dir, 2);
  ASSERT_TRUE(store.reset(0x99).ok());
  EXPECT_FALSE(fs::exists(store.path_for(1)));
  EXPECT_FALSE(fs::exists(store.path_for(2)));
  for (const auto seg : kSegments) {
    EXPECT_EQ(fs::file_size(store.segment_path(seg)), sv::kSegmentHeaderSize);
  }
  // A new run's first generation holds only its own records.
  sv::CheckpointData d = representative();
  d.config_hash = 0x99;
  d.seq = 1;
  ASSERT_TRUE(store.write(d, streams(d, 1)).ok());
  sv::CheckpointStore reopened(dir, 2);
  auto latest = reopened.load_latest(nullptr);
  ASSERT_TRUE(latest.ok() && latest.value().has_value());
  EXPECT_EQ(latest.value()->config_hash, 0x99u);
  expect_results(*latest.value(), streams(d, 1));
  fs::remove_all(dir);
}

// A flipped bit anywhere in a committed block of any segment is detected:
// load_latest falls back to generation 1 when the bit lies past generation
// 1's committed length, starts fresh when it lies inside it, and whatever
// it returns carries exactly the records that generation wrote.
TEST(ServeCheckpointSegments, BlockBitFlipFallsBackOrStartsFresh) {
  const auto dir = temp_dir("seg_flip");
  const sv::CheckpointData d = representative();
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    fs::remove_all(dir);
    sv::CheckpointStore store = two_generations(dir);
    const auto e1 = extents_of(store, 1);
    const sv::Segment seg = kSegments[seed % 4];
    const auto path = store.segment_path(seg);
    auto c = ch::corrupt_segment_file(path, path, seed,
                                      ch::SegmentFault::kBlockBitFlip);
    ASSERT_TRUE(c.ok()) << c.error().message;

    std::vector<std::string> notes;
    sv::CheckpointStore reopened(dir, 2);
    auto latest = reopened.load_latest([&](const std::string& n) {
      notes.push_back(n);
    });
    ASSERT_TRUE(latest.ok()) << latest.error().message;
    ASSERT_FALSE(notes.empty()) << "seed " << seed << ": " << c.value().detail;
    if (c.value().byte_offset < e1[static_cast<std::size_t>(seg)].bytes) {
      EXPECT_FALSE(latest.value().has_value())
          << "seed " << seed << ": " << c.value().detail;
    } else {
      ASSERT_TRUE(latest.value().has_value())
          << "seed " << seed << ": " << c.value().detail;
      EXPECT_EQ(latest.value()->seq, 1u);
      expect_results(*latest.value(), streams(d, 1));
    }
  }
  fs::remove_all(dir);
}

TEST(ServeCheckpointSegments, EveryTruncationLengthIsRefused) {
  const auto dir = temp_dir("seg_trunc");
  const sv::CheckpointData d = representative();
  for (const auto seg : kSegments) {
    fs::remove_all(dir);
    const auto e1 = extents_of(two_generations(dir), 1);
    const auto s = static_cast<std::size_t>(seg);
    const auto full = ct::read_file(
        sv::CheckpointStore(dir, 2).segment_path(seg).string());
    ASSERT_TRUE(full.ok());
    for (std::size_t len = 0; len < full.value().size(); ++len) {
      fs::remove_all(dir);
      sv::CheckpointStore store = two_generations(dir);
      ASSERT_TRUE(ct::write_text_file(store.segment_path(seg).string(),
                                      full.value().substr(0, len))
                      .ok());
      sv::CheckpointStore reopened(dir, 2);
      auto latest = reopened.load_latest(nullptr);
      ASSERT_TRUE(latest.ok()) << latest.error().message;
      if (len < e1[s].bytes) {
        EXPECT_FALSE(latest.value().has_value()) << s << " len " << len;
      } else {
        ASSERT_TRUE(latest.value().has_value()) << s << " len " << len;
        EXPECT_EQ(latest.value()->seq, 1u) << s << " len " << len;
        expect_results(*latest.value(), streams(d, 1));
      }
    }
  }
  fs::remove_all(dir);
}

// A crash between the segment appends and the frontier rename leaves bytes
// past the committed length; resume cuts them off and carries on.
TEST(ServeCheckpointSegments, TornTailIsTruncatedOnResume) {
  const auto dir = temp_dir("seg_torn");
  const sv::CheckpointData d = representative();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    fs::remove_all(dir);
    sv::CheckpointStore store = two_generations(dir);
    const auto e2 = extents_of(store, 2);
    for (const auto seg : kSegments) {
      const auto path = store.segment_path(seg);
      auto c = ch::corrupt_segment_file(path, path, seed,
                                        ch::SegmentFault::kTornTail);
      ASSERT_TRUE(c.ok()) << c.error().message;
    }
    sv::CheckpointStore reopened(dir, 2);
    auto latest = reopened.load_latest(nullptr);
    ASSERT_TRUE(latest.ok()) << latest.error().message;
    ASSERT_TRUE(latest.value().has_value()) << "seed " << seed;
    EXPECT_EQ(latest.value()->seq, 2u);
    expect_results(*latest.value(), streams(d, 2));
    for (const auto seg : kSegments) {
      EXPECT_EQ(fs::file_size(reopened.segment_path(seg)),
                e2[static_cast<std::size_t>(seg)].bytes);
    }
  }
  fs::remove_all(dir);
}

TEST(ServeCheckpointSegments, MissingOrForeignSegmentIsRefused) {
  const auto dir = temp_dir("seg_foreign");
  for (const auto seg : kSegments) {
    for (const int mode : {0, 1, 2}) {
      fs::remove_all(dir);
      sv::CheckpointStore store = two_generations(dir);
      const auto path = store.segment_path(seg);
      std::string expect_in_note;
      if (mode == 0) {
        fs::remove(path);
        expect_in_note = path.filename().string();
      } else if (mode == 1) {
        ASSERT_TRUE(ch::corrupt_segment_file(path, path, 5,
                                             ch::SegmentFault::kForeignConfig)
                        .ok());
        expect_in_note = "config_hash";
      } else {
        ASSERT_TRUE(ch::corrupt_segment_file(path, path, 5,
                                             ch::SegmentFault::kHeaderBitFlip)
                        .ok());
        expect_in_note = "header";
      }
      std::vector<std::string> notes;
      sv::CheckpointStore reopened(dir, 2);
      auto latest = reopened.load_latest([&](const std::string& n) {
        notes.push_back(n);
      });
      ASSERT_TRUE(latest.ok()) << latest.error().message;
      EXPECT_FALSE(latest.value().has_value()) << "mode " << mode;
      ASSERT_EQ(notes.size(), 2u) << "mode " << mode;
      EXPECT_NE(notes[0].find(expect_in_note), std::string::npos)
          << notes[0];
    }
  }
  fs::remove_all(dir);
}

// Blocks that verify on their own but were written by another run with the
// same configuration do not match the generation's hash chain.
TEST(ServeCheckpointSegments, SameShapedSegmentOfAnotherRunIsRefused) {
  const auto dir = temp_dir("seg_other_run");
  const auto other = temp_dir("seg_other_run_b");
  sv::CheckpointStore store = two_generations(dir);
  {
    sv::CheckpointData d = representative();
    for (auto& e : d.errors) e.raw_lines += 1;  // same sizes, other content
    sv::CheckpointStore b(other, 2);
    ASSERT_TRUE(b.reset(d.config_hash).ok());
    for (std::uint64_t gen = 1; gen <= 2; ++gen) {
      d.seq = gen;
      ASSERT_TRUE(b.write(d, streams(d, gen)).ok());
    }
    fs::copy_file(b.segment_path(sv::Segment::kErrors),
                  store.segment_path(sv::Segment::kErrors),
                  fs::copy_options::overwrite_existing);
  }
  std::vector<std::string> notes;
  sv::CheckpointStore reopened(dir, 2);
  auto latest = reopened.load_latest([&](const std::string& n) {
    notes.push_back(n);
  });
  ASSERT_TRUE(latest.ok()) << latest.error().message;
  EXPECT_FALSE(latest.value().has_value());
  ASSERT_EQ(notes.size(), 2u);
  EXPECT_NE(notes[0].find("chain"), std::string::npos) << notes[0];
  fs::remove_all(dir);
  fs::remove_all(other);
}
