// Stage I robustness: deterministic mutation fuzzing of well-formed lines.
// Real consolidated logs contain truncated, corrupted, and interleaved
// lines; the parser must never crash, never mis-parse garbage into a record,
// and must stay in agreement with the regex reference on every mutant.
#include <gtest/gtest.h>

#include <variant>

#include "analysis/extraction.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "logsys/syslog.h"
#include "simd/scan.h"
#include "slurm/accounting.h"

namespace an = gpures::analysis;
namespace ct = gpures::common;
namespace gx = gpures::xid;
namespace ls = gpures::logsys;

namespace {

const ct::TimePoint kDay = ct::make_date(2023, 6, 15);

std::vector<std::string> seed_lines() {
  std::vector<std::string> lines;
  lines.push_back(ls::render_xid_line(kDay + 3600, "gpua042", "0000:27:00",
                                      gx::Code::kUncontainedEccError,
                                      "Uncontained ECC error, address 0x1f"));
  lines.push_back(ls::render_xid_line(kDay + 7200, "gpub003", "0000:E7:00",
                                      gx::Code::kGspRpcTimeout,
                                      "Timeout waiting for RPC from GSP!"));
  lines.push_back(ls::render_drain_line(kDay + 9000, "gpua001"));
  lines.push_back(ls::render_resume_line(kDay + 9500, "gpua001"));
  return lines;
}

std::string mutate(const std::string& line, ct::Rng& rng) {
  std::string m = line;
  switch (rng.uniform_u64(6)) {
    case 0:  // truncate
      m.resize(rng.uniform_u64(m.size() + 1));
      break;
    case 1: {  // corrupt one byte
      if (!m.empty()) {
        m[rng.uniform_u64(m.size())] =
            static_cast<char>(32 + rng.uniform_u64(95));
      }
      break;
    }
    case 2:  // duplicate a chunk
      m += m.substr(m.size() / 2);
      break;
    case 3: {  // delete a span
      if (m.size() > 4) {
        const auto at = rng.uniform_u64(m.size() - 3);
        m.erase(at, rng.uniform_u64(3) + 1);
      }
      break;
    }
    case 4:  // splice two lines together
      m += " " + line;
      break;
    case 5: {  // inject control characters
      if (!m.empty()) {
        m[rng.uniform_u64(m.size())] = static_cast<char>(rng.uniform_u64(32));
      }
      break;
    }
  }
  return m;
}

}  // namespace

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, MutantsNeverCrashAndParsersAgree) {
  an::FastLineParser fast;
  an::RegexLineParser ref;
  ct::Rng rng(GetParam());
  const auto seeds = seed_lines();

  for (int trial = 0; trial < 6000; ++trial) {
    const auto& base = seeds[rng.uniform_u64(seeds.size())];
    const auto mutant = mutate(base, rng);
    const auto a = fast.parse(mutant, kDay);
    const auto b = ref.parse(mutant, kDay);
    // Matchers may legitimately differ on pathological inputs only in one
    // narrow way: both must agree on *acceptance*; if both accept, the
    // extracted records must be identical.
    ASSERT_EQ(a.has_value(), b.has_value()) << "line: " << mutant;
    if (!a) continue;
    ASSERT_EQ(a->index(), b->index()) << mutant;
    if (const auto* xa = std::get_if<an::XidRecord>(&*a)) {
      const auto& xb = std::get<an::XidRecord>(*b);
      EXPECT_EQ(xa->time, xb.time) << mutant;
      EXPECT_EQ(xa->host, xb.host) << mutant;
      EXPECT_EQ(xa->pci, xb.pci) << mutant;
      EXPECT_EQ(xa->xid, xb.xid) << mutant;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(12345, 2, 3, 4, 5, 6, 7, 8));

TEST(ParserRobustness, AcceptedMutantsHaveSaneFields) {
  an::FastLineParser fast;
  ct::Rng rng(777);
  const auto seeds = seed_lines();
  for (int trial = 0; trial < 8000; ++trial) {
    const auto mutant = mutate(seeds[rng.uniform_u64(seeds.size())], rng);
    const auto parsed = fast.parse(mutant, kDay);
    if (!parsed) continue;
    if (const auto* x = std::get_if<an::XidRecord>(&*parsed)) {
      EXPECT_FALSE(x->host.empty());
      EXPECT_FALSE(x->pci.empty());
      // Timestamp stays within a day of the file date (year-rollover aside).
      EXPECT_GE(x->time, kDay - ct::kDay);
      EXPECT_LT(x->time, kDay + 2 * ct::kDay);
    } else {
      EXPECT_FALSE(std::get<an::LifecycleRecord>(*parsed).host.empty());
    }
  }
}

TEST(ParserRobustness, BinaryGarbageRejected) {
  an::FastLineParser fast;
  ct::Rng rng(31337);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string garbage;
    const auto len = rng.uniform_u64(200);
    for (std::uint64_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.uniform_u64(256));
    }
    EXPECT_FALSE(fast.parse(garbage, kDay).has_value());
  }
}

TEST(ParserRobustness, MutantsParseIdenticallyUnderEveryScanBackend) {
  // The fast parser's terminator check, prefilter, and field splits all run
  // through the dispatched scan kernels; every backend must accept and
  // reject the exact same mutants with the exact same extracted fields.
  namespace sd = gpures::simd;
  const auto saved = sd::active();
  an::FastLineParser fast;
  ct::Rng rng(5150);
  const auto seeds = seed_lines();
  for (int trial = 0; trial < 4000; ++trial) {
    const auto mutant = mutate(seeds[rng.uniform_u64(seeds.size())], rng);
    ASSERT_TRUE(sd::set_active(sd::Backend::kScalar));
    const auto ref = fast.parse(mutant, kDay);
    for (const auto backend : sd::all_available()) {
      ASSERT_TRUE(sd::set_active(backend));
      const auto got = fast.parse(mutant, kDay);
      ASSERT_EQ(got.has_value(), ref.has_value())
          << sd::to_string(backend) << ": " << mutant;
      if (!got) continue;
      ASSERT_EQ(got->index(), ref->index()) << mutant;
      if (const auto* xa = std::get_if<an::XidRecord>(&*got)) {
        const auto& xb = std::get<an::XidRecord>(*ref);
        ASSERT_EQ(xa->time, xb.time) << mutant;
        ASSERT_EQ(xa->host, xb.host) << mutant;
        ASSERT_EQ(xa->pci, xb.pci) << mutant;
        ASSERT_EQ(xa->xid, xb.xid) << mutant;
        ASSERT_EQ(xa->detail, xb.detail) << mutant;
      } else {
        const auto& la = std::get<an::LifecycleRecord>(*got);
        const auto& lb = std::get<an::LifecycleRecord>(*ref);
        ASSERT_EQ(la.time, lb.time) << mutant;
        ASSERT_EQ(la.host, lb.host) << mutant;
        ASSERT_EQ(la.kind, lb.kind) << mutant;
      }
    }
  }
  sd::set_active(saved);
}

// ---- Slurm accounting parser under the same mutation harness ----

namespace {

namespace cl = gpures::cluster;
namespace sl = gpures::slurm;

std::vector<std::string> accounting_seed_lines(const cl::Topology& topo) {
  std::vector<std::string> lines;
  sl::JobRecord a;
  a.id = 17;
  a.name = "train-llm";
  a.submit = kDay;
  a.start = kDay + 60;
  a.end = kDay + 3660;
  a.gpus = 4;
  a.nodes = 1;
  a.state = sl::JobState::kCompleted;
  a.node_list = {0};
  a.gpu_list = {{0, 0}, {0, 1}, {0, 2}, {0, 3}};
  lines.push_back(sl::to_accounting_line(a, topo));
  sl::JobRecord b;
  b.id = 18;
  b.name = "cfd|solver";  // field-separator character in the name
  b.submit = kDay + 100;
  b.start = kDay + 200;
  b.end = kDay + 500;
  b.gpus = 1;
  b.nodes = 1;
  b.state = sl::JobState::kNodeFail;
  b.exit_code = 1;
  b.node_list = {1};
  b.gpu_list = {{1, 7}};
  lines.push_back(sl::to_accounting_line(b, topo));
  return lines;
}

}  // namespace

class AccountingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AccountingFuzz, MutantsNeverCrashAndAcceptedMutantsAreSane) {
  const cl::Topology topo(cl::ClusterSpec::small(1, 1));
  const auto seeds = accounting_seed_lines(topo);
  ct::Rng rng(GetParam());
  int accepted = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const auto mutant = mutate(seeds[rng.uniform_u64(seeds.size())], rng);
    const auto rec = sl::parse_accounting_line(mutant, topo);
    if (!rec.ok()) {
      EXPECT_FALSE(rec.error().message.empty());
      continue;
    }
    ++accepted;
    // Whatever survives parsing must satisfy the record invariants the
    // analysis stages rely on; a mutant that parses into nonsense would
    // poison Tables II/III silently.
    const auto& r = rec.value();
    EXPECT_GE(r.start, r.submit) << mutant;
    EXPECT_GE(r.end, r.start) << mutant;
    EXPECT_GT(r.gpus, 0) << mutant;
    EXPECT_GT(r.nodes, 0) << mutant;
    for (const auto n : r.node_list) {
      ASSERT_GE(n, 0) << mutant;
      ASSERT_LT(n, topo.node_count()) << mutant;
    }
    for (const auto g : r.gpu_list) {
      ASSERT_GE(g.node, 0) << mutant;
      ASSERT_LT(g.node, topo.node_count()) << mutant;
      ASSERT_GE(g.slot, 0) << mutant;
    }
  }
  // The harness must exercise both outcomes: unmutated-equivalent lines
  // parse, and heavy mutants get rejected.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 6000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountingFuzz,
                         ::testing::Values(1001, 1002, 1003, 1004));

TEST(AccountingRobustness, BinaryGarbageRejected) {
  const cl::Topology topo(cl::ClusterSpec::small(1, 0));
  ct::Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string garbage;
    const auto len = rng.uniform_u64(300);
    for (std::uint64_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.uniform_u64(256));
    }
    EXPECT_FALSE(sl::parse_accounting_line(garbage, topo).ok());
  }
}
