// Differential tests for the Stage-I scan kernel family: both backends
// (scalar, and AVX2 where the host has it) must return bit-identical results
// on every input.  The scalar backend is itself checked against independent
// naive reference loops written here, so the chain is
// naive -> scalar -> avx2.
//
// Boundary coverage is deliberate: short lengths and lengths straddling the
// 32-byte AVX2 lane (0, 1, 7..9, 15..17, 31..33, 63..65), a newline in the
// final partial lane, and a lone '\r' at a chunk edge — the places where a
// vector loop hands off to its scalar tail.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/rng.h"
#include "simd/scan.h"
#include "xid/xid.h"

namespace sd = gpures::simd;
namespace ct = gpures::common;
namespace gx = gpures::xid;

namespace {

// Independent references (no memchr, no tricks) — the ground truth the
// scalar backend is held to.
std::size_t ref_find_byte(const std::string& s, char c) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == c) return i;
  }
  return s.size();
}

std::size_t ref_find_terminator(const std::string& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\n' || s[i] == '\r') return i;
  }
  return s.size();
}

bool ref_is_binary_byte(unsigned char c) {
  return (c < 0x20 && c != '\t') || c == 0x7f;
}

sd::LineScan ref_next_line(const std::string& s) {
  sd::LineScan out;
  std::size_t i = 0;
  for (; i < s.size(); ++i) {
    if (s[i] == '\n') break;
    out.binary =
        out.binary || ref_is_binary_byte(static_cast<unsigned char>(s[i]));
  }
  out.eol = i;
  return out;
}

std::size_t ref_count_byte(const std::string& s, char c) {
  std::size_t n = 0;
  for (const char b : s) n += (b == c);
  return n;
}

std::size_t ref_find_substr(const std::string& s, const std::string& q) {
  if (q.empty() || q.size() > s.size()) return s.size();
  for (std::size_t i = 0; i + q.size() <= s.size(); ++i) {
    if (std::memcmp(s.data() + i, q.data(), q.size()) == 0) return i;
  }
  return s.size();
}

// Every kernel of every available backend against the reference, on one
// haystack.  Needles cover short/long and hit/miss cases.
void check_all_backends(const std::string& s) {
  const std::size_t n = s.size();
  const char probes[] = {'\n', '\r', 'a', ' ', '\0', '\t', '\x7f', 'z'};
  const std::vector<std::string> needles = {
      "a",  "ab", "NVRM: Xid", "update_node:", "\r\n", "zz9",
      s.size() >= 5 ? s.substr(s.size() / 2, 4) : std::string("q")};
  for (const auto backend : sd::all_available()) {
    const auto& k = sd::ops(backend);
    const auto label = std::string(sd::to_string(backend));
    for (const char c : probes) {
      ASSERT_EQ(k.find_byte(s.data(), n, c), ref_find_byte(s, c))
          << label << " find_byte('" << static_cast<int>(c) << "') n=" << n;
      ASSERT_EQ(k.count_byte(s.data(), n, c), ref_count_byte(s, c))
          << label << " count_byte n=" << n;
    }
    ASSERT_EQ(k.find_terminator(s.data(), n), ref_find_terminator(s))
        << label << " find_terminator n=" << n;
    const auto got = k.next_line(s.data(), n);
    const auto want = ref_next_line(s);
    ASSERT_EQ(got.eol, want.eol) << label << " next_line eol n=" << n;
    ASSERT_EQ(got.binary, want.binary) << label << " next_line binary n=" << n;
    for (const auto& q : needles) {
      ASSERT_EQ(k.find_substr(s.data(), n, q.data(), q.size()),
                ref_find_substr(s, q))
          << label << " find_substr(\"" << q << "\") n=" << n;
    }
  }
}

const std::vector<std::size_t>& boundary_lengths() {
  static const std::vector<std::size_t> kLens = {0,  1,  7,  8,  9,  15, 16,
                                                 17, 31, 32, 33, 63, 64, 65};
  return kLens;
}

}  // namespace

TEST(SimdScan, BoundaryLengthsPlainAscii) {
  for (const std::size_t len : boundary_lengths()) {
    std::string s(len, 'x');
    check_all_backends(s);
  }
}

TEST(SimdScan, NewlineAtEveryPositionOfBoundaryLengths) {
  // Newline in the final lane, first lane, and everywhere in between —
  // including position n-1 (the last byte of a partial vector tail).
  for (const std::size_t len : boundary_lengths()) {
    for (std::size_t at = 0; at < len; ++at) {
      std::string s(len, 'x');
      s[at] = '\n';
      check_all_backends(s);
    }
  }
}

TEST(SimdScan, LoneCarriageReturnAtChunkEdges) {
  // A lone '\r' (binary content post-normalization) straddling every 8- and
  // 32-byte chunk edge, with and without a later newline.
  for (const std::size_t len : {15u, 16u, 17u, 31u, 32u, 33u, 65u}) {
    for (const std::size_t at : {0u, 6u, 7u, 8u, 9u, 14u, 15u, 16u, 17u,
                                 30u, 31u, 32u, 33u, 63u, 64u}) {
      if (at >= len) continue;
      std::string s(len, 'y');
      s[at] = '\r';
      check_all_backends(s);
      if (at + 2 < len) {
        s[at + 2] = '\n';
        check_all_backends(s);
      }
    }
  }
}

TEST(SimdScan, BinaryBytesNearNewlines) {
  // Binary classification must cover exactly the bytes before the first
  // newline: a control byte after it must not leak into the verdict.
  std::string s(40, 'x');
  s[20] = '\n';
  s[25] = '\x01';  // after the newline: irrelevant
  check_all_backends(s);
  for (const auto backend : sd::all_available()) {
    const auto r = sd::ops(backend).next_line(s.data(), s.size());
    EXPECT_EQ(r.eol, 20u);
    EXPECT_FALSE(r.binary) << sd::to_string(backend);
  }
  s[19] = '\x01';  // immediately before the newline
  for (const auto backend : sd::all_available()) {
    const auto r = sd::ops(backend).next_line(s.data(), s.size());
    EXPECT_EQ(r.eol, 20u);
    EXPECT_TRUE(r.binary) << sd::to_string(backend);
  }
}

TEST(SimdScan, TabIsNotBinaryDelIs) {
  std::string s = "col1\tcol2\tcol3";
  check_all_backends(s);
  for (const auto backend : sd::all_available()) {
    EXPECT_FALSE(sd::ops(backend).next_line(s.data(), s.size()).binary);
  }
  s[5] = '\x7f';
  for (const auto backend : sd::all_available()) {
    EXPECT_TRUE(sd::ops(backend).next_line(s.data(), s.size()).binary);
  }
}

TEST(SimdScan, HighBitBytesAreNotBinary) {
  // UTF-8 continuation bytes (>= 0x80) are ordinary text to the screen; a
  // sign-extension bug in a vector compare would misclassify them.
  std::string s = "caf\xc3\xa9 latt\xc3\xa9 \xf0\x9f\x94\xa5";
  check_all_backends(s);
  for (const auto backend : sd::all_available()) {
    EXPECT_FALSE(sd::ops(backend).next_line(s.data(), s.size()).binary)
        << sd::to_string(backend);
  }
}

TEST(SimdScan, RandomFuzzAllBackendsAgree) {
  ct::Rng rng(20240917);
  // Alphabet weighted toward the interesting bytes: terminators, tabs,
  // controls, DEL, high-bit, and repeats of the substring needles' bytes.
  const std::string alphabet =
      "\n\n\r\t\x01\x1f\x7f\x80\xff  NVRM: Xidupdate_node:abcxyz0123";
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t len = rng.uniform_u64(200);
    std::string s;
    s.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      s += alphabet[rng.uniform_u64(alphabet.size())];
    }
    check_all_backends(s);
  }
}

TEST(SimdScan, SubstrNeedleLongerThanHaystack) {
  const std::string s = "short";
  for (const auto backend : sd::all_available()) {
    const auto& k = sd::ops(backend);
    EXPECT_EQ(k.find_substr(s.data(), s.size(), "longer needle", 13), s.size());
    EXPECT_EQ(k.find_substr(s.data(), s.size(), "short", 5), 0u);
    EXPECT_EQ(k.find_substr(s.data(), s.size(), "ort", 3), 2u);
  }
}

TEST(SimdScan, EmptyInputIsSafe) {
  for (const auto backend : sd::all_available()) {
    const auto& k = sd::ops(backend);
    EXPECT_EQ(k.find_byte(nullptr, 0, 'x'), 0u);
    EXPECT_EQ(k.find_terminator(nullptr, 0), 0u);
    EXPECT_EQ(k.count_byte(nullptr, 0, 'x'), 0u);
    const auto r = k.next_line(nullptr, 0);
    EXPECT_EQ(r.eol, 0u);
    EXPECT_FALSE(r.binary);
  }
}

// ---- dispatch --------------------------------------------------------------

TEST(SimdDispatch, CpuidAloneSelectsBackend) {
  // Probed here independently of src/simd: AVX2 exactly when CPUID reports
  // it, the scalar reference otherwise.  Every test that pins a backend
  // restores the previous one, so this holds in a whole-binary run too.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  const bool avx2 = __builtin_cpu_supports("avx2");
#else
  const bool avx2 = false;
#endif
  EXPECT_EQ(sd::active(), avx2 ? sd::Backend::kAvx2 : sd::Backend::kScalar);
  const auto all = sd::all_available();
  ASSERT_EQ(all.size(), avx2 ? 2u : 1u);
  EXPECT_EQ(all[0], sd::Backend::kScalar);
  EXPECT_EQ(sd::to_string(sd::active()), avx2 ? "avx2" : "scalar");
}

TEST(SimdDispatch, SetActiveRoundTrips) {
  const auto before = sd::active();
  for (const auto b : sd::all_available()) {
    ASSERT_TRUE(sd::set_active(b));
    EXPECT_EQ(sd::active(), b);
    // active_ops() must hand out the table for the active backend.
    EXPECT_EQ(&sd::active_ops(), &sd::ops(b));
  }
  if (sd::all_available().back() != sd::Backend::kAvx2) {
    EXPECT_FALSE(sd::set_active(sd::Backend::kAvx2));
    EXPECT_EQ(&sd::ops(sd::Backend::kAvx2), &sd::ops(sd::Backend::kScalar));
  }
  ASSERT_TRUE(sd::set_active(before));
}

// ---- branchless fixed-field parsing ---------------------------------------

TEST(ParseHelpers, TwoDigitExhaustive) {
  // All 65536 two-byte inputs against a trivial reference.
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const char buf[2] = {static_cast<char>(a), static_cast<char>(b)};
      const bool digits = (a >= '0' && a <= '9') && (b >= '0' && b <= '9');
      const int want = digits ? (a - '0') * 10 + (b - '0') : -1;
      ASSERT_EQ(ct::parse_2digit(buf), want) << a << "," << b;
    }
  }
}

TEST(ParseHelpers, DayOfMonthExhaustive) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const char buf[2] = {static_cast<char>(a), static_cast<char>(b)};
      int want = -1;
      if (b >= '0' && b <= '9') {
        if (a == ' ') {
          want = b - '0';
        } else if (a >= '0' && a <= '9') {
          want = (a - '0') * 10 + (b - '0');
        }
      }
      ASSERT_EQ(ct::parse_day_of_month(buf), want) << a << "," << b;
    }
  }
}

TEST(ParseHelpers, HhmmssAcceptsEveryValidTime) {
  char buf[9];
  for (int h = 0; h < 24; ++h) {
    for (int m = 0; m < 60; m += 7) {
      for (int s = 0; s < 60; s += 11) {
        std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d", h, m, s);
        ASSERT_EQ(ct::parse_hhmmss(buf), h * 3600 + m * 60 + s) << buf;
      }
    }
  }
  // The OR-fold regression: every digit individually valid but the OR of
  // their values exceeding 9 (5|9 == 13) must still parse.
  EXPECT_EQ(ct::parse_hhmmss("23:59:59"), 86399);
  EXPECT_EQ(ct::parse_hhmmss("19:25:53"), 69953);
}

TEST(ParseHelpers, HhmmssRejectsMalformed) {
  EXPECT_EQ(ct::parse_hhmmss("24:00:00"), -1);
  EXPECT_EQ(ct::parse_hhmmss("23:60:00"), -1);
  EXPECT_EQ(ct::parse_hhmmss("23:00:60"), -1);
  EXPECT_EQ(ct::parse_hhmmss("2a:00:00"), -1);
  EXPECT_EQ(ct::parse_hhmmss("23 00:00"), -1);
  EXPECT_EQ(ct::parse_hhmmss("23:00 00"), -1);
  EXPECT_EQ(ct::parse_hhmmss("-3:00:00"), -1);
  EXPECT_EQ(ct::parse_hhmmss("23:0 :00"), -1);
}

TEST(ParseHelpers, MonthNumberPerfectHash) {
  const char* names[12] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  for (int m = 0; m < 12; ++m) {
    EXPECT_EQ(ct::month_number(names[m]), m + 1) << names[m];
  }
  EXPECT_EQ(ct::month_number("jan"), 0);
  EXPECT_EQ(ct::month_number("JAN"), 0);
  EXPECT_EQ(ct::month_number("Mai"), 0);
  EXPECT_EQ(ct::month_number("Ja "), 0);
  EXPECT_EQ(ct::month_number("   "), 0);
  EXPECT_EQ(ct::month_number("\0\0\0"), 0);
}

TEST(ParseHelpers, MonthNumberFuzzNoFalsePositives) {
  // The hash table has 16 slots for 12 months; any 3-byte string that is not
  // exactly a month name must map to 0 (the key compare rejects aliases).
  ct::Rng rng(99);
  const char* names[12] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  for (int trial = 0; trial < 200000; ++trial) {
    char buf[3] = {static_cast<char>(rng.uniform_u64(256)),
                   static_cast<char>(rng.uniform_u64(256)),
                   static_cast<char>(rng.uniform_u64(256))};
    const int got = ct::month_number(buf);
    bool is_month = false;
    for (int m = 0; m < 12; ++m) {
      if (std::memcmp(buf, names[m], 3) == 0) {
        is_month = true;
        ASSERT_EQ(got, m + 1);
      }
    }
    if (!is_month) ASSERT_EQ(got, 0);
  }
}

// ---- perfect-hash XID dispatch --------------------------------------------

TEST(XidDispatch, TableMatchesLinearCatalogScan) {
  // Every possible 16-bit code: describe()/is_known() must agree with a
  // linear scan over the public catalog.
  for (std::uint32_t code = 0; code <= 0xffff; ++code) {
    const auto num = static_cast<std::uint16_t>(code);
    const gx::Descriptor* want = nullptr;
    for (const auto& d : gx::catalog()) {
      if (gx::to_number(d.code) == num) {
        want = &d;
        break;
      }
    }
    const auto got = gx::describe(num);
    ASSERT_EQ(got.has_value(), want != nullptr) << num;
    ASSERT_EQ(gx::is_known(num), want != nullptr) << num;
    if (want != nullptr) {
      ASSERT_EQ(got->code, want->code);
      ASSERT_EQ(got->abbrev, want->abbrev);
      ASSERT_EQ(got->name, want->name);
      ASSERT_EQ(got->category, want->category);
      ASSERT_EQ(got->excluded_from_study, want->excluded_from_study);
    }
  }
}
