// The Stage-I scan kernel family: byte search, line slicing, and substring
// search over raw log bytes, in a scalar and an AVX2 variant behind one
// dispatch table.
//
// These are the inner loops of ingestion: DayBuffer::from_text slices a
// whole day file with next_line (one fused pass finds the newline AND
// classifies binary bytes, replacing the memchr-then-byte-loop double scan),
// and FastLineParser pre-filters every line with find_terminator and
// find_substr before any field parsing.
//
// Backends:
//
//  * kScalar — the reference implementation (libc memchr / plain loops,
//    exactly the code the pre-SIMD parser ran), and the path on any host
//    without AVX2;
//  * kAvx2   — 32-byte AVX2 lanes, compiled with a target attribute.
//
// The CPUID probe alone picks the backend: AVX2 when the host reports it,
// scalar otherwise.  No flag, environment variable or config field selects
// one.  set_active() exists only as a test seam, so the differential suites
// can pin the pipeline to scalar in-process and compare.
//
// Contract (enforced by tests/test_simd.cpp and
// tests/test_simd_differential.cpp, from single kernels up to full
// pipeline runs):
//  * both backends return bit-identical results for every input — the
//    scalar variant is the reference, AVX2 must match it exactly — so the
//    backend never changes a pipeline artifact, only how fast it is made;
//  * kernels never read past p + n.  The AVX2 variants process whole
//    32-byte blocks and hand the remainder to the scalar tail loop, so a
//    newline in the final partial lane or a lone '\r' at a chunk edge is
//    handled by the same code path the reference uses;
//  * positions are leftmost-match, "not found" is n.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace gpures::simd {

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// Every backend this host can run, scalar first — the iteration set for
/// differential tests and per-backend benchmarks.
std::vector<Backend> all_available();

/// "scalar" or "avx2", as recorded in run manifests.
std::string_view to_string(Backend b);

/// The backend the dispatched kernels use: the CPUID decision unless a test
/// has pinned another with set_active().  One relaxed atomic load.
Backend active();

/// Test seam: pin the active backend.  Returns false (and changes nothing)
/// if the host cannot run it.  Not synchronized against kernels running
/// concurrently — switch between pipeline runs, not during them.
bool set_active(Backend b);

/// Result of one fused line scan: the offset of the first '\n' (or n if the
/// buffer ends without one) and whether any byte before it is "binary" — a
/// control byte other than '\t', or DEL.  This is exactly the quarantine
/// screen's is_binary_line predicate fused into the newline search.
struct LineScan {
  std::size_t eol = 0;
  bool binary = false;
};

/// One backend's kernel table.  Callers fetch it once per file (or per
/// parsed line) and pay one indirect call per kernel invocation.
struct ScanOps {
  /// First index of `c` in [p, p+n), else n.
  std::size_t (*find_byte)(const char* p, std::size_t n, char c);
  /// First index of '\n' or '\r' in [p, p+n), else n (the parser's
  /// line-terminator check, one pass instead of two finds).
  std::size_t (*find_terminator)(const char* p, std::size_t n);
  /// Fused newline search + binary classification; see LineScan.
  LineScan (*next_line)(const char* p, std::size_t n);
  /// Occurrences of `c` in [p, p+n).
  std::size_t (*count_byte)(const char* p, std::size_t n, char c);
  /// Leftmost index where needle [q, q+m) occurs in [p, p+n), else n.
  /// m must be >= 1; m > n returns n.
  std::size_t (*find_substr)(const char* p, std::size_t n, const char* q,
                             std::size_t m);
};

/// The kernel table for one backend.  Requesting kAvx2 on a host without
/// AVX2 support returns the scalar table.
const ScanOps& ops(Backend b);

/// ops(active()) — the table the production paths use.
const ScanOps& active_ops();

}  // namespace gpures::simd
