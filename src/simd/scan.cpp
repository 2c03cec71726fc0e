#include "simd/scan.h"

#include <atomic>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GPURES_X86 1
#endif

namespace gpures::simd {

namespace {

// Binary byte per the quarantine screen: control bytes other than '\t'
// cannot occur in a text log line; DEL rounds out the set.  '\n' never
// reaches the predicate (scans stop at the terminator) and a '\r' counts —
// CRLF terminators are normalized away before classification, so any '\r'
// the scanner sees is a lone one.
inline bool is_binary_byte(unsigned char c) {
  return (c < 0x20 && c != '\t') || c == 0x7f;
}

// --- scalar: the reference implementation ---------------------------------
//
// Exactly the code the pre-SIMD parser ran: libc memchr for byte search
// (itself vectorized by the platform) and plain byte loops for
// classification.  The differential suites hold AVX2 to these functions bit
// for bit.

std::size_t scalar_find_byte(const char* p, std::size_t n, char c) {
  if (n == 0) return 0;  // empty views may carry a null pointer; memchr is
                         // declared nonnull in glibc
  const void* hit = std::memchr(p, c, n);
  return hit == nullptr
             ? n
             : static_cast<std::size_t>(static_cast<const char*>(hit) - p);
}

std::size_t scalar_find_terminator(const char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] == '\n' || p[i] == '\r') return i;
  }
  return n;
}

LineScan scalar_next_line(const char* p, std::size_t n) {
  LineScan out;
  std::size_t i = 0;
  bool binary = false;
  for (; i < n; ++i) {
    const unsigned char c = static_cast<unsigned char>(p[i]);
    if (c == '\n') break;
    binary = binary || is_binary_byte(c);
  }
  out.eol = i;
  out.binary = binary;
  return out;
}

std::size_t scalar_count_byte(const char* p, std::size_t n, char c) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += (p[i] == c);
  return count;
}

std::size_t scalar_find_substr(const char* p, std::size_t n, const char* q,
                               std::size_t m) {
  if (m == 0 || m > n) return n;
  const char first = q[0];
  std::size_t i = 0;
  const std::size_t last_start = n - m;
  while (i <= last_start) {
    const void* hit = std::memchr(p + i, first, last_start - i + 1);
    if (hit == nullptr) return n;
    i = static_cast<std::size_t>(static_cast<const char*>(hit) - p);
    if (std::memcmp(p + i, q, m) == 0) return i;
    ++i;
  }
  return n;
}

// --- AVX2: 32-byte lanes behind a target attribute -------------------------
//
// Compiled for AVX2 in this one translation unit and reached only through
// ops(), which never hands them out unless CPUID reports the ISA.  Tails below 32 bytes run the scalar reference so partial lanes
// cannot diverge from it.

#if defined(GPURES_X86)

__attribute__((target("avx2"))) inline unsigned avx2_eq_bits(__m256i x,
                                                             char c) {
  return static_cast<unsigned>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(x, _mm256_set1_epi8(c))));
}

__attribute__((target("avx2"))) std::size_t avx2_find_byte(const char* p,
                                                           std::size_t n,
                                                           char c) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const unsigned m = avx2_eq_bits(x, c);
    if (m != 0) return i + static_cast<std::size_t>(__builtin_ctz(m));
  }
  const std::size_t at = scalar_find_byte(p + i, n - i, c);
  return at == n - i ? n : i + at;
}

__attribute__((target("avx2"))) std::size_t avx2_find_terminator(
    const char* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const unsigned m = avx2_eq_bits(x, '\n') | avx2_eq_bits(x, '\r');
    if (m != 0) return i + static_cast<std::size_t>(__builtin_ctz(m));
  }
  const std::size_t at = scalar_find_terminator(p + i, n - i);
  return at == n - i ? n : i + at;
}

__attribute__((target("avx2"))) unsigned avx2_binary_bits(__m256i x) {
  // b <= 0x1f unsigned  <=>  min(b, 0x1f) == b.
  const __m256i ctrl = _mm256_cmpeq_epi8(
      _mm256_min_epu8(x, _mm256_set1_epi8(0x1f)), x);
  const unsigned lt32 = static_cast<unsigned>(_mm256_movemask_epi8(ctrl));
  return (lt32 & ~avx2_eq_bits(x, '\t')) | avx2_eq_bits(x, 0x7f);
}

__attribute__((target("avx2"))) LineScan avx2_next_line(const char* p,
                                                        std::size_t n) {
  std::size_t i = 0;
  unsigned binary = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const unsigned nl = avx2_eq_bits(x, '\n');
    unsigned bin = avx2_binary_bits(x);
    if (nl != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctz(nl));
      bin &= (1u << bit) - 1u;
      return LineScan{i + bit, (binary | bin) != 0};
    }
    binary |= bin;
  }
  const LineScan tail = scalar_next_line(p + i, n - i);
  return LineScan{i + tail.eol, binary != 0 || tail.binary};
}

__attribute__((target("avx2"))) std::size_t avx2_count_byte(const char* p,
                                                            std::size_t n,
                                                            char c) {
  std::size_t count = 0;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    count += static_cast<std::size_t>(__builtin_popcount(avx2_eq_bits(x, c)));
  }
  return count + scalar_count_byte(p + i, n - i, c);
}

__attribute__((target("avx2"))) std::size_t avx2_find_substr(const char* p,
                                                             std::size_t n,
                                                             const char* q,
                                                             std::size_t m) {
  if (m == 0 || m > n) return n;
  // First+last byte filter: a candidate position must match needle[0] at i
  // and needle[m-1] at i + m - 1; only the survivors pay a memcmp.  The
  // second load sits m - 1 bytes ahead, so the vector loop stops early
  // enough that both loads stay inside the buffer.
  const __m256i first = _mm256_set1_epi8(q[0]);
  const __m256i last = _mm256_set1_epi8(q[m - 1]);
  const std::size_t last_start = n - m;
  std::size_t i = 0;
  while (i + 32 + m - 1 <= n) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i + m - 1));
    unsigned cand = static_cast<unsigned>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, first))) &
        static_cast<unsigned>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(b, last)));
    while (cand != 0) {
      const std::size_t at = i + static_cast<std::size_t>(__builtin_ctz(cand));
      if (at > last_start) return n;
      if (std::memcmp(p + at, q, m) == 0) return at;
      cand &= cand - 1;
    }
    i += 32;
  }
  if (i > last_start) return n;
  const std::size_t span = n - i;
  const std::size_t at = scalar_find_substr(p + i, span, q, m);
  return at == span ? n : i + at;
}

#endif  // GPURES_X86

constexpr ScanOps kScalarOps = {scalar_find_byte, scalar_find_terminator,
                                scalar_next_line, scalar_count_byte,
                                scalar_find_substr};

#if defined(GPURES_X86)
constexpr ScanOps kAvx2Ops = {avx2_find_byte, avx2_find_terminator,
                              avx2_next_line, avx2_count_byte,
                              avx2_find_substr};
#else
constexpr ScanOps kAvx2Ops = kScalarOps;
#endif

bool cpu_has_avx2() {
#if defined(GPURES_X86) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// -1 = not yet probed; otherwise a Backend value.  Relaxed is enough: racing
// first reads all resolve to the same CPUID answer.
std::atomic<int> g_active{-1};

}  // namespace

std::vector<Backend> all_available() {
  std::vector<Backend> out{Backend::kScalar};
  if (cpu_has_avx2()) out.push_back(Backend::kAvx2);
  return out;
}

std::string_view to_string(Backend b) {
  return b == Backend::kAvx2 ? "avx2" : "scalar";
}

Backend active() {
  int v = g_active.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(cpu_has_avx2() ? Backend::kAvx2 : Backend::kScalar);
    g_active.store(v, std::memory_order_relaxed);
  }
  return static_cast<Backend>(v);
}

bool set_active(Backend b) {
  if (b == Backend::kAvx2 && !cpu_has_avx2()) return false;
  g_active.store(static_cast<int>(b), std::memory_order_relaxed);
  return true;
}

const ScanOps& ops(Backend b) {
  return b == Backend::kAvx2 && cpu_has_avx2() ? kAvx2Ops : kScalarOps;
}

const ScanOps& active_ops() { return ops(active()); }

}  // namespace gpures::simd
