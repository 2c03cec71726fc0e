// Little-endian field codec for the on-disk records: the gpures.idx header,
// section table and meta block (index/format.h) and the serve checkpoint
// headers and payloads (serve/checkpoint.h, serve/checkpoint.cpp).
//
// A record states its fields once, in on-disk order, as an overload
//
//   template <typename IO>
//   constexpr void fields(IO& io, common::Rec<IO, Header>& h) {
//     io(h.magic, h.version, h.size, h.header_hash);
//   }
//
// and Writer (encode), Cursor (decode) and the compile-time sizer behind
// encoded_size() and offset_of() all walk that one list.  A field's wire
// form follows from its C++ type: an integer, bool or enum is the unsigned
// integer of its width (wire()), a double its IEEE-754 bits, a fixed array
// its elements, a string a u32 length + bytes, a vector a u32 count +
// elements, and anything else a record through its own fields().
// io.num<W>(v) carries a field at wire width W instead, and a literal such
// as std::uint32_t{0} is a reserved field (written zero, skipped on read).
// Everything resolves at compile time: encoding a record is the same run of
// stores a hand-written encoder makes.
//
// fields() is found by argument-dependent lookup, through the record's
// namespace or the `Schema` tag of Writer<Schema>/Cursor<Schema>: a module
// that persists other modules' types declares their fields() next to a tag
// of its own.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ranges>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/hash.h"

namespace gpures::common {

// ---- byte order -------------------------------------------------------------

/// Store `v` at `p` little-endian, whatever the host's byte order.
template <typename W>
void store_le(unsigned char* p, W v) {
  for (std::size_t i = 0; i < sizeof(W); ++i) {
    p[i] = static_cast<unsigned char>(v >> (8 * i));
  }
}

/// Load a little-endian W from `p`, whatever the host's byte order.
template <typename W>
W load_le(const unsigned char* p) {
  W v = 0;
  for (std::size_t i = sizeof(W); i-- > 0;) v = static_cast<W>((v << 8) | p[i]);
  return v;
}

// ---- wire forms -------------------------------------------------------------

/// The unsigned integer that carries `v` on disk: a bool as 0/1, an enum as
/// its underlying type, a double as its bits.
template <typename T>
constexpr auto wire(T v) {
  if constexpr (std::is_same_v<T, bool>) {
    return static_cast<std::uint8_t>(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(v);
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<std::make_unsigned_t<std::underlying_type_t<T>>>(v);
  } else {
    return static_cast<std::make_unsigned_t<T>>(v);
  }
}

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

/// A record as fields() sees it: read-only when `IO` encodes.
template <typename IO, typename T>
using Rec = std::conditional_t<IO::kEncodes, const T, T>;

/// The walk every IO shares: io(a, b, ...) codes each argument by its type
/// (see the file comment); `IO` supplies num<W>(v), str(s) and list(v).
template <typename IO>
class Walk {
 public:
  template <typename... T>
  constexpr void operator()(T&&... v) {
    (field(v), ...);
  }

 private:
  template <typename T>
  constexpr void field(T& v) {
    auto& io = static_cast<IO&>(*this);
    using U = std::remove_cv_t<T>;
    if constexpr (std::is_arithmetic_v<U> || std::is_enum_v<U>) {
      io.template num<decltype(wire(v))>(v);
    } else if constexpr (std::is_same_v<U, std::string>) {
      io.str(v);
    } else if constexpr (kIsVector<U>) {
      io.list(v);
    } else if constexpr (std::ranges::range<U>) {
      for (auto& e : v) field(e);
    } else {
      fields(io, v);
    }
  }
};

// ---- encode and decode ------------------------------------------------------

/// Little-endian encoder: appends to a string, or writes in place at `at`
/// into a buffer the caller sized.
template <typename Schema = void>
class Writer : public Walk<Writer<Schema>> {
 public:
  static constexpr bool kEncodes = true;
  explicit Writer(std::string& out) : out_(&out) {}
  explicit Writer(unsigned char* at) : at_(at) {}

  template <typename W, typename T>
  void num(const T& v) {
    unsigned char b[sizeof(W)];
    store_le(b, static_cast<W>(wire(v)));
    bytes({reinterpret_cast<const char*>(b), sizeof(W)});
  }
  /// Raw bytes, no length.
  void bytes(std::string_view s) {
    if (out_ != nullptr) {
      out_->append(s);
    } else {
      std::memcpy(at_, s.data(), s.size());
      at_ += s.size();
    }
  }
  /// A range's elements, no count.
  template <typename R>
  void items(const R& r) {
    for (const auto& e : r) (*this)(e);
  }
  void str(std::string_view s) {
    num<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    bytes(s);
  }
  template <typename T>
  void list(const std::vector<T>& v) {
    num<std::uint32_t>(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) (*this)(e);
  }

 private:
  std::string* out_ = nullptr;
  unsigned char* at_ = nullptr;
};

/// Bounds-checked little-endian decoder.  The first read past the end
/// latches failed(), and every later read yields zero.
template <typename Schema = void>
class Cursor : public Walk<Cursor<Schema>> {
 public:
  static constexpr bool kEncodes = false;
  explicit Cursor(std::string_view data) : data_(data) {}

  bool failed() const { return failed_; }
  bool done() const { return pos_ == data_.size(); }

  template <typename W, typename T>
  void num(T& v) {
    W w = 0;
    if (take(sizeof(W))) {
      w = load_le<W>(reinterpret_cast<const unsigned char*>(data_.data()) +
                     pos_ - sizeof(W));
    }
    if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(w);
    } else {
      v = static_cast<T>(w);
    }
  }
  void str(std::string& s) {
    std::uint32_t len = 0;
    num<std::uint32_t>(len);
    if (take(len)) s.assign(data_.substr(pos_ - len, len));
  }
  template <typename T>
  void list(std::vector<T>& v) {
    std::uint32_t n = 0;
    num<std::uint32_t>(n);
    for (std::uint32_t i = 0; i < n && !failed_; ++i) (*this)(v.emplace_back());
  }

 private:
  bool take(std::size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// ---- fixed-width records ----------------------------------------------------

/// Walks a fixed-width record at compile time, counting bytes and noting
/// where the field at `target` starts.  Strings and vectors do not compile.
class Sizer : public Walk<Sizer> {
 public:
  static constexpr bool kEncodes = true;
  constexpr explicit Sizer(const void* t = nullptr) : target(t) {}

  template <typename W, typename T>
  constexpr void num(const T& v) {
    if (&v == target) offset = size;
    size += sizeof(W);
  }

  const void* target;
  std::size_t size = 0;    ///< bytes walked so far
  std::size_t offset = 0;  ///< where the target field starts
};

/// Encoded bytes of fixed-width record T.
template <typename T>
constexpr std::size_t encoded_size() {
  const T rec{};
  Sizer s;
  s(rec);
  return s.size;
}

/// Byte offset of `field`, a member of `rec`, within rec's encoding.
template <typename T, typename F>
constexpr std::size_t offset_of(const T& rec, const F& field) {
  Sizer s(&field);
  s(rec);
  return s.offset;
}

/// Decode fixed-width record T from the encoded_size<T>() bytes at `p`.
template <typename T>
T load_record(const void* p) {
  T rec{};
  Cursor<> c({static_cast<const char*>(p), encoded_size<T>()});
  c(rec);
  return rec;
}

/// Encode fixed-width record `rec` into the encoded_size<T>() bytes at `p`.
template <typename T>
void store_record(void* p, const T& rec) {
  Writer<> w(static_cast<unsigned char*>(p));
  w(rec);
}

// ---- self-checking headers -------------------------------------------------
// A header record's `header_hash` field holds the XXH64 of the encoded
// bytes before it.

/// The header hash a header of type H encoded at `p` should carry.
template <typename H>
std::uint64_t header_hash_at(const void* p) {
  constexpr H h{};
  return xxhash64(p, offset_of(h, h.header_hash));
}

/// Encode `h` at `p` with its header_hash recomputed.
template <typename H>
void store_sealed(void* p, H h) {
  store_record(p, h);
  h.header_hash = header_hash_at<H>(p);
  store_record(p, h);
}

}  // namespace gpures::common
