// Little-endian binary encoding into/out of an in-memory byte buffer, and
// the field walks every checkpointed struct is encoded and decoded by.
//
// A persisted struct lists its wire layout once, in wire order, as a walk
// declared next to the struct:
//
//   template <typename S, common::MaybeConst<Foo> F>
//   void fields(S& s, F& foo) {
//     s.field(foo.count);
//     s.seq(foo.samples, common::kMaxSeq);
//   }
//
// Run over a ByteWriter (F = const Foo) the walk encodes; run over a
// ByteReader (F = Foo) it decodes, so the two directions cannot drift
// apart. `field(x)` lets x's type pick the width: bool and 1-byte integers
// take 1 byte, 4-byte integers 4, 8-byte integers and double 8, a
// std::string a u64 length plus its bytes, and any other type runs its own
// `fields` walk (found by argument-dependent lookup). `seq(v, cap, elem)`
// is a vector prefixed with its u64 count; `elem(stream, x)` walks one
// element and defaults to `field(x)`.
//
// The serving checkpoint (core/checkpoint) assembles its whole payload in
// memory first so the CRC can be computed over the exact bytes that hit the
// disk, then writes header + payload in one pass. ByteReader is fail-soft:
// an overrun or a refused count flips ok() to false and every later read
// returns a zero value (every later seq an empty vector), so a walk parses
// straight through and the caller checks ok() once. A seq count above its
// cap, or above the bytes left (every element takes at least one byte), is
// refused before any element is read, and the vector then grows one decoded
// element at a time — a forged count cannot drive an allocation past what
// the payload actually holds.
//
// Values are encoded little-endian byte-by-byte (not memcpy'd), so the
// format is identical across host endianness.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace odin::common {

/// T is X or const X: a walk sees `const X` when encoding and `X` when
/// decoding, so one template serves both directions.
template <typename T, typename X>
concept MaybeConst = std::same_as<std::remove_const_t<T>, X>;

/// Default bound on a seq's element count (16M).
inline constexpr std::uint64_t kMaxSeq = 1u << 24;

/// seq's default element walk.
struct FieldElem {
  template <typename S, typename T>
  void operator()(S& s, T& x) const {
    s.field(x);
  }
};

/// Integer widths the wire carries.
template <typename T>
inline constexpr bool kWireInt =
    sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i32(std::int32_t v) { le(static_cast<std::uint32_t>(v)); }
  void f64(double v) { le(std::bit_cast<std::uint64_t>(v)); }

  template <typename T>
  void field(const T& x) {
    if constexpr (std::same_as<T, bool>) {
      u8(x ? 1 : 0);
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(kWireInt<T>);
      le(static_cast<std::make_unsigned_t<T>>(x));
    } else if constexpr (std::same_as<T, double>) {
      f64(x);
    } else if constexpr (std::same_as<T, std::string>) {
      u64(x.size());
      buf_.append(x);
    } else {
      fields(*this, x);
    }
  }

  /// The cap bounds the reader; the writer emits whatever it is given.
  template <typename T, typename Elem = FieldElem>
  void seq(const std::vector<T>& v, std::uint64_t /*cap*/, Elem elem = {}) {
    u64(v.size());
    for (const T& x : v) elem(*this, x);
  }

  const std::string& bytes() const noexcept { return buf_; }

 private:
  template <typename U>
  void le(U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i)
      u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (!ok_ || pos_ >= bytes_.size()) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  template <typename T>
  void field(T& x) {
    if constexpr (std::same_as<T, bool>) {
      x = u8() != 0;
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(kWireInt<T>);
      x = static_cast<T>(le<std::make_unsigned_t<T>>());
    } else if constexpr (std::same_as<T, double>) {
      x = f64();
    } else if constexpr (std::same_as<T, std::string>) {
      const std::uint64_t n = u64();
      if (!ok_ || n > left()) {
        ok_ = false;
        return;
      }
      x.assign(bytes_.substr(pos_, n));
      pos_ += n;
    } else {
      fields(*this, x);
    }
  }

  template <typename T, typename Elem = FieldElem>
  void seq(std::vector<T>& v, std::uint64_t cap, Elem elem = {}) {
    const std::uint64_t n = u64();
    if (n > cap || n > left()) ok_ = false;
    for (std::uint64_t i = 0; ok_ && i < n; ++i) {
      T x{};
      elem(*this, x);
      if (ok_) v.push_back(std::move(x));
    }
  }

  bool ok() const noexcept { return ok_; }
  bool exhausted() const noexcept { return pos_ >= bytes_.size(); }

 private:
  template <typename U>
  U le() {
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i)
      v |= static_cast<U>(static_cast<U>(u8()) << (8 * i));
    return v;
  }
  std::size_t left() const noexcept { return bytes_.size() - pos_; }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Decode one T by its walk; nullopt when the reader failed.
template <typename T>
std::optional<T> decode(ByteReader& in) {
  T x{};
  in.field(x);
  if (!in.ok()) return std::nullopt;
  return x;
}

}  // namespace odin::common
