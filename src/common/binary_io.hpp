// Little-endian binary encoding into/out of an in-memory byte buffer.
//
// The serving checkpoint (core/checkpoint) assembles its whole payload in
// memory first so the CRC can be computed over the exact bytes that hit the
// disk, then writes header + payload in one pass. ByteReader is fail-soft:
// any overrun flips ok() to false and every subsequent read returns a zero
// value, so decoders can parse straight through and check ok() once.
//
// Values are encoded little-endian byte-by-byte (not memcpy'd), so the
// format is identical across host endianness.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace odin::common {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  const std::string& bytes() const noexcept { return buf_; }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (pos_ >= bytes_.size()) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > bytes_.size() - pos_ || !ok_) {
      ok_ = false;
      return {};
    }
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  bool ok() const noexcept { return ok_; }
  bool exhausted() const noexcept { return pos_ >= bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Length-prefixed vector: a u64 element count, then `enc(x)` per element.
template <typename T, typename Fn>
void encode_vec(const std::vector<T>& v, ByteWriter& out, Fn enc) {
  out.u64(v.size());
  for (const T& x : v) enc(x);
}

/// Read an encode_vec count. False on overrun or a count past the 16M
/// element bound, so a corrupt count cannot drive a huge allocation.
inline bool vec_count(ByteReader& in, std::uint64_t& n) {
  n = in.u64();
  return in.ok() && n <= (1u << 24);
}

/// Decode an encode_vec vector, appending `dec()` per element. False when
/// the count is refused; an overrun inside the elements shows in in.ok().
template <typename T, typename Fn>
bool decode_vec(ByteReader& in, std::vector<T>& v, Fn dec) {
  std::uint64_t n = 0;
  if (!vec_count(in, n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(dec());
  return true;
}

}  // namespace odin::common
