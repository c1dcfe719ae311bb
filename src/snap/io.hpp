// Snapshot byte-stream primitives.
//
// Header-only on purpose: the stateful components (cpu, check, workload,
// obs) implement save_state/restore_state against Writer/Reader without
// linking the vasim_snap library, which keeps the dependency graph acyclic
// (the chunk-level glue that knows about pipelines lives in vasim_core;
// vasim_snap itself depends only on vasim_common).
//
// Every multi-byte value is written little-endian byte by byte, so the
// on-disk format is identical regardless of host endianness.  Readers throw
// SnapshotError on any underrun instead of returning garbage: a truncated
// chunk must never be silently loaded.
#ifndef VASIM_SNAP_IO_HPP
#define VASIM_SNAP_IO_HPP

#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/stats.hpp"
#include "src/common/types.hpp"

namespace vasim::snap {

/// Any malformed-snapshot condition: bad magic, version mismatch, CRC
/// failure, truncation, or a payload that does not match the running
/// configuration.  Always an error, never a silent fallback.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& msg) : std::runtime_error("snapshot: " + msg) {}
};

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `n` bytes.
inline u32 crc32(const void* data, std::size_t n, u32 seed = 0) {
  static const auto table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  u32 c = ~seed;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return ~c;
}

/// Append-only little-endian byte sink.
class Writer {
 public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v) { put_le(v, 2); }
  void put_u32(u32 v) { put_le(v, 4); }
  void put_u64(u64 v) { put_le(v, 8); }
  void put_i32(i32 v) { put_le(static_cast<u32>(v), 4); }
  void put_i64(i64 v) { put_le(static_cast<u64>(v), 8); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_f64(double v) { put_u64(std::bit_cast<u64>(v)); }
  void put_str(const std::string& s) {
    put_u32(static_cast<u32>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void put_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  [[nodiscard]] const std::vector<unsigned char>& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  std::vector<unsigned char> take() { return std::move(buf_); }

 private:
  void put_le(u64 v, int bytes) {
    for (int i = 0; i < bytes; ++i) buf_.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFF));
  }
  std::vector<unsigned char> buf_;
};

/// Bounds-checked little-endian byte source over a borrowed buffer.
class Reader {
 public:
  Reader(const unsigned char* p, std::size_t n) : p_(p), n_(n) {}
  explicit Reader(const std::vector<unsigned char>& v) : Reader(v.data(), v.size()) {}

  u8 get_u8() { return static_cast<u8>(get_le(1)); }
  u16 get_u16() { return static_cast<u16>(get_le(2)); }
  u32 get_u32() { return static_cast<u32>(get_le(4)); }
  u64 get_u64() { return get_le(8); }
  i32 get_i32() { return static_cast<i32>(get_u32()); }
  i64 get_i64() { return static_cast<i64>(get_u64()); }
  bool get_bool() {
    const u8 v = get_u8();
    if (v > 1) throw SnapshotError("bool field holds " + std::to_string(v));
    return v != 0;
  }
  double get_f64() { return std::bit_cast<double>(get_u64()); }
  std::string get_str() {
    const u32 len = get_u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(p_ + pos_), len);
    pos_ += len;
    return s;
  }
  void get_bytes(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, p_ + pos_, n);
    pos_ += n;
  }
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  /// Reads a u32 element count for `field` and checks that many entries of
  /// at least `min_entry_bytes` each still fit in the payload, so a damaged
  /// count fails by name before anything is reserved for it.
  u32 get_count(const char* field, std::size_t min_entry_bytes) {
    const u32 n = get_u32();
    if (n > remaining() / min_entry_bytes) {
      throw SnapshotError(std::string(field) + " count " + std::to_string(n) +
                          " does not fit in the " + std::to_string(remaining()) +
                          " bytes left");
    }
    return n;
  }

  [[nodiscard]] std::size_t remaining() const { return n_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == n_; }
  /// Restore code calls this after consuming a chunk: trailing bytes mean
  /// the payload does not match what the running build expects.
  void expect_done(const char* what) const {
    if (!done()) throw SnapshotError(std::string(what) + ": " + std::to_string(remaining()) + " unconsumed bytes");
  }

 private:
  void need(std::size_t n) const {
    if (n_ - pos_ < n) throw SnapshotError("payload truncated (need " + std::to_string(n) + " bytes, have " + std::to_string(n_ - pos_) + ")");
  }
  u64 get_le(int bytes) {
    need(static_cast<std::size_t>(bytes));
    u64 v = 0;
    for (int i = 0; i < bytes; ++i) v |= static_cast<u64>(p_[pos_ + static_cast<std::size_t>(i)]) << (8 * i);
    pos_ += static_cast<std::size_t>(bytes);
    return v;
  }
  const unsigned char* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
};

/// StatSet codec (name-keyed counters + scalars; std::map order makes the
/// byte stream deterministic).
inline void put_statset(Writer& w, const StatSet& s) {
  w.put_u32(static_cast<u32>(s.counters().size()));
  for (const auto& [name, v] : s.counters()) {
    w.put_str(name);
    w.put_u64(v);
  }
  w.put_u32(static_cast<u32>(s.scalars().size()));
  for (const auto& [name, v] : s.scalars()) {
    w.put_str(name);
    w.put_f64(v);
  }
}

inline StatSet get_statset(Reader& r) {
  StatSet s;
  const u32 nc = r.get_u32();
  for (u32 i = 0; i < nc; ++i) {
    const std::string name = r.get_str();
    s.inc(name, r.get_u64());
  }
  const u32 ns = r.get_u32();
  for (u32 i = 0; i < ns; ++i) {
    const std::string name = r.get_str();
    s.set(name, r.get_f64());
  }
  return s;
}

}  // namespace vasim::snap

#endif  // VASIM_SNAP_IO_HPP
