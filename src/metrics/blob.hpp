// fxpar: bounds-checked byte codec for the residue blobs a forked rank ships
// to rank 0 — metrics deltas (metrics.hpp) and trace shards (trace.hpp).
// Both ends run the same binary image, so values travel in native
// encoding. Every read is checked against the bytes that remain, and every
// length field is checked before anything is sized from it, so a short or
// corrupt blob throws std::runtime_error instead of over-reading or
// allocating from an attacker-sized count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace fxpar::blob {

inline void put_raw(std::vector<std::byte>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

template <class T>
void put(std::vector<std::byte>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put_raw(out, &v, sizeof v);
}

inline void put_str(std::vector<std::byte>& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  put_raw(out, s.data(), s.size());
}

/// A u64 element count followed by the raw elements.
template <class T>
void put_pod_vec(std::vector<std::byte>& out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  put<std::uint64_t>(out, static_cast<std::uint64_t>(v.size()));
  if (!v.empty()) put_raw(out, v.data(), v.size() * sizeof(T));
}

/// Sequential reader over one blob. `what` names the parser in errors.
class Reader {
 public:
  Reader(const std::byte* p, std::size_t len, const char* what) noexcept
      : p_(p), len_(len), what_(what) {}

  std::size_t remaining() const noexcept { return len_ - off_; }

  /// Throws unless `n` items of at least `item_bytes` each still fit.
  void need(std::uint64_t n, std::size_t item_bytes) const {
    if (item_bytes != 0 && n > remaining() / item_bytes) truncated();
  }

  template <class T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(1, sizeof(T));
    T v;
    std::memcpy(&v, p_ + off_, sizeof v);
    off_ += sizeof v;
    return v;
  }

  std::string get_str() {
    const auto n = get<std::uint32_t>();
    need(n, 1);
    std::string s(reinterpret_cast<const char*>(p_) + off_, n);
    off_ += n;
    return s;
  }

  template <class T>
  std::vector<T> get_pod_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get<std::uint64_t>();
    need(n, sizeof(T));
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n != 0) {
      std::memcpy(v.data(), p_ + off_, static_cast<std::size_t>(n) * sizeof(T));
      off_ += static_cast<std::size_t>(n) * sizeof(T);
    }
    return v;
  }

 private:
  [[noreturn]] void truncated() const {
    throw std::runtime_error(std::string(what_) + ": truncated blob");
  }

  const std::byte* p_;
  std::size_t len_;
  std::size_t off_ = 0;
  const char* what_;
};

}  // namespace fxpar::blob
