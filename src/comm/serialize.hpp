// fxpar comm: byte-level packing of trivially copyable values and arrays.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "machine/machine.hpp"

namespace fxpar::comm {

using machine::Payload;

template <typename T>
concept TriviallyPackable = std::is_trivially_copyable_v<T>;

/// Packs one value.
template <TriviallyPackable T>
Payload pack_value(const T& v) {
  Payload p(sizeof(T));
  std::memcpy(p.data(), &v, sizeof(T));
  return p;
}

/// Unpacks one value; the payload size must match exactly.
template <TriviallyPackable T>
T unpack_value(const Payload& p) {
  if (p.size() != sizeof(T)) {
    throw std::invalid_argument("unpack_value: payload size " + std::to_string(p.size()) +
                                " != sizeof(T) " + std::to_string(sizeof(T)));
  }
  T v;
  std::memcpy(&v, p.data(), sizeof(T));
  return v;
}

/// Packs a contiguous range of values (no length header; the element count
/// is recovered from the payload size).
template <TriviallyPackable T>
Payload pack_span(std::span<const T> s) {
  Payload p(s.size_bytes());
  if (!s.empty()) std::memcpy(p.data(), s.data(), s.size_bytes());
  return p;
}

/// pack_span through the machine's payload pool: same bytes, but reuses a
/// pooled allocation — and, for a same-size buffer, skips the value-init
/// memset a fresh Payload pays. The collective executors use this so
/// repeated calls stop allocating; the produced payload is byte-identical
/// to pack_span's.
template <TriviallyPackable T>
Payload pack_span_pooled(machine::Machine& m, std::span<const T> s) {
  Payload p = m.pool_acquire(s.size_bytes());
  if (!s.empty()) std::memcpy(p.data(), s.data(), s.size_bytes());
  return p;
}

/// Element-wise combine of `acc` with the packed values in `p`, without
/// unpacking into a temporary vector: blocks are memcpy'd into a small
/// stack buffer (the conformant way to read T objects out of raw bytes)
/// and folded in index order — the exact order unpack-then-combine uses,
/// so results are bit-identical.
template <TriviallyPackable T, typename Op>
void combine_packed(std::span<T> acc, const Payload& p, Op op) {
  constexpr std::size_t kBlock = 64;
  T chunk[kBlock];
  const std::byte* src = p.data();
  for (std::size_t i = 0; i < acc.size();) {
    const std::size_t m = std::min(kBlock, acc.size() - i);
    std::memcpy(chunk, src + i * sizeof(T), m * sizeof(T));
    for (std::size_t k = 0; k < m; ++k) acc[i + k] = op(acc[i + k], chunk[k]);
    i += m;
  }
}

template <TriviallyPackable T>
std::vector<T> unpack_vector(const Payload& p) {
  if (p.size() % sizeof(T) != 0) {
    throw std::invalid_argument("unpack_vector: payload size not a multiple of element size");
  }
  std::vector<T> v(p.size() / sizeof(T));
  if (!v.empty()) std::memcpy(v.data(), p.data(), p.size());
  return v;
}

/// Appends the raw bytes of `v` to `p` (for building mixed payloads).
template <TriviallyPackable T>
void append_value(Payload& p, const T& v) {
  const std::size_t off = p.size();
  p.resize(off + sizeof(T));
  std::memcpy(p.data() + off, &v, sizeof(T));
}

/// Reads a value at byte offset `off`, advancing `off`.
template <TriviallyPackable T>
T read_value(const Payload& p, std::size_t& off) {
  if (off + sizeof(T) > p.size()) throw std::out_of_range("read_value: payload underrun");
  T v;
  std::memcpy(&v, p.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

}  // namespace fxpar::comm
