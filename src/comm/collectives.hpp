// fxpar comm: collective operations over processor groups.
//
// All collectives are SPMD: every member of `g` must call the same
// operation in the same order. Tags are allocated with
// Context::collective_tag, whose per-group counters advance identically on
// every member. Broadcast and reduce use binomial trees (latency-optimal
// for small payloads on a Paragon-class machine); gather/scatter are rooted
// linear exchanges; alltoall is a full pairwise exchange. The tree and
// rooted collectives execute schedules from comm::plan::CollectiveCache
// (collective_plan.hpp): shared across calls when MachineConfig::plan_cache
// is on, built per call when it is off.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "comm/collective_plan.hpp"
#include "comm/serialize.hpp"
#include "machine/context.hpp"
#include "pgroup/group.hpp"
#include "trace/trace.hpp"

namespace fxpar::comm {

using machine::Context;
using pgroup::ProcessorGroup;

namespace detail {

inline void check_member_root(const Context& ctx, const ProcessorGroup& g, int root) {
  if (!g.contains(ctx.phys_rank())) {
    throw std::logic_error("collective: calling processor is not a group member");
  }
  if (root < 0 || root >= g.size()) {
    throw std::out_of_range("collective: root virtual rank out of range");
  }
}

/// Metrics hook shared by every collective: one count per member per
/// invocation (so the counter scales with participation, like barriers).
inline void count_collective(Context& ctx) {
  if (metrics::RuntimeMetrics* mm = ctx.machine().metrics()) {
    mm->collectives->add(ctx.phys_rank());
  }
}

/// Unpacks `bytes` into a vector of T. For double — the dominant element
/// type of the numeric apps — the result vector comes from the machine's
/// typed scratch pool instead of a fresh allocation, keeping a
/// steady-state collective stream allocation-quiet.
template <TriviallyPackable T>
std::vector<T> unpack_vector_pooled(Context& ctx, const Payload& bytes) {
  if constexpr (std::is_same_v<T, double>) {
    if (bytes.size() % sizeof(double) != 0) {
      throw std::invalid_argument(
          "unpack_vector: payload size not a multiple of element size");
    }
    std::vector<double> out = ctx.machine().double_acquire(bytes.size() / sizeof(double));
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  } else {
    return unpack_vector<T>(bytes);
  }
}

/// Returns a spent vector to the typed scratch pool (no-op for types the
/// pool does not cover, and for vectors with no allocation).
template <TriviallyPackable T>
void release_vector_pooled(Context& ctx, std::vector<T>&& v) {
  if constexpr (std::is_same_v<T, double>) {
    ctx.machine().double_release(std::move(v));
  } else {
    (void)v;
  }
}

}  // namespace detail

/// Broadcasts `bytes` from virtual rank `root` of `g` to every member;
/// returns the received (or original, on the root) payload.
Payload broadcast_bytes(Context& ctx, const ProcessorGroup& g, int root, Payload bytes);

/// Broadcast of a single trivially copyable value.
template <TriviallyPackable T>
T broadcast(Context& ctx, const ProcessorGroup& g, int root, const T& value) {
  Payload p = (g.virtual_of(ctx.phys_rank()) == root) ? pack_value(value) : Payload{};
  return unpack_value<T>(broadcast_bytes(ctx, g, root, std::move(p)));
}

/// Broadcast of a vector (the non-root input value is ignored).
template <TriviallyPackable T>
std::vector<T> broadcast_vector(Context& ctx, const ProcessorGroup& g, int root,
                                const std::vector<T>& value) {
  const bool at_root = g.virtual_of(ctx.phys_rank()) == root;
  // The pooled pack and the release below only recycle buffer allocations.
  Payload p = at_root ? pack_span_pooled(ctx.machine(), std::span<const T>(value))
                      : Payload{};
  Payload b = broadcast_bytes(ctx, g, root, std::move(p));
  std::vector<T> out = detail::unpack_vector_pooled<T>(ctx, b);
  ctx.machine().pool_release(std::move(b));
  return out;
}

/// Binomial-tree reduction to `root`. `op` must be associative and is
/// applied in a fixed deterministic order. Non-root members return T{}.
template <TriviallyPackable T, typename Op>
T reduce(Context& ctx, const ProcessorGroup& g, int root, T value, Op op) {
  detail::check_member_root(ctx, g, root);
  trace::ScopedSpan sp_ = ctx.span("reduce", "collective");
  detail::count_collective(ctx);
  const int me = g.virtual_of(ctx.phys_rank());
  const std::uint64_t tag = ctx.collective_tag(g);

  ctx.push_group(g);
  // Replay the tree: children in the recorded (combine) order, then the
  // parent send.
  const auto sched = plan::CollectiveCache::of(ctx.machine()).tree(ctx.machine(), g, root);
  const auto& nd = sched->nodes[static_cast<std::size_t>(me)];
  for (int child : nd.reduce_children) {
    T incoming = unpack_value<T>(ctx.recv(child, tag));
    value = op(value, incoming);
    ctx.charge_flops(1);
  }
  if (nd.reduce_parent >= 0) ctx.send(nd.reduce_parent, tag, pack_value(value));
  ctx.pop_group();
  return (me == root) ? value : T{};
}

/// Reduction followed by broadcast; every member returns the result.
template <TriviallyPackable T, typename Op>
T allreduce(Context& ctx, const ProcessorGroup& g, T value, Op op) {
  T total = reduce(ctx, g, 0, value, op);
  return broadcast(ctx, g, 0, total);
}

/// Element-wise binomial-tree reduction of equal-length vectors to `root`.
/// Non-root members return an empty vector.
template <TriviallyPackable T, typename Op>
std::vector<T> reduce_vector(Context& ctx, const ProcessorGroup& g, int root,
                             std::vector<T> value, Op op) {
  detail::check_member_root(ctx, g, root);
  trace::ScopedSpan sp_ = ctx.span("reduce_vector", "collective");
  detail::count_collective(ctx);
  const int me = g.virtual_of(ctx.phys_rank());
  const std::uint64_t tag = ctx.collective_tag(g);

  ctx.push_group(g);
  // Replay the tree. The executor combines straight from payload bytes (no
  // per-child unpack allocation) and recycles every buffer through the
  // machine pool.
  const auto sched = plan::CollectiveCache::of(ctx.machine()).tree(ctx.machine(), g, root);
  const auto& nd = sched->nodes[static_cast<std::size_t>(me)];
  for (int child : nd.reduce_children) {
    Payload in = ctx.recv(child, tag);
    if (in.size() % sizeof(T) != 0) {
      throw std::invalid_argument(
          "unpack_vector: payload size not a multiple of element size");
    }
    if (in.size() / sizeof(T) != value.size()) {
      ctx.pop_group();
      throw std::invalid_argument("reduce_vector: length mismatch between members");
    }
    combine_packed(std::span<T>(value), in, op);
    ctx.charge_flops(static_cast<double>(value.size()));
    ctx.machine().pool_release(std::move(in));
  }
  if (nd.reduce_parent >= 0) {
    ctx.send(nd.reduce_parent, tag, pack_span_pooled(ctx.machine(), std::span<const T>(value)));
  }
  ctx.pop_group();
  if (me != root) {
    // The moved-in operand is dead on non-roots; recycle its allocation
    // for the next collective's result vector.
    detail::release_vector_pooled<T>(ctx, std::move(value));
    return {};
  }
  return value;
}

/// Element-wise vector reduction; every member returns the result.
template <TriviallyPackable T, typename Op>
std::vector<T> allreduce_vector(Context& ctx, const ProcessorGroup& g, std::vector<T> value,
                                Op op) {
  std::vector<T> total = reduce_vector(ctx, g, 0, std::move(value), op);
  std::vector<T> out = broadcast_vector(ctx, g, 0, total);
  // The root's reduction total has been packed into the broadcast; its
  // allocation feeds the next round (non-roots hold an empty vector here).
  detail::release_vector_pooled<T>(ctx, std::move(total));
  return out;
}

/// Inclusive scan: member v returns op(x_0, ..., x_v) in virtual-rank
/// order (deterministic linear chain; groups are small on this machine
/// class and the chain matches the deposit model's cost structure).
template <TriviallyPackable T, typename Op>
T scan(Context& ctx, const ProcessorGroup& g, T value, Op op) {
  if (!g.contains(ctx.phys_rank())) {
    throw std::logic_error("scan: calling processor is not a group member");
  }
  trace::ScopedSpan sp_ = ctx.span("scan", "collective");
  detail::count_collective(ctx);
  const int n = g.size();
  const int me = g.virtual_of(ctx.phys_rank());
  const std::uint64_t tag = ctx.collective_tag(g);
  ctx.push_group(g);
  T acc = value;
  if (me > 0) {
    acc = op(unpack_value<T>(ctx.recv(me - 1, tag)), value);
    ctx.charge_flops(1);
  }
  if (me + 1 < n) ctx.send(me + 1, tag, pack_value(acc));
  ctx.pop_group();
  return acc;
}

/// Exclusive scan: member v returns op over x_0..x_{v-1}; member 0 returns
/// `identity`.
template <TriviallyPackable T, typename Op>
T exscan(Context& ctx, const ProcessorGroup& g, T value, Op op, T identity) {
  if (!g.contains(ctx.phys_rank())) {
    throw std::logic_error("exscan: calling processor is not a group member");
  }
  trace::ScopedSpan sp_ = ctx.span("exscan", "collective");
  detail::count_collective(ctx);
  const int n = g.size();
  const int me = g.virtual_of(ctx.phys_rank());
  const std::uint64_t tag = ctx.collective_tag(g);
  ctx.push_group(g);
  T before = identity;
  if (me > 0) before = unpack_value<T>(ctx.recv(me - 1, tag));
  if (me + 1 < n) {
    ctx.send(me + 1, tag, pack_value(op(before, value)));
    ctx.charge_flops(1);
  }
  ctx.pop_group();
  return before;
}

/// Gathers one value from every member to `root`, ordered by virtual rank.
/// Non-root members return an empty vector.
template <TriviallyPackable T>
std::vector<T> gather(Context& ctx, const ProcessorGroup& g, int root, const T& value) {
  detail::check_member_root(ctx, g, root);
  trace::ScopedSpan sp_ = ctx.span("gather", "collective");
  detail::count_collective(ctx);
  const int n = g.size();
  const int me = g.virtual_of(ctx.phys_rank());
  const std::uint64_t tag = ctx.collective_tag(g);
  ctx.push_group(g);
  std::vector<T> out;
  const auto sched = plan::CollectiveCache::of(ctx.machine()).rooted(ctx.machine(), g, root);
  if (me == root) {
    out.resize(static_cast<std::size_t>(n));
    out[static_cast<std::size_t>(root)] = value;
    for (int v : sched->peers) {
      out[static_cast<std::size_t>(v)] = unpack_value<T>(ctx.recv(v, tag));
    }
  } else {
    ctx.send(root, tag, pack_value(value));
  }
  ctx.pop_group();
  return out;
}

/// Gathers variable-length vectors to `root`, concatenated by virtual rank.
template <TriviallyPackable T>
std::vector<T> gather_vectors(Context& ctx, const ProcessorGroup& g, int root,
                              const std::vector<T>& value) {
  detail::check_member_root(ctx, g, root);
  trace::ScopedSpan sp_ = ctx.span("gather_vectors", "collective");
  detail::count_collective(ctx);
  const int n = g.size();
  const int me = g.virtual_of(ctx.phys_rank());
  const std::uint64_t tag = ctx.collective_tag(g);
  ctx.push_group(g);
  std::vector<T> out;
  // Receive every part (virtual-rank order), then concatenate with a
  // single allocation instead of n growing inserts; spent payloads go back
  // to the machine pool.
  const auto sched = plan::CollectiveCache::of(ctx.machine()).rooted(ctx.machine(), g, root);
  if (me == root) {
    std::vector<Payload> parts;
    parts.reserve(sched->peers.size());
    std::size_t total_bytes = value.size() * sizeof(T);
    for (int v : sched->peers) {
      Payload p = ctx.recv(v, tag);
      if (p.size() % sizeof(T) != 0) {
        throw std::invalid_argument(
            "unpack_vector: payload size not a multiple of element size");
      }
      total_bytes += p.size();
      parts.push_back(std::move(p));
    }
    if constexpr (std::is_same_v<T, double>) {
      out = ctx.machine().double_acquire(total_bytes / sizeof(T));
    } else {
      out.resize(total_bytes / sizeof(T));
    }
    std::size_t off = 0;
    std::size_t pi = 0;
    auto* dst = reinterpret_cast<std::byte*>(out.data());
    for (int v = 0; v < n; ++v) {
      if (v == root) {
        if (!value.empty()) {
          std::memcpy(dst + off, value.data(), value.size() * sizeof(T));
        }
        off += value.size() * sizeof(T);
      } else {
        Payload& p = parts[pi++];
        if (!p.empty()) std::memcpy(dst + off, p.data(), p.size());
        off += p.size();
        ctx.machine().pool_release(std::move(p));
      }
    }
  } else {
    ctx.send(root, tag, pack_span_pooled(ctx.machine(), std::span<const T>(value)));
  }
  ctx.pop_group();
  return out;
}

/// Scatters `parts[v]` from `root` to member `v`; returns the local part.
template <TriviallyPackable T>
std::vector<T> scatter_vectors(Context& ctx, const ProcessorGroup& g, int root,
                               const std::vector<std::vector<T>>& parts) {
  detail::check_member_root(ctx, g, root);
  trace::ScopedSpan sp_ = ctx.span("scatter_vectors", "collective");
  detail::count_collective(ctx);
  const int n = g.size();
  const int me = g.virtual_of(ctx.phys_rank());
  const std::uint64_t tag = ctx.collective_tag(g);
  ctx.push_group(g);
  std::vector<T> mine;
  const auto sched = plan::CollectiveCache::of(ctx.machine()).rooted(ctx.machine(), g, root);
  if (me == root) {
    if (static_cast<int>(parts.size()) != n) {
      ctx.pop_group();
      throw std::invalid_argument("scatter_vectors: need one part per member");
    }
    for (int v : sched->peers) {
      ctx.send(v, tag,
               pack_span_pooled(ctx.machine(),
                                std::span<const T>(parts[static_cast<std::size_t>(v)])));
    }
    mine = parts[static_cast<std::size_t>(root)];
  } else {
    Payload p = ctx.recv(root, tag);
    mine = unpack_vector<T>(p);
    ctx.machine().pool_release(std::move(p));
  }
  ctx.pop_group();
  return mine;
}

/// Full pairwise exchange: member `v` receives `send_parts[me]` from every
/// member (including its own local part). `send_parts` has one vector per
/// destination virtual rank; the result has one vector per source.
template <TriviallyPackable T>
std::vector<std::vector<T>> alltoall_vectors(Context& ctx, const ProcessorGroup& g,
                                             const std::vector<std::vector<T>>& send_parts) {
  if (!g.contains(ctx.phys_rank())) {
    throw std::logic_error("alltoall_vectors: calling processor is not a group member");
  }
  const int n = g.size();
  if (static_cast<int>(send_parts.size()) != n) {
    throw std::invalid_argument("alltoall_vectors: need one part per member");
  }
  trace::ScopedSpan sp_ = ctx.span("alltoall_vectors", "collective");
  detail::count_collective(ctx);
  const int me = g.virtual_of(ctx.phys_rank());
  const std::uint64_t tag = ctx.collective_tag(g);
  ctx.push_group(g);
  std::vector<std::vector<T>> out(static_cast<std::size_t>(n));
  // Deposit-based: send everything, then drain. Deposits never block.
  for (int d = 1; d < n; ++d) {
    const int dst = (me + d) % n;
    ctx.send(dst, tag, pack_span(std::span<const T>(send_parts[static_cast<std::size_t>(dst)])));
  }
  out[static_cast<std::size_t>(me)] = send_parts[static_cast<std::size_t>(me)];
  for (int d = 1; d < n; ++d) {
    const int src = (me - d + n) % n;
    out[static_cast<std::size_t>(src)] = unpack_vector<T>(ctx.recv(src, tag));
  }
  ctx.pop_group();
  return out;
}

}  // namespace fxpar::comm
