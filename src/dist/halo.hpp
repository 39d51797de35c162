// fxpar dist: ghost-row (halo) exchange for stencil computations.
//
// For a 3-D array of shape (planes, H, W) distributed (*, BLOCK, *) over a
// 1-D grid, every owning processor obtains `halo` rows above and below its
// block from the neighbouring owners. The paper's execution model calls
// this "normal mechanisms to ensure legal data parallel execution" inside
// the current scope: the exchange is a plain message-passing pattern among
// the members of the owning subgroup, computed symmetrically so that no
// request messages and no empty messages are needed.
//
// Blocks narrower than the halo are handled: a processor may receive rows
// from beyond its immediate neighbours.
//
// The who-needs-what analysis is the inspector (build_halo_schedule in
// plan_cache.hpp); the exchange below only replays its schedule. With
// MachineConfig::plan_cache on (the default) the schedule is built once per
// (layout, halo) pair and shared machine-wide; with it off each call
// builds its own and drops it. Messages, charges and results are identical
// either way.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "dist/dist_array.hpp"
#include "dist/plan_cache.hpp"
#include "machine/context.hpp"

namespace fxpar::dist {

template <typename T>
struct HaloRows {
  std::int64_t first_above = 0;  ///< global row index of above[plane][0]
  std::int64_t n_above = 0;
  std::vector<T> above;  ///< planes x n_above x W, row-major
  std::int64_t first_below = 0;
  std::int64_t n_below = 0;
  std::vector<T> below;  ///< planes x n_below x W, row-major
};

namespace detail {

template <typename T>
HaloRows<T> exchange_row_halo_impl(machine::Context& ctx, const DistArray<T>& a, int halo) {
  const Layout& lay = a.layout();
  if (lay.ndims() != 3 || lay.dim_dist(0).distributed() || !lay.dim_dist(1).distributed() ||
      lay.dim_dist(2).distributed()) {
    throw std::invalid_argument("exchange_row_halo: layout must be (*, BLOCK-like, *)");
  }
  const pgroup::ProcessorGroup& g = lay.group();
  const std::int64_t planes = lay.extent(0), W = lay.extent(2);
  const int me = a.my_vrank();
  const std::uint64_t tag = ctx.collective_tag(g);

  const auto sched = plan::halo_schedule(ctx.machine(), lay, halo);
  const plan::HaloSchedule::Member& mp = sched->members[static_cast<std::size_t>(me)];
  const std::int64_t rows_mine = mp.my_hi - mp.my_lo;
  const std::size_t row_bytes = static_cast<std::size_t>(W) * sizeof(T);
  const T* local = a.local().data();
  // Send phase: one message per consumer holding all of my rows it needs,
  // plane-major per row, in the consumer's need order.
  for (const plan::HaloSchedule::Send& snd : mp.sends) {
    machine::Payload buf = ctx.machine().pool_acquire(
        snd.local_rows.size() * static_cast<std::size_t>(planes) * row_bytes);
    std::byte* outp = buf.data();
    for (std::int64_t lr : snd.local_rows) {
      for (std::int64_t d = 0; d < planes; ++d) {
        std::memcpy(outp, local + (d * rows_mine + lr) * W, row_bytes);
        outp += row_bytes;
      }
    }
    ctx.charge_mem_bytes(static_cast<double>(buf.size()));
    ctx.send_phys(g.physical(snd.dst_vrank), tag, std::move(buf));
  }

  // Receive phase: my ghost rows grouped by owner, ascending owner order.
  HaloRows<T> out;
  if (mp.my_lo == mp.my_hi) return out;
  out.first_above = mp.first_above;
  out.n_above = mp.n_above;
  out.first_below = mp.first_below;
  out.n_below = mp.n_below;
  out.above.assign(static_cast<std::size_t>(planes * out.n_above * W), T{});
  out.below.assign(static_cast<std::size_t>(planes * out.n_below * W), T{});
  for (const plan::HaloSchedule::Recv& rcv : mp.recvs) {
    machine::Payload data = ctx.recv_phys(g.physical(rcv.src_vrank), tag);
    if (data.size() != rcv.rows.size() * static_cast<std::size_t>(planes) * row_bytes) {
      throw std::logic_error("exchange_row_halo: payload size does not match schedule");
    }
    ctx.charge_mem_bytes(static_cast<double>(data.size()));
    const std::byte* inp = data.data();
    for (std::int64_t r : rcv.rows) {
      for (std::int64_t d = 0; d < planes; ++d) {
        T* dstrow = r < mp.my_lo
                        ? out.above.data() + (d * out.n_above + (r - out.first_above)) * W
                        : out.below.data() + (d * out.n_below + (r - out.first_below)) * W;
        std::memcpy(dstrow, inp, row_bytes);
        inp += row_bytes;
      }
    }
    ctx.machine().pool_release(std::move(data));
  }
  return out;
}

}  // namespace detail

/// Exchanges `halo` boundary rows of `a` (shape (planes, H, W), distributed
/// (*, BLOCK, *)) among the owning group. Every member must call.
template <typename T>
HaloRows<T> exchange_row_halo(machine::Context& ctx, const DistArray<T>& a, int halo) {
  // Counts and times the exchange; it opens no span.
  const obs::Scope scope = ctx.scope(obs::Op::Halo, "halo", {});
  return detail::exchange_row_halo_impl(ctx, a, halo);
}

}  // namespace fxpar::dist
