// fxpar dist: general array assignment between distributed arrays.
//
// assign(dst, src) implements the paper's parent-scope array assignment
// (e.g. `A2 = A1` between pipeline stages, Figure 2): every processor of
// the *current* scope may call it, but only the minimal participating set —
// the union of the source and destination owner groups — takes part; all
// other processors return immediately and race ahead (Section 4,
// "Identification of minimal processor subsets"). Communication is pure
// direct deposit: no empty messages between processors whose owned sets do
// not intersect ("Localization").
//
// Synchronization: by default participants synchronize on a subset barrier
// before the transfer, modelling Fx's deposit model in which the receiver's
// buffer must be ready ("The actual synchronization mechanism is
// implementation dependent ... typically the same as that used for normal
// data parallel execution"). This bounds pipeline run-ahead to one data set
// per stage, like the real system. AssignSync::None gives unbounded
// buffering for ablation studies.
//
// assign_permuted additionally permutes dimensions — the corner turn
// (transpose) of the radar benchmark is one redistribution — and
// assign_shifted writes into a rectangular offset of the destination (the
// merge step of the quicksort example).
//
// Inspector–executor: the O(senders x receivers) run-intersection analysis
// (build_plan in plan_cache.hpp) is the *inspector*. Its output is
// flattened into per-pair (src_offset, dst_offset, len, stride) segments,
// and the executor below replays them with plain memcpy loops. With
// MachineConfig::plan_cache on (the default) a schedule is built once per
// (layouts, perm, offsets) tuple and shared machine-wide; with it off every
// call builds its own schedule and drops it afterwards. Messages, charges
// and barriers are the same either way, so modeled results are identical.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "dist/dist_array.hpp"
#include "dist/plan_cache.hpp"
#include "machine/context.hpp"
#include "trace/trace.hpp"

namespace fxpar::dist {

using machine::Context;
using machine::Payload;

enum class AssignSync {
  SubsetBarrier,  ///< participants barrier before the transfer (default)
  None,           ///< pure deposit; sender never waits (unbounded buffering)
};

namespace detail {

/// Executor pack over a flattened schedule: every segment is one memcpy,
/// in source-row-major order.
template <typename T>
void pack_flat(const DistArray<T>& src, const plan::FlatPlan& fp, Payload& buf) {
  const T* local = src.local().data();
  std::byte* out = buf.data();
  std::size_t pos = 0;
  for (const plan::TransferSeg& s : fp.segs) {
    std::memcpy(out + pos, local + s.src_off, static_cast<std::size_t>(s.len) * sizeof(T));
    pos += static_cast<std::size_t>(s.len) * sizeof(T);
  }
}

/// Executor unpack: contiguous segments are one memcpy; permuted
/// (corner-turn) segments scatter at a fixed receiver stride — no
/// per-element offset resolution either way.
template <typename T>
void unpack_flat(DistArray<T>& dst, const plan::FlatPlan& fp, const Payload& buf) {
  T* local = dst.local().data();
  const std::byte* in = buf.data();
  std::size_t pos = 0;
  for (const plan::TransferSeg& s : fp.segs) {
    if (s.dst_stride == 1) {
      std::memcpy(local + s.dst_off, in + pos, static_cast<std::size_t>(s.len) * sizeof(T));
      pos += static_cast<std::size_t>(s.len) * sizeof(T);
      continue;
    }
    T* out = local + s.dst_off;
    for (std::int64_t k = 0; k < s.len; ++k) {
      std::memcpy(out + k * s.dst_stride, in + pos, sizeof(T));
      pos += sizeof(T);
    }
  }
}

}  // namespace detail

/// Generalized assignment: for every source index G inside the copied
/// region, dst[ G[perm[0]]+offsets[0], ... ] = src[G]. `perm` maps
/// destination dimensions to source dimensions (identity when empty);
/// `offsets` shifts the destination placement (zero when empty). Must be
/// called by every processor of the current scope; only the union of owner
/// groups participates.
template <typename T>
void assign_general(Context& ctx, DistArray<T>& dst, const DistArray<T>& src,
                    std::vector<int> perm, std::vector<std::int64_t> offsets,
                    AssignSync sync = AssignSync::SubsetBarrier) {
  const Layout& sl = src.layout();
  const Layout& dl = dst.layout();
  if (sl.ndims() != dl.ndims()) {
    throw std::invalid_argument("assign: dimensionality mismatch");
  }
  const int nd = sl.ndims();
  if (perm.empty()) {
    perm.resize(static_cast<std::size_t>(nd));
    std::iota(perm.begin(), perm.end(), 0);
  }
  if (offsets.empty()) offsets.assign(static_cast<std::size_t>(nd), 0);
  if (static_cast<int>(perm.size()) != nd || static_cast<int>(offsets.size()) != nd) {
    throw std::invalid_argument("assign: perm/offsets arity mismatch");
  }
  const std::vector<int> inv = detail::inverse_perm(perm);
  for (int dd = 0; dd < nd; ++dd) {
    const std::int64_t need =
        sl.extent(perm[static_cast<std::size_t>(dd)]) + offsets[static_cast<std::size_t>(dd)];
    if (offsets[static_cast<std::size_t>(dd)] < 0 || need > dl.extent(dd)) {
      throw std::invalid_argument("assign: source does not fit destination in dimension " +
                                  std::to_string(dd));
    }
  }
  // Inspector: the flattened schedule — union group, participant sets and
  // per-pair segments — shared machine-wide when plan_cache is on, built
  // for this call alone when it is off.
  const std::shared_ptr<const plan::RedistSchedule> sched =
      plan::PlanCache::of(ctx.machine()).redist(ctx.machine(), sl, dl, perm, inv, offsets);

  // Minimal participating set: owners of either side. Everyone else skips.
  const pgroup::ProcessorGroup& ug = sched->ugroup;
  const int me = ctx.phys_rank();
  if (!ug.contains(me)) return;
  metrics::RuntimeMetrics* const mm = ctx.machine().metrics();
  double mt0 = 0.0;
  if (mm) {
    mm->redists->add(me);
    mt0 = ctx.machine().backend().now(me);
  }
  trace::ScopedSpan sp_;
  if (ctx.tracer()) sp_ = ctx.span("assign:" + dst.name(), "redistribute");
  const std::uint64_t tag = ctx.collective_tag(ug);
  if (sync == AssignSync::SubsetBarrier) ctx.barrier(ug);

  const int s_me = sl.group().virtual_of(me);
  const int r_me = dl.group().virtual_of(me);
  // With a fully replicated source every member holds the data; virtual
  // rank 0 is the canonical sender so values are sent exactly once.
  const bool i_send = s_me >= 0 && (!sl.fully_replicated() || s_me == 0);

  Payload self_payload;
  bool have_self = false;
  if (i_send) {
    for (int r = 0; r < dl.group().size(); ++r) {
      const int r_phys = dl.group().physical(r);
      // With a replicated source, destination members that are themselves
      // source members serve their own copy: never message them.
      if (sl.fully_replicated() && r_phys != me && sl.group().contains(r_phys)) continue;
      const plan::FlatPlan& fp = sched->pair(s_me, r);
      if (fp.empty()) continue;
      Payload buf = ctx.machine().pool_acquire(static_cast<std::size_t>(fp.elements) * sizeof(T));
      detail::pack_flat(src, fp, buf);
      ctx.charge_mem_bytes(static_cast<double>(buf.size()));
      if (r_phys == me) {
        self_payload = std::move(buf);
        have_self = true;
      } else {
        ctx.send_phys(r_phys, tag, std::move(buf));
      }
    }
  }
  if (r_me >= 0) {
    for (int s = 0; s < sl.group().size(); ++s) {
      if (sl.fully_replicated() && s != (s_me >= 0 ? s_me : 0)) continue;
      const plan::FlatPlan& fp = sched->pair(s, r_me);
      if (fp.empty()) continue;
      Payload buf;
      if (sl.fully_replicated() && s_me > 0) {
        // Self-serve from the local replica: the canonical sender skipped
        // us. Replicated local offsets are identical on every member, so
        // the canonical sender slot's segments pack our own replica too.
        buf = ctx.machine().pool_acquire(static_cast<std::size_t>(fp.elements) * sizeof(T));
        detail::pack_flat(src, fp, buf);
      } else if (sl.group().physical(s) == me) {
        if (!have_self) throw std::logic_error("assign: missing self payload");
        buf = std::move(self_payload);
        have_self = false;
      } else {
        buf = ctx.recv_phys(sl.group().physical(s), tag);
      }
      if (buf.size() != static_cast<std::size_t>(fp.elements) * sizeof(T)) {
        throw std::logic_error("assign: payload size does not match plan");
      }
      ctx.charge_mem_bytes(static_cast<double>(buf.size()));
      detail::unpack_flat(dst, fp, buf);
      ctx.machine().pool_release(std::move(buf));
    }
  }
  // Per-participant latency: modeled seconds on the simulator, real
  // seconds on the threaded backend.
  if (mm) mm->redist_s->observe(me, ctx.machine().backend().now(me) - mt0);
}

/// dst = src with matching shapes (possibly different distributions and
/// owner groups). The workhorse behind pipeline stage handoffs.
template <typename T>
void assign(Context& ctx, DistArray<T>& dst, const DistArray<T>& src,
            AssignSync sync = AssignSync::SubsetBarrier) {
  if (dst.layout().shape() != src.layout().shape()) {
    throw std::invalid_argument("assign: whole-array assignment requires equal shapes");
  }
  assign_general(ctx, dst, src, {}, {}, sync);
}

/// dst[i...] = src[i[perm]...]: dimension-permuting assignment.
template <typename T>
void assign_permuted(Context& ctx, DistArray<T>& dst, const DistArray<T>& src,
                     std::vector<int> perm, AssignSync sync = AssignSync::SubsetBarrier) {
  assign_general(ctx, dst, src, std::move(perm), {}, sync);
}

/// Writes src into dst starting at `offsets` (dst section assignment).
template <typename T>
void assign_shifted(Context& ctx, DistArray<T>& dst, std::vector<std::int64_t> offsets,
                    const DistArray<T>& src, AssignSync sync = AssignSync::SubsetBarrier) {
  assign_general(ctx, dst, src, {}, std::move(offsets), sync);
}

/// 2-D transpose: dst[j,i] = src[i,j] (the radar corner turn).
template <typename T>
void transpose(Context& ctx, DistArray<T>& dst, const DistArray<T>& src,
               AssignSync sync = AssignSync::SubsetBarrier) {
  if (src.layout().ndims() != 2) throw std::invalid_argument("transpose: 2-D arrays only");
  assign_permuted(ctx, dst, src, {1, 0}, sync);
}

/// Scatters a full row-major array held on physical processor `root_phys`
/// into the distributed array `a`. Must be called by all members of the
/// owner group plus the root; non-root callers may pass an empty vector.
template <typename T>
void scatter_full(Context& ctx, DistArray<T>& a, int root_phys, const std::vector<T>& full) {
  const pgroup::ProcessorGroup root_group({root_phys});
  Layout src_layout(root_group, a.layout().shape(),
                    std::vector<DimDist>(static_cast<std::size_t>(a.layout().ndims()),
                                         DimDist::collapsed()));
  DistArray<T> tmp(ctx, std::move(src_layout), a.name() + ".scatter");
  if (ctx.phys_rank() == root_phys) {
    if (static_cast<std::int64_t>(full.size()) != a.layout().total_elements()) {
      throw std::invalid_argument("scatter_full: source size does not match array shape");
    }
    std::copy(full.begin(), full.end(), tmp.local().begin());
  }
  assign(ctx, a, tmp);
}

/// Gathers the full array, row-major, onto physical processor `root_phys`.
/// Must be called by all members of the owner group plus the root; the root
/// returns the data, everyone else an empty vector.
template <typename T>
std::vector<T> gather_full(Context& ctx, const DistArray<T>& a, int root_phys) {
  const pgroup::ProcessorGroup root_group({root_phys});
  Layout dst_layout(root_group, a.layout().shape(),
                    std::vector<DimDist>(static_cast<std::size_t>(a.layout().ndims()),
                                         DimDist::collapsed()));
  DistArray<T> tmp(ctx, std::move(dst_layout), a.name() + ".gather");
  assign(ctx, tmp, a);
  if (ctx.phys_rank() == root_phys) {
    return std::vector<T>(tmp.local().begin(), tmp.local().end());
  }
  return {};
}

}  // namespace fxpar::dist
