// fxpar dist: inspector–executor schedules for redistribution and halo
// exchange, and the cache that keeps them.
//
// The paper's pipelines (FFT-Hist, radar, stereo) redistribute the *same*
// arrays between the *same* layouts once per data set, for hundreds of data
// sets per run. Every redistribution and halo exchange is split in two:
//
//  - inspector (this file, host-side only): runs the O(senders x receivers)
//    run-intersection analysis (build_plan / visit_plan), resolves every
//    local offset, and flattens the result into per-(sender, receiver)
//    vectors of (src_local_offset, dst_local_offset, len, dst_stride)
//    segments plus the union participant group;
//  - executor (redistribute.hpp / halo.hpp, the only implementation of
//    each operation): packs and unpacks with plain memcpy/strided loops
//    over the segments — no recursive plan visits, no per-element offset
//    resolution, no per-element copies on the permuted (corner-turn) path.
//
// With MachineConfig::plan_cache on (the default), schedules live on the
// Machine, keyed by (source layout, destination layout, perm, offsets), and
// are shared by every processor: the first caller builds the whole pair
// matrix, everyone else replays it. Lookup and build happen under one
// cache mutex so the scheme works unchanged on the threaded backend (on the
// simulator the single host thread never contends). Entries are handed out
// as shared_ptr so an eviction during a blocked call can never dangle.
// With it off, every lookup builds a fresh schedule for that call alone and
// counts neither a hit nor a miss.
//
// The switch changes host time only: the executor is the same either way,
// so messages, charges, barriers and modeled results are bit-identical
// (the tier-1 suite asserts this).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "dist/layout.hpp"
#include "machine/machine.hpp"

namespace fxpar::dist {

/// Union of two groups' members, ascending by physical rank.
inline pgroup::ProcessorGroup union_group(const pgroup::ProcessorGroup& a,
                                          const pgroup::ProcessorGroup& b) {
  std::vector<int> m = a.members();
  m.insert(m.end(), b.members().begin(), b.members().end());
  std::sort(m.begin(), m.end());
  m.erase(std::unique(m.begin(), m.end()), m.end());
  return pgroup::ProcessorGroup(std::move(m));
}

namespace detail {

/// Per-source-dimension runs a (sender, receiver) pair exchanges, expressed
/// in *source* global indices.
struct TransferPlan {
  std::vector<std::vector<IndexRun>> runs;  ///< indexed by source dimension
  std::int64_t elements = 0;

  bool empty() const noexcept { return elements == 0; }
};

/// perm maps destination dimension -> source dimension:
/// dst_index[dd] == src_index[perm[dd]] + offsets[dd].
inline std::vector<int> inverse_perm(const std::vector<int>& perm) {
  std::vector<int> inv(perm.size(), -1);
  for (std::size_t dd = 0; dd < perm.size(); ++dd) {
    const int sd = perm[dd];
    if (sd < 0 || sd >= static_cast<int>(perm.size()) || inv[static_cast<std::size_t>(sd)] != -1) {
      throw std::invalid_argument("assign: perm is not a permutation");
    }
    inv[static_cast<std::size_t>(sd)] = static_cast<int>(dd);
  }
  return inv;
}

inline std::vector<IndexRun> shift_runs(std::vector<IndexRun> runs, std::int64_t delta) {
  for (IndexRun& r : runs) r.start += delta;
  return runs;
}

inline TransferPlan build_plan(const Layout& src, int s_vrank, const Layout& dst, int r_vrank,
                               const std::vector<int>& inv_perm,
                               const std::vector<std::int64_t>& offsets) {
  TransferPlan plan;
  const int nd = src.ndims();
  plan.runs.resize(static_cast<std::size_t>(nd));
  plan.elements = 1;
  for (int sd = 0; sd < nd; ++sd) {
    const int dd = inv_perm[static_cast<std::size_t>(sd)];
    // Express the receiver's owned set in source coordinates, then clip it
    // against the source's image inside the destination.
    std::vector<IndexRun> dst_in_src = shift_runs(
        dst.owned_runs(r_vrank, dd), -offsets[static_cast<std::size_t>(dd)]);
    dst_in_src = intersect_runs(dst_in_src, {IndexRun{0, src.extent(sd)}});
    plan.runs[static_cast<std::size_t>(sd)] =
        intersect_runs(src.owned_runs(s_vrank, sd), dst_in_src);
    plan.elements *= total_length(plan.runs[static_cast<std::size_t>(sd)]);
    if (plan.elements == 0) {
      plan.elements = 0;
      return plan;
    }
  }
  return plan;
}

/// Visits the plan's global indices in source-row-major order. `fn` is
/// called once per innermost run with gidx[last] set to the run start.
template <typename Fn>
void visit_plan(const TransferPlan& plan, std::vector<std::int64_t>& gidx, int d, Fn&& fn) {
  const int nd = static_cast<int>(plan.runs.size());
  if (d == nd - 1) {
    for (const IndexRun& r : plan.runs[static_cast<std::size_t>(d)]) {
      gidx[static_cast<std::size_t>(d)] = r.start;
      fn(gidx, r.len);
    }
    return;
  }
  for (const IndexRun& r : plan.runs[static_cast<std::size_t>(d)]) {
    for (std::int64_t i = r.start; i < r.start + r.len; ++i) {
      gidx[static_cast<std::size_t>(d)] = i;
      visit_plan(plan, gidx, d + 1, fn);
    }
  }
}

}  // namespace detail

namespace plan {

/// One flattened copy: `len` elements from the sender's local storage at
/// `src_off` land in the receiver's local storage at `dst_off`, spaced
/// `dst_stride` elements apart (1 = contiguous, a straight memcpy).
/// Offsets and lengths are in elements, so schedules are element-type
/// independent.
struct TransferSeg {
  std::int64_t src_off = 0;
  std::int64_t dst_off = 0;
  std::int64_t len = 0;
  std::int64_t dst_stride = 1;
};

/// The flattened transfer between one (sender, receiver) pair, in
/// source-row-major byte order.
struct FlatPlan {
  std::int64_t elements = 0;
  std::vector<TransferSeg> segs;

  bool empty() const noexcept { return elements == 0; }
};

/// A whole redistribution's cached state: the union participant group plus
/// the flattened pair matrix. With a fully replicated source only the
/// canonical sender slot is stored (every replica's local offsets are
/// identical, so the one slot serves self-serving receivers too).
struct RedistSchedule {
  pgroup::ProcessorGroup ugroup;
  bool src_replicated = false;
  int nsenders = 0;  ///< 1 when src_replicated, else source group size
  int nreceivers = 0;

  std::vector<FlatPlan> pairs;  ///< [sender_slot * nreceivers + receiver]

  const FlatPlan& pair(int s_vrank, int r_vrank) const {
    const int slot = src_replicated ? 0 : s_vrank;
    return pairs[static_cast<std::size_t>(slot) * static_cast<std::size_t>(nreceivers) +
                 static_cast<std::size_t>(r_vrank)];
  }
};

/// Cached ghost-row exchange schedule for halo.hpp (one entry per group
/// member; (planes, H, W) layouts distributed (*, BLOCK-like, *)).
struct HaloSchedule {
  struct Send {
    int dst_vrank = -1;
    std::vector<std::int64_t> local_rows;  ///< row offsets into my block
  };
  struct Recv {
    int src_vrank = -1;
    std::vector<std::int64_t> rows;  ///< global row indices, wire order
  };
  struct Member {
    std::int64_t my_lo = 0, my_hi = 0;
    std::int64_t first_above = 0, n_above = 0;
    std::int64_t first_below = 0, n_below = 0;
    std::vector<Send> sends;  ///< ascending consumer vrank, non-empty only
    std::vector<Recv> recvs;  ///< ascending owner vrank
  };
  std::int64_t planes = 0, H = 0, W = 0;
  std::vector<Member> members;  ///< indexed by vrank
};

/// The per-Machine schedule cache. Entries are returned as shared_ptr so a
/// caller blocked mid-redistribution survives eviction by another
/// processor. With MachineConfig::plan_cache off, lookups build and return
/// a schedule without storing or counting it.
class PlanCache final : public machine::MachineCacheBase {
 public:
  /// Soft capacity: inserting past this drops the whole table (outstanding
  /// shared_ptr holders keep their schedules alive).
  static constexpr std::size_t kMaxEntries = 128;

  /// The cache attached to `m`, created on first use.
  static PlanCache& of(machine::Machine& m);

  /// The schedule for assign_general(src -> dst, perm, offsets), building
  /// and inserting it on a miss. Counts a hit or miss on `m` (caching on).
  std::shared_ptr<const RedistSchedule> redist(machine::Machine& m, const Layout& src,
                                               const Layout& dst, const std::vector<int>& perm,
                                               const std::vector<int>& inv_perm,
                                               const std::vector<std::int64_t>& offsets);

  /// The schedule for exchange_row_halo(layout, halo). Counts a hit or miss
  /// (caching on).
  std::shared_ptr<const HaloSchedule> halo(machine::Machine& m, const Layout& layout, int halo);

  std::size_t redist_entries() const noexcept { return redist_.size(); }
  std::size_t halo_entries() const noexcept { return halo_.size(); }

 private:
  struct Key {
    std::vector<std::int64_t> blob;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  static void append_layout(std::vector<std::int64_t>& blob, const Layout& l);
  static Key redist_key(const Layout& src, const Layout& dst, const std::vector<int>& perm,
                        const std::vector<std::int64_t>& offsets);

  /// Held across lookup *and* build: on the threaded backend the first
  /// worker to miss builds the schedule while the rest wait and then hit,
  /// so hit/miss totals match the simulator's exactly (the simulator's
  /// fibers never contend on it).
  mutable std::mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const RedistSchedule>, KeyHash> redist_;
  std::unordered_map<Key, std::shared_ptr<const HaloSchedule>, KeyHash> halo_;
};

/// Inspector: flattens the full pair matrix for one redistribution. Exposed
/// for tests; assign_general reaches it through PlanCache::redist.
std::shared_ptr<const RedistSchedule> build_redist_schedule(
    const Layout& src, const Layout& dst, const std::vector<int>& perm,
    const std::vector<int>& inv_perm, const std::vector<std::int64_t>& offsets);

/// Inspector for the ghost-row exchange of halo.hpp.
std::shared_ptr<const HaloSchedule> build_halo_schedule(const Layout& layout, int halo);

}  // namespace plan

}  // namespace fxpar::dist
