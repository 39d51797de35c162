// Tests for the machine's plan store and the schedules it keeps: flattened
// redistribution schedule construction, key discrimination, the store's
// identity and eviction rules, and the halo exchange schedule.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "dist/plan_cache.hpp"
#include "machine/machine.hpp"

namespace ds = fxpar::dist;
namespace mx = fxpar::machine;
namespace pg = fxpar::pgroup;

namespace {

mx::MachineConfig cfg(int p) {
  auto c = mx::MachineConfig::ideal(p);
  c.stack_bytes = 256 * 1024;
  return c;
}

std::int64_t seg_elements(const ds::plan::FlatPlan& fp) {
  std::int64_t n = 0;
  for (const ds::plan::TransferSeg& s : fp.segs) n += s.len;
  return n;
}

}  // namespace

TEST(DistPlan, FlattenedSegmentsCoverEveryPlanElement) {
  const auto g = pg::ProcessorGroup::identity(4);
  const ds::Layout src(g, {9, 7}, {ds::DimDist::block(), ds::DimDist::cyclic()});
  const ds::Layout dst(g, {9, 7}, {ds::DimDist::cyclic(), ds::DimDist::block()});
  const std::vector<int> perm{0, 1};
  const auto sched = ds::plan::build_redist_schedule(src, dst, perm,
                                                     ds::detail::inverse_perm(perm), {0, 0});
  ASSERT_EQ(sched->nsenders, 4);
  ASSERT_EQ(sched->nreceivers, 4);
  std::int64_t total = 0;
  for (int s = 0; s < 4; ++s) {
    for (int r = 0; r < 4; ++r) {
      const ds::plan::FlatPlan& fp = sched->pair(s, r);
      EXPECT_EQ(seg_elements(fp), fp.elements) << "pair " << s << "->" << r;
      // Identity perm: every segment is a contiguous memcpy.
      for (const ds::plan::TransferSeg& sg : fp.segs) EXPECT_EQ(sg.dst_stride, 1);
      total += fp.elements;
    }
  }
  EXPECT_EQ(total, 9 * 7);  // every element handled exactly once
}

TEST(DistPlan, PermutedScheduleCoversDistinctDestinations) {
  const auto g = pg::ProcessorGroup::identity(4);
  const ds::Layout src(g, {6, 8}, {ds::DimDist::block(), ds::DimDist::collapsed()});
  const ds::Layout dst(g, {8, 6}, {ds::DimDist::block(), ds::DimDist::collapsed()});
  const std::vector<int> perm{1, 0};
  const auto sched = ds::plan::build_redist_schedule(src, dst, perm,
                                                     ds::detail::inverse_perm(perm), {0, 0});
  std::int64_t total = 0;
  for (int r = 0; r < 4; ++r) {
    // Per receiver, no two segments may write the same local slot.
    std::set<std::int64_t> slots;
    for (int s = 0; s < 4; ++s) {
      const ds::plan::FlatPlan& fp = sched->pair(s, r);
      EXPECT_EQ(seg_elements(fp), fp.elements);
      for (const ds::plan::TransferSeg& sg : fp.segs) {
        for (std::int64_t k = 0; k < sg.len; ++k) {
          EXPECT_TRUE(slots.insert(sg.dst_off + k * sg.dst_stride).second)
              << "receiver " << r << " slot written twice";
        }
      }
      total += fp.elements;
    }
  }
  EXPECT_EQ(total, 6 * 8);
}

TEST(DistPlan, SameArgumentsHitAndShareTheSchedule) {
  mx::Machine m(cfg(4));
  const auto g = pg::ProcessorGroup::identity(4);
  const ds::Layout src(g, {16}, {ds::DimDist::block()});
  const ds::Layout dst(g, {16}, {ds::DimDist::cyclic()});
  const std::vector<int> perm{0};
  const std::vector<int> inv{0};
  const auto s1 = ds::plan::redist_schedule(m, src, dst, perm, inv, {0});
  const auto s2 = ds::plan::redist_schedule(m, src, dst, perm, inv, {0});
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Redist), 1u);
}

TEST(DistPlan, KeyDiscriminatesLayoutDetails) {
  mx::Machine m(cfg(4));
  const auto redist = [&m](const ds::Layout& s, const ds::Layout& d, const std::vector<int>& perm,
                           const std::vector<int>& inv, const std::vector<std::int64_t>& off) {
    ds::plan::redist_schedule(m, s, d, perm, inv, off);
  };
  const auto g = pg::ProcessorGroup::identity(4);
  const std::vector<int> perm{0};
  const std::vector<int> inv{0};
  const ds::Layout b16(g, {16}, {ds::DimDist::block()});
  const ds::Layout c16(g, {16}, {ds::DimDist::cyclic()});
  const ds::Layout bc2(g, {16}, {ds::DimDist::block_cyclic(2)});
  const ds::Layout bc4(g, {16}, {ds::DimDist::block_cyclic(4)});
  const ds::Layout b20(g, {20}, {ds::DimDist::block()});
  const pg::ProcessorGroup sub({0, 1});
  const ds::Layout bsub(sub, {16}, {ds::DimDist::block()});
  redist(b16, c16, perm, inv, {0});
  redist(b16, bc2, perm, inv, {0});   // distribution kind
  redist(b16, bc4, perm, inv, {0});   // block size
  redist(b20, c16, perm, inv, {0});   // extent (shifted assigns clip)
  redist(bsub, c16, perm, inv, {0});  // group membership
  redist(b16, c16, perm, inv, {2});   // offset
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Redist), 6u);
  redist(b16, c16, perm, inv, {0});  // replay of the first
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Redist), 6u);
}

TEST(DistPlan, ReplicatedSourceStoresOneSenderSlot) {
  const auto g = pg::ProcessorGroup::identity(3);
  const ds::Layout src(g, {9}, {ds::DimDist::collapsed()});
  const ds::Layout dst(g, {9}, {ds::DimDist::block()});
  const std::vector<int> perm{0};
  const auto sched = ds::plan::build_redist_schedule(src, dst, perm,
                                                     ds::detail::inverse_perm(perm), {0});
  EXPECT_TRUE(sched->src_replicated);
  EXPECT_EQ(sched->nsenders, 1);
  EXPECT_EQ(sched->pairs.size(), 3u);
  // pair() maps every sender vrank onto the canonical slot.
  for (int s = 0; s < 3; ++s) EXPECT_EQ(sched->pair(s, 1).elements, 3);
}

TEST(DistPlan, HaloScheduleBalancesSendsAndReceives) {
  const auto g = pg::ProcessorGroup::identity(4);
  const ds::Layout lay(g, {2, 13, 5},
                       {ds::DimDist::collapsed(), ds::DimDist::block(), ds::DimDist::collapsed()});
  const auto sched = ds::plan::build_halo_schedule(lay, 2);
  ASSERT_EQ(sched->members.size(), 4u);
  std::int64_t sent = 0, received = 0;
  for (const auto& mp : sched->members) {
    for (const auto& snd : mp.sends) {
      EXPECT_FALSE(snd.local_rows.empty());
      for (std::int64_t lr : snd.local_rows) {
        EXPECT_GE(lr, 0);
        EXPECT_LT(lr, mp.my_hi - mp.my_lo);
      }
      sent += static_cast<std::int64_t>(snd.local_rows.size());
    }
    EXPECT_EQ(mp.n_above + mp.n_below,
              std::accumulate(mp.recvs.begin(), mp.recvs.end(), std::int64_t{0},
                              [](std::int64_t acc, const auto& rcv) {
                                return acc + static_cast<std::int64_t>(rcv.rows.size());
                              }));
    received += mp.n_above + mp.n_below;
  }
  EXPECT_EQ(sent, received);
}

// ---------------------------------------------------------------------------
// Collective schedules (comm/collective_plan.hpp): schedule builders, store
// on/off bit parity on both backends, and hit/miss accounting.
// ---------------------------------------------------------------------------

#include <functional>

#include "collective_sweep.hpp"
#include "comm/collective_plan.hpp"
#include "comm/collectives.hpp"
#include "exec/backend.hpp"

namespace cm = fxpar::comm;
namespace cp = fxpar::comm::plan;
namespace ex = fxpar::exec;

#if defined(__SANITIZE_THREAD__)
#define FXPAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FXPAR_TSAN 1
#endif
#endif

namespace {

std::vector<int> iota_members(int n) {
  std::vector<int> m(static_cast<std::size_t>(n));
  std::iota(m.begin(), m.end(), 0);
  return m;
}

}  // namespace

TEST(CollectivePlan, TreeScheduleMatchesBinomialStructure) {
  for (int n : {1, 2, 3, 4, 5, 7, 8, 13}) {
    for (int root : {0, n / 2, n - 1}) {
      const cp::TreeSchedule t = cp::build_tree_schedule(iota_members(n), root);
      ASSERT_EQ(static_cast<int>(t.nodes.size()), n);
      EXPECT_EQ(t.root, root);
      // The root has no parents; everyone else has exactly one of each.
      int reduce_edges = 0, bcast_edges = 0;
      for (int v = 0; v < n; ++v) {
        const auto& nd = t.nodes[static_cast<std::size_t>(v)];
        if (v == root) {
          EXPECT_EQ(nd.reduce_parent, -1);
          EXPECT_EQ(nd.bcast_parent, -1);
        } else {
          EXPECT_GE(nd.reduce_parent, 0);
          EXPECT_GE(nd.bcast_parent, 0);
        }
        reduce_edges += static_cast<int>(nd.reduce_children.size());
        bcast_edges += static_cast<int>(nd.bcast_children.size());
        // Parent/child lists are mutually consistent.
        for (int c : nd.reduce_children) {
          EXPECT_EQ(t.nodes[static_cast<std::size_t>(c)].reduce_parent, v);
        }
        for (int c : nd.bcast_children) {
          EXPECT_EQ(t.nodes[static_cast<std::size_t>(c)].bcast_parent, v);
        }
      }
      // A tree over n nodes has n-1 edges in each direction.
      EXPECT_EQ(reduce_edges, n - 1) << "n=" << n << " root=" << root;
      EXPECT_EQ(bcast_edges, n - 1) << "n=" << n << " root=" << root;
    }
  }
}

TEST(CollectivePlan, RootedScheduleListsPeersAscending) {
  const cp::RootedSchedule r = cp::build_rooted_schedule(iota_members(5), 2);
  EXPECT_EQ(r.root, 2);
  EXPECT_EQ(r.peers, (std::vector<int>{0, 1, 3, 4}));
}

TEST(CollectivePlan, CacheHitsShareTheSchedule) {
  mx::Machine m(cfg(4));
  const auto g = pg::ProcessorGroup::identity(4);
  const auto t1 = cp::tree_schedule(m, g, 0);
  const auto t2 = cp::tree_schedule(m, g, 0);
  EXPECT_EQ(t1.get(), t2.get());
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Tree), 1u);
  // A different root is a different entry.
  const auto t3 = cp::tree_schedule(m, g, 2);
  EXPECT_NE(t1.get(), t3.get());
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Tree), 2u);
  // Tree and rooted tables are independent.
  (void)cp::rooted_schedule(m, g, 0);
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Rooted), 1u);
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Tree), 2u);
}

// ---------------------------------------------------------------------------
// The plan store itself (Machine::plan): identity and eviction rules.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t store_counter(const mx::Machine& m, const char* name) {
  return m.metrics_snapshot().counter(name);
}

}  // namespace

TEST(PlanStore, SameKeyWordsUnderTwoKindsAreTwoEntries) {
  mx::Machine m(cfg(3));
  const std::vector<std::int64_t> words{0, 0, 1, 2};
  const auto tree = m.plan<cp::TreeSchedule>(words, [] {
    return std::make_shared<const cp::TreeSchedule>(cp::build_tree_schedule({0, 1, 2}, 0));
  });
  const auto rooted = m.plan<cp::RootedSchedule>(words, [] {
    return std::make_shared<const cp::RootedSchedule>(cp::build_rooted_schedule({0, 1, 2}, 0));
  });
  EXPECT_NE(static_cast<const void*>(tree.get()), static_cast<const void*>(rooted.get()));
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Tree), 1u);
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Rooted), 1u);
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Redist), 0u);
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Halo), 0u);
  // Both lookups missed: the second kind did not see the first's entry.
  EXPECT_EQ(store_counter(m, "fxpar_comm_collective_plan_misses_total"), 2u);
  EXPECT_EQ(store_counter(m, "fxpar_comm_collective_plan_hits_total"), 0u);
  EXPECT_EQ(rooted->peers, (std::vector<int>{1, 2}));
}

TEST(PlanStore, PermutedMemberListsGetDistinctTreeSchedules) {
  mx::Machine m(cfg(3));
  const pg::ProcessorGroup fwd({0, 1, 2});
  const pg::ProcessorGroup rev({2, 1, 0});
  const auto a = cp::tree_schedule(m, fwd, 0);
  const auto b = cp::tree_schedule(m, rev, 0);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->members, fwd.members());
  EXPECT_EQ(b->members, rev.members());
  EXPECT_EQ(m.plan_entries(mx::PlanKind::Tree), 2u);
  EXPECT_EQ(cp::tree_schedule(m, rev, 0).get(), b.get());
}

TEST(PlanStore, EvictionKeepsOutstandingSchedulesAlive) {
  mx::Machine m(cfg(2));
  const auto g = pg::ProcessorGroup::identity(2);
  const std::vector<int> perm{0};
  const std::vector<int> inv{0};
  const ds::Layout src0(g, {8}, {ds::DimDist::block()});
  const ds::Layout dst0(g, {8}, {ds::DimDist::cyclic()});
  const auto held = ds::plan::redist_schedule(m, src0, dst0, perm, inv, {0});
  const auto held_elems = [&held] {
    std::int64_t n = 0;
    for (int s = 0; s < 2; ++s) {
      for (int r = 0; r < 2; ++r) n += held->pair(s, r).elements;
    }
    return n;
  };
  EXPECT_EQ(held_elems(), 8);
  // Flood the table with more distinct keys of the one kind than it holds;
  // the wholesale eviction must not touch the schedule a (possibly
  // blocked) caller still holds.
  for (std::int64_t n = 9; n < 9 + static_cast<std::int64_t>(mx::Machine::kMaxPlans) + 8; ++n) {
    const ds::Layout s(g, {n}, {ds::DimDist::block()});
    const ds::Layout d(g, {n}, {ds::DimDist::cyclic()});
    ds::plan::redist_schedule(m, s, d, perm, inv, {0});
  }
  EXPECT_LE(m.plan_entries(mx::PlanKind::Redist), mx::Machine::kMaxPlans);
  EXPECT_EQ(held_elems(), 8);  // still fully readable after eviction
  // The held key was evicted: looking it up again builds a new schedule.
  const std::uint64_t misses = store_counter(m, "fxpar_dist_plan_cache_misses_total");
  const auto again = ds::plan::redist_schedule(m, src0, dst0, perm, inv, {0});
  EXPECT_EQ(store_counter(m, "fxpar_dist_plan_cache_misses_total"), misses + 1);
  EXPECT_NE(again.get(), held.get());
}

namespace {

fxpar::testing::SweepResult run_collective_sweep(ex::BackendKind kind, bool cache_on, int p) {
  auto c = cfg(p);
  c.backend = kind;
  c.plan_cache = cache_on;
  return fxpar::testing::run_collective_sweep(c);
}

using fxpar::testing::expect_sweeps_identical;
using fxpar::testing::SweepResult;

}  // namespace

TEST(CollectivePlan, CachedMatchesUncachedBitForBitOnSim) {
#ifdef FXPAR_TSAN
  GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer";
#endif
  for (int p : {2, 3, 5, 8}) {
    const SweepResult on = run_collective_sweep(ex::BackendKind::Sim, true, p);
    const SweepResult off = run_collective_sweep(ex::BackendKind::Sim, false, p);
    expect_sweeps_identical(on, off, "sim");
    EXPECT_GT(on.run.collective_plan_hits + on.run.collective_plan_misses, 0u);
    EXPECT_EQ(off.run.collective_plan_hits, 0u);
    EXPECT_EQ(off.run.collective_plan_misses, 0u);
    // Modeled time is untouched by the cache.
    EXPECT_EQ(on.run.finish_time, off.run.finish_time) << "p=" << p;
  }
}

TEST(CollectivePlan, CachedMatchesUncachedBitForBitOnThreads) {
  for (int p : {2, 3, 5, 8}) {
    const SweepResult on = run_collective_sweep(ex::BackendKind::Threads, true, p);
    const SweepResult off = run_collective_sweep(ex::BackendKind::Threads, false, p);
    expect_sweeps_identical(on, off, "threads");
    EXPECT_GT(on.run.collective_plan_hits + on.run.collective_plan_misses, 0u);
  }
}

TEST(CollectivePlan, ThreadsMatchSimWithCacheOn) {
#ifdef FXPAR_TSAN
  GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer";
#endif
  const SweepResult sim = run_collective_sweep(ex::BackendKind::Sim, true, 6);
  const SweepResult thr = run_collective_sweep(ex::BackendKind::Threads, true, 6);
  expect_sweeps_identical(sim, thr, "cross-backend");
}

TEST(CollectivePlan, HitMissTotalsAreSpmdShaped) {
#ifdef FXPAR_TSAN
  GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer";
#endif
  const int p = 4;
  auto c = cfg(p);
  c.plan_cache = true;
  mx::Machine m(c);
  const auto res = m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(p);
    for (int it = 0; it < 3; ++it) {
      (void)cm::allreduce(ctx, g, 1.0, std::plus<double>{});
    }
  });
  // allreduce = reduce + broadcast over one tree entry: the first member to
  // arrive builds it (one miss); every other lookup — all p members, three
  // iterations, two phases — hits.
  EXPECT_EQ(res.collective_plan_misses, 1u);
  EXPECT_EQ(res.collective_plan_hits, static_cast<std::uint64_t>(3 * 2 * p - 1));
}
