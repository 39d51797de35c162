// Tests for general redistribution: assignment across distributions and
// groups, permuted (transpose) assignment, shifted (section) assignment,
// gather_full, and the minimal-participating-set property.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <tuple>

#include "dist/redistribute.hpp"
#include "machine/context.hpp"
#include "rank_results.hpp"

namespace ds = fxpar::dist;
namespace ex = fxpar::exec;
namespace mx = fxpar::machine;
namespace pg = fxpar::pgroup;

namespace {

mx::MachineConfig cfg(int p) {
  auto c = mx::MachineConfig::ideal(p);
  c.stack_bytes = 256 * 1024;
  return c;
}

ds::DimDist dist_by_id(int id) {
  switch (id) {
    case 0: return ds::DimDist::block();
    case 1: return ds::DimDist::cyclic();
    case 2: return ds::DimDist::block_cyclic(3);
    default: return ds::DimDist::collapsed();
  }
}

std::string parity_name(
    const ::testing::TestParamInfo<std::tuple<ex::BackendKind, int, int, bool, int>>& info) {
  const auto& [kind, a, b, swap, shifted] = info.param;
  return std::string(ex::backend_kind_name(kind)) + "_" + std::to_string(a) + "_" +
         std::to_string(b) + (swap ? "_perm" : "_id") + (shifted ? "_shift" : "");
}

}  // namespace

// Property sweep: any 1-D redistribution preserves content.
class Redist1D : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(Redist1D, ContentPreservedAcrossDistributions) {
  const int src_kind = std::get<0>(GetParam());
  const int dst_kind = std::get<1>(GetParam());
  const int p = std::get<2>(GetParam());
  constexpr std::int64_t kN = 37;
  mx::Machine m(cfg(p));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(p);
    ds::DistArray<std::int64_t> src(ctx, ds::Layout(g, {kN}, {dist_by_id(src_kind)}), "src");
    ds::DistArray<std::int64_t> dst(ctx, ds::Layout(g, {kN}, {dist_by_id(dst_kind)}), "dst");
    src.fill([](std::span<const std::int64_t> gi) { return gi[0] * 7 + 1; });
    dst.fill_value(-1);
    ds::assign(ctx, dst, src);
    dst.for_each_owned([](std::span<const std::int64_t> gi, std::int64_t& v) {
      EXPECT_EQ(v, gi[0] * 7 + 1) << "at " << gi[0];
    });
  });
}

INSTANTIATE_TEST_SUITE_P(AllPairs, Redist1D,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(1, 2, 4)));

TEST(Redistribute, AcrossDisjointGroups) {
  mx::Machine m(cfg(6));
  const pg::ProcessorGroup ga({0, 1, 2});
  const pg::ProcessorGroup gb({3, 4, 5});
  m.run([&](mx::Context& ctx) {
    ds::DistArray<int> a(ctx, ds::Layout(ga, {12}, {ds::DimDist::block()}), "a");
    ds::DistArray<int> b(ctx, ds::Layout(gb, {12}, {ds::DimDist::cyclic()}), "b");
    a.fill([](std::span<const std::int64_t> g) { return static_cast<int>(g[0] + 100); });
    ds::assign(ctx, b, a);
    b.for_each_owned([](std::span<const std::int64_t> g, int& v) {
      EXPECT_EQ(v, static_cast<int>(g[0] + 100));
    });
  });
}

TEST(Redistribute, TwoDimChangeOfDistribution) {
  // (BLOCK, *) -> (*, BLOCK): the FFT row/column exchange.
  mx::Machine m(cfg(4));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    ds::DistArray<double> rows(
        ctx, ds::Layout(g, {8, 8}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "rows");
    ds::DistArray<double> cols(
        ctx, ds::Layout(g, {8, 8}, {ds::DimDist::collapsed(), ds::DimDist::block()}), "cols");
    rows.fill([](std::span<const std::int64_t> gi) {
      return static_cast<double>(gi[0] * 8 + gi[1]);
    });
    ds::assign(ctx, cols, rows);
    cols.for_each_owned([](std::span<const std::int64_t> gi, double& v) {
      EXPECT_DOUBLE_EQ(v, static_cast<double>(gi[0] * 8 + gi[1]));
    });
  });
}

TEST(Redistribute, TransposeIsPermutedAssign) {
  mx::Machine m(cfg(4));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    ds::DistArray<int> a(
        ctx, ds::Layout(g, {6, 4}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "a");
    ds::DistArray<int> t(
        ctx, ds::Layout(g, {4, 6}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "t");
    a.fill([](std::span<const std::int64_t> gi) {
      return static_cast<int>(gi[0] * 10 + gi[1]);
    });
    ds::transpose(ctx, t, a);
    t.for_each_owned([](std::span<const std::int64_t> gi, int& v) {
      // t[j,i] == a[i,j] encoded as i*10+j.
      EXPECT_EQ(v, static_cast<int>(gi[1] * 10 + gi[0]));
    });
  });
}

TEST(Redistribute, ShiftedSectionAssign) {
  // Write an 8-element array into positions [4..12) of a 16-element array:
  // the quicksort merge step.
  mx::Machine m(cfg(4));
  const pg::ProcessorGroup sub({1, 2});
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    ds::DistArray<int> part(ctx, ds::Layout(sub, {8}, {ds::DimDist::block()}), "part");
    ds::DistArray<int> whole(ctx, ds::Layout(g, {16}, {ds::DimDist::block()}), "whole");
    part.fill([](std::span<const std::int64_t> gi) { return static_cast<int>(gi[0] + 1000); });
    whole.fill_value(-1);
    ds::assign_shifted(ctx, whole, {4}, part);
    whole.for_each_owned([](std::span<const std::int64_t> gi, int& v) {
      if (gi[0] >= 4 && gi[0] < 12) {
        EXPECT_EQ(v, static_cast<int>(gi[0] - 4 + 1000));
      } else {
        EXPECT_EQ(v, -1);
      }
    });
  });
}

TEST(Redistribute, ReplicatedDestinationBroadcasts) {
  mx::Machine m(cfg(3));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(3);
    ds::DistArray<int> src(ctx, ds::Layout(g, {9}, {ds::DimDist::block()}), "src");
    ds::DistArray<int> rep(ctx, ds::Layout(g, {9}, {ds::DimDist::collapsed()}), "rep");
    src.fill([](std::span<const std::int64_t> gi) { return static_cast<int>(gi[0] * 3); });
    ds::assign(ctx, rep, src);
    for (std::int64_t i = 0; i < 9; ++i) EXPECT_EQ(rep.at(i), static_cast<int>(i * 3));
  });
}

TEST(Redistribute, ReplicatedSourceScattersWithoutDuplicateTraffic) {
  mx::Machine m(cfg(4));
  const pg::ProcessorGroup src_g({0, 1});
  const pg::ProcessorGroup dst_g({1, 2, 3});
  mx::RunResult res;
  {
    mx::Machine m2(cfg(4));
    res = m2.run([&](mx::Context& ctx) {
      ds::DistArray<int> rep(ctx, ds::Layout(src_g, {8}, {ds::DimDist::collapsed()}), "rep");
      ds::DistArray<int> out(ctx, ds::Layout(dst_g, {8}, {ds::DimDist::block()}), "out");
      rep.fill([](std::span<const std::int64_t> gi) { return static_cast<int>(gi[0] + 5); });
      ds::assign(ctx, out, rep);
      out.for_each_owned([](std::span<const std::int64_t> gi, int& v) {
        EXPECT_EQ(v, static_cast<int>(gi[0] + 5));
      });
    });
  }
  // Proc 1 is in both groups: it self-serves. Only procs 2 and 3 receive.
  EXPECT_EQ(res.messages, 2u);
}

TEST(Redistribute, MinimalSubsetSkipsNonParticipants) {
  // Procs outside union(src, dst) must not advance their clocks at all.
  mx::Machine m(cfg(6));
  const pg::ProcessorGroup src_g({0, 1});
  const pg::ProcessorGroup dst_g({2, 3});
  m.run([&](mx::Context& ctx) {
    ds::DistArray<int> a(ctx, ds::Layout(src_g, {8}, {ds::DimDist::block()}), "a");
    ds::DistArray<int> b(ctx, ds::Layout(dst_g, {8}, {ds::DimDist::block()}), "b");
    a.fill_value(1);
    ds::assign(ctx, b, a);
    if (ctx.phys_rank() >= 4) {
      EXPECT_DOUBLE_EQ(ctx.now(), 0.0);  // skipped past, free of charge
    }
  });
}

TEST(Redistribute, GatherFullCollectsRowMajor) {
  mx::Machine m(cfg(4));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    ds::DistArray<int> a(
        ctx, ds::Layout(g, {4, 4}, {ds::DimDist::block(), ds::DimDist::block()}), "a");
    a.fill([](std::span<const std::int64_t> gi) {
      return static_cast<int>(gi[0] * 4 + gi[1]);
    });
    const auto full = ds::gather_full(ctx, a, 0);
    if (ctx.phys_rank() == 0) {
      ASSERT_EQ(full.size(), 16u);
      for (int i = 0; i < 16; ++i) EXPECT_EQ(full[static_cast<std::size_t>(i)], i);
    } else {
      EXPECT_TRUE(full.empty());
    }
  });
}

TEST(Redistribute, SubsetBarrierBoundsRunAhead) {
  // With the default handshake the sender cannot complete assignment k+2
  // before the receiver has entered assignment k+1.
  mx::Machine mach(cfg(2));
  const pg::ProcessorGroup s({0});
  const pg::ProcessorGroup d({1});
  mach.run([&](mx::Context& ctx) {
    ds::DistArray<int> a(ctx, ds::Layout(s, {4}, {ds::DimDist::block()}), "a");
    ds::DistArray<int> b(ctx, ds::Layout(d, {4}, {ds::DimDist::block()}), "b");
    a.fill_value(1);
    for (int k = 0; k < 3; ++k) {
      ds::assign(ctx, b, a);
      if (ctx.phys_rank() == 1) ctx.charge(100.0);  // slow consumer
    }
    if (ctx.phys_rank() == 0) {
      // Sender was throttled by the consumer, not done at t~0.
      EXPECT_GT(ctx.now(), 100.0);
    }
  });
}

TEST(Redistribute, NoSyncModeLetsSenderRunAhead) {
  mx::Machine mach(cfg(2));
  const pg::ProcessorGroup s({0});
  const pg::ProcessorGroup d({1});
  mach.run([&](mx::Context& ctx) {
    ds::DistArray<int> a(ctx, ds::Layout(s, {4}, {ds::DimDist::block()}), "a");
    ds::DistArray<int> b(ctx, ds::Layout(d, {4}, {ds::DimDist::block()}), "b");
    a.fill_value(1);
    for (int k = 0; k < 3; ++k) {
      ds::assign(ctx, b, a, ds::AssignSync::None);
      if (ctx.phys_rank() == 1) ctx.charge(100.0);
    }
    if (ctx.phys_rank() == 0) {
      EXPECT_LT(ctx.now(), 1.0);  // deposits never wait
    }
  });
}

TEST(Redistribute, ShapeMismatchRejected) {
  mx::Machine m(cfg(2));
  EXPECT_THROW(m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(2);
    ds::DistArray<int> a(ctx, ds::Layout(g, {8}, {ds::DimDist::block()}), "a");
    ds::DistArray<int> b(ctx, ds::Layout(g, {9}, {ds::DimDist::block()}), "b");
    ds::assign(ctx, b, a);
  }),
               std::invalid_argument);
}

TEST(Redistribute, BadPermRejected) {
  mx::Machine m(cfg(2));
  EXPECT_THROW(m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(2);
    ds::DistArray<int> a(
        ctx, ds::Layout(g, {4, 4}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "a");
    ds::DistArray<int> b(
        ctx, ds::Layout(g, {4, 4}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "b");
    ds::assign_permuted(ctx, b, a, {0, 0});
  }),
               std::invalid_argument);
}

TEST(Redistribute, OffsetOverflowRejected) {
  mx::Machine m(cfg(2));
  EXPECT_THROW(m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(2);
    ds::DistArray<int> a(ctx, ds::Layout(g, {8}, {ds::DimDist::block()}), "a");
    ds::DistArray<int> b(ctx, ds::Layout(g, {8}, {ds::DimDist::block()}), "b");
    ds::assign_shifted(ctx, b, {1}, a);  // 8 + 1 > 8
  }),
               std::invalid_argument);
}

// 2-D property sweep across distribution pairs.
class Redist2D : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Redist2D, ContentPreserved) {
  const int a_kind = std::get<0>(GetParam());
  const int b_kind = std::get<1>(GetParam());
  mx::Machine m(cfg(4));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    ds::DistArray<std::int64_t> a(
        ctx, ds::Layout(g, {9, 7}, {dist_by_id(a_kind), dist_by_id((a_kind + 1) % 4)}), "a");
    ds::DistArray<std::int64_t> b(
        ctx, ds::Layout(g, {9, 7}, {dist_by_id(b_kind), dist_by_id((b_kind + 2) % 4)}), "b");
    a.fill([](std::span<const std::int64_t> gi) { return gi[0] * 1000 + gi[1]; });
    b.fill_value(-7);
    ds::assign(ctx, b, a);
    b.for_each_owned([](std::span<const std::int64_t> gi, std::int64_t& v) {
      EXPECT_EQ(v, gi[0] * 1000 + gi[1]);
    });
  });
}

INSTANTIATE_TEST_SUITE_P(Pairs, Redist2D,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2, 3)));

// 3-D arrays: content preservation and full permutation sweep.
TEST(Redist3D, ContentPreservedAcrossGroupsAndDistributions) {
  mx::Machine m(cfg(6));
  const pg::ProcessorGroup ga({0, 1, 2, 3});
  const pg::ProcessorGroup gb({2, 3, 4, 5});
  m.run([&](mx::Context& ctx) {
    ds::DistArray<std::int64_t> a(
        ctx, ds::Layout(ga, {4, 6, 5},
                        {ds::DimDist::collapsed(), ds::DimDist::block(), ds::DimDist::cyclic()}),
        "a");
    ds::DistArray<std::int64_t> b(
        ctx, ds::Layout(gb, {4, 6, 5},
                        {ds::DimDist::block(), ds::DimDist::collapsed(), ds::DimDist::block()}),
        "b");
    a.fill([](std::span<const std::int64_t> g) {
      return g[0] * 10000 + g[1] * 100 + g[2];
    });
    ds::assign(ctx, b, a);
    b.for_each_owned([](std::span<const std::int64_t> g, std::int64_t& v) {
      EXPECT_EQ(v, g[0] * 10000 + g[1] * 100 + g[2]);
    });
  });
}

class Redist3DPerm : public ::testing::TestWithParam<std::array<int, 3>> {};

TEST_P(Redist3DPerm, PermutedAssignPlacesEveryElement) {
  const auto perm = GetParam();
  mx::Machine m(cfg(4));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    const std::vector<std::int64_t> src_shape{3, 4, 5};
    std::vector<std::int64_t> dst_shape(3);
    for (int dd = 0; dd < 3; ++dd) {
      dst_shape[static_cast<std::size_t>(dd)] =
          src_shape[static_cast<std::size_t>(perm[static_cast<std::size_t>(dd)])];
    }
    ds::DistArray<std::int64_t> a(
        ctx, ds::Layout(g, src_shape,
                        {ds::DimDist::block(), ds::DimDist::collapsed(), ds::DimDist::collapsed()}),
        "a");
    ds::DistArray<std::int64_t> b(
        ctx, ds::Layout(g, dst_shape,
                        {ds::DimDist::collapsed(), ds::DimDist::block(), ds::DimDist::collapsed()}),
        "b");
    a.fill([](std::span<const std::int64_t> gi) {
      return gi[0] * 100 + gi[1] * 10 + gi[2];
    });
    b.fill_value(-1);
    ds::assign_permuted(ctx, b, a,
                        {perm[0], perm[1], perm[2]});
    b.for_each_owned([&](std::span<const std::int64_t> gi, std::int64_t& v) {
      // dst[i0,i1,i2] == src[i_{perm[0]}...] means src index s with
      // s[perm[dd]] = gi[dd].
      std::array<std::int64_t, 3> s{};
      for (int dd = 0; dd < 3; ++dd) {
        s[static_cast<std::size_t>(perm[static_cast<std::size_t>(dd)])] =
            gi[static_cast<std::size_t>(dd)];
      }
      EXPECT_EQ(v, s[0] * 100 + s[1] * 10 + s[2]);
    });
  });
}

INSTANTIATE_TEST_SUITE_P(AllPerms, Redist3DPerm,
                         ::testing::Values(std::array<int, 3>{0, 1, 2},
                                           std::array<int, 3>{0, 2, 1},
                                           std::array<int, 3>{1, 0, 2},
                                           std::array<int, 3>{1, 2, 0},
                                           std::array<int, 3>{2, 0, 1},
                                           std::array<int, 3>{2, 1, 0}));

TEST(Redist3D, ShiftedSubCubeAssign) {
  mx::Machine m(cfg(4));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    ds::DistArray<int> small(
        ctx, ds::Layout(g, {2, 3, 4},
                        {ds::DimDist::collapsed(), ds::DimDist::block(), ds::DimDist::collapsed()}),
        "small");
    ds::DistArray<int> big(
        ctx, ds::Layout(g, {4, 6, 8},
                        {ds::DimDist::block(), ds::DimDist::collapsed(), ds::DimDist::collapsed()}),
        "big");
    small.fill([](std::span<const std::int64_t> gi) {
      return static_cast<int>(gi[0] * 100 + gi[1] * 10 + gi[2]);
    });
    big.fill_value(-1);
    ds::assign_shifted(ctx, big, {1, 2, 3}, small);
    big.for_each_owned([](std::span<const std::int64_t> gi, int& v) {
      const bool inside = gi[0] >= 1 && gi[0] < 3 && gi[1] >= 2 && gi[1] < 5 &&
                          gi[2] >= 3 && gi[2] < 7;
      if (inside) {
        EXPECT_EQ(v, static_cast<int>((gi[0] - 1) * 100 + (gi[1] - 2) * 10 + (gi[2] - 3)));
      } else {
        EXPECT_EQ(v, -1);
      }
    });
  });
}

TEST(Redistribute, ScatterFullDistributesRowMajor) {
  mx::Machine m(cfg(4));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    ds::DistArray<int> a(
        ctx, ds::Layout(g, {4, 4}, {ds::DimDist::block(), ds::DimDist::block()}), "a");
    std::vector<int> full;
    if (ctx.phys_rank() == 0) {
      for (int i = 0; i < 16; ++i) full.push_back(i * 11);
    }
    ds::scatter_full(ctx, a, 0, full);
    a.for_each_owned([](std::span<const std::int64_t> gi, int& v) {
      EXPECT_EQ(v, static_cast<int>(gi[0] * 4 + gi[1]) * 11);
    });
  });
}

TEST(Redistribute, ScatterThenGatherRoundTrips) {
  mx::Machine m(cfg(3));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(3);
    ds::DistArray<double> a(ctx, ds::Layout(g, {10}, {ds::DimDist::cyclic()}), "a");
    std::vector<double> full;
    if (ctx.phys_rank() == 0) {
      for (int i = 0; i < 10; ++i) full.push_back(0.5 * i);
    }
    ds::scatter_full(ctx, a, 0, full);
    const auto back = ds::gather_full(ctx, a, 0);
    if (ctx.phys_rank() == 0) {
      EXPECT_EQ(back, full);
    }
  });
}

// ---------------------------------------------------------------------------
// Plan cache on/off parity. The cache only decides whether schedules and
// buffers are kept across calls: modeled results (finish time, message
// count, bytes) and array contents must be bit-identical with it on or off,
// on every backend. With it off the one executor runs with per-call
// schedules and unpooled buffers, across real thread and process
// boundaries on the threads and proc backends.

namespace {

struct ParityRun {
  mx::RunResult res;
  std::vector<std::uint64_t> sums;  // per physical rank: checksum of owned dst
  std::vector<std::int64_t> bad;   // per physical rank: elements off the expected value
};

ParityRun run_parity(ex::BackendKind kind, bool cache_on, int a_kind, int b_kind,
                     bool swap_dims, std::int64_t off0, std::int64_t off1) {
  constexpr int kP = 4;
  auto c = cfg(kP);
  c.backend = kind;
  c.plan_cache = cache_on;
  const std::vector<std::int64_t> src_shape{9, 7};
  const std::vector<int> perm = swap_dims ? std::vector<int>{1, 0} : std::vector<int>{0, 1};
  const std::vector<std::int64_t> offsets{off0, off1};
  std::vector<std::int64_t> dst_shape(2);
  for (int dd = 0; dd < 2; ++dd) {
    dst_shape[static_cast<std::size_t>(dd)] =
        src_shape[static_cast<std::size_t>(perm[static_cast<std::size_t>(dd)])] +
        offsets[static_cast<std::size_t>(dd)] + 2;  // slack beyond the section
  }
  ParityRun out;
  out.sums.assign(kP, 0);
  out.bad.assign(kP, 0);
  mx::Machine m(c);
  out.res = m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(kP);
    ds::DistArray<std::int64_t> a(
        ctx, ds::Layout(g, src_shape, {dist_by_id(a_kind), dist_by_id((a_kind + 1) % 4)}), "a");
    ds::DistArray<std::int64_t> b(
        ctx, ds::Layout(g, dst_shape, {dist_by_id(b_kind), dist_by_id((b_kind + 3) % 4)}), "b");
    a.fill([](std::span<const std::int64_t> gi) { return gi[0] * 1000 + gi[1]; });
    b.fill_value(-7);
    ds::assign_general(ctx, b, a, perm, offsets);
    std::uint64_t sum = 0;  // unsigned: the checksum wraps instead of overflowing
    std::int64_t bad = 0;
    b.for_each_owned([&](std::span<const std::int64_t> gi, std::int64_t& v) {
      std::int64_t expected = -7;
      bool inside = true;
      std::array<std::int64_t, 2> s{};
      for (int dd = 0; dd < 2; ++dd) {
        const std::int64_t rel = gi[static_cast<std::size_t>(dd)] -
                                 offsets[static_cast<std::size_t>(dd)];
        const int sd = perm[static_cast<std::size_t>(dd)];
        inside &= rel >= 0 && rel < src_shape[static_cast<std::size_t>(sd)];
        if (inside) s[static_cast<std::size_t>(sd)] = rel;
      }
      if (inside) expected = s[0] * 1000 + s[1];
      bad += v != expected;
      sum = sum * 31 + static_cast<std::uint64_t>(v);
    });
    const auto r = static_cast<std::size_t>(ctx.phys_rank());
    out.sums[r] = sum;
    out.bad[r] = bad;
    fxpar::testing::funnel_to_rank0(ctx, out.sums);
    fxpar::testing::funnel_to_rank0(ctx, out.bad);
  });
  return out;
}

}  // namespace

class RedistParity
    : public ::testing::TestWithParam<std::tuple<ex::BackendKind, int, int, bool, int>> {};

TEST_P(RedistParity, CachedMatchesUncachedBitExactly) {
  const ex::BackendKind kind = std::get<0>(GetParam());
  const int a_kind = std::get<1>(GetParam());
  const int b_kind = std::get<2>(GetParam());
  const bool swap_dims = std::get<3>(GetParam());
  const bool shifted = std::get<4>(GetParam()) != 0;
  const std::int64_t off0 = shifted ? 1 : 0;
  const std::int64_t off1 = shifted ? 2 : 0;
  const ParityRun cached = run_parity(kind, true, a_kind, b_kind, swap_dims, off0, off1);
  const ParityRun plain = run_parity(kind, false, a_kind, b_kind, swap_dims, off0, off1);
  if (kind == ex::BackendKind::Sim) {
    // Modeled time is exact on the simulator; real backends report host time.
    EXPECT_EQ(cached.res.finish_time, plain.res.finish_time);
  }
  EXPECT_EQ(cached.res.messages, plain.res.messages);
  EXPECT_EQ(cached.res.bytes, plain.res.bytes);
  EXPECT_EQ(cached.res.barriers, plain.res.barriers);
  EXPECT_EQ(cached.sums, plain.sums);
  EXPECT_EQ(cached.bad, std::vector<std::int64_t>(cached.bad.size(), 0));
  EXPECT_EQ(plain.bad, std::vector<std::int64_t>(plain.bad.size(), 0));
  EXPECT_GT(cached.res.plan_cache_hits + cached.res.plan_cache_misses, 0u);
  EXPECT_EQ(plain.res.plan_cache_hits + plain.res.plan_cache_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RedistParity,
                         ::testing::Combine(::testing::Values(ex::BackendKind::Sim,
                                                              ex::BackendKind::Threads),
                                            ::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2, 3),
                                            ::testing::Bool(),
                                            ::testing::Values(0, 1)),
                         parity_name);

// Every forked run costs milliseconds, so proc covers the distribution
// pairs only in the shifted form, identity and permuted.
INSTANTIATE_TEST_SUITE_P(Proc, RedistParity,
                         ::testing::Combine(::testing::Values(ex::BackendKind::Proc),
                                            ::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2, 3),
                                            ::testing::Bool(),
                                            ::testing::Values(1)),
                         parity_name);

TEST(RedistParity, RepeatedAssignHitsTheCache) {
  constexpr int kP = 4;
  constexpr int kIters = 10;
  mx::Machine m(cfg(kP));
  const auto res = m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(kP);
    ds::DistArray<std::int64_t> a(ctx, ds::Layout(g, {24}, {ds::DimDist::block()}), "a");
    ds::DistArray<std::int64_t> b(ctx, ds::Layout(g, {24}, {ds::DimDist::cyclic()}), "b");
    a.fill([](std::span<const std::int64_t> gi) { return gi[0] * 3; });
    for (int k = 0; k < kIters; ++k) {
      ds::assign(ctx, b, a);
      b.for_each_owned([](std::span<const std::int64_t> gi, std::int64_t& v) {
        EXPECT_EQ(v, gi[0] * 3);
      });
    }
  });
  // One schedule built by the first arriving fiber; every later lookup
  // (kIters x kP participants in total) replays it.
  EXPECT_EQ(res.plan_cache_misses, 1u);
  EXPECT_EQ(res.plan_cache_hits, static_cast<std::uint64_t>(kIters * kP - 1));
}

TEST(RedistParity, DistinctLayoutsDoNotAliasCacheEntries) {
  // Layout pairs differing only in distribution kind, block size, or extent
  // must each build their own schedule and still land every element.
  mx::Machine m(cfg(4));
  const auto res = m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    auto check = [&](ds::DimDist sd, ds::DimDist dd, std::int64_t n) {
      ds::DistArray<std::int64_t> a(ctx, ds::Layout(g, {n}, {sd}),
                                    "a" + std::to_string(n));
      ds::DistArray<std::int64_t> b(ctx, ds::Layout(g, {n}, {dd}),
                                    "b" + std::to_string(n));
      a.fill([](std::span<const std::int64_t> gi) { return gi[0] + 11; });
      b.fill_value(-1);
      ds::assign(ctx, b, a);
      b.for_each_owned([](std::span<const std::int64_t> gi, std::int64_t& v) {
        EXPECT_EQ(v, gi[0] + 11);
      });
    };
    check(ds::DimDist::block(), ds::DimDist::cyclic(), 20);
    check(ds::DimDist::block(), ds::DimDist::block_cyclic(2), 20);
    check(ds::DimDist::block(), ds::DimDist::block_cyclic(3), 20);
    check(ds::DimDist::block(), ds::DimDist::cyclic(), 21);  // extent changes the key
  });
  EXPECT_EQ(res.plan_cache_misses, 4u);
  EXPECT_EQ(res.plan_cache_hits, 3u * 4u);
}

TEST(Redistribute, ScatterFullSizeMismatchRejected) {
  mx::Machine m(cfg(2));
  EXPECT_THROW(m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(2);
    ds::DistArray<int> a(ctx, ds::Layout(g, {8}, {ds::DimDist::block()}), "a");
    std::vector<int> full(3);  // wrong size on the root
    ds::scatter_full(ctx, a, 0, full);
  }),
               std::invalid_argument);
}
