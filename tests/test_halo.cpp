// Direct tests of the ghost-row halo exchange used by the stencil stages
// (stereo window sums, airshed transport, multiblock relaxation).
#include <gtest/gtest.h>

#include "dist/halo.hpp"
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

ds::Layout rows_layout(const pg::ProcessorGroup& g, std::int64_t planes, std::int64_t h,
                       std::int64_t w) {
  return ds::Layout(g, {planes, h, w},
                    {ds::DimDist::collapsed(), ds::DimDist::block(), ds::DimDist::collapsed()});
}

double cell(std::int64_t d, std::int64_t r, std::int64_t j) {
  return static_cast<double>(d * 10000 + r * 100 + j);
}

/// Runs the exchange on `p` procs with the given shape/halo and checks
/// every ghost value against the generating function.
void check_halo(int p, std::int64_t planes, std::int64_t h, std::int64_t w, int halo) {
  mx::Machine m(cfg(p));
  m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(p);
    ds::DistArray<double> a(ctx, rows_layout(g, planes, h, w), "a");
    a.fill([](std::span<const std::int64_t> gi) { return cell(gi[0], gi[1], gi[2]); });
    const auto ghosts = ds::exchange_row_halo(ctx, a, halo);
    if (!a.is_member() || a.local().empty()) return;

    const auto runs = a.layout().owned_runs(a.my_vrank(), 1);
    const std::int64_t lo = runs.front().start;
    const std::int64_t hi = lo + runs.front().len;
    EXPECT_EQ(ghosts.n_above, lo - std::max<std::int64_t>(0, lo - halo));
    EXPECT_EQ(ghosts.n_below, std::min(h, hi + halo) - hi);
    for (std::int64_t d = 0; d < planes; ++d) {
      for (std::int64_t r = 0; r < ghosts.n_above; ++r) {
        for (std::int64_t j = 0; j < w; ++j) {
          EXPECT_DOUBLE_EQ(
              ghosts.above[static_cast<std::size_t>((d * ghosts.n_above + r) * w + j)],
              cell(d, ghosts.first_above + r, j))
              << "p=" << p << " above d=" << d << " r=" << r;
        }
      }
      for (std::int64_t r = 0; r < ghosts.n_below; ++r) {
        for (std::int64_t j = 0; j < w; ++j) {
          EXPECT_DOUBLE_EQ(
              ghosts.below[static_cast<std::size_t>((d * ghosts.n_below + r) * w + j)],
              cell(d, ghosts.first_below + r, j))
              << "p=" << p << " below d=" << d << " r=" << r;
        }
      }
    }
  });
}

}  // namespace

TEST(Halo, SingleProcessorHasNoGhosts) { check_halo(1, 2, 8, 3, 2); }

TEST(Halo, TwoProcessorsExchangeBoundary) { check_halo(2, 2, 8, 3, 2); }

class HaloSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HaloSweep, GhostValuesCorrect) {
  const int p = std::get<0>(GetParam());
  const int halo = std::get<1>(GetParam());
  check_halo(p, 3, 17, 4, halo);
}

// 17 rows over up to 24 procs: includes blocks narrower than the halo and
// processors owning no rows at all.
INSTANTIATE_TEST_SUITE_P(ProcsByHalo, HaloSweep,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8, 17, 24),
                                            ::testing::Values(1, 2, 3)));

class HaloParity : public ::testing::TestWithParam<std::tuple<ex::BackendKind, int, int>> {};

TEST_P(HaloParity, CachedMatchesUncachedBitExactly) {
  // With the plan cache on or off the exchange must issue the same messages
  // and charges and return the same ghosts, on every backend.
  const ex::BackendKind kind = std::get<0>(GetParam());
  const int p = std::get<1>(GetParam());
  const int halo = std::get<2>(GetParam());
  auto one = [&](bool cache_on) {
    auto c = cfg(p);
    c.backend = kind;
    c.plan_cache = cache_on;
    std::vector<double> sums(static_cast<std::size_t>(p), 0.0);
    mx::Machine m(c);
    const auto res = m.run([&](mx::Context& ctx) {
      ds::DistArray<double> a(ctx, rows_layout(pg::ProcessorGroup::identity(p), 3, 17, 4), "a");
      a.fill([](std::span<const std::int64_t> gi) { return cell(gi[0], gi[1], gi[2]); });
      const auto ghosts = ds::exchange_row_halo(ctx, a, halo);
      double s = 0.0;
      for (std::size_t i = 0; i < ghosts.above.size(); ++i) {
        s += ghosts.above[i] * static_cast<double>(i + 1);
      }
      for (std::size_t i = 0; i < ghosts.below.size(); ++i) {
        s -= ghosts.below[i] * static_cast<double>(i + 1);
      }
      sums[static_cast<std::size_t>(ctx.phys_rank())] = s;
      fxpar::testing::funnel_to_rank0(ctx, sums);
    });
    return std::make_tuple(res.finish_time, res.messages, res.bytes, sums,
                           res.plan_cache_hits + res.plan_cache_misses);
  };
  const auto cached = one(true);
  const auto plain = one(false);
  if (kind == ex::BackendKind::Sim) {
    EXPECT_EQ(std::get<0>(cached), std::get<0>(plain));  // exact modeled finish time
  }
  EXPECT_EQ(std::get<1>(cached), std::get<1>(plain));
  EXPECT_EQ(std::get<2>(cached), std::get<2>(plain));
  EXPECT_EQ(std::get<3>(cached), std::get<3>(plain));
  EXPECT_GT(std::get<4>(cached), 0u);
  EXPECT_EQ(std::get<4>(plain), 0u);
}

INSTANTIATE_TEST_SUITE_P(ProcsByHalo, HaloParity,
                         ::testing::Combine(::testing::Values(ex::BackendKind::Sim,
                                                              ex::BackendKind::Threads),
                                            ::testing::Values(2, 5, 8, 24),
                                            ::testing::Values(1, 3)));

// Forked runs are slower; proc covers wide and narrow blocks once each.
INSTANTIATE_TEST_SUITE_P(Proc, HaloParity,
                         ::testing::Combine(::testing::Values(ex::BackendKind::Proc),
                                            ::testing::Values(5, 8),
                                            ::testing::Values(1, 3)));

TEST(Halo, WrongLayoutRejected) {
  mx::Machine m(cfg(2));
  EXPECT_THROW(m.run([&](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(2);
    ds::DistArray<double> a(
        ctx, ds::Layout(g, {2, 8, 3},
                        {ds::DimDist::block(), ds::DimDist::collapsed(),
                         ds::DimDist::collapsed()}),
        "a");
    ds::exchange_row_halo(ctx, a, 1);
  }),
               std::invalid_argument);
}

TEST(Halo, NoMessagesOnSingleProc) {
  mx::Machine m(cfg(1));
  auto res = m.run([&](mx::Context& ctx) {
    ds::DistArray<double> a(ctx, rows_layout(pg::ProcessorGroup::identity(1), 1, 4, 2), "a");
    a.fill_value(1.0);
    ds::exchange_row_halo(ctx, a, 2);
  });
  EXPECT_EQ(res.messages, 0u);
}

TEST(Halo, MessageCountMatchesNeighbourStructure) {
  // 8 rows over 4 procs, halo 1: interior procs exchange with 2 neighbours,
  // edge procs with 1: total messages = 2*(p-1) = 6.
  mx::Machine m(cfg(4));
  auto res = m.run([&](mx::Context& ctx) {
    ds::DistArray<double> a(ctx, rows_layout(pg::ProcessorGroup::identity(4), 1, 8, 2), "a");
    a.fill_value(0.0);
    ds::exchange_row_halo(ctx, a, 1);
  });
  EXPECT_EQ(res.messages, 6u);
}
