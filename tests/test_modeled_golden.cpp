// Golden modeled-time test: exact simulator outcomes of the schedule-driven
// executors (redistribution, halo exchange, collectives) and of a short
// FFT-Hist stream, pinned to values recorded before the uncached executor
// copies were removed. The plan cache on/off parity tests compare two runs
// of one executor; these constants guard against both runs drifting
// together. Every case runs with the plan cache on and off, and both must
// reproduce the recorded messages, bytes, barriers and finish time.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "apps/ffthist.hpp"
#include "apps/stream_pipeline.hpp"
#include "collective_sweep.hpp"
#include "dist/halo.hpp"
#include "dist/redistribute.hpp"

namespace ap = fxpar::apps;
namespace ds = fxpar::dist;
namespace mx = fxpar::machine;
namespace pg = fxpar::pgroup;

namespace {

struct Golden {
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t barriers;
  double finish_time;
};

mx::MachineConfig paragon(int p, bool cache_on) {
  auto c = mx::MachineConfig::paragon(p);
  c.stack_bytes = 256 * 1024;
  c.plan_cache = cache_on;
  return c;
}

void expect_golden(const mx::RunResult& res, const Golden& g, bool cache_on) {
  EXPECT_EQ(res.messages, g.messages) << "plan_cache=" << cache_on;
  EXPECT_EQ(res.bytes, g.bytes) << "plan_cache=" << cache_on;
  EXPECT_EQ(res.barriers, g.barriers) << "plan_cache=" << cache_on;
  EXPECT_DOUBLE_EQ(res.finish_time, g.finish_time) << "plan_cache=" << cache_on;
}

/// Order-sensitive checksum of a processor's elements (unsigned, so the
/// arithmetic wraps instead of overflowing).
template <typename T>
std::uint64_t fold(std::uint64_t acc, std::span<const T> xs) {
  for (const T& x : xs) {
    acc = acc * 31 + static_cast<std::uint64_t>(static_cast<std::int64_t>(x));
  }
  return acc;
}

/// Runs `body` on a paragon(p) simulator with the cache on and off and
/// checks both against `g`. `body` returns a checksum of the calling
/// rank's data; the per-rank checksums must agree between the two runs.
template <typename Body>
void check_both(int p, const Golden& g, Body body) {
  std::vector<std::uint64_t> first;
  for (bool cache_on : {true, false}) {
    std::vector<std::uint64_t> sums(static_cast<std::size_t>(p), 0);
    mx::Machine m(paragon(p, cache_on));
    const mx::RunResult res = m.run([&](mx::Context& ctx) {
      sums[static_cast<std::size_t>(ctx.phys_rank())] = body(ctx);
    });
    expect_golden(res, g, cache_on);
    if (first.empty()) {
      first = sums;
    } else {
      EXPECT_EQ(sums, first);
    }
  }
}

}  // namespace

TEST(ModeledGolden, Transpose) {
  check_both(4, Golden{12, 2880, 4, 0.0028720000000000004}, [](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    ds::DistArray<std::int64_t> a(
        ctx, ds::Layout(g, {24, 20}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "a");
    ds::DistArray<std::int64_t> b(
        ctx, ds::Layout(g, {20, 24}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "b");
    a.fill([](std::span<const std::int64_t> gi) { return gi[0] * 1000 + gi[1]; });
    ds::transpose(ctx, b, a);
    return fold<std::int64_t>(0, b.local());
  });
}

TEST(ModeledGolden, ShiftedAssign) {
  check_both(4, Golden{12, 440, 4, 0.0028136000000000003}, [](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(4);
    ds::DistArray<std::int64_t> a(
        ctx, ds::Layout(g, {9, 7}, {ds::DimDist::cyclic(), ds::DimDist::block()}), "a");
    ds::DistArray<std::int64_t> b(
        ctx, ds::Layout(g, {12, 11}, {ds::DimDist::block(), ds::DimDist::block_cyclic(3)}),
        "b");
    a.fill([](std::span<const std::int64_t> gi) { return gi[0] * 1000 + gi[1]; });
    b.fill_value(-7);
    ds::assign_shifted(ctx, b, {2, 3}, a);
    return fold<std::int64_t>(0, b.local());
  });
}

TEST(ModeledGolden, AssignFromReplicatedSource) {
  // Source replicated on {0,1,2}; destination blocked over {1,2,3,4}: the
  // canonical sender serves outsiders, members 1 and 2 serve themselves.
  check_both(5, Golden{2, 240, 5, 0.0017204999999999998}, [](mx::Context& ctx) {
    const pg::ProcessorGroup sg({0, 1, 2});
    const pg::ProcessorGroup dg({1, 2, 3, 4});
    ds::DistArray<std::int64_t> a(
        ctx, ds::Layout(sg, {10, 6}, {ds::DimDist::collapsed(), ds::DimDist::collapsed()}),
        "a");
    ds::DistArray<std::int64_t> b(
        ctx, ds::Layout(dg, {10, 6}, {ds::DimDist::block(), ds::DimDist::cyclic()}), "b");
    a.fill([](std::span<const std::int64_t> gi) { return gi[0] * 100 + gi[1]; });
    ds::assign(ctx, b, a);
    return b.is_member() ? fold<std::int64_t>(0, b.local()) : std::uint64_t{0};
  });
}

TEST(ModeledGolden, RowHaloP5H3) {
  check_both(5, Golden{8, 2112, 0, 0.0018028}, [](mx::Context& ctx) {
    const auto g = pg::ProcessorGroup::identity(5);
    ds::DistArray<double> a(
        ctx,
        ds::Layout(g, {3, 17, 4},
                   {ds::DimDist::collapsed(), ds::DimDist::block(), ds::DimDist::collapsed()}),
        "a");
    a.fill([](std::span<const std::int64_t> gi) {
      return static_cast<double>(gi[0] * 10000 + gi[1] * 100 + gi[2]);
    });
    const auto ghosts = ds::exchange_row_halo(ctx, a, 3);
    std::uint64_t acc = static_cast<std::uint64_t>(ghosts.first_above * 7 + ghosts.first_below);
    acc = fold<double>(acc, ghosts.above);
    return fold<double>(acc, ghosts.below);
  });
}

TEST(ModeledGolden, CollectiveSweep) {
  const Golden g{54, 5152, 0, 0.021251533333333343};
  fxpar::testing::SweepResult first;
  for (bool cache_on : {true, false}) {
    const auto sweep = fxpar::testing::run_collective_sweep(paragon(6, cache_on));
    expect_golden(sweep.run, g, cache_on);
    if (cache_on) {
      first = sweep;
    } else {
      fxpar::testing::expect_sweeps_identical(first, sweep, "cache on/off");
    }
  }
}

TEST(ModeledGolden, FftHistStream) {
  ap::FftHistConfig cfg;
  cfg.n = 16;
  cfg.bins = 8;
  cfg.num_sets = 4;
  const Golden g{32, 33280, 32, 0.019367866666666678};
  for (bool cache_on : {true, false}) {
    std::vector<std::vector<std::int64_t>> sink;
    const auto stages = ap::ffthist_stages(cfg, &sink);
    // Figure 2 pipeline: cffts, transpose + rffts, hist on two procs each.
    const auto stats = ap::run_stream_pipeline<ap::Complex>(
        paragon(6, cache_on), stages, {{0, 0, 2, 1}, {1, 1, 2, 1}, {2, 2, 2, 1}},
        cfg.num_sets);
    expect_golden(stats.machine_result, g, cache_on);
    for (int k = 0; k < cfg.num_sets; ++k) {
      EXPECT_EQ(sink[static_cast<std::size_t>(k)], ap::ffthist_reference(cfg, k));
    }
  }
}
