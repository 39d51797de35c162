// Host-side microbenchmarks (google-benchmark) of the library substrate:
// fiber switching, simulated messaging, subset barriers, redistribution,
// and the numerical kernels. These measure the *host* cost of simulation,
// not modeled machine time.
//
// Besides the google-benchmark suite, `--redist-compare` runs the
// plan-cache A/B experiment (repeated same-layout transpose, cache on vs
// off), prints a summary and emits --json-out records; see
// docs/performance.md.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "apps/fft.hpp"
#include "bench_common.hpp"
#include "comm/collectives.hpp"
#include "core/fx.hpp"
#include "dist/redistribute.hpp"
#include "runtime/fiber.hpp"

using namespace fxpar;
namespace ds = fxpar::dist;
namespace ap = fxpar::apps;

namespace {

void BM_FiberSwitch(benchmark::State& state) {
  runtime::Fiber* self = nullptr;
  runtime::Fiber fiber(
      [&] {
        for (;;) self->yield_to_owner();
      },
      64 * 1024);
  self = &fiber;
  for (auto _ : state) {
    fiber.resume();  // one round trip = two context switches
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_FiberSwitch);

void BM_SimulatedBarrier(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int rounds = 64;
  for (auto _ : state) {
    Machine machine(MachineConfig::ideal(procs));
    machine.run([&](Context& ctx) {
      for (int i = 0; i < rounds; ++i) ctx.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * procs);
}
BENCHMARK(BM_SimulatedBarrier)->Arg(4)->Arg(16)->Arg(64);

void BM_SimulatedPingPong(benchmark::State& state) {
  const int rounds = 128;
  for (auto _ : state) {
    Machine machine(MachineConfig::ideal(2));
    machine.run([&](Context& ctx) {
      for (int i = 0; i < rounds; ++i) {
        if (ctx.phys_rank() == 0) {
          ctx.send_phys(1, 1, machine::Payload(64));
          ctx.recv_phys(1, 2);
        } else {
          ctx.recv_phys(0, 1);
          ctx.send_phys(0, 2, machine::Payload(64));
        }
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * 2);
}
BENCHMARK(BM_SimulatedPingPong);

void BM_Redistribute1D(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const int procs = 8;
  for (auto _ : state) {
    Machine machine(MachineConfig::ideal(procs));
    machine.run([&](Context& ctx) {
      const auto g = pgroup::ProcessorGroup::identity(procs);
      ds::DistArray<double> a(ctx, ds::Layout(g, {n}, {ds::DimDist::block()}), "a");
      ds::DistArray<double> b(ctx, ds::Layout(g, {n}, {ds::DimDist::cyclic()}), "b");
      a.fill_value(1.0);
      ds::assign(ctx, b, a);
    });
  }
  state.SetBytesProcessed(state.iterations() * n * static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_Redistribute1D)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_Transpose2D(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const int procs = 8;
  for (auto _ : state) {
    Machine machine(MachineConfig::ideal(procs));
    machine.run([&](Context& ctx) {
      const auto g = pgroup::ProcessorGroup::identity(procs);
      ds::DistArray<double> a(
          ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "a");
      ds::DistArray<double> b(
          ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "b");
      a.fill_value(1.0);
      ds::transpose(ctx, b, a);
    });
  }
  state.SetBytesProcessed(state.iterations() * n * n *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_Transpose2D)->Arg(64)->Arg(256);

void BM_FftKernel(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<ap::Complex> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = ap::Complex(static_cast<double>(i % 17), static_cast<double>(i % 5));
  }
  for (auto _ : state) {
    auto copy = data;
    ap::fft_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftKernel)->Arg(256)->Arg(1024)->Arg(4096);

// Repeated same-layout redistribution inside one machine run: the case the
// plan cache targets. range(1) toggles MachineConfig::plan_cache.
void BM_AssignStream(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const bool cached = state.range(1) != 0;
  const int procs = 8;
  const int iters = 16;
  auto c = MachineConfig::ideal(procs);
  c.plan_cache = cached;
  for (auto _ : state) {
    Machine machine(c);
    machine.run([&](Context& ctx) {
      const auto g = pgroup::ProcessorGroup::identity(procs);
      ds::DistArray<double> a(ctx, ds::Layout(g, {n}, {ds::DimDist::block()}), "a");
      ds::DistArray<double> b(ctx, ds::Layout(g, {n}, {ds::DimDist::cyclic()}), "b");
      a.fill_value(1.0);
      for (int i = 0; i < iters; ++i) ds::assign(ctx, b, a);
    });
  }
  state.SetBytesProcessed(state.iterations() * iters * n *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_AssignStream)
    ->Args({1 << 14, 0})
    ->Args({1 << 14, 1})
    ->Args({1 << 16, 0})
    ->Args({1 << 16, 1});

// The permuted (corner-turn) path: the executor scatters each segment at
// the receiver stride. range(1) toggles MachineConfig::plan_cache.
void BM_TransposeStream(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const bool cached = state.range(1) != 0;
  const int procs = 8;
  const int iters = 8;
  auto c = MachineConfig::ideal(procs);
  c.plan_cache = cached;
  for (auto _ : state) {
    Machine machine(c);
    machine.run([&](Context& ctx) {
      const auto g = pgroup::ProcessorGroup::identity(procs);
      ds::DistArray<double> a(
          ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "a");
      ds::DistArray<double> b(
          ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "b");
      a.fill_value(1.0);
      for (int i = 0; i < iters; ++i) ds::transpose(ctx, b, a);
    });
  }
  state.SetBytesProcessed(state.iterations() * iters * n * n *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_TransposeStream)->Args({256, 0})->Args({256, 1});

void BM_TaskRegionOnOff(benchmark::State& state) {
  const int procs = 8;
  const int rounds = 64;
  for (auto _ : state) {
    Machine machine(MachineConfig::ideal(procs));
    machine.run([&](Context& ctx) {
      core::TaskPartition part(ctx, {{"a", 4}, {"b", 4}});
      core::TaskRegion region(ctx, part);
      for (int i = 0; i < rounds; ++i) {
        region.on("a", [&] { ctx.charge(1e-9); });
        region.on("b", [&] { ctx.charge(1e-9); });
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * rounds * procs);
}
BENCHMARK(BM_TaskRegionOnOff);

// --redist-compare: the inspector–executor A/B experiment. A 100-iteration
// 512x512 transpose stream on 16 simulated procs, run with the plan cache
// off and on. Modeled results must be identical; host wall-clock should
// drop by >= 2x with the cache (asserted by the CI perf-smoke job from the
// emitted JSON records).
struct CompareRun {
  machine::RunResult res;
  double host_ms = 0.0;
};

CompareRun run_transpose_stream(bool cache_on, int procs, std::int64_t n, int iters) {
  auto c = MachineConfig::ideal(procs);
  c.stack_bytes = 256 * 1024;
  c.plan_cache = cache_on;
  Machine machine(c);
  CompareRun out;
  const fxbench::HostTimer timer;
  out.res = machine.run([&](Context& ctx) {
    const auto g = pgroup::ProcessorGroup::identity(procs);
    ds::DistArray<double> a(
        ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "a");
    ds::DistArray<double> b(
        ctx, ds::Layout(g, {n, n}, {ds::DimDist::block(), ds::DimDist::collapsed()}), "b");
    a.fill_value(1.0);
    for (int i = 0; i < iters; ++i) ds::transpose(ctx, b, a);
  });
  out.host_ms = timer.ms();
  return out;
}

/// Best-of-3 host time: host wall-clock is noisy on shared CI runners, so
/// every A/B leg keeps the fastest of three runs (modeled results are
/// deterministic — any run's RunResult serves as the witness).
template <typename RunFn>
auto best_of_3(RunFn run) {
  auto best = run();
  for (int rep = 1; rep < 3; ++rep) {
    auto next = run();
    if (next.host_ms < best.host_ms) best = next;
  }
  return best;
}

int run_redist_compare() {
  const int procs = 16;
  const std::int64_t n = 512;
  const int iters = 100;
  const std::vector<std::pair<std::string, std::string>> base_params{
      {"procs", std::to_string(procs)},
      {"n", std::to_string(n)},
      {"iters", std::to_string(iters)}};

  const CompareRun uncached =
      best_of_3([&] { return run_transpose_stream(false, procs, n, iters); });
  const CompareRun cached =
      best_of_3([&] { return run_transpose_stream(true, procs, n, iters); });

  const bool sim_identical = uncached.res.finish_time == cached.res.finish_time &&
                             uncached.res.messages == cached.res.messages &&
                             uncached.res.bytes == cached.res.bytes;
  const double speedup = cached.host_ms > 0.0 ? uncached.host_ms / cached.host_ms : 0.0;

  auto with = [&](const char* k, const std::string& v) {
    auto p = base_params;
    p.push_back({k, v});
    return p;
  };
  fxbench::json_record("micro/redist/uncached", with("plan_cache", "off"), uncached.res,
                       uncached.host_ms);
  fxbench::json_record("micro/redist/cached", with("plan_cache", "on"), cached.res,
                       cached.host_ms);
  {
    auto p = base_params;
    p.push_back({"speedup", std::to_string(speedup)});
    p.push_back({"sim_identical", sim_identical ? "true" : "false"});
    fxbench::json_record("micro/redist/speedup", p, cached.res, cached.host_ms);
  }

  std::printf(
      "redistribution plan cache A/B (%d iters of %lldx%lld transpose, %d procs, best of 3)\n",
      iters, static_cast<long long>(n), static_cast<long long>(n), procs);
  std::printf("  uncached: host %8.1f ms   sim %.6f s\n", uncached.host_ms,
              uncached.res.finish_time);
  std::printf("  cached:   host %8.1f ms   sim %.6f s   (%llu hits, %llu misses)\n",
              cached.host_ms, cached.res.finish_time,
              static_cast<unsigned long long>(cached.res.plan_cache_hits),
              static_cast<unsigned long long>(cached.res.plan_cache_misses));
  std::printf("  host speedup: %.2fx, modeled results %s\n", speedup,
              sim_identical ? "identical" : "DIFFER");
  return sim_identical ? 0 : 1;
}

// --collective-compare: the collective-plan-cache A/B experiment. Repeated
// 8-way vector allreduce + gather over 32 KiB payloads — the regime where
// kept schedules and pooled buffers pay off — with MachineConfig::plan_cache
// off vs on. Modeled results and final
// values must be bit-identical; the CI perf-smoke job asserts a >= 1.5x
// host speedup from the emitted records.
struct CollectiveRun {
  machine::RunResult res;
  double host_ms = 0.0;
  double checksum = 0.0;  ///< deterministic digest of every rank's final vector
  /// Minor page faults taken by the steady-state half of the stream (the
  /// second `iters/2` iterations). With the typed double pool warm this
  /// should be near zero on the cached leg: every result vector is a
  /// recycled allocation, so no new pages get touched.
  std::int64_t steady_minflt = -1;
};

CollectiveRun run_collective_stream(bool cache_on, int procs, std::size_t n, int iters) {
  auto c = MachineConfig::ideal(procs);
  c.stack_bytes = 256 * 1024;
  c.plan_cache = cache_on;
  Machine machine(c);
  std::vector<double> sums(static_cast<std::size_t>(procs), 0.0);
  std::int64_t warm_minflt = -1;
  CollectiveRun out;
  const fxbench::HostTimer timer;
  out.res = machine.run([&](Context& ctx) {
    const auto g = pgroup::ProcessorGroup::identity(procs);
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<double>(ctx.phys_rank() + 1) + static_cast<double>(i % 7);
    }
    for (int it = 0; it < iters; ++it) {
      if (it == iters / 2 && ctx.phys_rank() == 0) {
        // Pools and caches are warm; what faults from here on is churn.
        warm_minflt = fxbench::detail::rusage_now().minflt;
      }
      v = comm::allreduce_vector(ctx, g, std::move(v),
                                 [](double a, double b) { return a + b; });
      // Damp so repeated summing stays bounded (procs = 8 => factor 1).
      for (double& x : v) x *= 0.125;
      std::vector<double> all = comm::gather_vectors(ctx, g, 0, v);
      // Feed the gathered data back in so the gather is load-bearing.
      if (ctx.phys_rank() == 0 && !all.empty()) v[0] += all.back() * 1e-12;
      // Hand the gather result back to the typed scratch pool: the next
      // iteration's collectives reuse the allocation instead of growing a
      // fresh vector (this is what keeps the steady state fault-quiet).
      ctx.machine().double_release(std::move(all));
    }
    double s = 0.0;
    for (double x : v) s += x;
    sums[static_cast<std::size_t>(ctx.phys_rank())] = s;
  });
  out.host_ms = timer.ms();
  if (warm_minflt >= 0) {
    const std::int64_t end_minflt = fxbench::detail::rusage_now().minflt;
    out.steady_minflt = end_minflt - warm_minflt;
  }
  for (double s : sums) out.checksum += s;
  return out;
}

int run_collective_compare() {
  const int procs = 8;
  const std::size_t n = 4096;  // doubles per rank: 32 KiB payloads
  const int iters = 200;
  const std::vector<std::pair<std::string, std::string>> base_params{
      {"procs", std::to_string(procs)},
      {"n", std::to_string(n)},
      {"iters", std::to_string(iters)}};

  const CollectiveRun uncached =
      best_of_3([&] { return run_collective_stream(false, procs, n, iters); });
  const CollectiveRun cached =
      best_of_3([&] { return run_collective_stream(true, procs, n, iters); });

  const bool sim_identical = uncached.res.finish_time == cached.res.finish_time &&
                             uncached.res.messages == cached.res.messages &&
                             uncached.res.bytes == cached.res.bytes &&
                             uncached.checksum == cached.checksum;
  const double speedup = cached.host_ms > 0.0 ? uncached.host_ms / cached.host_ms : 0.0;

  auto with = [&](const char* k, const std::string& v) {
    auto p = base_params;
    p.push_back({k, v});
    return p;
  };
  {
    // Emit the counters on both legs: CI asserts the uncached leg really
    // ran cold (zero hits), not just that the cached leg ran warm.
    auto p = with("plan_cache", "off");
    p.push_back(
        {"collective_plan_hits", std::to_string(uncached.res.collective_plan_hits)});
    p.push_back(
        {"collective_plan_misses", std::to_string(uncached.res.collective_plan_misses)});
    p.push_back({"steady_minor_faults", std::to_string(uncached.steady_minflt)});
    fxbench::json_record("micro/collective/uncached", p, uncached.res, uncached.host_ms);
  }
  {
    auto p = with("plan_cache", "on");
    p.push_back({"collective_plan_hits", std::to_string(cached.res.collective_plan_hits)});
    p.push_back(
        {"collective_plan_misses", std::to_string(cached.res.collective_plan_misses)});
    p.push_back({"steady_minor_faults", std::to_string(cached.steady_minflt)});
    fxbench::json_record("micro/collective/cached", p, cached.res, cached.host_ms);
  }
  {
    auto p = base_params;
    p.push_back({"speedup", std::to_string(speedup)});
    p.push_back({"sim_identical", sim_identical ? "true" : "false"});
    fxbench::json_record("micro/collective/speedup", p, cached.res, cached.host_ms);
  }

  std::printf(
      "collective plan cache A/B (%d iters of %d-way allreduce+gather, %zu doubles, "
      "best of 3)\n",
      iters, procs, n);
  std::printf("  uncached: host %8.1f ms   sim %.6f s\n", uncached.host_ms,
              uncached.res.finish_time);
  std::printf("  cached:   host %8.1f ms   sim %.6f s   (%llu hits, %llu misses)\n",
              cached.host_ms, cached.res.finish_time,
              static_cast<unsigned long long>(cached.res.collective_plan_hits),
              static_cast<unsigned long long>(cached.res.collective_plan_misses));
  std::printf("  steady-state minor faults: uncached %lld, cached %lld\n",
              static_cast<long long>(uncached.steady_minflt),
              static_cast<long long>(cached.steady_minflt));
  std::printf("  host speedup: %.2fx, results %s\n", speedup,
              sim_identical ? "identical" : "DIFFER");
  return sim_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fxbench::init(argc, argv);
  bool compare = false;
  bool collective_compare = false;
  // Strip the fxbench flags before handing the rest to google-benchmark.
  std::vector<char*> gb_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--redist-compare") {
      compare = true;
    } else if (a == "--collective-compare") {
      collective_compare = true;
    } else if (a == "--json-out" || a == "--trace-out" || a == "--backend" ||
               a == "--transport" || a == "--threads" || a == "--work-stealing" ||
               a == "--pinning" || a == "--metrics" || a == "--metrics-out") {
      ++i;
    } else if (a == "--trace-report") {
      // consumed by fxbench::init
    } else {
      gb_args.push_back(argv[i]);
    }
  }
  if (compare || collective_compare) {
    int rc = 0;
    if (compare) rc |= run_redist_compare();
    if (collective_compare) rc |= run_collective_compare();
    return rc;
  }
  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());
  if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
