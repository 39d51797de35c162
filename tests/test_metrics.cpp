// Tests for src/metrics/: counter/gauge/histogram semantics, sharded
// concurrent updates, registry snapshots and both exposition formats, the
// periodic sampler, the scaling-model profiler (synthetic data with known
// coefficients), and the end-to-end RuntimeMetrics wiring through Machine
// runs on both backends — including the "metrics off" contract: no
// registry, no snapshot, identical modeled results.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/ffthist.hpp"
#include "apps/stream_pipeline.hpp"
#include "core/fx.hpp"
#include "core/parallel_loop.hpp"
#include "dist/halo.hpp"
#include "dist/redistribute.hpp"
#include "json_checker.hpp"
#include "metrics/metrics.hpp"
#include "metrics/profiler.hpp"
#include "metrics/runtime_metrics.hpp"

#if defined(__SANITIZE_THREAD__)
#define FXPAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FXPAR_TSAN 1
#endif
#endif

#ifdef FXPAR_TSAN
#define FXPAR_SKIP_SIM_UNDER_TSAN() \
  GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer"
#else
#define FXPAR_SKIP_SIM_UNDER_TSAN() (void)0
#endif

namespace ap = fxpar::apps;
namespace ds = fxpar::dist;
namespace ex = fxpar::exec;
namespace me = fxpar::metrics;
namespace mx = fxpar::machine;
using fxpar::MachineConfig;

// ---------------------------------------------------------------------------
// Core metric types
// ---------------------------------------------------------------------------

TEST(Metrics, CounterSumsShardsAndAliasesOutOfRange) {
  me::Counter c(4);
  c.add(0);
  c.add(1, 10);
  c.add(3, 100);
  EXPECT_EQ(c.value(), 111u);
  // Out-of-range shard indices alias shard 0 instead of crashing: the
  // driver thread uses rank 0's shard by convention.
  c.add(7, 5);
  c.add(-1, 5);
  EXPECT_EQ(c.value(), 121u);
}

TEST(Metrics, GaugeSetAndAdd) {
  me::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(Metrics, HistogramBucketsCountSumAndQuantiles) {
  me::Histogram h(2);
  for (int i = 0; i < 99; ++i) h.observe(0, 1e-6);
  h.observe(1, 1.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), 1.0 + 99e-6, 1e-9);
  // 99% of samples sit in the 1e-6 bucket: p50/p95/p99 report that
  // bucket's upper bound (within 2x of the sample), the max lands in 1.0's.
  EXPECT_GT(h.quantile(0.5), 1e-6);
  EXPECT_LE(h.quantile(0.5), 2.1e-6);
  EXPECT_LE(h.quantile(0.99), 2.1e-6);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);  // upper bound of [1, 2)
}

TEST(Metrics, HistogramDegenerateSamplesLandInBucketZero) {
  me::Histogram h(1);
  h.observe(0, 0.0);
  h.observe(0, -1.0);
  h.observe(0, std::nan(""));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.merged_buckets()[0], 3u);
  EXPECT_EQ(h.quantile(0.0), h.quantile(1.0));  // all in one bucket
}

TEST(Metrics, HistogramEmptyQuantileIsZero) {
  me::Histogram h(1);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Metrics, ConcurrentShardedUpdatesLoseNothing) {
  constexpr int kThreads = 4;
  constexpr int kOps = 50000;
  me::Registry reg(kThreads);
  me::Counter* c = reg.counter("c");
  me::Histogram* h = reg.histogram("h");
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        c->add(t);
        h->observe(t, 1e-6);
      }
    });
  }
  // Snapshots race with the updates by design (relaxed live view); they
  // must be monotonic per counter and never exceed the final total.
  std::uint64_t prev = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t now = reg.snapshot().counter("c");
    EXPECT_GE(now, prev);
    EXPECT_LE(now, static_cast<std::uint64_t>(kThreads) * kOps);
    prev = now;
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(kThreads) * kOps);
}

// ---------------------------------------------------------------------------
// Registry, snapshot, exposition
// ---------------------------------------------------------------------------

TEST(Metrics, RegistryReturnsSamePointerForSameName) {
  me::Registry reg(2);
  EXPECT_EQ(reg.counter("x"), reg.counter("x"));
  EXPECT_EQ(reg.gauge("g"), reg.gauge("g"));
  EXPECT_EQ(reg.histogram("h"), reg.histogram("h"));
  EXPECT_NE(reg.counter("x"), reg.counter("y"));
  EXPECT_EQ(reg.shards(), 2);
}

TEST(Metrics, PrometheusExpositionStructure) {
  me::Registry reg(1);
  reg.counter("fxpar_test_total")->add(0, 42);
  reg.gauge("fxpar_test_gauge")->set(1.5);
  me::Histogram* h = reg.histogram("fxpar_test_seconds");
  h->observe(0, 0.001);
  h->observe(0, 0.002);
  const std::string text = reg.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE fxpar_test_total counter\nfxpar_test_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fxpar_test_gauge gauge\nfxpar_test_gauge 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fxpar_test_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("fxpar_test_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("fxpar_test_seconds_count 2"), std::string::npos);
  EXPECT_NE(text.find("fxpar_test_seconds_sum"), std::string::npos);
  EXPECT_NE(text.find("fxpar_test_seconds_p95"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(Metrics, SnapshotJsonIsValidAndNonFiniteGaugesBecomeNull) {
  me::Registry reg(1);
  reg.counter("c")->add(0, 7);
  reg.gauge("bad")->set(std::numeric_limits<double>::infinity());
  reg.histogram("h")->observe(0, 0.5);
  const std::string json = reg.snapshot().to_json();
  fxtest::JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"c\":7"), std::string::npos);
  EXPECT_NE(json.find("\"bad\":null"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Metrics, SamplerHonoursPeriodAndForce) {
  me::Registry reg(1);
  me::Counter* c = reg.counter("c");
  me::Sampler fast(reg, 0.0);  // zero period: every poll samples
  c->add(0);
  EXPECT_TRUE(fast.poll());
  c->add(0);
  EXPECT_TRUE(fast.poll());
  EXPECT_EQ(fast.series().size(), 2u);
  EXPECT_EQ(fast.series()[0].counter("c"), 1u);
  EXPECT_EQ(fast.series()[1].counter("c"), 2u);

  me::Sampler slow(reg, 3600.0);
  EXPECT_TRUE(slow.poll());   // first poll always samples
  EXPECT_FALSE(slow.poll());  // an hour has not elapsed
  slow.force();
  EXPECT_EQ(slow.series().size(), 2u);

  const std::string json = me::Sampler::series_json(slow.series());
  fxtest::JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  const auto series = slow.take_series();
  EXPECT_EQ(series.size(), 2u);
  EXPECT_TRUE(slow.series().empty());
}

// ---------------------------------------------------------------------------
// Profiler: fitting synthetic data with known coefficients
// ---------------------------------------------------------------------------

namespace {

void sweep(me::ProfileStore& store, const std::string& module,
           const std::vector<int>& procs, const std::vector<std::int64_t>& sizes,
           const std::function<double(std::int64_t, int)>& truth) {
  for (int p : procs) {
    for (std::int64_t n : sizes) store.record(module, p, n, truth(n, p));
  }
}

const std::vector<int> kProcs = {2, 4, 8};
const std::vector<std::int64_t> kSizes = {1 << 10, 1 << 12, 1 << 14, 1 << 16};

}  // namespace

TEST(Profiler, RecoversNOverPScaling) {
  me::ProfileStore store;
  sweep(store, "redist", kProcs, kSizes,
        [](std::int64_t n, int p) { return 1e-3 + 2e-6 * static_cast<double>(n) / p; });
  const me::Fit f = store.fit("redist");
  EXPECT_EQ(f.model, me::ScalingModel::NOverP);
  EXPECT_NEAR(f.a, 1e-3, 1e-9);
  EXPECT_NEAR(f.b, 2e-6, 1e-12);
  EXPECT_GT(f.r2, 0.9999);
  EXPECT_EQ(f.points, static_cast<int>(kProcs.size() * kSizes.size()));
  // predict() and the sched-facing cost curve agree with the truth.
  EXPECT_NEAR(f.predict(4096, 4), 1e-3 + 2e-6 * 1024.0, 1e-9);
  EXPECT_NEAR(f.time_on(4096)(4), f.predict(4096, 4), 0.0);
}

TEST(Profiler, RecoversNLogNScaling) {
  me::ProfileStore store;
  sweep(store, "fft", {4}, kSizes, [](std::int64_t n, int) {
    return 5e-4 + 1e-8 * static_cast<double>(n) * std::log2(static_cast<double>(n));
  });
  const me::Fit f = store.fit("fft");
  EXPECT_EQ(f.model, me::ScalingModel::NLogN);
  EXPECT_NEAR(f.a, 5e-4, 1e-7);
  EXPECT_NEAR(f.b, 1e-8, 1e-12);
  EXPECT_GT(f.r2, 0.999);
}

TEST(Profiler, RecoversLinearScalingAcrossProcs) {
  me::ProfileStore store;
  // Time independent of p: the n/p basis cannot fit this across procs.
  sweep(store, "seq", kProcs, kSizes,
        [](std::int64_t n, int) { return 2e-3 + 1e-6 * static_cast<double>(n); });
  const me::Fit f = store.fit("seq");
  EXPECT_EQ(f.model, me::ScalingModel::Linear);
  EXPECT_NEAR(f.a, 2e-3, 1e-8);
  EXPECT_NEAR(f.b, 1e-6, 1e-11);
}

TEST(Profiler, TooFewPointsYieldsEmptyFit) {
  me::ProfileStore store;
  store.record("lonely", 2, 1024, 0.5);
  EXPECT_EQ(store.fit("lonely").points, 0);
  EXPECT_EQ(store.fit("absent").points, 0);
  EXPECT_TRUE(store.fit_all().empty());
}

TEST(Profiler, ReportAndJsonOutputs) {
  me::ProfileStore store;
  sweep(store, "redist", kProcs, kSizes,
        [](std::int64_t n, int p) { return 1e-3 + 2e-6 * static_cast<double>(n) / p; });
  sweep(store, "fft", {4}, kSizes, [](std::int64_t n, int) {
    return 5e-4 + 1e-8 * static_cast<double>(n) * std::log2(static_cast<double>(n));
  });

  const std::string plain = store.report();
  EXPECT_NE(plain.find("redist"), std::string::npos);
  EXPECT_NE(plain.find("fft"), std::string::npos);
  EXPECT_NE(plain.find("a + b*n/p"), std::string::npos);
  EXPECT_NE(plain.find("a + b*n*log2(n)"), std::string::npos);

  // With a reference model the report grows a modeled column.
  const std::string with_ref =
      store.report([](const me::Observation& o) { return o.seconds * 1.1; });
  EXPECT_NE(with_ref.find("modeled"), std::string::npos);
  EXPECT_GT(with_ref.size(), plain.size());

  const std::string json = store.to_json();
  fxtest::JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"observations\""), std::string::npos);
  EXPECT_NE(json.find("\"fits\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: RuntimeMetrics through Machine runs
// ---------------------------------------------------------------------------

namespace {

/// A program touching every instrumented layer: redistribution (messages,
/// plan cache), halo exchange, a parallel loop, a collective, a barrier.
void instrumented_program(mx::Context& ctx) {
  const auto g = fxpar::pgroup::ProcessorGroup::identity(ctx.nprocs());
  ds::DistArray<double> a(ctx, ds::Layout(g, {256}, {ds::DimDist::block()}), "a");
  ds::DistArray<double> b(ctx, ds::Layout(g, {256}, {ds::DimDist::cyclic()}), "b");
  a.fill([](std::span<const std::int64_t> gi) { return static_cast<double>(gi[0]); });
  ds::assign(ctx, b, a);
  ds::assign(ctx, b, a);  // second pass: plan-cache hit

  ds::DistArray<double> h(
      ctx,
      ds::Layout(g, {2, 64, 4},
                 {ds::DimDist::collapsed(), ds::DimDist::block(), ds::DimDist::collapsed()}),
      "h");
  h.fill_value(1.0);
  (void)ds::exchange_row_halo(ctx, h, 1);

  std::vector<double> sink(64, 0.0);
  double* out = sink.data();
  fxpar::core::parallel_for(ctx, 0, 64, [out](std::int64_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  });
  (void)fxpar::comm::reduce(ctx, g, 0, 1.0, [](double a, double b) { return a + b; });
  ctx.barrier(ctx.group());
}

}  // namespace

TEST(RuntimeMetrics, SimRunPopulatesEveryLayer) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  mx::Machine m(MachineConfig::paragon(4));
  ASSERT_NE(m.metrics(), nullptr);
  const mx::RunResult res = m.run(instrumented_program);
  ASSERT_NE(res.metrics, nullptr);
  const me::Snapshot& s = *res.metrics;
  EXPECT_EQ(s.counter("fxpar_machine_runs_total"), 1u);
  EXPECT_GT(s.counter("fxpar_comm_messages_total"), 0u);
  EXPECT_GT(s.counter("fxpar_comm_message_bytes_total"), 0u);
  EXPECT_GT(s.counter("fxpar_sync_barriers_total"), 0u);
  EXPECT_GT(s.counter("fxpar_comm_collectives_total"), 0u);
  EXPECT_GT(s.counter("fxpar_dist_redistributions_total"), 0u);
  EXPECT_GT(s.counter("fxpar_dist_halo_exchanges_total"), 0u);
  EXPECT_GT(s.counter("fxpar_dist_plan_cache_misses_total"), 0u);
  EXPECT_GT(s.counter("fxpar_dist_plan_cache_hits_total"), 0u);
  EXPECT_EQ(s.counter("fxpar_core_parallel_loops_total"), 4u);  // one per member
  EXPECT_GT(s.gauge("fxpar_sim_modeled_busy_seconds"), 0.0);
  ASSERT_TRUE(s.histograms.count("fxpar_dist_redistribute_seconds"));
  EXPECT_EQ(s.histograms.at("fxpar_dist_redistribute_seconds").count, 8u);  // 2 x 4 members
  ASSERT_TRUE(s.histograms.count("fxpar_core_parallel_loop_seconds"));
  EXPECT_EQ(s.histograms.at("fxpar_core_parallel_loop_seconds").count, 4u);

  // The snapshot is cumulative over the machine's lifetime.
  const mx::RunResult res2 = m.run(instrumented_program);
  ASSERT_NE(res2.metrics, nullptr);
  EXPECT_EQ(res2.metrics->counter("fxpar_machine_runs_total"), 2u);
  EXPECT_GT(res2.metrics->counter("fxpar_comm_messages_total"),
            s.counter("fxpar_comm_messages_total"));
}

TEST(RuntimeMetrics, ThreadedRunPopulatesCounters) {
  auto cfg = MachineConfig::paragon(4);
  cfg.backend = ex::BackendKind::Threads;
  mx::Machine m(cfg);
  const mx::RunResult res = m.run(instrumented_program);
  ASSERT_NE(res.metrics, nullptr);
  EXPECT_EQ(res.metrics->counter("fxpar_machine_runs_total"), 1u);
  EXPECT_GT(res.metrics->counter("fxpar_comm_messages_total"), 0u);
  EXPECT_EQ(res.metrics->counter("fxpar_core_parallel_loops_total"), 4u);
  EXPECT_GT(res.metrics->gauge("fxpar_machine_last_run_host_seconds"), 0.0);
}

TEST(RuntimeMetrics, DisabledMeansNoRegistryAndIdenticalModeledTime) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  auto off = MachineConfig::paragon(4);
  off.metrics = false;
  mx::Machine moff(off);
  EXPECT_EQ(moff.metrics(), nullptr);
  const mx::RunResult roff = moff.run(instrumented_program);
  EXPECT_EQ(roff.metrics, nullptr);

  mx::Machine mon(MachineConfig::paragon(4));
  const mx::RunResult ron = mon.run(instrumented_program);
  // Metrics must never perturb the model: same program, same modeled time.
  EXPECT_DOUBLE_EQ(ron.finish_time, roff.finish_time);
  EXPECT_EQ(ron.bytes, roff.bytes);
}

TEST(Metrics, SamplerFinishFlushesFinalPartialIntervalWithoutReanchoring) {
  me::Registry reg(1);
  me::Counter* c = reg.counter("c");

  // Activity inside the final partial interval would be dropped by poll()
  // alone; finish() captures it in a terminal snapshot.
  me::Sampler s(reg, 3600.0);
  EXPECT_TRUE(s.poll());  // initial anchor sample
  c->add(0, 5);
  EXPECT_FALSE(s.poll());  // an hour has not elapsed
  s.finish();
  ASSERT_EQ(s.series().size(), 2u);
  EXPECT_EQ(s.series().back().counter("c"), 5u);

  // Unlike force(), finish() leaves the cadence anchor alone: with a short
  // period, a grid point that was already due before finish() is still due
  // after it — a sampler shared across several stream epochs keeps its
  // rhythm when one epoch drains.
  me::Sampler keep(reg, 0.02);
  EXPECT_TRUE(keep.poll());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  keep.finish();
  EXPECT_TRUE(keep.poll()) << "finish() must not re-anchor the grid";

  me::Sampler move(reg, 0.02);
  EXPECT_TRUE(move.poll());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  move.force();
  EXPECT_FALSE(move.poll()) << "force() re-anchors the grid at now";
}

// ---------------------------------------------------------------------------
// Series coverage: a sampled stream run must account for every data set
// ---------------------------------------------------------------------------

TEST(RuntimeMetrics, SampledStreamSeriesCoversTheWholeStream) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  // A stream far shorter than the sampling period: before the terminal
  // flush, the series ended at the initial snapshot and reported zero
  // completed sets for the whole run.
  ap::FftHistConfig cfg;
  cfg.n = 16;
  cfg.bins = 8;
  cfg.num_sets = 4;
  const auto stages = ap::ffthist_stages(cfg);
  const auto stats = ap::run_stream_pipeline<ap::Complex>(
      MachineConfig::paragon(4), stages, {{0, 2, 4, 1}}, cfg.num_sets,
      /*metrics_sample_period_s=*/3600.0);
  ASSERT_GE(stats.metrics_series.size(), 2u);
  EXPECT_LT(stats.metrics_series.front().counter("fxpar_apps_pipeline_sets_total"),
            static_cast<std::uint64_t>(cfg.num_sets));
  EXPECT_EQ(stats.metrics_series.back().counter("fxpar_apps_pipeline_sets_total"),
            static_cast<std::uint64_t>(cfg.num_sets));
}

// ---------------------------------------------------------------------------
// Forked-rank residue codec (serialize_delta / absorb_delta)

TEST(MetricsDelta, RoundTripAppliesCounterAndHistogramDeltas) {
  fxpar::metrics::Registry child(2);
  child.counter("fxpar_test_events")->add(1, 3);
  const auto base = child.snapshot();
  child.counter("fxpar_test_events")->add(0, 4);
  child.histogram("fxpar_test_wait_s")->observe(1, 0.5);
  const auto blob = fxpar::metrics::serialize_delta(base, child.snapshot());
  ASSERT_FALSE(blob.empty());

  fxpar::metrics::Registry parent(2);
  parent.counter("fxpar_test_events")->add(0, 10);
  fxpar::metrics::absorb_delta(parent, blob.data(), blob.size());
  const auto snap = parent.snapshot();
  EXPECT_EQ(snap.counter("fxpar_test_events"), 14u);
  ASSERT_EQ(snap.histograms.count("fxpar_test_wait_s"), 1u);
  EXPECT_EQ(snap.histograms.at("fxpar_test_wait_s").count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("fxpar_test_wait_s").sum, 0.5);
}

// A forked rank's blob crosses a process boundary, so absorb must reject
// every truncation cleanly — and leave the registry untouched.
TEST(MetricsDelta, EveryStrictPrefixThrowsAndChangesNothing) {
  fxpar::metrics::Registry child(1);
  const auto base = child.snapshot();
  child.counter("fxpar_test_events")->add(0, 7);
  child.histogram("fxpar_test_wait_s")->observe(0, 0.25);
  child.histogram("fxpar_test_wait_s")->observe(0, 3.0);
  const auto blob = fxpar::metrics::serialize_delta(base, child.snapshot());
  ASSERT_GT(blob.size(), 8u);
  for (std::size_t n = 0; n < blob.size(); ++n) {
    fxpar::metrics::Registry parent(1);
    EXPECT_THROW(fxpar::metrics::absorb_delta(parent, blob.data(), n), std::runtime_error)
        << "prefix " << n << " of " << blob.size();
    const auto snap = parent.snapshot();
    EXPECT_TRUE(snap.counters.empty() && snap.histograms.empty()) << "prefix " << n;
  }
}

// A bucket count of 0xFFFFFFFF with no bytes behind it must be refused
// before anything is sized from it (sizing first would zero-fill ~32 GiB).
TEST(MetricsDelta, HugeBucketCountThrowsBeforeAllocating) {
  std::vector<std::byte> blob;
  const auto put32 = [&](std::uint32_t v) {
    const auto* b = reinterpret_cast<const std::byte*>(&v);
    blob.insert(blob.end(), b, b + sizeof v);
  };
  put32(0);  // counters
  put32(1);  // histograms
  put32(1);  // name length
  blob.push_back(std::byte{'h'});
  const std::uint64_t nb = 0xFFFFFFFFu;
  const auto* b = reinterpret_cast<const std::byte*>(&nb);
  blob.insert(blob.end(), b, b + sizeof nb);
  fxpar::metrics::Registry reg(1);
  EXPECT_THROW(fxpar::metrics::absorb_delta(reg, blob.data(), blob.size()), std::runtime_error);
}
