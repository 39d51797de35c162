// perfbench: qsort_nested_threads — repeated apps::run_parallel_qsort of
// seeded 1M-key int64 arrays (duplicates included) on 4 worker threads.
//
// Each sort is one item and builds a fresh Machine, so plan and collective
// caches start cold every time: the irregular, cold use of the dist, comm,
// pgroup and exec layers the streams use warm. Closed loop, one client: the
// next sort starts when the previous one returns. A run is a series of
// segments, each a runtime start-up, one warm-up sort and a fixed number of
// timed sorts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "apps/quicksort.hpp"
#include "harness.hpp"
#include "machine/machine.hpp"
#include "trace/chrome_export.hpp"

namespace perfbench {
namespace {

namespace ap = fxpar::apps;
using fxpar::machine::MachineConfig;

constexpr std::int64_t kKeys = std::int64_t{1} << 20;
constexpr int kPool = 32;          ///< distinct seeded inputs, used round-robin
constexpr int kSegmentSorts = 20;  ///< timed sorts per segment, after one warm-up sort
constexpr std::size_t kMinTimed = 200;  ///< enough for a p95 with ten samples beyond
constexpr int kMaxTracedItems = 40;

/// Order-dependent digest of a key sequence: equal digests mean equal
/// sequences (up to 64-bit hash collisions).
std::uint64_t digest(const std::vector<std::int64_t>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ v.size();
  for (const std::int64_t x : v) h = (h ^ static_cast<std::uint64_t>(x)) * 0x100000001b3ull;
  return h;
}

/// The seeded inputs of one run. Inputs are regenerated before each sort
/// (outside the timed call) so only one lives at a time; each sort's output
/// is checked against the digest of std::sort of the same input.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<std::uint64_t> sorted_digest;

  explicit Inputs(std::uint64_t s) : seed(s), sorted_digest(kPool) {
    host_parallel_for(kPool, 4, [&](std::size_t k) {
      std::vector<std::int64_t> v = input(static_cast<int>(k));
      std::sort(v.begin(), v.end());
      sorted_digest[k] = digest(v);
    });
  }
  std::vector<std::int64_t> input(int k) const {
    return ap::qsort_input(kKeys, static_cast<unsigned>(mix(seed, 0x9507 + k)));
  }
};

/// One item: input `k` generated, sorted by the program, output verified.
struct Sort {
  std::int64_t item_t0 = 0, item_t1 = 0;  ///< input generation to verification
  std::int64_t t0 = 0, t1 = 0;            ///< the run_parallel_qsort call
  bool ok = false;
  long minor_faults = 0;  ///< during the call
  fxpar::machine::RunResult result;

  double ms() const { return ns_to_ms(t1 - t0); }
};

Sort sort_one(const MachineConfig& mcfg, const Inputs& inputs, int k) {
  Sort s;
  s.item_t0 = now_ns();
  const std::vector<std::int64_t> in = inputs.input(k);
  const long faults = rusage_now().minor_faults;
  s.t0 = now_ns();
  ap::QsortResult r = ap::run_parallel_qsort(mcfg, in);
  s.t1 = now_ns();
  s.minor_faults = rusage_now().minor_faults - faults;
  s.ok = digest(r.sorted) == inputs.sorted_digest[static_cast<std::size_t>(k)];
  s.result = std::move(r.machine_result);
  s.item_t1 = now_ns();
  return s;
}

}  // namespace

Outcome run_qsort_nested_threads(const Options& opt) {
  Outcome out;
  MachineConfig mcfg = MachineConfig::paragon(4);
  mcfg.backend = fxpar::exec::BackendKind::Threads;
  mcfg.pinning = fxpar::exec::PinPolicy::Compact;
  const int workers = mcfg.num_procs;

  const Inputs inputs(opt.seed);
  const double harness_peak_mb = static_cast<double>(rusage_now().max_rss_kb) / 1024.0;
  const auto verified = [&](const MachineConfig& cfg, int k) {
    Sort s = sort_one(cfg, inputs, k % kPool);
    ++out.attempted;
    if (!s.ok) ++out.failed;
    return s;
  };

  // A segment's set-up: qsort keeps no state between sorts (each builds its
  // own Machine, a cost that stays in the item latency), so its set-up is
  // the runtime's start-up, a Machine of the sort's configuration
  // constructed and run once with an empty program, then one warm-up sort.
  const auto segment = [&](int index) {
    Segment g;
    const std::int64_t t0 = now_ns();
    {
      fxpar::machine::Machine m(mcfg);
      g.construct_ms = ns_to_ms(now_ns() - t0);
      m.run([](fxpar::machine::Context&) {});
    }
    const std::int64_t startup_ns = now_ns() - t0;
    std::vector<std::int64_t> entry, done;
    std::int64_t t = 0;  // sorts laid end to end: input generation and verification left out
    for (int i = 0; i <= kSegmentSorts; ++i) {
      const Sort s = verified(mcfg, index * (kSegmentSorts + 1) + i);
      accumulate(g.registry, *s.result.metrics);
      g.wait_ms += s.result.wait_ms;
      g.host_ms += s.result.host_ms;
      g.minor_faults += s.minor_faults;
      ++g.items;
      if (i == 0) {
        g.first_item_ms = s.ms();
        g.setup_s = ns_to_s(startup_ns + s.t1 - s.t0);
        continue;
      }
      entry.push_back(t);
      t += s.t1 - s.t0;
      done.push_back(t);
    }
    g.stats = item_stats(entry, done, 0);
    return g;
  };

  if (!opt.trace) {
    const Segments segs = run_segments(opt.seconds, segment, kMinTimed);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%d timed sorts (+1 warm-up) of %lld keys per segment; harness peak RSS before "
                  "the first sort %.1f MB",
                  kSegmentSorts, static_cast<long long>(kKeys), harness_peak_mb);
    segs.report(out, "qsort_nested_threads", buf);
    return out;
  }

  // Traced run: untraced segments over half the time, then traced sorts
  // (MachineConfig::trace + item and call spans) over the other half.
  const Segments plain = run_segments(opt.seconds / 2, segment);
  const double plain_rate = segment_stats(plain.stats).items_per_s;
  MachineConfig traced_cfg = mcfg;
  traced_cfg.trace = true;
  std::vector<Sort> traced;
  double traced_ms = 0.0;
  for (int i = 0; i < kMaxTracedItems && (i == 0 || traced_ms < opt.seconds / 2 * 1e3); ++i) {
    if (!traced.empty()) traced.back().result.trace.reset();  // keep only the last sort's trace
    traced.push_back(verified(traced_cfg, i));
    traced_ms += traced.back().ms();
  }

  // Nominal computed volume: each nested level (ceil(log2 P) of them)
  // moves every key into a subgroup array and merges it back.
  const double levels = std::ceil(std::log2(static_cast<double>(workers)));
  add_registry_layers(out, plain.registry, static_cast<double>(plain.items),
                      2.0 * levels * static_cast<double>(kKeys) * sizeof(std::int64_t));
  plain.add_machine_layers(out, workers);

  // One-thread baseline: std::sort of the same inputs.
  std::vector<double> seq_ms;
  for (int k = 0; k < 4; ++k) {
    std::vector<std::int64_t> v = inputs.input(k);
    const std::int64_t t0 = now_ns();
    std::sort(v.begin(), v.end());
    seq_ms.push_back(ns_to_ms(now_ns() - t0));
  }
  const double seq = median(seq_ms);
  out.metrics.push_back({"apps.seq_ref_ms_per_item", seq, "ms"});
  out.metrics.push_back({"apps.parallel_efficiency", seq * plain_rate / 1e3 / workers, "ratio"});
  out.metrics.push_back({"trace.overhead_ratio",
                         plain_rate / (static_cast<double>(traced.size()) / (traced_ms * 1e-3)),
                         "ratio"});

  // Span tree: each item span (input generation, the call, verification)
  // parents the run_parallel_qsort call it made; coverage is the call's
  // share of the item.
  SpanLog log;
  double covered = 0.0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Sort& s = traced[i];
    const int item = log.add({"item", static_cast<int>(i), -1, -1, s.item_t0, s.item_t1});
    log.add({"apps.run_parallel_qsort", static_cast<int>(i), -1, item, s.t0, s.t1});
    covered += static_cast<double>(covered_ns({{s.t0, s.t1}}, s.item_t0, s.item_t1)) /
               static_cast<double>(s.item_t1 - s.item_t0);
  }
  out.metrics.push_back(
      {"trace.span_coverage", covered / static_cast<double>(traced.size()), "ratio"});
  const std::string stem = output_stem(opt);
  log.write(stem + ".spans.json");
  if (traced.back().result.trace) {
    fxpar::trace::write_chrome_trace(*traced.back().result.trace, stem + ".fxtrace.json");
  }
  out.notes.push_back("spans and the last sort's program trace written to " + stem + ".*");
  return out;
}

}  // namespace perfbench
