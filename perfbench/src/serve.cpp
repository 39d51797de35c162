// perfbench: serve_fig5_sim — the dynamic Figure 5 trace on the simulator.
//
// Three tenant FFT-Hist (n=64) request streams offer a low -> high -> low
// load that repeats for several cycles on paragon(8), so the serving
// driver (serve::serve_streams) remaps up and back down every cycle. Open
// loop on a virtual-time schedule derived from the seed: requests arrive on
// the schedule whatever the system does. Host latency of a request runs
// from its entry into the source stage to completion of the last stage;
// its modeled latency (virtual seconds from due arrival) comes from
// ServeReport. The two clocks are reported side by side, never compared.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "apps/ffthist.hpp"
#include "serve/server.hpp"
#include "stage_probe.hpp"
#include "trace/chrome_export.hpp"

namespace perfbench {
namespace {

namespace ap = fxpar::apps;
namespace sv = fxpar::serve;
using fxpar::machine::MachineConfig;

constexpr int kStreams = 3;
constexpr int kPhaseRequests = 32;  ///< requests per load phase (before jitter)
constexpr int kSegmentCycles = 8;   ///< load cycles per segment (~770 requests)
constexpr int kMaxTracedRequests = 600;

/// Seed-derived open-loop trace: `cycles` repetitions of low/high/low; each
/// phase's rate and request count are jittered by the seed and segment.
std::vector<sv::ServeRequest> make_schedule(const Options& opt, int segment, double latmin_thr,
                                            double max_thr, int cycles, int id_base) {
  // Low load sits well inside the latency-optimal mapping's capacity; high
  // load lies between that capacity and the machine's maximum, so the
  // policy must remap up, and back down when the load drops.
  const double low = 0.3 * latmin_thr;
  const double high = 0.5 * (latmin_thr + max_thr);
  std::vector<sv::ServeRequest> arrivals;
  std::vector<long> seq(kStreams, 0);
  double t0 = 0.0;
  std::uint64_t salt = 0;
  for (int c = 0; c < cycles; ++c) {
    for (const double base : {low, high, low}) {
      const std::uint64_t h = mix(mix(opt.seed, static_cast<std::uint64_t>(segment)), salt++);
      const double rate = base * (0.97 + 0.06 * static_cast<double>(h % 1000) / 1000.0);
      const int reqs = kPhaseRequests - 2 + static_cast<int>((h >> 20) % 5);
      for (int i = 0; i < reqs; ++i) {
        sv::ServeRequest r;
        r.stream = static_cast<int>(arrivals.size() % kStreams);
        r.seq = seq[static_cast<std::size_t>(r.stream)]++;
        r.arrival_t = t0 + static_cast<double>(i) / rate;
        r.data_id = id_base + static_cast<int>(arrivals.size());
        arrivals.push_back(r);
      }
      t0 += static_cast<double>(reqs) / rate;
    }
  }
  return arrivals;
}

struct ServeRun {
  int id_base = 0;
  int requests = 0;
  std::int64_t t_start = 0, t_constructed = 0, t_end = 0;
  ItemTimes items;
  sv::ServeReport report;
  fxpar::metrics::Snapshot after;
  Rusage ru_before, ru_after;
  long failed = 0;

  double setup_s() const { return ns_to_s(items.entry[0] - t_start); }
  ItemStats stats() const { return item_stats(items.entry, items.done, items.entry[0]); }
};

struct ServeCase {
  MachineConfig mcfg = MachineConfig::paragon(8);
  ap::FftHistConfig cfg;
  fxpar::sched::PipelineModel model;
  double latmin_thr = 0.0, max_thr = 0.0;

  ServeCase() {
    // n=64, not bench_serve's n=32: at n=32 on 8 processors the mapper
    // gives the low-rate mapping a higher modeled latency than the
    // high-rate one, so the policy never remaps down (see README.md).
    cfg.n = 64;
    cfg.bins = 8;
    model = ap::ffthist_model(mcfg, cfg);
    max_thr = fxpar::sched::max_throughput_mapping(model, mcfg.num_procs).throughput;
    latmin_thr = fxpar::sched::min_latency_mapping(model, mcfg.num_procs, 0.0).throughput;
  }
};

int id_base_for(const Options& opt, int segment) {
  return static_cast<int>(mix(opt.seed, 0x1d5 + static_cast<std::uint64_t>(segment)) % 100000);
}

/// One segment: a serve_streams call over kSegmentCycles load cycles on a
/// fresh Machine, every request verified. With `trace_path` set the Machine
/// traces and its recorder (holding the last batch's run) is written there.
ServeRun run_serve(const ServeCase& sc, const Options& opt, int segment, int max_requests,
                   const std::string& trace_path = "") {
  const bool traced = !trace_path.empty();
  const int id_base = id_base_for(opt, segment);
  std::vector<sv::ServeRequest> arrivals =
      make_schedule(opt, segment, sc.latmin_thr, sc.max_thr, kSegmentCycles, id_base);
  if (static_cast<int>(arrivals.size()) > max_requests) arrivals.resize(max_requests);
  const int n = static_cast<int>(arrivals.size());

  auto sink = std::make_shared<std::vector<std::vector<std::int64_t>>>();
  ap::FftHistConfig sized = sc.cfg;
  sized.num_sets = id_base + n;
  std::vector<RankLog> logs(static_cast<std::size_t>(sc.mcfg.num_procs));
  for (RankLog& l : logs) {
    l.entry.reserve(static_cast<std::size_t>(n));
    l.done.reserve(static_cast<std::size_t>(n));
    l.results.reserve(static_cast<std::size_t>(n) * 12);
    if (traced) l.events.reserve(static_cast<std::size_t>(n) * 3);
  }
  const auto stages =
      probe_stages<ap::Complex>(ap::ffthist_stages(sized, sink.get()), logs,
                                [id_base](int, int, std::int64_t, int k) { return k - id_base; },
                                traced, ffthist_tap(sink));

  sv::ServeConfig scfg;
  scfg.max_batch = 8;
  // As bench_serve's dynamic mode: plan for the measured rate itself, and
  // let the driver shed the high-rate mapping once the load drops.
  scfg.policy.safety = 1.0;
  scfg.policy.latency_improvement = 0.05;

  MachineConfig mcfg = sc.mcfg;
  mcfg.trace = traced;
  ServeRun run;
  run.id_base = id_base;
  run.requests = n;
  {
    // The simulator runs on one host thread, and on a shared VM one vCPU can
    // run 30-40% slower than another for minutes (another tenant on its SMT
    // sibling). Rotating segments over the CPUs makes every run sample each.
    const PinToCpus pin(segment, 1);
    run.ru_before = rusage_now();
    run.t_start = now_ns();
    fxpar::machine::Machine machine(mcfg);
    run.t_constructed = now_ns();
    run.report = sv::serve_streams<ap::Complex>(machine, stages, sc.model, arrivals, scfg);
    run.t_end = now_ns();
    run.ru_after = rusage_now();
    run.after = machine.metrics_snapshot();
    if (traced && machine.tracer()) {
      fxpar::trace::write_chrome_trace(*machine.tracer(), trace_path);
    }
  }
  run.items = merge_logs(logs, static_cast<std::size_t>(n));

  // Every request is checked; a shed or unserved one has no result and fails.
  std::vector<char> bad(static_cast<std::size_t>(n), 0);
  host_parallel_for(bad.size(), 4, [&](std::size_t k) {
    const bool stamped = run.items.entry[k] > 0 && run.items.done[k] >= run.items.entry[k];
    bad[k] = !stamped ||
             run.items.result[k] != ap::ffthist_reference(sc.cfg, id_base + static_cast<int>(k));
  });
  run.failed = std::count(bad.begin(), bad.end(), 1);
  return run;
}

}  // namespace

Outcome run_serve_fig5_sim(const Options& opt) {
  Outcome out;
  const ServeCase sc;
  int next_segment = 0;  // every segment, the traced one too, has its own schedule and ids
  const auto run_verified = [&](int max_requests, const std::string& trace_path = "") {
    ServeRun r = run_serve(sc, opt, next_segment++, max_requests, trace_path);
    out.attempted += r.requests;
    out.failed += r.failed;
    return r;
  };
  // ServeReport figures per segment, and the host seconds inside serve_streams.
  std::vector<double> model_p95_s, remaps;
  long shed = 0;
  double serve_s = 0.0;
  const auto segment = [&](int) {
    const ServeRun r = run_verified(1 << 30);
    Segment g;
    g.stats = r.stats();
    g.setup_s = r.setup_s();
    g.construct_ms = ns_to_ms(r.t_constructed - r.t_start);
    g.first_item_ms = ns_to_ms(r.items.done[0] - r.t_constructed);
    g.registry = r.after;
    g.minor_faults = r.ru_after.minor_faults - r.ru_before.minor_faults;
    g.items = r.requests;
    model_p95_s.push_back(r.report.latency_quantile(0.95));
    remaps.push_back(r.report.remaps);
    shed += static_cast<long>(r.report.shed.size());
    serve_s += ns_to_s(r.t_end - r.t_constructed);
    return g;
  };

  if (!opt.trace) {
    const Segments segs = run_segments(opt.seconds, segment);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%d load cycles per segment, median %g remaps per segment, %ld shed",
                  kSegmentCycles, median(remaps), shed);
    segs.report(out, "serve_fig5_sim", buf);
    std::snprintf(buf, sizeof buf,
                  "model_p95_s %.6f s (ServeReport p95 in virtual time, median over segments)",
                  median(model_p95_s));
    out.notes.push_back(buf);
    return out;
  }

  // Traced run: untraced segments over half the time, then one traced
  // segment (MachineConfig::trace + stage spans).
  const std::string stem = output_stem(opt);
  const Segments plain = run_segments(opt.seconds / 2, segment);
  const ServeRun traced = run_verified(kMaxTracedRequests, stem + ".fxtrace.json");
  const double plain_rate = segment_stats(plain.stats).items_per_s;
  const double items = static_cast<double>(plain.items);

  add_registry_layers(out, plain.registry, items,
                      2.0 * static_cast<double>(sc.cfg.n * sc.cfg.n) * sizeof(ap::Complex),
                      /*host_clock=*/false);

  // Stage figures and the span tree of the traced half (one host thread
  // runs every fiber).
  SpanLog log;
  const int root = log.add({"workload.serve_fig5_sim", -1, -1, -1, traced.t_start, traced.t_end});
  log.add({"machine.construct", -1, -1, root, traced.t_start, traced.t_constructed});
  const int call =
      log.add({"serve.serve_streams", -1, -1, root, traced.t_constructed, traced.t_end});
  const std::vector<std::string> names = {"cffts", "rffts", "hist"};
  const StageFigures fig = stage_figures(traced.items, 0, names, log, call);
  for (std::size_t s = 0; s < names.size(); ++s) {
    out.metrics.push_back({"apps.stage." + names[s] + ".ms_per_item", fig.ms_per_item[s], "ms"});
  }
  out.metrics.push_back({"apps.fft.gflops",
                         2.0 * static_cast<double>(sc.cfg.n) * ap::fft_flops(sc.cfg.n) *
                             traced.requests / (fig.busy_ns[0] + fig.busy_ns[1]),
                         "GFLOP/s"});
  out.metrics.push_back({"trace.span_coverage", fig.coverage, "ratio"});

  plain.add_machine_layers(out, sc.mcfg.num_procs);

  // The planner on its own: the mapping queries the policy makes, at the
  // rates this trace offers.
  std::vector<double> plan_ms;
  for (int rep = 0; rep < 10; ++rep) {
    for (const double rate : {0.3 * sc.latmin_thr, 0.5 * (sc.latmin_thr + sc.max_thr)}) {
      const std::int64_t t0 = now_ns();
      (void)fxpar::sched::min_latency_mapping(sc.model, sc.mcfg.num_procs, rate);
      plan_ms.push_back(ns_to_ms(now_ns() - t0));
    }
  }
  out.metrics.push_back({"sched.plan_ms", median(plan_ms), "ms"});
  out.metrics.push_back({"serve.remaps", median(remaps), "count"});
  out.metrics.push_back({"serve.shed", static_cast<double>(shed), "count"});
  out.metrics.push_back({"serve.model_p95_s", median(model_p95_s), "s"});
  out.metrics.push_back({"runtime.sim_events_per_s",
                         static_cast<double>(plain.registry.counter("fxpar_comm_messages_total") +
                                             plain.registry.counter("fxpar_sync_barriers_total")) /
                             serve_s,
                         "1/s"});

  const int ref_items = 64;
  const std::int64_t r0 = now_ns();
  for (int i = 0; i < ref_items; ++i) (void)ap::ffthist_reference(sc.cfg, traced.id_base + i);
  const double seq_ms = ns_to_ms(now_ns() - r0) / ref_items;
  out.metrics.push_back({"apps.seq_ref_ms_per_item", seq_ms, "ms"});
  // The simulator runs every logical processor on one host thread.
  out.metrics.push_back({"apps.parallel_efficiency", seq_ms * plain_rate / 1e3, "ratio"});
  out.metrics.push_back(
      {"trace.overhead_ratio", plain_rate / traced.stats().items_per_s, "ratio"});

  log.write(stem + ".spans.json");
  out.notes.push_back("spans and program trace (last batch) written to " + stem + ".*");
  return out;
}

}  // namespace perfbench
