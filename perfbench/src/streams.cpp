// perfbench: the two closed-loop stream workloads.
//
//   ffthist_pipe_threads  FFT-Hist 256x256, [cffts+rffts] p=1 | [hist] p=1, threads
//   stereo_rep_proc       stereo 256x240 (8 disparities), [all] p=2 x2, proc/shm
//
// A run is a series of segments until --seconds have passed. A segment is a
// fresh Machine and one run_stream_pipeline_on over two warm-up sets then a
// fixed number of timed sets. The source subgroup admits the next set as
// soon as it is free (closed loop, one stream).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "apps/ffthist.hpp"
#include "apps/stereo.hpp"
#include "stage_probe.hpp"
#include "trace/chrome_export.hpp"

namespace perfbench {
namespace {

namespace ap = fxpar::apps;
using fxpar::machine::MachineConfig;
constexpr int kWarmSets = 2;          ///< first sets of every segment: plan-cache warm-up
constexpr int kMaxTracedItems = 400;  ///< bounds the program trace's memory
constexpr int kIdPool = 64;           ///< distinct data ids per run

/// One stream workload: its machine, mapping, stages and reference.
template <typename T>
struct StreamCase {
  std::string name;
  MachineConfig mcfg;
  std::vector<ap::StreamModule> modules;
  int segment_sets = 0;  ///< timed sets per segment
  /// Segment i runs on this many consecutive CPUs from the i-th on, so a
  /// run samples every vCPU (0: unpinned).
  int pinned_cpus = 0;
  /// Library stages whose result sink holds data ids below `capacity`.
  std::function<std::vector<ap::PipelineStage<T>>(int capacity)> make_stages;
  ResultTap<T> tap;
  /// Sequential reference of data set `id`, as the tap records it.
  std::function<std::vector<std::int64_t>(int id)> reference;
  double fft_flops_per_item = 0.0;   ///< computed cffts+rffts flops (0: no FFT)
  double computed_bytes_per_item = 0.0;  ///< array bytes the assign() handoffs carry
};

/// Everything one stream run recorded.
struct StreamRun {
  int sets = 0;
  std::int64_t t_start = 0;        ///< before Machine construction
  std::int64_t t_constructed = 0;  ///< after Machine construction
  std::int64_t t_end = 0;          ///< run_stream_pipeline_on returned
  ItemTimes items;
  fxpar::machine::RunResult result;
  Rusage ru_before, ru_after;
  int stats_nonfinite = 0;  ///< library StreamStats latencies that are not finite
  double stats_avg_latency = 0.0;
  double stats_steady_throughput = 0.0;

  double setup_s() const { return ns_to_s(items.entry[kWarmSets] - t_start); }
  /// Throughput and latency over the timed sets (all but the warm-up).
  /// The throughput window opens at the last warm-up completion, so it
  /// holds exactly the timed completions and no pipeline fill.
  ItemStats stats() const {
    const std::vector<std::int64_t> entry(items.entry.begin() + kWarmSets, items.entry.end());
    const std::vector<std::int64_t> done(items.done.begin() + kWarmSets, items.done.end());
    return item_stats(entry, done, items.done[kWarmSets - 1]);
  }
};

template <typename T>
StreamRun run_stream(const StreamCase<T>& c, int id_base, int sets, bool traced) {
  const int procs = c.mcfg.num_procs;
  std::vector<RankLog> logs(static_cast<std::size_t>(procs));
  for (RankLog& l : logs) {
    l.entry.reserve(static_cast<std::size_t>(sets));
    l.done.reserve(static_cast<std::size_t>(sets));
    l.results.reserve(static_cast<std::size_t>(sets) * 80);
    if (traced) l.events.reserve(static_cast<std::size_t>(sets) * 8);
  }
  // Set i carries data id id_base + i % kIdPool: every set is verified,
  // while the reference runs once per distinct id.
  std::vector<int> ids(static_cast<std::size_t>(sets));
  for (int i = 0; i < sets; ++i) ids[static_cast<std::size_t>(i)] = id_base + i % kIdPool;
  const auto stages = probe_stages<T>(c.make_stages(id_base + kIdPool), logs,
                                      stream_item_of(c.modules, ids), traced, c.tap);

  MachineConfig mcfg = c.mcfg;
  mcfg.trace = traced;
  StreamRun run;
  run.sets = sets;
  run.ru_before = rusage_now();
  run.t_start = now_ns();
  fxpar::machine::Machine machine(mcfg);
  run.t_constructed = now_ns();

  ap::StreamRunOptions opts;
  opts.set_ids = &ids;
  if (mcfg.backend == fxpar::exec::BackendKind::Proc) {
    opts.epilogue = [&logs](fxpar::machine::Context& ctx) { funnel_to_rank0(ctx, logs); };
  }
  const ap::StreamStats stats = ap::run_stream_pipeline_on(machine, stages, c.modules, sets, opts);
  run.t_end = now_ns();
  run.ru_after = rusage_now();
  run.result = stats.machine_result;
  run.items = merge_logs(logs, static_cast<std::size_t>(sets));
  for (int i = 0; i < sets; ++i) {
    const double lat = stats.end[static_cast<std::size_t>(i)] - stats.start[static_cast<std::size_t>(i)];
    if (!std::isfinite(lat)) ++run.stats_nonfinite;
  }
  run.stats_avg_latency = stats.avg_latency();
  run.stats_steady_throughput = stats.steady_throughput();
  return run;
}

/// The sequential reference of every data id a run uses (ids base + 0..63).
template <typename T>
std::vector<std::vector<std::int64_t>> references(const StreamCase<T>& c, int id_base) {
  std::vector<std::vector<std::int64_t>> ref(kIdPool);
  host_parallel_for(ref.size(), c.mcfg.num_procs,
                    [&](std::size_t i) { ref[i] = c.reference(id_base + static_cast<int>(i)); });
  return ref;
}

/// Number of sets of `run` whose result differs from the reference or that
/// lack a stamp.
long mismatches(const StreamRun& run, const std::vector<std::vector<std::int64_t>>& ref) {
  long bad = 0;
  for (int i = 0; i < run.sets; ++i) {
    const auto k = static_cast<std::size_t>(i);
    const bool stamped = run.items.entry[k] > 0 && run.items.done[k] >= run.items.entry[k];
    if (!stamped || run.items.result[k] != ref[k % kIdPool]) ++bad;
  }
  return bad;
}

template <typename T>
Outcome run_stream_workload(const StreamCase<T>& c, const Options& opt) {
  Outcome out;
  const auto stage_names = [&] {
    std::vector<std::string> n;
    for (const auto& s : c.make_stages(1)) n.push_back(s.name);
    return n;
  }();
  // Every segment streams the same seed-derived ids, so the references are
  // computed once, before the first segment.
  const int id_base = static_cast<int>(mix(opt.seed, 0x5e7) % 100000);
  const auto ref = references(c, id_base);
  const auto run_verified = [&](int timed_sets, bool traced) {
    StreamRun r = run_stream(c, id_base, kWarmSets + timed_sets, traced);
    out.attempted += r.sets;
    out.failed += mismatches(r, ref);
    return r;
  };
  // Library StreamStats figures, kept to record the defect they show on proc.
  long stats_nonfinite = 0;
  double stats_avg_latency = 0.0, stats_steady_throughput = 0.0;  // last segment's
  const auto segment = [&](int i) {
    const PinToCpus pin(i, c.pinned_cpus);
    const StreamRun r = run_verified(c.segment_sets, false);
    Segment g;
    g.stats = r.stats();
    g.setup_s = r.setup_s();
    g.construct_ms = ns_to_ms(r.t_constructed - r.t_start);
    g.first_item_ms = ns_to_ms(r.items.done[0] - r.t_constructed);
    g.registry = *r.result.metrics;
    g.wait_ms = r.result.wait_ms;
    g.host_ms = r.result.host_ms;
    g.minor_faults = r.ru_after.minor_faults - r.ru_before.minor_faults;
    g.items = r.sets;
    stats_nonfinite += r.stats_nonfinite;
    stats_avg_latency = r.stats_avg_latency;
    stats_steady_throughput = r.stats_steady_throughput;
    return g;
  };
  const int workers = c.mcfg.num_procs;

  if (!opt.trace) {
    const Segments segs = run_segments(opt.seconds, segment);
    segs.report(out, c.name,
                std::to_string(c.segment_sets) + " timed sets (+" + std::to_string(kWarmSets) +
                    " warm-up) per segment");
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "library StreamStats: %ld of %ld latencies non-finite; last segment "
                  "avg_latency()=%g steady_throughput()=%g (the figures above come from the "
                  "benchmark's stage probes)",
                  stats_nonfinite, segs.items, stats_avg_latency, stats_steady_throughput);
    out.notes.push_back(buf);
    return out;
  }

  // Traced run: untraced segments over half the time for the overhead base
  // and the registry counters, then one traced segment
  // (MachineConfig::trace + stage spans).
  const Segments plain = run_segments(opt.seconds / 2, segment);
  const StreamRun traced = [&] {
    const PinToCpus pin(0, c.pinned_cpus);
    return run_verified(std::min(kMaxTracedItems, c.segment_sets), true);
  }();
  const double plain_rate = segment_stats(plain.stats).items_per_s;

  add_registry_layers(out, plain.registry, static_cast<double>(plain.items),
                      c.computed_bytes_per_item);
  plain.add_machine_layers(out, workers);

  // Stage figures and the span tree of the traced segment.
  SpanLog log;
  const int root = log.add({"workload." + c.name, -1, -1, -1, traced.t_start, traced.t_end});
  log.add({"machine.construct", -1, -1, root, traced.t_start, traced.t_constructed});
  const int mrun = log.add({"machine.run", -1, -1, root, traced.t_constructed, traced.t_end});
  const StageFigures fig = stage_figures(traced.items, kWarmSets, stage_names, log, mrun);
  double fft_busy_ns = 0.0;
  for (std::size_t s = 0; s < stage_names.size(); ++s) {
    out.metrics.push_back({"apps.stage." + stage_names[s] + ".ms_per_item", fig.ms_per_item[s],
                           "ms"});
    if (stage_names[s] == "cffts" || stage_names[s] == "rffts") fft_busy_ns += fig.busy_ns[s];
  }
  if (c.fft_flops_per_item > 0) {
    out.metrics.push_back({"apps.fft.gflops",
                           c.fft_flops_per_item * (traced.sets - kWarmSets) / fft_busy_ns,
                           "GFLOP/s"});
  }
  out.metrics.push_back({"trace.span_coverage", fig.coverage, "ratio"});

  // One-thread baseline: the sequential reference on the same data ids.
  const int ref_items = 16;
  const std::int64_t r0 = now_ns();
  for (int i = 0; i < ref_items; ++i) (void)c.reference(id_base + i);
  const double seq_ms = ns_to_ms(now_ns() - r0) / ref_items;
  out.metrics.push_back({"apps.seq_ref_ms_per_item", seq_ms, "ms"});
  out.metrics.push_back(
      {"apps.parallel_efficiency", seq_ms * plain_rate / 1e3 / workers, "ratio"});
  out.metrics.push_back(
      {"trace.overhead_ratio", plain_rate / traced.stats().items_per_s, "ratio"});

  const std::string stem = output_stem(opt);
  log.write(stem + ".spans.json");
  if (traced.result.trace) {
    fxpar::trace::write_chrome_trace(*traced.result.trace, stem + ".fxtrace.json");
  }
  if (std::FILE* f = std::fopen((stem + ".metrics.json").c_str(), "w")) {
    std::fputs(plain.registry.to_json().c_str(), f);
    std::fclose(f);
  }
  out.notes.push_back("spans, program trace and summed metrics written to " + stem + ".*");
  return out;
}

}  // namespace

Outcome run_ffthist_pipe_threads(const Options& opt) {
  auto sink = std::make_shared<std::vector<std::vector<std::int64_t>>>();
  ap::FftHistConfig cfg;
  cfg.n = 256;
  cfg.bins = 64;

  StreamCase<ap::Complex> c;
  c.name = "ffthist_pipe_threads";
  // Two processors, only the FFT module's busy most of the time, rather
  // than all four: on a shared VM the host takes CPU time from a guest that
  // keeps every vCPU busy, and a workload's figures follow that loss in
  // proportion to the vCPUs it keeps busy (see README.md).
  c.mcfg = MachineConfig::paragon(2);
  c.mcfg.backend = fxpar::exec::BackendKind::Threads;
  c.mcfg.pinning = fxpar::exec::PinPolicy::None;
  c.modules = {{0, 1, 1, 1}, {2, 2, 1, 1}};
  c.segment_sets = 100;
  c.pinned_cpus = 2;
  c.make_stages = [cfg, sink](int capacity) {
    ap::FftHistConfig sized = cfg;
    sized.num_sets = capacity;
    return ap::ffthist_stages(sized, sink.get());
  };
  c.tap = ffthist_tap(sink);
  c.reference = [cfg](int id) { return ap::ffthist_reference(cfg, id); };
  c.fft_flops_per_item = 2.0 * static_cast<double>(cfg.n) * ap::fft_flops(cfg.n);
  // cffts -> rffts transpose and rffts -> hist handoff, n*n complex each.
  c.computed_bytes_per_item = 2.0 * static_cast<double>(cfg.n * cfg.n) * sizeof(ap::Complex);
  return run_stream_workload(c, opt);
}

Outcome run_stereo_rep_proc(const Options& opt) {
  auto sink = std::make_shared<std::vector<std::int64_t>>();
  ap::StereoConfig cfg;
  cfg.height = 240;
  cfg.width = 256;
  cfg.disparities = 8;

  StreamCase<float> c;
  c.name = "stereo_rep_proc";
  // Four ranks: with two or three, the proc backend's deadlock detector
  // fired on CPU starvation (see README.md).
  c.mcfg = MachineConfig::paragon(4);
  c.mcfg.backend = fxpar::exec::BackendKind::Proc;
  c.mcfg.transport = fxpar::exec::TransportKind::Shm;
  c.modules = {{0, 3, 2, 2}};
  c.segment_sets = 100;
  c.make_stages = [cfg, sink](int capacity) {
    ap::StereoConfig sized = cfg;
    sized.num_sets = capacity;
    return ap::stereo_stages(sized, sink.get());
  };
  c.tap = [sink](fxpar::machine::Context& ctx, ap::DistArray<float>& in, int k, std::int64_t item,
                 std::vector<std::int64_t>& rows) {
    if (in.group().virtual_of(ctx.phys_rank()) != 0) return;
    rows.push_back(item);
    rows.push_back(1);
    auto& depth = (*sink)[static_cast<std::size_t>(k)];
    rows.push_back(depth);
    depth = -1;  // stereo_stages' initial value: a later set is checked on its own write
  };
  c.reference = [cfg](int id) { return std::vector<std::int64_t>{ap::stereo_reference(cfg, id)}; };
  // acquire -> ssd (3 images), ssd -> err and err -> depth (D planes each).
  const double plane = static_cast<double>(cfg.height * cfg.width) * sizeof(float);
  c.computed_bytes_per_item = (3.0 + 2.0 * static_cast<double>(cfg.disparities)) * plane;
  return run_stream_workload(c, opt);
}

}  // namespace perfbench
