// perfbench: shared measurement harness of the fxpar host-time benchmark.
//
// Everything here measures the library from outside: host clocks around
// calls into public functions, the machines' metrics registries,
// getrusage counters, and an in-memory span log written out when a traced
// run ends. Nothing in src/ is modified or reached into.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "metrics/metrics.hpp"

namespace perfbench {

/// Host clock shared by every rank: steady_clock is CLOCK_MONOTONIC, which
/// is machine-global, so stamps taken in forked ranks compare directly.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// 64-bit mix of the workload seed with a salt (splitmix64 finalizer), so
/// every derived input (data ids, sort keys, load schedule) follows the seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;     ///< end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> notes;  ///< human-readable lines printed before the result
};

// ---- statistics ----

double median(std::vector<double> v);
/// Interquartile mean: the mean of the middle half of the sorted values.
/// Like the median it ignores bursts in up to a quarter of the samples on
/// either side, but it moves smoothly when the samples fall in two clusters
/// (segments run on a fast and on a slow vCPU), where the median jumps.
double iq_mean(std::vector<double> v);
/// Quantile by linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> v, double q);

/// Throughput and latency of one segment's timed items.
struct ItemStats {
  double items_per_s = 0.0;  ///< items / (last completion - start)
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double tail_level = 0.95;  ///< percentile used for p95 (lower only below 200 items)
  std::size_t items = 0;
  std::vector<double> latency_ms;  ///< every timed item's latency
};
/// `entry[i]`/`done[i]`: host ns of item i entering and completing; `start`
/// opens the throughput window.
ItemStats item_stats(const std::vector<std::int64_t>& entry, const std::vector<std::int64_t>& done,
                     std::int64_t start);
/// Each figure's interquartile mean over segments. A workload runs as a
/// series of segments, each a fixed amount of work, so a burst of
/// interference from outside the benchmark moves one segment, not the
/// result. Where segments are too short for a p95 of their own (fewer than
/// 200 items), the tail is taken over every segment's items pooled.
ItemStats segment_stats(const std::vector<ItemStats>& segments);

// ---- process counters ----

struct Rusage {
  long minor_faults = 0;  ///< self + reaped children
  long max_rss_kb = 0;    ///< self
  long child_max_rss_kb = 0;
};
Rusage rusage_now();

// ---- metrics registry ----

/// Adds the counters and histogram sums/counts of `s` into `total`. Every
/// workload builds a fresh Machine per segment or sort, so a run's registry
/// figures are the sum of those Machines' snapshots.
void accumulate(fxpar::metrics::Snapshot& total, const fxpar::metrics::Snapshot& s);

// ---- segments ----

/// What one segment recorded.
struct Segment {
  ItemStats stats;
  double setup_s = 0.0;        ///< segment start to its first timed item
  double construct_ms = 0.0;   ///< Machine construction
  double first_item_ms = 0.0;  ///< Machine constructed to first completion (qsort: warm-up sort)
  fxpar::metrics::Snapshot registry;
  double wait_ms = 0.0, host_ms = 0.0;  ///< RunResult::wait_ms and host_ms
  long minor_faults = 0;
  long items = 0;  ///< every item the segment ran, warm-up included
};

/// What the segments of one run add up to.
struct Segments {
  std::vector<ItemStats> stats;
  std::vector<double> setup_s, construct_ms, first_item_ms;
  fxpar::metrics::Snapshot registry;  ///< summed over the segments' Machines
  double wait_ms = 0.0, host_ms = 0.0;
  long minor_faults = 0;
  long items = 0;

  /// Sets the end-to-end metrics of `out` (iq_mean over segments, and the
  /// peak resident set of the process and its largest reaped child so far)
  /// and adds `#` lines: the segments with `detail`, and latency_p95_ms.
  void report(Outcome& out, const std::string& workload, const std::string& detail) const;
  /// The machine.* metrics, and exec.blocked_frac over `workers` workers
  /// where the segments report RunResult host time.
  void add_machine_layers(Outcome& out, int workers) const;
};

/// Runs `segment(i)` for i = 0, 1, ... until `seconds` have passed and the
/// segments hold at least `min_items` timed items, at least once.
Segments run_segments(double seconds, const std::function<Segment(int)>& segment,
                      std::size_t min_items = 0);

/// Per-layer metrics read from summed registry `totals` over `items` items:
/// comm, dist, exec, core and the machine's pool counters.
/// `computed_bytes_per_item` is the payload of the assign() handoffs one
/// item makes (see README.md). The registry's latency histograms hold host
/// seconds on the threads and proc backends but modeled seconds on the
/// simulator; with `host_clock` false the time-based metrics are left out
/// rather than mislabelled.
void add_registry_layers(Outcome& out, const fxpar::metrics::Snapshot& totals, double items,
                         double computed_bytes_per_item, bool host_clock = true);

// ---- span log ----

/// One benchmark-side span: recorded around a call into a layer, in memory.
struct Span {
  std::string name;
  int item = -1;   ///< item id shared by the spans of one item (-1: run level)
  int rank = -1;   ///< physical rank that ran it (-1: the driver thread)
  int parent = -1; ///< index of the causing span in the log (-1: root)
  std::int64_t t0 = 0, t1 = 0;
};

class SpanLog {
 public:
  int add(Span s);
  /// Self time per span name: duration minus the union of its children's
  /// intervals, summed over spans of that name (milliseconds).
  std::map<std::string, double> self_ms() const;
  /// Writes the spans as Chrome trace JSON plus a self-time summary.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Length of the union of [t0, t1) intervals clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv, std::int64_t lo,
                        std::int64_t hi);

/// Runs fn(i) for every i in [0, n) on `threads` host threads (verification
/// and references, outside every timed window).
void host_parallel_for(std::size_t n, int threads, const std::function<void(std::size_t)>& fn);

/// Pins the calling thread, and the threads and processes it starts, to
/// `count` consecutive CPUs of its allowed set, from the index-th on (both
/// modulo the number of allowed CPUs), while in scope. A count of 0 pins
/// nothing.
class PinToCpus {
 public:
  PinToCpus(int index, int count);
  ~PinToCpus();
  PinToCpus(const PinToCpus&) = delete;
  PinToCpus& operator=(const PinToCpus&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Path prefix for a traced run's output files,
/// `.bench_build/out/<workload>.seed<N>`, creating the directory if needed.
std::string output_stem(const Options& opt);

// ---- workloads ----

Outcome run_ffthist_pipe_threads(const Options& opt);
Outcome run_stereo_rep_proc(const Options& opt);
Outcome run_qsort_nested_threads(const Options& opt);
Outcome run_serve_fig5_sim(const Options& opt);

}  // namespace perfbench
