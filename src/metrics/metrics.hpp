// fxpar metrics: always-on, low-overhead runtime metrics.
//
// The trace subsystem (src/trace/) is a post-mortem microscope: opt-in,
// per-event, heavyweight. This registry is the opposite — a handful of
// counters, gauges and log-bucketed latency histograms that are cheap
// enough to leave enabled in a long-running serving process and expose
// live (Prometheus text exposition or JSON).
//
// Concurrency model: every metric is *sharded* by worker index, the same
// way the exec rank runtime keeps its per-rank accounting. A shard is
// a cache-line-aligned block of relaxed atomics; the hot-path update is a
// single relaxed fetch_add on the caller's own shard, so concurrent
// workers never contend on a line. snapshot() merges the shards. Gauges
// are single-writer (rank 0 / the driver); histograms bucket values by
// log2 so 64 buckets cover the full double range and quantiles come out
// of the cumulative bucket counts.
//
// Metric objects live in a Registry (deque storage: stable addresses,
// metrics are registered once and never removed). Instrumentation sites
// hold plain pointers and test for null — a disabled runtime simply never
// builds the registry, so the disabled-mode cost is one pointer compare.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fxpar::metrics {

/// Number of log2 buckets in a histogram. Bucket i counts values with
/// ilogb(v) == i + kMinExp (clamped), i.e. [2^(i+kMinExp), 2^(i+kMinExp+1)).
inline constexpr int kHistBuckets = 64;
/// Smallest represented exponent: 2^-40 ~ 1e-12 s. Anything smaller (or
/// zero/negative) lands in bucket 0.
inline constexpr int kMinExp = -40;

namespace detail {

/// One cache line of relaxed counter state, so shards never false-share.
struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> v{0};
};

struct alignas(64) HistShard {
  std::atomic<std::uint64_t> buckets[kHistBuckets];
  std::atomic<std::uint64_t> count{0};
  HistShard() {
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
  }
};

/// Log2 bucket index for a sample value (clamped into [0, kHistBuckets)).
inline int bucket_of(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) return 0;  // also catches NaN
  const int e = std::ilogb(v) - kMinExp;
  if (e < 0) return 0;
  if (e >= kHistBuckets) return kHistBuckets - 1;
  return e;
}

/// Upper bound of bucket i, for exposition and quantile interpolation.
inline double bucket_upper(int i) { return std::ldexp(1.0, i + kMinExp + 1); }

}  // namespace detail

/// Monotonic counter, sharded per worker. add() is a relaxed fetch_add on
/// the caller's shard — lock-free and contention-free as long as each
/// worker uses its own shard index.
class Counter {
 public:
  explicit Counter(int shards) : shards_(static_cast<std::size_t>(shards)) {}

  void add(int shard, std::uint64_t n = 1) noexcept {
    shards_[idx(shard)].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::size_t idx(int shard) const noexcept {
    const std::size_t i = static_cast<std::size_t>(shard);
    return i < shards_.size() ? i : 0;
  }
  // Sized construction only: atomics are immovable, the vector never grows.
  std::vector<detail::CounterShard> shards_;
};

/// Point-in-time value, single writer (the driver / rank 0). Readers use
/// relaxed loads; torn reads are impossible for a lock-free double.
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    v_.store(v_.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log2-bucketed histogram of latencies (seconds), sharded per worker.
/// observe() is two relaxed fetch_adds plus one relaxed double
/// accumulation on the caller's shard.
class Histogram {
 public:
  explicit Histogram(int shards)
      : shards_(static_cast<std::size_t>(shards)),
        sums_(static_cast<std::size_t>(shards)) {}

  void observe(int shard, double v) noexcept {
    const std::size_t i = idx(shard);
    detail::HistShard& s = shards_[i];
    s.buckets[detail::bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    // Per-shard sum is written only by its owning worker; relaxed
    // load/add/store is race-free under that single-writer discipline.
    std::atomic<double>& sum = sums_[i].v;
    sum.store(sum.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    std::uint64_t c = 0;
    for (const auto& s : shards_) c += s.count.load(std::memory_order_relaxed);
    return c;
  }

  double sum() const noexcept {
    double t = 0.0;
    for (const auto& s : sums_) t += s.v.load(std::memory_order_relaxed);
    return t;
  }

  /// Folds externally-accumulated samples into shard 0: per-bucket count
  /// deltas, a total-count delta and a sum delta. absorb_delta() uses this
  /// to fold a forked rank's histogram activity (its end-of-run snapshot
  /// minus its fork-time snapshot) into the parent's registry.
  /// Call from a single thread (the driver) once the workers are done.
  void absorb(const std::vector<std::uint64_t>& bucket_deltas, std::uint64_t count_delta,
              double sum_delta) noexcept {
    detail::HistShard& s = shards_[0];
    const std::size_t n = bucket_deltas.size() < static_cast<std::size_t>(kHistBuckets)
                              ? bucket_deltas.size()
                              : static_cast<std::size_t>(kHistBuckets);
    for (std::size_t i = 0; i < n; ++i) {
      if (bucket_deltas[i] != 0) {
        s.buckets[i].fetch_add(bucket_deltas[i], std::memory_order_relaxed);
      }
    }
    if (count_delta != 0) s.count.fetch_add(count_delta, std::memory_order_relaxed);
    if (sum_delta != 0.0) {
      std::atomic<double>& sum = sums_[0].v;
      sum.store(sum.load(std::memory_order_relaxed) + sum_delta, std::memory_order_relaxed);
    }
  }

  /// Merged bucket counts (index = log2 bucket).
  std::vector<std::uint64_t> merged_buckets() const;

  /// Quantile estimate from the merged buckets (q in [0,1]); the value is
  /// the upper bound of the bucket holding the q-th sample. 0 when empty.
  double quantile(double q) const;

 private:
  struct alignas(64) SumShard {
    std::atomic<double> v{0.0};
  };
  std::size_t idx(int shard) const noexcept {
    const std::size_t i = static_cast<std::size_t>(shard);
    return i < shards_.size() ? i : 0;
  }
  std::vector<detail::HistShard> shards_;
  std::vector<SumShard> sums_;
};

/// A merged, immutable view of every metric at one instant.
struct Snapshot {
  struct Hist {
    std::vector<std::uint64_t> buckets;  ///< merged log2 buckets
    std::uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  };
  double t = 0.0;  ///< seconds since registry creation
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Hist> histograms;

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
  }

  /// Prometheus text exposition format (one family per metric; histogram
  /// families get cumulative _bucket/_sum/_count plus quantile lines).
  std::string to_prometheus() const;
  /// One JSON object ({"t":..,"counters":{..},"gauges":{..},
  /// "histograms":{..}}); all numbers finite or null.
  std::string to_json() const;
};

/// Owns every metric of one runtime instance. Registration takes a mutex
/// (cold path, once per metric name); updates through the returned
/// pointers are lock-free. Metric names use the conventional
/// `fxpar_<layer>_<what>[_unit]` form.
class Registry {
 public:
  /// `shards` is the maximum number of concurrent writers (logical
  /// processors); shard indices outside [0, shards) alias shard 0.
  explicit Registry(int shards);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  int shards() const noexcept { return shards_; }

  /// Merges every shard of every metric. Safe concurrently with updates
  /// (relaxed reads: the snapshot is a consistent-enough live view, not a
  /// linearization point).
  Snapshot snapshot() const;

 private:
  const int shards_;
  const std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
  mutable std::mutex mu_;  // guards the maps; deque storage keeps pointers stable
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Histogram> hist_storage_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> hists_;
};

/// Residue codec of a forked rank: serializes `end - base` for every
/// counter and histogram — what the rank observed between fork and finish.
/// Gauges are skipped by design: rank 0 / the caller of Machine::run sets
/// them, they are not per-rank accumulations. Empty when nothing changed.
std::vector<std::byte> serialize_delta(const Snapshot& base, const Snapshot& end);

/// Applies a serialize_delta() blob to `reg` (counters into shard 0,
/// histograms through Histogram::absorb). The whole blob is parsed before
/// any metric is touched; a short or malformed one throws
/// std::runtime_error and leaves `reg` unchanged.
void absorb_delta(Registry& reg, const std::byte* p, std::size_t len);

/// Periodic snapshot collector for long-running drivers. Single-threaded
/// use: the driver calls poll() at convenient points (e.g. once per data
/// set); a snapshot is taken when at least `period_s` elapsed since the
/// previous one. force() always samples.
class Sampler {
 public:
  Sampler(const Registry& reg, double period_s)
      : reg_(reg), period_s_(period_s) {}

  /// Samples if due; returns true when a snapshot was appended.
  bool poll();
  /// Unconditionally appends a snapshot and re-anchors the cadence at now.
  void force();
  /// Shutdown flush: appends a terminal snapshot covering the final partial
  /// interval — activity since the last grid point that poll() alone would
  /// drop (a stream shorter than the period would otherwise end its series
  /// at the initial sample, missing everything it did). Unlike force() it
  /// does NOT move the grid anchor, so a sampler shared across several
  /// stream epochs keeps its cadence when one epoch drains.
  void finish();

  const std::vector<Snapshot>& series() const noexcept { return series_; }
  std::vector<Snapshot> take_series() { return std::move(series_); }

  /// The whole time series as one JSON array.
  static std::string series_json(const std::vector<Snapshot>& series);

 private:
  const Registry& reg_;
  double period_s_;
  bool have_last_ = false;
  std::chrono::steady_clock::time_point last_{};
  std::vector<Snapshot> series_;
};

}  // namespace fxpar::metrics
