// fxobs: the one instrumentation event stream.
//
// Every runtime service site — a deposit, a receive, a subset barrier, an
// io operation, a stolen loop chunk, a plan-store lookup — emits exactly
// one fixed-size Event from the code that knows its timing and its
// happens-before cause: the execution backend for the first five,
// Machine::plan_entry for the last. The Machine's one Sink is the only code
// that knows the four consumers: the always-on per-rank words behind
// RunResult, and the metrics registry, the flight ring and the trace
// recorder, each a null-tested pointer (off when null). An event costs a
// direct call — no std::function, no virtual call.
//
// Directive-level scopes (loops, redistribution, halo exchange, task
// regions, collectives, plain named spans) go through one Scope, which
// counts and times the operation in the registry and opens its span in the
// flight ring and the trace, building the span name only when one of those
// is on.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/metrics.hpp"

namespace fxpar::trace {
class TraceRecorder;
}

namespace fxpar::metrics {
struct RuntimeMetrics;
}

namespace fxpar::obs {

class FlightRecorder;

/// The service an Event reports.
enum class EventKind : std::uint8_t {
  Send,        ///< a deposit left `rank` for `peer`
  Recv,        ///< `rank` consumed a message from `peer`
  Barrier,     ///< `rank` left a subset barrier
  Io,          ///< `rank` finished an operation on the sequential I/O device
  Steal,       ///< `rank` completed a loop chunk owned by `peer`
  PlanLookup,  ///< `rank` looked a schedule up in the plan store
};

/// One service event. Field use per kind:
///
///   kind        peer          bytes       key          ref
///   Send        destination   payload     tag          —
///   Recv        source        payload     tag          message id
///   Barrier     last arriver  —           group key    episode (0: one member)
///   Io          cause owner   transfer    —            —
///   Steal       victim        iterations  —            —
///   PlanLookup  —             —           1 collective 1 hit, 0 miss
///
/// [t0, t1] is the service interval on `rank`'s clock (modeled seconds on
/// the simulator, real seconds on threads and proc). For Recv, Barrier and
/// Io, `ready` is when the wait ended (t0 <= ready <= t1): the processor
/// was blocked over [t0, ready], and it could not have been released
/// before `peer` reached `cause_t` (the sender finished depositing, the
/// last member arrived, the previous device operation drained).
struct Event {
  EventKind kind = EventKind::Send;
  std::int32_t rank = -1;
  std::int32_t peer = -1;
  double t0 = 0.0;
  double t1 = 0.0;
  double ready = 0.0;
  double cause_t = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t key = 0;
  std::uint64_t ref = 0;
};

/// The always-on words of one rank, indexes into RankWords.
enum Word : std::size_t {
  // Per run: zeroed by Sink::begin_run().
  kMessages,
  kBytes,
  kBarriers,
  kSteals,
  kStolenIters,
  // Cumulative over the Machine's life.
  kPlanHits,
  kPlanMisses,
  kCollectivePlanHits,
  kCollectivePlanMisses,
  kPoolSpills,
  kWords,
};
inline constexpr std::size_t kPerRunWords = kPlanHits;

/// One rank's words. Single writer: the rank's own worker (or the driver
/// thread between runs, which counts as rank 0), so updates are a relaxed
/// load and store, never a read-modify-write. The backend owns the memory;
/// the rank runtime keeps it in its MAP_SHARED control block, so forked
/// ranks count where the launching process reads.
struct alignas(64) RankWords {
  std::atomic<std::uint64_t> w[kWords] = {};
};

/// The words summed over every rank, plus the traffic matrix.
struct Totals {
  std::uint64_t w[kWords] = {};
  std::vector<std::uint64_t> traffic;  ///< src * P + dst; empty unless recorded
};

/// What a Scope counts and times in the registry besides its span.
enum class Op : std::uint8_t {
  Span,        ///< nothing: a plain named span
  Loop,        ///< fxpar_core_parallel_loops_total, fxpar_core_parallel_loop_seconds
  Redist,      ///< fxpar_dist_redistributions_total, fxpar_dist_redistribute_seconds
  Halo,        ///< fxpar_dist_halo_exchanges_total, fxpar_dist_halo_seconds
  TaskRegion,  ///< fxpar_core_task_regions_total
  Collective,  ///< fxpar_comm_collectives_total
};

class Scope;

class Sink {
 public:
  /// `clock(rank)` is the backend clock; only scopes read it.
  using Clock = std::function<double(int)>;

  /// `words` holds `procs` entries; `traffic` is null or a procs x procs
  /// matrix. Both are owned by the backend and outlive the sink; the
  /// consumers may each be null (off).
  Sink(int procs, RankWords* words, std::atomic<std::uint64_t>* traffic, Clock clock,
       trace::TraceRecorder* tracer, metrics::RuntimeMetrics* metrics, FlightRecorder* flight);

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Delivers `e` to every consumer that is on. Call from `e.rank`'s
  /// worker. Returns the trace's message id for a Send (0 when tracing is
  /// off, or for any other kind); the backend carries it to the receiver,
  /// whose Recv names it in `ref`.
  std::uint64_t emit(const Event& e);

  /// The trace recorder, or null when off: backends gather cause data only
  /// the trace reads only when it is on, and the simulator charges busy
  /// time to it where the clock advances.
  trace::TraceRecorder* tracer() const noexcept { return tracer_; }

  /// A free-form mark on `rank`'s flight ring at time `t`.
  void mark(int rank, double t, const char* name, std::uint64_t a, std::uint64_t b);

  /// A pool release on `rank` spilled past its shard.
  void pool_spill(int rank);

  /// Modeled compute charged on the simulator.
  void modeled_busy(double seconds);

  /// Where rank `rank`'s worker was pinned, and how many workers were.
  void placement(int rank, int cpu, int node);
  void pinned_workers(int n);

  /// Zeroes the per-run words and the traffic matrix.
  void begin_run();

  /// The words summed over every rank.
  Totals totals() const;

  // A forked child records into its copy-on-write registry, flight ring
  // and trace shard. When it finishes, residue() encodes what it added
  // since fork_mark() as one blob, which rank 0 applies with
  // absorb_residue().

  struct ForkMark {
    metrics::Snapshot metrics;
    std::uint64_t flight = 0;
  };
  ForkMark fork_mark(int rank) const;
  std::vector<std::byte> residue(int rank, const ForkMark& mark) const;
  /// Splits the blob into its sections before applying any of them: a
  /// truncated blob throws std::runtime_error and leaves every consumer
  /// unchanged.
  void absorb_residue(const std::byte* data, std::size_t len);

 private:
  friend class Scope;

  bool spans_on() const noexcept { return tracer_ != nullptr || flight_ != nullptr; }
  void open_span(int rank, std::string name, const char* category);
  void close_span(int rank);

  int procs_;
  RankWords* words_;
  std::atomic<std::uint64_t>* traffic_;
  Clock clock_;
  trace::TraceRecorder* tracer_;
  metrics::RuntimeMetrics* metrics_;
  FlightRecorder* flight_;
};

/// One directive-level scope on one rank: counts `op` and times it (when
/// it has a histogram) in the registry, and opens the span named `name`
/// followed by `suffix` in the flight ring and the trace. The name is
/// built only when one of those is on; an empty `name` opens no span.
/// Default-constructed, or once closed, it is inert.
class Scope {
 public:
  Scope() = default;
  Scope(Sink& sink, int rank, Op op, const char* category, std::string_view name,
        std::string_view suffix = {});
  Scope(Scope&& o) noexcept { *this = std::move(o); }
  Scope& operator=(Scope&& o) noexcept;
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { close(); }

  /// Ends the scope now (idempotent; destruction does the same).
  void close();

 private:
  Sink* sink_ = nullptr;
  metrics::Histogram* hist_ = nullptr;  ///< timed when non-null
  double t0_ = 0.0;
  int rank_ = -1;
  bool span_ = false;
};

}  // namespace fxpar::obs
