// fxpar machine: the SPMD multicomputer.
//
// Machine owns one execution backend (exec/backend.hpp) — the
// deterministic discrete-event simulator, or the rank runtime running one
// OS thread or one forked process per logical processor, selected by
// MachineConfig::backend — plus everything that is backend-independent:
// the observability consumers and the one event sink that feeds them
// (obs/sink.hpp), the plan store of inspector-built schedules, the payload
// buffer pools and the per-run statistics. It launches an SPMD
// program body on every logical processor. User code never touches
// Machine directly while running; it receives a Context (see context.hpp).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "exec/backend.hpp"
#include "machine/config.hpp"
#include "metrics/runtime_metrics.hpp"
#include "obs/endpoint.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/sink.hpp"
#include "pgroup/group.hpp"
#include "runtime/simulator.hpp"
#include "trace/trace.hpp"

namespace fxpar::machine {

class Context;

/// Raw bytes exchanged by the direct-deposit layer.
using Payload = exec::Payload;

/// The kinds of schedule the plan store keeps, one table each. Every
/// schedule type names its kind (`static constexpr PlanKind kKind`), so a
/// lookup can only return the type that was stored under that kind.
enum class PlanKind : std::size_t {
  Redist,  ///< dist::plan::RedistSchedule
  Halo,    ///< dist::plan::HaloSchedule
  Tree,    ///< comm::plan::TreeSchedule
  Rooted,  ///< comm::plan::RootedSchedule
};
inline constexpr std::size_t kPlanKinds = 4;

/// Aggregate results of one run. The time fields are backend-defined:
/// modeled machine seconds on the simulator, real host seconds on threads
/// and proc (docs/execution.md).
struct RunResult {
  runtime::SimTime finish_time = 0.0;  ///< completion time of the slowest processor
  std::vector<runtime::ProcClock> clocks;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t barriers = 0;

  /// Work-stealing counters (threaded backend with
  /// MachineConfig::work_stealing on; always 0 on the simulator): chunks of
  /// data parallel loops executed by an idle sibling of the owner's group,
  /// and the iterations those chunks covered.
  std::uint64_t steals = 0;
  std::uint64_t stolen_iters = 0;

  /// Which engine executed the run: "sim", "threads" or "proc".
  std::string backend = "sim";

  /// Real wall-clock milliseconds spent inside Machine::run (both
  /// backends): simulation overhead on `sim`, actual parallel execution
  /// on `threads`.
  double host_ms = 0.0;

  /// Total real milliseconds processors spent blocked (threads and proc;
  /// 0 on the simulator, whose idle time is modeled, not real).
  double wait_ms = 0.0;

  /// Plan-store counters (see Machine::plan), summed over every rank on
  /// every backend and cumulative over the Machine's life: a miss builds
  /// and stores a schedule, a hit replays a stored one. Redistribution and
  /// halo lookups count here; both zero when MachineConfig::plan_cache is
  /// off (every call then builds a schedule it does not keep).
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;

  /// The same for the tree and rooted collective schedules.
  std::uint64_t collective_plan_hits = 0;
  std::uint64_t collective_plan_misses = 0;

  /// Pool releases that could not stay in the releasing worker's shard
  /// and spilled to the shared list (see Machine::pool_release).
  std::uint64_t pool_spills = 0;

  /// The worker placement policy of the run ("none", "compact", "scatter",
  /// "numa"; see MachineConfig::pinning). Placement only affects host
  /// time, never results.
  std::string pinning = "none";

  /// Per-worker NUMA node ids when the threaded backend pinned its workers
  /// (empty otherwise); index is the logical rank, -1 an unpinned worker.
  std::vector<int> numa_nodes;

  /// Per-pair traffic: traffic[src * P + dst] bytes sent from src to dst.
  /// Populated only when MachineConfig::record_traffic is set.
  std::vector<std::uint64_t> traffic;

  /// The structured event trace of the run; null unless
  /// MachineConfig::trace was set. Shared with the Machine: a later run()
  /// on the same Machine resets and reuses the recorder.
  std::shared_ptr<const trace::TraceRecorder> trace;

  /// Merged metrics snapshot taken right after the run; null when
  /// MachineConfig::metrics is off. Counters are cumulative over the
  /// Machine's lifetime (a second run() keeps counting), matching the
  /// Prometheus counter convention.
  std::shared_ptr<const metrics::Snapshot> metrics;

  /// Machine efficiency: mean busy fraction over processors.
  double efficiency() const;

  /// Bytes sent from src to dst (0 if traffic recording was off).
  std::uint64_t traffic_between(int src, int dst) const;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const noexcept { return config_; }
  int num_procs() const noexcept { return config_.num_procs; }

  /// Runs `program` SPMD on all processors and returns run statistics.
  /// The Context passed to each instance is private to that processor.
  RunResult run(const std::function<void(Context&)>& program);

  // ---- internal services used by Context ----

  /// The execution engine behind this machine.
  exec::Backend& backend() noexcept { return *backend_; }
  const exec::Backend& backend() const noexcept { return *backend_; }

  /// The underlying event simulator. Throws std::logic_error on threads
  /// and proc — code that needs modeled time must run on `sim`.
  runtime::Simulator& sim();

  /// The event sink every service site and scope reports to.
  obs::Sink& sink() noexcept { return *sink_; }

  /// The event recorder, or nullptr when MachineConfig::trace is off.
  trace::TraceRecorder* tracer() noexcept { return tracer_.get(); }

  /// The always-on metric set, or nullptr when MachineConfig::metrics is
  /// off. Application-level counters hold this pointer and test for null;
  /// runtime service sites report through sink().
  metrics::RuntimeMetrics* metrics() noexcept { return metrics_.get(); }
  const metrics::RuntimeMetrics* metrics() const noexcept { return metrics_.get(); }

  /// Convenience: merged snapshot of every metric (empty-ish snapshot when
  /// metrics are disabled, so callers need no null test).
  metrics::Snapshot metrics_snapshot() const {
    return metrics_ ? metrics_->registry.snapshot() : metrics::Snapshot{};
  }

  // ---- live observability plane (src/obs/, docs/observability.md) ----

  /// The flight recorder, or nullptr unless MachineConfig::flight_recorder
  /// (or obs_port >= 0) enabled it.
  obs::FlightRecorder* flight() noexcept { return flight_.get(); }

  /// Port the live endpoint is listening on (resolves obs_port = 0 to the
  /// kernel-chosen port), or -1 when no endpoint is running.
  int obs_port() const noexcept { return endpoint_ ? endpoint_->port() : -1; }

  /// The /healthz body: run state, backend, and per-worker liveness.
  std::string healthz_json() const;

  /// Installs a provider whose JSON fragment is appended to /healthz under
  /// a "serve" key (the serving driver reports offered load, active mapping
  /// and remap counts here). The callback must return a complete JSON value
  /// and be callable from the endpoint thread at any time; pass an empty
  /// function to uninstall.
  void set_healthz_extra(std::function<std::string()> extra) {
    std::lock_guard<std::mutex> lk(healthz_extra_mu_);
    healthz_extra_ = std::move(extra);
  }

  /// The most recent diagnostic bundle, "" if none was ever captured.
  /// Set on DeadlockError, on an aborting exception, when the stall
  /// watchdog fires, and by each /diagnostics request.
  std::string last_diagnostic() const;

  /// Builds a bundle from current state (and stores it as
  /// last_diagnostic()). `reason` is "deadlock" / "abort" / "stall" /
  /// "on-demand"; `error` the exception text if any.
  std::string capture_diagnostic(const std::string& reason,
                                 const std::string& error);

  /// True when host-side schedules and pooled buffers are kept across
  /// calls (MachineConfig::plan_cache). When false, plan() builds a
  /// schedule per call without storing or counting it, and the buffer
  /// pools drop every released buffer.
  bool keeps_plans() const noexcept { return config_.plan_cache; }

  // ---- plan store ----
  //
  // Inspector-built schedules (dist redistribution and halo, comm tree and
  // rooted collectives) live here, shared by every processor of this
  // process and kept across run() calls. The owning layer builds the key
  // words and the schedule; the store keeps one table per PlanKind.

  /// Soft capacity per kind: inserting past it clears that kind's table
  /// wholesale (outstanding shared_ptr holders keep their schedules).
  static constexpr std::size_t kMaxPlans = 128;

  /// The schedule of kind S::kKind stored under `key`, or, on a miss, the
  /// one `build()` returns (a std::shared_ptr<const S>), stored. Counts a
  /// hit or miss in RunResult, the metrics registry and the trace:
  /// redistribution and halo under fxpar_dist_plan_cache_*, tree and
  /// rooted under fxpar_comm_collective_plan_*. With keeps_plans() off it
  /// returns build() without storing or counting it.
  template <class S, class Build>
  std::shared_ptr<const S> plan(std::vector<std::int64_t> key, Build&& build) {
    if (!keeps_plans()) return build();
    return std::static_pointer_cast<const S>(
        plan_entry(S::kKind, std::move(key),
                   [&build]() -> std::shared_ptr<const void> { return build(); }));
  }

  /// Schedules currently stored under `kind`.
  std::size_t plan_entries(PlanKind kind) const;

  // ---- buffer pools ----
  //
  // Repeated handoffs move payload buffers sender -> mailbox -> receiver;
  // returning them here after unpacking lets the next pack reuse the
  // allocation instead of growing a fresh vector per message. The
  // collective executors pool their std::vector<double> results (the
  // dominant element type of the numeric apps) the same way, so a
  // steady-state collective stream is allocation-quiet (bench_micro
  // --collective-compare watches minor faults across iterations).
  //
  // Each element type (std::byte payloads, double scratch) has its own
  // pool, sharded per logical processor: the owning worker pushes and pops
  // its shard without any lock (the backend guarantees one worker per
  // rank), and only shard overflow — or an empty shard on acquire —
  // touches the shared spill list under the pool's mutex. Buffers migrate
  // sender -> receiver, so the spill list is what lets allocations
  // circulate back to the senders in rooted patterns (gathers,
  // reductions). The pools are host-side only and never change modeled
  // time. With MachineConfig::plan_cache off they keep nothing: releases
  // drop the buffer, so every acquire allocates afresh.

  /// A vector of exactly `n` elements of T (std::byte or double), reusing
  /// a pooled allocation if any. The *contents are unspecified* — every
  /// caller overwrites the buffer in full before anyone reads it.
  template <class T = std::byte>
  std::vector<T> pool_acquire(std::size_t n);

  /// Returns a spent buffer to the releasing worker's shard (spilling to
  /// the shared list when the shard is full; dropped once both are full,
  /// or always when keeps_plans() is false).
  template <class T>
  void pool_release(std::vector<T>&& v);

  /// Releases that overflowed a worker shard onto the shared spill list
  /// (cumulative; also exported as fxpar_machine_pool_spills_total).
  std::uint64_t pool_spill_count() const { return sink_->totals().w[obs::kPoolSpills]; }

 private:
  /// The spent buffers of one element type.
  template <class T>
  struct BufferPool {
    /// One worker's private stash. Cache-line aligned so neighbouring
    /// ranks' pushes never false-share.
    struct alignas(64) Shard {
      std::vector<std::vector<T>> bufs;
    };
    std::vector<Shard> shards;  ///< one per rank; owner access only
    std::mutex mu;
    std::vector<std::vector<T>> spill;  ///< shared spill list (mu)
  };

  struct PlanKeyHash {
    std::size_t operator()(const std::vector<std::int64_t>& key) const noexcept;
  };
  using PlanTable =
      std::unordered_map<std::vector<std::int64_t>, std::shared_ptr<const void>, PlanKeyHash>;

  /// The one lookup, store and eviction path behind plan().
  std::shared_ptr<const void> plan_entry(
      PlanKind kind, std::vector<std::int64_t>&& key,
      const std::function<std::shared_ptr<const void>()>& build);

  /// True when any observability feature that wants failure bundles on
  /// stderr is on (endpoint, flight recorder or watchdog).
  bool obs_enabled() const noexcept {
    return config_.obs_port >= 0 || config_.flight_recorder ||
           config_.stall_watchdog_s > 0;
  }
  void start_watchdog();
  void stop_watchdog();
  void watchdog_loop();

  MachineConfig config_;
  std::unique_ptr<exec::Backend> backend_;
  std::shared_ptr<trace::TraceRecorder> tracer_;
  std::unique_ptr<metrics::RuntimeMetrics> metrics_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::Sink> sink_;  ///< feeds the three above and the RunResult words

  /// Run lifecycle for /healthz and for gating live sim introspection:
  /// 0 idle (never ran), 1 running, 2 done, 3 failed.
  std::atomic<int> run_state_{0};
  mutable std::mutex diag_mu_;
  std::string last_diagnostic_;  ///< guarded by diag_mu_

  mutable std::mutex healthz_extra_mu_;
  std::function<std::string()> healthz_extra_;  ///< guarded by healthz_extra_mu_

  // Stall watchdog (threads and proc backends): one monitor thread per run.
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  ///< guarded by watchdog_mu_

  /// Held across lookup *and* build, for every kind: on threads the first
  /// rank to miss builds the schedule while the rest wait and then hit, so
  /// hit/miss totals match the simulator's exactly. Each proc rank is its
  /// own process with its own store, so there misses count once per rank.
  mutable std::mutex plan_mu_;
  std::array<PlanTable, kPlanKinds> plans_;  ///< indexed by PlanKind (plan_mu_)

  std::tuple<BufferPool<std::byte>, BufferPool<double>> pools_;
  static constexpr std::size_t kMaxShardBuffers = 16;
  static constexpr std::size_t kMaxSpilledBuffers = 64;

  /// Declared last: its handlers capture `this` and read every member
  /// above, so the server thread must be the first thing destroyed.
  std::unique_ptr<obs::Endpoint> endpoint_;
};

}  // namespace fxpar::machine
