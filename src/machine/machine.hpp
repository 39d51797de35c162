// fxpar machine: the SPMD multicomputer.
//
// Machine owns one execution backend (exec/backend.hpp) — the
// deterministic discrete-event simulator or the shared-memory threaded
// engine, selected by MachineConfig::backend — plus everything that is
// backend-independent: the trace recorder, the redistribution plan-cache
// slot, the payload buffer pool and the per-run statistics. It launches an
// SPMD program body on every logical processor. User code never touches
// Machine directly while running; it receives a Context (see context.hpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/backend.hpp"
#include "machine/config.hpp"
#include "metrics/runtime_metrics.hpp"
#include "obs/endpoint.hpp"
#include "obs/flight_recorder.hpp"
#include "pgroup/group.hpp"
#include "runtime/simulator.hpp"
#include "trace/trace.hpp"

namespace fxpar::machine {

class Context;

/// Raw bytes exchanged by the direct-deposit layer.
using Payload = exec::Payload;

/// Base class for caches that higher layers attach to the machine (the dist
/// layer's redistribution plan cache, see dist/plan_cache.hpp). The machine
/// owns the storage so cached schedules are shared by all processors and
/// survive across run() calls; the attaching layer owns the concrete type.
class MachineCacheBase {
 public:
  virtual ~MachineCacheBase() = default;
};

/// Aggregate results of one run. The time fields are backend-defined:
/// modeled machine seconds on the simulator, real host seconds on the
/// threaded backend (docs/execution.md).
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

  /// Which engine executed the run: "sim" or "threads".
  std::string backend = "sim";

  /// Real wall-clock milliseconds spent inside Machine::run (both
  /// backends): simulation overhead on `sim`, actual parallel execution
  /// on `threads`.
  double host_ms = 0.0;

  /// Total real milliseconds processors spent blocked (threaded backend
  /// only; 0 on the simulator, whose idle time is modeled, not real).
  double wait_ms = 0.0;

  /// Redistribution and halo plan cache counters (see dist/plan_cache.hpp):
  /// a miss builds and stores a schedule, a hit replays a stored one. Both
  /// zero when MachineConfig::plan_cache is off (every call then builds a
  /// schedule it does not keep) or no redistribution ran.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;

  /// Collective plan cache counters (see comm/collective_plan.hpp): stored
  /// broadcast/reduce trees and rooted gather/scatter schedules. Both zero
  /// when MachineConfig::plan_cache is off (schedules are then built per
  /// call and not kept) or no collective ran.
  std::uint64_t collective_plan_hits = 0;
  std::uint64_t collective_plan_misses = 0;

  /// Payload-pool releases that could not stay in the releasing worker's
  /// shard and spilled to the shared list (see Machine::pool_release).
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

  // ---- internal services used by Context (public for the comm layer) ----

  /// Deposits a message from physical `src` (which must be the calling
  /// processor) into the mailbox of physical `dst`.
  void deposit(int src, int dst, std::uint64_t tag, Payload data);

  /// Receives the next message from (`src`, `tag`); blocks until available.
  /// `dst` must be the calling processor.
  Payload receive(int dst, int src, std::uint64_t tag);

  /// Subset barrier over `group`; the calling processor must be a member.
  /// Matched across members by content (group key) and per-group epoch.
  void barrier(const pgroup::ProcessorGroup& group);

  /// Sequential I/O device: performs an operation of `bytes` bytes for the
  /// current processor; operations from all processors serialize.
  void io_operation(std::size_t bytes);

  /// The execution engine behind this machine.
  exec::Backend& backend() noexcept { return *backend_; }
  const exec::Backend& backend() const noexcept { return *backend_; }

  /// The underlying event simulator. Throws std::logic_error on the
  /// threaded backend — code that needs modeled time must run on `sim`.
  runtime::Simulator& sim();

  /// The event recorder, or nullptr when MachineConfig::trace is off.
  trace::TraceRecorder* tracer() noexcept { return tracer_.get(); }

  /// The always-on metric set, or nullptr when MachineConfig::metrics is
  /// off. Instrumentation sites hold this pointer and test for null.
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
  /// calls (MachineConfig::plan_cache). When false, the schedule caches
  /// build a schedule per call without storing or counting it, and the
  /// payload pools drop every released buffer.
  bool keeps_plans() const noexcept { return config_.plan_cache; }

  // ---- redistribution plan cache slot (see dist/plan_cache.hpp) ----

  /// The attached plan cache, or nullptr before first use.
  MachineCacheBase* plan_cache_slot() noexcept { return plan_cache_.get(); }
  void set_plan_cache_slot(std::unique_ptr<MachineCacheBase> cache) {
    plan_cache_ = std::move(cache);
  }
  /// Serializes plan-cache attachment and lookup across worker threads
  /// (the simulator's fibers never contend on it).
  std::mutex& cache_mutex() noexcept { return cache_mu_; }
  /// Bumps the hit/miss counters reported through RunResult, the metrics
  /// registry, and the calling processor's open trace spans. Atomic: on
  /// the threaded backend every worker counts concurrently.
  void count_plan_cache(bool hit) noexcept;

  // ---- collective plan cache slot (see comm/collective_plan.hpp) ----
  //
  // A second, independent slot: the comm layer cannot see the dist layer's
  // PlanCache type (comm links below dist), and keeping the counters apart
  // lets A/B gates assert on redistribution and collective caching
  // separately. Attachment is serialized by the same cache_mutex().

  /// The attached collective-schedule cache, or nullptr before first use.
  MachineCacheBase* collective_cache_slot() noexcept { return collective_cache_.get(); }
  void set_collective_cache_slot(std::unique_ptr<MachineCacheBase> cache) {
    collective_cache_ = std::move(cache);
  }
  /// Collective-plan counterpart of count_plan_cache().
  void count_collective_plan(bool hit) noexcept;

  // ---- payload buffer pool ----
  //
  // Repeated handoffs move payload buffers sender -> mailbox -> receiver;
  // returning them here after unpacking lets the next pack reuse the
  // allocation instead of growing a fresh vector per message. The pool is
  // sharded per logical processor: the owning worker pushes and pops its
  // shard without any lock (the backend guarantees one worker per rank),
  // and only shard overflow — or an empty shard on acquire — touches the
  // shared spill list under pool_mu_. Buffers migrate sender -> receiver,
  // so the spill list is what lets allocations circulate back to the
  // senders in rooted patterns (gathers, reductions). The pool is
  // host-side only and never changes modeled time. With
  // MachineConfig::plan_cache off it keeps nothing: releases drop the
  // buffer, so every acquire allocates afresh.

  /// A buffer of exactly `bytes` bytes, reusing a pooled allocation if
  /// any. The *contents are unspecified* — every caller overwrites the
  /// buffer in full before the bytes become visible to anyone.
  Payload pool_acquire(std::size_t bytes);

  /// Returns a spent buffer to the releasing worker's shard (spilling to
  /// the shared list when the shard is full; dropped once both are full,
  /// or always when keeps_plans() is false).
  void pool_release(Payload&& p);

  /// Releases that overflowed a worker shard onto the shared spill list
  /// (cumulative; also exported as fxpar_machine_pool_spills_total).
  std::uint64_t pool_spill_count() const noexcept {
    return stat_pool_spills_.load(std::memory_order_relaxed);
  }

  // ---- typed double-vector scratch pool ----
  //
  // The collective executors also churn std::vector<double> results
  // (the dominant element type of the numeric apps): every unpack, gather
  // concatenation and allreduce intermediate is a fresh vector that dies
  // one call later. These mirror pool_acquire/pool_release for that one
  // type, with the same shard-then-spill discipline, so a steady-state
  // collective stream is allocation-quiet (bench_micro --collective-compare
  // watches minor faults across iterations).

  /// A vector of exactly `n` doubles, reusing a pooled allocation if any.
  /// Contents are unspecified; every caller overwrites them in full.
  std::vector<double> double_acquire(std::size_t n);

  /// Returns a spent double vector to the calling worker's shard (dropped
  /// when keeps_plans() is false).
  void double_release(std::vector<double>&& v);

 private:
  /// One worker's private stash of spent payload buffers. Cache-line
  /// aligned so neighbouring ranks' pushes never false-share.
  struct alignas(64) PoolShard {
    std::vector<Payload> bufs;
    std::vector<std::vector<double>> dbufs;
  };

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

  /// Run lifecycle for /healthz and for gating live sim introspection:
  /// 0 idle (never ran), 1 running, 2 done, 3 failed.
  std::atomic<int> run_state_{0};
  mutable std::mutex diag_mu_;
  std::string last_diagnostic_;  ///< guarded by diag_mu_

  mutable std::mutex healthz_extra_mu_;
  std::function<std::string()> healthz_extra_;  ///< guarded by healthz_extra_mu_

  // Stall watchdog (threaded backend only): one monitor thread per run.
  std::thread watchdog_;
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;  ///< guarded by watchdog_mu_

  std::atomic<std::uint64_t> stat_plan_hits_{0};
  std::atomic<std::uint64_t> stat_plan_misses_{0};
  std::atomic<std::uint64_t> stat_coll_hits_{0};
  std::atomic<std::uint64_t> stat_coll_misses_{0};
  std::atomic<std::uint64_t> stat_pool_spills_{0};

  std::mutex cache_mu_;
  std::unique_ptr<MachineCacheBase> plan_cache_;
  std::unique_ptr<MachineCacheBase> collective_cache_;

  std::vector<PoolShard> pool_shards_;  ///< one per rank; owner access only
  std::mutex pool_mu_;
  std::vector<Payload> payload_pool_;  ///< shared spill list (pool_mu_)
  std::vector<std::vector<double>> double_pool_;  ///< shared spill list (pool_mu_)
  static constexpr std::size_t kMaxShardPayloads = 16;
  static constexpr std::size_t kMaxPooledPayloads = 64;

  /// Declared last: its handlers capture `this` and read every member
  /// above, so the server thread must be the first thing destroyed.
  std::unique_ptr<obs::Endpoint> endpoint_;
};

}  // namespace fxpar::machine
