// fxpar machine: cost-model configuration for the simulated multicomputer.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "exec/backend.hpp"
#include "exec/topology.hpp"

namespace fxpar::machine {

/// Parameters of the simulated distributed-memory machine. All times are in
/// seconds of modeled machine time. The default values — and the paragon()
/// preset — describe a mid-1990s Intel Paragon-class machine: i860 XP nodes
/// with a few MFLOPS sustained on compiled code and a mesh network with
/// tens-of-microseconds message latency, which is the regime the paper's
/// evaluation (Section 5) lives in. The *shape* of every experiment depends
/// only on these compute/communication ratios, not on absolute values.
struct MachineConfig {
  int num_procs = 4;

  // Computation. 3 MFLOPS sustained per node matches the effective rate the
  // paper's own Table 1 implies for compiled Fortran on the i860 (the chip's
  // peak was far higher; real codes hit a few percent of it).
  double flop_time = 1.0 / 3.0e6;   ///< seconds per floating-point op
  double int_op_time = 1.0 / 15e6;  ///< seconds per integer/compare op
  double mem_byte_time = 1.0 / 80e6;///< per byte of local memory traffic charged explicitly

  // Communication (LogGP-like, direct deposit). The per-message overheads
  // are *effective* costs calibrated against Table 1's 64-node data
  // parallel efficiency: they fold Fx's barrier-synchronized deposit phases
  // and the OSF-era messaging software stack into one per-message charge
  // (raw NX hardware latency was lower; effective small-message cost on the
  // evaluated system was not). See EXPERIMENTS.md, "Calibration".
  double send_overhead = 400e-6;  ///< sender software overhead per message
  double recv_overhead = 400e-6;  ///< receiver software overhead per matched message
  double latency = 150e-6;        ///< wire latency per message
  double byte_time = 1.0 / 15e6;  ///< per-byte serialization (~15 MB/s sustained)

  // Barrier: released at max(arrivals) + barrier_base + barrier_stage*ceil(log2 n).
  double barrier_base = 50e-6;
  double barrier_stage = 100e-6;

  // Sequential I/O device (single designated I/O processor; see the paper's
  // "Implication for I/O" and the Airshed experiment).
  double io_latency = 5e-3;        ///< per I/O operation
  double io_byte_time = 1.0 / 8e6; ///< ~8 MB/s sustained

  /// Which execution engine runs the program (see src/exec/backend.hpp and
  /// docs/execution.md): the deterministic discrete-event simulator — the
  /// authority on modeled machine time, where all the cost parameters
  /// above apply — or the shared-memory threaded backend, where each
  /// logical processor is a real OS thread and the run reports real host
  /// time instead. Deterministic programs produce bit-identical array
  /// contents on both.
  exec::BackendKind backend = exec::BackendKind::Sim;

  /// Transport of the process backend (backend == Proc only; the
  /// in-address-space backends ignore it): shared-memory mailbox rings
  /// (the default) or pre-connected loopback TCP sockets behind the same
  /// net::Channel seam. Deterministic programs produce bit-identical
  /// array contents on both (docs/execution.md, "Process backend").
  exec::TransportKind transport = exec::TransportKind::Shm;

  // Host-side simulation knobs.
  std::size_t stack_bytes = 1u << 20;  ///< fiber stack size (host memory; sim only)
  bool record_traffic = false;         ///< keep a per-(src,dst) byte matrix

  /// Record a structured event trace (spans, waits, messages, barriers) of
  /// the run; see src/trace/ and docs/observability.md. Off by default:
  /// when false no recorder exists and every tracing hook is a single null
  /// pointer test. Tracing never changes modeled time.
  bool trace = false;

  /// Always-on runtime metrics (src/metrics/): counters, gauges and
  /// log-bucketed latency histograms, sharded per worker so the threaded
  /// backend's hot paths stay lock-free. Cheap enough to leave enabled in
  /// long-running drivers (the default); when false no registry exists and
  /// every instrumentation site is a single null pointer test. Metrics
  /// never change modeled time — results are bit-identical either way.
  bool metrics = true;

  /// Intra-subgroup work stealing for data parallel loops (threaded backend
  /// only; the simulator always runs the static block schedule). When on,
  /// run_chunks() lets idle members of the *current* processor group steal
  /// iteration chunks from siblings of the same group — never across
  /// TASK_PARTITION siblings — which recovers load-imbalance slack in
  /// irregular loops. Array contents and reduction results are bit-identical
  /// with stealing on or off (docs/execution.md, "Work stealing"); the
  /// switch exists for A/B host-time benchmarking.
  bool work_stealing = true;

  /// Worker-thread placement policy (threaded backend only; the simulator
  /// runs every fiber on one host thread and ignores it). See
  /// exec/topology.hpp for the policies and docs/performance.md ("NUMA &
  /// pinning"). Default none: test runners routinely oversubscribe the
  /// host with many concurrent Machines, where pinning would serialize
  /// unrelated workers onto the same CPUs. Pinning is host placement only
  /// — results are bit-identical under every policy.
  exec::PinPolicy pinning = exec::PinPolicy::None;

  /// Keep host-side schedules and buffers across calls (see
  /// dist/plan_cache.hpp, comm/collective_plan.hpp and docs/performance.md).
  /// Redistribution, halo exchange and the tree/rooted collectives always
  /// run one executor over an inspector-built schedule. When on, each
  /// schedule is built once per (layout pair, perm, offsets) or (group,
  /// root) and replayed on every later call, and payload buffers circulate
  /// through the machine's pool. When off, every call builds its schedule,
  /// runs it and drops it, and the pool keeps nothing. Simulated results
  /// (finish times, bytes, efficiencies) are bit-identical either way; the
  /// switch exists for ablation and host-time benchmarking.
  bool plan_cache = true;

  // ---- live observability plane (src/obs/, docs/observability.md) ----

  /// When >= 0, the Machine starts an embedded HTTP endpoint on
  /// 127.0.0.1:obs_port serving /metrics (Prometheus text), /healthz (run
  /// state + per-worker liveness), /trace (flight-recorder dump as Chrome
  /// trace JSON) and /diagnostics (an on-demand diagnostic bundle). 0 asks
  /// the kernel for an ephemeral port — Machine::obs_port() reports it.
  /// -1 (the default) starts nothing. A failed bind disables the endpoint
  /// with a warning; it never fails the run.
  int obs_port = -1;

  /// Always-on flight recorder: a bounded per-worker ring of recent
  /// runtime events (sends, receives, barriers, io, loop steals, span
  /// marks) kept even when full tracing is off. Dumped at /trace, included
  /// in every diagnostic bundle (deadlock, abort, stall), and ~free when
  /// off: each hook site pays one null-pointer test. Implied on when
  /// obs_port >= 0.
  bool flight_recorder = false;
  std::size_t flight_events = 2048;  ///< ring capacity per worker (events)
  double flight_window_s = 30.0;     ///< dumps keep events this close to the newest

  /// Stall watchdog (threaded backend only; > 0 enables): a monitor thread
  /// emits a structured diagnostic bundle to stderr whenever the backend
  /// reports no runtime-service progress — no message, barrier, loop chunk
  /// or io completion on any worker — for this many seconds, then re-arms.
  /// Pure user compute between service calls counts as no progress, so set
  /// it above the longest expected service-free interval.
  double stall_watchdog_s = 0.0;

  /// Paragon-class preset with `p` compute nodes.
  static MachineConfig paragon(int p) {
    MachineConfig c;
    c.num_procs = p;
    return c;
  }

  /// A modern commodity-cluster balance (multi-GFLOPS nodes, microsecond
  /// messaging, multi-GB/s links). The absolute numbers matter less than
  /// the *ratio* shift relative to paragon(): per-message overheads are a
  /// thousandfold smaller fraction of per-node compute, which moves the
  /// task-vs-data parallelism crossovers the paper's evaluation exposes
  /// (see bench_tradeoff).
  static MachineConfig cluster(int p) {
    MachineConfig c;
    c.num_procs = p;
    c.flop_time = 1.0 / 5.0e9;
    c.int_op_time = 1.0 / 2.0e10;
    c.mem_byte_time = 1.0 / 2.0e10;
    c.send_overhead = 2e-6;
    c.recv_overhead = 2e-6;
    c.latency = 1.5e-6;
    c.byte_time = 1.0 / 1.0e10;
    c.barrier_base = 2e-6;
    c.barrier_stage = 1e-6;
    c.io_latency = 50e-6;
    c.io_byte_time = 1.0 / 2.0e9;
    return c;
  }

  /// An idealized machine with (almost) free communication; used by tests
  /// and ablations to isolate algorithmic behaviour from network costs.
  static MachineConfig ideal(int p) {
    MachineConfig c;
    c.num_procs = p;
    c.send_overhead = c.recv_overhead = c.latency = 1e-9;
    c.byte_time = 1e-12;
    c.barrier_base = c.barrier_stage = 1e-9;
    c.io_latency = 1e-9;
    c.io_byte_time = 1e-12;
    return c;
  }

  void validate() const {
    if (num_procs <= 0) throw std::invalid_argument("MachineConfig: num_procs must be positive");
    if (flop_time < 0 || int_op_time < 0 || mem_byte_time < 0 || send_overhead < 0 ||
        recv_overhead < 0 || latency < 0 || byte_time < 0 || barrier_base < 0 ||
        barrier_stage < 0 || io_latency < 0 || io_byte_time < 0) {
      throw std::invalid_argument("MachineConfig: negative cost parameter");
    }
    if (stack_bytes < (1u << 14)) {
      throw std::invalid_argument("MachineConfig: stack_bytes too small");
    }
    if (obs_port > 65535) {
      throw std::invalid_argument("MachineConfig: obs_port out of range");
    }
    if (flight_events < 16) {
      throw std::invalid_argument("MachineConfig: flight_events must be >= 16");
    }
    if (flight_window_s <= 0) {
      throw std::invalid_argument("MachineConfig: flight_window_s must be positive");
    }
    if (stall_watchdog_s < 0) {
      throw std::invalid_argument("MachineConfig: stall_watchdog_s must be >= 0");
    }
    if (backend == exec::BackendKind::Proc && num_procs > 64) {
      // The proc backend keys barrier membership on a 64-bit rank mask.
      throw std::invalid_argument(
          "MachineConfig: the process backend supports at most 64 processors");
    }
  }
};

}  // namespace fxpar::machine
