// fxexec: the execution-backend seam of the fxpar machine.
//
// The paper's execution model — per-processor mapping stacks, minimal
// processor subsets, localized subset barriers — does not care *how* the
// logical processors execute: the original Fx compiler targeted real
// Paragon nodes, while this reproduction started from a deterministic
// single-threaded fiber simulator. Backend is the seam between the two.
// The Machine owns exactly one Backend and forwards every
// processor-visible service to it:
//
//   - launching the SPMD program body on every logical processor,
//   - direct-deposit messaging (deposit / receive),
//   - subset barriers over the current processor group,
//   - the sequential I/O device,
//   - the per-processor clock (modeled time on the simulator, real
//     elapsed time on threads and proc).
//
// Implementations:
//   sim_backend.hpp   SimBackend   — the discrete-event fiber simulator;
//                     authoritative *modeled* machine time (BackendKind::Sim).
//   rank_runtime.hpp  RankRuntime  — real ranks with real host time, wait
//                     time and barrier counts: one OS thread per logical
//                     processor (BackendKind::Threads) or one forked process
//                     per logical processor over a net:: transport
//                     (BackendKind::Proc).
//
// The determinism contract (docs/execution.md): a program whose outputs
// depend only on computed values and received payloads — not on clocks —
// produces bit-identical array contents on every backend, because
// messages are matched by (source, tag) in per-source FIFO order and
// barriers synchronize exactly the same groups on both engines.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "obs/introspect.hpp"
#include "pgroup/group.hpp"
#include "runtime/simulator.hpp"

namespace fxpar::obs {
class Sink;
struct RankWords;
}

namespace fxpar::exec {

/// Raw bytes exchanged by the direct-deposit layer (same representation on
/// every backend; machine::Payload aliases this).
using Payload = std::vector<std::byte>;

/// Which execution engine a MachineConfig selects.
enum class BackendKind : std::uint8_t {
  Sim,      ///< deterministic discrete-event fiber simulator
  Threads,  ///< one OS thread per logical processor, shared memory
  Proc,     ///< one OS *process* per logical processor (fork + src/net/ transport)
};

/// "sim" / "threads" / "proc" (stable spelling used by bench records and CLIs).
const char* backend_kind_name(BackendKind k) noexcept;

/// Which transport moves the process backend's frames (ignored by the
/// in-address-space backends): shared-memory mailbox rings, or loopback
/// TCP — the multi-node-shaped path behind the same net::Channel seam.
enum class TransportKind : std::uint8_t {
  Shm,  ///< mmap'd per-rank MPSC rings with futex park/wake
  Tcp,  ///< pre-connected pairwise loopback TCP sockets
};

/// "shm" / "tcp" (stable spelling used by bench records and CLIs).
const char* transport_kind_name(TransportKind t) noexcept;

/// Static block partition of [lo, hi) over `parts`: piece `which` as
/// [first, last). This is THE ownership map of every data parallel loop:
/// the simulator executes exactly this schedule, and the threaded engine's
/// work-stealing path derives each member's chunk deque from the same
/// blocks, so iteration ownership (who holds the result slot for iteration
/// i) is identical on every backend and with stealing on or off.
constexpr std::pair<std::int64_t, std::int64_t> loop_block(std::int64_t lo, std::int64_t hi,
                                                           int parts, int which) noexcept {
  const std::int64_t n = hi - lo;
  const std::int64_t b = (n + parts - 1) / parts;
  const std::int64_t first = lo + static_cast<std::int64_t>(which) * b;
  const std::int64_t last = std::min(hi, first + b);
  return {first, std::max(first, last)};
}

/// One contiguous chunk of a bulk loop, executed by run_chunks(): run
/// iterations [lo, hi). A stolen chunk is always executed through the
/// *owning* member's body object (the member whose static block contains
/// [lo, hi)), so captured per-processor state — local array views, result
/// buffers — is the owner's regardless of which worker ran the chunk.
using ChunkBody = std::function<void(std::int64_t lo, std::int64_t hi)>;

/// Per-run clock numbers a backend hands back after run() (the service
/// counters are the obs::Sink's words). The interpretation of the clock
/// fields is backend-defined: modeled seconds on the simulator, real host
/// seconds on threads and proc.
struct BackendStats {
  double finish_time = 0.0;  ///< completion time of the slowest processor
  std::vector<runtime::ProcClock> clocks;
  double wait_ms = 0.0;  ///< total *real* blocked time (threads and proc)

  /// Per-worker NUMA node ids under an active pinning policy (threaded
  /// backend; empty on the simulator or with pinning none/failed). Index
  /// is the logical rank; -1 marks a worker that could not be pinned.
  std::vector<int> numa_nodes;
};

/// One execution engine. A Backend instance is owned by one Machine; the
/// operations in the "processor operations" block are legal only from
/// inside a processor body started by run() and always act on the calling
/// logical processor.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const noexcept = 0;
  const char* name() const noexcept { return backend_kind_name(kind()); }
  virtual int num_procs() const noexcept = 0;

  /// Runs `body(rank)` to completion on every logical processor. Rethrows
  /// the first exception escaping any processor body.
  virtual void run(const std::function<void(int)>& body) = 0;

  /// Installs the event sink every service site emits into (one event per
  /// deposit, receive, barrier, io operation and stolen chunk). The Machine
  /// installs it before the first run and it must stay set.
  void set_sink(obs::Sink* sink) noexcept { sink_ = sink; }

  /// Memory for the sink's always-on counters: num_procs() RankWords, and
  /// the num_procs() x num_procs() traffic matrix (null unless
  /// MachineConfig::record_traffic). The backend owns both, so a backend
  /// whose ranks run in other processes can place them where all ranks
  /// write and the launching process reads.
  obs::RankWords* words() const noexcept { return words_; }
  std::atomic<std::uint64_t>* traffic() const noexcept { return traffic_; }

  /// Live structured introspection: per-worker state (running / parked +
  /// block reason / finished), mailbox and loop-deque depths, placement,
  /// heartbeats, and barrier occupancy. The rank runtime answers this from
  /// any thread at any time (all reads are atomics or registry reads under
  /// their own locks); the simulator's answer is safe only from the run
  /// thread while no run is executing (its state is fiber-mutated).
  /// The default is an empty introspection for backends without the hook.
  virtual obs::Introspection introspect() const { return {}; }

  /// Introspection captured at the moment a failure was diagnosed — the
  /// deadlock report or the first processor exception — before the other
  /// workers were woken to unwind. Empty if the last run did not fail (or
  /// the backend does not capture one); the Machine prefers this over a
  /// live introspect() when building a failure diagnostic bundle.
  virtual obs::Introspection failure_introspection() const { return {}; }

  /// Monotone progress stamp for the stall watchdog: changes whenever the
  /// backend performs runtime-service work (messages, barriers, loop
  /// chunks, io, worker completion). A constant value across T seconds
  /// means no global progress. Default 0 = no progress signal.
  virtual std::uint64_t progress() const noexcept { return 0; }

  /// Clock of `rank`: modeled seconds (sim) or real seconds since the
  /// current run() started (threads). Valid for the tracer's clock
  /// callback as well as for Context::now().
  virtual double now(int rank) const = 0;

  /// Counters of the finished (or in-flight) run.
  virtual BackendStats stats() const = 0;

  // ---- processor operations (inside a processor body only) ----

  /// Logical rank of the calling processor.
  virtual int current_rank() const = 0;

  /// Charges modeled compute time to the calling processor. The simulator
  /// advances the virtual clock; threads and proc ignore it (real time
  /// passes by itself).
  virtual void charge(double seconds) = 0;

  /// Deposits a message into the mailbox of `dst`.
  virtual void deposit(int dst, std::uint64_t tag, Payload data) = 0;

  /// Next message from (`src`, `tag`); blocks until available.
  virtual Payload receive(int src, std::uint64_t tag) = 0;

  /// Subset barrier over `group`; the caller must be a member. Only
  /// members of the same group synchronize — sibling subgroups of a
  /// TASK_PARTITION never affect each other.
  virtual void barrier(const pgroup::ProcessorGroup& group) = 0;

  /// Blocking operation on the machine's sequential I/O device.
  virtual void io_operation(std::size_t bytes) = 0;

  /// Bulk loop-execution hook (core::parallel_for / parallel_reduce and the
  /// hpf_on element loops route through this). Every member of `group` —
  /// and only members; the caller must be one — invokes it SPMD with the
  /// same [lo, hi) and an equivalent body. The backend decides the schedule:
  ///
  ///   * static (the simulator, or work_stealing off): the caller runs its
  ///     own loop_block() as one chunk and returns — no synchronization,
  ///     exactly the seed behaviour;
  ///   * stealing (threaded backend, work_stealing on): the caller's block
  ///     is split into a deque of chunks; idle members of the *same* group
  ///     steal from siblings' deques — always invoking the chunk owner's
  ///     body object — and the call returns once every iteration of the
  ///     caller's own block has completed (possibly on another worker),
  ///     with the completed chunks' writes visible to the caller.
  ///
  /// Iterations must be independent (the parallel-loop contract): under
  /// stealing, chunks of one member's block may run concurrently, so a body
  /// may write per-iteration locations but must not accumulate into shared
  /// captured state — parallel_reduce buffers per-iteration values instead.
  virtual void run_chunks(const pgroup::ProcessorGroup& group, std::int64_t lo,
                          std::int64_t hi, const ChunkBody& body) = 0;

  /// True when run_chunks() may execute chunks on workers other than their
  /// owner (so callers that fold per-iteration values must buffer them
  /// instead of accumulating inline).
  virtual bool stealing_loops() const noexcept { return false; }

 protected:
  obs::Sink* sink_ = nullptr;
  obs::RankWords* words_ = nullptr;                 ///< set by the derived constructor
  std::atomic<std::uint64_t>* traffic_ = nullptr;   ///< likewise, when recorded
};

}  // namespace fxpar::exec
