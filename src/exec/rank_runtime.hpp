// fxexec: the rank runtime — one Backend for every engine whose logical
// processors are real OS threads of control (BackendKind::Threads and
// BackendKind::Proc).
//
// The paper's machine services — direct deposit, subset barriers
// localized to the current processor group, the sequential I/O device —
// do not depend on how a logical processor runs, so they exist here once.
// Only two things differ between the kinds, and both follow from
// MachineConfig::backend:
//
//  - How ranks start. Threads: one std::thread per rank (placed under
//    MachineConfig::pinning). Proc: run() forks one process per rank and
//    the parent doubles as rank 0, so a rank's arrays live in its own
//    address space.
//
//  - Which net::Transport carries data frames. Threads: the in-process
//    net::LocalTransport, which moves payload ownership (no copy). Proc:
//    shared-memory rings or loopback TCP (MachineConfig::transport).
//
// Everything else works over one control block, mmap'd MAP_SHARED |
// MAP_ANONYMOUS for both kinds and sized from num_procs: per-rank liveness
// (parked flag, block reason, heartbeats, mailbox depth, placement), the
// content-keyed subset-barrier table (arrival counter + futex epoch per
// group, with a member-list collision guard), the io lock, the abort word
// (also every channel's stop flag), the frozen failure snapshot and the
// per-rank final counters.
//
//  - Messaging: a deposit becomes a Data frame carrying its trace id and
//    send time; the receiver drains its channel into per-(source, tag)
//    FIFO queues — the simulator's matching discipline, which is what makes
//    deterministic programs bit-identical on every backend. Self-sends are
//    matched locally. A receiver with no match spins briefly, then parks
//    on its channel.
//
//  - Failure: the first failer (a throwing rank, the deadlock monitor, or
//    a dead child) claims the error slot, freezes every rank's
//    introspection into the control block, then raises the abort word;
//    every blocked service observes it and unwinds with AbortError. A rank
//    in the caller's address space (every thread, and proc's rank 0)
//    rethrows its original exception object from run(); a forked rank's
//    error surfaces as std::runtime_error with its text.
//
//  - One monitor thread (in the launching process) applies the quiescence
//    rule: every unfinished rank parked, no data frame in transit, no
//    released barrier episode its waiter has not consumed, and no progress
//    across two samples — then reports runtime::DeadlockError with each
//    rank's block reason. With forked ranks it also detects child death.
//
//  - Loops: run_chunks() steals chunks between members of the calling
//    group only when ranks share an address space (stealing_loops()); a
//    forked rank runs the static loop_block() schedule.
//
//  - Observability across fork: a finishing child ships its metrics
//    delta, trace shard and flight-recorder tail to rank 0 as control
//    frames, Done last; the parent absorbs them after the join.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/backend.hpp"
#include "machine/config.hpp"
#include "net/channel.hpp"

namespace fxpar::metrics {
struct Snapshot;
}

namespace fxpar::exec {

/// Unwinds a processor body that was blocked (or about to block) when some
/// other processor failed; run() swallows it and reports the first real
/// failure instead.
class AbortError : public std::runtime_error {
 public:
  AbortError() : std::runtime_error("fxexec: run aborted by a failing processor") {}
};

namespace rankdetail {
// The control block and its plain snapshot records; see rank_runtime.cpp.
struct Ctrl;
struct FrozenRank;
struct FrozenBarrier;
}  // namespace rankdetail

class RankRuntime final : public Backend {
 public:
  /// `config.backend` must be Threads or Proc.
  explicit RankRuntime(const machine::MachineConfig& config);
  ~RankRuntime() override;

  RankRuntime(const RankRuntime&) = delete;
  RankRuntime& operator=(const RankRuntime&) = delete;

  BackendKind kind() const noexcept override { return config_.backend; }
  int num_procs() const noexcept override { return config_.num_procs; }

  void run(const std::function<void(int)>& body) override;
  void set_tracer(trace::TraceRecorder* tracer) noexcept override { tracer_ = tracer; }
  double now(int rank) const override;
  BackendStats stats() const override;
  /// Safe from any thread at any time: it reads control-block atomics and
  /// the loop-arena registry under its mutex.
  obs::Introspection introspect() const override;
  obs::Introspection failure_introspection() const override;
  std::uint64_t progress() const noexcept override;

  int current_rank() const override;
  void charge(double seconds) override;
  void deposit(int dst, std::uint64_t tag, Payload data) override;
  Payload receive(int src, std::uint64_t tag) override;
  void barrier(const pgroup::ProcessorGroup& group) override;
  void io_operation(std::size_t bytes) override;
  void run_chunks(const pgroup::ProcessorGroup& group, std::int64_t lo, std::int64_t hi,
                  const ChunkBody& body) override;
  bool stealing_loops() const noexcept override {
    return !forked() && config_.work_stealing && config_.num_procs > 1;
  }

  /// Throws std::logic_error when `g`'s member list differs from the list
  /// registered under the same 64-bit content key. The barrier table and
  /// the loop-arena registry both apply this guard: two distinct groups
  /// whose keys collide would otherwise share a barrier (or arena) of the
  /// wrong shape and hang or mis-release. Public and static so tests can
  /// exercise the collision path directly — forging a real FNV-1a
  /// collision between two small member lists is not practical.
  static void check_group_key_match(std::span<const int> registered,
                                    const pgroup::ProcessorGroup& g, const char* what);

 private:
  struct MailKey {
    int src;
    std::uint64_t tag;
    friend auto operator<=>(const MailKey&, const MailKey&) = default;
  };

  /// Process-local state of one rank, touched only by the rank itself
  /// (its thread, or its forked process) until the run is over.
  struct alignas(64) Rank {
    std::unique_ptr<net::Channel> chan;
    std::vector<net::Frame> drained;  ///< drain scratch, reused across calls
    std::map<MailKey, std::deque<net::Frame>> matched;
    std::unordered_map<std::uint64_t, std::uint64_t> barrier_epoch;  ///< per group key
    /// Loop episodes completed per group key. SPMD guarantees every member
    /// of a group reaches its run_chunks() calls in the same order, so the
    /// per-rank counters agree and name the same arena.
    std::unordered_map<std::uint64_t, std::uint64_t> loop_epoch;
    double wait_s = 0.0;  ///< real seconds blocked (recv/barrier/io)
    std::uint64_t blocks = 0, messages = 0, bytes = 0, barriers = 0;
    std::uint64_t steals = 0;        ///< chunks this rank stole from siblings
    std::uint64_t stolen_iters = 0;  ///< iterations run on behalf of siblings
  };

  /// One work-stealing episode of one group's data-parallel loop (one
  /// run_chunks() call of every member). Each member owns one Slot indexed
  /// by its vrank: it splits its static block into a fixed chunk array and
  /// release-publishes it; idle siblings steal unclaimed chunks from the
  /// top while the owner claims from the bottom. The layout is a
  /// simplified Chase-Lev deque — all pushes happen before publication, so
  /// per-chunk claim flags replace the ABA-prone top/bottom counters.
  struct LoopArena {
    struct Chunk {
      std::int64_t lo = 0;
      std::int64_t hi = 0;
      std::atomic<bool> taken{false};
    };
    struct alignas(64) Slot {
      std::atomic<Chunk*> chunks{nullptr};  ///< release-published; null = no block
      int count = 0;  ///< chunk count; valid once `chunks` is seen
      /// The owner's body object. Thieves run stolen chunks through this,
      /// so captured per-processor state is the owner's no matter which
      /// worker executes. Points into the owner's run_chunks frame — valid
      /// until the owner leaves, and no chunk can be claimed after that.
      const ChunkBody* body = nullptr;
      std::unique_ptr<Chunk[]> storage;
      /// Iterations of this slot's block not yet completed. Workers
      /// fetch_sub with acq_rel after a chunk's body returns, so the
      /// owner's acquire read of 0 sees every write the chunk made.
      std::atomic<std::int64_t> remaining{0};
    };
    LoopArena(std::vector<int> member_list, std::uint64_t episode)
        : members(std::move(member_list)), epoch(episode), slots(members.size()) {}

    std::vector<int> members;  ///< collision guard, and vrank -> physical rank
    std::uint64_t epoch = 0;   ///< per-group loop episode this arena serves
    std::vector<Slot> slots;   ///< indexed by vrank
    std::atomic<int> left{0};  ///< members done; the last one unregisters
  };

  bool forked() const noexcept { return config_.backend == BackendKind::Proc; }
  double now_s() const;
  void beat(int rank);
  void check_abort() const;  ///< throws AbortError when the abort word is up
  void reset_run_state();
  std::unique_ptr<net::Transport> make_transport() const;
  void attach(int rank);
  /// Moves drained Data frames into `me.matched` (control frames into
  /// residue_).
  void drain(Rank& me);
  /// First-failure protocol: claim the error slot, record `text` (and, in
  /// the caller's address space, `err`), freeze the per-rank introspection
  /// into the control block, then raise the abort word with `kind`.
  /// Returns true when this caller was the first failer.
  bool fail(std::uint32_t kind, const char* text, std::exception_ptr err);
  /// fail() for the exception in flight (a no-op for AbortError).
  void fail_current();
  void wake_all();
  /// Runs `body(rank)`; true when it returned normally.
  bool run_body(const std::function<void(int)>& body, int rank);
  /// Final per-rank counters into the control block.
  void publish_final(int rank);
  void mark_done(int rank);

  void launch_threads(const std::function<void(int)>& body);
  void launch_forked(const std::function<void(int)>& body);
  [[noreturn]] void child_main(const std::function<void(int)>& body, int rank);
  /// Ships a finishing child's variable-size residue to rank 0: the metric
  /// delta against the fork-time snapshot, its trace shard, and its flight
  /// events past the fork-time ring total.
  void ship_residue(int rank, const metrics::Snapshot& fork_snap,
                    std::uint64_t fork_flight_total);
  void absorb_residue();  ///< rank 0: apply shipped control frames
  void wait_for_children();
  void reap_children();

  void start_monitor();
  void stop_monitor();
  void monitor_loop();
  /// Sleeps up to `seconds`; false when the monitor was asked to stop.
  bool monitor_sleep(double seconds);
  /// Child death: a forked rank that exits before finishing took its part
  /// of the program with it. `dead` marks ranks already seen exiting.
  void check_children(std::vector<char>& dead);
  /// The quiescence rule (see the file comment), evaluated once.
  bool quiescent() const;
  /// Per-rank and per-barrier state as plain records: `ranks` holds
  /// num_procs() entries, `barriers` one per barrier slot, of which the
  /// first `nb` are filled (slots with parked waiters).
  void capture(rankdetail::FrozenRank* ranks, rankdetail::FrozenBarrier* barriers,
               std::uint32_t& nb) const;

  machine::MachineConfig config_;
  trace::TraceRecorder* tracer_ = nullptr;
  std::unique_ptr<rankdetail::Ctrl> ctrl_;
  std::chrono::steady_clock::time_point t0_;

  std::unique_ptr<net::Transport> transport_;       ///< per run
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<net::Frame> residue_;  ///< rank 0 of a forked run: control frames
  /// First failure's exception object when it was raised in this address
  /// space; written only by the fail() claim winner, read after the join.
  std::exception_ptr first_error_;

  mutable std::mutex loop_mu_;  ///< mutable: introspect() is const
  /// Keyed on group key XOR scrambled loop episode; entries are erased by
  /// the last member to leave, so the map stays small between loops.
  std::unordered_map<std::uint64_t, std::shared_ptr<LoopArena>> loop_registry_;

  // Launching-process bookkeeping.
  std::vector<pid_t> pids_;  ///< rank -> child pid (0 for rank 0 / reaped)
  bool is_child_ = false;
  std::mutex monitor_mu_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;  ///< guarded by monitor_mu_
  std::thread monitor_;        ///< last: it uses every member above
};

}  // namespace fxpar::exec
