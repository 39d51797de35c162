// fxpar trace: structured, sim-timestamped event recording for simulated
// runs.
//
// The TraceRecorder is the substrate of the observability stack: every
// layer of the runtime reports what it is doing on the backend clock — the
// Simulator charges busy intervals, the backends' service events (through
// obs::Sink, obs/sink.hpp) record message, barrier and I/O waits (each with
// the happens-before edge that ended it), and the directive layer
// (TASK_REGION / ON / parallel loops / redistribution / collectives) opens
// named scopes so all of it is attributed to the directive nest that
// caused it. Consumers are chrome_export.hpp (Perfetto
// timelines), phase_report.hpp (per-span busy/wait/comm aggregates) and
// critical_path.hpp (longest happens-before chain).
//
// Recording never changes modeled time: the recorder only observes the
// virtual clocks through a clock callback. When tracing is disabled
// (MachineConfig::trace == false) no recorder exists and every hook is a
// single null-pointer test.
//
// This library is dependency-free by design: the runtime links it, not the
// other way round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fxpar::trace {

/// Why a processor was off the (modeled) CPU.
enum class WaitKind : std::uint8_t { Recv, Barrier, Io };

const char* wait_kind_name(WaitKind k);

/// One completed named interval on one processor's timeline. Spans nest
/// per processor; `depth` 0 is the per-processor root ("program") span.
/// The accounting fields are *inclusive*: time charged while any deeper
/// span was also open is counted here too.
struct Span {
  int proc = -1;
  int depth = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::string name;
  std::string category;
  double busy = 0.0;          ///< modeled compute while open
  double recv_wait = 0.0;     ///< waiting for message arrivals
  double barrier_wait = 0.0;  ///< waiting in subset barriers
  double io_wait = 0.0;       ///< waiting on the sequential I/O device
  std::uint64_t messages = 0; ///< messages deposited while open
  std::uint64_t bytes = 0;    ///< bytes deposited while open
  std::uint64_t steals = 0;       ///< stolen chunks completed while open
  std::uint64_t stolen_iters = 0; ///< iterations those chunks covered
  std::uint64_t plan_hits = 0;    ///< redistribution plan-cache hits while open
  std::uint64_t plan_misses = 0;  ///< redistribution plan-cache misses while open

  double duration() const { return t1 - t0; }
  double wait() const { return recv_wait + barrier_wait + io_wait; }
};

/// One wait interval on one processor, with the happens-before edge that
/// ended it: the wait could not have ended before `cause_proc` reached
/// `cause_time` (sender finished depositing; last barrier arriver arrived;
/// previous I/O operation drained).
struct Wait {
  int proc = -1;
  WaitKind kind = WaitKind::Recv;
  double t0 = 0.0;
  double t1 = 0.0;
  int cause_proc = -1;
  double cause_time = 0.0;
  std::uint64_t ref = 0;  ///< message id of a recv wait (0 otherwise)
};

/// One point-to-point message (direct deposit).
struct MessageRecord {
  std::uint64_t id = 0;  ///< nonzero; see TraceRecorder::message_sent
  int src = -1;
  int dst = -1;
  std::uint64_t tag = 0;
  std::uint64_t bytes = 0;
  double send_t0 = 0.0;  ///< sender started the deposit
  double send_t1 = 0.0;  ///< deposit complete on the sender
  double recv_t = -1.0;  ///< receiver consumed it (< 0: never received)
};

/// One subset barrier instance.
struct BarrierRecord {
  std::uint64_t id = 0;  ///< 1-based
  std::uint64_t group_key = 0;
  std::vector<int> procs;        ///< arrival order
  std::vector<double> arrivals;  ///< parallel to `procs`
  double release = 0.0;
  int last_arriver = -1;
};

/// One stolen loop chunk (threaded backend, work stealing on): `thief` ran
/// `iters` iterations of `victim`'s static block, finishing at `t` (real
/// seconds). Steals are pure load balancing — they move work, not data
/// ownership — so unlike Wait they carry no happens-before edge.
struct StealRecord {
  int thief = -1;
  int victim = -1;
  std::uint64_t iters = 0;
  double t = 0.0;
};

/// Where a worker thread landed under MachineConfig::pinning (threaded
/// backend only): host CPU and NUMA node, or -1/-1 when unpinned.
struct PlacementRecord {
  int cpu = -1;
  int node = -1;
};

/// Per-processor accounting totals (denominators for coverage metrics).
struct ProcTotals {
  double busy = 0.0;
  double recv_wait = 0.0;
  double barrier_wait = 0.0;
  double io_wait = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  double active() const { return busy + recv_wait + barrier_wait + io_wait; }
};

class TraceRecorder {
 public:
  /// `clock(rank)` must return the current modeled time of `rank`; the
  /// recorder never advances any clock.
  using Clock = std::function<double(int)>;

  /// `charged_busy` selects where busy time comes from: add_busy() calls
  /// (the simulator, whose compute is exactly the seconds it charges), or,
  /// when false, each span's elapsed time minus the waits recorded while it
  /// was open (real clocks, which pass by themselves).
  explicit TraceRecorder(int num_procs, bool charged_busy = true);

  int num_procs() const noexcept { return static_cast<int>(open_.size()); }
  void set_clock(Clock clock) { clock_ = std::move(clock); }

  /// Drops all recorded state (spans, waits, messages, barriers, totals);
  /// keeps the clock. Called at the start of every Machine::run.
  void reset();

  // ---- recording ----
  //
  // Every hook records into the shard of the rank it names and touches no
  // other rank's state, so each rank's worker records without locks; a
  // hook for rank r is called only from rank r's worker. finalize() folds
  // the shards into the merged streams below in a deterministic order.

  void begin_span(int proc, std::string name, std::string category);
  void end_span(int proc);
  int open_depth(int proc) const;

  /// Modeled compute charged to `proc` (Simulator::advance); counts only
  /// with charged_busy.
  void add_busy(int proc, double dt);

  /// Deposit of `bytes` from `src` to `dst`; [t0, t1] is the sender-side
  /// send interval. Returns the message id to stash with the message:
  /// ((src+1) << 40) | sequence, so a sender mints it without coordination.
  std::uint64_t message_sent(int src, int dst, std::uint64_t tag, std::uint64_t bytes,
                             double t0, double t1);

  /// Message `id` consumed by rank `dst`: it was sent by `src`, which
  /// finished depositing at `send_t`; the receiver entered the receive at
  /// `wait_t0` and the payload was available at `ready_t`.
  void message_received(std::uint64_t id, int dst, int src, double send_t, double wait_t0,
                        double ready_t);

  /// One member's view of one barrier episode, reported after its release.
  /// Records of the same (group_key, episode) merge into one
  /// BarrierRecord; `last_arriver`/`max_arrival` name the member whose
  /// arrival released the episode.
  void barrier_record(std::uint64_t group_key, std::uint64_t episode, int proc,
                      double arrive_t, double release_t, int last_arriver,
                      double max_arrival);

  /// `proc` was stalled on the sequential I/O device over [t0, t1]; if it
  /// queued behind another operation, `cause_proc`/`cause_time` name the
  /// previous operation's owner and completion time (else pass proc / t0).
  void io_wait(int proc, double t0, double t1, int cause_proc, double cause_time);

  /// `thief` completed a stolen chunk of `iters` iterations owned by
  /// `victim` at time `t`. Also bumps the steal counters of the thief's
  /// open spans, so phase reports can localize stealing.
  void steal_event(int thief, int victim, std::uint64_t iters, double t);

  /// Plan-store hit (or miss) observed by `proc`: bumps the counters of
  /// `proc`'s open spans.
  void plan_cache_event(int proc, bool hit);

  /// Worker `proc` was pinned to host CPU `cpu` on NUMA node `node` for
  /// this run (threaded backend, pinning active).
  void set_worker_placement(int proc, int cpu, int node) {
    auto& pl = placements_[static_cast<std::size_t>(proc)];
    pl.cpu = cpu;
    pl.node = node;
  }

  // ---- cross-process shard shipping (proc backend) ----
  //
  // A forked child records into its copy-on-write shards exactly as a
  // worker thread would; at body end it serializes its rank's shard (plus
  // its per-proc totals, placement and last-activity stamp) and ships the
  // bytes to the parent, which absorbs them before finalize(). Absorbing
  // *assigns* the rank's shard — correct because in a proc run only the
  // owning process records for that rank.

  /// Serializes rank `proc`'s shard.
  std::vector<std::byte> serialize_shard(int proc) const;
  /// Installs a shard blob produced by serialize_shard() in a (forked)
  /// copy of this recorder; the rank is read from the blob.
  void absorb_shard(const std::byte* data, std::size_t len);

  /// Merges every rank's shard into the streams below, closes any
  /// still-open spans at `finish` and freezes the run's completion time.
  /// Call after every worker has finished.
  void finalize(double finish);

  // ---- recorded data (for exporters and analyzers; after finalize) ----

  const std::vector<Span>& spans() const noexcept { return done_; }
  const std::vector<Wait>& waits() const noexcept { return waits_; }
  const std::vector<MessageRecord>& messages() const noexcept { return messages_; }
  const std::vector<BarrierRecord>& barriers() const noexcept { return barriers_; }
  const std::vector<StealRecord>& steals() const noexcept { return steals_; }
  const std::vector<PlacementRecord>& placements() const noexcept { return placements_; }
  const std::vector<ProcTotals>& proc_totals() const noexcept { return totals_; }
  double finish_time() const noexcept { return finish_; }

  /// Time of the last recorded event on `proc` (span end, busy interval,
  /// send, or wait end) — unlike span ends, unaffected by finalize()
  /// closing root spans at the run's finish time.
  double last_activity(int proc) const noexcept {
    return last_activity_[static_cast<std::size_t>(proc)];
  }

 private:
  struct RecvNote {  ///< receiver-side consumption of a sender-shard message
    std::uint64_t id = 0;
    double recv_t = 0.0;
  };
  struct BarrierNote {  ///< one member's view of one barrier episode
    std::uint64_t group_key = 0;
    std::uint64_t episode = 0;
    int proc = -1;
    double arrive_t = 0.0;
    double release_t = 0.0;
    int last_arriver = -1;
  };
  /// What one rank recorded, appended only by that rank.
  struct Shard {
    std::vector<Span> done;
    std::vector<Wait> waits;
    std::vector<MessageRecord> messages;
    std::vector<RecvNote> recvs;
    std::vector<BarrierNote> barriers;
    std::vector<StealRecord> steals;
  };

  double now(int proc) const;
  void check_proc(int proc, const char* what) const;
  void add_wait(int proc, WaitKind kind, double t0, double t1, int cause_proc,
                double cause_time, std::uint64_t ref);
  void touch(int proc, double t);

  Clock clock_;
  bool charged_busy_;
  std::vector<std::vector<Span>> open_;  ///< per-proc stack of open spans
  std::vector<Shard> shards_;            ///< per-proc
  std::vector<PlacementRecord> placements_;  ///< per-proc
  std::vector<ProcTotals> totals_;           ///< per-proc
  std::vector<double> last_activity_;  ///< per-proc time of the last event

  // Merged streams, built by finalize().
  std::vector<Span> done_;
  std::vector<Wait> waits_;
  std::vector<MessageRecord> messages_;
  std::vector<BarrierRecord> barriers_;
  std::vector<StealRecord> steals_;
  double finish_ = 0.0;
};

}  // namespace fxpar::trace
