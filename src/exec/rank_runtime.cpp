#include "exec/rank_runtime.hpp"

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <system_error>
#include <utility>

#include "exec/topology.hpp"
#include "metrics/runtime_metrics.hpp"
#include "net/futex.hpp"
#include "net/local_channel.hpp"
#include "net/shm_channel.hpp"
#include "net/socket_channel.hpp"
#include "obs/flight_recorder.hpp"
#include "runtime/simulator.hpp"  // runtime::DeadlockError
#include "trace/trace.hpp"

namespace fxpar::exec {

// ---------------------------------------------------------------------------
// The control block
//
// One mapping, MAP_SHARED | MAP_ANONYMOUS, created by the constructor. A
// forked rank inherits it, so every rank of either kind addresses the same
// words. Everything the ranks must agree on cheaply lives here; variable-size
// state (payloads, trace shards, metric deltas) travels over net::Channel.

namespace rankdetail {

inline constexpr int kErrBytes = 4096;
inline constexpr int kMinBarrierSlots = 256;
inline constexpr std::uint64_t kClaimKey = ~std::uint64_t{0};  ///< slot mid-claim

// Abort word: 0 = running, 1 = abort (exception / child death), 2 = deadlock.
inline constexpr std::uint32_t kAbortError = 1;
inline constexpr std::uint32_t kAbortDeadlock = 2;

// Block reasons, mirrored into obs::WorkerState::block_reason strings.
inline constexpr std::uint32_t kReasonRecv = 1;
inline constexpr std::uint32_t kReasonBarrier = 2;
inline constexpr std::uint32_t kReasonIo = 3;

struct alignas(64) Header {
  std::atomic<std::uint32_t> abort{0};      ///< also every channel's stop flag
  std::atomic<std::uint32_t> err_claim{0};  ///< first-failer CAS gate
  std::atomic<std::uint32_t> frozen{0};     ///< the failure snapshot is valid
  std::uint32_t frozen_barrier_n = 0;
  char err[kErrBytes] = {};

  std::atomic<std::uint64_t> progress{0};  ///< deposits, releases, completions
  std::atomic<std::int32_t> finished_n{0};
  /// Data frames sent and not yet drained by their destination; nonzero
  /// means the system will move on its own, so no deadlock verdict.
  std::atomic<std::int64_t> in_transit{0};

  std::atomic<std::uint32_t> io_lock{0};  ///< 0 free, else owning rank + 1
  std::atomic<std::int32_t> io_prev{-1};
};

struct alignas(64) RankCtrl {
  std::atomic<std::uint32_t> parked{0};  ///< rank is (about to be) asleep
  std::atomic<std::uint32_t> reason{0};  ///< kReason* while blocked
  std::atomic<std::uint32_t> done{0};    ///< body returned and stats are final
  std::atomic<std::int32_t> cpu{-1};     ///< pinned CPU, -1 when unpinned
  std::atomic<std::int32_t> node{-1};    ///< its NUMA node
  std::atomic<std::uint64_t> beats{0};   ///< runtime-service heartbeats
  std::atomic<std::uint64_t> last_beat_bits{0};  ///< bit pattern of the last beat time
  std::atomic<std::int64_t> mail_depth{0};       ///< deposited here, not yet received
  /// Barrier slot this rank is parked on (-1: none) and the epoch that
  /// releases it, so the monitor can tell a released waiter that has not
  /// run yet from a blocked one.
  std::atomic<std::int32_t> await_slot{-1};
  std::atomic<std::uint32_t> await_epoch{0};
  // Final counters, owner-written by publish_final() before `done` goes
  // up; read only after the rank's thread is joined or process reaped.
  double elapsed_s = 0.0;
  double wait_s = 0.0;
  std::uint64_t blocks = 0, messages = 0, bytes = 0, barriers = 0;
  std::uint64_t steals = 0, stolen_iters = 0;
};

/// One subset barrier, keyed on the group's content key and claimed on
/// first use by linear probing. The epoch word is the futex waiters sleep
/// on; the last arriver bumps it. Only members of the group ever touch its
/// slot — the paper's localized barrier. The member list and the arrival
/// stamps live in the block's per-slot arrays.
struct alignas(64) BarrierSlot {
  std::atomic<std::uint64_t> key{0};  ///< 0 free, kClaimKey mid-claim
  std::atomic<std::uint32_t> size{0};
  std::atomic<std::uint32_t> arrived{0};
  std::atomic<std::uint32_t> epoch{0};    ///< released episodes; the futex word
  std::atomic<std::uint32_t> waiting{0};  ///< members parked in an unreleased episode
  std::atomic<std::int32_t> last_arriver{-1};  ///< published by the root pre-release
  std::atomic<std::uint64_t> max_arrival_bits{0};
};

struct FrozenRank {
  std::uint32_t state = 0;  ///< 0 running, 1 parked, 2 finished
  std::uint32_t reason = 0;
  std::int64_t mail_depth = 0;
  std::int64_t loop_pending = 0;
  double last_beat = -1.0;
  std::int32_t cpu = -1;
  std::int32_t node = -1;
};

struct FrozenBarrier {
  std::uint64_t key = 0;
  std::int32_t size = 0;
  std::int32_t waiting = 0;
};

/// The mapping, carved into typed arrays sized from the rank count.
struct Ctrl {
  Ctrl(int num_procs, bool with_traffic)
      : procs(num_procs), nslots(std::max(kMinBarrierSlots, 8 * num_procs)) {
    carve(nullptr, with_traffic);  // sizing pass
    void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      throw std::runtime_error("RankRuntime: mmap of the control block failed");
    }
    base = mem;
    carve(static_cast<std::byte*>(mem), with_traffic);
  }
  ~Ctrl() { ::munmap(base, bytes); }
  Ctrl(const Ctrl&) = delete;
  Ctrl& operator=(const Ctrl&) = delete;

  int* slot_members(int s) const { return members + static_cast<std::size_t>(s) * procs; }
  double* slot_arrivals(int s) const { return arrive_t + static_cast<std::size_t>(s) * procs; }

  const int procs;
  const int nslots;
  void* base = nullptr;
  std::size_t bytes = 0;
  Header* hdr = nullptr;
  RankCtrl* ranks = nullptr;
  FrozenRank* frozen_ranks = nullptr;
  BarrierSlot* slots = nullptr;
  FrozenBarrier* frozen_barriers = nullptr;
  int* members = nullptr;      ///< nslots x procs
  double* arrive_t = nullptr;  ///< nslots x procs, by vrank (traced runs)
  std::atomic<std::uint64_t>* traffic = nullptr;  ///< src * P + dst, or null
  /// Backend::host_counter() words; never reset, so they span runs.
  std::atomic<std::uint64_t>* host_counters = nullptr;

 private:
  /// Lays the arrays out from offset 0; constructs them when `at` is set.
  void carve(std::byte* at, bool with_traffic) {
    std::size_t off = 0;
    const auto take = [&]<class T>(T*& out, std::size_t n) {
      off = (off + alignof(T) - 1) / alignof(T) * alignof(T);
      if (at != nullptr) {
        out = reinterpret_cast<T*>(at + off);
        for (std::size_t i = 0; i < n; ++i) new (out + i) T();
      }
      off += n * sizeof(T);
    };
    const auto p = static_cast<std::size_t>(procs);
    const auto s = static_cast<std::size_t>(nslots);
    take(hdr, 1);
    take(ranks, p);
    take(frozen_ranks, p);
    take(slots, s);
    take(frozen_barriers, s);
    take(members, s * p);
    take(arrive_t, s * p);
    if (with_traffic) take(traffic, p * p);
    take(host_counters, kNumHostCounters);
    bytes = off;
  }
};

}  // namespace rankdetail

namespace {

using rankdetail::BarrierSlot;
using rankdetail::Ctrl;
using rankdetail::FrozenBarrier;
using rankdetail::FrozenRank;
using rankdetail::RankCtrl;

// Identity of the calling rank. At most one runtime's rank runs on an OS
// thread at a time, so (runtime, rank) is enough; the runtime pointer
// guards against ops issued from threads it does not own (the caller of run()).
thread_local const RankRuntime* t_runtime = nullptr;
thread_local int t_rank = -1;

constexpr int kSpinRounds = 256;  ///< yields before a receiver or barrier waiter parks
constexpr double kParkS = 0.005;  ///< park timeout: re-checks the abort word this often

// How many chunks a member's static block is split into for stealing. Small
// enough that claim overhead is negligible next to any nontrivial body,
// large enough that a fully idle sibling can take a useful share.
constexpr int kLoopChunksPerWorker = 16;

// Scrambles the loop episode into the arena key (odd, so distinct episodes
// of one group can never alias each other).
constexpr std::uint64_t kEpochScramble = 0x9e3779b97f4a7c15ull;

void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

const char* reason_name(std::uint32_t reason) {
  switch (reason) {
    case rankdetail::kReasonRecv: return "recv";
    case rankdetail::kReasonBarrier: return "barrier";
    case rankdetail::kReasonIo: return "io";
  }
  return "";
}

/// Finds (or claims) the barrier slot of `g`. A slot is claimed with a CAS
/// to the sentinel key, its member list written, then the real key
/// release-stored; probers that see the sentinel wait for the key.
int barrier_slot_for(Ctrl& c, const pgroup::ProcessorGroup& g) {
  std::uint64_t key = g.key();
  if (key == 0 || key == rankdetail::kClaimKey) key ^= kEpochScramble;
  const auto n = static_cast<std::uint32_t>(g.size());
  const auto start = static_cast<int>(key % static_cast<std::uint64_t>(c.nslots));
  for (int probe = 0; probe < c.nslots; ++probe) {
    const int i = (start + probe) % c.nslots;
    BarrierSlot& s = c.slots[i];
    for (;;) {
      const std::uint64_t k = s.key.load(std::memory_order_acquire);
      if (k == rankdetail::kClaimKey) {
        std::this_thread::yield();  // another rank is mid-claim
        continue;
      }
      if (k == key) {
        RankRuntime::check_group_key_match(
            {c.slot_members(i), s.size.load(std::memory_order_relaxed)}, g, "barrier");
        return i;
      }
      if (k == 0) {
        std::uint64_t expect = 0;
        if (s.key.compare_exchange_strong(expect, rankdetail::kClaimKey,
                                          std::memory_order_acq_rel)) {
          std::copy(g.members().begin(), g.members().end(), c.slot_members(i));
          s.size.store(n, std::memory_order_relaxed);
          s.key.store(key, std::memory_order_release);
          return i;
        }
        continue;  // lost the claim race; re-examine this slot
      }
      break;  // another group's slot; next probe
    }
  }
  throw std::runtime_error("RankRuntime: barrier table full (" + std::to_string(c.nslots) +
                           " distinct groups) at group " + g.to_string());
}

obs::Introspection to_introspection(double now, const FrozenRank* ranks, int p,
                                    const FrozenBarrier* barriers, std::uint32_t nb) {
  obs::Introspection out;
  out.now = now;
  out.workers.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const FrozenRank& fr = ranks[r];
    obs::WorkerState& ws = out.workers[static_cast<std::size_t>(r)];
    ws.rank = r;
    ws.state = fr.state == 2 ? "finished" : fr.state == 1 ? "parked" : "running";
    if (fr.state == 1) ws.block_reason = reason_name(fr.reason);
    ws.mailbox_depth = std::max<std::int64_t>(0, fr.mail_depth);
    ws.loop_chunks_pending = fr.loop_pending;
    ws.cpu = fr.cpu;
    ws.node = fr.node;
    ws.last_beat = fr.last_beat;
  }
  for (std::uint32_t i = 0; i < nb; ++i) {
    out.barriers.push_back(obs::BarrierOccupancy{barriers[i].key, barriers[i].size,
                                                 barriers[i].waiting});
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / run lifecycle

RankRuntime::RankRuntime(const machine::MachineConfig& config) : config_(config) {
  if (config_.backend != BackendKind::Threads && config_.backend != BackendKind::Proc) {
    throw std::invalid_argument("RankRuntime: backend must be threads or proc");
  }
  if (config_.num_procs <= 0) {
    throw std::invalid_argument("RankRuntime: num_procs must be positive");
  }
  ctrl_ = std::make_unique<Ctrl>(config_.num_procs, config_.record_traffic);
  host_counters_ = ctrl_->host_counters;
  ranks_.reserve(static_cast<std::size_t>(config_.num_procs));
  for (int r = 0; r < config_.num_procs; ++r) ranks_.push_back(std::make_unique<Rank>());
  pids_.assign(static_cast<std::size_t>(config_.num_procs), 0);
  t0_ = std::chrono::steady_clock::now();
}

// Children are reaped by run(); a forked child never destroys the runtime
// (it leaves through _Exit).
RankRuntime::~RankRuntime() { stop_monitor(); }

void RankRuntime::reset_run_state() {
  Ctrl& c = *ctrl_;
  rankdetail::Header& h = *c.hdr;
  h.abort.store(0, std::memory_order_relaxed);
  h.err_claim.store(0, std::memory_order_relaxed);
  h.frozen.store(0, std::memory_order_relaxed);
  h.frozen_barrier_n = 0;
  h.err[0] = '\0';
  h.progress.store(0, std::memory_order_relaxed);
  h.finished_n.store(0, std::memory_order_relaxed);
  h.in_transit.store(0, std::memory_order_relaxed);
  h.io_lock.store(0, std::memory_order_relaxed);
  h.io_prev.store(-1, std::memory_order_relaxed);
  for (int r = 0; r < num_procs(); ++r) {
    RankCtrl& rc = c.ranks[r];
    rc.parked.store(0, std::memory_order_relaxed);
    rc.reason.store(0, std::memory_order_relaxed);
    rc.done.store(0, std::memory_order_relaxed);
    rc.cpu.store(-1, std::memory_order_relaxed);
    rc.node.store(-1, std::memory_order_relaxed);
    rc.beats.store(0, std::memory_order_relaxed);
    rc.last_beat_bits.store(std::bit_cast<std::uint64_t>(-1.0), std::memory_order_relaxed);
    rc.mail_depth.store(0, std::memory_order_relaxed);
    rc.await_slot.store(-1, std::memory_order_relaxed);
    rc.await_epoch.store(0, std::memory_order_relaxed);
    rc.elapsed_s = rc.wait_s = 0.0;
    rc.blocks = rc.messages = rc.bytes = rc.barriers = rc.steals = rc.stolen_iters = 0;

    Rank& me = *ranks_[static_cast<std::size_t>(r)];
    me.chan.reset();
    me.matched.clear();
    me.barrier_epoch.clear();
    me.loop_epoch.clear();
    me.wait_s = 0.0;
    me.blocks = me.messages = me.bytes = me.barriers = me.steals = me.stolen_iters = 0;
  }
  for (int i = 0; i < c.nslots; ++i) {
    BarrierSlot& s = c.slots[i];
    s.key.store(0, std::memory_order_relaxed);
    s.size.store(0, std::memory_order_relaxed);
    s.arrived.store(0, std::memory_order_relaxed);
    s.epoch.store(0, std::memory_order_relaxed);
    s.waiting.store(0, std::memory_order_relaxed);
    s.last_arriver.store(-1, std::memory_order_relaxed);
    s.max_arrival_bits.store(0, std::memory_order_relaxed);
  }
  if (c.traffic != nullptr) {
    const auto n = static_cast<std::size_t>(num_procs()) * static_cast<std::size_t>(num_procs());
    for (std::size_t i = 0; i < n; ++i) c.traffic[i].store(0, std::memory_order_relaxed);
  }
  residue_.clear();
  first_error_ = nullptr;
  {
    // An aborted run can leave arenas behind (members unwound before the
    // last-leaver cleanup); a normal run leaves the map empty.
    std::lock_guard<std::mutex> lk(loop_mu_);
    loop_registry_.clear();
  }
  pids_.assign(static_cast<std::size_t>(num_procs()), 0);
}

std::unique_ptr<net::Transport> RankRuntime::make_transport() const {
  const int p = num_procs();
  if (!forked()) return std::make_unique<net::LocalTransport>(p);
  if (config_.transport == TransportKind::Tcp) return std::make_unique<net::TcpTransport>(p);
  return std::make_unique<net::ShmTransport>(p);
}

void RankRuntime::attach(int rank) {
  Rank& me = *ranks_[static_cast<std::size_t>(rank)];
  me.chan = transport_->attach(rank);
  me.chan->set_stop(&ctrl_->hdr->abort);
}

void RankRuntime::run(const std::function<void(int)>& body) {
  if (is_child_) {
    throw std::logic_error("RankRuntime::run: nested run inside a forked child");
  }
  reset_run_state();
  t0_ = std::chrono::steady_clock::now();
  if (tracer_) tracer_->set_concurrent(num_procs());
  transport_ = make_transport();
  if (forked()) {
    launch_forked(body);
  } else {
    launch_threads(body);
  }

  const rankdetail::Header& h = *ctrl_->hdr;
  const std::uint32_t aborted = h.abort.load(std::memory_order_acquire);
  if (aborted == 0 && forked()) absorb_residue();
  if (tracer_) tracer_->merge_concurrent();
  for (auto& r : ranks_) r->chan.reset();
  transport_.reset();

  if (aborted == rankdetail::kAbortDeadlock) throw runtime::DeadlockError(h.err);
  if (aborted != 0) {
    if (first_error_) std::rethrow_exception(first_error_);
    throw std::runtime_error(h.err);
  }
}

void RankRuntime::launch_threads(const std::function<void(int)>& body) {
  const int p = num_procs();
  for (int r = 0; r < p; ++r) attach(r);
  // Placement under MachineConfig::pinning: probe the host topology once
  // per run and hand each rank its (cpu, node) slot. The plan is host
  // placement only — results are bit-identical under every policy — so a
  // failed affinity call just leaves that rank unpinned.
  std::vector<WorkerPlacement> pin_plan;
  if (config_.pinning != PinPolicy::None) {
    pin_plan = make_pin_plan(HostTopology::detect(), config_.pinning, p);
  }
  start_monitor();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const WorkerPlacement place =
        pin_plan.empty() ? WorkerPlacement{} : pin_plan[static_cast<std::size_t>(r)];
    const auto rank_main = [this, &body, r, place] {
      t_runtime = this;
      t_rank = r;
      if (place.cpu >= 0 && pin_current_thread(place)) {
        ctrl_->ranks[r].cpu.store(place.cpu, std::memory_order_relaxed);
        ctrl_->ranks[r].node.store(place.node, std::memory_order_relaxed);
        if (tracer_) tracer_->set_worker_placement(r, place.cpu, place.node);
      }
      run_body(body, r);
      publish_final(r);
      mark_done(r);
      t_runtime = nullptr;
      t_rank = -1;
    };
    try {
      threads.emplace_back(rank_main);
    } catch (const std::system_error& e) {
      // Like a failed fork: the started ranks observe the abort and unwind.
      fail(rankdetail::kAbortError, e.what(), std::current_exception());
      break;
    }
  }
  for (auto& t : threads) t.join();
  stop_monitor();

  if (metrics_ && !pin_plan.empty()) {
    int pinned = 0;
    for (int r = 0; r < p; ++r) {
      pinned += ctrl_->ranks[r].cpu.load(std::memory_order_relaxed) >= 0 ? 1 : 0;
    }
    metrics_->pinned_workers->set(pinned);
  }
}

void RankRuntime::launch_forked(const std::function<void(int)>& body) {
  const int p = num_procs();
  attach(0);
  // Flush stdio so forked children never replay buffered parent output.
  std::fflush(stdout);
  std::fflush(stderr);
  for (int r = 1; r < p; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      fail(rankdetail::kAbortError, "RankRuntime: fork failed", nullptr);
      break;  // already-forked children observe the abort word and exit
    }
    if (pid == 0) child_main(body, r);
    pids_[static_cast<std::size_t>(r)] = pid;
  }
  start_monitor();

  // The parent doubles as rank 0 on the calling thread.
  t_runtime = this;
  t_rank = 0;
  if (ctrl_->hdr->abort.load(std::memory_order_acquire) == 0) run_body(body, 0);
  publish_final(0);
  mark_done(0);
  t_runtime = nullptr;
  t_rank = -1;

  wait_for_children();
  stop_monitor();
  reap_children();
}

bool RankRuntime::run_body(const std::function<void(int)>& body, int rank) {
  beat(rank);
  try {
    body(rank);
    return true;
  } catch (...) {
    fail_current();
  }
  return false;
}

void RankRuntime::fail_current() {
  try {
    throw;
  } catch (const AbortError&) {
    // Unwound by someone else's failure; nothing more to record.
  } catch (const net::ChannelStopped&) {
  } catch (const std::exception& e) {
    fail(rankdetail::kAbortError, e.what(), std::current_exception());
  } catch (...) {
    fail(rankdetail::kAbortError, "unknown exception in processor body",
         std::current_exception());
  }
}

void RankRuntime::publish_final(int rank) {
  RankCtrl& rc = ctrl_->ranks[rank];
  const Rank& me = *ranks_[static_cast<std::size_t>(rank)];
  rc.elapsed_s = now_s();
  rc.wait_s = me.wait_s;
  rc.blocks = me.blocks;
  rc.messages = me.messages;
  rc.bytes = me.bytes;
  rc.barriers = me.barriers;
  rc.steals = me.steals;
  rc.stolen_iters = me.stolen_iters;
}

void RankRuntime::mark_done(int rank) {
  beat(rank);
  ctrl_->ranks[rank].done.store(1, std::memory_order_seq_cst);
  ctrl_->hdr->finished_n.fetch_add(1, std::memory_order_seq_cst);
  ctrl_->hdr->progress.fetch_add(1, std::memory_order_seq_cst);
}

void RankRuntime::child_main(const std::function<void(int)>& body, int rank) {
  is_child_ = true;
  t_runtime = this;
  t_rank = rank;
  // Parent-only bookkeeping inherited through fork must not act here.
  pids_.assign(pids_.size(), 0);
  transport_->isolate(rank);
  attach(rank);

  // Fork-time baselines: copy-on-write hands this child the registry and
  // flight rings exactly as they stood at fork, so "what this rank did" is
  // precisely the end state minus these.
  metrics::Snapshot fork_snap;
  if (metrics_) fork_snap = metrics_->registry.snapshot();
  const std::uint64_t fork_flight = flight_ ? flight_->ring_total(rank) : 0;

  int code = 3;
  if (run_body(body, rank) && ctrl_->hdr->abort.load(std::memory_order_acquire) == 0) {
    publish_final(rank);
    try {
      ship_residue(rank, fork_snap, fork_flight);
      mark_done(rank);
      // Done last: per-source FIFO guarantees rank 0 holds every residue
      // frame of this child once it sees the Done.
      ranks_[static_cast<std::size_t>(rank)]->chan->send(0, net::FrameKind::Done, 0, nullptr,
                                                         0);
      code = 0;
    } catch (...) {
      // Aborted mid-residue; the parent reaps us either way.
    }
  }
  // _Exit, not exit: a forked child must not run the parent's atexit
  // handlers or static destructors.
  std::_Exit(code);
}

void RankRuntime::ship_residue(int rank, const metrics::Snapshot& fork_snap,
                               std::uint64_t fork_flight_total) {
  net::Channel& chan = *ranks_[static_cast<std::size_t>(rank)]->chan;
  const auto ship = [&](net::FrameKind kind, std::uint64_t tag, std::vector<std::byte> blob) {
    net::Frame f;
    f.kind = kind;
    f.tag = tag;
    f.payload = std::move(blob);
    chan.send(0, std::move(f));
  };
  if (metrics_) {
    auto blob = metrics::serialize_delta(fork_snap, metrics_->registry.snapshot());
    if (!blob.empty()) ship(net::FrameKind::Metrics, 0, std::move(blob));
  }
  if (tracer_) ship(net::FrameKind::Trace, 0, tracer_->serialize_shard(rank));
  if (flight_) {
    const auto events = flight_->ring_events(rank);
    const std::uint64_t fresh = flight_->ring_total(rank) - fork_flight_total;
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(fresh, events.size()));
    if (n > 0) {
      std::vector<std::byte> blob(n * sizeof(obs::FlightEvent));
      std::memcpy(blob.data(), events.data() + (events.size() - n),
                  n * sizeof(obs::FlightEvent));
      ship(net::FrameKind::Flight, n, std::move(blob));
    }
  }
}

void RankRuntime::absorb_residue() {
  for (auto& f : residue_) {
    switch (f.kind) {
      case net::FrameKind::Metrics:
        if (metrics_) metrics::absorb_delta(metrics_->registry, f.payload.data(), f.payload.size());
        break;
      case net::FrameKind::Trace:
        if (tracer_) tracer_->absorb_shard(f.payload.data(), f.payload.size());
        break;
      case net::FrameKind::Flight:
        if (flight_) {
          const std::size_t n = f.payload.size() / sizeof(obs::FlightEvent);
          for (std::size_t i = 0; i < n; ++i) {
            obs::FlightEvent e;
            std::memcpy(&e, f.payload.data() + i * sizeof(obs::FlightEvent),
                        sizeof(obs::FlightEvent));
            flight_->record(e.proc, e.kind, e.t, e.name, e.a, e.b);
          }
        }
        break;
      default:
        break;
    }
  }
  residue_.clear();
}

void RankRuntime::wait_for_children() {
  const int p = num_procs();
  std::vector<char> got_done(static_cast<std::size_t>(p), 0);
  got_done[0] = 1;
  int ndone = 1;
  const auto scan = [&] {
    for (const auto& f : residue_) {
      if (f.kind == net::FrameKind::Done && f.src >= 1 && f.src < p &&
          got_done[static_cast<std::size_t>(f.src)] == 0) {
        got_done[static_cast<std::size_t>(f.src)] = 1;
        ++ndone;
      }
    }
  };
  Rank& r0 = *ranks_[0];
  scan();  // Done frames can already sit here, drained during rank 0's body
  while (ndone < p) {
    if (ctrl_->hdr->abort.load(std::memory_order_acquire) != 0) return;  // reap takes over
    drain(r0);
    scan();
    if (ndone >= p) break;
    r0.chan->wait(0.01);
  }
}

void RankRuntime::reap_children() {
  for (std::size_t r = 1; r < pids_.size(); ++r) {
    const pid_t pid = pids_[r];
    if (pid <= 0) continue;
    int st = 0;
    bool reaped = false;
    // Children observing the abort word exit within milliseconds; give a
    // generous grace period, then SIGKILL whatever is stuck in user code.
    for (int i = 0; i < 2500; ++i) {
      const pid_t w = ::waitpid(pid, &st, WNOHANG);
      if (w == pid || (w < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      sleep_s(2e-3);
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &st, 0);
    }
    pids_[r] = 0;
  }
}

// ---------------------------------------------------------------------------
// Clocks, heartbeats, failure

double RankRuntime::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

double RankRuntime::now(int rank) const {
  if (rank < 0 || rank >= num_procs()) {
    throw std::out_of_range("RankRuntime::now: bad rank " + std::to_string(rank));
  }
  // One real clock: t0_ is set before any rank starts, and CLOCK_MONOTONIC
  // is machine-global, so forked ranks read the same time base.
  return now_s();
}

int RankRuntime::current_rank() const {
  if (t_runtime != this || t_rank < 0) {
    throw std::logic_error("RankRuntime: processor operation outside a processor body");
  }
  return t_rank;
}

void RankRuntime::charge(double /*seconds*/) {
  // Real time passes by itself; modeled cost parameters do not apply here.
}

void RankRuntime::beat(int rank) {
  RankCtrl& rc = ctrl_->ranks[rank];
  rc.last_beat_bits.store(std::bit_cast<std::uint64_t>(now_s()), std::memory_order_relaxed);
  rc.beats.fetch_add(1, std::memory_order_relaxed);
}

void RankRuntime::check_abort() const {
  if (ctrl_->hdr->abort.load(std::memory_order_acquire) != 0) throw AbortError{};
}

bool RankRuntime::fail(std::uint32_t kind, const char* text, std::exception_ptr err) {
  rankdetail::Header& h = *ctrl_->hdr;
  std::uint32_t expect = 0;
  if (!h.err_claim.compare_exchange_strong(expect, 1, std::memory_order_acq_rel)) {
    return false;  // someone failed first; their diagnosis stands
  }
  if (!is_child_) first_error_ = std::move(err);
  std::snprintf(h.err, rankdetail::kErrBytes, "%s", text != nullptr ? text : "unknown error");
  // Freeze what explains the failure before the abort word lets every
  // other rank unwind into "finished".
  capture(ctrl_->frozen_ranks, ctrl_->frozen_barriers, h.frozen_barrier_n);
  h.frozen.store(1, std::memory_order_release);
  h.abort.store(kind, std::memory_order_seq_cst);
  wake_all();
  return true;
}

void RankRuntime::wake_all() {
  // Parked receivers re-check the abort word within kParkS; barrier
  // waiters are woken now.
  for (int i = 0; i < ctrl_->nslots; ++i) {
    if (ctrl_->slots[i].waiting.load(std::memory_order_seq_cst) != 0) {
      net::detail::futex_wake_all(&ctrl_->slots[i].epoch);
    }
  }
}

// ---------------------------------------------------------------------------
// Messaging

void RankRuntime::drain(Rank& me) {
  if (!me.chan->drain(me.drained)) return;
  for (net::Frame& f : me.drained) {
    if (f.kind == net::FrameKind::Data) {
      me.matched[MailKey{f.src, f.tag}].push_back(std::move(f));
      ctrl_->hdr->in_transit.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      residue_.push_back(std::move(f));  // a child's residue; absorbed post-join
    }
  }
  me.drained.clear();
}

void RankRuntime::deposit(int dst, std::uint64_t tag, Payload data) {
  if (dst < 0 || dst >= num_procs()) {
    throw std::out_of_range("Machine::deposit: bad destination " + std::to_string(dst));
  }
  const int src = current_rank();
  Rank& me = *ranks_[static_cast<std::size_t>(src)];
  check_abort();
  beat(src);
  Ctrl& c = *ctrl_;
  const std::size_t nbytes = data.size();
  net::Frame f;
  f.src = src;
  f.tag = tag;
  f.sent_at = now_s();
  if (tracer_) f.trace_id = tracer_->message_sent(src, dst, tag, nbytes, f.sent_at, f.sent_at);
  f.payload = std::move(data);
  me.messages += 1;
  me.bytes += nbytes;
  if (c.traffic != nullptr) {
    // Row `src` has one writer: this rank.
    auto& cell = c.traffic[static_cast<std::size_t>(src) * static_cast<std::size_t>(num_procs()) +
                           static_cast<std::size_t>(dst)];
    cell.store(cell.load(std::memory_order_relaxed) + nbytes, std::memory_order_relaxed);
  }
  c.ranks[dst].mail_depth.fetch_add(1, std::memory_order_relaxed);

  if (dst == src) {
    // Self-sends never touch a transport.
    me.matched[MailKey{src, tag}].push_back(std::move(f));
  } else {
    // Count the frame in flight *before* it becomes drainable, so the
    // monitor can never see "all parked" with a message en route.
    c.hdr->in_transit.fetch_add(1, std::memory_order_seq_cst);
    try {
      me.chan->send(dst, std::move(f));
    } catch (const net::ChannelStopped&) {
      c.hdr->in_transit.fetch_sub(1, std::memory_order_seq_cst);
      throw AbortError{};
    }
  }
  c.hdr->progress.fetch_add(1, std::memory_order_seq_cst);
}

Payload RankRuntime::receive(int src, std::uint64_t tag) {
  if (src < 0 || src >= num_procs()) {
    throw std::out_of_range("Machine::receive: bad source " + std::to_string(src));
  }
  const int rank = current_rank();
  Rank& me = *ranks_[static_cast<std::size_t>(rank)];
  beat(rank);
  RankCtrl& rc = ctrl_->ranks[rank];
  const MailKey key{src, tag};
  const double entry = now_s();
  bool blocked = false;
  // The block reason stays up from the first park until the receive ends,
  // so a deadlock report never catches it between two parks.
  struct Unblock {
    RankCtrl& rc;
    ~Unblock() { rc.reason.store(0, std::memory_order_release); }
  } unblock{rc};

  for (int spin = 0;; ++spin) {
    check_abort();
    drain(me);
    auto it = me.matched.find(key);
    if (it != me.matched.end()) {
      net::Frame f = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) me.matched.erase(it);
      rc.mail_depth.fetch_sub(1, std::memory_order_relaxed);
      beat(rank);
      if (blocked) {
        me.wait_s += now_s() - entry;
        me.blocks += 1;
      }
      if (tracer_ && f.trace_id != 0) {
        tracer_->message_received_at(f.trace_id, rank, src, f.sent_at, entry, now_s());
      }
      return std::move(f.payload);
    }
    if (spin < kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    // Park on the channel. The flag drops before the next drain, so the
    // monitor never counts a rank that holds a drained frame as blocked.
    blocked = true;
    rc.reason.store(rankdetail::kReasonRecv, std::memory_order_release);
    rc.parked.store(1, std::memory_order_seq_cst);
    me.chan->wait(kParkS);
    rc.parked.store(0, std::memory_order_seq_cst);
  }
}

// ---------------------------------------------------------------------------
// Subset barriers

void RankRuntime::check_group_key_match(std::span<const int> registered,
                                        const pgroup::ProcessorGroup& g, const char* what) {
  if (std::ranges::equal(registered, g.members())) return;
  std::string msg = "RankRuntime: group key collision in ";
  msg += what;
  msg += ": key " + std::to_string(g.key()) + " of group " + g.to_string() +
         " is already registered for members [";
  for (std::size_t i = 0; i < registered.size(); ++i) {
    if (i) msg += ",";
    msg += std::to_string(registered[i]);
  }
  msg += "]";
  throw std::logic_error(msg);
}

void RankRuntime::barrier(const pgroup::ProcessorGroup& group) {
  const int rank = current_rank();
  Rank& me = *ranks_[static_cast<std::size_t>(rank)];
  if (!group.contains(rank)) {
    throw std::logic_error("Machine::barrier: proc " + std::to_string(rank) +
                           " is not a member of group " + group.to_string());
  }
  check_abort();
  beat(rank);
  me.barriers += 1;
  const int n = group.size();
  if (n == 1) return;

  Ctrl& c = *ctrl_;
  const int si = barrier_slot_for(c, group);
  BarrierSlot& slot = c.slots[si];
  const std::uint64_t episode = ++me.barrier_epoch[group.key()];
  const auto want = static_cast<std::uint32_t>(episode);
  const double arrived_at = now_s();
  double* arrive_t = c.slot_arrivals(si);
  // Stored before the arrival RMW below; the root's RMW acquires the chain.
  if (tracer_) arrive_t[group.virtual_of(rank)] = arrived_at;
  const auto released = [&] {
    return static_cast<std::int32_t>(slot.epoch.load(std::memory_order_seq_cst) - want) >= 0;
  };

  if (slot.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      static_cast<std::uint32_t>(n)) {
    // Root (the last arriver): publish the release cause, reset the slot
    // for the next episode, then bump the epoch and wake any parked waiter.
    if (tracer_) {
      const int last = static_cast<int>(std::max_element(arrive_t, arrive_t + n) - arrive_t);
      slot.last_arriver.store(group.members()[static_cast<std::size_t>(last)],
                              std::memory_order_relaxed);
      slot.max_arrival_bits.store(std::bit_cast<std::uint64_t>(arrive_t[last]),
                                  std::memory_order_relaxed);
    }
    slot.arrived.store(0, std::memory_order_relaxed);
    slot.epoch.fetch_add(1, std::memory_order_seq_cst);
    c.hdr->progress.fetch_add(1, std::memory_order_seq_cst);
    if (slot.waiting.load(std::memory_order_seq_cst) != 0) net::detail::futex_wake_all(&slot.epoch);
  } else {
    for (int spin = 0; spin < kSpinRounds && !released(); ++spin) {
      check_abort();
      std::this_thread::yield();
    }
    if (!released()) {
      RankCtrl& rc = c.ranks[rank];
      rc.reason.store(rankdetail::kReasonBarrier, std::memory_order_release);
      // Register what this park waits for before counting as parked, so
      // the monitor can tell a genuine wait from a release the scheduler
      // has not delivered yet.
      rc.await_epoch.store(want, std::memory_order_seq_cst);
      rc.await_slot.store(si, std::memory_order_seq_cst);
      rc.parked.store(1, std::memory_order_seq_cst);
      slot.waiting.fetch_add(1, std::memory_order_seq_cst);
      for (;;) {
        const std::uint32_t seen = slot.epoch.load(std::memory_order_seq_cst);
        if (static_cast<std::int32_t>(seen - want) >= 0) break;
        if (c.hdr->abort.load(std::memory_order_acquire) != 0) break;
        net::detail::futex_wait(&slot.epoch, seen, kParkS);
        // Keep draining while parked so producers' rings never fill behind
        // a barrier (and a finishing child's residue keeps moving).
        drain(me);
      }
      slot.waiting.fetch_sub(1, std::memory_order_seq_cst);
      // Unpark before withdrawing the pending-wakeup state, so the
      // monitor's scan always sees one of the two.
      rc.parked.store(0, std::memory_order_seq_cst);
      rc.await_slot.store(-1, std::memory_order_seq_cst);
      rc.reason.store(0, std::memory_order_release);
    }
  }
  check_abort();
  beat(rank);

  const double released_at = now_s();
  if (released_at > arrived_at) {
    me.wait_s += released_at - arrived_at;
    me.blocks += 1;
  }
  if (tracer_) {
    tracer_->barrier_record(
        group.key(), episode, rank, arrived_at, released_at,
        slot.last_arriver.load(std::memory_order_relaxed),
        std::bit_cast<double>(slot.max_arrival_bits.load(std::memory_order_relaxed)));
  }
}

// ---------------------------------------------------------------------------
// Loops

void RankRuntime::run_chunks(const pgroup::ProcessorGroup& group, std::int64_t lo,
                             std::int64_t hi, const ChunkBody& body) {
  const int rank = current_rank();
  Rank& me = *ranks_[static_cast<std::size_t>(rank)];
  const int v = group.virtual_of(rank);
  if (v < 0) {
    throw std::logic_error("Machine::run_chunks: proc " + std::to_string(rank) +
                           " is not a member of group " + group.to_string());
  }
  check_abort();
  if (hi <= lo) return;
  beat(rank);

  const int n = group.size();
  const auto [first, last] = loop_block(lo, hi, n, v);
  if (n == 1 || !stealing_loops()) {
    // Static schedule: exactly the simulator's behaviour, no coordination.
    if (first < last) body(first, last);
    beat(rank);
    return;
  }

  // Acquire (or create) the arena for this loop episode. The key mixes the
  // group's content key with this group's per-rank loop counter — SPMD
  // order guarantees all members agree on the counter — so two consecutive
  // loops of one group, or simultaneous loops of two sibling subgroups,
  // always name different arenas. Stealing can therefore never cross
  // TASK_PARTITION siblings: a thief only ever scans slots of its own
  // arena, and membership of the arena is membership of the group.
  const std::uint64_t gkey = group.key();
  const std::uint64_t episode = ++me.loop_epoch[gkey];
  const std::uint64_t akey = gkey ^ (episode * kEpochScramble);
  std::shared_ptr<LoopArena> arena;
  {
    std::lock_guard<std::mutex> lk(loop_mu_);
    auto& slot = loop_registry_[akey];
    if (!slot) slot = std::make_shared<LoopArena>(group.members(), episode);
    arena = slot;
  }
  check_group_key_match(arena->members, group, "run_chunks");
  if (arena->epoch != episode) {
    throw std::logic_error("RankRuntime::run_chunks: arena key collision (episode " +
                           std::to_string(arena->epoch) + " vs " + std::to_string(episode) +
                           ") on group " + group.to_string());
  }

  // Publish my static block as a bottom-to-top array of chunks. Everything
  // is written before the single release store of `chunks`; thieves acquire
  // that pointer, so they see count/body/remaining without locks.
  LoopArena::Slot& mine = arena->slots[static_cast<std::size_t>(v)];
  const std::int64_t len = last - first;
  int count = 0;
  if (len > 0) {
    count = static_cast<int>(std::min<std::int64_t>(len, kLoopChunksPerWorker));
    const std::int64_t step = (len + count - 1) / count;
    // The rounded-up step can overshoot the block when len is not a
    // multiple of the chunk count (len=25 over 16 chunks steps by 2 and
    // covers 32): recompute the count so every chunk is non-empty, and
    // clamp both bounds — an unclamped lo yields lo > hi chunks whose
    // negative lengths would wedge the `remaining` join below forever.
    count = static_cast<int>((len + step - 1) / step);
    mine.storage = std::make_unique<LoopArena::Chunk[]>(static_cast<std::size_t>(count));
    for (int ci = 0; ci < count; ++ci) {
      auto& ch = mine.storage[static_cast<std::size_t>(ci)];
      ch.lo = std::min(last, first + static_cast<std::int64_t>(ci) * step);
      ch.hi = std::min(last, ch.lo + step);
      assert(ch.lo < ch.hi);
    }
    mine.count = count;
    mine.body = &body;
    mine.remaining.store(len, std::memory_order_relaxed);
    mine.chunks.store(mine.storage.get(), std::memory_order_release);
  }

  // Always run a chunk through its *owner's* body object: the closure
  // captures the owner's per-processor state (local array views, result
  // buffers), so a stolen chunk computes exactly what the owner would have.
  const auto run_one = [](LoopArena::Slot& s, LoopArena::Chunk& ch) {
    // Account the chunk done even when the body throws (an abort unwinding
    // a machine service called inside the loop): the owner's join and the
    // abort drain below both wait on `remaining`, and a skipped decrement
    // would turn the abort into a permanent spin.
    struct Done {
      LoopArena::Slot& slot;
      std::int64_t n;
      ~Done() { slot.remaining.fetch_sub(n, std::memory_order_acq_rel); }
    } done{s, ch.hi - ch.lo};
    (*s.body)(ch.lo, ch.hi);
  };

  // The member leaves as soon as its own block is done — downstream reads
  // of *other* members' results are synchronized by messages/barriers as
  // always. The last member out unregisters the arena; the shared_ptr each
  // member took at entry keeps the slots alive for any straggling scan.
  const auto leave = [&] {
    if (arena->left.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lk(loop_mu_);
      auto it = loop_registry_.find(akey);
      if (it != loop_registry_.end() && it->second == arena) loop_registry_.erase(it);
    }
  };

  try {
    // Phase 1 — drain my own deque from the bottom. A flag already seen
    // true means a sibling stole that chunk and is (or was) running it.
    for (int ci = 0; ci < count; ++ci) {
      check_abort();
      auto& ch = mine.storage[static_cast<std::size_t>(ci)];
      if (!ch.taken.exchange(true, std::memory_order_acq_rel)) {
        run_one(mine, ch);
        beat(rank);
      }
    }

    // Phase 2 — steal from siblings (top of their deques, round-robin from
    // my right neighbour, sticking with a victim while it yields work),
    // until my own block is complete *and* no stealable chunk is visible.
    // The join is a bespoke spin on `remaining`, not a barrier: it must not
    // perturb the barrier/message counters, which tests hold equal across
    // backends.
    int next_victim = (v + 1) % n;
    for (;;) {
      check_abort();
      bool stole = false;
      for (int off = 0; off < n && !stole; ++off) {
        const int u = (next_victim + off) % n;
        if (u == v) continue;
        LoopArena::Slot& s = arena->slots[static_cast<std::size_t>(u)];
        LoopArena::Chunk* arr = s.chunks.load(std::memory_order_acquire);
        if (arr == nullptr) continue;                                    // not published yet
        if (s.remaining.load(std::memory_order_acquire) == 0) continue;  // fully done
        for (int ci = s.count - 1; ci >= 0; --ci) {
          auto& ch = arr[static_cast<std::size_t>(ci)];
          if (ch.taken.load(std::memory_order_relaxed)) continue;
          if (ch.taken.exchange(true, std::memory_order_acq_rel)) continue;
          run_one(s, ch);
          beat(rank);
          const auto iters = static_cast<std::uint64_t>(ch.hi - ch.lo);
          const int victim = arena->members[static_cast<std::size_t>(u)];
          me.steals += 1;
          me.stolen_iters += iters;
          if (metrics_) {
            metrics_->steals->add(rank);
            metrics_->stolen_iters->add(rank, iters);
          }
          if (tracer_) tracer_->steal_event(rank, victim, iters, now_s());
          if (flight_) {
            flight_->record(rank, obs::FlightKind::Steal, now_s(), "steal",
                            static_cast<std::uint64_t>(victim), iters);
          }
          next_victim = u;
          stole = true;
          break;
        }
      }
      if (stole) continue;
      if (mine.remaining.load(std::memory_order_acquire) == 0) break;
      // My remaining chunks are all claimed and in flight on siblings; this
      // spin is the per-member join. It busy-waits (with yields) rather
      // than parking: the rank is neither finished nor blocked on a
      // machine service, so the deadlock monitor must keep seeing it as
      // running.
      std::this_thread::yield();
    }
  } catch (...) {
    // Unwinding this frame destroys the caller's body object (and any
    // result buffers it closes over) that slot `v` still points to. Make
    // the failure global first so in-flight thieves unwind instead of
    // parking, poison every chunk no thief has claimed yet, then wait for
    // the claimed ones to drain: after that no sibling can start (or still
    // be inside) a chunk that touches freed state. fail() keeps the first
    // real error, so re-reporting here is harmless.
    fail_current();
    for (int ci = 0; ci < count; ++ci) {
      auto& ch = mine.storage[static_cast<std::size_t>(ci)];
      if (!ch.taken.exchange(true, std::memory_order_acq_rel)) {
        mine.remaining.fetch_sub(ch.hi - ch.lo, std::memory_order_acq_rel);
      }
    }
    while (mine.remaining.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    leave();
    throw;
  }
  leave();
}

// ---------------------------------------------------------------------------
// I/O device

void RankRuntime::io_operation(std::size_t bytes) {
  const int rank = current_rank();
  Rank& me = *ranks_[static_cast<std::size_t>(rank)];
  check_abort();
  beat(rank);
  const double entry = now_s();
  rankdetail::Header& h = *ctrl_->hdr;
  // The machine has one sequential I/O device; serialize real access to it
  // just as the simulator serializes modeled access. Only time spent
  // *acquiring* the lock — genuinely queued behind another processor's
  // operation — is blocked time; the device section itself is the caller's
  // own work and stays in busy time.
  const auto token = static_cast<std::uint32_t>(rank) + 1;
  std::uint32_t expect = 0;
  if (!h.io_lock.compare_exchange_strong(expect, token, std::memory_order_acquire)) {
    RankCtrl& rc = ctrl_->ranks[rank];
    rc.reason.store(rankdetail::kReasonIo, std::memory_order_release);
    for (int spin = 0;; ++spin) {
      expect = 0;
      if (h.io_lock.compare_exchange_weak(expect, token, std::memory_order_acquire)) break;
      if (h.abort.load(std::memory_order_acquire) != 0) {
        rc.reason.store(0, std::memory_order_release);
        throw AbortError{};
      }
      if (spin < kSpinRounds) {
        std::this_thread::yield();
      } else {
        sleep_s(20e-6);
      }
    }
    rc.reason.store(0, std::memory_order_release);
    const double acquired = now_s();
    me.wait_s += acquired - entry;
    me.blocks += 1;
    if (tracer_) {
      const int prev = h.io_prev.load(std::memory_order_relaxed);
      tracer_->io_wait(rank, entry, acquired, prev >= 0 ? prev : rank, entry);
    }
  }
  h.io_prev.store(rank, std::memory_order_relaxed);
  // Device occupancy: the modeled latency/byte costs are simulator-side
  // parameters; the lock section is the serialization point and the
  // payload copy itself happens in the caller.
  (void)bytes;
  h.io_lock.store(0, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// The monitor: deadlock and child death

void RankRuntime::start_monitor() {
  {
    std::lock_guard<std::mutex> lk(monitor_mu_);
    monitor_stop_ = false;
  }
  monitor_ = std::thread([this] { monitor_loop(); });
}

void RankRuntime::stop_monitor() {
  {
    std::lock_guard<std::mutex> lk(monitor_mu_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

bool RankRuntime::monitor_sleep(double seconds) {
  std::unique_lock<std::mutex> lk(monitor_mu_);
  return !monitor_cv_.wait_for(lk, std::chrono::duration<double>(seconds),
                               [this] { return monitor_stop_; });
}

bool RankRuntime::quiescent() const {
  const Ctrl& c = *ctrl_;
  const int p = num_procs();
  const auto counters_quiet = [&] {
    int done = 0, parked = 0;
    for (int r = 0; r < p; ++r) {
      if (c.ranks[r].done.load(std::memory_order_seq_cst) != 0) {
        ++done;
      } else if (c.ranks[r].parked.load(std::memory_order_seq_cst) != 0) {
        ++parked;
      }
    }
    if (done >= p) return false;          // completing normally
    if (done + parked < p) return false;  // somebody is still running
    return c.hdr->in_transit.load(std::memory_order_seq_cst) == 0;
  };
  if (!counters_quiet()) return false;
  // Counters alone are not enough: a barrier waiter whose episode was
  // released stays parked until it runs again, which can take arbitrarily
  // long (descheduled, or stopped by a signal); such a rank is not blocked.
  // Re-check the counters after the scan: a waiter that consumed its
  // release meanwhile unparked before clearing await_slot, so one of the
  // two checks sees it.
  for (int r = 0; r < p; ++r) {
    const std::int32_t s = c.ranks[r].await_slot.load(std::memory_order_seq_cst);
    if (s < 0) continue;
    const std::uint32_t epoch = c.slots[s].epoch.load(std::memory_order_seq_cst);
    const std::uint32_t want = c.ranks[r].await_epoch.load(std::memory_order_seq_cst);
    if (static_cast<std::int32_t>(epoch - want) >= 0) return false;
  }
  return counters_quiet();
}

void RankRuntime::check_children(std::vector<char>& dead) {
  for (int r = 1; r < num_procs(); ++r) {
    if (dead[static_cast<std::size_t>(r)] != 0) continue;
    const pid_t pid = pids_[static_cast<std::size_t>(r)];
    if (pid <= 0) continue;
    siginfo_t si;
    std::memset(&si, 0, sizeof si);
    // WNOWAIT keeps the zombie reapable by reap_children().
    if (::waitid(P_PID, static_cast<id_t>(pid), &si, WEXITED | WNOHANG | WNOWAIT) != 0 ||
        si.si_pid != pid) {
      continue;
    }
    dead[static_cast<std::size_t>(r)] = 1;
    if (ctrl_->ranks[r].done.load(std::memory_order_acquire) != 0 ||
        ctrl_->hdr->abort.load(std::memory_order_acquire) != 0) {
      continue;
    }
    char msg[192];
    if (si.si_code == CLD_EXITED) {
      std::snprintf(msg, sizeof msg,
                    "RankRuntime: child process for rank %d exited with status %d "
                    "before finishing",
                    r, si.si_status);
    } else {
      std::snprintf(msg, sizeof msg, "RankRuntime: child process for rank %d killed by signal %d",
                    r, si.si_status);
    }
    fail(rankdetail::kAbortError, msg, nullptr);
  }
}

void RankRuntime::monitor_loop() {
  std::vector<char> dead(static_cast<std::size_t>(num_procs()), 0);
  const auto aborted = [this] {
    return ctrl_->hdr->abort.load(std::memory_order_acquire) != 0;
  };
  while (monitor_sleep(2e-3)) {
    if (forked()) check_children(dead);
    if (aborted()) continue;
    // Deadlock: quiescent, and no progress across two samples far enough
    // apart that any delivered wakeup would have been consumed (every park
    // re-checks on a kParkS period).
    const std::uint64_t snap = progress();
    if (!quiescent()) continue;
    if (!monitor_sleep(10e-3)) break;
    if (aborted() || !quiescent() || progress() != snap) continue;

    std::string detail = "deadlock: all processors blocked.";
    for (int r = 0; r < num_procs(); ++r) {
      const RankCtrl& rc = ctrl_->ranks[r];
      const char* reason = rc.done.load(std::memory_order_acquire) != 0
                               ? "finished"
                               : reason_name(rc.reason.load(std::memory_order_acquire));
      detail += "\n  proc " + std::to_string(r) + ": " + reason;
    }
    fail(rankdetail::kAbortDeadlock, detail.c_str(), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Introspection and stats

void RankRuntime::capture(FrozenRank* ranks, FrozenBarrier* barriers, std::uint32_t& nb) const {
  const Ctrl& c = *ctrl_;
  const int p = num_procs();
  for (int r = 0; r < p; ++r) {
    const RankCtrl& rc = c.ranks[r];
    FrozenRank& fr = ranks[r];
    const std::uint32_t reason = rc.reason.load(std::memory_order_acquire);
    fr.state = rc.done.load(std::memory_order_acquire) != 0 ? 2u : (reason != 0 ? 1u : 0u);
    fr.reason = reason;
    fr.mail_depth = rc.mail_depth.load(std::memory_order_relaxed);
    fr.loop_pending = 0;
    fr.last_beat = std::bit_cast<double>(rc.last_beat_bits.load(std::memory_order_relaxed));
    fr.cpu = rc.cpu.load(std::memory_order_relaxed);
    fr.node = rc.node.load(std::memory_order_relaxed);
  }
  if (!forked()) {
    // Unclaimed chunks still published in live loop arenas, attributed to
    // the owning member. An arena in the registry is kept alive by its
    // shared_ptr, and the claim flags are atomics. (Forked ranks never
    // steal, and a child must not take a lock copied mid-hold at fork.)
    std::lock_guard<std::mutex> lk(loop_mu_);
    for (const auto& [key, arena] : loop_registry_) {
      for (std::size_t u = 0; u < arena->slots.size(); ++u) {
        const LoopArena::Slot& s = arena->slots[u];
        const LoopArena::Chunk* arr = s.chunks.load(std::memory_order_acquire);
        if (arr == nullptr) continue;
        std::int64_t pending = 0;
        for (int ci = 0; ci < s.count; ++ci) {
          pending += arr[static_cast<std::size_t>(ci)].taken.load(std::memory_order_relaxed) ? 0 : 1;
        }
        const int owner = arena->members[u];
        if (owner >= 0 && owner < p) ranks[owner].loop_pending += pending;
      }
    }
  }
  nb = 0;
  for (int i = 0; i < c.nslots; ++i) {
    const BarrierSlot& s = c.slots[i];
    const std::uint64_t k = s.key.load(std::memory_order_acquire);
    if (k == 0 || k == rankdetail::kClaimKey) continue;
    const auto waiting = s.waiting.load(std::memory_order_acquire);
    if (waiting == 0) continue;
    barriers[nb++] = FrozenBarrier{k, static_cast<std::int32_t>(s.size.load(std::memory_order_relaxed)),
                                   static_cast<std::int32_t>(waiting)};
  }
}

obs::Introspection RankRuntime::introspect() const {
  std::vector<FrozenRank> ranks(static_cast<std::size_t>(num_procs()));
  std::vector<FrozenBarrier> barriers(static_cast<std::size_t>(ctrl_->nslots));
  std::uint32_t nb = 0;
  capture(ranks.data(), barriers.data(), nb);
  return to_introspection(now_s(), ranks.data(), num_procs(), barriers.data(), nb);
}

obs::Introspection RankRuntime::failure_introspection() const {
  const Ctrl& c = *ctrl_;
  if (c.hdr->frozen.load(std::memory_order_acquire) == 0) return {};
  return to_introspection(now_s(), c.frozen_ranks, num_procs(), c.frozen_barriers,
                          std::min<std::uint32_t>(c.hdr->frozen_barrier_n,
                                                  static_cast<std::uint32_t>(c.nslots)));
}

std::uint64_t RankRuntime::progress() const noexcept {
  // `progress` covers deposits, barrier releases and completions; the beat
  // counters cover receives, loop chunks and io, so a run that is
  // computing chunks (or spinning in a loop join) still reads as moving.
  const Ctrl& c = *ctrl_;
  std::uint64_t total = c.hdr->progress.load(std::memory_order_seq_cst) +
                        static_cast<std::uint64_t>(
                            c.hdr->finished_n.load(std::memory_order_seq_cst));
  for (int r = 0; r < num_procs(); ++r) total += c.ranks[r].beats.load(std::memory_order_relaxed);
  return total;
}

BackendStats RankRuntime::stats() const {
  const Ctrl& c = *ctrl_;
  const int p = num_procs();
  BackendStats s;
  s.clocks.reserve(static_cast<std::size_t>(p));
  bool any_pinned = false;
  for (int r = 0; r < p; ++r) {
    const RankCtrl& rc = c.ranks[r];
    runtime::ProcClock clk;
    clk.now = rc.elapsed_s;
    clk.busy = std::max(0.0, rc.elapsed_s - rc.wait_s);
    clk.idle = rc.wait_s;
    clk.blocks = rc.blocks;
    s.clocks.push_back(clk);
    s.finish_time = std::max(s.finish_time, rc.elapsed_s);
    s.messages += rc.messages;
    s.bytes += rc.bytes;
    s.barriers += rc.barriers;
    s.steals += rc.steals;
    s.stolen_iters += rc.stolen_iters;
    s.wait_ms += rc.wait_s * 1e3;
    any_pinned = any_pinned || rc.cpu.load(std::memory_order_relaxed) >= 0;
  }
  // Surface placement only when some rank actually got pinned; the common
  // unpinned case keeps the vector empty (and the JSON field out).
  if (any_pinned) {
    for (int r = 0; r < p; ++r) s.numa_nodes.push_back(c.ranks[r].node.load(std::memory_order_relaxed));
  }
  if (c.traffic != nullptr) {
    s.traffic.resize(static_cast<std::size_t>(p) * static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < s.traffic.size(); ++i) {
      s.traffic[i] = c.traffic[i].load(std::memory_order_relaxed);
    }
  }
  return s;
}

}  // namespace fxpar::exec
