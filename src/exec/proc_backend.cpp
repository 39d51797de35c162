#include "exec/proc_backend.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

#include <algorithm>
#include <bit>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <stdexcept>
#include <string>

#include "exec/threaded_backend.hpp"  // AbortError
#include "metrics/runtime_metrics.hpp"
#include "net/shm_channel.hpp"
#include "net/socket_channel.hpp"
#include "obs/flight_recorder.hpp"
#include "trace/trace.hpp"

namespace fxpar::exec {

// ---------------------------------------------------------------------------
// The shared-memory control block
//
// One fixed-size block, mapped MAP_SHARED | MAP_ANONYMOUS before the first
// fork, so every rank — parent and children — addresses the *same* physical
// words. Everything the ranks must agree on *cheaply* lives here: the abort
// word (doubling as the transports' stop flag), per-rank liveness for the
// monitor and for introspection, subset-barrier state, the progress
// counter, and the per-rank final stats. Variable-size state (payloads,
// trace shards, metric deltas) travels over the net::Channel instead.

namespace procdetail {

inline constexpr int kMaxProcs = 64;       ///< barrier membership is a u64 rank mask
inline constexpr int kBarrierSlots = 256;  ///< open-addressed group-key table
inline constexpr int kErrBytes = 4096;
inline constexpr std::uint64_t kClaimKey = ~std::uint64_t{0};  ///< slot mid-claim

// Abort word: 0 = running, 1 = abort (exception / child death), 2 = deadlock.
inline constexpr std::uint32_t kAbortNone = 0;
inline constexpr std::uint32_t kAbortError = 1;
inline constexpr std::uint32_t kAbortDeadlock = 2;

// Block reasons, mirrored into obs::WorkerState::block_reason strings.
inline constexpr std::uint32_t kReasonNone = 0;
inline constexpr std::uint32_t kReasonRecv = 1;
inline constexpr std::uint32_t kReasonBarrier = 2;
inline constexpr std::uint32_t kReasonIo = 3;

struct alignas(64) RankCtrl {
  std::atomic<std::uint32_t> parked{0};  ///< rank is (about to be) futex-parked
  std::atomic<std::uint32_t> reason{0};  ///< kReason* while blocked
  std::atomic<std::uint32_t> done{0};    ///< body returned and stats are final
  std::atomic<std::uint64_t> beats{0};   ///< runtime-service heartbeats
  std::atomic<std::uint64_t> last_beat_bits{0};  ///< bit pattern of the last beat time
  std::atomic<std::int64_t> mail_depth{0};       ///< matched-but-unreceived messages
  /// Barrier slot this rank is parked on (-1: none) and the epoch that
  /// releases it, so the deadlock monitor can tell a released waiter that
  /// has not run yet from a blocked one.
  std::atomic<std::int32_t> await_slot{-1};
  std::atomic<std::uint32_t> await_epoch{0};
  // Final per-rank counters, owner-written by finish_rank() before `done`
  // goes up; the parent reads them only after observing done (or the reap).
  double elapsed_s = 0.0;
  double wait_s = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t barriers = 0;
};

/// One subset barrier, keyed on the group's content key, claimed on first
/// use by linear probing. The epoch word is the futex all waiters sleep on;
/// the last arriver bumps it and wakes everyone — the localized-barrier
/// property (only members of this group ever touch this slot) comes from
/// keying on group content exactly like the other two backends.
struct BarrierSlot {
  std::atomic<std::uint64_t> key{0};      ///< 0 free, kClaimKey mid-claim
  std::atomic<std::uint64_t> members{0};  ///< rank bitmask (collision guard)
  std::atomic<std::uint32_t> size{0};
  std::atomic<std::uint32_t> arrived{0};
  std::atomic<std::uint32_t> epoch{0};    ///< released episodes; the futex word
  std::atomic<std::uint32_t> waiting{0};  ///< members parked in an unreleased episode
  std::atomic<std::int32_t> last_arriver{-1};   ///< published by the root pre-release
  std::atomic<std::uint32_t> pad_{0};
  std::atomic<std::uint64_t> max_arrival_bits{0};
  /// Per-vrank arrival stamps; plain doubles synchronized by the `arrived`
  /// RMW chain (each member stores before its fetch_add, the root's
  /// fetch_add acquires the whole chain).
  double arrive_t[kMaxProcs] = {};
};

struct FrozenRank {
  std::uint32_t state = 0;  ///< 0 running, 1 parked, 2 finished
  std::uint32_t reason = 0;
  std::int64_t mail_depth = 0;
  double last_beat = -1.0;
};

struct FrozenBarrier {
  std::uint64_t key = 0;
  std::int32_t size = 0;
  std::int32_t waiting = 0;
};

struct Ctrl {
  std::atomic<std::uint32_t> abort{0};      ///< also the channels' stop flag
  std::atomic<std::uint32_t> err_claim{0};  ///< first-failer CAS gate
  std::atomic<std::uint32_t> frozen{0};     ///< failure snapshot below is valid
  char err[kErrBytes] = {};

  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::int32_t> parked_n{0};
  std::atomic<std::int32_t> finished_n{0};
  /// Data frames sent and not yet drained by their destination; nonzero
  /// means the system will move on its own, so no deadlock verdict.
  std::atomic<std::int64_t> in_transit{0};

  std::atomic<std::uint32_t> io_lock{0};  ///< 0 free, else owning rank + 1
  std::atomic<std::int32_t> io_prev{-1};

  // Failure-time snapshot, written by the first failer *before* it raises
  // the abort word (every other rank then unwinds into "finished", so the
  // states that explain the failure only exist at diagnosis time).
  FrozenRank frozen_ranks[kMaxProcs];
  FrozenBarrier frozen_barriers[kBarrierSlots];
  std::uint32_t frozen_barrier_n = 0;

  BarrierSlot barriers[kBarrierSlots];
  RankCtrl ranks[kMaxProcs];
  std::atomic<std::uint64_t> traffic[kMaxProcs * kMaxProcs];
};

}  // namespace procdetail

namespace {

using procdetail::Ctrl;
using procdetail::RankCtrl;

thread_local ProcBackend* t_powner = nullptr;
thread_local int t_prank = -1;

void sleep_s(double seconds) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  ::nanosleep(&ts, nullptr);
}

// Process-shared futexes on the control block (no FUTEX_PRIVATE_FLAG: the
// waiters live in different processes). Non-Linux fallback: bounded sleeps —
// every wait site re-checks its condition on a short period anyway.
void futex_wait_u32(std::atomic<std::uint32_t>* addr, std::uint32_t expected,
                    double timeout_s) {
#ifdef __linux__
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), FUTEX_WAIT, expected, &ts,
            nullptr, 0);
#else
  if (addr->load(std::memory_order_acquire) == expected) {
    sleep_s(std::min(timeout_s, 1e-3));
  }
#endif
}

void futex_wake_all_u32(std::atomic<std::uint32_t>* addr) {
#ifdef __linux__
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), FUTEX_WAKE, INT_MAX, nullptr,
            nullptr, 0);
#else
  (void)addr;
#endif
}

const char* reason_name(std::uint32_t reason) {
  switch (reason) {
    case procdetail::kReasonRecv: return "recv";
    case procdetail::kReasonBarrier: return "barrier";
    case procdetail::kReasonIo: return "io";
  }
  return "";
}

// ---- tiny blob helpers (parent and children are the same binary image,
// so raw little-endian native encoding is exact) ----

void put_raw(std::vector<std::byte>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

template <class T>
void put(std::vector<std::byte>& out, const T& v) {
  put_raw(out, &v, sizeof v);
}

void put_str(std::vector<std::byte>& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  put_raw(out, s.data(), s.size());
}

template <class T>
T get(const std::byte* p, std::size_t len, std::size_t& off) {
  if (sizeof(T) > len - off) throw std::runtime_error("ProcBackend: truncated control frame");
  T v;
  std::memcpy(&v, p + off, sizeof v);
  off += sizeof v;
  return v;
}

std::string get_str(const std::byte* p, std::size_t len, std::size_t& off) {
  const auto n = get<std::uint32_t>(p, len, off);
  if (n > len - off) throw std::runtime_error("ProcBackend: truncated control frame");
  std::string s(reinterpret_cast<const char*>(p) + off, n);
  off += n;
  return s;
}

/// Serializes `end - base` for every counter and histogram: what this child
/// observed between fork and finish. Gauges are skipped by design — they
/// are single-writer driver-side values, not per-rank accumulations.
std::vector<std::byte> serialize_metrics_delta(const metrics::Snapshot& base,
                                               const metrics::Snapshot& end) {
  std::vector<std::byte> out;
  std::uint32_t nc = 0;
  std::vector<std::byte> body;
  for (const auto& [name, v] : end.counters) {
    const std::uint64_t d = v - base.counter(name);
    if (d == 0) continue;
    put_str(body, name);
    put<std::uint64_t>(body, d);
    ++nc;
  }
  std::uint32_t nh = 0;
  for (const auto& [name, h] : end.histograms) {
    auto it = base.histograms.find(name);
    const metrics::Snapshot::Hist* b = it == base.histograms.end() ? nullptr : &it->second;
    const std::uint64_t count_d = h.count - (b ? b->count : 0);
    const double sum_d = h.sum - (b ? b->sum : 0.0);
    if (count_d == 0 && sum_d == 0.0) continue;
    put_str(body, name);
    put<std::uint32_t>(body, static_cast<std::uint32_t>(h.buckets.size()));
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const std::uint64_t was = b && i < b->buckets.size() ? b->buckets[i] : 0;
      put<std::uint64_t>(body, h.buckets[i] - was);
    }
    put<std::uint64_t>(body, count_d);
    put<double>(body, sum_d);
    ++nh;
  }
  if (nc == 0 && nh == 0) return out;
  put<std::uint32_t>(out, nc);
  put<std::uint32_t>(out, nh);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void absorb_metrics_delta(metrics::Registry& reg, const std::byte* p, std::size_t len) {
  std::size_t off = 0;
  const auto nc = get<std::uint32_t>(p, len, off);
  const auto nh = get<std::uint32_t>(p, len, off);
  for (std::uint32_t i = 0; i < nc; ++i) {
    const std::string name = get_str(p, len, off);
    const auto d = get<std::uint64_t>(p, len, off);
    reg.counter(name)->add(0, d);
  }
  for (std::uint32_t i = 0; i < nh; ++i) {
    const std::string name = get_str(p, len, off);
    const auto nb = get<std::uint32_t>(p, len, off);
    std::vector<std::uint64_t> buckets(nb);
    for (std::uint32_t k = 0; k < nb; ++k) buckets[k] = get<std::uint64_t>(p, len, off);
    const auto count_d = get<std::uint64_t>(p, len, off);
    const auto sum_d = get<double>(p, len, off);
    reg.histogram(name)->absorb(buckets, count_d, sum_d);
  }
}

/// Finds (or claims) the barrier slot of `g` in the shared table. A slot is
/// claimed with a CAS to the sentinel key, its shape published, then the
/// real key release-stored; probers seeing the sentinel spin briefly.
procdetail::BarrierSlot* barrier_slot_for(Ctrl* c, const pgroup::ProcessorGroup& g) {
  std::uint64_t mask = 0;
  for (int m : g.members()) mask |= std::uint64_t{1} << m;
  std::uint64_t key = g.key();
  if (key == 0 || key == procdetail::kClaimKey) key ^= 0x9e3779b97f4a7c15ull;
  const auto n = static_cast<std::uint32_t>(g.size());
  const std::size_t start = key % procdetail::kBarrierSlots;
  for (int probe = 0; probe < procdetail::kBarrierSlots; ++probe) {
    procdetail::BarrierSlot& s =
        c->barriers[(start + static_cast<std::size_t>(probe)) % procdetail::kBarrierSlots];
    for (;;) {
      const std::uint64_t k = s.key.load(std::memory_order_acquire);
      if (k == procdetail::kClaimKey) {
        sleep_s(1e-6);  // another rank is mid-claim; its key lands in microseconds
        continue;
      }
      if (k == key) {
        if (s.members.load(std::memory_order_acquire) != mask ||
            s.size.load(std::memory_order_acquire) != n) {
          throw std::logic_error("ProcBackend: group key collision in barrier table for group " +
                                 g.to_string());
        }
        return &s;
      }
      if (k == 0) {
        std::uint64_t expect = 0;
        if (s.key.compare_exchange_strong(expect, procdetail::kClaimKey,
                                          std::memory_order_acq_rel)) {
          s.members.store(mask, std::memory_order_relaxed);
          s.size.store(n, std::memory_order_relaxed);
          s.key.store(key, std::memory_order_release);
          return &s;
        }
        continue;  // lost the claim race; re-examine this slot
      }
      break;  // different group; next probe
    }
  }
  throw std::runtime_error("ProcBackend: barrier slot table full (too many distinct groups)");
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / teardown

ProcBackend::ProcBackend(const machine::MachineConfig& config) : config_(config) {
  if (config_.num_procs <= 0 || config_.num_procs > procdetail::kMaxProcs) {
    throw std::invalid_argument("ProcBackend: num_procs must be in [1, " +
                                std::to_string(procdetail::kMaxProcs) + "]");
  }
  ctrl_bytes_ = sizeof(Ctrl);
  void* mem = ::mmap(nullptr, ctrl_bytes_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    throw std::runtime_error("ProcBackend: mmap of the shared control block failed");
  }
  ctrl_ = new (mem) Ctrl();
  pids_.assign(static_cast<std::size_t>(config_.num_procs), 0);
  t0_ = std::chrono::steady_clock::now();
}

ProcBackend::~ProcBackend() {
  if (monitor_.joinable()) {
    monitor_stop_.store(true, std::memory_order_release);
    monitor_.join();
  }
  // Children are reaped by run(); a child process never destroys the
  // backend (it leaves through _Exit). Atomics are trivially destructible.
  if (ctrl_ != nullptr && !is_child_) ::munmap(ctrl_, ctrl_bytes_);
}

void ProcBackend::reset_run_state() {
  Ctrl& c = *ctrl_;
  c.abort.store(0, std::memory_order_relaxed);
  c.err_claim.store(0, std::memory_order_relaxed);
  c.frozen.store(0, std::memory_order_relaxed);
  c.err[0] = '\0';
  c.progress.store(0, std::memory_order_relaxed);
  c.parked_n.store(0, std::memory_order_relaxed);
  c.finished_n.store(0, std::memory_order_relaxed);
  c.in_transit.store(0, std::memory_order_relaxed);
  c.io_lock.store(0, std::memory_order_relaxed);
  c.io_prev.store(-1, std::memory_order_relaxed);
  c.frozen_barrier_n = 0;
  for (int r = 0; r < num_procs(); ++r) {
    RankCtrl& rc = c.ranks[r];
    rc.parked.store(0, std::memory_order_relaxed);
    rc.reason.store(0, std::memory_order_relaxed);
    rc.done.store(0, std::memory_order_relaxed);
    rc.beats.store(0, std::memory_order_relaxed);
    rc.last_beat_bits.store(std::bit_cast<std::uint64_t>(-1.0), std::memory_order_relaxed);
    rc.mail_depth.store(0, std::memory_order_relaxed);
    rc.await_slot.store(-1, std::memory_order_relaxed);
    rc.await_epoch.store(0, std::memory_order_relaxed);
    rc.elapsed_s = rc.wait_s = 0.0;
    rc.blocks = rc.messages = rc.bytes = rc.barriers = 0;
  }
  for (auto& s : c.barriers) {
    s.key.store(0, std::memory_order_relaxed);
    s.members.store(0, std::memory_order_relaxed);
    s.size.store(0, std::memory_order_relaxed);
    s.arrived.store(0, std::memory_order_relaxed);
    s.epoch.store(0, std::memory_order_relaxed);
    s.waiting.store(0, std::memory_order_relaxed);
    s.last_arriver.store(-1, std::memory_order_relaxed);
    s.max_arrival_bits.store(0, std::memory_order_relaxed);
  }
  if (config_.record_traffic) {
    const std::size_t n = static_cast<std::size_t>(num_procs()) *
                          static_cast<std::size_t>(num_procs());
    for (std::size_t i = 0; i < n; ++i) c.traffic[i].store(0, std::memory_order_relaxed);
  }
  matched_.clear();
  ctrl_frames_.clear();
  barrier_epoch_.clear();
  wait_s_ = 0.0;
  blocks_ = messages_ = bytes_sent_ = barriers_ = 0;
  pids_.assign(static_cast<std::size_t>(num_procs()), 0);
}

// ---------------------------------------------------------------------------
// Clocks, heartbeats, abort

double ProcBackend::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_).count();
}

double ProcBackend::now(int rank) const {
  if (rank < 0 || rank >= num_procs()) {
    throw std::out_of_range("ProcBackend::now: bad rank " + std::to_string(rank));
  }
  // t0_ is set before the fork, and CLOCK_MONOTONIC is machine-global, so
  // every process reads (nearly) the same time base.
  return now_s();
}

int ProcBackend::current_rank() const {
  if (t_powner != this || t_prank < 0) {
    throw std::logic_error("ProcBackend: processor operation outside a processor body");
  }
  return t_prank;
}

void ProcBackend::charge(double /*seconds*/) {
  // Real time passes by itself; modeled cost parameters do not apply here.
}

void ProcBackend::beat() {
  RankCtrl& rc = ctrl_->ranks[t_prank];
  rc.last_beat_bits.store(std::bit_cast<std::uint64_t>(now_s()), std::memory_order_relaxed);
  rc.beats.fetch_add(1, std::memory_order_relaxed);
}

void ProcBackend::check_abort() const {
  if (ctrl_->abort.load(std::memory_order_acquire) != procdetail::kAbortNone) {
    throw AbortError{};
  }
}

// ---------------------------------------------------------------------------
// First-failure protocol

bool ProcBackend::fail_shm(std::uint32_t kind, const char* text) {
  Ctrl& c = *ctrl_;
  std::uint32_t expect = 0;
  if (!c.err_claim.compare_exchange_strong(expect, 1, std::memory_order_acq_rel)) {
    return false;  // someone failed first; their diagnosis stands
  }
  std::snprintf(c.err, procdetail::kErrBytes, "%s", text != nullptr ? text : "unknown error");
  // Freeze what explains the failure before the abort word lets every other
  // rank unwind into "finished".
  for (int r = 0; r < num_procs(); ++r) {
    const RankCtrl& rc = c.ranks[r];
    procdetail::FrozenRank& fr = c.frozen_ranks[r];
    const std::uint32_t reason = rc.reason.load(std::memory_order_acquire);
    fr.state = rc.done.load(std::memory_order_acquire) != 0 ? 2u : (reason != 0 ? 1u : 0u);
    fr.reason = reason;
    fr.mail_depth = rc.mail_depth.load(std::memory_order_relaxed);
    fr.last_beat = std::bit_cast<double>(rc.last_beat_bits.load(std::memory_order_relaxed));
  }
  std::uint32_t nb = 0;
  for (auto& s : c.barriers) {
    const std::uint64_t k = s.key.load(std::memory_order_acquire);
    if (k == 0 || k == procdetail::kClaimKey) continue;
    const auto arrived = s.arrived.load(std::memory_order_acquire);
    if (arrived == 0) continue;
    c.frozen_barriers[nb++] = procdetail::FrozenBarrier{
        k, static_cast<std::int32_t>(s.size.load(std::memory_order_relaxed)),
        static_cast<std::int32_t>(arrived)};
  }
  c.frozen_barrier_n = nb;
  c.frozen.store(1, std::memory_order_release);
  c.abort.store(kind, std::memory_order_seq_cst);
  wake_all_barriers();
  return true;
}

void ProcBackend::wake_all_barriers() {
  for (auto& s : ctrl_->barriers) futex_wake_all_u32(&s.epoch);
}

// ---------------------------------------------------------------------------
// Messaging

void ProcBackend::drain_channel() {
  if (!chan_) return;
  std::vector<net::Frame> frames;
  if (!chan_->drain(frames)) return;
  RankCtrl& rc = ctrl_->ranks[chan_->rank()];
  for (auto& f : frames) {
    if (f.kind == net::FrameKind::Data) {
      // Wire layout of a Data frame: [u64 trace id][f64 send time][payload].
      if (f.payload.size() < 16) continue;
      PendingMsg m;
      std::memcpy(&m.trace_id, f.payload.data(), 8);
      std::memcpy(&m.sent_at, f.payload.data() + 8, 8);
      f.payload.erase(f.payload.begin(), f.payload.begin() + 16);
      m.data = std::move(f.payload);
      matched_[MailKey{f.src, f.tag}].push_back(std::move(m));
      rc.mail_depth.fetch_add(1, std::memory_order_relaxed);
      ctrl_->in_transit.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      ctrl_frames_.push_back(std::move(f));  // child residue; absorbed post-join
    }
  }
}

void ProcBackend::deposit(int dst, std::uint64_t tag, Payload data) {
  if (dst < 0 || dst >= num_procs()) {
    throw std::out_of_range("Machine::deposit: bad destination " + std::to_string(dst));
  }
  const int src = current_rank();
  check_abort();
  beat();
  const std::size_t nbytes = data.size();
  const double sent_at = now_s();
  std::uint64_t trace_id = 0;
  if (tracer_) trace_id = tracer_->message_sent(src, dst, tag, nbytes, sent_at, sent_at);
  messages_ += 1;
  bytes_sent_ += nbytes;
  if (config_.record_traffic) {
    ctrl_->traffic[static_cast<std::size_t>(src) * static_cast<std::size_t>(num_procs()) +
                   static_cast<std::size_t>(dst)]
        .fetch_add(nbytes, std::memory_order_relaxed);
  }

  if (dst == src) {
    // Self-sends never touch a transport: match locally, exactly like the
    // other backends' self-mailbox path.
    matched_[MailKey{src, tag}].push_back(PendingMsg{std::move(data), trace_id, sent_at});
    ctrl_->ranks[src].mail_depth.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::vector<std::byte> buf;
    buf.reserve(16 + nbytes);
    put<std::uint64_t>(buf, trace_id);
    put<double>(buf, sent_at);
    put_raw(buf, data.data(), nbytes);
    // Count the frame in flight *before* it becomes drainable, so the
    // deadlock monitor can never see "all parked" with a message en route.
    ctrl_->in_transit.fetch_add(1, std::memory_order_seq_cst);
    try {
      chan_->send(dst, net::FrameKind::Data, tag, buf.data(), buf.size());
    } catch (const net::ChannelStopped&) {
      ctrl_->in_transit.fetch_sub(1, std::memory_order_seq_cst);
      throw AbortError{};
    }
  }
  ctrl_->progress.fetch_add(1, std::memory_order_seq_cst);
}

Payload ProcBackend::receive(int src, std::uint64_t tag) {
  if (src < 0 || src >= num_procs()) {
    throw std::out_of_range("Machine::receive: bad source " + std::to_string(src));
  }
  const int rank = current_rank();
  beat();
  const MailKey key{src, tag};
  const double entry = now_s();
  bool blocked = false;
  RankCtrl& rc = ctrl_->ranks[rank];

  for (;;) {
    check_abort();
    drain_channel();
    auto it = matched_.find(key);
    if (it != matched_.end() && !it->second.empty()) {
      PendingMsg m = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) matched_.erase(it);
      rc.mail_depth.fetch_sub(1, std::memory_order_relaxed);
      beat();
      if (blocked) {
        wait_s_ += now_s() - entry;
        blocks_ += 1;
      }
      if (tracer_ && m.trace_id != 0) {
        tracer_->message_received_at(m.trace_id, rank, src, m.sent_at, entry, now_s());
      }
      return std::move(m.data);
    }
    // Park on the channel doorbell. The bounded timeout keeps the loop
    // responsive to the abort word even without a wake.
    blocked = true;
    rc.reason.store(procdetail::kReasonRecv, std::memory_order_release);
    rc.parked.store(1, std::memory_order_seq_cst);
    ctrl_->parked_n.fetch_add(1, std::memory_order_seq_cst);
    chan_->wait(0.005);
    ctrl_->parked_n.fetch_sub(1, std::memory_order_seq_cst);
    rc.parked.store(0, std::memory_order_seq_cst);
    rc.reason.store(0, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// Subset barriers

void ProcBackend::barrier(const pgroup::ProcessorGroup& group) {
  const int rank = current_rank();
  if (!group.contains(rank)) {
    throw std::logic_error("Machine::barrier: proc " + std::to_string(rank) +
                           " is not a member of group " + group.to_string());
  }
  check_abort();
  beat();
  barriers_ += 1;
  const int n = group.size();
  if (n == 1) return;

  procdetail::BarrierSlot* slot = barrier_slot_for(ctrl_, group);
  const std::uint64_t episode = ++barrier_epoch_[group.key()];
  const auto want = static_cast<std::uint32_t>(episode);
  const int vrank = group.virtual_of(rank);
  const double arrived_at = now_s();
  slot->arrive_t[vrank] = arrived_at;
  RankCtrl& rc = ctrl_->ranks[rank];

  if (slot->arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      static_cast<std::uint32_t>(n)) {
    // Root (the last arriver): publish the release cause, reset the slot
    // for the next episode, then bump the epoch and wake the waiters.
    int last = 0;
    double max_t = slot->arrive_t[0];
    for (int i = 1; i < n; ++i) {
      if (slot->arrive_t[i] >= max_t) {
        max_t = slot->arrive_t[i];
        last = i;
      }
    }
    slot->last_arriver.store(group.members()[static_cast<std::size_t>(last)],
                             std::memory_order_relaxed);
    slot->max_arrival_bits.store(std::bit_cast<std::uint64_t>(max_t),
                                 std::memory_order_relaxed);
    slot->arrived.store(0, std::memory_order_relaxed);
    slot->epoch.fetch_add(1, std::memory_order_seq_cst);
    ctrl_->progress.fetch_add(1, std::memory_order_seq_cst);
    futex_wake_all_u32(&slot->epoch);
  } else {
    rc.reason.store(procdetail::kReasonBarrier, std::memory_order_release);
    rc.await_epoch.store(want, std::memory_order_seq_cst);
    rc.await_slot.store(static_cast<std::int32_t>(slot - ctrl_->barriers),
                        std::memory_order_seq_cst);
    rc.parked.store(1, std::memory_order_seq_cst);
    ctrl_->parked_n.fetch_add(1, std::memory_order_seq_cst);
    slot->waiting.fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      const std::uint32_t seen = slot->epoch.load(std::memory_order_seq_cst);
      if (static_cast<std::int32_t>(seen - want) >= 0) break;
      if (ctrl_->abort.load(std::memory_order_acquire) != 0) break;
      futex_wait_u32(&slot->epoch, seen, 0.005);
      // Keep draining while parked so producers' rings never fill behind a
      // barrier (and control frames from finishing children keep moving).
      drain_channel();
    }
    slot->waiting.fetch_sub(1, std::memory_order_seq_cst);
    ctrl_->parked_n.fetch_sub(1, std::memory_order_seq_cst);
    // Unpark before withdrawing the pending-wakeup state, so the monitor's
    // scan always sees one of the two.
    rc.parked.store(0, std::memory_order_seq_cst);
    rc.await_slot.store(-1, std::memory_order_seq_cst);
    rc.reason.store(0, std::memory_order_release);
  }
  check_abort();
  beat();

  const double released_at = now_s();
  if (released_at > arrived_at) {
    wait_s_ += released_at - arrived_at;
    blocks_ += 1;
  }
  if (tracer_) {
    tracer_->barrier_record(
        group.key(), episode, rank, arrived_at, released_at,
        slot->last_arriver.load(std::memory_order_relaxed),
        std::bit_cast<double>(slot->max_arrival_bits.load(std::memory_order_relaxed)));
  }
}

// ---------------------------------------------------------------------------
// Loops and I/O

void ProcBackend::run_chunks(const pgroup::ProcessorGroup& group, std::int64_t lo,
                             std::int64_t hi, const ChunkBody& body) {
  const int rank = current_rank();
  const int v = group.virtual_of(rank);
  if (v < 0) {
    throw std::logic_error("Machine::run_chunks: proc " + std::to_string(rank) +
                           " is not a member of group " + group.to_string());
  }
  check_abort();
  if (hi <= lo) return;
  beat();
  // Static block schedule only: stealing would mean shipping the body
  // closure (and the owner's captured state) across address spaces.
  const auto [first, last] = loop_block(lo, hi, group.size(), v);
  if (first < last) body(first, last);
  beat();
}

void ProcBackend::io_operation(std::size_t bytes) {
  const int rank = current_rank();
  check_abort();
  beat();
  const double entry = now_s();
  RankCtrl& rc = ctrl_->ranks[rank];
  const auto token = static_cast<std::uint32_t>(rank) + 1;
  std::uint32_t expect = 0;
  if (!ctrl_->io_lock.compare_exchange_strong(expect, token, std::memory_order_acq_rel)) {
    rc.reason.store(procdetail::kReasonIo, std::memory_order_release);
    for (;;) {
      expect = 0;
      if (ctrl_->io_lock.compare_exchange_weak(expect, token, std::memory_order_acq_rel)) {
        break;
      }
      if (ctrl_->abort.load(std::memory_order_acquire) != 0) {
        rc.reason.store(0, std::memory_order_release);
        throw AbortError{};
      }
      sleep_s(20e-6);
    }
    rc.reason.store(0, std::memory_order_release);
    const double acquired = now_s();
    wait_s_ += acquired - entry;
    blocks_ += 1;
    if (tracer_) {
      const int prev = ctrl_->io_prev.load(std::memory_order_acquire);
      tracer_->io_wait(rank, entry, acquired, prev >= 0 ? prev : rank, entry);
    }
  }
  ctrl_->io_prev.store(rank, std::memory_order_relaxed);
  // One sequential device: the lock section is the serialization point;
  // the payload work itself happens in the caller, like the threaded engine.
  (void)bytes;
  ctrl_->io_lock.store(0, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// The run: fork, execute, monitor, merge

void ProcBackend::run(const std::function<void(int)>& body) {
  if (is_child_) {
    throw std::logic_error("ProcBackend::run: nested run inside a forked child");
  }
  reset_run_state();
  const int p = num_procs();
  t0_ = std::chrono::steady_clock::now();
  if (tracer_) tracer_->set_concurrent(p);

  transport_ = config_.transport == TransportKind::Tcp
                   ? std::unique_ptr<net::Transport>(std::make_unique<net::TcpTransport>(p))
                   : std::unique_ptr<net::Transport>(std::make_unique<net::ShmTransport>(p));
  chan_ = transport_->attach(0);
  chan_->set_stop(&ctrl_->abort);

  // Flush stdio so forked children never replay buffered parent output.
  std::fflush(stdout);
  std::fflush(stderr);
  for (int r = 1; r < p; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      fail_shm(procdetail::kAbortError, "ProcBackend: fork failed");
      break;  // already-forked children observe the abort word and exit
    }
    if (pid == 0) child_main(body, r);  // never returns
    pids_[static_cast<std::size_t>(r)] = pid;
  }
  monitor_stop_.store(false, std::memory_order_release);
  monitor_ = std::thread([this] { monitor_loop(); });

  // The parent doubles as rank 0 on the calling thread.
  t_powner = this;
  t_prank = 0;
  beat();
  std::exception_ptr my_err;
  bool i_failed_first = false;
  if (ctrl_->abort.load(std::memory_order_acquire) == 0) {
    try {
      body(0);
    } catch (const AbortError&) {
      // Unwound by someone else's failure; the shm error text stands.
    } catch (const std::exception& e) {
      my_err = std::current_exception();
      i_failed_first = fail_shm(procdetail::kAbortError, e.what());
    } catch (...) {
      my_err = std::current_exception();
      i_failed_first = fail_shm(procdetail::kAbortError, "unknown exception in processor body");
    }
  }
  finish_rank(0);
  ctrl_->ranks[0].done.store(1, std::memory_order_seq_cst);
  ctrl_->finished_n.fetch_add(1, std::memory_order_seq_cst);
  ctrl_->progress.fetch_add(1, std::memory_order_seq_cst);
  t_powner = nullptr;
  t_prank = -1;

  wait_for_children();
  monitor_stop_.store(true, std::memory_order_release);
  monitor_.join();
  reap_children();

  if (ctrl_->abort.load(std::memory_order_acquire) == 0) absorb_residue();
  if (tracer_) tracer_->merge_concurrent();
  chan_.reset();
  transport_.reset();

  const std::uint32_t aborted = ctrl_->abort.load(std::memory_order_acquire);
  if (aborted != 0) {
    const std::string text(ctrl_->err);
    if (aborted == procdetail::kAbortDeadlock) throw runtime::DeadlockError(text);
    if (i_failed_first && my_err) std::rethrow_exception(my_err);
    throw std::runtime_error(text);
  }
}

void ProcBackend::child_main(const std::function<void(int)>& body, int rank) {
  is_child_ = true;
  t_powner = this;
  t_prank = rank;
  // Parent-only bookkeeping inherited through fork must not act here.
  pids_.assign(pids_.size(), 0);
  matched_.clear();
  ctrl_frames_.clear();
  barrier_epoch_.clear();

  transport_->isolate(rank);
  chan_ = transport_->attach(rank);
  chan_->set_stop(&ctrl_->abort);

  // Fork-time baselines: copy-on-write hands this child the registry and
  // flight rings exactly as they stood at fork, so "what this rank did" is
  // precisely the end-state minus these.
  metrics::Snapshot fork_snap;
  if (metrics_) fork_snap = metrics_->registry.snapshot();
  const std::uint64_t fork_flight = flight_ ? flight_->ring_total(rank) : 0;

  beat();
  int code = 0;
  try {
    body(rank);
  } catch (const AbortError&) {
    code = 3;
  } catch (const net::ChannelStopped&) {
    code = 3;
  } catch (const std::exception& e) {
    fail_shm(procdetail::kAbortError, e.what());
    code = 2;
  } catch (...) {
    fail_shm(procdetail::kAbortError, "unknown exception in processor body");
    code = 2;
  }

  if (code == 0 && ctrl_->abort.load(std::memory_order_acquire) == 0) {
    finish_rank(rank);
    try {
      ship_residue(rank, fork_snap, fork_flight);
      ctrl_->ranks[rank].done.store(1, std::memory_order_seq_cst);
      ctrl_->finished_n.fetch_add(1, std::memory_order_seq_cst);
      ctrl_->progress.fetch_add(1, std::memory_order_seq_cst);
      // Done last: per-source FIFO guarantees rank 0 holds every residue
      // frame of this child once it sees the Done.
      chan_->send(0, net::FrameKind::Done, 0, nullptr, 0);
    } catch (...) {
      code = 3;  // aborted mid-residue; the parent reaps us either way
    }
  } else if (code == 0) {
    code = 3;
  }
  // _Exit, not exit: a forked child must not run the parent's atexit
  // handlers or static destructors.
  std::_Exit(code);
}

void ProcBackend::finish_rank(int rank) {
  RankCtrl& rc = ctrl_->ranks[rank];
  rc.elapsed_s = now_s();
  rc.wait_s = wait_s_;
  rc.blocks = blocks_;
  rc.messages = messages_;
  rc.bytes = bytes_sent_;
  rc.barriers = barriers_;
}

void ProcBackend::ship_residue(int rank, const metrics::Snapshot& fork_snap,
                               std::uint64_t fork_flight_total) {
  if (metrics_) {
    const auto blob = serialize_metrics_delta(fork_snap, metrics_->registry.snapshot());
    if (!blob.empty()) {
      chan_->send(0, net::FrameKind::Metrics, 0, blob.data(), blob.size());
    }
  }
  if (tracer_) {
    const auto blob = tracer_->serialize_shard(rank);
    chan_->send(0, net::FrameKind::Trace, 0, blob.data(), blob.size());
  }
  if (flight_) {
    const auto events = flight_->ring_events(rank);
    const std::uint64_t fresh = flight_->ring_total(rank) - fork_flight_total;
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(fresh, events.size()));
    if (n > 0) {
      std::vector<std::byte> blob(n * sizeof(obs::FlightEvent));
      std::memcpy(blob.data(), events.data() + (events.size() - n),
                  n * sizeof(obs::FlightEvent));
      chan_->send(0, net::FrameKind::Flight, n, blob.data(), blob.size());
    }
  }
}

void ProcBackend::absorb_residue() {
  for (auto& f : ctrl_frames_) {
    switch (f.kind) {
      case net::FrameKind::Metrics:
        if (metrics_) {
          absorb_metrics_delta(metrics_->registry, f.payload.data(), f.payload.size());
        }
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
  ctrl_frames_.clear();
}

void ProcBackend::wait_for_children() {
  const int p = num_procs();
  std::vector<char> got_done(static_cast<std::size_t>(p), 0);
  got_done[0] = 1;
  int ndone = 1;
  const auto scan = [&] {
    for (const auto& f : ctrl_frames_) {
      if (f.kind == net::FrameKind::Done && f.src >= 1 && f.src < p &&
          got_done[static_cast<std::size_t>(f.src)] == 0) {
        got_done[static_cast<std::size_t>(f.src)] = 1;
        ++ndone;
      }
    }
  };
  scan();  // Done frames can already sit here, drained during rank 0's body
  while (ndone < p) {
    if (ctrl_->abort.load(std::memory_order_acquire) != 0) return;  // reap takes over
    drain_channel();
    scan();
    if (ndone >= p) break;
    chan_->wait(0.01);
  }
}

void ProcBackend::reap_children() {
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

void ProcBackend::monitor_loop() {
  const int p = num_procs();
  std::vector<char> dead(static_cast<std::size_t>(p), 0);

  const auto counters_quiet = [&]() -> bool {
    int done = 0, parked = 0;
    for (int r = 0; r < p; ++r) {
      const RankCtrl& rc = ctrl_->ranks[r];
      if (rc.done.load(std::memory_order_seq_cst) != 0) {
        ++done;
      } else if (rc.parked.load(std::memory_order_seq_cst) != 0) {
        ++parked;
      }
    }
    if (done >= p) return false;           // completing normally
    if (done + parked < p) return false;   // somebody is still running
    if (ctrl_->in_transit.load(std::memory_order_seq_cst) != 0) return false;
    return true;
  };
  // Counters alone are not enough: a barrier waiter whose episode was
  // released stays "parked" until its process runs again, which can take
  // arbitrarily long (descheduled, or stopped by a signal). Like the
  // threaded backend's pending-wakeup scan, such a rank is not blocked.
  // Re-check the counters after the scan: a waiter that consumed its
  // release meanwhile unparked before clearing await_slot, so one of the
  // two checks sees it.
  const auto quiescent_now = [&]() -> bool {
    if (!counters_quiet()) return false;
    for (int r = 0; r < p; ++r) {
      const RankCtrl& rc = ctrl_->ranks[r];
      const std::int32_t s = rc.await_slot.load(std::memory_order_seq_cst);
      if (s < 0) continue;
      const std::uint32_t epoch = ctrl_->barriers[s].epoch.load(std::memory_order_seq_cst);
      const std::uint32_t want = rc.await_epoch.load(std::memory_order_seq_cst);
      if (static_cast<std::int32_t>(epoch - want) >= 0) return false;
    }
    return counters_quiet();
  };

  while (!monitor_stop_.load(std::memory_order_acquire)) {
    sleep_s(2e-3);

    // Child death: a rank that exits before reporting done took its part of
    // the program with it — everyone else would block forever. WNOWAIT
    // keeps the zombie reapable by reap_children().
    for (int r = 1; r < p; ++r) {
      if (dead[static_cast<std::size_t>(r)] != 0) continue;
      const pid_t pid = pids_[static_cast<std::size_t>(r)];
      if (pid <= 0) continue;
      siginfo_t si;
      std::memset(&si, 0, sizeof si);
      if (::waitid(P_PID, static_cast<id_t>(pid), &si, WEXITED | WNOHANG | WNOWAIT) == 0 &&
          si.si_pid == pid) {
        dead[static_cast<std::size_t>(r)] = 1;
        if (ctrl_->ranks[r].done.load(std::memory_order_acquire) == 0 &&
            ctrl_->abort.load(std::memory_order_acquire) == 0) {
          char msg[192];
          if (si.si_code == CLD_EXITED) {
            std::snprintf(msg, sizeof msg,
                          "ProcBackend: child process for rank %d exited with status %d "
                          "before finishing",
                          r, si.si_status);
          } else {
            std::snprintf(msg, sizeof msg,
                          "ProcBackend: child process for rank %d killed by signal %d", r,
                          si.si_status);
          }
          fail_shm(procdetail::kAbortError, msg);
        }
      }
    }

    if (ctrl_->abort.load(std::memory_order_acquire) != 0) continue;

    // Deadlock: the same quiescence rule as the threaded engine — every
    // unfinished rank parked, nothing in transit, and no progress across
    // two samples far enough apart that any delivered wakeup would have
    // been consumed (the park loops re-check on a 5 ms period).
    const std::uint64_t snap = progress();
    if (!quiescent_now()) continue;
    sleep_s(10e-3);
    if (monitor_stop_.load(std::memory_order_acquire)) break;
    if (ctrl_->abort.load(std::memory_order_acquire) != 0) continue;
    if (!quiescent_now() || progress() != snap) continue;

    std::string detail = "deadlock: all processors blocked.";
    for (int r = 0; r < p; ++r) {
      const RankCtrl& rc = ctrl_->ranks[r];
      const char* reason =
          rc.done.load(std::memory_order_acquire) != 0
              ? "finished"
              : reason_name(rc.reason.load(std::memory_order_acquire));
      detail += "\n  proc " + std::to_string(r) + ": " + (reason[0] != '\0' ? reason : "running");
    }
    fail_shm(procdetail::kAbortDeadlock, detail.c_str());
  }
}

// ---------------------------------------------------------------------------
// Introspection and stats

obs::Introspection ProcBackend::introspect() const {
  obs::Introspection out;
  out.now = now_s();
  const int p = num_procs();
  out.workers.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const RankCtrl& rc = ctrl_->ranks[r];
    obs::WorkerState ws;
    ws.rank = r;
    const std::uint32_t reason = rc.reason.load(std::memory_order_acquire);
    if (rc.done.load(std::memory_order_acquire) != 0) {
      ws.state = "finished";
    } else if (reason != 0) {
      ws.state = "parked";
      ws.block_reason = reason_name(reason);
    } else {
      ws.state = "running";
    }
    ws.mailbox_depth = rc.mail_depth.load(std::memory_order_relaxed);
    ws.last_beat = std::bit_cast<double>(rc.last_beat_bits.load(std::memory_order_relaxed));
    out.workers.push_back(std::move(ws));
  }
  for (const auto& s : ctrl_->barriers) {
    const std::uint64_t k = s.key.load(std::memory_order_acquire);
    if (k == 0 || k == procdetail::kClaimKey) continue;
    const auto arrived = s.arrived.load(std::memory_order_acquire);
    if (arrived == 0) continue;
    out.barriers.push_back(obs::BarrierOccupancy{
        k, static_cast<int>(s.size.load(std::memory_order_relaxed)),
        static_cast<int>(arrived)});
  }
  return out;
}

obs::Introspection ProcBackend::failure_introspection() const {
  obs::Introspection out;
  if (ctrl_->frozen.load(std::memory_order_acquire) == 0) return out;
  out.now = now_s();
  const int p = num_procs();
  out.workers.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const procdetail::FrozenRank& fr = ctrl_->frozen_ranks[r];
    obs::WorkerState ws;
    ws.rank = r;
    ws.state = fr.state == 2 ? "finished" : fr.state == 1 ? "parked" : "running";
    if (fr.state == 1) ws.block_reason = reason_name(fr.reason);
    ws.mailbox_depth = fr.mail_depth;
    ws.last_beat = fr.last_beat;
    out.workers.push_back(std::move(ws));
  }
  const std::uint32_t nb =
      std::min<std::uint32_t>(ctrl_->frozen_barrier_n, procdetail::kBarrierSlots);
  for (std::uint32_t i = 0; i < nb; ++i) {
    const procdetail::FrozenBarrier& fb = ctrl_->frozen_barriers[i];
    out.barriers.push_back(obs::BarrierOccupancy{fb.key, fb.size, fb.waiting});
  }
  return out;
}

std::uint64_t ProcBackend::progress() const noexcept {
  std::uint64_t total = ctrl_->progress.load(std::memory_order_seq_cst) +
                        static_cast<std::uint64_t>(
                            ctrl_->finished_n.load(std::memory_order_seq_cst));
  for (int r = 0; r < num_procs(); ++r) {
    total += ctrl_->ranks[r].beats.load(std::memory_order_relaxed);
  }
  return total;
}

BackendStats ProcBackend::stats() const {
  BackendStats s;
  const int p = num_procs();
  s.clocks.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const RankCtrl& rc = ctrl_->ranks[r];
    runtime::ProcClock c;
    c.now = rc.elapsed_s;
    c.busy = std::max(0.0, rc.elapsed_s - rc.wait_s);
    c.idle = rc.wait_s;
    c.blocks = rc.blocks;
    s.clocks.push_back(c);
    s.finish_time = std::max(s.finish_time, rc.elapsed_s);
    s.messages += rc.messages;
    s.bytes += rc.bytes;
    s.barriers += rc.barriers;
    s.wait_ms += rc.wait_s * 1e3;
  }
  if (config_.record_traffic) {
    s.traffic.resize(static_cast<std::size_t>(p) * static_cast<std::size_t>(p));
    for (std::size_t i = 0; i < s.traffic.size(); ++i) {
      s.traffic[i] = ctrl_->traffic[i].load(std::memory_order_relaxed);
    }
  }
  return s;
}

}  // namespace fxpar::exec
