#include "exec/sim_backend.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace fxpar::exec {

const char* backend_kind_name(BackendKind k) noexcept {
  switch (k) {
    case BackendKind::Sim: return "sim";
    case BackendKind::Threads: return "threads";
    case BackendKind::Proc: return "proc";
  }
  return "?";
}

const char* transport_kind_name(TransportKind t) noexcept {
  switch (t) {
    case TransportKind::Shm: return "shm";
    case TransportKind::Tcp: return "tcp";
  }
  return "?";
}

SimBackend::SimBackend(const machine::MachineConfig& config) : config_(config) {
  const auto p = static_cast<std::size_t>(config_.num_procs);
  sim_ = std::make_unique<runtime::Simulator>(config_.num_procs, config_.stack_bytes);
  mailboxes_.resize(p);
  waits_.resize(p);
  own_words_ = std::make_unique<obs::RankWords[]>(p);
  words_ = own_words_.get();
  if (config_.record_traffic) {
    own_traffic_ = std::make_unique<std::atomic<std::uint64_t>[]>(p * p);
    traffic_ = own_traffic_.get();
  }
}

SimBackend::~SimBackend() = default;

double SimBackend::now(int rank) const { return sim_->clock(rank).now; }

int SimBackend::current_rank() const { return sim_->current_rank(); }

void SimBackend::charge(double seconds) {
  sim_->advance(seconds);
  // Accumulated modeled compute. All fibers run on the simulator's one OS
  // thread, so the gauge's single-writer contract holds.
  sink_->modeled_busy(seconds);
}

void SimBackend::run(const std::function<void(int)>& body) {
  if (ran_) {
    // A finished simulator cannot respawn its ranks; reruns (e.g. a Machine
    // accumulating metrics across programs) get a fresh one, like the
    // threaded backend's reset_run_state(). Modeled clocks restart at zero.
    sim_ = std::make_unique<runtime::Simulator>(config_.num_procs, config_.stack_bytes);
    mailboxes_.assign(static_cast<std::size_t>(config_.num_procs), {});
    waits_.assign(static_cast<std::size_t>(config_.num_procs), {});
    barriers_.clear();
    io_available_ = 0.0;
    io_prev_proc_ = -1;
    progress_ = 0;
  }
  ran_ = true;
  sim_->set_tracer(sink_->tracer());
  for (int r = 0; r < num_procs(); ++r) {
    sim_->spawn(r, [&body, r] { body(r); });
  }
  sim_->run();
}

obs::Introspection SimBackend::introspect() const {
  obs::Introspection out;
  const int p = num_procs();
  out.workers.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    obs::WorkerState ws;
    ws.rank = r;
    if (sim_->is_finished(r)) {
      ws.state = "finished";
    } else if (sim_->is_blocked(r)) {
      ws.state = "parked";
      ws.block_reason = sim_->block_reason(r);
    } else {
      ws.state = "running";
    }
    for (const auto& [key, q] : mailboxes_[static_cast<std::size_t>(r)]) {
      ws.mailbox_depth += static_cast<std::int64_t>(q.size());
    }
    // The modeled clock doubles as the heartbeat: it stamps the last
    // moment this processor executed or was charged time.
    ws.last_beat = sim_->clock(r).now;
    out.now = std::max(out.now, sim_->clock(r).now);
    out.workers.push_back(std::move(ws));
  }
  for (const auto& [key, st] : barriers_) {
    if (st.arrived > 0) {
      out.barriers.push_back(obs::BarrierOccupancy{key, st.size, st.arrived});
    }
  }
  return out;
}

BackendStats SimBackend::stats() const {
  BackendStats s;
  s.finish_time = sim_->finish_time();
  s.clocks.reserve(static_cast<std::size_t>(num_procs()));
  for (int r = 0; r < num_procs(); ++r) s.clocks.push_back(sim_->clock(r));
  return s;
}

void SimBackend::deposit(int dst, std::uint64_t tag, Payload data) {
  if (dst < 0 || dst >= num_procs()) {
    throw std::out_of_range("Machine::deposit: bad destination " + std::to_string(dst));
  }
  const int src = sim_->current_rank();
  const std::size_t bytes = data.size();
  // Sender-side costs: software overhead plus wire serialization.
  const runtime::SimTime send_start = sim_->now();
  sim_->advance(config_.send_overhead + static_cast<double>(bytes) * config_.byte_time);
  const runtime::SimTime sent = sim_->now();
  const runtime::SimTime arrival = sent + config_.latency;

  const std::uint64_t id = sink_->emit({.kind = obs::EventKind::Send, .rank = src, .peer = dst,
                                        .t0 = send_start, .t1 = sent, .bytes = bytes, .key = tag});
  const MailKey key{src, tag};
  mailboxes_[static_cast<std::size_t>(dst)][key].push_back(
      Message{std::move(data), arrival, sent, id});
  progress_ += 1;

  WaitState& w = waits_[static_cast<std::size_t>(dst)];
  if (w.waiting && w.key == key && sim_->is_blocked(dst)) {
    w.waiting = false;
    sim_->wake(dst, arrival);
  }
}

Payload SimBackend::receive(int src, std::uint64_t tag) {
  if (src < 0 || src >= num_procs()) {
    throw std::out_of_range("Machine::receive: bad source " + std::to_string(src));
  }
  const int dst = sim_->current_rank();
  const MailKey key{src, tag};
  auto& box = mailboxes_[static_cast<std::size_t>(dst)];
  const runtime::SimTime recv_entry = sim_->now();
  for (;;) {
    auto it = box.find(key);
    if (it != box.end() && !it->second.empty()) {
      Message msg = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) box.erase(it);
      sim_->advance_to(msg.arrival);
      const runtime::SimTime ready = sim_->now();
      sim_->advance(config_.recv_overhead);
      sink_->emit({.kind = obs::EventKind::Recv, .rank = dst, .peer = src, .t0 = recv_entry,
                   .t1 = sim_->now(), .ready = ready, .cause_t = msg.sent_at,
                   .bytes = msg.data.size(), .key = tag, .ref = msg.trace_id});
      progress_ += 1;
      return std::move(msg.data);
    }
    WaitState& w = waits_[static_cast<std::size_t>(dst)];
    w.waiting = true;
    w.key = key;
    sim_->block("recv from proc " + std::to_string(src) + " tag " + std::to_string(tag));
    // Re-check: wakeups are edge-triggered on the matching deposit, but the
    // loop guards against future conservative wake policies.
  }
}

void SimBackend::barrier(const pgroup::ProcessorGroup& group) {
  const int me = sim_->current_rank();
  if (!group.contains(me)) {
    throw std::logic_error("Machine::barrier: proc " + std::to_string(me) +
                           " is not a member of group " + group.to_string());
  }
  progress_ += 1;
  const int n = group.size();
  const double cost =
      config_.barrier_base +
      config_.barrier_stage * std::ceil(std::log2(static_cast<double>(std::max(n, 2))));
  const runtime::SimTime entry = sim_->now();
  if (n == 1) {
    sim_->advance(config_.barrier_base);
    sink_->emit({.kind = obs::EventKind::Barrier, .rank = me, .t0 = entry, .t1 = sim_->now(),
                 .ready = sim_->now(), .key = group.key()});
    return;
  }
  BarrierState& st = barriers_[group.key()];
  st.size = n;
  st.arrived += 1;
  // The happens-before cause of the release is the proc with the latest
  // *modeled* arrival, which need not be the fiber that executes last.
  if (st.last_arriver < 0 || sim_->now() >= st.max_arrival) st.last_arriver = me;
  st.max_arrival = std::max(st.max_arrival, sim_->now());
  if (st.arrived < n) {
    st.waiting.push_back(me);
    sim_->block("barrier on group " + group.to_string());
    // Woken by the last arriver with the clock already at the release.
  } else {
    // Last arriver: release everyone and reset for the next episode.
    st.last = Release{st.max_arrival + cost, st.max_arrival, st.last_arriver,
                      st.last.episode + 1};
    st.arrived = 0;
    st.max_arrival = 0.0;
    st.last_arriver = -1;
    std::vector<int> waiting = std::move(st.waiting);
    st.waiting.clear();
    for (int r : waiting) sim_->wake(r, st.last.at);
    sim_->advance_to(st.last.at);
  }
  const Release& rel = st.last;
  sink_->emit({.kind = obs::EventKind::Barrier, .rank = me, .peer = rel.last_arriver,
               .t0 = entry, .t1 = rel.at, .ready = rel.at, .cause_t = rel.max_arrival,
               .key = group.key(), .ref = rel.episode});
}

void SimBackend::run_chunks(const pgroup::ProcessorGroup& group, std::int64_t lo,
                            std::int64_t hi, const ChunkBody& body) {
  const int me = sim_->current_rank();
  const int v = group.virtual_of(me);
  if (v < 0) {
    throw std::logic_error("Machine::run_chunks: proc " + std::to_string(me) +
                           " is not a member of group " + group.to_string());
  }
  if (hi <= lo) return;
  // The static schedule: the caller's whole block as one chunk. No
  // synchronization, no stealing — deterministic programs behave exactly as
  // if they had looped over loop_block() inline (which is what the seed
  // parallel_for did).
  const auto [first, last] = loop_block(lo, hi, group.size(), v);
  if (first < last) body(first, last);
}

void SimBackend::io_operation(std::size_t bytes) {
  progress_ += 1;
  const int me = sim_->current_rank();
  const double entry = sim_->now();
  const double start = std::max(entry, io_available_);
  const double done = start + config_.io_latency +
                      static_cast<double>(bytes) * config_.io_byte_time;
  // When queued behind an earlier operation, the happens-before edge
  // points at its owner; otherwise the stall is the device itself.
  const bool queued = start > entry && io_prev_proc_ >= 0;
  const obs::Event e{.kind = obs::EventKind::Io, .rank = me,
                     .peer = queued ? io_prev_proc_ : me, .t0 = entry, .t1 = done,
                     .ready = done, .cause_t = queued ? io_available_ : entry, .bytes = bytes};
  io_prev_proc_ = me;
  io_available_ = done;
  sim_->advance_to(done);
  sink_->emit(e);
}

}  // namespace fxpar::exec
