#include "trace/trace.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "metrics/blob.hpp"

namespace fxpar::trace {

const char* wait_kind_name(WaitKind k) {
  switch (k) {
    case WaitKind::Recv: return "recv";
    case WaitKind::Barrier: return "barrier";
    case WaitKind::Io: return "io";
  }
  return "?";
}

TraceRecorder::TraceRecorder(int num_procs) {
  if (num_procs <= 0) throw std::invalid_argument("TraceRecorder: num_procs must be positive");
  open_.resize(static_cast<std::size_t>(num_procs));
  totals_.resize(static_cast<std::size_t>(num_procs));
  placements_.resize(static_cast<std::size_t>(num_procs));
  last_activity_.resize(static_cast<std::size_t>(num_procs), 0.0);
}

void TraceRecorder::reset() {
  for (auto& stack : open_) stack.clear();
  last_activity_.assign(open_.size(), 0.0);
  done_.clear();
  waits_.clear();
  messages_.clear();
  barriers_.clear();
  steals_.clear();
  placements_.assign(open_.size(), PlacementRecord{});
  totals_.assign(open_.size(), ProcTotals{});
  finish_ = 0.0;
  concurrent_ = false;
  done_pp_.clear();
  waits_pp_.clear();
  msgs_pp_.clear();
  recv_pp_.clear();
  bnotes_pp_.clear();
  steals_pp_.clear();
}

void TraceRecorder::set_concurrent(int num_procs_of_run) {
  if (num_procs_of_run != num_procs()) {
    throw std::invalid_argument("TraceRecorder::set_concurrent: processor count mismatch");
  }
  concurrent_ = true;
  done_pp_.assign(open_.size(), {});
  waits_pp_.assign(open_.size(), {});
  msgs_pp_.assign(open_.size(), {});
  recv_pp_.assign(open_.size(), {});
  bnotes_pp_.assign(open_.size(), {});
  steals_pp_.assign(open_.size(), {});
}

double TraceRecorder::now(int proc) const {
  if (!clock_) throw std::logic_error("TraceRecorder: no clock installed");
  return clock_(proc);
}

void TraceRecorder::begin_span(int proc, std::string name, std::string category) {
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::begin_span: bad proc");
  }
  auto& stack = open_[static_cast<std::size_t>(proc)];
  Span s;
  s.proc = proc;
  s.depth = static_cast<int>(stack.size());
  s.t0 = now(proc);
  s.name = std::move(name);
  s.category = std::move(category);
  stack.push_back(std::move(s));
}

void TraceRecorder::end_span(int proc) {
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::end_span: bad proc");
  }
  auto& stack = open_[static_cast<std::size_t>(proc)];
  if (stack.empty()) {
    throw std::logic_error("TraceRecorder::end_span: no open span on proc " +
                           std::to_string(proc));
  }
  Span s = std::move(stack.back());
  stack.pop_back();
  s.t1 = std::max(s.t0, now(proc));
  touch(proc, s.t1);
  if (concurrent_) {
    // No modeled charge() feeds add_busy on the threaded backend; real time
    // passes continuously on a worker thread, so a span's compute is its
    // elapsed time minus the waits recorded while it was open. Root spans
    // also carry the per-processor busy total.
    s.busy = std::max(0.0, s.duration() - s.wait());
    if (s.depth == 0) totals_[static_cast<std::size_t>(proc)].busy += s.busy;
    done_pp_[static_cast<std::size_t>(proc)].push_back(std::move(s));
  } else {
    done_.push_back(std::move(s));
  }
}

int TraceRecorder::open_depth(int proc) const {
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::open_depth: bad proc");
  }
  return static_cast<int>(open_[static_cast<std::size_t>(proc)].size());
}

void TraceRecorder::add_busy(int proc, double dt) {
  if (dt <= 0.0) return;
  if (clock_) touch(proc, clock_(proc));
  totals_[static_cast<std::size_t>(proc)].busy += dt;
  for (Span& s : open_[static_cast<std::size_t>(proc)]) s.busy += dt;
}

std::uint64_t TraceRecorder::message_sent(int src, int dst, std::uint64_t tag,
                                          std::uint64_t bytes, double t0, double t1) {
  MessageRecord m;
  m.id = concurrent_
             ? ((static_cast<std::uint64_t>(src) + 1) << 40) |
                   (static_cast<std::uint64_t>(
                        msgs_pp_[static_cast<std::size_t>(src)].size()) +
                    1)
             : static_cast<std::uint64_t>(messages_.size()) + 1;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.bytes = bytes;
  m.send_t0 = t0;
  m.send_t1 = t1;
  touch(src, t1);
  const std::uint64_t id = m.id;
  if (concurrent_) {
    msgs_pp_[static_cast<std::size_t>(src)].push_back(m);
  } else {
    messages_.push_back(m);
  }
  ProcTotals& t = totals_[static_cast<std::size_t>(src)];
  t.messages += 1;
  t.bytes += bytes;
  for (Span& s : open_[static_cast<std::size_t>(src)]) {
    s.messages += 1;
    s.bytes += bytes;
  }
  return id;
}

void TraceRecorder::message_received(std::uint64_t id, double wait_t0, double ready_t) {
  if (id == 0 || id > messages_.size()) {
    throw std::out_of_range("TraceRecorder::message_received: unknown message id");
  }
  MessageRecord& m = messages_[static_cast<std::size_t>(id - 1)];
  m.recv_t = ready_t;
  if (ready_t > wait_t0) {
    add_wait(m.dst, WaitKind::Recv, wait_t0, ready_t, m.src, m.send_t1, id);
  }
}

void TraceRecorder::message_received_at(std::uint64_t id, int dst, int src, double send_t,
                                        double wait_t0, double ready_t) {
  if (!concurrent_) {
    throw std::logic_error("TraceRecorder::message_received_at: not in concurrent mode");
  }
  // The MessageRecord lives in the *sender's* shard; note the consumption
  // here and let merge_concurrent() stamp recv_t.
  recv_pp_[static_cast<std::size_t>(dst)].push_back(RecvNote{id, ready_t});
  touch(dst, ready_t);
  if (ready_t > wait_t0) {
    add_wait(dst, WaitKind::Recv, wait_t0, ready_t, src, send_t, id);
  }
}

std::uint64_t TraceRecorder::barrier_open(std::uint64_t group_key) {
  BarrierRecord b;
  b.id = static_cast<std::uint64_t>(barriers_.size()) + 1;
  b.group_key = group_key;
  barriers_.push_back(std::move(b));
  return barriers_.back().id;
}

void TraceRecorder::barrier_arrive(std::uint64_t id, int proc, double t) {
  if (id == 0 || id > barriers_.size()) {
    throw std::out_of_range("TraceRecorder::barrier_arrive: unknown barrier id");
  }
  BarrierRecord& b = barriers_[static_cast<std::size_t>(id - 1)];
  b.procs.push_back(proc);
  b.arrivals.push_back(t);
}

void TraceRecorder::barrier_release(std::uint64_t id, int last_arriver, double max_arrival,
                                    double release) {
  if (id == 0 || id > barriers_.size()) {
    throw std::out_of_range("TraceRecorder::barrier_release: unknown barrier id");
  }
  BarrierRecord& b = barriers_[static_cast<std::size_t>(id - 1)];
  b.release = release;
  b.last_arriver = last_arriver;
  for (std::size_t i = 0; i < b.procs.size(); ++i) {
    if (release > b.arrivals[i]) {
      add_wait(b.procs[i], WaitKind::Barrier, b.arrivals[i], release, last_arriver,
               max_arrival, id);
    }
  }
}

void TraceRecorder::io_wait(int proc, double t0, double t1, int cause_proc,
                            double cause_time) {
  if (t1 > t0) add_wait(proc, WaitKind::Io, t0, t1, cause_proc, cause_time, 0);
}

void TraceRecorder::steal_event(int thief, int victim, std::uint64_t iters, double t) {
  if (thief < 0 || thief >= num_procs()) {
    throw std::out_of_range("TraceRecorder::steal_event: bad thief rank");
  }
  touch(thief, t);
  StealRecord r{thief, victim, iters, t};
  if (concurrent_) {
    steals_pp_[static_cast<std::size_t>(thief)].push_back(r);
  } else {
    steals_.push_back(r);
  }
  // Attribute the steal to the thief's open directive nest. Safe in
  // concurrent mode: only the thief's own worker touches its stack.
  for (Span& s : open_[static_cast<std::size_t>(thief)]) {
    s.steals += 1;
    s.stolen_iters += iters;
  }
}

void TraceRecorder::plan_cache_event(int proc, bool hit) {
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::plan_cache_event: bad proc");
  }
  for (Span& s : open_[static_cast<std::size_t>(proc)]) {
    (hit ? s.plan_hits : s.plan_misses) += 1;
  }
}

void TraceRecorder::barrier_record(std::uint64_t group_key, std::uint64_t episode, int proc,
                                   double arrive_t, double release_t, int last_arriver,
                                   double max_arrival) {
  if (!concurrent_) {
    throw std::logic_error("TraceRecorder::barrier_record: not in concurrent mode");
  }
  bnotes_pp_[static_cast<std::size_t>(proc)].push_back(
      BarrierNote{group_key, episode, proc, arrive_t, release_t, last_arriver});
  touch(proc, release_t);
  if (release_t > arrive_t) {
    add_wait(proc, WaitKind::Barrier, arrive_t, release_t, last_arriver, max_arrival, 0);
  }
}

void TraceRecorder::merge_concurrent() {
  if (!concurrent_) return;
  concurrent_ = false;  // back to single-threaded appends for finalize()

  for (auto& shard : done_pp_) {
    for (Span& s : shard) done_.push_back(std::move(s));
  }
  // Per-proc wait streams are each in time order; interleave by start time
  // so the merged stream reads like the simulator's.
  for (auto& shard : waits_pp_) {
    waits_.insert(waits_.end(), shard.begin(), shard.end());
  }
  std::stable_sort(waits_.begin(), waits_.end(),
                   [](const Wait& a, const Wait& b) { return a.t0 < b.t0; });

  for (auto& shard : msgs_pp_) {
    messages_.insert(messages_.end(), shard.begin(), shard.end());
  }
  std::stable_sort(messages_.begin(), messages_.end(),
                   [](const MessageRecord& a, const MessageRecord& b) {
                     if (a.send_t0 != b.send_t0) return a.send_t0 < b.send_t0;
                     return a.id < b.id;
                   });
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(messages_.size());
  for (std::size_t i = 0; i < messages_.size(); ++i) by_id.emplace(messages_[i].id, i);
  for (const auto& shard : recv_pp_) {
    for (const RecvNote& n : shard) {
      auto it = by_id.find(n.id);
      if (it != by_id.end()) messages_[it->second].recv_t = n.recv_t;
    }
  }

  // Rebuild BarrierRecords from the members' episode notes.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<const BarrierNote*>> episodes;
  for (const auto& shard : bnotes_pp_) {
    for (const BarrierNote& n : shard) episodes[{n.group_key, n.episode}].push_back(&n);
  }
  std::vector<BarrierRecord> rebuilt;
  rebuilt.reserve(episodes.size());
  for (auto& [key, notes] : episodes) {
    std::sort(notes.begin(), notes.end(), [](const BarrierNote* a, const BarrierNote* b) {
      if (a->arrive_t != b->arrive_t) return a->arrive_t < b->arrive_t;
      return a->proc < b->proc;
    });
    BarrierRecord b;
    b.group_key = key.first;
    for (const BarrierNote* n : notes) {
      b.procs.push_back(n->proc);
      b.arrivals.push_back(n->arrive_t);
      b.release = std::max(b.release, n->release_t);
      b.last_arriver = n->last_arriver;
    }
    rebuilt.push_back(std::move(b));
  }
  std::stable_sort(rebuilt.begin(), rebuilt.end(),
                   [](const BarrierRecord& a, const BarrierRecord& b) {
                     return a.release < b.release;
                   });
  for (BarrierRecord& b : rebuilt) {
    b.id = static_cast<std::uint64_t>(barriers_.size()) + 1;
    barriers_.push_back(std::move(b));
  }

  // Steal events merge like the wait streams: shards are each in time
  // order, interleave by completion time.
  for (auto& shard : steals_pp_) {
    steals_.insert(steals_.end(), shard.begin(), shard.end());
  }
  std::stable_sort(steals_.begin(), steals_.end(), [](const StealRecord& a, const StealRecord& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.thief < b.thief;
  });

  done_pp_.clear();
  waits_pp_.clear();
  msgs_pp_.clear();
  recv_pp_.clear();
  bnotes_pp_.clear();
  steals_pp_.clear();
}

// Shard blobs travel between a forked child and its parent — the same
// binary image — so trivially-copyable records ship as raw bytes; only
// Span needs per-field treatment for its strings.
std::vector<std::byte> TraceRecorder::serialize_shard(int proc) const {
  if (!concurrent_) {
    throw std::logic_error("TraceRecorder::serialize_shard: not in concurrent mode");
  }
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::serialize_shard: bad proc");
  }
  using blob::put;
  const auto i = static_cast<std::size_t>(proc);
  std::vector<std::byte> out;
  put<std::int32_t>(out, proc);
  put<std::uint64_t>(out, static_cast<std::uint64_t>(done_pp_[i].size()));
  for (const Span& s : done_pp_[i]) {
    put<std::int32_t>(out, s.proc);
    put<std::int32_t>(out, s.depth);
    put(out, s.t0);
    put(out, s.t1);
    blob::put_str(out, s.name);
    blob::put_str(out, s.category);
    put(out, s.busy);
    put(out, s.recv_wait);
    put(out, s.barrier_wait);
    put(out, s.io_wait);
    put(out, s.messages);
    put(out, s.bytes);
    put(out, s.steals);
    put(out, s.stolen_iters);
    put(out, s.plan_hits);
    put(out, s.plan_misses);
  }
  blob::put_pod_vec(out, waits_pp_[i]);
  blob::put_pod_vec(out, msgs_pp_[i]);
  blob::put_pod_vec(out, recv_pp_[i]);
  blob::put_pod_vec(out, bnotes_pp_[i]);
  blob::put_pod_vec(out, steals_pp_[i]);
  put(out, totals_[i]);
  put(out, placements_[i]);
  put(out, last_activity_[i]);
  return out;
}

void TraceRecorder::absorb_shard(const std::byte* data, std::size_t len) {
  if (!concurrent_) {
    throw std::logic_error("TraceRecorder::absorb_shard: not in concurrent mode");
  }
  blob::Reader in(data, len, "TraceRecorder::absorb_shard");
  const auto proc = in.get<std::int32_t>();
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::absorb_shard: bad proc in blob");
  }
  const auto i = static_cast<std::size_t>(proc);
  const auto n_spans = in.get<std::uint64_t>();
  in.need(n_spans, 1);  // bounds the reserve below by the blob itself
  std::vector<Span> spans;
  spans.reserve(static_cast<std::size_t>(n_spans));
  for (std::uint64_t k = 0; k < n_spans; ++k) {
    Span s;
    s.proc = in.get<std::int32_t>();
    s.depth = in.get<std::int32_t>();
    s.t0 = in.get<double>();
    s.t1 = in.get<double>();
    s.name = in.get_str();
    s.category = in.get_str();
    s.busy = in.get<double>();
    s.recv_wait = in.get<double>();
    s.barrier_wait = in.get<double>();
    s.io_wait = in.get<double>();
    s.messages = in.get<std::uint64_t>();
    s.bytes = in.get<std::uint64_t>();
    s.steals = in.get<std::uint64_t>();
    s.stolen_iters = in.get<std::uint64_t>();
    s.plan_hits = in.get<std::uint64_t>();
    s.plan_misses = in.get<std::uint64_t>();
    spans.push_back(std::move(s));
  }
  auto waits = in.get_pod_vec<Wait>();
  auto msgs = in.get_pod_vec<MessageRecord>();
  auto recvs = in.get_pod_vec<RecvNote>();
  auto bnotes = in.get_pod_vec<BarrierNote>();
  auto steals = in.get_pod_vec<StealRecord>();
  const auto totals = in.get<ProcTotals>();
  const auto placement = in.get<PlacementRecord>();
  const auto last = in.get<double>();
  // Commit only a fully parsed shard: a truncated blob leaves this
  // recorder untouched.
  done_pp_[i] = std::move(spans);
  waits_pp_[i] = std::move(waits);
  msgs_pp_[i] = std::move(msgs);
  recv_pp_[i] = std::move(recvs);
  bnotes_pp_[i] = std::move(bnotes);
  steals_pp_[i] = std::move(steals);
  totals_[i] = totals;
  placements_[i] = placement;
  last_activity_[i] = std::max(last_activity_[i], last);
}

void TraceRecorder::add_wait(int proc, WaitKind kind, double t0, double t1, int cause_proc,
                             double cause_time, std::uint64_t ref) {
  Wait w;
  w.proc = proc;
  w.kind = kind;
  w.t0 = t0;
  w.t1 = t1;
  w.cause_proc = cause_proc;
  w.cause_time = cause_time;
  w.ref = ref;
  touch(proc, t1);
  if (concurrent_) {
    waits_pp_[static_cast<std::size_t>(proc)].push_back(w);
  } else {
    waits_.push_back(w);
  }
  const double dt = t1 - t0;
  ProcTotals& t = totals_[static_cast<std::size_t>(proc)];
  auto bump = [&](Span* s) {
    switch (kind) {
      case WaitKind::Recv:
        if (s) s->recv_wait += dt; else t.recv_wait += dt;
        break;
      case WaitKind::Barrier:
        if (s) s->barrier_wait += dt; else t.barrier_wait += dt;
        break;
      case WaitKind::Io:
        if (s) s->io_wait += dt; else t.io_wait += dt;
        break;
    }
  };
  bump(nullptr);
  // Blocked processors cannot touch their span stack, so the stack now is
  // the stack that was open for the whole wait.
  for (Span& s : open_[static_cast<std::size_t>(proc)]) bump(&s);
}

void TraceRecorder::touch(int proc, double t) {
  auto& last = last_activity_[static_cast<std::size_t>(proc)];
  last = std::max(last, t);
}

void TraceRecorder::finalize(double finish) {
  finish_ = finish;
  for (int p = 0; p < num_procs(); ++p) {
    auto& stack = open_[static_cast<std::size_t>(p)];
    while (!stack.empty()) {
      Span s = std::move(stack.back());
      stack.pop_back();
      s.t1 = std::max(s.t0, finish);
      done_.push_back(std::move(s));
    }
  }
  // Deterministic order for exporters: by processor, then open time, then
  // deeper-first so parents precede children only via (t0, depth).
  std::stable_sort(done_.begin(), done_.end(), [](const Span& a, const Span& b) {
    if (a.proc != b.proc) return a.proc < b.proc;
    if (a.t0 != b.t0) return a.t0 < b.t0;
    return a.depth < b.depth;
  });
}

}  // namespace fxpar::trace
