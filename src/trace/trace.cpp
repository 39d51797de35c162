#include "trace/trace.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "metrics/blob.hpp"

namespace fxpar::trace {

namespace {

/// Moves every shard's `field` onto the end of `out`, freeing each shard's
/// vector as it goes, so a merge never holds two copies of a stream.
template <class T, class ShardT>
void move_shards(std::vector<ShardT>& shards, std::vector<T> ShardT::*field,
                 std::vector<T>& out) {
  std::size_t n = out.size();
  for (const ShardT& sh : shards) n += (sh.*field).size();
  out.reserve(n);
  for (ShardT& sh : shards) {
    std::vector<T>& v = sh.*field;
    std::move(v.begin(), v.end(), std::back_inserter(out));
    std::vector<T>().swap(v);
  }
}

}  // namespace

const char* wait_kind_name(WaitKind k) {
  switch (k) {
    case WaitKind::Recv: return "recv";
    case WaitKind::Barrier: return "barrier";
    case WaitKind::Io: return "io";
  }
  return "?";
}

TraceRecorder::TraceRecorder(int num_procs, bool charged_busy) : charged_busy_(charged_busy) {
  if (num_procs <= 0) throw std::invalid_argument("TraceRecorder: num_procs must be positive");
  open_.resize(static_cast<std::size_t>(num_procs));
  reset();
}

void TraceRecorder::reset() {
  const std::size_t p = open_.size();
  for (auto& stack : open_) stack.clear();
  shards_.assign(p, Shard{});
  placements_.assign(p, PlacementRecord{});
  totals_.assign(p, ProcTotals{});
  last_activity_.assign(p, 0.0);
  done_.clear();
  waits_.clear();
  messages_.clear();
  barriers_.clear();
  steals_.clear();
  finish_ = 0.0;
}

double TraceRecorder::now(int proc) const {
  if (!clock_) throw std::logic_error("TraceRecorder: no clock installed");
  return clock_(proc);
}

void TraceRecorder::check_proc(int proc, const char* what) const {
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range(std::string("TraceRecorder::") + what + ": bad proc");
  }
}

void TraceRecorder::begin_span(int proc, std::string name, std::string category) {
  check_proc(proc, "begin_span");
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
  check_proc(proc, "end_span");
  auto& stack = open_[static_cast<std::size_t>(proc)];
  if (stack.empty()) {
    throw std::logic_error("TraceRecorder::end_span: no open span on proc " +
                           std::to_string(proc));
  }
  Span s = std::move(stack.back());
  stack.pop_back();
  s.t1 = std::max(s.t0, now(proc));
  touch(proc, s.t1);
  if (!charged_busy_) {
    // No charge() feeds add_busy on a real clock; time passes continuously
    // on a worker, so a span's compute is its elapsed time minus the waits
    // recorded while it was open. Root spans also carry the per-processor
    // busy total.
    s.busy = std::max(0.0, s.duration() - s.wait());
    if (s.depth == 0) totals_[static_cast<std::size_t>(proc)].busy += s.busy;
  }
  shards_[static_cast<std::size_t>(proc)].done.push_back(std::move(s));
}

int TraceRecorder::open_depth(int proc) const {
  check_proc(proc, "open_depth");
  return static_cast<int>(open_[static_cast<std::size_t>(proc)].size());
}

void TraceRecorder::add_busy(int proc, double dt) {
  if (!charged_busy_ || dt <= 0.0) return;
  if (clock_) touch(proc, clock_(proc));
  totals_[static_cast<std::size_t>(proc)].busy += dt;
  for (Span& s : open_[static_cast<std::size_t>(proc)]) s.busy += dt;
}

std::uint64_t TraceRecorder::message_sent(int src, int dst, std::uint64_t tag,
                                          std::uint64_t bytes, double t0, double t1) {
  check_proc(src, "message_sent");
  auto& sent = shards_[static_cast<std::size_t>(src)].messages;
  MessageRecord m;
  m.id = ((static_cast<std::uint64_t>(src) + 1) << 40) |
         (static_cast<std::uint64_t>(sent.size()) + 1);
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.bytes = bytes;
  m.send_t0 = t0;
  m.send_t1 = t1;
  touch(src, t1);
  sent.push_back(m);
  ProcTotals& t = totals_[static_cast<std::size_t>(src)];
  t.messages += 1;
  t.bytes += bytes;
  for (Span& s : open_[static_cast<std::size_t>(src)]) {
    s.messages += 1;
    s.bytes += bytes;
  }
  return m.id;
}

void TraceRecorder::message_received(std::uint64_t id, int dst, int src, double send_t,
                                     double wait_t0, double ready_t) {
  check_proc(dst, "message_received");
  // The MessageRecord lives in the *sender's* shard; note the consumption
  // here and let finalize() stamp recv_t.
  shards_[static_cast<std::size_t>(dst)].recvs.push_back(RecvNote{id, ready_t});
  if (ready_t > wait_t0) {
    add_wait(dst, WaitKind::Recv, wait_t0, ready_t, src, send_t, id);
  }
}

void TraceRecorder::barrier_record(std::uint64_t group_key, std::uint64_t episode, int proc,
                                   double arrive_t, double release_t, int last_arriver,
                                   double max_arrival) {
  check_proc(proc, "barrier_record");
  shards_[static_cast<std::size_t>(proc)].barriers.push_back(
      BarrierNote{group_key, episode, proc, arrive_t, release_t, last_arriver});
  if (release_t > arrive_t) {
    add_wait(proc, WaitKind::Barrier, arrive_t, release_t, last_arriver, max_arrival, 0);
  }
}

void TraceRecorder::io_wait(int proc, double t0, double t1, int cause_proc,
                            double cause_time) {
  check_proc(proc, "io_wait");
  if (t1 > t0) add_wait(proc, WaitKind::Io, t0, t1, cause_proc, cause_time, 0);
}

void TraceRecorder::steal_event(int thief, int victim, std::uint64_t iters, double t) {
  check_proc(thief, "steal_event");
  touch(thief, t);
  shards_[static_cast<std::size_t>(thief)].steals.push_back(StealRecord{thief, victim, iters, t});
  // Attribute the steal to the thief's open directive nest.
  for (Span& s : open_[static_cast<std::size_t>(thief)]) {
    s.steals += 1;
    s.stolen_iters += iters;
  }
}

void TraceRecorder::plan_cache_event(int proc, bool hit) {
  check_proc(proc, "plan_cache_event");
  for (Span& s : open_[static_cast<std::size_t>(proc)]) {
    (hit ? s.plan_hits : s.plan_misses) += 1;
  }
}

// Shard blobs travel between a forked child and its parent — the same
// binary image — so trivially-copyable records ship as raw bytes; only
// Span needs per-field treatment for its strings.
std::vector<std::byte> TraceRecorder::serialize_shard(int proc) const {
  check_proc(proc, "serialize_shard");
  using blob::put;
  const auto i = static_cast<std::size_t>(proc);
  const Shard& sh = shards_[i];
  std::vector<std::byte> out;
  put<std::int32_t>(out, proc);
  put<std::uint64_t>(out, static_cast<std::uint64_t>(sh.done.size()));
  for (const Span& s : sh.done) {
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
  blob::put_pod_vec(out, sh.waits);
  blob::put_pod_vec(out, sh.messages);
  blob::put_pod_vec(out, sh.recvs);
  blob::put_pod_vec(out, sh.barriers);
  blob::put_pod_vec(out, sh.steals);
  put(out, totals_[i]);
  put(out, placements_[i]);
  put(out, last_activity_[i]);
  return out;
}

void TraceRecorder::absorb_shard(const std::byte* data, std::size_t len) {
  blob::Reader in(data, len, "TraceRecorder::absorb_shard");
  const auto proc = in.get<std::int32_t>();
  if (proc < 0 || proc >= num_procs()) {
    throw std::out_of_range("TraceRecorder::absorb_shard: bad proc in blob");
  }
  const auto i = static_cast<std::size_t>(proc);
  Shard sh;
  const auto n_spans = in.get<std::uint64_t>();
  in.need(n_spans, 1);  // bounds the reserve below by the blob itself
  sh.done.reserve(static_cast<std::size_t>(n_spans));
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
    sh.done.push_back(std::move(s));
  }
  sh.waits = in.get_pod_vec<Wait>();
  sh.messages = in.get_pod_vec<MessageRecord>();
  sh.recvs = in.get_pod_vec<RecvNote>();
  sh.barriers = in.get_pod_vec<BarrierNote>();
  sh.steals = in.get_pod_vec<StealRecord>();
  const auto totals = in.get<ProcTotals>();
  const auto placement = in.get<PlacementRecord>();
  const auto last = in.get<double>();
  // Commit only a fully parsed shard: a truncated blob leaves this
  // recorder untouched.
  shards_[i] = std::move(sh);
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
  shards_[static_cast<std::size_t>(proc)].waits.push_back(w);
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
  // Spans: each shard holds its rank's spans in close order; the sort
  // below fixes the exporters' order.
  move_shards(shards_, &Shard::done, done_);
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

  // Per-proc wait streams are each in time order; interleave by start time.
  move_shards(shards_, &Shard::waits, waits_);
  std::stable_sort(waits_.begin(), waits_.end(),
                   [](const Wait& a, const Wait& b) { return a.t0 < b.t0; });

  move_shards(shards_, &Shard::messages, messages_);
  std::stable_sort(messages_.begin(), messages_.end(),
                   [](const MessageRecord& a, const MessageRecord& b) {
                     if (a.send_t0 != b.send_t0) return a.send_t0 < b.send_t0;
                     return a.id < b.id;
                   });
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(messages_.size());
  for (std::size_t i = 0; i < messages_.size(); ++i) by_id.emplace(messages_[i].id, i);
  for (const Shard& sh : shards_) {
    for (const RecvNote& n : sh.recvs) {
      auto it = by_id.find(n.id);
      if (it != by_id.end()) messages_[it->second].recv_t = n.recv_t;
    }
  }

  // BarrierRecords from the members' episode notes, ordered by release.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<const BarrierNote*>> episodes;
  for (const Shard& sh : shards_) {
    for (const BarrierNote& n : sh.barriers) episodes[{n.group_key, n.episode}].push_back(&n);
  }
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
    barriers_.push_back(std::move(b));
  }
  std::stable_sort(barriers_.begin(), barriers_.end(),
                   [](const BarrierRecord& a, const BarrierRecord& b) {
                     return a.release < b.release;
                   });
  for (std::size_t i = 0; i < barriers_.size(); ++i) barriers_[i].id = i + 1;

  // Steals merge like the wait streams: interleave by completion time.
  move_shards(shards_, &Shard::steals, steals_);
  std::stable_sort(steals_.begin(), steals_.end(), [](const StealRecord& a, const StealRecord& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.thief < b.thief;
  });
  shards_.assign(shards_.size(), Shard{});
}

}  // namespace fxpar::trace
