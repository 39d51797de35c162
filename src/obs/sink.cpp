#include "obs/sink.hpp"

#include <stdexcept>
#include <utility>

#include "metrics/blob.hpp"
#include "metrics/runtime_metrics.hpp"
#include "obs/flight_recorder.hpp"
#include "trace/trace.hpp"

namespace fxpar::obs {

namespace {

/// Single-writer add: the word's owner is the only writer, so a relaxed
/// load and store is enough (readers see a torn-free value either way).
void bump(std::atomic<std::uint64_t>& w, std::uint64_t n = 1) noexcept {
  w.store(w.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

}  // namespace

Sink::Sink(int procs, RankWords* words, std::atomic<std::uint64_t>* traffic, Clock clock,
           trace::TraceRecorder* tracer, metrics::RuntimeMetrics* metrics,
           FlightRecorder* flight)
    : procs_(procs),
      words_(words),
      traffic_(traffic),
      clock_(std::move(clock)),
      tracer_(tracer),
      metrics_(metrics),
      flight_(flight) {}

std::uint64_t Sink::emit(const Event& e) {
  const int r = e.rank;
  std::atomic<std::uint64_t>* w = words_[r].w;
  const auto peer = static_cast<std::uint64_t>(e.peer);
  switch (e.kind) {
    case EventKind::Send:
      bump(w[kMessages]);
      bump(w[kBytes], e.bytes);
      if (traffic_ != nullptr) {
        bump(traffic_[static_cast<std::size_t>(r) * static_cast<std::size_t>(procs_) + peer],
             e.bytes);
      }
      if (metrics_) {
        metrics_->messages->add(r);
        metrics_->message_bytes->add(r, e.bytes);
      }
      if (flight_) flight_->record(r, FlightKind::Message, e.t0, "send", peer, e.key);
      if (tracer_) return tracer_->message_sent(r, e.peer, e.key, e.bytes, e.t0, e.t1);
      break;
    case EventKind::Recv:
      if (metrics_) metrics_->recv_wait_s->observe(r, e.t1 - e.t0);
      if (flight_) flight_->record(r, FlightKind::Recv, e.t1, "recv", peer, e.key);
      if (tracer_ && e.ref != 0) {
        tracer_->message_received(e.ref, r, e.peer, e.cause_t, e.t0, e.ready);
      }
      break;
    case EventKind::Barrier:
      bump(w[kBarriers]);
      if (metrics_) {
        metrics_->barriers->add(r);
        metrics_->barrier_wait_s->observe(r, e.t1 - e.t0);
      }
      if (flight_) flight_->record(r, FlightKind::Barrier, e.t1, "barrier", e.key, 0);
      if (tracer_ && e.ref != 0) {
        tracer_->barrier_record(e.key, e.ref, r, e.t0, e.ready, e.peer, e.cause_t);
      }
      break;
    case EventKind::Io:
      if (metrics_) metrics_->io_ops->add(r);
      if (flight_) flight_->record(r, FlightKind::Io, e.t1, "io", e.bytes, 0);
      if (tracer_) tracer_->io_wait(r, e.t0, e.ready, e.peer, e.cause_t);
      break;
    case EventKind::Steal:
      bump(w[kSteals]);
      bump(w[kStolenIters], e.bytes);
      if (metrics_) {
        metrics_->steals->add(r);
        metrics_->stolen_iters->add(r, e.bytes);
      }
      if (flight_) flight_->record(r, FlightKind::Steal, e.t1, "steal", peer, e.bytes);
      if (tracer_) tracer_->steal_event(r, e.peer, e.bytes, e.t1);
      break;
    case EventKind::PlanLookup: {
      // Redistribution and halo schedules count in the dist family, the
      // collectives in the comm family; the trace does not tell them apart.
      const bool hit = e.ref != 0;
      const bool collective = e.key != 0;
      bump(w[collective ? (hit ? kCollectivePlanHits : kCollectivePlanMisses)
                        : (hit ? kPlanHits : kPlanMisses)]);
      if (metrics_) {
        (collective ? (hit ? metrics_->collective_plan_hits : metrics_->collective_plan_misses)
                    : (hit ? metrics_->plan_hits : metrics_->plan_misses))
            ->add(r);
      }
      if (tracer_) tracer_->plan_cache_event(r, hit);
      break;
    }
  }
  return 0;
}

void Sink::open_span(int rank, std::string name, const char* category) {
  if (flight_) flight_->record(rank, FlightKind::Span, clock_(rank), name.c_str());
  if (tracer_) tracer_->begin_span(rank, std::move(name), category);
}

void Sink::close_span(int rank) {
  if (tracer_) tracer_->end_span(rank);
}

void Sink::mark(int rank, double t, const char* name, std::uint64_t a, std::uint64_t b) {
  if (flight_) flight_->record(rank, FlightKind::Mark, t, name, a, b);
}

void Sink::pool_spill(int rank) {
  bump(words_[rank].w[kPoolSpills]);
  if (metrics_) metrics_->pool_spills->add(rank);
}

void Sink::modeled_busy(double seconds) {
  if (metrics_ && seconds > 0.0) metrics_->modeled_busy_s->add(seconds);
}

void Sink::placement(int rank, int cpu, int node) {
  if (tracer_) tracer_->set_worker_placement(rank, cpu, node);
}

void Sink::pinned_workers(int n) {
  if (metrics_) metrics_->pinned_workers->set(n);
}

void Sink::begin_run() {
  for (int r = 0; r < procs_; ++r) {
    for (std::size_t i = 0; i < kPerRunWords; ++i) {
      words_[r].w[i].store(0, std::memory_order_relaxed);
    }
  }
  if (traffic_ != nullptr) {
    const auto n = static_cast<std::size_t>(procs_) * static_cast<std::size_t>(procs_);
    for (std::size_t i = 0; i < n; ++i) traffic_[i].store(0, std::memory_order_relaxed);
  }
}

Totals Sink::totals() const {
  Totals t;
  for (int r = 0; r < procs_; ++r) {
    for (std::size_t i = 0; i < kWords; ++i) {
      t.w[i] += words_[r].w[i].load(std::memory_order_relaxed);
    }
  }
  if (traffic_ != nullptr) {
    t.traffic.resize(static_cast<std::size_t>(procs_) * static_cast<std::size_t>(procs_));
    for (std::size_t i = 0; i < t.traffic.size(); ++i) {
      t.traffic[i] = traffic_[i].load(std::memory_order_relaxed);
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Residue: three length-prefixed sections, so a blob cut anywhere short of
// its end fails in the outer parse, before any consumer is touched.

Sink::ForkMark Sink::fork_mark(int rank) const {
  ForkMark m;
  if (metrics_) m.metrics = metrics_->registry.snapshot();
  if (flight_) m.flight = flight_->ring_total(rank);
  return m;
}

std::vector<std::byte> Sink::residue(int rank, const ForkMark& mark) const {
  std::vector<std::byte> out;
  blob::put_pod_vec(out, metrics_ ? metrics::serialize_delta(mark.metrics,
                                                             metrics_->registry.snapshot())
                                  : std::vector<std::byte>{});
  blob::put_pod_vec(out, tracer_ ? tracer_->serialize_shard(rank) : std::vector<std::byte>{});
  blob::put_pod_vec(out, flight_ ? flight_->ring_events_since(rank, mark.flight)
                                 : std::vector<FlightEvent>{});
  return out;
}

void Sink::absorb_residue(const std::byte* data, std::size_t len) {
  blob::Reader in(data, len, "obs::Sink::absorb_residue");
  const auto delta = in.get_pod_vec<std::byte>();
  const auto shard = in.get_pod_vec<std::byte>();
  const auto events = in.get_pod_vec<FlightEvent>();
  if (in.remaining() != 0) {
    throw std::runtime_error("obs::Sink::absorb_residue: trailing bytes");
  }
  if (metrics_ && !delta.empty()) {
    metrics::absorb_delta(metrics_->registry, delta.data(), delta.size());
  }
  if (tracer_ && !shard.empty()) tracer_->absorb_shard(shard.data(), shard.size());
  if (flight_) {
    for (const FlightEvent& e : events) flight_->record(e.proc, e.kind, e.t, e.name, e.a, e.b);
  }
}

// ---------------------------------------------------------------------------
// Scope

namespace {

/// What each Op counts and times, indexed by Op.
using Metrics = metrics::RuntimeMetrics;
struct OpMetrics {
  metrics::Counter* Metrics::*count;
  metrics::Histogram* Metrics::*time;
};
constexpr OpMetrics kOpMetrics[] = {
    {nullptr, nullptr},                        // Span
    {&Metrics::loops, &Metrics::loop_s},       // Loop
    {&Metrics::redists, &Metrics::redist_s},   // Redist
    {&Metrics::halos, &Metrics::halo_s},       // Halo
    {&Metrics::task_regions, nullptr},         // TaskRegion
    {&Metrics::collectives, nullptr},          // Collective
};

}  // namespace

Scope::Scope(Sink& sink, int rank, Op op, const char* category, std::string_view name,
             std::string_view suffix)
    : sink_(&sink), rank_(rank) {
  if (Metrics* m = sink.metrics_) {
    const OpMetrics& om = kOpMetrics[static_cast<std::size_t>(op)];
    if (om.count) (m->*om.count)->add(rank);
    // Per-participant latency: modeled on the simulator, real elsewhere.
    if (om.time) {
      hist_ = m->*om.time;
      t0_ = sink.clock_(rank);
    }
  }
  if (!name.empty() && sink.spans_on()) {
    std::string full(name);
    full += suffix;
    sink.open_span(rank, std::move(full), category);
    span_ = true;
  }
}

Scope& Scope::operator=(Scope&& o) noexcept {
  if (this != &o) {
    close();
    sink_ = std::exchange(o.sink_, nullptr);
    hist_ = std::exchange(o.hist_, nullptr);
    t0_ = o.t0_;
    rank_ = o.rank_;
    span_ = std::exchange(o.span_, false);
  }
  return *this;
}

void Scope::close() {
  if (sink_ == nullptr) return;
  if (hist_) hist_->observe(rank_, sink_->clock_(rank_) - t0_);
  if (span_) sink_->close_span(rank_);
  sink_ = nullptr;
  hist_ = nullptr;
  span_ = false;
}

}  // namespace fxpar::obs
