#include "machine/machine.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "exec/proc_backend.hpp"
#include "exec/sim_backend.hpp"
#include "exec/threaded_backend.hpp"
#include "machine/context.hpp"
#include "obs/diagnostics.hpp"

namespace fxpar::machine {

double RunResult::efficiency() const {
  if (clocks.empty() || finish_time <= 0.0) return 0.0;
  double busy = 0.0;
  for (const auto& c : clocks) busy += c.busy;
  return busy / (finish_time * static_cast<double>(clocks.size()));
}

std::uint64_t RunResult::traffic_between(int src, int dst) const {
  const int P = static_cast<int>(clocks.size());
  if (traffic.empty() || src < 0 || dst < 0 || src >= P || dst >= P) return 0;
  return traffic[static_cast<std::size_t>(src) * static_cast<std::size_t>(P) +
                 static_cast<std::size_t>(dst)];
}

Machine::Machine(MachineConfig config) : config_(config) {
  config_.validate();
  pool_shards_ = std::vector<PoolShard>(static_cast<std::size_t>(config_.num_procs));
  switch (config_.backend) {
    case exec::BackendKind::Sim:
      backend_ = std::make_unique<exec::SimBackend>(config_);
      break;
    case exec::BackendKind::Threads:
      backend_ = std::make_unique<exec::ThreadedBackend>(config_);
      break;
    case exec::BackendKind::Proc:
      backend_ = std::make_unique<exec::ProcBackend>(config_);
      break;
  }
  if (config_.trace) {
    tracer_ = std::make_shared<trace::TraceRecorder>(config_.num_procs);
    tracer_->set_clock([this](int rank) { return backend_->now(rank); });
    backend_->set_tracer(tracer_.get());
  }
  if (config_.metrics) {
    metrics_ = std::make_unique<metrics::RuntimeMetrics>(config_.num_procs);
    backend_->set_metrics(metrics_.get());
  }
  if (config_.flight_recorder || config_.obs_port >= 0) {
    flight_ = std::make_unique<obs::FlightRecorder>(
        config_.num_procs, config_.flight_events, config_.flight_window_s);
    backend_->set_flight(flight_.get());
  }
  if (config_.obs_port >= 0) {
    endpoint_ = std::make_unique<obs::Endpoint>();
    endpoint_->handle("/metrics", "text/plain; version=0.0.4", [this] {
      return metrics_ ? metrics_->registry.snapshot().to_prometheus()
                      : std::string("# metrics disabled\n");
    });
    endpoint_->handle("/healthz", "application/json",
                      [this] { return healthz_json(); });
    endpoint_->handle("/trace", "application/json", [this] {
      return flight_ ? flight_->chrome_json()
                     : std::string("{\"traceEvents\":[]}");
    });
    endpoint_->handle("/diagnostics", "application/json",
                      [this] { return capture_diagnostic("on-demand", ""); });
    if (!endpoint_->start(config_.obs_port)) {
      std::fprintf(stderr,
                   "fxpar obs: cannot bind 127.0.0.1:%d; live endpoint "
                   "disabled\n",
                   config_.obs_port);
      endpoint_.reset();
    }
  }
}

namespace {

/// Shard index for metric updates: the calling processor's rank, or 0 when
/// invoked outside a processor body (the driver thread).
int metric_shard(const exec::Backend& backend) noexcept {
  try {
    return backend.current_rank();
  } catch (...) {
    return 0;
  }
}

}  // namespace

void Machine::count_plan_cache(bool hit) noexcept {
  (hit ? stat_plan_hits_ : stat_plan_misses_).fetch_add(1, std::memory_order_relaxed);
  if (!metrics_ && !tracer_) return;
  const int rank = metric_shard(*backend_);
  if (metrics_) (hit ? metrics_->plan_hits : metrics_->plan_misses)->add(rank);
  if (tracer_) tracer_->plan_cache_event(rank, hit);
}

void Machine::count_collective_plan(bool hit) noexcept {
  (hit ? stat_coll_hits_ : stat_coll_misses_).fetch_add(1, std::memory_order_relaxed);
  if (!metrics_ && !tracer_) return;
  const int rank = metric_shard(*backend_);
  if (metrics_) {
    (hit ? metrics_->collective_plan_hits : metrics_->collective_plan_misses)->add(rank);
  }
  if (tracer_) tracer_->plan_cache_event(rank, hit);
}

Machine::~Machine() {
  // Stop the server thread before any member it reads is torn down.
  if (endpoint_) endpoint_->stop();
  stop_watchdog();
}

runtime::Simulator& Machine::sim() {
  auto* sb = dynamic_cast<exec::SimBackend*>(backend_.get());
  if (!sb) {
    throw std::logic_error("Machine::sim: the '" + std::string(backend_->name()) +
                           "' backend has no event simulator");
  }
  return sb->sim();
}

RunResult Machine::run(const std::function<void(Context&)>& program) {
  if (!program) throw std::invalid_argument("Machine::run: empty program");
  std::vector<std::unique_ptr<Context>> contexts;
  contexts.reserve(static_cast<std::size_t>(num_procs()));
  for (int r = 0; r < num_procs(); ++r) {
    contexts.push_back(std::make_unique<Context>(*this, r));
  }
  if (tracer_) tracer_->reset();
  const auto host_t0 = std::chrono::steady_clock::now();
  run_state_.store(1, std::memory_order_release);
  start_watchdog();
  // Each processor's whole body runs inside a root "program" span so every
  // recorded event has an enclosing scope.
  try {
    backend_->run([this, &program, &contexts](int r) {
      Context& ctx = *contexts[static_cast<std::size_t>(r)];
      if (tracer_) tracer_->begin_span(r, "program", "root");
      program(ctx);
      if (tracer_) tracer_->end_span(r);
    });
  } catch (const std::exception& e) {
    stop_watchdog();
    // State first: capture_diagnostic only takes live sim introspection
    // when no run is executing (run_state_ != 1).
    run_state_.store(3, std::memory_order_release);
    const bool deadlock = dynamic_cast<const runtime::DeadlockError*>(&e) != nullptr;
    const std::string bundle =
        capture_diagnostic(deadlock ? "deadlock" : "abort", e.what());
    if (obs_enabled()) std::fprintf(stderr, "%s\n", bundle.c_str());
    throw;
  } catch (...) {
    stop_watchdog();
    run_state_.store(3, std::memory_order_release);
    capture_diagnostic("abort", "(non-standard exception)");
    throw;
  }
  stop_watchdog();
  run_state_.store(2, std::memory_order_release);
  const auto host_t1 = std::chrono::steady_clock::now();
  if (metrics_) {
    metrics_->runs->add(0);
    metrics_->last_run_host_s->set(
        std::chrono::duration<double>(host_t1 - host_t0).count());
  }

  const exec::BackendStats bs = backend_->stats();
  RunResult res;
  res.finish_time = bs.finish_time;
  res.clocks = bs.clocks;
  res.messages = bs.messages;
  res.bytes = bs.bytes;
  res.barriers = bs.barriers;
  res.steals = bs.steals;
  res.stolen_iters = bs.stolen_iters;
  res.backend = backend_->name();
  res.host_ms = std::chrono::duration<double, std::milli>(host_t1 - host_t0).count();
  res.wait_ms = bs.wait_ms;
  res.plan_cache_hits = stat_plan_hits_.load(std::memory_order_relaxed);
  res.plan_cache_misses = stat_plan_misses_.load(std::memory_order_relaxed);
  res.collective_plan_hits = stat_coll_hits_.load(std::memory_order_relaxed);
  res.collective_plan_misses = stat_coll_misses_.load(std::memory_order_relaxed);
  res.pool_spills = stat_pool_spills_.load(std::memory_order_relaxed);
  res.pinning = exec::pin_policy_name(config_.pinning);
  res.numa_nodes = bs.numa_nodes;
  res.traffic = bs.traffic;
  if (tracer_) {
    tracer_->finalize(res.finish_time);
    res.trace = tracer_;
  }
  if (metrics_) {
    res.metrics =
        std::make_shared<const metrics::Snapshot>(metrics_->registry.snapshot());
  }
  return res;
}

void Machine::deposit(int src, int dst, std::uint64_t tag, Payload data) {
  // `src` is always the calling processor (the backend derives it too), so
  // it doubles as the metric shard index.
  if (metrics_) {
    metrics_->messages->add(src);
    metrics_->message_bytes->add(src, data.size());
  }
  if (flight_) {
    flight_->record(src, obs::FlightKind::Message, backend_->now(src), "send",
                    static_cast<std::uint64_t>(dst), tag);
  }
  backend_->deposit(dst, tag, std::move(data));
}

Payload Machine::receive(int dst, int src, std::uint64_t tag) {
  // `dst` is always the calling processor; the backend derives it.
  if (!metrics_ && !flight_) return backend_->receive(src, tag);
  const double t0 = backend_->now(dst);
  Payload p = backend_->receive(src, tag);
  // Modeled wait on the simulator, real blocked seconds on threads.
  if (metrics_) metrics_->recv_wait_s->observe(dst, backend_->now(dst) - t0);
  if (flight_) {
    flight_->record(dst, obs::FlightKind::Recv, backend_->now(dst), "recv",
                    static_cast<std::uint64_t>(src), tag);
  }
  return p;
}

void Machine::barrier(const pgroup::ProcessorGroup& group) {
  if (!metrics_ && !flight_) {
    backend_->barrier(group);
    return;
  }
  const int rank = metric_shard(*backend_);
  const double t0 = backend_->now(rank);
  backend_->barrier(group);
  if (metrics_) {
    metrics_->barriers->add(rank);
    metrics_->barrier_wait_s->observe(rank, backend_->now(rank) - t0);
  }
  if (flight_) {
    flight_->record(rank, obs::FlightKind::Barrier, backend_->now(rank),
                    "barrier", group.key(), 0);
  }
}

void Machine::io_operation(std::size_t bytes) {
  if (!metrics_ && !flight_) {
    backend_->io_operation(bytes);
    return;
  }
  const int rank = metric_shard(*backend_);
  if (metrics_) metrics_->io_ops->add(rank);
  backend_->io_operation(bytes);
  if (flight_) {
    flight_->record(rank, obs::FlightKind::Io, backend_->now(rank), "io",
                    static_cast<std::uint64_t>(bytes), 0);
  }
}

// ---------------------------------------------------------------------------
// Live observability plane

std::string Machine::healthz_json() const {
  static const char* kStates[] = {"idle", "running", "done", "failed"};
  const int st = run_state_.load(std::memory_order_acquire);
  std::ostringstream os;
  os << "{\"status\":\"" << (st == 3 ? "failed" : "ok") << "\",\"run_state\":\""
     << kStates[st < 0 || st > 3 ? 0 : st] << "\",\"backend\":\""
     << backend_->name() << "\",\"procs\":" << num_procs();
  // Per-worker liveness. The simulator's introspection is fiber-mutated
  // state, unsafe to touch while its run thread executes; the threaded
  // backend answers from atomics at any time.
  const bool live_sim_run =
      backend_->kind() == exec::BackendKind::Sim && st == 1;
  if (!live_sim_run) {
    const obs::Introspection intro = backend_->introspect();
    os << ",\"now\":" << intro.now
       << ",\"workers\":" << obs::workers_json(intro.workers, intro.now)
       << ",\"barriers\":" << obs::barriers_json(intro.barriers);
  } else {
    os << ",\"workers\":null,\"barriers\":null";
  }
  if (flight_) {
    os << ",\"flight_recorded\":" << flight_->total_recorded()
       << ",\"flight_dropped\":" << flight_->dropped();
  }
  {
    std::lock_guard<std::mutex> lk(healthz_extra_mu_);
    if (healthz_extra_) os << ",\"serve\":" << healthz_extra_();
  }
  os << "}";
  return os.str();
}

std::string Machine::last_diagnostic() const {
  std::lock_guard<std::mutex> lk(diag_mu_);
  return last_diagnostic_;
}

std::string Machine::capture_diagnostic(const std::string& reason,
                                        const std::string& error) {
  obs::DiagnosticInfo d;
  d.reason = reason;
  d.error = error;
  d.backend = backend_->name();
  d.procs = num_procs();
  // Prefer the introspection frozen at the moment of failure (the threaded
  // backend captures one before waking workers to unwind); fall back to a
  // live one when it is safe to take.
  d.intro = backend_->failure_introspection();
  if (d.intro.workers.empty()) {
    const bool live_sim_run = backend_->kind() == exec::BackendKind::Sim &&
                              run_state_.load(std::memory_order_acquire) == 1;
    if (!live_sim_run) d.intro = backend_->introspect();
  }
  if (metrics_) d.metrics_json = metrics_->registry.snapshot().to_json();
  if (flight_) d.recent = flight_->snapshot();
  std::string bundle = obs::diagnostic_json(d);
  {
    std::lock_guard<std::mutex> lk(diag_mu_);
    last_diagnostic_ = bundle;
  }
  return bundle;
}

void Machine::start_watchdog() {
  // Concurrent backends only: the watchdog polls Backend::progress() from
  // its own thread, which the single-threaded simulator cannot tolerate
  // (and a sim run monopolizes the run thread anyway). The threaded
  // backend answers from worker atomics, the process backend from its
  // shared-memory control block — both safe at any time.
  if (config_.stall_watchdog_s <= 0 ||
      backend_->kind() == exec::BackendKind::Sim) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(watchdog_mu_);
    watchdog_stop_ = false;
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

void Machine::stop_watchdog() {
  {
    std::lock_guard<std::mutex> lk(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void Machine::watchdog_loop() {
  const double limit = config_.stall_watchdog_s;
  // Poll at a quarter of the stall limit, clamped to [10, 250] ms: fine
  // enough to fire near the deadline, coarse enough to cost nothing.
  const auto poll = std::chrono::milliseconds(
      std::min<long>(250, std::max<long>(10, static_cast<long>(limit * 250))));
  std::uint64_t last_progress = backend_->progress();
  auto last_change = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lk(watchdog_mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lk, poll);
    if (watchdog_stop_) break;
    const std::uint64_t p = backend_->progress();
    const auto now = std::chrono::steady_clock::now();
    if (p != last_progress) {
      last_progress = p;
      last_change = now;
      continue;
    }
    if (std::chrono::duration<double>(now - last_change).count() < limit) continue;
    lk.unlock();
    std::ostringstream why;
    why << "no runtime-service progress for " << limit << " s";
    const std::string bundle = capture_diagnostic("stall", why.str());
    std::fprintf(stderr, "fxpar stall watchdog: %s\n", bundle.c_str());
    lk.lock();
    last_change = now;  // re-arm: report again after another full window
  }
}

namespace {

/// Pool shard of the calling processor, or -1 from the driver thread
/// (which has no shard and goes straight to the shared spill list).
int pool_shard_rank(const exec::Backend& backend) noexcept {
  try {
    return backend.current_rank();
  } catch (...) {
    return -1;
  }
}

}  // namespace

Payload Machine::pool_acquire(std::size_t bytes) {
  Payload p;
  const int rank = pool_shard_rank(*backend_);
  if (rank >= 0) {
    auto& shard = pool_shards_[static_cast<std::size_t>(rank)].bufs;
    if (!shard.empty()) {
      p = std::move(shard.back());
      shard.pop_back();
    }
  }
  if (p.capacity() == 0) {
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (!payload_pool_.empty()) {
      p = std::move(payload_pool_.back());
      payload_pool_.pop_back();
    }
  }
  // Same-size reuse makes this resize a no-op: unlike a freshly
  // constructed Payload there is no value-initializing memset. Contents
  // are unspecified by contract; every caller overwrites the buffer.
  p.resize(bytes);
  return p;
}

std::vector<double> Machine::double_acquire(std::size_t n) {
  std::vector<double> v;
  const int rank = pool_shard_rank(*backend_);
  if (rank >= 0) {
    auto& shard = pool_shards_[static_cast<std::size_t>(rank)].dbufs;
    if (!shard.empty()) {
      v = std::move(shard.back());
      shard.pop_back();
    }
  }
  if (v.capacity() == 0) {
    std::lock_guard<std::mutex> lk(pool_mu_);
    if (!double_pool_.empty()) {
      v = std::move(double_pool_.back());
      double_pool_.pop_back();
    }
  }
  // Same-capacity reuse makes this resize a no-op (no value-initializing
  // memset of a fresh vector). Contents are unspecified by contract.
  v.resize(n);
  return v;
}

void Machine::double_release(std::vector<double>&& v) {
  if (v.capacity() == 0 || !keeps_plans()) return;
  const int rank = pool_shard_rank(*backend_);
  if (rank >= 0) {
    auto& shard = pool_shards_[static_cast<std::size_t>(rank)].dbufs;
    if (shard.size() < kMaxShardPayloads) {
      shard.push_back(std::move(v));
      return;
    }
    stat_pool_spills_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_) metrics_->pool_spills->add(rank);
  }
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (double_pool_.size() < kMaxPooledPayloads) {
    double_pool_.push_back(std::move(v));
  }
}

void Machine::pool_release(Payload&& p) {
  if (p.capacity() == 0 || !keeps_plans()) return;
  const int rank = pool_shard_rank(*backend_);
  if (rank >= 0) {
    auto& shard = pool_shards_[static_cast<std::size_t>(rank)].bufs;
    if (shard.size() < kMaxShardPayloads) {
      shard.push_back(std::move(p));
      return;
    }
    // Shard full: spill to the shared list so senders elsewhere can
    // reacquire the allocation (buffers migrate sender -> receiver).
    stat_pool_spills_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_) metrics_->pool_spills->add(rank);
  }
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (payload_pool_.size() < kMaxPooledPayloads) {
    payload_pool_.push_back(std::move(p));
  }
}

}  // namespace fxpar::machine
