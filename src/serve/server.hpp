// fxpar serve: multi-tenant stream serving with online remapping.
//
// This is the dynamic form of the paper's Figure 5 experiment. A serving
// driver owns one Machine and admits many independent request streams
// (each a sequence of data sets for the same pipeline — FFT-Hist dwells,
// radar dwells, stereo frames). Requests queue in arrival order, are
// grouped into batches, and each batch runs through the stream-pipeline
// executor under the *currently installed* mapping. Between batches —
// the pipeline's natural drain points — the driver measures the offered
// rate over the recent arrival window and asks RemapPolicy whether the
// mapping should change (drain -> remap -> resume). Remaps are visible
// everywhere the runtime already looks: a flight-recorder Mark, serve
// counters/gauges in the metrics registry (and therefore /metrics and any
// Sampler series), a "serve" fragment on /healthz, and per-epoch records
// in the returned report.
//
// Time model. The control loop runs in *virtual* time derived from the
// pipeline cost model: a batch of n data sets under mapping M occupies
// the pipe for M.latency + (n - 1) / M.throughput virtual seconds, and
// request latencies are charged against that clock. This makes the whole
// serving trajectory — batch boundaries, measured rates, remap points,
// latency percentiles — bit-identical across the sim, threaded and
// process backends, which is what lets tests assert per-stream result
// parity across a remap boundary on all three. The real runs underneath
// still produce (and verify) the actual data products; the virtual clock
// only drives admission and the policy.
//
// Determinism across remaps. Stages receive each request's *global* data
// id (StreamRunOptions::set_ids), never the batch-local index, so a
// request's result depends only on its id — not on which mapping, batch
// or replica instance processed it. Per-stream outputs are therefore
// bit-identical to an uninterrupted single-mapping run of the same ids.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/stream_pipeline.hpp"
#include "comm/serialize.hpp"
#include "serve/policy.hpp"

namespace fxpar::serve {

/// One request of one tenant stream.
struct ServeRequest {
  int stream = 0;        ///< tenant stream id
  long seq = 0;          ///< per-stream sequence number
  double arrival_t = 0;  ///< virtual arrival time (seconds)
  int data_id = 0;       ///< global data-set id handed to the stages
};

/// Completion record of one served request (virtual-clock seconds).
struct RequestRecord {
  int stream = 0;
  long seq = 0;
  int data_id = 0;
  int epoch = -1;  ///< batch that served it (-1: shed, never served)
  double arrival_t = 0;
  double start_t = 0;   ///< entry into the pipeline
  double finish_t = 0;  ///< completion of the last stage
  double latency() const noexcept { return finish_t - arrival_t; }
};

/// One batch (epoch) of the serving loop.
struct EpochRecord {
  int epoch = 0;
  double t_start = 0;
  double t_end = 0;
  int sets = 0;                    ///< requests served this epoch
  double offered_rate = 0;         ///< measured arrivals/second at t_start
  double required_throughput = 0;  ///< policy requirement (safety * offered)
  bool remapped = false;           ///< mapping changed entering this epoch
  bool slo_feasible = true;        ///< false while on the best-effort fallback
  double map_throughput = 0;       ///< modeled capacity of the installed mapping
  double map_latency = 0;
  int map_procs = 0;
  std::string mapping;  ///< human-readable module list
};

/// Everything one serve_streams() call did.
struct ServeReport {
  std::vector<RequestRecord> requests;  ///< completion order
  std::vector<RequestRecord> shed;      ///< admission-rejected (queue full)
  std::vector<EpochRecord> epochs;
  int remaps = 0;         ///< mapping changes after the initial install
  int infeasible_epochs = 0;  ///< epochs served under an unmet SLO
  double makespan = 0;    ///< final virtual time
  int num_streams = 0;

  double throughput() const noexcept {
    return makespan > 0 ? static_cast<double>(requests.size()) / makespan : 0.0;
  }
  /// q-quantile of served request latency (q in [0,1]; 0 when empty).
  double latency_quantile(double q) const;
  double mean_latency() const;

  /// Summary as one JSON object (requests/shed counts, remaps, percentiles,
  /// per-epoch array) — the payload bench_serve emits and CI validates.
  std::string to_json() const;
};

/// Serving-loop knobs.
struct ServeConfig {
  /// Max data sets per batch. The batch is the remap quantum: smaller
  /// batches react faster and pay more drain overhead.
  int max_batch = 8;
  /// Queue capacity; arrivals beyond it are shed (0 = unbounded).
  int max_queue = 0;
  /// Arrivals used for the offered-rate estimate (rate over the span of
  /// the most recent `rate_window` admitted arrivals).
  int rate_window = 16;
  PolicyConfig policy;
  /// External sampler polled during every batch (shared across epochs and
  /// remaps; caller owns it and its series).
  metrics::Sampler* sampler = nullptr;
  /// Builds the per-batch epilogue from the installed modules and the
  /// batch's global data ids — the proc backend needs one to funnel sink
  /// rows written by a non-zero rank to rank 0 (see batch_funnel).
  std::function<std::function<void(machine::Context&)>(
      const std::vector<apps::StreamModule>&, const std::vector<int>&)>
      epilogue_factory;
};

/// Physical rank that records data set `local_set` of a batch: virtual
/// rank 0 of the last module's serving instance, under the contiguous
/// subgroup layout of the stream executor ("m<m>.i<j>" in spec order).
inline int last_stage_writer_phys(const std::vector<apps::StreamModule>& modules,
                                  int local_set) {
  int base = 0;
  for (std::size_t m = 0; m + 1 < modules.size(); ++m) {
    base += modules[m].procs * modules[m].instances;
  }
  const apps::StreamModule& last = modules.back();
  return base + (local_set % last.instances) * last.procs;
}

/// Epilogue that ships each batch row of a per-data-set sink from the rank
/// that recorded it to physical rank 0 — the serving analogue of the
/// parity tests' funnel, but per batch: only this batch's rows move, so a
/// long-lived sink accumulates correctly across epochs on the process
/// backend (children fork from the parent, which already holds every
/// previously funneled row). Returns an empty function when every writer
/// already is rank 0. Usable as ServeConfig::epilogue_factory via
/// make_batch_funnel_factory.
template <typename T>
std::function<void(machine::Context&)> batch_funnel(
    std::vector<std::vector<T>>& sink, const std::vector<apps::StreamModule>& modules,
    std::vector<int> ids) {
  bool any = false;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (last_stage_writer_phys(modules, static_cast<int>(i)) != 0) any = true;
  }
  if (!any) return {};
  return [&sink, modules, ids = std::move(ids)](machine::Context& ctx) {
    constexpr int kTag0 = 7300;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const int writer = last_stage_writer_phys(modules, static_cast<int>(i));
      if (writer == 0) continue;
      const auto row = static_cast<std::size_t>(ids[i]);
      if (ctx.phys_rank() == writer) {
        ctx.send_phys(0, kTag0 + static_cast<int>(i),
                      comm::pack_span(std::span<const T>(sink[row])));
      } else if (ctx.phys_rank() == 0) {
        sink[row] = comm::unpack_vector<T>(
            ctx.recv_phys(writer, kTag0 + static_cast<int>(i)));
      }
    }
  };
}

/// ServeConfig::epilogue_factory adapter around batch_funnel for the
/// common vector-of-rows sink shape.
template <typename T>
std::function<std::function<void(machine::Context&)>(
    const std::vector<apps::StreamModule>&, const std::vector<int>&)>
make_batch_funnel_factory(std::vector<std::vector<T>>& sink) {
  return [&sink](const std::vector<apps::StreamModule>& modules,
                 const std::vector<int>& ids) {
    return batch_funnel(sink, modules, ids);
  };
}

namespace detail {

/// Live state behind the /healthz "serve" fragment. Shared with the
/// endpoint thread, hence the mutex; the driver updates it per epoch.
struct ServeHealth {
  std::mutex mu;
  int epoch = 0;
  int queue_depth = 0;
  double offered_rate = 0;
  double required_throughput = 0;
  int remaps = 0;
  bool slo_feasible = true;
  std::string mapping;
  long served = 0;
  long shed = 0;

  std::string json() {
    std::lock_guard<std::mutex> lk(mu);
    std::ostringstream os;
    os << "{\"epoch\":" << epoch << ",\"queue_depth\":" << queue_depth
       << ",\"offered_rate\":" << offered_rate
       << ",\"required_throughput\":" << required_throughput
       << ",\"remaps\":" << remaps
       << ",\"slo_feasible\":" << (slo_feasible ? "true" : "false")
       << ",\"served\":" << served << ",\"shed\":" << shed << ",\"mapping\":\""
       << mapping << "\"}";
    return os.str();
  }
};

}  // namespace detail

/// Serves every request in `arrivals` (any order; sorted internally by
/// arrival time) through `stages` on `machine`, planning and re-planning
/// the mapping against `model` as the offered load shifts. Returns when
/// the last request completes. The machine must outlive the call; its
/// metrics registry (if enabled) gains fxpar_serve_* metrics and its
/// /healthz a "serve" fragment that stays readable after return.
template <typename T>
ServeReport serve_streams(machine::Machine& machine,
                          const std::vector<apps::PipelineStage<T>>& stages,
                          const sched::PipelineModel& model,
                          std::vector<ServeRequest> arrivals,
                          const ServeConfig& cfg = {}) {
  if (cfg.max_batch < 1) {
    throw std::invalid_argument("serve_streams: max_batch must be >= 1");
  }
  if (cfg.rate_window < 2) {
    throw std::invalid_argument("serve_streams: rate_window must be >= 2");
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const ServeRequest& a, const ServeRequest& b) {
                     if (a.arrival_t != b.arrival_t) return a.arrival_t < b.arrival_t;
                     if (a.stream != b.stream) return a.stream < b.stream;
                     return a.seq < b.seq;
                   });

  metrics::RuntimeMetrics* const mm = machine.metrics();
  metrics::Counter* c_requests = nullptr;
  metrics::Counter* c_epochs = nullptr;
  metrics::Counter* c_remaps = nullptr;
  metrics::Counter* c_shed = nullptr;
  metrics::Counter* c_infeasible = nullptr;
  metrics::Gauge* g_offered = nullptr;
  metrics::Gauge* g_required = nullptr;
  metrics::Gauge* g_capacity = nullptr;
  metrics::Gauge* g_queue = nullptr;
  metrics::Histogram* h_latency = nullptr;
  if (mm) {
    c_requests = mm->registry.counter("fxpar_serve_requests_total");
    c_epochs = mm->registry.counter("fxpar_serve_epochs_total");
    c_remaps = mm->registry.counter("fxpar_serve_remaps_total");
    c_shed = mm->registry.counter("fxpar_serve_shed_total");
    c_infeasible = mm->registry.counter("fxpar_serve_infeasible_epochs_total");
    g_offered = mm->registry.gauge("fxpar_serve_offered_rate");
    g_required = mm->registry.gauge("fxpar_serve_required_throughput");
    g_capacity = mm->registry.gauge("fxpar_serve_mapping_throughput");
    g_queue = mm->registry.gauge("fxpar_serve_queue_depth");
    h_latency = mm->registry.histogram("fxpar_serve_latency_seconds");
  }

  auto health = std::make_shared<detail::ServeHealth>();
  machine.set_healthz_extra([health] { return health->json(); });

  RemapPolicy policy(model, machine.num_procs(), cfg.policy);
  ServeReport report;
  {
    int max_stream = -1;
    for (const ServeRequest& r : arrivals) max_stream = std::max(max_stream, r.stream);
    report.num_streams = max_stream + 1;
  }

  double t = 0.0;
  std::size_t next = 0;
  std::deque<ServeRequest> queue;
  std::deque<double> recent_arrivals;  // admission times for the rate estimate
  int epoch = 0;

  const auto admit_due = [&] {
    while (next < arrivals.size() && arrivals[next].arrival_t <= t) {
      if (cfg.max_queue > 0 && static_cast<int>(queue.size()) >= cfg.max_queue) {
        RequestRecord rr;
        rr.stream = arrivals[next].stream;
        rr.seq = arrivals[next].seq;
        rr.data_id = arrivals[next].data_id;
        rr.arrival_t = arrivals[next].arrival_t;
        report.shed.push_back(rr);
        if (c_shed) c_shed->add(0);
      } else {
        queue.push_back(arrivals[next]);
      }
      recent_arrivals.push_back(arrivals[next].arrival_t);
      while (static_cast<int>(recent_arrivals.size()) > cfg.rate_window) {
        recent_arrivals.pop_front();
      }
      ++next;
    }
  };

  while (true) {
    admit_due();
    if (queue.empty()) {
      if (next >= arrivals.size()) break;  // drained everything
      t = arrivals[next].arrival_t;        // idle until the next arrival
      continue;
    }

    // Offered rate over the recent arrival window. A degenerate window
    // (all simultaneous) reads as an effectively unbounded rate; the
    // mapper then reports the SLO infeasible and the policy serves
    // best-effort, which is the right answer for a burst.
    double offered = 0.0;
    if (recent_arrivals.size() >= 2) {
      const double span = recent_arrivals.back() - recent_arrivals.front();
      const double n = static_cast<double>(recent_arrivals.size() - 1);
      offered = span > 0.0 ? n / span : std::numeric_limits<double>::max();
    }

    const RemapDecision d = policy.decide(offered);
    const std::vector<apps::StreamModule> modules =
        apps::to_stream_modules(d.mapping);
    const bool remapped = !d.initial && d.action != RemapAction::Keep &&
                          policy.remaps() > report.remaps;
    if (remapped) {
      report.remaps = policy.remaps();
      if (c_remaps) c_remaps->add(0);
      machine.sink().mark(0, t, "serve.remap", static_cast<std::uint64_t>(epoch),
                          static_cast<std::uint64_t>(report.remaps));
    }

    // Take the batch.
    std::vector<ServeRequest> batch;
    std::vector<int> ids;
    while (!queue.empty() && static_cast<int>(batch.size()) < cfg.max_batch) {
      batch.push_back(queue.front());
      ids.push_back(queue.front().data_id);
      queue.pop_front();
    }
    const int n = static_cast<int>(batch.size());

    // Execute it for real under the installed mapping.
    apps::StreamRunOptions opts;
    opts.set_ids = &ids;
    opts.sampler = cfg.sampler;
    std::function<void(machine::Context&)> epi;
    if (cfg.epilogue_factory) {
      epi = cfg.epilogue_factory(modules, ids);
      opts.epilogue = epi;
    }
    apps::run_stream_pipeline_on(machine, stages, modules, n, opts);

    // Advance the virtual clock by the model-predicted batch occupancy
    // (fill latency + steady spacing), and charge per-request latencies
    // against it.
    const double spacing =
        d.mapping.throughput > 0.0 ? 1.0 / d.mapping.throughput : 0.0;
    const double epoch_start = t;
    for (int i = 0; i < n; ++i) {
      RequestRecord rr;
      rr.stream = batch[static_cast<std::size_t>(i)].stream;
      rr.seq = batch[static_cast<std::size_t>(i)].seq;
      rr.data_id = batch[static_cast<std::size_t>(i)].data_id;
      rr.epoch = epoch;
      rr.arrival_t = batch[static_cast<std::size_t>(i)].arrival_t;
      rr.start_t = epoch_start;
      rr.finish_t = epoch_start + d.mapping.latency + spacing * static_cast<double>(i);
      report.requests.push_back(rr);
      if (h_latency) h_latency->observe(0, rr.latency());
      if (c_requests) c_requests->add(0);
    }
    t = epoch_start + d.mapping.latency +
        spacing * static_cast<double>(n > 0 ? n - 1 : 0);

    EpochRecord er;
    er.epoch = epoch;
    er.t_start = epoch_start;
    er.t_end = t;
    er.sets = n;
    er.offered_rate = offered;
    er.required_throughput = d.required_throughput;
    er.remapped = remapped;
    er.slo_feasible = d.slo_feasible;
    er.map_throughput = d.mapping.throughput;
    er.map_latency = d.mapping.latency;
    er.map_procs = d.mapping.total_procs();
    er.mapping = d.mapping.to_string(model);
    report.epochs.push_back(er);
    if (!d.slo_feasible) {
      ++report.infeasible_epochs;
      if (c_infeasible) c_infeasible->add(0);
    }
    if (c_epochs) c_epochs->add(0);
    if (g_offered) g_offered->set(offered);
    if (g_required) g_required->set(d.required_throughput);
    if (g_capacity) g_capacity->set(d.mapping.throughput);
    if (g_queue) g_queue->set(static_cast<double>(queue.size()));

    {
      std::lock_guard<std::mutex> lk(health->mu);
      health->epoch = epoch;
      health->queue_depth = static_cast<int>(queue.size());
      health->offered_rate = offered;
      health->required_throughput = d.required_throughput;
      health->remaps = report.remaps;
      health->slo_feasible = d.slo_feasible;
      health->mapping = er.mapping;
      health->served = static_cast<long>(report.requests.size());
      health->shed = static_cast<long>(report.shed.size());
    }
    ++epoch;
  }

  report.makespan = t;
  if (cfg.sampler) cfg.sampler->finish();  // series covers the final epoch
  return report;
}

}  // namespace fxpar::serve
