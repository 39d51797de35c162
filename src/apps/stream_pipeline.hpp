// fxpar apps: generic executor for pipelined data parallel stream programs.
//
// This is the programmable analogue of the paper's Section 3.2/3.3 usage
// patterns. A stream program is a chain of data parallel stages; a mapping
// groups contiguous stages into modules, gives each module p processors per
// instance and r replicated instances (instance j of a module processes
// data sets k with k % r == j). The executor builds one TASK_PARTITION with
// one subgroup per (module, instance), allocates each stage's input/output
// DistArrays on its instance's subgroup, and drives the stream:
//
//   for every data set k:            // replicated induction variable
//     for every module m, its instance j = k % r_m:
//       hand off the previous module's output with assign()   (parent scope)
//       region.on("m<m>.i<j>", run stages of m)               (subgroup scope)
//
// Because assign() only involves the owner groups and ON blocks only their
// subgroup, non-participating processors race ahead — this is exactly the
// pipelining mechanism of the paper, not bespoke executor machinery.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fx.hpp"
#include "sched/pipeline.hpp"

namespace fxpar::apps {

using dist::DistArray;
using dist::Layout;

/// One data parallel stage of a stream program. The first stage of the
/// chain is the source: its `run` ignores `in` and generates data set `k`.
template <typename T>
struct PipelineStage {
  std::string name;
  /// Layout of the stage's input array on an instance subgroup.
  std::function<Layout(const pgroup::ProcessorGroup&)> in_layout;
  /// Layout of the stage's output array on an instance subgroup.
  std::function<Layout(const pgroup::ProcessorGroup&)> out_layout;
  /// Executes the stage on the current subgroup (members only). `in` holds
  /// the stage input; the stage must fill `out` and charge modeled time.
  std::function<void(machine::Context&, DistArray<T>& in, DistArray<T>& out, int k)> run;
};

/// Module of a stream mapping (a sched::ModuleAssignment applied to real
/// stages).
using StreamModule = sched::ModuleAssignment;

/// Per-run statistics of a stream execution.
struct StreamStats {
  int num_sets = 0;
  double makespan = 0.0;              ///< completion time of the whole stream
  std::vector<double> start;          ///< per data set: entry into the source stage
  std::vector<double> end;            ///< per data set: completion of the last stage
  machine::RunResult machine_result;  ///< raw machine counters

  /// Periodic metrics snapshots taken while the stream ran (rank 0 polls
  /// once per data set). Empty unless a sample period was requested and
  /// MachineConfig::metrics is on; always ends with a final snapshot.
  std::vector<metrics::Snapshot> metrics_series;

  /// The sampled time series as one JSON array (empty array when none).
  std::string metrics_series_json() const;

  /// End-to-end rate including pipeline fill.
  double throughput() const {
    return makespan > 0.0 ? static_cast<double>(num_sets) / makespan : 0.0;
  }
  /// Steady-state rate: completions per second over the second half of the
  /// stream (the paper reports steady-state throughput).
  double steady_throughput() const;
  double avg_latency() const;
  double max_latency() const;
};

/// Converts a sched mapping into stream modules (drops scheduling metadata).
std::vector<StreamModule> to_stream_modules(const sched::PipelineMapping& mapping);

/// Optional knobs of one stream run (see run_stream_pipeline_on).
struct StreamRunOptions {
  /// `epilogue`, when set, runs on every processor after the last data set
  /// (still inside the machine run, parent scope). Stream programs whose
  /// results are recorded by a rank other than physical 0 use it to funnel
  /// those results to rank 0 with send_phys/recv_phys — on the process
  /// backend only rank 0's address space survives the run, so a sink
  /// captured by reference is visible to the driver only if rank 0 wrote
  /// (or received) it.
  std::function<void(machine::Context&)> epilogue;

  /// Data-set ids handed to the stages. When set (size must equal
  /// num_sets), stage `run` callbacks receive (*set_ids)[set] instead of
  /// the local set index — a serving driver uses this to pump a batch of
  /// globally-numbered requests through one run while the stages keep
  /// generating per-request inputs from the global id. Instance
  /// round-robin and timing stay keyed on the local index.
  const std::vector<int>* set_ids = nullptr;

  /// External metrics sampler polled by physical rank 0 once per data set.
  /// The caller owns it — no terminal flush, no take — so one sampler can
  /// span many runs of one machine (the serving driver's epochs share a
  /// series across remaps). Single-threaded discipline applies: only poll
  /// it elsewhere between runs, never during one.
  metrics::Sampler* sampler = nullptr;
};

/// Re-entrant core of run_stream_pipeline: runs `num_sets` data sets
/// through `stages` mapped by `modules` on an *existing* machine, so a
/// long-running driver can pump many batches — possibly under different
/// mappings — through one Machine, keeping its metrics registry, plan
/// caches, flight recorder and live endpoint across runs (drain → remap →
/// resume). The sum of module processor counts must not exceed the
/// machine's processor count (leftover processors idle, as on a real
/// machine).
template <typename T>
StreamStats run_stream_pipeline_on(machine::Machine& machine,
                                   const std::vector<PipelineStage<T>>& stages,
                                   const std::vector<StreamModule>& modules, int num_sets,
                                   const StreamRunOptions& opts = {}) {
  if (stages.empty() || modules.empty() || num_sets <= 0) {
    throw std::invalid_argument("run_stream_pipeline: empty problem");
  }
  int used = 0;
  for (const StreamModule& m : modules) {
    if (m.first_stage < 0 || m.last_stage < m.first_stage ||
        m.last_stage >= static_cast<int>(stages.size())) {
      throw std::invalid_argument("run_stream_pipeline: bad module stage range");
    }
    used += m.procs * m.instances;
  }
  if (modules.front().first_stage != 0 ||
      modules.back().last_stage != static_cast<int>(stages.size()) - 1) {
    throw std::invalid_argument("run_stream_pipeline: modules must cover all stages");
  }
  const int num_procs = machine.num_procs();
  if (used > num_procs) {
    throw std::invalid_argument("run_stream_pipeline: mapping uses " + std::to_string(used) +
                                " processors but the machine has " +
                                std::to_string(num_procs));
  }
  if (opts.set_ids && static_cast<int>(opts.set_ids->size()) != num_sets) {
    throw std::invalid_argument("run_stream_pipeline: set_ids size must equal num_sets");
  }

  StreamStats stats;
  stats.num_sets = num_sets;
  stats.start.assign(static_cast<std::size_t>(num_sets),
                     std::numeric_limits<double>::infinity());
  stats.end.assign(static_cast<std::size_t>(num_sets),
                   -std::numeric_limits<double>::infinity());

  // Per-processor timestamp scratch, merged below: each rank writes only
  // its own row, so recording is race-free on the threaded backend too.
  // Forked ranks (the process backend) write rows in their own address
  // space, so the run body ships them to rank 0 before it ends.
  std::vector<std::vector<double>> start_pp(
      static_cast<std::size_t>(num_procs),
      std::vector<double>(static_cast<std::size_t>(num_sets),
                          std::numeric_limits<double>::infinity()));
  std::vector<std::vector<double>> end_pp(
      static_cast<std::size_t>(num_procs),
      std::vector<double>(static_cast<std::size_t>(num_sets),
                          -std::numeric_limits<double>::infinity()));

  const bool forked_ranks = machine.config().backend == exec::BackendKind::Proc;
  metrics::RuntimeMetrics* const mm = machine.metrics();
  metrics::Sampler* const sampler = opts.sampler;
  const auto& epilogue = opts.epilogue;
  stats.machine_result = machine.run([&](machine::Context& ctx) {
    // One subgroup per (module, instance); leftovers become "idle".
    std::vector<SubgroupSpec> specs;
    for (std::size_t m = 0; m < modules.size(); ++m) {
      for (int j = 0; j < modules[m].instances; ++j) {
        specs.push_back({"m" + std::to_string(m) + ".i" + std::to_string(j),
                         modules[m].procs});
      }
    }
    if (used < ctx.nprocs()) specs.push_back({"idle", ctx.nprocs() - used});
    core::TaskPartition part(ctx, std::move(specs), "stream");

    // Materialize per-(module, instance, stage) arrays. Indexing:
    // arrays[m][j] = {in/out per stage of module m}.
    struct StageBufs {
      std::unique_ptr<DistArray<T>> in, out;
    };
    trace::ScopedSpan setup_span = ctx.span("setup", "stream");
    std::vector<std::vector<std::vector<StageBufs>>> bufs(modules.size());
    for (std::size_t m = 0; m < modules.size(); ++m) {
      bufs[m].resize(static_cast<std::size_t>(modules[m].instances));
      for (int j = 0; j < modules[m].instances; ++j) {
        const auto& g = part.subgroup("m" + std::to_string(m) + ".i" + std::to_string(j));
        auto& per_stage = bufs[m][static_cast<std::size_t>(j)];
        for (int s = modules[m].first_stage; s <= modules[m].last_stage; ++s) {
          const auto& stage = stages[static_cast<std::size_t>(s)];
          StageBufs b;
          b.in = std::make_unique<DistArray<T>>(ctx, stage.in_layout(g),
                                                stage.name + ".in");
          b.out = std::make_unique<DistArray<T>>(ctx, stage.out_layout(g),
                                                 stage.name + ".out");
          per_stage.push_back(std::move(b));
        }
      }
    }

    setup_span.close();

    core::TaskRegion region(ctx, part);
    core::Replicated<int> k(ctx, 0);
    for (int set = 0; set < num_sets; ++set) {
      for (std::size_t m = 0; m < modules.size(); ++m) {
        const int j = set % modules[m].instances;
        auto& per_stage = bufs[m][static_cast<std::size_t>(j)];
        // Hand off from the previous module (parent scope: everyone calls,
        // only the two instance groups take part).
        if (m > 0) {
          const int pj = set % modules[m - 1].instances;
          auto& prev = bufs[m - 1][static_cast<std::size_t>(pj)];
          dist::assign(ctx, *per_stage.front().in, *prev.back().out);
        }
        // Run the module's stages on its subgroup.
        region.on("m" + std::to_string(m) + ".i" + std::to_string(j), [&] {
          if (m == 0) {
            auto& mine = start_pp[static_cast<std::size_t>(ctx.phys_rank())];
            mine[static_cast<std::size_t>(set)] =
                std::min(mine[static_cast<std::size_t>(set)], ctx.now());
          }
          for (std::size_t s = 0; s < per_stage.size(); ++s) {
            if (s > 0) {
              dist::assign(ctx, *per_stage[s].in, *per_stage[s - 1].out);
            }
            const int abs_stage = modules[m].first_stage + static_cast<int>(s);
            trace::ScopedSpan stage_span;
            if (ctx.tracer()) {
              stage_span =
                  ctx.span(stages[static_cast<std::size_t>(abs_stage)].name, "stage");
            }
            const int data_id = opts.set_ids ? (*opts.set_ids)[static_cast<std::size_t>(set)]
                                             : set;
            stages[static_cast<std::size_t>(abs_stage)].run(ctx, *per_stage[s].in,
                                                            *per_stage[s].out, data_id);
          }
          if (m + 1 == modules.size()) {
            auto& mine = end_pp[static_cast<std::size_t>(ctx.phys_rank())];
            mine[static_cast<std::size_t>(set)] =
                std::max(mine[static_cast<std::size_t>(set)], ctx.now());
            // One count per completed data set (the instance's lead member
            // counts, so replication does not inflate the rate).
            if (mm && ctx.vrank() == 0) mm->pipeline_sets->add(ctx.phys_rank());
          }
        });
      }
      k.increment();
      // Time-series sampling: only rank 0 polls (the Sampler is
      // single-threaded); snapshot merging reads the other workers'
      // shards with relaxed atomics, so no one stalls.
      if (sampler && ctx.phys_rank() == 0) sampler->poll();
    }
    if (forked_ranks) {
      // One message per non-zero rank: its start row, then its end row.
      constexpr std::uint64_t kStampTag = 0x5354414d50ull;  // "STAMP"
      const auto n = static_cast<std::size_t>(num_sets);
      const auto me = static_cast<std::size_t>(ctx.phys_rank());
      if (me != 0) {
        std::vector<double> rows(start_pp[me]);
        rows.insert(rows.end(), end_pp[me].begin(), end_pp[me].end());
        ctx.send_phys(0, kStampTag, comm::pack_span(std::span<const double>(rows)));
      } else {
        for (int q = 1; q < num_procs; ++q) {
          const auto rows = comm::unpack_vector<double>(ctx.recv_phys(q, kStampTag));
          const auto qi = static_cast<std::size_t>(q);
          std::copy(rows.begin(), rows.begin() + static_cast<std::ptrdiff_t>(n),
                    start_pp[qi].begin());
          std::copy(rows.begin() + static_cast<std::ptrdiff_t>(n), rows.end(),
                    end_pp[qi].begin());
        }
      }
    }
    if (epilogue) epilogue(ctx);
  });
  for (int set = 0; set < num_sets; ++set) {
    for (int p = 0; p < num_procs; ++p) {
      stats.start[static_cast<std::size_t>(set)] =
          std::min(stats.start[static_cast<std::size_t>(set)],
                   start_pp[static_cast<std::size_t>(p)][static_cast<std::size_t>(set)]);
      stats.end[static_cast<std::size_t>(set)] =
          std::max(stats.end[static_cast<std::size_t>(set)],
                   end_pp[static_cast<std::size_t>(p)][static_cast<std::size_t>(set)]);
    }
  }
  stats.makespan = stats.machine_result.finish_time;
  return stats;
}

/// One-shot convenience: builds a machine from `config`, runs the stream on
/// it, and — when `metrics_sample_period_s` > 0 and MachineConfig::metrics
/// is on — samples the machine's registry into StreamStats::metrics_series
/// (rank 0 polls once per data set; the series always ends with a terminal
/// finish() snapshot, so streams shorter than the period still cover their
/// activity).
template <typename T>
StreamStats run_stream_pipeline(const machine::MachineConfig& config,
                                const std::vector<PipelineStage<T>>& stages,
                                const std::vector<StreamModule>& modules, int num_sets,
                                double metrics_sample_period_s = 0.0,
                                std::function<void(machine::Context&)> epilogue = {}) {
  machine::Machine machine(config);
  metrics::RuntimeMetrics* const mm = machine.metrics();
  std::unique_ptr<metrics::Sampler> sampler;
  if (metrics_sample_period_s > 0.0 && mm) {
    sampler = std::make_unique<metrics::Sampler>(mm->registry, metrics_sample_period_s);
  }
  StreamRunOptions opts;
  opts.epilogue = std::move(epilogue);
  opts.sampler = sampler.get();
  StreamStats stats = run_stream_pipeline_on(machine, stages, modules, num_sets, opts);
  if (sampler) {
    sampler->finish();
    stats.metrics_series = sampler->take_series();
  }
  return stats;
}

}  // namespace fxpar::apps
