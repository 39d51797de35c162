// perfbench: stamps taken around apps::PipelineStage::run callbacks.
//
// Each rank appends only to its own RankLog, so recording is race-free on
// the threaded backend. On the process backend each rank's log lives in its
// own address space; funnel_to_rank0 ships the child logs to rank 0 from a
// StreamRunOptions::epilogue. The library's StreamStats::start/end are not
// used: only rank 0's rows of those survive the fork (see README.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/ffthist.hpp"
#include "apps/stream_pipeline.hpp"
#include "comm/serialize.hpp"
#include "harness.hpp"

namespace perfbench {

struct Stamp {
  std::int64_t item = 0;
  std::int64_t t = 0;
};

struct StageEvent {
  std::int64_t item = 0;
  std::int64_t stage = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

struct RankLog {
  std::vector<std::int64_t> calls;   ///< stage calls made so far by this rank, per stage
  std::vector<Stamp> entry;          ///< source-stage entries by this rank
  std::vector<Stamp> done;           ///< last-stage completions by this rank
  std::vector<StageEvent> events;    ///< every stage call (traced runs only)
  std::vector<std::int64_t> results; ///< rows: item, length, values...
};

/// Output of the last stage recorded for verification: appends a row to
/// `results` when the calling rank is the one holding the item's result.
template <typename T>
using ResultTap = std::function<void(fxpar::machine::Context&, fxpar::apps::DistArray<T>& in,
                                     int data_id, std::int64_t item,
                                     std::vector<std::int64_t>& results)>;

/// Result tap of ffthist_stages: records the histogram the hist stage wrote
/// to (*sink)[data_id], then empties the slot (its initial state), so a
/// later set with the same data id is checked against its own write only.
inline ResultTap<fxpar::apps::Complex> ffthist_tap(
    std::shared_ptr<std::vector<std::vector<std::int64_t>>> sink) {
  return [sink](fxpar::machine::Context& ctx, fxpar::apps::DistArray<fxpar::apps::Complex>& in,
                int k, std::int64_t item, std::vector<std::int64_t>& rows) {
    if (in.group().virtual_of(ctx.phys_rank()) != 0) return;
    auto& h = (*sink)[static_cast<std::size_t>(k)];
    rows.push_back(item);
    rows.push_back(static_cast<std::int64_t>(h.size()));
    rows.insert(rows.end(), h.begin(), h.end());
    h.clear();
  };
}

/// Which item a stage call belongs to: (rank, stage, calls of that stage
/// the rank made before this one, data id). A negative result marks a call
/// the benchmark cannot place; its item then fails verification.
using ItemOf = std::function<std::int64_t(int rank, int stage, std::int64_t call, int data_id)>;

/// Item of a call under the stream executor's fixed schedule: instance j of
/// module m (ranks laid out contiguously in module, then instance order)
/// runs sets j, j + r_m, j + 2 r_m, ... in order, so a member's c-th call
/// of a stage of m is set j + c * r_m. `ids` must hold that set's data id.
inline ItemOf stream_item_of(const std::vector<fxpar::apps::StreamModule>& modules,
                             std::vector<int> ids) {
  std::vector<int> module_of_rank, instance_of_rank;
  for (std::size_t m = 0; m < modules.size(); ++m) {
    for (int j = 0; j < modules[m].instances; ++j) {
      for (int p = 0; p < modules[m].procs; ++p) {
        module_of_rank.push_back(static_cast<int>(m));
        instance_of_rank.push_back(j);
      }
    }
  }
  return [modules, ids = std::move(ids), module_of_rank, instance_of_rank](
             int rank, int, std::int64_t call, int data_id) -> std::int64_t {
    if (rank < 0 || static_cast<std::size_t>(rank) >= module_of_rank.size()) return -1;
    const auto& m = modules[static_cast<std::size_t>(module_of_rank[static_cast<std::size_t>(rank)])];
    const std::int64_t item = instance_of_rank[static_cast<std::size_t>(rank)] + call * m.instances;
    if (item >= static_cast<std::int64_t>(ids.size()) ||
        ids[static_cast<std::size_t>(item)] != data_id) {
      return -1;
    }
    return item;
  };
}

/// Wraps every stage's run callback with host stamps.
template <typename T>
std::vector<fxpar::apps::PipelineStage<T>> probe_stages(
    std::vector<fxpar::apps::PipelineStage<T>> stages, std::vector<RankLog>& logs,
    ItemOf item_of, bool spans, ResultTap<T> tap) {
  const std::size_t last = stages.size() - 1;
  for (RankLog& l : logs) l.calls.assign(stages.size(), 0);
  for (std::size_t s = 0; s < stages.size(); ++s) {
    stages[s].run = [inner = std::move(stages[s].run), s, last, &logs, item_of, spans, tap](
                        fxpar::machine::Context& ctx, fxpar::apps::DistArray<T>& in,
                        fxpar::apps::DistArray<T>& out, int k) {
      RankLog& log = logs[static_cast<std::size_t>(ctx.phys_rank())];
      const std::int64_t item = item_of(ctx.phys_rank(), static_cast<int>(s), log.calls[s]++, k);
      const std::int64_t t0 = now_ns();
      if (s == 0) log.entry.push_back({item, t0});
      inner(ctx, in, out, k);
      const std::int64_t t1 = now_ns();
      if (spans) log.events.push_back({item, static_cast<std::int64_t>(s), t0, t1});
      if (s == last) {
        log.done.push_back({item, t1});
        tap(ctx, in, k, item, log.results);
      }
    };
  }
  return stages;
}

/// Epilogue body: every rank other than 0 sends its log to rank 0, which
/// stores it in its own copy of `logs`. Only for the process backend — in
/// one address space the logs are already shared.
inline void funnel_to_rank0(fxpar::machine::Context& ctx, std::vector<RankLog>& logs) {
  constexpr std::uint64_t kTag = 9100;
  const int me = ctx.phys_rank();
  const int procs = static_cast<int>(logs.size());
  namespace cm = fxpar::comm;
  if (me != 0) {
    const RankLog& l = logs[static_cast<std::size_t>(me)];
    ctx.send_phys(0, kTag + 0, cm::pack_span(std::span<const Stamp>(l.entry)));
    ctx.send_phys(0, kTag + 1, cm::pack_span(std::span<const Stamp>(l.done)));
    ctx.send_phys(0, kTag + 2, cm::pack_span(std::span<const StageEvent>(l.events)));
    ctx.send_phys(0, kTag + 3, cm::pack_span(std::span<const std::int64_t>(l.results)));
    return;
  }
  for (int p = 1; p < procs; ++p) {
    RankLog& l = logs[static_cast<std::size_t>(p)];
    l.entry = cm::unpack_vector<Stamp>(ctx.recv_phys(p, kTag + 0));
    l.done = cm::unpack_vector<Stamp>(ctx.recv_phys(p, kTag + 1));
    l.events = cm::unpack_vector<StageEvent>(ctx.recv_phys(p, kTag + 2));
    l.results = cm::unpack_vector<std::int64_t>(ctx.recv_phys(p, kTag + 3));
  }
}

/// Per-item view merged over ranks: entry = earliest source-stage entry,
/// done = latest last-stage completion (0 where no rank recorded one).
struct ItemTimes {
  std::vector<std::int64_t> entry;
  std::vector<std::int64_t> done;
  std::vector<std::vector<std::int64_t>> result;  ///< empty where none recorded
  std::vector<StageEvent> events;                 ///< all ranks
  std::vector<int> event_rank;
};

inline ItemTimes merge_logs(const std::vector<RankLog>& logs, std::size_t items) {
  ItemTimes it;
  it.entry.assign(items, 0);
  it.done.assign(items, 0);
  it.result.assign(items, {});
  const auto in_range = [items](std::int64_t i) {
    return i >= 0 && static_cast<std::size_t>(i) < items;
  };
  for (std::size_t r = 0; r < logs.size(); ++r) {
    const RankLog& l = logs[r];
    for (const Stamp& s : l.entry) {
      if (!in_range(s.item)) continue;
      auto& e = it.entry[static_cast<std::size_t>(s.item)];
      e = e == 0 ? s.t : std::min(e, s.t);
    }
    for (const Stamp& s : l.done) {
      if (!in_range(s.item)) continue;
      auto& d = it.done[static_cast<std::size_t>(s.item)];
      d = std::max(d, s.t);
    }
    for (const StageEvent& e : l.events) {
      if (!in_range(e.item)) continue;
      it.events.push_back(e);
      it.event_rank.push_back(static_cast<int>(r));
    }
    for (std::size_t i = 0; i + 1 < l.results.size();) {
      const std::int64_t item = l.results[i];
      const auto len = static_cast<std::size_t>(l.results[i + 1]);
      if (in_range(item)) {
        it.result[static_cast<std::size_t>(item)].assign(
            l.results.begin() + static_cast<std::ptrdiff_t>(i + 2),
            l.results.begin() + static_cast<std::ptrdiff_t>(i + 2 + len));
      }
      i += 2 + len;
    }
  }
  return it;
}

/// Figures of a traced run's stage calls over items [first, n).
struct StageFigures {
  std::vector<double> ms_per_item;  ///< per stage: earliest member entry to latest member exit
  std::vector<double> busy_ns;      ///< per stage: call time summed over members and items
  double coverage = 0.0;            ///< mean share of an item's time its stage spans cover
};

/// Adds one span per item (a child of `parent`) and one per stage call (a
/// child of its item) to `log`, and derives the stage figures from them.
inline StageFigures stage_figures(const ItemTimes& it, std::size_t first,
                                  const std::vector<std::string>& names, SpanLog& log,
                                  int parent) {
  const std::size_t n = it.entry.size();
  StageFigures f;
  f.ms_per_item.assign(names.size(), 0.0);
  f.busy_ns.assign(names.size(), 0.0);
  std::vector<int> item_span(n);
  for (std::size_t i = 0; i < n; ++i) {
    item_span[i] = log.add({"item", static_cast<int>(i), -1, parent, it.entry[i], it.done[i]});
  }
  std::vector<std::vector<std::int64_t>> lo(names.size(), std::vector<std::int64_t>(n, 0));
  std::vector<std::vector<std::int64_t>> hi(names.size(), std::vector<std::int64_t>(n, 0));
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> cover(n);
  for (std::size_t e = 0; e < it.events.size(); ++e) {
    const StageEvent& ev = it.events[e];
    const auto s = static_cast<std::size_t>(ev.stage);
    const auto i = static_cast<std::size_t>(ev.item);
    log.add({"apps.stage." + names[s], static_cast<int>(i), it.event_rank[e], item_span[i], ev.t0,
             ev.t1});
    cover[i].push_back({ev.t0, ev.t1});
    if (i < first) continue;
    lo[s][i] = lo[s][i] == 0 ? ev.t0 : std::min(lo[s][i], ev.t0);
    hi[s][i] = std::max(hi[s][i], ev.t1);
    f.busy_ns[s] += static_cast<double>(ev.t1 - ev.t0);
  }
  const double items = static_cast<double>(n - first);
  for (std::size_t i = first; i < n; ++i) {
    for (std::size_t s = 0; s < names.size(); ++s) f.ms_per_item[s] += ns_to_ms(hi[s][i] - lo[s][i]);
    if (it.done[i] > it.entry[i]) {
      f.coverage += static_cast<double>(covered_ns(cover[i], it.entry[i], it.done[i])) /
                    static_cast<double>(it.done[i] - it.entry[i]);
    }
  }
  for (double& ms : f.ms_per_item) ms /= items;
  f.coverage /= items;
  return f;
}

}  // namespace perfbench
