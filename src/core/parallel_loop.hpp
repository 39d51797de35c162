// fxpar core: the Fx parallel loop construct ("do&merge", ref [24] of the
// paper: Yang et al., "Do&merge: Integrating parallel loops and
// reductions").
//
// Fx expresses loop parallelism with a construct that combines independent
// iterations (the "do" part) with a merge of per-iteration contributions
// (the "merge" part — a reduction). Here:
//
//   auto sum = core::parallel_reduce<double>(
//       ctx, 0, n,
//       [&](std::int64_t i) { return f(i); },     // do: one iteration
//       std::plus<double>{}, 0.0);                // merge
//
// Iterations are block-partitioned over the *current* processor group, each
// processor merges its local contributions in iteration order, and the
// partial results are combined with a group reduction whose deterministic
// tree order makes results reproducible. parallel_for is the no-merge
// special case.
//
// Both constructs execute through the backend's bulk loop hook
// (exec::Backend::run_chunks): the simulator runs the static block
// schedule inline, while the threaded backend may let idle members of the
// current group steal iteration chunks from siblings (see
// docs/execution.md, "Work stealing"). Results are bit-identical either
// way: iteration ownership follows exec::loop_block on every backend, a
// stolen chunk runs through the owner's closure, and the reduction always
// merges per-iteration values in iteration order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"
#include "machine/context.hpp"

namespace fxpar::core {

namespace detail {

/// Block partition of [lo, hi) over `parts`: piece `which` as [first, last).
inline std::pair<std::int64_t, std::int64_t> iteration_block(std::int64_t lo, std::int64_t hi,
                                                             int parts, int which) {
  return exec::loop_block(lo, hi, parts, which);
}

}  // namespace detail

/// Runs `body(i)` for every i in [lo, hi), block-partitioned over the
/// current group. Purely local from the program's point of view: callers
/// that need the results of other processors' iterations synchronize via
/// the data they touch, as in the paper's execution model. Iterations must
/// be independent — under work stealing, chunks of one processor's block
/// may execute concurrently on sibling workers.
template <typename Body>
void parallel_for(machine::Context& ctx, std::int64_t lo, std::int64_t hi, Body&& body) {
  // Counts and times (modeled seconds on the simulator, real seconds
  // elsewhere) the loop under its span.
  const obs::Scope scope = ctx.scope(obs::Op::Loop, "loop", "parallel_for");
  ctx.machine().backend().run_chunks(ctx.group(), lo, hi,
                                     [&body](std::int64_t first, std::int64_t last) {
                                       for (std::int64_t i = first; i < last; ++i) body(i);
                                     });
}

/// do&merge: evaluates `body(i)` for every iteration, merges locally in
/// iteration order, then reduces across the current group. Every member of
/// the current group must call. Returns the merged value on every member.
template <typename T, typename Body, typename Merge>
T parallel_reduce(machine::Context& ctx, std::int64_t lo, std::int64_t hi, Body&& body,
                  Merge&& merge, T init) {
  const obs::Scope scope = ctx.scope(obs::Op::Loop, "loop", "parallel_reduce");
  exec::Backend& backend = ctx.machine().backend();
  T local = init;
  if (backend.stealing_loops()) {
    // Chunks of this block may run concurrently (on this worker and on
    // thieves), so the fold cannot accumulate inside the chunk body.
    // Buffer each iteration's value in a block-sized slot owned by this
    // member — thieves write it through this closure — then fold in
    // iteration order after the join: the exact merge sequence of the
    // static path, so results stay bitwise identical with stealing on or
    // off and across backends. Slots are std::optional so T needs only be
    // move-constructible, like the static path: chunks partition the
    // block, so each slot is emplaced exactly once by whichever worker
    // runs its chunk. The buffer is one O(block-length) allocation per
    // call — the price of decoupling evaluation order from the fold.
    const auto [first, last] =
        detail::iteration_block(lo, hi, ctx.nprocs(), ctx.vrank());
    std::vector<std::optional<T>> vals(static_cast<std::size_t>(last - first));
    std::optional<T>* out = vals.data();
    backend.run_chunks(ctx.group(), lo, hi,
                       [&body, out, base = first](std::int64_t clo, std::int64_t chi) {
                         for (std::int64_t i = clo; i < chi; ++i) {
                           out[i - base].emplace(body(i));
                         }
                       });
    for (std::optional<T>& v : vals) local = merge(local, std::move(*v));
  } else {
    backend.run_chunks(ctx.group(), lo, hi,
                       [&body, &merge, &local](std::int64_t clo, std::int64_t chi) {
                         for (std::int64_t i = clo; i < chi; ++i) {
                           local = merge(local, body(i));
                         }
                       });
  }
  if (ctx.nprocs() == 1) return local;
  return comm::allreduce(ctx, ctx.group(), local, merge);
}

}  // namespace fxpar::core
