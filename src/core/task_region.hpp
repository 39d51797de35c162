// fxpar core: TASK_REGION / ON SUBGROUP execution directives.
//
// A TaskRegion is the RAII analogue of BEGIN TASK_REGION ... END TASK_REGION.
// Inside it, `on(subgroup, fn)` executes `fn` only on the processors of the
// named subgroup, with that subgroup pushed as the current processor group
// (the paper's processor-mapping stack); every other processor *skips past
// the block without synchronizing*, which is what enables pipelined task
// parallelism. Parent-scope code between on() blocks runs on all current
// processors in ordinary data parallel mode.
//
// There is deliberately no implicit barrier at region entry or exit: as in
// the paper, synchronization comes from the data movement itself (array
// assignments, subset barriers inside data parallel operations).
//
// Lexical nesting of regions is rejected at runtime (the paper forbids it);
// *dynamic* nesting — declaring a new partition of the current subgroup
// inside an on() block — is the mechanism for recursive task parallelism.
#pragma once

#include <functional>
#include <string>
#include <type_traits>
#include <utility>

#include "core/task_partition.hpp"
#include "obs/sink.hpp"

namespace fxpar::core {

class TaskRegion {
 public:
  /// BEGIN TASK_REGION: activates `part`, which must have been declared
  /// against the current processor group of `ctx`.
  TaskRegion(Context& ctx, const TaskPartition& part);

  /// END TASK_REGION.
  ~TaskRegion();

  TaskRegion(const TaskRegion&) = delete;
  TaskRegion& operator=(const TaskRegion&) = delete;

  /// ON SUBGROUP <name> ... END ON. Members of the subgroup execute `fn`
  /// with the subgroup as their current group; non-members return
  /// immediately. The callable may take either no argument or the
  /// subgroup's ProcessorGroup.
  template <typename Fn>
  void on(const std::string& subgroup_name, Fn&& fn) {
    on(part_.tmpl().index_of(subgroup_name), std::forward<Fn>(fn));
  }

  template <typename Fn>
  void on(int subgroup_index, Fn&& fn) {
    const ProcessorGroup& g = part_.subgroup(subgroup_index);
    if (!g.contains(ctx_.phys_rank())) return;  // skip past, no sync
    enter_on(subgroup_index);
    try {
      if constexpr (std::is_invocable_v<Fn&, const ProcessorGroup&>) {
        fn(g);
      } else {
        static_assert(std::is_invocable_v<Fn&>,
                      "on(): callable must take () or (const ProcessorGroup&)");
        fn();
      }
    } catch (...) {
      leave_on();
      throw;
    }
    leave_on();
  }

  const TaskPartition& partition() const noexcept { return part_; }
  Context& context() noexcept { return ctx_; }

 private:
  void enter_on(int subgroup_index);
  void leave_on();

  Context& ctx_;
  const TaskPartition& part_;
  int base_depth_;        ///< group-stack depth at region entry
  bool in_on_ = false;
  obs::Scope region_scope_;  ///< open for the region's lifetime
  obs::Scope on_scope_;      ///< open while inside an ON block
};

}  // namespace fxpar::core
