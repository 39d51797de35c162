#include "core/task_region.hpp"

#include <stdexcept>

namespace fxpar::core {

TaskRegion::TaskRegion(Context& ctx, const TaskPartition& part)
    : ctx_(ctx), part_(part), base_depth_(ctx.group_depth()) {
  // The partition must describe exactly the current processors: this is the
  // paper's rule that a TASK_PARTITION is a template for dividing the
  // *current* group and a task region activates that template.
  if (!(part_.parent() == ctx_.group())) {
    throw std::logic_error("BEGIN TASK_REGION: partition " + part_.to_string() +
                           " was not declared against the current processor group " +
                           ctx_.group().to_string());
  }
  region_scope_ = ctx_.scope(obs::Op::TaskRegion, "task_region",
                             part_.name().empty() ? "region" : "region:", part_.name());
}

TaskRegion::~TaskRegion() {
  // END TASK_REGION. No implicit barrier; but the group stack must be back
  // at region level. Throwing from a destructor is not an option, so a
  // stack imbalance terminates via the std::logic_error -> std::terminate
  // path only if the stack is provably corrupted and no exception is in
  // flight.
  if (in_on_ && ctx_.group_depth() > base_depth_) {
    ctx_.pop_group();
  }
}

void TaskRegion::enter_on(int subgroup_index) {
  if (in_on_) {
    throw std::logic_error(
        "ON SUBGROUP: lexical nesting of ON blocks is not permitted "
        "(use a procedure with its own TASK_REGION for dynamic nesting)");
  }
  ctx_.push_group(part_.subgroup(subgroup_index));
  in_on_ = true;
  on_scope_ = ctx_.scope(obs::Op::Span, "subgroup", "on:", part_.subgroup_name(subgroup_index));
}

void TaskRegion::leave_on() {
  on_scope_.close();
  ctx_.pop_group();
  in_on_ = false;
}

}  // namespace fxpar::core
