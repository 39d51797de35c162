#include "comm/collectives.hpp"

namespace fxpar::comm {

Payload broadcast_bytes(Context& ctx, const ProcessorGroup& g, int root, Payload bytes) {
  detail::check_member_root(ctx, g, root);
  trace::ScopedSpan sp_ = ctx.span("broadcast", "collective");
  detail::count_collective(ctx);
  const int n = g.size();
  const int me = g.virtual_of(ctx.phys_rank());
  if (n == 1) return bytes;
  const std::uint64_t tag = ctx.collective_tag(g);

  ctx.push_group(g);
  const auto sched = plan::tree_schedule(ctx.machine(), g, root);
  const plan::TreeSchedule::Node& nd = sched->nodes[static_cast<std::size_t>(me)];
  if (nd.bcast_parent >= 0) bytes = ctx.recv(nd.bcast_parent, tag);
  for (int child : nd.bcast_children) {
    // Forward pooled copies. With fresh per-edge allocations, a
    // broadcast-heavy loop frees parked-pool-sized blocks at the top of the
    // heap every iteration and glibc hands them back to the kernel, so the
    // stream pays thousands of minor faults per run re-touching them.
    Payload fwd = ctx.machine().pool_acquire(bytes.size());
    if (!bytes.empty()) std::memcpy(fwd.data(), bytes.data(), bytes.size());
    ctx.send(child, tag, std::move(fwd));
  }
  ctx.pop_group();
  return bytes;
}

}  // namespace fxpar::comm
