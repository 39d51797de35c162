// Per-rank result collection that works on every backend. On the process
// backend each rank is a forked child, so a slot of a captured vector that
// rank r > 0 writes lives in r's private memory and never reaches the test.
// funnel_to_rank0 ships every rank's slot to physical rank 0 (the parent
// process) with plain messages; on sim and threads it only re-copies
// values that are already shared.
#pragma once

#include <cstddef>
#include <vector>

#include "comm/serialize.hpp"
#include "machine/context.hpp"

namespace fxpar::testing {

/// Call at the end of the run body on every rank, after writing
/// per_rank[phys_rank]. per_rank.size() must equal the number of ranks.
template <comm::TriviallyPackable T>
void funnel_to_rank0(machine::Context& ctx, std::vector<T>& per_rank) {
  constexpr int kTag = 7300;
  const int r = ctx.phys_rank();
  if (r != 0) {
    ctx.send_phys(0, kTag, comm::pack_value(per_rank[static_cast<std::size_t>(r)]));
    return;
  }
  for (std::size_t q = 1; q < per_rank.size(); ++q) {
    per_rank[q] = comm::unpack_value<T>(ctx.recv_phys(static_cast<int>(q), kTag));
  }
}

}  // namespace fxpar::testing
