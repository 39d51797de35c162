// fxpar comm: inspector–executor schedules for collectives, and their keys
// in the machine's plan store.
//
// Every collective over a processor group walks a fixed communication
// structure — a binomial tree for broadcast/reduce/allreduce, a rooted
// star for gather/scatter — that depends only on the group and the
// (virtual) root. The builders below *inspect* (derive the schedule) and
// the collectives in collectives.hpp/.cpp *execute* it — they have no
// other implementation. Schedules live in the Machine's plan store
// (Machine::plan), the same one that keeps the dist layer's
// redistribution schedules, keyed by {root, members...}: the exact member
// list, so two distinct groups can never share an entry. With
// MachineConfig::plan_cache on, the first call builds the schedule and
// later calls replay it; the executors also reuse payload buffers through
// the machine's pools and combine reductions directly from payload bytes,
// which is where the measured host-time win comes from. With it off,
// every call builds its own schedule (no hit or miss is counted) and the
// pools keep no buffers. Hits and misses count in
// RunResult::collective_plan_hits / _misses.
//
// The switch changes host time only: the same executor issues the same
// messages with the same tags and the same modeled charges, so simulated
// results — and received payload bytes on every backend — are
// bit-identical with the cache on or off (tests/test_plan_cache.cpp holds
// the parity).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "machine/machine.hpp"
#include "pgroup/group.hpp"

namespace fxpar::comm::plan {

/// The binomial tree of one (group, root) pair, serving reduce (leaves to
/// root), broadcast (root to leaves) and allreduce (both, root 0). All
/// ranks are *virtual* ranks of the group — exactly what Context::send /
/// recv take with the group pushed — and every list is stored in the
/// order the executor visits it (which fixes the combine order).
struct TreeSchedule {
  static constexpr machine::PlanKind kKind = machine::PlanKind::Tree;

  std::vector<int> members;  ///< physical members
  int root = 0;              ///< virtual root rank

  struct Node {
    int reduce_parent = -1;  ///< vrank the partial result is sent to (-1: root)
    std::vector<int> reduce_children;  ///< vranks received, in combine order
    int bcast_parent = -1;   ///< vrank the payload arrives from (-1: root)
    std::vector<int> bcast_children;   ///< vranks forwarded to, in send order
  };
  std::vector<Node> nodes;  ///< indexed by the member's virtual rank
};

/// The rooted star of one (group, root) pair, serving gather,
/// gather_vectors and scatter_vectors: the non-root members the root
/// exchanges with, in ascending virtual-rank order.
struct RootedSchedule {
  static constexpr machine::PlanKind kKind = machine::PlanKind::Rooted;

  std::vector<int> members;  ///< physical members
  int root = 0;              ///< virtual root rank
  std::vector<int> peers;    ///< vranks 0..n-1 excluding the root, ascending
};

/// Builds the binomial tree for a group of `n` members rooted at virtual
/// rank `root` (exposed for tests; members is the physical member list).
TreeSchedule build_tree_schedule(const std::vector<int>& members, int root);

/// Builds the rooted star (exposed for tests).
RootedSchedule build_rooted_schedule(const std::vector<int>& members, int root);

/// The tree schedule of (g, root) from `m`'s plan store, built and stored
/// on a miss. The store is shared by all processors of a process, so under
/// SPMD the first member to reach a collective builds it (one miss) and
/// the rest hit.
std::shared_ptr<const TreeSchedule> tree_schedule(machine::Machine& m,
                                                  const pgroup::ProcessorGroup& g, int root);

/// The rooted star of (g, root) from `m`'s plan store.
std::shared_ptr<const RootedSchedule> rooted_schedule(machine::Machine& m,
                                                      const pgroup::ProcessorGroup& g, int root);

}  // namespace fxpar::comm::plan
