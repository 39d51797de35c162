#include "comm/collective_plan.hpp"

#include <utility>

namespace fxpar::comm::plan {

namespace {

inline int absolute_rank(int rel, int root, int n) { return (rel + root) % n; }

std::vector<std::int64_t> collective_key(const pgroup::ProcessorGroup& g, int root) {
  std::vector<std::int64_t> key;
  key.reserve(g.members().size() + 1);
  key.push_back(root);
  key.insert(key.end(), g.members().begin(), g.members().end());
  return key;
}

}  // namespace

TreeSchedule build_tree_schedule(int n, int root) {
  TreeSchedule s;
  s.root = root;
  s.nodes.resize(static_cast<std::size_t>(n));
  for (int me = 0; me < n; ++me) {
    TreeSchedule::Node& nd = s.nodes[static_cast<std::size_t>(me)];
    const int rel = (me - root + n) % n;

    // Reduce: receive children rel + 2^k in ascending mask order until
    // the node's own low set bit, then send the partial to rel - mask.
    // The executor replays the recorded lists in this order, which fixes
    // the combine order.
    for (int mask = 1; mask < n; mask <<= 1) {
      if ((rel & mask) != 0) {
        nd.reduce_parent = absolute_rank(rel - mask, root, n);
        break;
      }
      const int child = rel + mask;
      if (child < n) nd.reduce_children.push_back(absolute_rank(child, root, n));
    }

    // Broadcast: parent is rel with its highest set bit cleared; children
    // are rel | mask for masks above rel's highest bit, ascending.
    int high = 1;
    while (high <= rel) high <<= 1;
    if (rel != 0) nd.bcast_parent = absolute_rank(rel & ~(high >> 1), root, n);
    for (int mask = high; mask < n; mask <<= 1) {
      const int child = rel | mask;
      if (child != rel && child < n) nd.bcast_children.push_back(absolute_rank(child, root, n));
    }
  }
  return s;
}

RootedSchedule build_rooted_schedule(int n, int root) {
  RootedSchedule s;
  s.root = root;
  s.peers.reserve(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (int v = 0; v < n; ++v) {
    if (v != root) s.peers.push_back(v);
  }
  return s;
}

std::shared_ptr<const TreeSchedule> tree_schedule(machine::Machine& m,
                                                  const pgroup::ProcessorGroup& g, int root) {
  return m.plan<TreeSchedule>(collective_key(g, root), [&] {
    return std::make_shared<const TreeSchedule>(build_tree_schedule(g.size(), root));
  });
}

std::shared_ptr<const RootedSchedule> rooted_schedule(machine::Machine& m,
                                                      const pgroup::ProcessorGroup& g, int root) {
  return m.plan<RootedSchedule>(collective_key(g, root), [&] {
    return std::make_shared<const RootedSchedule>(build_rooted_schedule(g.size(), root));
  });
}

}  // namespace fxpar::comm::plan
