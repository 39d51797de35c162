#include "comm/collective_plan.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace fxpar::comm::plan {

namespace {

inline int absolute_rank(int rel, int root, int n) { return (rel + root) % n; }

}  // namespace

TreeSchedule build_tree_schedule(const std::vector<int>& members, int root) {
  TreeSchedule s;
  s.members = members;
  s.root = root;
  const int n = static_cast<int>(members.size());
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

RootedSchedule build_rooted_schedule(const std::vector<int>& members, int root) {
  RootedSchedule s;
  s.members = members;
  s.root = root;
  const int n = static_cast<int>(members.size());
  s.peers.reserve(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  for (int v = 0; v < n; ++v) {
    if (v != root) s.peers.push_back(v);
  }
  return s;
}

CollectiveCache& CollectiveCache::of(machine::Machine& m) {
  std::lock_guard<std::mutex> lk(m.cache_mutex());
  auto* cache = dynamic_cast<CollectiveCache*>(m.collective_cache_slot());
  if (cache == nullptr) {
    auto owned = std::make_unique<CollectiveCache>();
    cache = owned.get();
    m.set_collective_cache_slot(std::move(owned));
  }
  return *cache;
}

void CollectiveCache::check_members(const std::vector<int>& registered,
                                    const pgroup::ProcessorGroup& g, const char* what) {
  if (registered != g.members()) {
    throw std::logic_error(std::string(what) +
                           ": group key collision — a different member list is "
                           "registered under this group's key");
  }
}

std::shared_ptr<const TreeSchedule> CollectiveCache::tree(machine::Machine& m,
                                                          const pgroup::ProcessorGroup& g,
                                                          int root) {
  if (!m.keeps_plans()) {
    return std::make_shared<const TreeSchedule>(build_tree_schedule(g.members(), root));
  }
  const Key key{g.key(), root};
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = trees_.find(key); it != trees_.end()) {
    check_members(it->second->members, g, "CollectiveCache::tree");
    m.count_collective_plan(true);
    return it->second;
  }
  if (trees_.size() >= kMaxEntries) trees_.clear();
  auto sched = std::make_shared<const TreeSchedule>(build_tree_schedule(g.members(), root));
  trees_.emplace(key, sched);
  m.count_collective_plan(false);
  return sched;
}

std::shared_ptr<const RootedSchedule> CollectiveCache::rooted(
    machine::Machine& m, const pgroup::ProcessorGroup& g, int root) {
  if (!m.keeps_plans()) {
    return std::make_shared<const RootedSchedule>(build_rooted_schedule(g.members(), root));
  }
  const Key key{g.key(), root};
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = rooted_.find(key); it != rooted_.end()) {
    check_members(it->second->members, g, "CollectiveCache::rooted");
    m.count_collective_plan(true);
    return it->second;
  }
  if (rooted_.size() >= kMaxEntries) rooted_.clear();
  auto sched =
      std::make_shared<const RootedSchedule>(build_rooted_schedule(g.members(), root));
  rooted_.emplace(key, sched);
  m.count_collective_plan(false);
  return sched;
}

std::size_t CollectiveCache::tree_entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return trees_.size();
}

std::size_t CollectiveCache::rooted_entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return rooted_.size();
}

}  // namespace fxpar::comm::plan
