#include "machine/context.hpp"

#include <stdexcept>
#include <string>

namespace fxpar::machine {

Context::Context(Machine& m, int phys_rank) : machine_(m), phys_(phys_rank) {
  groups_.push_back(pgroup::ProcessorGroup::identity(m.num_procs()));
}

const pgroup::ProcessorGroup& Context::group() const {
  return groups_.back();
}

void Context::push_group(pgroup::ProcessorGroup g) {
  if (!g.contains(phys_)) {
    throw std::logic_error("Context::push_group: proc " + std::to_string(phys_) +
                           " is not a member of " + g.to_string());
  }
  groups_.push_back(std::move(g));
}

void Context::pop_group() {
  if (groups_.size() <= 1) {
    throw std::logic_error("Context::pop_group: cannot pop the machine group");
  }
  groups_.pop_back();
}

int Context::vrank() const {
  const int v = group().virtual_of(phys_);
  if (v < 0) throw std::logic_error("Context::vrank: not a member of current group");
  return v;
}

double Context::now() const { return machine_.backend().now(phys_); }

void Context::charge(double seconds) { machine_.backend().charge(seconds); }

void Context::charge_flops(double n) {
  machine_.backend().charge(n * config().flop_time);
}

void Context::charge_int_ops(double n) {
  machine_.backend().charge(n * config().int_op_time);
}

void Context::charge_mem_bytes(double bytes) {
  machine_.backend().charge(bytes * config().mem_byte_time);
}

void Context::send(int dst_vrank, std::uint64_t tag, Payload data) {
  machine_.backend().deposit(group().physical(dst_vrank), tag, std::move(data));
}

Payload Context::recv(int src_vrank, std::uint64_t tag) {
  return machine_.backend().receive(group().physical(src_vrank), tag);
}

void Context::send_phys(int dst_phys, std::uint64_t tag, Payload data) {
  machine_.backend().deposit(dst_phys, tag, std::move(data));
}

Payload Context::recv_phys(int src_phys, std::uint64_t tag) {
  return machine_.backend().receive(src_phys, tag);
}

void Context::barrier() { machine_.backend().barrier(group()); }

void Context::barrier(const pgroup::ProcessorGroup& g) { machine_.backend().barrier(g); }

std::uint64_t Context::collective_tag(const pgroup::ProcessorGroup& g) {
  std::uint64_t& counter = collective_counters_[g.key()];
  const std::uint64_t c = counter++;
  // Mix the group key and the per-group sequence number; the high bit
  // separates collective tags from user point-to-point tags.
  std::uint64_t h = g.key() ^ (c + 0x9e3779b97f4a7c15ull + (g.key() << 6) + (g.key() >> 2));
  return h | (1ull << 63);
}

void Context::io(std::size_t bytes) { machine_.backend().io_operation(bytes); }

}  // namespace fxpar::machine
