// fxpar machine: per-processor execution context of the SPMD program.
//
// A Context is the handle through which the running program sees the
// machine: its current processor group (a stack, pushed/popped by nested
// task regions), its virtual rank inside that group, the virtual clock, the
// direct-deposit messaging primitives and the subset barrier. It is the
// runtime embodiment of the paper's "current processors" notion.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string_view>
#include <vector>

#include "machine/machine.hpp"
#include "obs/sink.hpp"
#include "pgroup/group.hpp"

namespace fxpar::machine {

class Context {
 public:
  Context(Machine& m, int phys_rank);

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  Machine& machine() noexcept { return machine_; }
  const MachineConfig& config() const noexcept { return machine_.config(); }

  /// Physical rank on the machine, fixed for the program's lifetime.
  int phys_rank() const noexcept { return phys_; }

  // ---- current processor group (the paper's "current processors") ----

  /// The group executing the innermost active scope.
  const pgroup::ProcessorGroup& group() const;

  /// Enters a nested group (ON SUBGROUP). The calling processor must be a
  /// member of `g`. Taken by value, and the stack is a deque, so references
  /// previously returned by group() remain valid across nesting — a caller
  /// may legally pass its own current group into a collective that nests.
  void push_group(pgroup::ProcessorGroup g);
  void pop_group();
  int group_depth() const noexcept { return static_cast<int>(groups_.size()); }

  /// NUMBER_OF_PROCESSORS() of the paper: size of the current group.
  int nprocs() const { return group().size(); }

  /// Virtual rank of this processor in the current group.
  int vrank() const;

  // ---- virtual time ----

  double now() const;
  void charge(double seconds);
  void charge_flops(double n);
  void charge_int_ops(double n);
  void charge_mem_bytes(double bytes);

  // ---- messaging (virtual ranks are relative to the current group) ----

  void send(int dst_vrank, std::uint64_t tag, Payload data);
  Payload recv(int src_vrank, std::uint64_t tag);
  void send_phys(int dst_phys, std::uint64_t tag, Payload data);
  Payload recv_phys(int src_phys, std::uint64_t tag);

  /// Subset barrier over the current group.
  void barrier();
  /// Subset barrier over an explicit group (caller must be a member).
  void barrier(const pgroup::ProcessorGroup& g);

  /// Allocates a tag agreed upon by all members of `g` for one collective
  /// operation: every member keeps a per-group counter, and SPMD execution
  /// guarantees the counters advance identically.
  std::uint64_t collective_tag(const pgroup::ProcessorGroup& g);

  /// Blocking operation on the machine's sequential I/O device.
  void io(std::size_t bytes);

  // ---- observability ----

  /// Opens one scope on this processor (obs::Scope): counts and times `op`
  /// in the metrics registry and opens the span `name` + `suffix` in the
  /// flight ring and the trace. The span name is built only when one of
  /// those is on, and an empty `name` opens no span. The returned guard
  /// closes it all.
  obs::Scope scope(obs::Op op, const char* category, std::string_view name,
                   std::string_view suffix = {}) {
    return obs::Scope(machine_.sink(), phys_, op, category, name, suffix);
  }

  /// A plain named span: scope(obs::Op::Span, ...).
  obs::Scope span(std::string_view name, const char* category) {
    return scope(obs::Op::Span, category, name);
  }

 private:
  Machine& machine_;
  int phys_;
  std::deque<pgroup::ProcessorGroup> groups_;
  std::map<std::uint64_t, std::uint64_t> collective_counters_;
};

}  // namespace fxpar::machine
