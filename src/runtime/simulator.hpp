// fxpar runtime: deterministic discrete-event simulation of an SPMD machine.
//
// Each simulated processor is a Fiber with a private virtual clock. The
// Simulator resumes, among all runnable processors, the one with the
// smallest (clock, rank) pair, so a given program produces bit-identical
// schedules and timings on every run. Processors charge modeled time with
// advance(); they suspend with block() and are made runnable again by
// another processor calling wake() (the communication layer builds message
// and barrier semantics on these two primitives).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/fiber.hpp"

namespace fxpar::trace {
class TraceRecorder;
}

namespace fxpar::runtime {

/// Virtual time in seconds of modeled machine time.
using SimTime = double;

/// Thrown when every unfinished processor is blocked: the simulated program
/// can make no progress. The message lists each blocked processor and the
/// reason it recorded when suspending.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Per-processor accounting maintained by the Simulator.
struct ProcClock {
  SimTime now = 0.0;        ///< current virtual time
  SimTime busy = 0.0;       ///< total time charged via advance()
  SimTime idle = 0.0;       ///< time skipped forward while waiting
  std::uint64_t blocks = 0; ///< number of times the processor suspended
};

class Simulator {
 public:
  /// Creates a machine of `num_procs` simulated processors, each with a
  /// fiber stack of `stack_bytes`.
  Simulator(int num_procs, std::size_t stack_bytes);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  int num_procs() const noexcept { return static_cast<int>(procs_.size()); }

  /// Installs the SPMD body for processor `rank`. Must be called for every
  /// rank before run(). The body runs inside a fiber; it may use the
  /// current-processor operations below.
  void spawn(int rank, std::function<void()> body);

  /// Runs the event loop until every processor finishes.
  /// Throws DeadlockError if all unfinished processors are blocked, and
  /// rethrows the first exception escaping any processor body.
  void run();

  // ---- operations usable only from inside a processor fiber ----

  /// Rank of the processor whose fiber is currently executing.
  int current_rank() const;

  /// Virtual time of the current processor.
  SimTime now() const { return clock(current_rank()).now; }

  /// Charges `dt` seconds of computation to the current processor.
  void advance(SimTime dt);

  /// Moves the current processor's clock forward to `t` if `t` is later;
  /// the skipped interval is accounted as idle time.
  void advance_to(SimTime t);

  /// Suspends the current processor. `why` is kept for deadlock diagnosis.
  /// Returns after some other processor calls wake() on this rank. Callers
  /// must re-check their wait predicate (wakeups may be conservative).
  void block(std::string why);

  /// Suspends the current processor but leaves it runnable, allowing any
  /// processor with an earlier clock to run first.
  void yield();

  /// Makes `rank` runnable with clock at least `not_before`. Legal only for
  /// a processor that is currently blocked.
  void wake(int rank, SimTime not_before);

  // ---- inspection (valid inside or outside fibers) ----

  const ProcClock& clock(int rank) const { return check_rank(rank), procs_[rank].clk; }
  bool is_blocked(int rank) const { return check_rank(rank), procs_[rank].blocked; }
  /// The reason `rank` recorded when it last suspended (e.g. "recv from
  /// proc 1 tag 7"); meaningful while is_blocked(rank) is true.
  const std::string& block_reason(int rank) const {
    return check_rank(rank), procs_[rank].block_reason;
  }
  bool is_finished(int rank) const;

  /// Completion time of the whole run: max over processors of final clocks.
  SimTime finish_time() const;

  /// Installs (or clears, with nullptr) a trace recorder that observes
  /// every advance(); the recorder never alters modeled time.
  void set_tracer(trace::TraceRecorder* tracer) noexcept { tracer_ = tracer; }

 private:
  struct Proc {
    std::unique_ptr<Fiber> fiber;
    ProcClock clk;
    bool blocked = false;
    std::string block_reason;
  };

  void check_rank(int rank) const;
  Proc& current_proc();
  int pick_next() const;  ///< runnable rank with min (clock, rank), or -1

  std::vector<Proc> procs_;
  std::size_t stack_bytes_;
  int running_rank_ = -1;  ///< rank whose fiber is executing, -1 in owner
  trace::TraceRecorder* tracer_ = nullptr;
};

}  // namespace fxpar::runtime
