// Tests for the fxexec backend seam: threaded messaging and park/wake,
// subset barriers under nested TASK_PARTITIONs (sibling subgroups must not
// synchronize), counter parity with the simulator, abort propagation,
// deadlock detection, and concurrent trace recording.
//
// The simulator's ucontext fibers are incompatible with ThreadSanitizer,
// so sim-side tests self-skip under TSan; the threaded-backend tests are
// exactly the ones a TSan build is for.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/fx.hpp"
#include "comm/serialize.hpp"
#include "core/parallel_loop.hpp"
#include "dist/redistribute.hpp"
#include "exec/threaded_backend.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "machine/report.hpp"
#include "pgroup/group.hpp"
#include "runtime/simulator.hpp"
#include "trace/critical_path.hpp"
#include "trace/phase_report.hpp"

#if defined(__SANITIZE_THREAD__)
#define FXPAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FXPAR_TSAN 1
#endif
#endif

#ifdef FXPAR_TSAN
#define FXPAR_SKIP_SIM_UNDER_TSAN() \
  GTEST_SKIP() << "simulator fibers (ucontext) are incompatible with ThreadSanitizer"
#else
#define FXPAR_SKIP_SIM_UNDER_TSAN() (void)0
#endif

namespace mx = fxpar::machine;
namespace ex = fxpar::exec;
namespace core = fxpar::core;
using fxpar::MachineConfig;
using fxpar::SubgroupSpec;

namespace {

MachineConfig threaded(int p) {
  auto c = MachineConfig::paragon(p);
  c.backend = ex::BackendKind::Threads;
  return c;
}

MachineConfig simulated(int p) {
  auto c = MachineConfig::paragon(p);
  c.stack_bytes = 256 * 1024;
  return c;
}

mx::Payload stamp(int rank, int round, std::size_t bytes) {
  mx::Payload p(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    p[i] = static_cast<std::byte>((rank * 31 + round * 7 + static_cast<int>(i)) & 0xff);
  }
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Threaded messaging
// ---------------------------------------------------------------------------

TEST(ExecThreads, RingMessagingDeliversStampedPayloads) {
  const int P = 4, rounds = 50;
  mx::Machine m(threaded(P));
  std::atomic<int> checked{0};
  m.run([&](mx::Context& ctx) {
    const int r = ctx.phys_rank();
    for (int k = 0; k < rounds; ++k) {
      ctx.send_phys((r + 1) % P, 7, stamp(r, k, 16 + static_cast<std::size_t>(k)));
      const mx::Payload got = ctx.recv_phys((r + P - 1) % P, 7);
      const mx::Payload want = stamp((r + P - 1) % P, k, 16 + static_cast<std::size_t>(k));
      ASSERT_EQ(got.size(), want.size());
      ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
          << "rank " << r << " round " << k;
      checked.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(checked.load(), P * rounds);
}

TEST(ExecThreads, ManyToOnePreservesPerSenderFifo) {
  const int P = 4, per_sender = 100;
  mx::Machine m(threaded(P));
  m.run([&](mx::Context& ctx) {
    const int r = ctx.phys_rank();
    if (r == 0) {
      // Drain senders in an order chosen by the receiver; each (src, tag)
      // stream must arrive in the sender's send order.
      for (int k = 0; k < per_sender; ++k) {
        for (int s = 1; s < P; ++s) {
          const mx::Payload got = ctx.recv_phys(s, static_cast<std::uint64_t>(s));
          const mx::Payload want = stamp(s, k, 8);
          ASSERT_EQ(got.size(), want.size());
          ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
              << "sender " << s << " message " << k;
        }
      }
    } else {
      for (int k = 0; k < per_sender; ++k) {
        ctx.send_phys(0, static_cast<std::uint64_t>(r), stamp(r, k, 8));
      }
    }
  });
}

TEST(ExecThreads, RunResultReportsRealTime) {
  mx::Machine m(threaded(2));
  const auto res = m.run([&](mx::Context& ctx) {
    if (ctx.phys_rank() == 0) {
      ctx.send_phys(1, 1, mx::Payload(64));
    } else {
      ctx.recv_phys(0, 1);
    }
    ctx.barrier();
  });
  EXPECT_EQ(res.backend, "threads");
  EXPECT_GT(res.host_ms, 0.0);
  EXPECT_GT(res.finish_time, 0.0);  // real seconds, not modeled
  EXPECT_EQ(res.messages, 1u);
  EXPECT_EQ(res.bytes, 64u);
  EXPECT_EQ(res.barriers, 2u);  // per-member arrivals, as in the simulator
  // The report surfaces the real-time line only for non-sim backends.
  const std::string report = mx::utilization_report(res);
  EXPECT_NE(report.find("backend threads"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Subset barriers under nested TASK_PARTITIONs (both backends)
// ---------------------------------------------------------------------------

namespace {

// Sibling subgroups of a TASK_PARTITION must synchronize independently:
// "left" runs many barriers while "right" only exchanges messages. With a
// global (non-subset) barrier this would deadlock, because right's members
// never arrive at left's barriers. Nested partitions inside "left" check
// that grand-child groups are again independent.
void run_sibling_barrier_program(const MachineConfig& cfg, std::uint64_t* barriers_out) {
  mx::Machine m(cfg);
  std::atomic<int> left_done{0}, right_done{0};
  const auto res = m.run([&](mx::Context& ctx) {
    core::TaskPartition part(ctx, {{"left", 2}, {"right", 2}}, "split");
    core::TaskRegion region(ctx, part);
    region.on("left", [&] {
      for (int i = 0; i < 10; ++i) ctx.barrier();
      // Nested partition: each singleton synchronizes only with itself.
      core::TaskPartition inner(ctx, {{"a", 1}, {"b", 1}}, "inner");
      core::TaskRegion inner_region(ctx, inner);
      inner_region.on("a", [&] { ctx.barrier(); });
      inner_region.on("b", [&] { ctx.barrier(); });
      left_done.fetch_add(1, std::memory_order_relaxed);
    });
    region.on("right", [&] {
      const int v = ctx.group().virtual_of(ctx.phys_rank());
      if (v == 0) {
        ctx.send_phys(ctx.group().physical(1), 5, mx::Payload(4));
      } else {
        ctx.recv_phys(ctx.group().physical(0), 5);
      }
      right_done.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(left_done.load(), 2);
  EXPECT_EQ(right_done.load(), 2);
  if (barriers_out) *barriers_out = res.barriers;
}

}  // namespace

TEST(ExecBarriers, SiblingSubgroupsIndependentOnThreads) {
  std::uint64_t barriers = 0;
  run_sibling_barrier_program(threaded(4), &barriers);
  // 2 members x 10 barriers + 2 singleton barriers, plus whatever the
  // partition machinery itself adds — identical on both backends (below).
  EXPECT_GE(barriers, 22u);
}

TEST(ExecBarriers, SiblingSubgroupsIndependentOnSimulator) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  std::uint64_t barriers = 0;
  run_sibling_barrier_program(simulated(4), &barriers);
  EXPECT_GE(barriers, 22u);
}

TEST(ExecBarriers, BarrierCountMatchesAcrossBackends) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  std::uint64_t sim_barriers = 0, thr_barriers = 0;
  run_sibling_barrier_program(simulated(4), &sim_barriers);
  run_sibling_barrier_program(threaded(4), &thr_barriers);
  EXPECT_EQ(sim_barriers, thr_barriers);
}

// ---------------------------------------------------------------------------
// Counter parity with the simulator (satellite: concurrent counters)
// ---------------------------------------------------------------------------

namespace {

// A communication-heavy deterministic program: repeated redistributions
// between a row-block and a column-block layout drive messages, bytes,
// barriers and the redistribution plan cache on every processor.
mx::RunResult run_redistribution_program(const MachineConfig& cfg) {
  namespace ds = fxpar::dist;
  mx::Machine m(cfg);
  return m.run([&](mx::Context& ctx) {
    const auto& g = ctx.group();
    ds::DistArray<double> rows(
        ctx, ds::Layout(g, {16, 16}, {ds::DimDist::block(), ds::DimDist::collapsed()}),
        "rows");
    ds::DistArray<double> cols(
        ctx, ds::Layout(g, {16, 16}, {ds::DimDist::collapsed(), ds::DimDist::block()}),
        "cols");
    rows.fill([](std::span<const std::int64_t> gi) {
      return static_cast<double>(gi[0] * 100 + gi[1]);
    });
    for (int round = 0; round < 4; ++round) {
      ds::assign(ctx, cols, rows);
      ds::assign(ctx, rows, cols);
    }
    ctx.barrier();
  });
}

}  // namespace

TEST(ExecCounters, ThreadedTotalsMatchSimulator) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  const auto sim_res = run_redistribution_program(simulated(4));
  const auto thr_res = run_redistribution_program(threaded(4));
  EXPECT_EQ(sim_res.messages, thr_res.messages);
  EXPECT_EQ(sim_res.bytes, thr_res.bytes);
  EXPECT_EQ(sim_res.barriers, thr_res.barriers);
  EXPECT_EQ(sim_res.plan_cache_hits, thr_res.plan_cache_hits);
  EXPECT_EQ(sim_res.plan_cache_misses, thr_res.plan_cache_misses);
  // The repeated rounds must actually hit the plan cache for this test to
  // exercise its concurrent lookup path.
  EXPECT_GT(thr_res.plan_cache_hits, 0u);
  EXPECT_GT(thr_res.plan_cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// Failure handling
// ---------------------------------------------------------------------------

TEST(ExecThreads, AbortPropagatesFirstError) {
  mx::Machine m(threaded(4));
  EXPECT_THROW(
      {
        m.run([&](mx::Context& ctx) {
          if (ctx.phys_rank() == 2) {
            throw std::runtime_error("boom on rank 2");
          }
          // Everyone else blocks on a message that never comes; the abort
          // must wake them instead of hanging the join.
          ctx.recv_phys(2, 99);
        });
      },
      std::runtime_error);
}

// Messages still queued when a run aborts must be reclaimed when the
// Machine is destroyed, not only by the next run's reset (the ASan CI job
// enforces the no-leak part).
TEST(ExecThreads, AbortWithQueuedMessagesDoesNotLeak) {
  mx::Machine m(threaded(2));
  EXPECT_THROW(
      {
        m.run([&](mx::Context& ctx) {
          if (ctx.phys_rank() == 0) {
            ctx.send_phys(1, 1, stamp(0, 0, 8));
            for (int i = 0; i < 8; ++i) {
              ctx.send_phys(1, 2, stamp(0, i + 1, 4096));  // never received
            }
            ctx.recv_phys(1, 3);  // parks until the abort wakes it
          } else {
            ctx.recv_phys(0, 1);
            throw std::runtime_error("boom after first message");
          }
        });
      },
      std::runtime_error);
}

TEST(ExecThreads, DeadlockDetected) {
  mx::Machine m(threaded(2));
  EXPECT_THROW(
      {
        m.run([&](mx::Context& ctx) {
          if (ctx.phys_rank() == 0) {
            ctx.recv_phys(1, 3);  // rank 1 finishes without sending
          }
        });
      },
      fxpar::runtime::DeadlockError);
}

// Regression for a false DeadlockError: a deposit (or barrier release)
// delivered just before the sender's own park left the counters quiet
// while the woken worker was still scheduled out, so the quiescence check
// misread a valid program as a global wait cycle. quiescent() now also
// scans undrained inboxes and unconsumed barrier releases. This hammers
// exactly that pattern — deposit, then immediately block — plus full-group
// barriers, and must complete without throwing.
TEST(ExecThreads, NoFalseDeadlockUnderParkRaces) {
  const int P = 8, rounds = 400;
  mx::Machine m(threaded(P));
  m.run([&](mx::Context& ctx) {
    const int r = ctx.phys_rank();
    for (int i = 0; i < rounds; ++i) {
      ctx.send_phys((r + 1) % P, 7, stamp(r, i, 16));
      ctx.recv_phys((r + P - 1) % P, 7);
      if (i % 16 == 0) ctx.barrier();
    }
    ctx.barrier();
  });
}

// Regression for a false DeadlockError on the process backend: a barrier
// waiter whose episode has been released stays marked parked until its
// process runs again. If the releasing rank then blocks in a receive from
// that waiter, every rank looks parked while the system is only waiting
// for the OS to schedule the waiter. Here rank 1 parks in a barrier and is
// SIGSTOPped; rank 0 releases the barrier and then waits for a message from
// rank 1, which can only arrive once a helper thread sends SIGCONT about
// 100 ms later. The monitor must see the pending release and keep waiting.
TEST(ExecProc, NoFalseDeadlockWhileReleasedWaiterIsStopped) {
#ifdef FXPAR_TSAN
  GTEST_SKIP() << "fork-per-rank backend is incompatible with ThreadSanitizer";
#endif
  auto c = MachineConfig::paragon(2);
  c.backend = ex::BackendKind::Proc;
  mx::Machine m(c);
  std::int64_t echoed = -1;
  EXPECT_NO_THROW(m.run([&](mx::Context& ctx) {
    if (ctx.phys_rank() == 1) {
      ctx.send_phys(0, 1, fxpar::comm::pack_value<std::int64_t>(::getpid()));
      ctx.barrier();
      ctx.send_phys(0, 2, fxpar::comm::pack_value<std::int64_t>(42));
      return;
    }
    const auto pid =
        static_cast<pid_t>(fxpar::comm::unpack_value<std::int64_t>(ctx.recv_phys(1, 1)));
    // Let rank 1 reach the barrier and park before stopping it.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_EQ(::kill(pid, SIGSTOP), 0);
    ctx.barrier();  // last arriver: releases the stopped waiter
    // Joined on every exit path, so a (false) deadlock verdict still
    // resumes rank 1 before the backend reaps it.
    std::jthread resume([pid] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      ::kill(pid, SIGCONT);
    });
    echoed = fxpar::comm::unpack_value<std::int64_t>(ctx.recv_phys(1, 2));
  }));
  EXPECT_EQ(echoed, 42);
}

// ---------------------------------------------------------------------------
// Concurrent trace recording
// ---------------------------------------------------------------------------

TEST(ExecThreads, TraceRecordsMergeAfterConcurrentRun) {
  auto cfg = threaded(4);
  cfg.trace = true;
  mx::Machine m(cfg);
  const auto res = m.run([&](mx::Context& ctx) {
    auto span = ctx.span("work", "test");
    const int r = ctx.phys_rank();
    if (r == 0) {
      ctx.send_phys(1, 11, mx::Payload(32));
    } else if (r == 1) {
      ctx.recv_phys(0, 11);
    }
    ctx.barrier();
  });
  ASSERT_NE(res.trace, nullptr);
  // Every worker recorded its shard; the merge produced one coherent
  // timeline: the program root span + one "work" span per processor.
  int work_spans = 0;
  for (const auto& s : res.trace->spans()) {
    if (s.name == "work") ++work_spans;
  }
  EXPECT_EQ(work_spans, 4);
  ASSERT_EQ(res.trace->messages().size(), 1u);
  EXPECT_EQ(res.trace->messages()[0].src, 0);
  EXPECT_EQ(res.trace->messages()[0].dst, 1);
  ASSERT_EQ(res.trace->barriers().size(), 1u);
  EXPECT_EQ(res.trace->barriers()[0].procs.size(), 4u);
  // Concurrent spans carry real busy time (elapsed minus recorded waits),
  // not the zero a missing charge() would leave behind.
  double root_busy = 0.0;
  for (const auto& s : res.trace->spans()) {
    EXPECT_GE(s.busy, 0.0);
    EXPECT_LE(s.busy, s.duration() + 1e-9);
    if (s.depth == 0) root_busy += s.busy;
  }
  EXPECT_GT(root_busy, 0.0);
  double totals_busy = 0.0;
  for (const auto& t : res.trace->proc_totals()) totals_busy += t.busy;
  EXPECT_NEAR(totals_busy, root_busy, 1e-9);
  // The analyzers must accept the merged trace.
  EXPECT_FALSE(fxpar::trace::phase_report(*res.trace).to_string().empty());
  EXPECT_FALSE(fxpar::trace::critical_path(*res.trace).to_string().empty());
}

// ---------------------------------------------------------------------------
// Work-stealing loops (tentpole)
// ---------------------------------------------------------------------------

namespace {

// Deliberately imbalanced iteration cost: heavy iterations take `reps`
// rounds of transcendental work, light ones a single round. Deterministic —
// the same (input, reps) pair always produces the same bits.
double steal_heavy(double x, int reps) {
  double acc = x;
  for (int r = 0; r < reps * 200; ++r) {
    acc = std::fma(acc, 1.0000001, std::sin(acc) * 1e-3);
  }
  return acc;
}

constexpr std::int64_t kIrrN = 512;  // loop length
constexpr int kHeavySteps = 64;      // heavy-iteration work multiplier

struct IrregularRun {
  mx::RunResult res;
  std::vector<double> out;  ///< per-iteration results (shared, disjoint writes)
  std::vector<int> who;     ///< physical rank that executed each iteration
  std::vector<int> who_reduce;  ///< the same for the parallel_reduce loop
  double reduced = 0.0;     ///< do&merge result (identical on every member)
};

// The canonical irregular do&merge program: every heavy iteration lands in
// vrank 0's static block, so with stealing enabled the other workers drain
// chunks of its deque. `who[i]` (and `who_reduce[i]` for the reduction,
// whose chunks can be stolen too) records the worker that actually ran
// iteration i — under stealing that can differ from the static owner, but
// the *results* must not.
IrregularRun run_irregular_loop(const MachineConfig& cfg, std::int64_t n = kIrrN) {
  mx::Machine m(cfg);
  IrregularRun r;
  r.out.assign(static_cast<std::size_t>(n), 0.0);
  r.who.assign(static_cast<std::size_t>(n), -1);
  r.who_reduce.assign(static_cast<std::size_t>(n), -1);
  double* out = r.out.data();
  int* who = r.who.data();
  int* who_reduce = r.who_reduce.data();
  double* reduced = &r.reduced;
  r.res = m.run([&, n](mx::Context& ctx) {
    core::parallel_for(ctx, 0, n, [&ctx, out, who, n](std::int64_t i) {
      who[i] = ctx.machine().backend().current_rank();
      out[i] = steal_heavy(static_cast<double>(i) * 1e-3,
                           i < n / 4 ? kHeavySteps : 1);
    });
    // Floating-point sum whose value depends on combine order: bitwise
    // equality across schedules proves the merge order is preserved.
    const double sum = core::parallel_reduce<double>(
        ctx, 0, n,
        [&ctx, who_reduce](std::int64_t i) {
          who_reduce[i] = ctx.machine().backend().current_rank();
          return 1.0 / static_cast<double>(i + 1);
        },
        std::plus<double>{}, 0.0);
    if (ctx.phys_rank() == 0) *reduced = sum;
  });
  return r;
}

// Static iteration ownership on the whole-machine group (vrank == phys).
std::vector<int> static_owner(int procs, std::int64_t n = kIrrN) {
  std::vector<int> own(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < procs; ++v) {
    const auto [f, l] = ex::loop_block(0, n, procs, v);
    for (std::int64_t i = f; i < l; ++i) own[static_cast<std::size_t>(i)] = v;
  }
  return own;
}

// Iterations of both loops that ran off their static owner: exactly the
// stolen ones.
std::uint64_t moved_iters(const IrregularRun& r, const std::vector<int>& own) {
  std::uint64_t moved = 0;
  for (std::size_t i = 0; i < own.size(); ++i) {
    moved += (r.who[i] != own[i]) + (r.who_reduce[i] != own[i]);
  }
  return moved;
}

}  // namespace

TEST(ExecStealing, IrregularLoopStealsAndStaysBitIdentical) {
  const int P = 4;
  const auto steal = run_irregular_loop(threaded(P));
  auto off = threaded(P);
  off.work_stealing = false;
  const auto nosteal = run_irregular_loop(off);

  // The stealing run moved work: some chunks of the hot block ran on idle
  // siblings, and the counters surfaced through RunResult say so.
  EXPECT_GT(steal.res.steals, 0u);
  EXPECT_GT(steal.res.stolen_iters, 0u);
  EXPECT_GE(steal.res.stolen_iters, steal.res.steals);  // >= 1 iter per chunk
  const std::string report = mx::utilization_report(steal.res);
  EXPECT_NE(report.find("work stealing"), std::string::npos);

  // Every iteration that ran off its static owner is a stolen one; the
  // executor map must account for exactly the stolen iterations.
  const auto own = static_owner(P);
  EXPECT_EQ(moved_iters(steal, own), steal.res.stolen_iters);

  // With the toggle off the schedule is purely static.
  EXPECT_EQ(nosteal.res.steals, 0u);
  EXPECT_EQ(nosteal.res.stolen_iters, 0u);
  for (std::size_t i = 0; i < own.size(); ++i) {
    ASSERT_EQ(nosteal.who[i], own[i]) << "iteration " << i;
    ASSERT_EQ(nosteal.who_reduce[i], own[i]) << "reduction iteration " << i;
  }

  // The determinism contract: array contents and the order-sensitive
  // reduction are bit-identical with stealing on or off.
  EXPECT_EQ(steal.out, nosteal.out);
  EXPECT_EQ(steal.reduced, nosteal.reduced);
}

TEST(ExecStealing, SimulatorMatchesStealingThreadsBitIdentically) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  const int P = 4;
  const auto sim = run_irregular_loop(simulated(P));
  const auto thr = run_irregular_loop(threaded(P));

  // The simulator always runs the static schedule, whatever the toggle.
  EXPECT_EQ(sim.res.steals, 0u);
  EXPECT_EQ(sim.res.stolen_iters, 0u);
  const auto own = static_owner(P);
  for (std::size_t i = 0; i < own.size(); ++i) {
    ASSERT_EQ(sim.who[i], own[i]) << "iteration " << i;
  }

  EXPECT_EQ(sim.out, thr.out);
  EXPECT_EQ(sim.reduced, thr.reduced);
}

// Block lengths that are not a multiple of the chunk count: splitting a
// 25-iteration block into chunks of rounded-up size 2 overshoots the
// block, and an unclamped chunk lower bound used to produce lo > hi
// chunks whose negative lengths wedged the join spin forever (a hang the
// deadlock detector cannot see: the spinning worker never parks). With 4
// procs, a 100-iteration loop gives every member exactly such a block.
TEST(ExecStealing, UnevenBlockLengthTerminatesAndStaysBitIdentical) {
  const int P = 4;
  constexpr std::int64_t kOdd = 100;  // 25 iterations per static block
  const auto steal = run_irregular_loop(threaded(P), kOdd);
  auto off = threaded(P);
  off.work_stealing = false;
  const auto nosteal = run_irregular_loop(off, kOdd);

  // Every iteration ran exactly once, the executor map accounts for
  // exactly the stolen iterations, and results match the static schedule
  // bit for bit.
  const auto own = static_owner(P, kOdd);
  for (std::size_t i = 0; i < own.size(); ++i) {
    ASSERT_NE(steal.who[i], -1) << "iteration " << i << " never ran";
    ASSERT_NE(steal.who_reduce[i], -1) << "reduction iteration " << i << " never ran";
  }
  EXPECT_EQ(moved_iters(steal, own), steal.res.stolen_iters);
  EXPECT_EQ(nosteal.res.steals, 0u);
  EXPECT_EQ(steal.out, nosteal.out);
  EXPECT_EQ(steal.reduced, nosteal.reduced);
}

// A loop body that throws while siblings may hold stolen chunks: the
// failing member must poison its unclaimed chunks and wait out in-flight
// thieves (which execute through its frame's body object) before
// unwinding, and the run must rethrow the original error — not hang, not
// touch freed state, not surface a bare AbortError.
TEST(ExecStealing, ThrowingBodyAbortsCleanlyUnderStealing) {
  mx::Machine m(threaded(4));
  try {
    m.run([](mx::Context& ctx) {
      core::parallel_for(ctx, 0, 100, [](std::int64_t i) {
        if (i == 60) throw std::runtime_error("loop body failure");
        volatile double sink =
            steal_heavy(static_cast<double>(i) * 1e-3, i < 25 ? kHeavySteps : 1);
        (void)sink;
      });
    });
    FAIL() << "expected the loop body's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "loop body failure");
  }
}

// Stealing must never cross TASK_PARTITION siblings: arenas are keyed per
// group, so an idle member of "right" can see no chunk of "left"'s loops
// even while both subgroups run imbalanced loops concurrently.
TEST(ExecStealing, StealingConfinedToTaskPartitionSiblings) {
  constexpr std::int64_t N = 256;
  mx::Machine m(threaded(4));
  std::vector<double> out(static_cast<std::size_t>(N), 0.0);
  std::vector<int> who(static_cast<std::size_t>(N), -1);
  std::vector<int> left_members, right_members;
  m.run([&](mx::Context& ctx) {
    core::TaskPartition part(ctx, {{"left", 2}, {"right", 2}}, "steal-split");
    core::TaskRegion region(ctx, part);
    auto run_half = [&](std::int64_t lo, std::int64_t hi, std::vector<int>* members) {
      if (ctx.group().virtual_of(ctx.phys_rank()) == 0) *members = ctx.group().members();
      core::parallel_for(ctx, lo, hi, [&ctx, &out, &who, lo, hi](std::int64_t i) {
        who[static_cast<std::size_t>(i)] = ctx.machine().backend().current_rank();
        out[static_cast<std::size_t>(i)] = steal_heavy(
            static_cast<double>(i) * 1e-3, i - lo < (hi - lo) / 2 ? kHeavySteps / 2 : 1);
      });
    };
    region.on("left", [&] { run_half(0, N / 2, &left_members); });
    region.on("right", [&] { run_half(N / 2, N, &right_members); });
  });

  ASSERT_EQ(left_members.size(), 2u);
  ASSERT_EQ(right_members.size(), 2u);
  auto member_of = [](const std::vector<int>& ms, int r) {
    return std::find(ms.begin(), ms.end(), r) != ms.end();
  };
  for (std::int64_t i = 0; i < N; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const auto& ms = i < N / 2 ? left_members : right_members;
    ASSERT_TRUE(member_of(ms, who[u]))
        << "iteration " << i << " ran on rank " << who[u] << ", outside its subgroup";
    const std::int64_t lo = i < N / 2 ? 0 : N / 2;
    const std::int64_t hi = i < N / 2 ? N / 2 : N;
    const double want = steal_heavy(static_cast<double>(i) * 1e-3,
                                    i - lo < (hi - lo) / 2 ? kHeavySteps / 2 : 1);
    ASSERT_EQ(out[u], want) << "iteration " << i;
  }
}

TEST(ExecStealing, TraceRecordsStealEvents) {
  auto cfg = threaded(4);
  cfg.trace = true;
  const auto r = run_irregular_loop(cfg);
  ASSERT_NE(r.res.trace, nullptr);
  const auto& st = r.res.trace->steals();
  EXPECT_EQ(st.size(), r.res.steals);
  ASSERT_FALSE(st.empty());
  double prev = 0.0;
  for (const auto& s : st) {
    EXPECT_GE(s.t, prev);  // merged shards come out time-ordered
    prev = s.t;
    EXPECT_NE(s.thief, s.victim);
    EXPECT_GE(s.thief, 0);
    EXPECT_LT(s.thief, 4);
    EXPECT_GE(s.victim, 0);
    EXPECT_LT(s.victim, 4);
    EXPECT_GT(s.iters, 0u);
  }
}

// ---------------------------------------------------------------------------
// I/O blocked-time accounting (satellite)
// ---------------------------------------------------------------------------

// Only time spent *waiting for the device lock* is blocked time. A single
// worker can never contend, so a run that is pure io must report zero real
// wait and zero block events — before the fix, the whole io critical
// section was charged as wait.
TEST(ExecThreads, UncontendedIoChargesNoWait) {
  mx::Machine m(threaded(1));
  const auto res = m.run([](mx::Context& ctx) {
    for (int i = 0; i < 16; ++i) ctx.io(std::size_t{1} << 12);
  });
  EXPECT_EQ(res.wait_ms, 0.0);
  ASSERT_EQ(res.clocks.size(), 1u);
  EXPECT_EQ(res.clocks[0].blocks, 0u);
}

// ---------------------------------------------------------------------------
// Group-key collision hardening (satellite)
// ---------------------------------------------------------------------------

// The barrier and loop-arena registries key entries on the group's 64-bit
// content hash. Two distinct groups colliding on that key would silently
// share a TreeBarrier (or arena) of the wrong shape; the registries now
// store the registering member list and fail loudly on mismatch. A real
// FNV-1a collision can't be forged from small member lists, so the guard
// is exercised directly.
TEST(ExecBarriers, GroupKeyCollisionFailsLoudly) {
  const fxpar::pgroup::ProcessorGroup g({0, 1, 2, 3});
  EXPECT_NO_THROW(ex::ThreadedBackend::check_group_key_match(g.members(), g, "barrier"));
  EXPECT_THROW(ex::ThreadedBackend::check_group_key_match({0, 1}, g, "barrier"),
               std::logic_error);
  EXPECT_THROW(ex::ThreadedBackend::check_group_key_match({0, 1, 2, 5}, g, "run_chunks"),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Config plumbing
// ---------------------------------------------------------------------------

TEST(ExecSeam, SimAccessorThrowsOnThreadedBackend) {
  mx::Machine m(threaded(2));
  EXPECT_THROW(m.sim(), std::logic_error);
}

TEST(ExecSeam, BackendKindNames) {
  EXPECT_STREQ(ex::backend_kind_name(ex::BackendKind::Sim), "sim");
  EXPECT_STREQ(ex::backend_kind_name(ex::BackendKind::Threads), "threads");
}
