// Tests for the machine run reports: summarize(), utilization_report(),
// and traffic_report() edge cases (empty runs, one processor, degenerate
// row/cell budgets) that previously risked division by zero — plus the
// trace analyzers (phase report, critical path) over a *merged* threaded
// trace with work stealing, the path the simulator-driven trace tests
// never exercise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/parallel_loop.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "machine/report.hpp"
#include "trace/critical_path.hpp"
#include "trace/phase_report.hpp"

namespace mx = fxpar::machine;
namespace tr = fxpar::trace;

namespace {

mx::RunResult make_result(std::vector<double> busy, double finish) {
  mx::RunResult res;
  res.finish_time = finish;
  for (double b : busy) {
    fxpar::runtime::ProcClock c;
    c.busy = b;
    c.now = finish;
    res.clocks.push_back(c);
  }
  return res;
}

}  // namespace

TEST(Report, SummarizeEmptyResultIsAllZero) {
  const mx::UtilizationSummary s = mx::summarize(mx::RunResult{});
  EXPECT_DOUBLE_EQ(s.makespan, 0.0);
  EXPECT_DOUBLE_EQ(s.mean_busy_fraction, 0.0);
  EXPECT_DOUBLE_EQ(s.min_busy_fraction, 0.0);
  EXPECT_DOUBLE_EQ(s.max_busy_fraction, 0.0);
  EXPECT_EQ(s.least_busy_proc, -1);
  EXPECT_EQ(s.most_busy_proc, -1);
}

TEST(Report, SummarizeZeroMakespanDoesNotDivide) {
  // Clocks exist but no time passed (empty program).
  const mx::UtilizationSummary s = mx::summarize(make_result({0.0, 0.0}, 0.0));
  EXPECT_DOUBLE_EQ(s.mean_busy_fraction, 0.0);
}

TEST(Report, SummarizeComputesBusyFractions) {
  const mx::UtilizationSummary s = mx::summarize(make_result({1.0, 3.0, 2.0}, 4.0));
  EXPECT_DOUBLE_EQ(s.mean_busy_fraction, 0.5);
  EXPECT_DOUBLE_EQ(s.min_busy_fraction, 0.25);
  EXPECT_EQ(s.least_busy_proc, 0);
  EXPECT_DOUBLE_EQ(s.max_busy_fraction, 0.75);
  EXPECT_EQ(s.most_busy_proc, 1);
}

TEST(Report, UtilizationReportSingleProc) {
  const std::string rep = mx::utilization_report(make_result({2.0}, 4.0));
  EXPECT_NE(rep.find("mean busy 50%"), std::string::npos);
  EXPECT_NE(rep.find("proc 0"), std::string::npos);
}

TEST(Report, UtilizationReportEmptyClocks) {
  const std::string rep = mx::utilization_report(mx::RunResult{});
  EXPECT_NE(rep.find("machine utilization"), std::string::npos);
  EXPECT_NE(rep.find("messages 0"), std::string::npos);
}

TEST(Report, UtilizationReportClampsNonPositiveRowBudget) {
  // max_rows <= 0 must not divide by zero; it degrades to one row.
  const std::string rep = mx::utilization_report(make_result({1.0, 1.0}, 2.0), 0);
  EXPECT_NE(rep.find("procs 0-1"), std::string::npos);
  const std::string rep2 = mx::utilization_report(make_result({1.0, 1.0}, 2.0), -5);
  EXPECT_FALSE(rep2.empty());
}

TEST(Report, TrafficReportNamesTheConfigFlag) {
  const std::string rep = mx::traffic_report(make_result({1.0}, 1.0));
  EXPECT_NE(rep.find("MachineConfig::record_traffic = true"), std::string::npos);
}

TEST(Report, TrafficReportClampsNonPositiveCellBudget) {
  mx::RunResult res = make_result({1.0, 1.0}, 1.0);
  res.traffic = {0, 7, 7, 0};
  const std::string rep = mx::traffic_report(res, 0);
  EXPECT_NE(rep.find("communication matrix"), std::string::npos);
}

TEST(Report, ReportsAgreeWithALiveRun) {
  mx::MachineConfig cfg;
  cfg.num_procs = 2;
  cfg.record_traffic = true;
  cfg.stack_bytes = 128 * 1024;
  mx::Machine m(cfg);
  const mx::RunResult res = m.run([](mx::Context& ctx) {
    if (ctx.phys_rank() == 0) {
      ctx.send_phys(1, 1, mx::Payload(16));
    } else {
      (void)ctx.recv_phys(0, 1);
    }
  });
  const mx::UtilizationSummary s = mx::summarize(res);
  EXPECT_GT(s.makespan, 0.0);
  EXPECT_EQ(s.messages, 1u);
  const std::string util = mx::utilization_report(res);
  EXPECT_NE(util.find("messages 1 (16 bytes)"), std::string::npos);
  const std::string traffic = mx::traffic_report(res);
  EXPECT_NE(traffic.find("communication matrix (rows"), std::string::npos);
}

TEST(Report, AnalyzersWorkOnMergedThreadedTraceWithStealing) {
  // A traced threaded run produces its spans/waits/steals through the
  // per-worker shards, merged by finalize(); the analyzers must see one
  // coherent run. The loop is heavily imbalanced (all work in rank 0's
  // static block) so with stealing on, steals are all but certain — but
  // scheduling is not deterministic, so steal assertions are conditional.
  auto cfg = mx::MachineConfig::paragon(4);
  cfg.backend = fxpar::exec::BackendKind::Threads;
  cfg.trace = true;
  cfg.work_stealing = true;
  mx::Machine m(cfg);
  constexpr std::int64_t kN = 1 << 12;
  std::vector<double> out(static_cast<std::size_t>(kN), 0.0);
  double* o = out.data();
  const mx::RunResult res = m.run([o](mx::Context& ctx) {
    auto sp = ctx.span("imbalanced", "loop");
    fxpar::core::parallel_for(ctx, 0, kN, [o](std::int64_t i) {
      double acc = static_cast<double>(i);
      const int reps = i < kN / 4 ? 400 : 1;
      for (int r = 0; r < reps; ++r) acc = acc * 1.0000001 + 1e-9;
      o[i] = acc;
    });
  });
  ASSERT_NE(res.trace, nullptr);
  const tr::TraceRecorder& rec = *res.trace;

  // Merged spans: every worker contributed its root and the named span.
  int named = 0;
  for (const tr::Span& s : rec.spans()) {
    if (s.name == "imbalanced") ++named;
  }
  EXPECT_EQ(named, 4);

  const tr::PhaseReport rep = tr::phase_report(rec);
  EXPECT_GT(rep.makespan, 0.0);
  EXPECT_FALSE(rep.to_string().empty());

  const tr::CriticalPathReport cp = tr::critical_path(rec);
  EXPECT_GT(cp.makespan, 0.0);
  double steps = 0.0;
  for (const tr::PathStep& s : cp.steps) {
    EXPECT_GE(s.t1, s.t0);
    steps += s.duration();
  }
  // The walk tiles the time from 0 to the last *recorded* activity (the
  // run's finish is stamped after the join, so it can be slightly later).
  double last_activity = 0.0;
  for (int p = 0; p < rec.num_procs(); ++p) {
    last_activity = std::max(last_activity, rec.last_activity(p));
  }
  EXPECT_NEAR(steps, last_activity, 1e-9);
  EXPECT_LE(last_activity, cp.makespan + 1e-9);

  // RunResult's steal counters and the trace's merged steal stream agree.
  if (res.steals > 0) {
    EXPECT_EQ(rec.steals().size(), static_cast<std::size_t>(res.steals));
    const tr::PhaseStats* loop = nullptr;
    for (const tr::PhaseStats& p : rep.phases) {
      if (p.name == "imbalanced") loop = &p;
    }
    ASSERT_NE(loop, nullptr);
    EXPECT_EQ(loop->steals, res.steals);
    EXPECT_EQ(loop->stolen_iters, res.stolen_iters);
    EXPECT_NE(rep.to_string().find("steals stolen_iters"), std::string::npos);
  }
}
