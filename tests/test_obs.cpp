// Tests for the live observability plane (src/obs/): flight-recorder ring
// semantics and Chrome export, the embedded HTTP endpoint (routing plus
// serving /metrics, /healthz, /trace and /diagnostics during a live
// threaded run), structured diagnostic bundles on deadlock and abort for
// both backends, the stall watchdog, the grid-aligned metrics sampler, and
// the utilization-report lines for the collective-plan cache and payload
// pool.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/stream_pipeline.hpp"
#include "json_checker.hpp"
#include "machine/context.hpp"
#include "machine/machine.hpp"
#include "machine/report.hpp"
#include "obs/diagnostics.hpp"
#include "obs/endpoint.hpp"
#include "obs/flight_recorder.hpp"
#include "runtime/simulator.hpp"

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
namespace obs = fxpar::obs;
using fxpar::MachineConfig;

namespace {

MachineConfig backend_config(ex::BackendKind kind, int p) {
  auto c = MachineConfig::ideal(p);
  c.backend = kind;
  c.flight_recorder = true;
  c.flight_events = 64;
  return c;
}

/// Blocking one-shot HTTP GET against 127.0.0.1:`port`; returns the full
/// response (status line + headers + body), or "" on connect failure.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string req =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return resp;
}

/// Body of an HTTP response ("" when there is no header/body separator).
std::string http_body(const std::string& resp) {
  const auto pos = resp.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : resp.substr(pos + 4);
}

}  // namespace

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorder, RingWrapKeepsNewestEvents) {
  obs::FlightRecorder fr(/*procs=*/1, /*events_per_proc=*/16, /*window_s=*/1e9);
  for (int i = 0; i < 100; ++i) {
    fr.record(0, obs::FlightKind::Mark, static_cast<double>(i) * 1e-3, "e",
              static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(fr.total_recorded(), 100u);
  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), 16u);
  // A full ring keeps exactly the newest events, oldest-surviving first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 84u + i);
  }
  const std::string chrome = fr.chrome_json();
  EXPECT_TRUE(fxtest::JsonChecker(chrome).valid()) << chrome;
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
}

TEST(FlightRecorder, WindowDropsStaleEvents) {
  obs::FlightRecorder fr(1, 16, /*window_s=*/1.0);
  fr.record(0, obs::FlightKind::Mark, 0.0, "old");
  fr.record(0, obs::FlightKind::Mark, 0.5, "stale");
  fr.record(0, obs::FlightKind::Mark, 2.0, "fresh");
  const auto events = fr.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "fresh");
}

TEST(FlightRecorder, EscapesHostileSpanNames) {
  obs::FlightRecorder fr(1, 16, 1e9);
  fr.record(0, obs::FlightKind::Span, 1.0, "a\"b\\c\nd");
  EXPECT_TRUE(fxtest::JsonChecker(fr.chrome_json()).valid()) << fr.chrome_json();
  EXPECT_TRUE(
      fxtest::JsonChecker(obs::FlightRecorder::events_json(fr.snapshot(), 8)).valid());
}

// ---------------------------------------------------------------------------
// HTTP endpoint

TEST(Endpoint, ServesRegisteredRoutes) {
  obs::Endpoint ep;
  ep.handle("/ping", "text/plain", [] { return std::string("pong"); });
  ASSERT_TRUE(ep.start(0));  // ephemeral port
  ASSERT_GT(ep.port(), 0);
  const std::string ok = http_get(ep.port(), "/ping");
  EXPECT_NE(ok.find("200"), std::string::npos) << ok;
  EXPECT_EQ(http_body(ok), "pong");
  const std::string missing = http_get(ep.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
  ep.stop();
}

TEST(Endpoint, AnswersDuringLiveThreadedRun) {
  auto cfg = backend_config(ex::BackendKind::Threads, 3);
  cfg.obs_port = 0;
  mx::Machine m(cfg);
  ASSERT_GT(m.obs_port(), 0);
  const int port = m.obs_port();

  std::atomic<bool> release{false};
  std::thread runner([&] {
    m.run([&release](mx::Context& ctx) {
      auto sp = ctx.span("probe-window", "test");
      if (ctx.vrank() == 0) {
        while (!release.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        for (int peer = 1; peer < ctx.group().size(); ++peer) {
          ctx.send(peer, /*tag=*/9, fxpar::machine::Payload(1));
        }
      } else {
        (void)ctx.recv(0, 9);
      }
      ctx.barrier();
    });
  });

  // Wait until /healthz reports the run in flight, then probe every route
  // while the workers are live.
  std::string health;
  for (int i = 0; i < 2000; ++i) {
    health = http_body(http_get(port, "/healthz"));
    if (health.find("\"run_state\":\"running\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_NE(health.find("\"run_state\":\"running\""), std::string::npos) << health;
  EXPECT_TRUE(fxtest::JsonChecker(health).valid()) << health;
  EXPECT_NE(health.find("\"procs\":3"), std::string::npos);
  EXPECT_NE(health.find("\"workers\""), std::string::npos);

  const std::string metrics = http_body(http_get(port, "/metrics"));
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos) << metrics;

  const std::string trace = http_body(http_get(port, "/trace"));
  EXPECT_TRUE(fxtest::JsonChecker(trace).valid()) << trace;
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  const std::string diag = http_body(http_get(port, "/diagnostics"));
  EXPECT_TRUE(fxtest::JsonChecker(diag).valid()) << diag;
  EXPECT_NE(diag.find("\"reason\":\"on-demand\""), std::string::npos) << diag;

  release.store(true, std::memory_order_release);
  runner.join();

  // After the run the flight recorder holds the span marks and messages.
  const std::string done = http_body(http_get(port, "/healthz"));
  EXPECT_NE(done.find("\"run_state\":\"done\""), std::string::npos) << done;
  ASSERT_NE(m.flight(), nullptr);
  EXPECT_GT(m.flight()->total_recorded(), 0u);
}

// ---------------------------------------------------------------------------
// Diagnostic bundles

namespace {

void expect_deadlock_bundle(ex::BackendKind kind) {
  mx::Machine m(backend_config(kind, 2));
  EXPECT_THROW(m.run([](mx::Context& ctx) {
    // Mutual receive with no sender: a certain deadlock on both backends.
    (void)ctx.recv(1 - ctx.vrank(), /*tag=*/5);
  }),
               fxpar::runtime::DeadlockError);
  const std::string bundle = m.last_diagnostic();
  ASSERT_FALSE(bundle.empty());
  EXPECT_TRUE(fxtest::JsonChecker(bundle).valid()) << bundle;
  EXPECT_NE(bundle.find("\"reason\":\"deadlock\""), std::string::npos) << bundle;
  // Both workers were parked in a receive when the failure froze the state.
  EXPECT_NE(bundle.find("recv"), std::string::npos) << bundle;
  EXPECT_NE(bundle.find("\"workers\""), std::string::npos);
  EXPECT_NE(bundle.find("\"flight\""), std::string::npos);
}

void expect_abort_bundle(ex::BackendKind kind, int failing_rank = 0) {
  mx::Machine m(backend_config(kind, 3));
  EXPECT_THROW(m.run([kind, failing_rank](mx::Context& ctx) {
    if (ctx.vrank() == failing_rank) {
      if (kind != ex::BackendKind::Sim) {
        // Give the peers time to park at the barrier so the frozen
        // introspection shows their block reason.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      throw std::runtime_error("boom in loop body");
    }
    ctx.barrier();
  }),
               std::runtime_error);
  const std::string bundle = m.last_diagnostic();
  ASSERT_FALSE(bundle.empty());
  EXPECT_TRUE(fxtest::JsonChecker(bundle).valid()) << bundle;
  EXPECT_NE(bundle.find("\"reason\":\"abort\""), std::string::npos) << bundle;
  EXPECT_NE(bundle.find("boom in loop body"), std::string::npos) << bundle;
  // The peers were blocked at the machine barrier when rank 0 threw.
  EXPECT_NE(bundle.find("barrier"), std::string::npos) << bundle;
}

}  // namespace

TEST(Diagnostics, DeadlockBundleSim) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  expect_deadlock_bundle(ex::BackendKind::Sim);
}

TEST(Diagnostics, DeadlockBundleThreads) {
  expect_deadlock_bundle(ex::BackendKind::Threads);
}

TEST(Diagnostics, AbortBundleSim) {
  FXPAR_SKIP_SIM_UNDER_TSAN();
  expect_abort_bundle(ex::BackendKind::Sim);
}

TEST(Diagnostics, AbortBundleThreads) {
  expect_abort_bundle(ex::BackendKind::Threads);
}

TEST(Diagnostics, DeadlockBundleProc) {
#ifdef FXPAR_TSAN
  GTEST_SKIP() << "fork-per-rank backend is incompatible with ThreadSanitizer";
#endif
  expect_deadlock_bundle(ex::BackendKind::Proc);
}

TEST(Diagnostics, AbortBundleProcChildRank) {
#ifdef FXPAR_TSAN
  GTEST_SKIP() << "fork-per-rank backend is incompatible with ThreadSanitizer";
#endif
  // Rank 1 is a forked child on the process backend: its exception must
  // cross the process boundary (shared-memory error block), surface as the
  // parent's std::runtime_error, and still yield a schema-valid bundle
  // with the peers' frozen block reasons.
  expect_abort_bundle(ex::BackendKind::Proc, /*failing_rank=*/1);
}

TEST(Diagnostics, JsonSurvivesHostileErrorText) {
  obs::DiagnosticInfo d;
  d.reason = "abort";
  d.error = "quote \" backslash \\ newline \n control \x01 end";
  d.backend = "threads";
  d.procs = 1;
  obs::WorkerState ws;
  ws.rank = 0;
  ws.block_reason = "recv \"tag\"";
  d.intro.workers.push_back(ws);
  const std::string j = obs::diagnostic_json(d);
  EXPECT_TRUE(fxtest::JsonChecker(j).valid()) << j;
}

namespace {

void expect_stall_bundle(ex::BackendKind kind) {
  auto cfg = backend_config(kind, 2);
  cfg.stall_watchdog_s = 0.15;
  mx::Machine m(cfg);
  m.run([](mx::Context& ctx) {
    if (ctx.vrank() == 0) {
      // No runtime service call for well past the watchdog limit: pure
      // (here: sleeping) user code is exactly what the watchdog flags.
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
    ctx.barrier();
  });
  const std::string bundle = m.last_diagnostic();
  ASSERT_FALSE(bundle.empty());
  EXPECT_TRUE(fxtest::JsonChecker(bundle).valid()) << bundle;
  EXPECT_NE(bundle.find("\"reason\":\"stall\""), std::string::npos) << bundle;
  // The other rank was parked at the barrier while rank 0 slept.
  EXPECT_NE(bundle.find("\"block_reason\":\"barrier\""), std::string::npos) << bundle;
}

}  // namespace

TEST(Diagnostics, StallWatchdogEmitsBundle) { expect_stall_bundle(ex::BackendKind::Threads); }

TEST(Diagnostics, StallWatchdogEmitsBundleProc) {
#ifdef FXPAR_TSAN
  GTEST_SKIP() << "fork-per-rank backend is incompatible with ThreadSanitizer";
#endif
  // The watchdog thread lives in the parent and reads progress from the
  // shared control block, so it sees the forked rank parked too.
  expect_stall_bundle(ex::BackendKind::Proc);
}

// ---------------------------------------------------------------------------
// Metrics sampler cadence (threads backend)

TEST(Sampler, SeriesMonotoneAndGapFreeOnThreads) {
  namespace ap = fxpar::apps;
  namespace ds = fxpar::dist;
  auto cfg = MachineConfig::ideal(2);
  cfg.backend = ex::BackendKind::Threads;

  std::vector<ap::PipelineStage<double>> stages(1);
  auto block = [](const fxpar::ProcessorGroup& g) {
    return ds::Layout(g, {64}, {ds::DimDist::block()});
  };
  stages[0].name = "work";
  stages[0].in_layout = stages[0].out_layout = block;
  stages[0].run = [](mx::Context& ctx, ds::DistArray<double>&, ds::DistArray<double>& o,
                     int k) {
    o.fill([k](std::span<const std::int64_t> gi) {
      return static_cast<double>(gi[0] + k);
    });
    // Real host time so the sampler's steady-clock grid advances.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ctx.barrier();
  };
  const auto stats = ap::run_stream_pipeline<double>(cfg, stages, {{0, 0, 2, 1}}, 24,
                                                     /*metrics_sample_period_s=*/1e-3);
  ASSERT_GE(stats.metrics_series.size(), 3u);
  for (std::size_t i = 1; i < stats.metrics_series.size(); ++i) {
    const auto& prev = stats.metrics_series[i - 1];
    const auto& cur = stats.metrics_series[i];
    // Monotone time axis…
    EXPECT_GE(cur.t, prev.t) << "sample " << i;
    // …and gap-free counters: every snapshot of a monotone counter must be
    // >= its predecessor (a dropped or reordered sample would regress).
    EXPECT_GE(cur.counter("fxpar_comm_messages_total"),
              prev.counter("fxpar_comm_messages_total"))
        << "sample " << i;
    EXPECT_GE(cur.counter("fxpar_sync_barriers_total"),
              prev.counter("fxpar_sync_barriers_total"))
        << "sample " << i;
  }
  EXPECT_TRUE(fxtest::JsonChecker(stats.metrics_series_json()).valid());
}

// ---------------------------------------------------------------------------
// Utilization report satellites

TEST(Report, ShowsCollectivePlanCountsAndPoolSpills) {
  mx::RunResult res;
  res.finish_time = 1.0;
  res.clocks.resize(2);
  res.clocks[0].busy = 0.5;
  res.clocks[1].busy = 0.5;
  res.collective_plan_hits = 3;
  res.collective_plan_misses = 1;
  res.pool_spills = 2;
  const std::string report = mx::utilization_report(res);
  EXPECT_NE(report.find("collective plan cache: 3 hits, 1 misses"), std::string::npos)
      << report;
  EXPECT_NE(report.find("payload pool: 2 cross-shard spills"), std::string::npos)
      << report;

  // The lines stay out of reports for runs without those events.
  const std::string quiet = mx::utilization_report(mx::RunResult{});
  EXPECT_EQ(quiet.find("collective plan cache"), std::string::npos);
  EXPECT_EQ(quiet.find("payload pool"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Config validation

TEST(Config, ValidateRejectsBadObservabilityKnobs) {
  auto bad = [](auto&& mutate) {
    auto c = MachineConfig::ideal(2);
    mutate(c);
    EXPECT_THROW(c.validate(), std::invalid_argument);
  };
  bad([](MachineConfig& c) { c.obs_port = 65536; });
  bad([](MachineConfig& c) { c.flight_events = 4; });
  bad([](MachineConfig& c) { c.flight_window_s = 0.0; });
  bad([](MachineConfig& c) { c.stall_watchdog_s = -1.0; });
}
