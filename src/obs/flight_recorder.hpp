// fxobs: always-on flight recorder.
//
// A fixed-size per-worker ring buffer of recent runtime events — spans,
// messages, receives, barriers, io transfers, steals — kept at bounded
// memory even when full tracing (trace::TraceRecorder) is off. The rings
// overwrite oldest-first, so at any moment the recorder holds the newest
// `events_per_proc` events of every worker; a dump filters them to the
// last `window_s` seconds of backend time and renders Chrome-trace JSON
// (chrome://tracing / Perfetto "instant" events) or a flat JSON array for
// the diagnostic bundles.
//
// Concurrency: one mutex per worker ring. Writers (the worker itself, via
// the Machine's obs::Sink) contend only with dump requests, never with each
// other, so the hot-path cost is an uncontended lock plus a 56-byte copy.
// When the recorder is disabled, the sink pays a single null-pointer test.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fxpar::obs {

/// Event categories, mapped to Chrome-trace names on export.
enum class FlightKind : std::uint8_t {
  Span = 0,     ///< task-region span mark (Context::span)
  Message = 1,  ///< message deposited (a = dst, b = tag)
  Recv = 2,     ///< message received (a = src, b = tag)
  Barrier = 3,  ///< barrier completed (a = group key)
  Io = 4,       ///< io_operation completed (a = bytes)
  Steal = 5,    ///< loop chunk stolen (a = victim, b = iterations)
  Mark = 6,     ///< free-form mark
};

const char* flight_kind_name(FlightKind k) noexcept;

/// One recorded event. POD, fixed size; `name` is truncated to fit.
struct FlightEvent {
  double t = 0.0;  ///< backend clock (real s on threads, modeled s on sim)
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::int32_t proc = 0;
  FlightKind kind = FlightKind::Mark;
  char name[27] = {0};
};

class FlightRecorder {
 public:
  /// `procs` rings of `events_per_proc` events each; dumps keep only
  /// events within `window_s` seconds of the newest recorded timestamp.
  FlightRecorder(int procs, std::size_t events_per_proc, double window_s);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event on `proc`'s ring (out-of-range procs are dropped).
  void record(int proc, FlightKind kind, double t, const char* name,
              std::uint64_t a = 0, std::uint64_t b = 0);

  /// Merged snapshot: every ring's surviving events within the window,
  /// sorted by timestamp.
  std::vector<FlightEvent> snapshot() const;

  /// Chrome-trace JSON ({"traceEvents":[...]}) of snapshot(); ts in us.
  std::string chrome_json() const;

  /// Flat JSON array of the newest `max_events` events (0 = all) — the
  /// "last flight-recorder events" section of a diagnostic bundle.
  static std::string events_json(const std::vector<FlightEvent>& events,
                                 std::size_t max_events = 0);

  int procs() const noexcept { return static_cast<int>(rings_.size()); }
  std::size_t capacity() const noexcept { return cap_; }
  double window_s() const noexcept { return window_s_; }

  /// Events recorded / overwritten by ring wrap, across all rings.
  std::uint64_t total_recorded() const;
  std::uint64_t dropped() const;

  /// Events ever recorded on `proc`'s ring (0 for out-of-range procs).
  std::uint64_t ring_total(int proc) const;
  /// The surviving events of `proc`'s ring recorded after its first
  /// `since` events, oldest first, with no window filter (a forked rank's
  /// post-fork tail, or with 0 the whole unwrapped ring).
  std::vector<FlightEvent> ring_events_since(int proc, std::uint64_t since) const;

 private:
  struct alignas(64) Ring {
    mutable std::mutex mu;
    std::vector<FlightEvent> buf;  ///< size cap_ once first event lands
    std::uint64_t total = 0;       ///< events ever recorded; buf[total % cap]
  };

  std::size_t cap_;
  double window_s_;
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace fxpar::obs
