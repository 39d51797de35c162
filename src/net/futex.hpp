// fxnet internal: futex park/wake on a 32-bit word, shared by the
// transports and the rank runtime. The calls are process-shared (no
// FUTEX_PRIVATE_FLAG), so one word may live in a mapping several forked
// ranks see. Off Linux, waits degrade to a bounded sleep and wakes to
// no-ops: every wait site re-checks its condition on a short period anyway.
#pragma once

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <ctime>
#include <thread>

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace fxpar::net::detail {

/// Sleeps until `*w` may differ from `seen`, a wake arrives, or `timeout_s`
/// elapses. Spurious returns are allowed; callers re-check.
inline void futex_wait(std::atomic<std::uint32_t>* w, std::uint32_t seen, double timeout_s) {
#ifdef __linux__
  timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout_s);
  ts.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(ts.tv_sec)) * 1e9);
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(w), FUTEX_WAIT, seen, &ts, nullptr, 0);
#else
  if (w->load(std::memory_order_acquire) == seen) {
    std::this_thread::sleep_for(std::chrono::duration<double>(timeout_s < 1e-3 ? timeout_s : 1e-3));
  }
#endif
}

/// Wakes every waiter parked on `w`.
inline void futex_wake_all(std::atomic<std::uint32_t>* w) {
#ifdef __linux__
  ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(w), FUTEX_WAKE, INT_MAX, nullptr, nullptr,
            0);
#else
  (void)w;
#endif
}

}  // namespace fxpar::net::detail
