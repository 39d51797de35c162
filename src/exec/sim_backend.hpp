// fxexec: the discrete-event simulator as an execution backend.
//
// SimBackend packages the original fxpar execution engine — one fiber per
// logical processor scheduled by the deterministic Simulator, mailboxes
// with modeled arrival times, content-keyed subset barriers and the
// serialized I/O device — behind the Backend seam. It is the authority on
// *modeled* machine time: all cost-model parameters of MachineConfig are
// charged here, and a given program produces bit-identical schedules and
// timings on every run.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "exec/backend.hpp"
#include "machine/config.hpp"
#include "obs/sink.hpp"

namespace fxpar::exec {

class SimBackend final : public Backend {
 public:
  explicit SimBackend(const machine::MachineConfig& config);
  ~SimBackend() override;

  BackendKind kind() const noexcept override { return BackendKind::Sim; }
  int num_procs() const noexcept override { return config_.num_procs; }

  void run(const std::function<void(int)>& body) override;
  double now(int rank) const override;
  BackendStats stats() const override;
  /// Like the rest of the simulator, NOT thread-safe against a running
  /// run(): call from the run thread only — after a deadlock/abort
  /// propagated (the other fibers stay suspended with their block reasons
  /// intact), or between runs. The Machine's diagnostic paths honor this.
  obs::Introspection introspect() const override;
  std::uint64_t progress() const noexcept override { return progress_; }

  int current_rank() const override;
  void charge(double seconds) override;
  void deposit(int dst, std::uint64_t tag, Payload data) override;
  Payload receive(int src, std::uint64_t tag) override;
  void barrier(const pgroup::ProcessorGroup& group) override;
  void io_operation(std::size_t bytes) override;
  void run_chunks(const pgroup::ProcessorGroup& group, std::int64_t lo, std::int64_t hi,
                  const ChunkBody& body) override;

  /// The underlying event simulator (modeled clocks, block/wake).
  runtime::Simulator& sim() noexcept { return *sim_; }

 private:
  struct MailKey {
    int src;
    std::uint64_t tag;
    friend auto operator<=>(const MailKey&, const MailKey&) = default;
  };
  struct Message {
    Payload data;
    runtime::SimTime arrival = 0.0;
    runtime::SimTime sent_at = 0.0;  ///< deposit complete on the sender (cause edge)
    std::uint64_t trace_id = 0;      ///< TraceRecorder message id (0 = untraced)
  };
  struct WaitState {
    bool waiting = false;
    MailKey key{};
  };
  /// How one barrier episode ended: what a woken member reports.
  struct Release {
    runtime::SimTime at = 0.0;
    runtime::SimTime max_arrival = 0.0;
    int last_arriver = -1;
    std::uint64_t episode = 0;
  };
  /// One group's barrier, kept across episodes.
  struct BarrierState {
    int size = 0;  ///< group size (for occupancy introspection)
    int arrived = 0;
    runtime::SimTime max_arrival = 0.0;
    int last_arriver = -1;     ///< proc whose modeled arrival is max_arrival
    std::vector<int> waiting;  ///< physical ranks blocked in this barrier
    /// The last released episode. A waiter reads it when it resumes; the
    /// next release cannot overwrite it first, because that needs the
    /// waiter's own arrival.
    Release last;
  };

  machine::MachineConfig config_;
  std::unique_ptr<runtime::Simulator> sim_;
  std::vector<std::map<MailKey, std::deque<Message>>> mailboxes_;
  std::vector<WaitState> waits_;
  std::map<std::uint64_t, BarrierState> barriers_;  ///< keyed by group key
  runtime::SimTime io_available_ = 0.0;
  int io_prev_proc_ = -1;  ///< owner of the last I/O operation (the io cause)
  bool ran_ = false;       ///< a completed run means reruns need a fresh simulator

  std::unique_ptr<obs::RankWords[]> own_words_;  ///< Backend::words()
  std::unique_ptr<std::atomic<std::uint64_t>[]> own_traffic_;  ///< if recording
  /// Service-activity stamp for Backend::progress(). Plain (not atomic):
  /// the simulator runs on one thread and the Machine never polls a sim
  /// run from a watchdog.
  std::uint64_t progress_ = 0;
};

}  // namespace fxpar::exec
