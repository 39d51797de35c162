// fxnet: frame transport seam under the exec rank runtime.
//
// A Transport is created by the launching process before the ranks start:
// it owns whatever the ranks communicate through — per-rank in-process
// inboxes (LocalTransport, ranks are threads), a shared-memory region of
// per-rank rings, or a mesh of pre-connected loopback TCP sockets (ranks
// are forked processes). Each rank then attach()es exactly one Channel
// endpoint for itself and moves frames through it:
//
//   [Frame] kind | src | tag | trace id | send time | payload-bytes
//
// The contract mirrors the mailbox semantics of the exec seam
// (docs/execution.md, "Determinism contract"): frames from one source
// arrive in the order they were sent, so per-(src, tag) FIFO matching in
// the consumer reproduces the simulator's deterministic message order.
// Everything above framing — matching, barriers, abort — lives in
// exec::RankRuntime; the transports stay dumb frame movers so a future
// multi-node transport can slot in behind the same interface.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fxpar::net {

/// What a frame carries. Data frames are direct-deposit messages. Done is
/// the last frame a finishing child sends to rank 0; its payload is the
/// child's residue (obs::Sink::residue: metrics delta, trace shard and
/// flight-recorder tail in one blob — its counters already sit in shared
/// memory). Per-source ordering guarantees rank 0 has every frame of the
/// child once it sees the Done.
enum class FrameKind : std::uint32_t {
  Data = 0,  ///< direct-deposit message payload
  Done = 1,  ///< child finished, carrying its residue; no further frames follow
};

/// One frame, as handed to Channel::send() and back out of drain().
struct Frame {
  FrameKind kind = FrameKind::Data;
  int src = -1;
  std::uint64_t tag = 0;
  std::uint64_t trace_id = 0;  ///< TraceRecorder message id (0 = untraced)
  double sent_at = 0.0;        ///< sender's clock at send (trace cause edge)
  std::vector<std::byte> payload;
};

/// Thrown out of a blocking channel operation after request-stop (the
/// backend's abort flag): the caller is unwinding, not failing.
struct ChannelStopped : std::runtime_error {
  ChannelStopped() : std::runtime_error("fxnet: channel stopped") {}
};

/// One rank's endpoint. Single-threaded use per endpoint (each logical
/// processor is one process/thread); distinct endpoints of one Transport
/// are used concurrently by design.
class Channel {
 public:
  virtual ~Channel() = default;

  /// "local" / "shm" / "tcp" (stable spelling used by bench records and CLIs).
  virtual const char* transport() const noexcept = 0;

  /// Rank this endpoint was attached as.
  virtual int rank() const noexcept = 0;

  /// Sends `frame` to `dst`, stamping `frame.src` with rank(). May block
  /// (ring full / socket buffer full) until the consumer drains; honors
  /// the stop flag (throws ChannelStopped). `dst == rank()` is a caller
  /// error — self-sends are matched locally by the runtime and never reach
  /// a transport. Byte transports copy the payload onto the wire; the
  /// in-process transport moves it to the receiver.
  virtual void send(int dst, Frame frame) = 0;

  /// Convenience: sends a copy of [data, data + len).
  void send(int dst, FrameKind kind, std::uint64_t tag, const std::byte* data, std::size_t len) {
    Frame f;
    f.kind = kind;
    f.tag = tag;
    if (len > 0) f.payload.assign(data, data + len);
    send(dst, std::move(f));
  }

  /// Appends every fully received frame to `out` without blocking; returns
  /// true when at least one frame was appended. Partially transmitted
  /// frames stay buffered until complete.
  virtual bool drain(std::vector<Frame>& out) = 0;

  /// Blocks until a frame may be available (or `timeout_s` elapsed);
  /// returns false on timeout. Spurious wakeups are allowed — callers
  /// always re-drain.
  virtual bool wait(double timeout_s) = 0;

  /// Installs a stop flag observed by blocking operations: when it becomes
  /// nonzero, send() throws ChannelStopped and wait() returns promptly.
  /// The pointed-to word must outlive the channel (the rank runtime points
  /// it at the abort word in its control block, so every rank observes the
  /// same stop).
  void set_stop(const std::atomic<std::uint32_t>* stop) noexcept { stop_ = stop; }

 protected:
  bool stopped() const noexcept {
    return stop_ != nullptr && stop_->load(std::memory_order_acquire) != 0;
  }

 private:
  const std::atomic<std::uint32_t>* stop_ = nullptr;
};

/// Factory for one run's channels, created before the ranks start.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual const char* name() const noexcept = 0;
  virtual int num_ranks() const noexcept = 0;

  /// Endpoint for `rank`. After fork each process attaches as its own rank;
  /// threads (and in-process tests) attach several ranks from one address
  /// space.
  virtual std::unique_ptr<Channel> attach(int rank) = 0;

  /// Drops resources belonging to ranks other than `rank` (a forked child
  /// closes the socket ends it inherited but does not own). No-op where
  /// resources are naturally shared (local, shm).
  virtual void isolate(int /*rank*/) {}
};

}  // namespace fxpar::net
