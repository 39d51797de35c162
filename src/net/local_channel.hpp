// fxnet: in-process transport — one lock-free MPSC inbox per rank.
//
// The transport of ranks that share one address space (threads). A sender
// pushes a heap node holding the whole Frame onto the receiver's Treiber
// stack with a single CAS, so the payload's ownership moves to the
// receiver and no byte is copied. The owner drains the stack with one
// exchange and reverses it, which restores push order: per-source FIFO is
// a property of the inbox. A receiver with nothing to drain parks on a
// futex doorbell; the `parked` flag and the push are sequenced (seq_cst on
// both sides), so a sender either sees the flag and rings, or the
// receiver's last check before sleeping sees the node. Sends never block —
// the inbox is unbounded — so the stop flag only makes them throw.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "net/channel.hpp"

namespace fxpar::net {

class LocalTransport final : public Transport {
 public:
  explicit LocalTransport(int num_ranks);
  /// Frees every frame still queued (a run that aborted before draining).
  ~LocalTransport() override;

  LocalTransport(const LocalTransport&) = delete;
  LocalTransport& operator=(const LocalTransport&) = delete;

  const char* name() const noexcept override { return "local"; }
  int num_ranks() const noexcept override { return num_ranks_; }
  std::unique_ptr<Channel> attach(int rank) override;

 private:
  friend class LocalChannel;
  struct Node {
    Node* next = nullptr;
    Frame frame;
  };
  struct alignas(64) Inbox {
    std::atomic<Node*> head{nullptr};
    std::atomic<std::uint32_t> doorbell{0};  ///< futex word, rung for a parked owner
    std::atomic<std::uint32_t> parked{0};    ///< owner is (about to be) asleep
  };
  int num_ranks_;
  std::unique_ptr<Inbox[]> inboxes_;
};

class LocalChannel final : public Channel {
 public:
  LocalChannel(LocalTransport* t, int rank) : t_(t), rank_(rank) {}

  const char* transport() const noexcept override { return "local"; }
  int rank() const noexcept override { return rank_; }

  using Channel::send;
  void send(int dst, Frame frame) override;
  bool drain(std::vector<Frame>& out) override;
  bool wait(double timeout_s) override;

 private:
  LocalTransport* t_;
  int rank_;
};

}  // namespace fxpar::net
