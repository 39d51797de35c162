#include "net/local_channel.hpp"

#include <string>
#include <utility>

#include "net/futex.hpp"

namespace fxpar::net {

// ---------------------------------------------------------------------------
// LocalTransport

LocalTransport::LocalTransport(int num_ranks) : num_ranks_(num_ranks) {
  if (num_ranks_ <= 0) {
    throw std::invalid_argument("LocalTransport: num_ranks must be positive");
  }
  inboxes_ = std::make_unique<Inbox[]>(static_cast<std::size_t>(num_ranks_));
}

LocalTransport::~LocalTransport() {
  for (int r = 0; r < num_ranks_; ++r) {
    for (Node* n = inboxes_[static_cast<std::size_t>(r)].head.exchange(nullptr); n;) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }
}

std::unique_ptr<Channel> LocalTransport::attach(int rank) {
  if (rank < 0 || rank >= num_ranks_) {
    throw std::out_of_range("LocalTransport::attach: bad rank " + std::to_string(rank));
  }
  return std::make_unique<LocalChannel>(this, rank);
}

// ---------------------------------------------------------------------------
// LocalChannel

void LocalChannel::send(int dst, Frame frame) {
  if (dst < 0 || dst >= t_->num_ranks_ || dst == rank_) {
    throw std::out_of_range("LocalChannel::send: bad destination " + std::to_string(dst));
  }
  if (stopped()) throw ChannelStopped();
  auto* node = new LocalTransport::Node{nullptr, std::move(frame)};
  node->frame.src = rank_;
  LocalTransport::Inbox& in = t_->inboxes_[static_cast<std::size_t>(dst)];
  LocalTransport::Node* head = in.head.load(std::memory_order_relaxed);
  do {
    node->next = head;
  } while (!in.head.compare_exchange_weak(head, node, std::memory_order_seq_cst,
                                          std::memory_order_relaxed));
  // Dekker handshake with wait(): the push is ordered before this load, and
  // the owner raises `parked` before its last empty check.
  if (in.parked.load(std::memory_order_seq_cst) != 0) {
    in.doorbell.fetch_add(1, std::memory_order_seq_cst);
    detail::futex_wake_all(&in.doorbell);
  }
}

bool LocalChannel::drain(std::vector<Frame>& out) {
  LocalTransport::Inbox& in = t_->inboxes_[static_cast<std::size_t>(rank_)];
  LocalTransport::Node* n = in.head.exchange(nullptr, std::memory_order_seq_cst);
  if (n == nullptr) return false;
  // The stack yields newest-first; reverse to restore push order.
  LocalTransport::Node* in_order = nullptr;
  while (n) {
    LocalTransport::Node* next = n->next;
    n->next = in_order;
    in_order = n;
    n = next;
  }
  while (in_order) {
    LocalTransport::Node* next = in_order->next;
    out.push_back(std::move(in_order->frame));
    delete in_order;
    in_order = next;
  }
  return true;
}

bool LocalChannel::wait(double timeout_s) {
  LocalTransport::Inbox& in = t_->inboxes_[static_cast<std::size_t>(rank_)];
  const std::uint32_t seen = in.doorbell.load(std::memory_order_seq_cst);
  in.parked.store(1, std::memory_order_seq_cst);
  if (in.head.load(std::memory_order_seq_cst) == nullptr && !stopped()) {
    detail::futex_wait(&in.doorbell, seen, timeout_s);
  }
  in.parked.store(0, std::memory_order_relaxed);
  return in.head.load(std::memory_order_acquire) != nullptr;
}

}  // namespace fxpar::net
