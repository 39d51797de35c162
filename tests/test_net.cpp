// Tests for the fxnet transport seam (src/net/): frame round-trips and
// per-source FIFO order on every transport (in-process inboxes, shm rings,
// loopback TCP), streamed (partial) frames — shm rings smaller than one
// payload, TCP byte-stream reassembly — and stop-flag semantics for
// senders and parked receivers. All endpoints are attached in-process: the
// transports are plain frame movers with no fork dependence, which is
// exactly what makes them testable here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "net/local_channel.hpp"
#include "net/shm_channel.hpp"
#include "net/socket_channel.hpp"

namespace net = fxpar::net;

namespace {

std::vector<std::byte> bytes_pattern(std::size_t n, unsigned seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 131u + seed * 17u) & 0xffu);
  }
  return v;
}

/// Drains `ch` (parking between polls) until `want` frames arrived.
std::vector<net::Frame> drain_until(net::Channel& ch, std::size_t want) {
  std::vector<net::Frame> got;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (got.size() < want) {
    if (!ch.drain(got)) {
      if (std::chrono::steady_clock::now() > deadline) {
        ADD_FAILURE() << "drain_until: timed out with " << got.size() << "/" << want;
        break;
      }
      ch.wait(0.05);
    }
  }
  return got;
}

/// `small_buffers` gives the shm transport a deliberately tiny ring, so
/// large frames must cross it as many partial pieces.
std::unique_ptr<net::Transport> make_transport(const std::string& which, int n,
                                               bool small_buffers = false) {
  if (which == "local") return std::make_unique<net::LocalTransport>(n);
  if (which == "shm") {
    return small_buffers ? std::make_unique<net::ShmTransport>(n, /*ring_bytes=*/4096)
                         : std::make_unique<net::ShmTransport>(n);
  }
  return std::make_unique<net::TcpTransport>(n);
}

class NetTransport : public ::testing::TestWithParam<const char*> {};

}  // namespace

TEST_P(NetTransport, FrameRoundTripPreservesKindTagPayload) {
  auto t = make_transport(GetParam(), 2);
  EXPECT_STREQ(t->name(), GetParam());
  EXPECT_EQ(t->num_ranks(), 2);
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);
  EXPECT_EQ(c0->rank(), 0);
  EXPECT_STREQ(c1->transport(), GetParam());

  const auto payload = bytes_pattern(1000, 7);
  net::Frame f;
  f.tag = 42;
  f.trace_id = 0x1234567890abcdefull;
  f.sent_at = 2.5;
  f.payload = payload;
  c0->send(1, std::move(f));
  c0->send(1, net::FrameKind::Done, 3, payload.data(), 0);  // empty payload

  const auto got = drain_until(*c1, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].kind, net::FrameKind::Data);
  EXPECT_EQ(got[0].src, 0);
  EXPECT_EQ(got[0].tag, 42u);
  // The trace id and send time ride in the frame header, not the payload.
  EXPECT_EQ(got[0].trace_id, 0x1234567890abcdefull);
  EXPECT_EQ(got[0].sent_at, 2.5);
  ASSERT_EQ(got[0].payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(got[0].payload.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(got[1].kind, net::FrameKind::Done);
  EXPECT_EQ(got[1].tag, 3u);
  EXPECT_EQ(got[1].trace_id, 0u);
  EXPECT_TRUE(got[1].payload.empty());
}

TEST_P(NetTransport, PerSourceFifoAcrossInterleavedSenders) {
  auto t = make_transport(GetParam(), 3);
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);
  auto c2 = t->attach(2);

  constexpr int kPerSender = 100;
  auto sender = [&](net::Channel& ch) {
    for (int i = 0; i < kPerSender; ++i) {
      const auto body = bytes_pattern(32 + static_cast<std::size_t>(i), 1);
      ch.send(0, net::FrameKind::Data, static_cast<std::uint64_t>(i), body.data(),
              body.size());
    }
  };
  std::thread s1([&] { sender(*c1); });
  std::thread s2([&] { sender(*c2); });
  const auto got = drain_until(*c0, 2 * kPerSender);
  s1.join();
  s2.join();

  // The interleaving of sources is arbitrary; the order *within* each
  // source must be exactly the send order (the backend's determinism
  // contract hangs on this).
  ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * kPerSender));
  std::uint64_t next_tag[3] = {0, 0, 0};
  for (const net::Frame& f : got) {
    ASSERT_TRUE(f.src == 1 || f.src == 2) << "src " << f.src;
    EXPECT_EQ(f.tag, next_tag[f.src]) << "src " << f.src;
    EXPECT_EQ(f.payload.size(), 32 + f.tag);
    ++next_tag[f.src];
  }
  EXPECT_EQ(next_tag[1], static_cast<std::uint64_t>(kPerSender));
  EXPECT_EQ(next_tag[2], static_cast<std::uint64_t>(kPerSender));
}

TEST_P(NetTransport, LargeFrameStreamsThroughBoundedBuffers) {
  // A payload far larger than any single buffer: the shm transport gets a
  // deliberately tiny ring so the frame must cross as many partial pieces;
  // on TCP the kernel socket buffers force partial writes and reads; the
  // in-process inbox hands the payload over whole. The producer may block
  // until the consumer drains, so it runs on its own thread (in the real
  // backend the ranks are separate threads or processes).
  auto t = make_transport(GetParam(), 2, /*small_buffers=*/true);
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);

  const auto big = bytes_pattern(3u << 20, 9);  // 3 MiB
  std::thread producer([&] {
    net::Frame f;
    f.tag = 77;
    f.trace_id = 5;
    f.sent_at = 0.25;
    f.payload = big;
    c0->send(1, std::move(f));
  });
  const auto got = drain_until(*c1, 1);
  producer.join();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, 0);
  EXPECT_EQ(got[0].tag, 77u);
  EXPECT_EQ(got[0].trace_id, 5u);
  EXPECT_EQ(got[0].sent_at, 0.25);
  ASSERT_EQ(got[0].payload.size(), big.size());
  EXPECT_EQ(std::memcmp(got[0].payload.data(), big.data(), big.size()), 0);
}

TEST_P(NetTransport, SmallFramesAfterLargeOneStayFramed) {
  // Reassembly state must reset cleanly between frames: a streamed frame
  // followed by ordinary ones on the same source.
  auto t = make_transport(GetParam(), 2, /*small_buffers=*/true);
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);
  const auto big = bytes_pattern(256 * 1024, 2);
  const auto small = bytes_pattern(64, 5);
  std::thread producer([&] {
    c0->send(1, net::FrameKind::Data, 1, big.data(), big.size());
    c0->send(1, net::FrameKind::Data, 2, small.data(), small.size());
    c0->send(1, net::FrameKind::Done, 0, small.data(), 0);
  });
  const auto got = drain_until(*c1, 3);
  producer.join();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].payload.size(), big.size());
  EXPECT_EQ(got[1].payload.size(), small.size());
  EXPECT_EQ(std::memcmp(got[1].payload.data(), small.data(), small.size()), 0);
  EXPECT_EQ(got[2].kind, net::FrameKind::Done);
}

TEST_P(NetTransport, StopFlagUnblocksSenderAndWaiter) {
  auto t = make_transport(GetParam(), 2, /*small_buffers=*/true);
  auto c0 = t->attach(0);
  auto c1 = t->attach(1);
  std::atomic<std::uint32_t> stop{0};
  c0->set_stop(&stop);
  c1->set_stop(&stop);

  const auto big = bytes_pattern(8u << 20, 4);
  if (std::string(GetParam()) == "local") {
    // The in-process inbox is unbounded, so a send never blocks; once the
    // stop flag is up it refuses instead of queueing.
    c0->send(1, net::FrameKind::Data, 9, big.data(), big.size());
    stop.store(1, std::memory_order_release);
    EXPECT_THROW(c0->send(1, net::FrameKind::Data, 9, big.data(), big.size()),
                 net::ChannelStopped);
  } else {
    // Nobody drains rank 1: the producer must block (tiny ring / full
    // socket buffer) and then observe the stop flag as ChannelStopped.
    std::atomic<bool> threw{false};
    std::thread producer([&] {
      try {
        for (;;) c0->send(1, net::FrameKind::Data, 9, big.data(), big.size());
      } catch (const net::ChannelStopped&) {
        threw.store(true, std::memory_order_release);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(1, std::memory_order_release);
    producer.join();
    EXPECT_TRUE(threw.load(std::memory_order_acquire));
  }

  // A parked receiver with the stop flag raised returns promptly instead
  // of sitting out its timeout.
  const auto t0 = std::chrono::steady_clock::now();
  (void)c0->wait(30.0);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

INSTANTIATE_TEST_SUITE_P(Transports, NetTransport, ::testing::Values("local", "shm", "tcp"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });
