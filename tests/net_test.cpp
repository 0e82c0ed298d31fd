// Transport tests: round-barrier delivery, ordering, traffic accounting.
#include <gtest/gtest.h>

#include "net/transport.hpp"
#include "support/error.hpp"

namespace rex::net {
namespace {

Envelope make(NodeId src, NodeId dst, std::size_t payload_size,
              MessageKind kind = MessageKind::kProtocol) {
  Envelope env;
  env.src = src;
  env.dst = dst;
  env.kind = kind;
  env.payload = Bytes(payload_size, 0x11);
  return env;
}

TEST(Envelope, WireSizeIncludesHeader) {
  const Envelope env = make(0, 1, 100);
  EXPECT_EQ(env.wire_size(), 100 + Envelope::kHeaderSize);
}

TEST(Transport, NoDeliveryBeforeFlush) {
  Transport t(3);
  t.send(make(0, 1, 10));
  EXPECT_EQ(t.inbox_size(1), 0u);
  EXPECT_TRUE(t.drain_inbox(1).empty());
  t.flush_round();
  EXPECT_EQ(t.inbox_size(1), 1u);
  const auto delivered = t.drain_inbox(1);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].src, 0u);
  EXPECT_EQ(t.inbox_size(1), 0u);
}

TEST(Transport, DeterministicDeliveryOrder) {
  Transport t(4);
  // Sent in scrambled sender order; delivery is (sender id, send order).
  t.send(make(2, 0, 1));
  t.send(make(1, 0, 2));
  t.send(make(1, 0, 3));
  t.send(make(3, 0, 4));
  t.flush_round();
  const auto delivered = t.drain_inbox(0);
  ASSERT_EQ(delivered.size(), 4u);
  EXPECT_EQ(delivered[0].src, 1u);
  EXPECT_EQ(delivered[0].payload.size(), 2u);
  EXPECT_EQ(delivered[1].src, 1u);
  EXPECT_EQ(delivered[1].payload.size(), 3u);
  EXPECT_EQ(delivered[2].src, 2u);
  EXPECT_EQ(delivered[3].src, 3u);
}

TEST(Transport, RoundIsolation) {
  Transport t(2);
  t.send(make(0, 1, 1));
  t.flush_round();
  t.send(make(0, 1, 2));  // next round's message
  const auto round1 = t.drain_inbox(1);
  ASSERT_EQ(round1.size(), 1u);
  EXPECT_EQ(round1[0].payload.size(), 1u);
  t.flush_round();
  const auto round2 = t.drain_inbox(1);
  ASSERT_EQ(round2.size(), 1u);
  EXPECT_EQ(round2[0].payload.size(), 2u);
}

TEST(Transport, TrafficAccounting) {
  Transport t(3);
  t.send(make(0, 1, 100));
  t.send(make(0, 2, 50));
  t.send(make(1, 0, 25));
  t.flush_round();
  EXPECT_EQ(t.stats(0).messages_sent, 2u);
  EXPECT_EQ(t.stats(0).bytes_sent,
            100 + 50 + 2 * Envelope::kHeaderSize);
  EXPECT_EQ(t.stats(0).messages_received, 1u);
  EXPECT_EQ(t.stats(0).bytes_received, 25 + Envelope::kHeaderSize);
  EXPECT_EQ(t.stats(1).bytes_received, 100 + Envelope::kHeaderSize);
  EXPECT_EQ(t.stats(0).bytes_total(),
            t.stats(0).bytes_sent + t.stats(0).bytes_received);
  EXPECT_EQ(t.total_bytes_sent(), 175 + 3 * Envelope::kHeaderSize);
}

TEST(Transport, Validation) {
  Transport t(2);
  EXPECT_THROW(t.send(make(0, 5, 1)), Error);
  EXPECT_THROW(t.send(make(5, 0, 1)), Error);
  EXPECT_THROW(t.send(make(1, 1, 1)), Error);
  EXPECT_THROW((void)t.drain_inbox(7), Error);
  EXPECT_THROW((void)t.stats(7), Error);
}

TEST(Transport, TakeOutboxLeavesAccountingToTheReleasePoint) {
  // Event-path contract: take_outbox only moves envelopes; the engine
  // accounts each one via record_send() when (if) it actually hits the
  // wire — an envelope elided because its destination is offline never
  // consumed uplink (DESIGN.md §6).
  Transport t(3);
  t.send(make(0, 1, 10));
  t.send(make(0, 2, 20));
  EXPECT_EQ(t.outbox_size(0), 2u);
  std::vector<Envelope> taken;
  t.take_outbox(0, taken);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].dst, 1u);
  EXPECT_EQ(taken[1].dst, 2u);
  EXPECT_EQ(t.outbox_size(0), 0u);
  EXPECT_EQ(t.stats(0).messages_sent, 0u);  // nothing released yet
  t.record_send(taken[0]);
  EXPECT_EQ(t.stats(0).messages_sent, 1u);
  EXPECT_EQ(t.stats(0).bytes_sent, 10 + Envelope::kHeaderSize);
  // Nothing was delivered yet: receive side untouched, inboxes empty.
  EXPECT_EQ(t.stats(1).messages_received, 0u);
  EXPECT_EQ(t.inbox_size(1), 0u);
  t.take_outbox(0, taken);
  EXPECT_EQ(taken.size(), 2u);  // appended nothing
  // A later flush has nothing left to route.
  t.flush_round();
  EXPECT_EQ(t.inbox_size(1), 0u);
}

TEST(Transport, RecordDeliveryAccountsReceiveSide) {
  Transport t(2);
  const Envelope env = make(0, 1, 40);
  t.record_delivery(env);
  EXPECT_EQ(t.stats(1).messages_received, 1u);
  EXPECT_EQ(t.stats(1).bytes_received, 40 + Envelope::kHeaderSize);
  EXPECT_EQ(t.stats(0).messages_sent, 0u);  // send side is record_send's job
}

TEST(Transport, DrainMovesPayloadsOutOfTheInbox) {
  Transport t(2);
  Envelope env = make(0, 1, 1);
  env.payload = Bytes(1000, 0x5A);
  const std::uint8_t* data_before = env.payload.data();
  t.send(std::move(env));
  t.flush_round();
  const auto delivered = t.drain_inbox(1);
  ASSERT_EQ(delivered.size(), 1u);
  // The payload buffer traveled by move through outbox, shard and drain.
  EXPECT_EQ(delivered[0].payload.data(), data_before);
  EXPECT_EQ(t.inbox_size(1), 0u);
}

TEST(Transport, InboxPreservesOrderAcrossManySenders) {
  // 25 senders enqueue in descending id order, two envelopes each; the
  // inbox must hand them back in (sender id, send order) sequence.
  constexpr NodeId kSenders = 25;
  Transport t(kSenders + 1);
  for (NodeId src = kSenders; src >= 1; --src) {
    t.send(make(src, 0, src));
    t.send(make(src, 0, src + 100));
  }
  t.flush_round();
  const auto delivered = t.drain_inbox(0);
  ASSERT_EQ(delivered.size(), 2u * kSenders);
  for (std::size_t i = 0; i < delivered.size(); i += 2) {
    const NodeId expected_src = static_cast<NodeId>(i / 2 + 1);
    EXPECT_EQ(delivered[i].src, expected_src);
    EXPECT_EQ(delivered[i].payload.size(), expected_src);
    EXPECT_EQ(delivered[i + 1].src, expected_src);
    EXPECT_EQ(delivered[i + 1].payload.size(), expected_src + 100u);
  }
}

TEST(Transport, TwoFlushesBeforeOneDrainKeepFlushSenderSendOrder) {
  // A destination that skips a drain keeps what it holds: the first
  // flush's envelopes come out first, each flush's in (sender id, send
  // order).
  Transport t(4);
  t.send(make(3, 0, 1));
  t.send(make(1, 0, 2));
  t.send(make(1, 0, 3));
  t.flush_round();
  t.send(make(2, 0, 4));
  t.send(make(1, 0, 5));
  t.send(make(2, 0, 6));
  t.flush_round();
  EXPECT_EQ(t.inbox_size(0), 6u);
  std::vector<Envelope> delivered;
  t.drain_inbox(0, delivered);
  ASSERT_EQ(delivered.size(), 6u);
  const NodeId expected_src[] = {1, 1, 3, 1, 2, 2};
  const std::size_t expected_size[] = {2, 3, 1, 5, 4, 6};
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].src, expected_src[i]) << i;
    EXPECT_EQ(delivered[i].payload.size(), expected_size[i]) << i;
  }
  EXPECT_EQ(t.inbox_size(0), 0u);
}

TEST(Transport, ManyMessagesFifoPerSender) {
  Transport t(2);
  for (int i = 0; i < 100; ++i) t.send(make(0, 1, i + 1));
  t.flush_round();
  const auto delivered = t.drain_inbox(1);
  ASSERT_EQ(delivered.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(delivered[static_cast<std::size_t>(i)].payload.size(),
              static_cast<std::size_t>(i + 1));
  }
}

}  // namespace
}  // namespace rex::net
