// Socket transport layer tests (DESIGN.md §11): the frame codec's wire bytes,
// its refusals and its behaviour under arbitrary TCP segmentation, the
// netstats ledger, and live loopback exchange between two SocketTransports —
// including a drop + reconnect, the cluster fingerprint refusal and the
// accepted-socket HELLO rules and timeout.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/netstats.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"
#include "support/rng.hpp"

namespace rex::net {
namespace {

double poll_now();  // fwd: simple deadline helper defined at the bottom

// ===== Frame codec =====

TEST(FrameCodec, RoundTripsEveryFrameType) {
  Bytes stream;
  append_hello(stream, 42, 0xDEADBEEFCAFEF00Dull);
  Envelope env;
  env.src = 3;
  env.dst = 9;
  env.kind = MessageKind::kResync;
  env.payload = Bytes{1, 2, 3, 4, 5};
  append_data(stream, env);
  append_ping(stream, 777);
  append_pong(stream, 778);
  append_done(stream, 42, 11);

  FrameParser parser;
  parser.feed(stream);

  std::optional<Frame> frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kHello);
  const HelloFrame hello = decode_hello(frame->body);
  EXPECT_EQ(hello.version, kWireVersion);
  EXPECT_EQ(hello.node, 42u);
  EXPECT_EQ(hello.fingerprint, 0xDEADBEEFCAFEF00Dull);

  frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kData);
  const DataFrame data = decode_data(frame->body);
  EXPECT_EQ(data.src, 3u);
  EXPECT_EQ(data.dst, 9u);
  EXPECT_EQ(data.kind, MessageKind::kResync);
  ASSERT_EQ(data.payload.size(), 5u);
  EXPECT_EQ(data.payload[4], 5u);

  frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kPing);
  EXPECT_EQ(decode_ping_token(frame->body), 777u);

  frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kPong);

  frame = parser.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kDone);
  const DoneFrame done = decode_done(frame->body);
  EXPECT_EQ(done.node, 42u);
  EXPECT_EQ(done.epochs, 11u);

  EXPECT_FALSE(parser.next().has_value());
  EXPECT_EQ(parser.pending(), 0u);
}

TEST(FrameCodec, GoldenWireImagePerFrameType) {
  // The bytes each encoder puts on the wire, pinned literally: a codec
  // rewrite must reproduce them exactly, and the parser must hand back
  // exactly the body behind the 5-byte [u32 length | u8 type] header.
  Envelope env;
  env.src = 3;
  env.dst = 9;
  env.kind = MessageKind::kResync;
  env.payload = Bytes{1, 2, 3, 4, 5};
  struct Golden {
    const char* name;
    FrameType type;
    std::function<void(Bytes&)> encode;
    Bytes wire;
  };
  const std::vector<Golden> goldens = {
      {"hello", FrameType::kHello,
       [](Bytes& out) { append_hello(out, 42, 0xDEADBEEFCAFEF00Dull); },
       {0x13, 0x00, 0x00, 0x00, 0x01,               // length 19, HELLO
        0x52, 0x45, 0x58, 0x4E,                     // magic "REXN"
        0x01, 0x00,                                 // wire version 1
        0x2A, 0x00, 0x00, 0x00,                     // node 42
        0x0D, 0xF0, 0xFE, 0xCA, 0xEF, 0xBE, 0xAD, 0xDE}},  // fingerprint
      {"data", FrameType::kData,
       [&env](Bytes& out) { append_data(out, env); },
       {0x0F, 0x00, 0x00, 0x00, 0x02,  // length 15, DATA
        0x03, 0x00, 0x00, 0x00,        // src 3
        0x09, 0x00, 0x00, 0x00,        // dst 9
        0x02,                          // kind: resync
        0x01, 0x02, 0x03, 0x04, 0x05}},
      {"ping", FrameType::kPing, [](Bytes& out) { append_ping(out, 777); },
       {0x09, 0x00, 0x00, 0x00, 0x03,  // length 9, PING
        0x09, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
      {"pong", FrameType::kPong, [](Bytes& out) { append_pong(out, 778); },
       {0x09, 0x00, 0x00, 0x00, 0x04,  // length 9, PONG
        0x0A, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},
      {"done", FrameType::kDone, [](Bytes& out) { append_done(out, 42, 11); },
       {0x0D, 0x00, 0x00, 0x00, 0x05,  // length 13, DONE
        0x2A, 0x00, 0x00, 0x00,        // node 42
        0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}},  // 11 epochs
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.name);
    Bytes wire = {0xEE};  // encoders append, never clear
    golden.encode(wire);
    EXPECT_EQ(Bytes(wire.begin() + 1, wire.end()), golden.wire);

    FrameParser parser;
    parser.feed(golden.wire);
    const std::optional<Frame> frame = parser.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, golden.type);
    EXPECT_EQ(Bytes(frame->body.begin(), frame->body.end()),
              Bytes(golden.wire.begin() + 5, golden.wire.end()));
    EXPECT_EQ(parser.pending(), 0u);
  }
}

TEST(FrameCodec, ReassemblesAcrossArbitraryChunking) {
  // The same byte stream must decode identically no matter how TCP
  // segments it — feed it in seeded random chunks, many rounds.
  Bytes stream;
  std::vector<std::size_t> payload_sizes = {0, 1, 13, 1000, 65537};
  for (std::size_t size : payload_sizes) {
    Envelope env;
    env.src = 1;
    env.dst = 2;
    env.kind = MessageKind::kProtocol;
    Bytes payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 31 + size);
    }
    env.payload = std::move(payload);
    append_data(stream, env);
    append_ping(stream, size);
  }

  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    FrameParser parser;
    std::size_t offset = 0;
    std::size_t data_frames = 0;
    std::size_t pings = 0;
    while (offset < stream.size() || parser.pending() > 0) {
      if (offset < stream.size()) {
        const std::size_t chunk = static_cast<std::size_t>(
            rng.uniform(static_cast<std::uint64_t>(stream.size() - offset)) +
            1);
        parser.feed(BytesView(stream).subspan(offset, chunk));
        offset += chunk;
      }
      while (std::optional<Frame> frame = parser.next()) {
        if (frame->type == FrameType::kData) {
          const DataFrame data = decode_data(frame->body);
          const std::size_t size = payload_sizes[data_frames];
          ASSERT_EQ(data.payload.size(), size);
          for (std::size_t i = 0; i < size; ++i) {
            ASSERT_EQ(data.payload[i],
                      static_cast<std::uint8_t>(i * 31 + size));
          }
          ++data_frames;
        } else {
          ASSERT_EQ(frame->type, FrameType::kPing);
          ASSERT_EQ(decode_ping_token(frame->body), payload_sizes[pings]);
          ++pings;
        }
      }
      if (offset >= stream.size()) break;
    }
    EXPECT_EQ(data_frames, payload_sizes.size());
    EXPECT_EQ(pings, payload_sizes.size());
  }
}

TEST(FrameCodec, RejectsMalformedStreams) {
  {
    FrameParser parser;  // oversized length prefix
    Bytes bad = {0xFF, 0xFF, 0xFF, 0xFF, 0x02};
    parser.feed(bad);
    EXPECT_THROW((void)parser.next(), Error);
  }
  {
    FrameParser parser;  // zero length (no type byte)
    Bytes bad = {0x00, 0x00, 0x00, 0x00};
    parser.feed(bad);
    EXPECT_THROW((void)parser.next(), Error);
  }
  {
    FrameParser parser;  // unknown frame type
    Bytes bad = {0x01, 0x00, 0x00, 0x00, 0x77};
    parser.feed(bad);
    EXPECT_THROW((void)parser.next(), Error);
  }
  // Truncated bodies fail the typed decoders, not the framer.
  const Bytes short_body = {0x52, 0x45};
  EXPECT_THROW((void)decode_hello(short_body), Error);
  EXPECT_THROW((void)decode_data(short_body), Error);
}

TEST(FrameCodec, EveryCutOrFlippedBodyThrowsError) {
  // Every proper prefix of every encoded body, a flipped HELLO magic or
  // message kind byte, and one trailing byte past a fixed-size body: each
  // decoder must refuse with rex::Error and nothing else (the transport
  // drops the connection on it). The data frame carries no payload, so
  // all of its prefixes cut into the fixed header.
  const auto body_of = [](const std::function<void(Bytes&)>& encode) {
    Bytes wire;
    encode(wire);
    return Bytes(wire.begin() + 5, wire.end());
  };
  Envelope env;
  env.src = 3;
  env.dst = 9;
  struct Decoder {
    const char* name;
    Bytes body;
    std::function<void(BytesView)> decode;
  };
  const std::vector<Decoder> decoders = {
      {"hello", body_of([](Bytes& out) { append_hello(out, 42, 7); }),
       [](BytesView b) { (void)decode_hello(b); }},
      {"data", body_of([&env](Bytes& out) { append_data(out, env); }),
       [](BytesView b) { (void)decode_data(b); }},
      {"ping", body_of([](Bytes& out) { append_ping(out, 777); }),
       [](BytesView b) { (void)decode_ping_token(b); }},
      {"pong", body_of([](Bytes& out) { append_pong(out, 778); }),
       [](BytesView b) { (void)decode_ping_token(b); }},
      {"done", body_of([](Bytes& out) { append_done(out, 42, 11); }),
       [](BytesView b) { (void)decode_done(b); }},
  };
  for (const Decoder& d : decoders) {
    SCOPED_TRACE(d.name);
    EXPECT_NO_THROW(d.decode(d.body));
    for (std::size_t n = 0; n < d.body.size(); ++n) {
      EXPECT_THROW(d.decode(BytesView(d.body).first(n)), Error) << n;
    }
    if (std::string(d.name) != "data") {
      Bytes longer = d.body;
      longer.push_back(0);
      EXPECT_THROW(d.decode(longer), Error);
    }
  }
  const Bytes& hello = decoders[0].body;
  for (std::size_t i = 0; i < 4; ++i) {  // the magic's four bytes
    Bytes flipped = hello;
    flipped[i] ^= 0xFF;
    EXPECT_THROW((void)decode_hello(flipped), Error) << i;
  }
  Bytes data = decoders[1].body;
  for (unsigned kind = 3; kind < 256; ++kind) {  // past MessageKind::kResync
    data[8] = static_cast<std::uint8_t>(kind);
    EXPECT_THROW((void)decode_data(data), Error) << kind;
  }
}

// ===== Netstats ledger =====

TEST(NetStats, RttEwmaAndReconnectCounting) {
  PeerStats stats;
  stats.record_rtt(0.100);
  EXPECT_DOUBLE_EQ(stats.rtt_s, 0.100);
  EXPECT_DOUBLE_EQ(stats.rtt_min_s, 0.100);
  stats.record_rtt(0.300);  // EWMA alpha 1/8: 0.1 + 0.2/8
  EXPECT_NEAR(stats.rtt_s, 0.125, 1e-12);
  EXPECT_DOUBLE_EQ(stats.rtt_last_s, 0.300);
  EXPECT_DOUBLE_EQ(stats.rtt_max_s, 0.300);
  EXPECT_EQ(stats.rtt_samples, 2u);

  stats.record_connect();
  stats.record_connect();
  stats.record_connect();
  EXPECT_EQ(stats.connects, 3u);
  EXPECT_EQ(stats.reconnects, 2u);  // first connect is not a reconnect
}

TEST(NetStats, CsvWriterEmitsOneRowPerPeer) {
  NetStats stats;
  stats.peer(3).bytes_tx = 100;
  stats.peer(1).bytes_rx = 50;
  const std::string path =
      ::testing::TempDir() + "netstats_test_" +
      std::to_string(::getpid()) + ".csv";
  write_netstats_csv(path, 7, stats);
  std::ifstream file(path);
  std::string line;
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_EQ(line.rfind("self,peer,bytes_tx", 0), 0u);
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_EQ(line.rfind("7,1,0,50", 0), 0u);  // sorted by peer id
  ASSERT_TRUE(std::getline(file, line));
  EXPECT_EQ(line.rfind("7,3,100,0", 0), 0u);
  EXPECT_FALSE(std::getline(file, line));
  std::remove(path.c_str());
}

// ===== Live loopback exchange =====

struct LoopbackPair {
  Transport transport_a{2};
  Transport transport_b{2};
  std::unique_ptr<SocketTransport> a;
  std::unique_ptr<SocketTransport> b;
  std::vector<Envelope> at_a;
  std::vector<Envelope> at_b;

  // Node 0 dials, node 1 accepts (the deployment policy).
  explicit LoopbackPair(std::uint64_t fingerprint_a = 5,
                        std::uint64_t fingerprint_b = 5) {
    SocketTransport::Options options_b;
    options_b.self = 1;
    options_b.listen_host = "127.0.0.1";
    options_b.fingerprint = fingerprint_b;
    b = std::make_unique<SocketTransport>(options_b, transport_b);
    b->set_deliver([this](Envelope env) { at_b.push_back(std::move(env)); });
    b->add_peer(0, SocketEndpoint{"127.0.0.1", 0}, /*initiator=*/false);

    SocketTransport::Options options_a;
    options_a.self = 0;
    options_a.listen_host = "127.0.0.1";
    options_a.fingerprint = fingerprint_a;
    a = std::make_unique<SocketTransport>(options_a, transport_a);
    a->set_deliver([this](Envelope env) { at_a.push_back(std::move(env)); });
    a->add_peer(1, SocketEndpoint{"127.0.0.1", b->listen_port()},
                /*initiator=*/true);
  }

  void pump_until(const std::function<bool()>& predicate,
                  double timeout_s = 10.0) {
    const double deadline = poll_now() + timeout_s;
    while (!predicate()) {
      a->poll(10);
      b->poll(10);
      ASSERT_LT(poll_now(), deadline) << "loopback pump timed out";
    }
  }
};

Envelope make_envelope(NodeId src, NodeId dst, std::uint8_t tag,
                       std::size_t size) {
  Envelope env;
  env.src = src;
  env.dst = dst;
  env.kind = MessageKind::kProtocol;
  Bytes payload(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<std::uint8_t>(tag + i);
  }
  env.payload = std::move(payload);
  return env;
}

TEST(SocketTransport, DeliversEnvelopesBothWaysWithAccounting) {
  LoopbackPair pair;
  pair.pump_until([&] {
    return pair.a->all_connected() && pair.b->all_connected();
  });

  pair.transport_a.send(make_envelope(0, 1, 10, 2000));
  pair.transport_a.send(make_envelope(0, 1, 20, 0));  // empty payload
  pair.a->pump_outbox();
  pair.transport_b.send(make_envelope(1, 0, 30, 64));
  pair.b->pump_outbox();

  pair.pump_until(
      [&] { return pair.at_b.size() == 2 && pair.at_a.size() == 1; });

  EXPECT_EQ(pair.at_b[0].src, 0u);
  EXPECT_EQ(pair.at_b[0].payload.size(), 2000u);
  EXPECT_EQ(pair.at_b[0].payload[5], 15u);
  EXPECT_EQ(pair.at_b[1].payload.size(), 0u);
  EXPECT_EQ(pair.at_a[0].payload.size(), 64u);
  EXPECT_EQ(pair.at_a[0].payload[0], 30u);

  // Envelope-level accounting matches the simulator's rules (wire_size on
  // both ends).
  EXPECT_EQ(pair.transport_a.stats(0).messages_sent, 2u);
  EXPECT_EQ(pair.transport_b.stats(1).messages_received, 2u);
  EXPECT_EQ(pair.transport_a.stats(0).bytes_sent,
            2000 + 2 * Envelope::kHeaderSize);
  EXPECT_EQ(pair.transport_b.stats(1).bytes_received,
            pair.transport_a.stats(0).bytes_sent);

  // Socket-level ledger saw the HELLO plus the data frames, both ways.
  const PeerStats& a_to_b = pair.a->netstats().peers().at(1);
  EXPECT_EQ(a_to_b.data_tx, 2u);
  EXPECT_EQ(a_to_b.data_rx, 1u);
  EXPECT_EQ(a_to_b.connects, 1u);
  EXPECT_EQ(a_to_b.reconnects, 0u);
  EXPECT_GT(a_to_b.bytes_tx, 2000u);
}

TEST(SocketTransport, ReconnectsAfterPeerRestartAndFlushesQueued) {
  LoopbackPair pair;
  pair.pump_until([&] {
    return pair.a->all_connected() && pair.b->all_connected();
  });
  const std::uint16_t port = pair.b->listen_port();

  pair.transport_a.send(make_envelope(0, 1, 1, 100));
  pair.a->pump_outbox();
  pair.pump_until([&] { return pair.at_b.size() == 1; });

  // Peer restart: tear down B entirely and wait until A notices the drop.
  // (A frame that fully entered the kernel before the drop may be lost with
  // the connection — the header documents that; what must survive is
  // everything queued while the link is known-down.)
  pair.b.reset();
  {
    const double deadline = poll_now() + 10.0;
    while (pair.a->all_connected()) {
      pair.a->poll(10);
      ASSERT_LT(poll_now(), deadline) << "A never noticed the drop";
    }
  }
  pair.transport_a.send(make_envelope(0, 1, 2, 100));
  pair.a->pump_outbox();  // stays queued: the peer is down

  SocketTransport::Options options_b;
  options_b.self = 1;
  options_b.listen_host = "127.0.0.1";
  options_b.listen_port = port;  // same address, fresh process
  options_b.fingerprint = 5;
  pair.b = std::make_unique<SocketTransport>(options_b, pair.transport_b);
  pair.b->set_deliver(
      [&pair](Envelope env) { pair.at_b.push_back(std::move(env)); });
  pair.b->add_peer(0, SocketEndpoint{"127.0.0.1", 0}, /*initiator=*/false);

  // A's backoff dial must re-establish the link and flush the queued frame.
  // (Also wait for A to validate B's HELLO back — the flush races ahead of
  // it, A queues tx on TCP-connect completion.)
  pair.pump_until(
      [&] { return pair.at_b.size() == 2 && pair.a->all_connected(); });
  EXPECT_EQ(pair.at_b[1].payload[0], 2u);
  EXPECT_GE(pair.a->netstats().peers().at(1).reconnects, 1u);

  // The revived link still carries traffic both ways.
  pair.transport_b.send(make_envelope(1, 0, 3, 8));
  pair.b->pump_outbox();
  pair.pump_until([&] { return pair.at_a.size() == 1; });
}

TEST(SocketTransport, RefusesMismatchedClusterFingerprint) {
  LoopbackPair pair(/*fingerprint_a=*/5, /*fingerprint_b=*/6);
  const double deadline = poll_now() + 10.0;
  bool refused = false;
  while (!refused && poll_now() < deadline) {
    try {
      pair.a->poll(10);
      pair.b->poll(10);
    } catch (const Error& e) {
      refused = true;
      EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
    }
  }
  EXPECT_TRUE(refused) << "mismatched configs must refuse to talk";
}

TEST(SocketTransport, DoneBarrierAndRttSamples) {
  LoopbackPair pair;
  pair.pump_until([&] {
    return pair.a->all_connected() && pair.b->all_connected();
  });
  EXPECT_EQ(pair.a->peers_done(), 0u);
  pair.a->send_done(7);
  pair.pump_until([&] { return pair.b->peer_done(0); });
  EXPECT_EQ(pair.b->peers_done(), 1u);

  // Ping cadence (0.5 s default) produces RTT samples on a held-open link.
  pair.pump_until([&] {
    const auto& peers = pair.a->netstats().peers();
    const auto it = peers.find(1);
    return it != peers.end() && it->second.rtt_samples > 0;
  });
  const PeerStats& stats = pair.a->netstats().peers().at(1);
  EXPECT_GT(stats.rtt_last_s, 0.0);
  EXPECT_LT(stats.rtt_last_s, 1.0);  // loopback
  EXPECT_TRUE(pair.a->tx_idle());
}

/// A bare TCP client standing in for an impostor or a misbehaving peer:
/// connects to `port`, writes `opener` and returns the socket.
int dial_raw(std::uint16_t port, const Bytes& opener) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_EQ(::send(fd, opener.data(), opener.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(opener.size()));
  return fd;
}

TEST(SocketTransport, AcceptedSocketOpensWithAValidHelloOrCloses) {
  LoopbackPair pair;  // 0 dials 1; both listen
  pair.pump_until([&] {
    return pair.a->all_connected() && pair.b->all_connected();
  });
  const auto frame = [](auto append) {
    Bytes wire;
    append(wire);
    return wire;
  };
  Bytes bad_magic = frame([](Bytes& w) { append_hello(w, 0, 5); });
  bad_magic[5] ^= 0xFF;
  // Each opener is refused: the listener closes the socket, and no
  // ledger gains a connect or a row.
  const std::vector<std::pair<std::uint16_t, Bytes>> refused = {
      {pair.b->listen_port(), frame([](Bytes& w) { append_ping(w, 1); })},
      {pair.b->listen_port(), bad_magic},
      {pair.b->listen_port(),  // not a registered peer
       frame([](Bytes& w) { append_hello(w, 7, 5); })},
      {pair.a->listen_port(),  // a peer node 0 dials itself
       frame([](Bytes& w) { append_hello(w, 1, 5); })},
  };
  for (const auto& [port, opener] : refused) {
    const int fd = dial_raw(port, opener);
    pair.pump_until([&] {
      std::uint8_t byte = 0;
      const ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
      return n == 0 || (n < 0 && errno == ECONNRESET);  // closed
    });
    ::close(fd);
  }
  for (const SocketTransport* side : {pair.a.get(), pair.b.get()}) {
    ASSERT_EQ(side->netstats().peers().size(), 1u);
    EXPECT_EQ(side->netstats().peers().begin()->second.connects, 1u);
  }

  // A valid HELLO as node 0 supersedes the live link: node 1 answers with
  // its own HELLO, first, on the new socket.
  const int fd =
      dial_raw(pair.b->listen_port(),
               frame([](Bytes& w) { append_hello(w, 0, 5); }));
  pair.pump_until(
      [&] { return pair.b->netstats().peers().at(0).reconnects >= 1; });
  Bytes reply(23);
  ASSERT_EQ(::recv(fd, reply.data(), reply.size(), MSG_WAITALL), 23);
  EXPECT_EQ(reply, frame([](Bytes& w) { append_hello(w, 1, 5); }));
  ::close(fd);
}

TEST(SocketTransport, AcceptedSocketWithoutAHelloClosesAfterTheBound) {
  // Node 1 listens for node 0. Two raw clients send the first 7 bytes of
  // node 0's HELLO; one stalls there, the other sends the rest 1 s in,
  // inside the 2-s bound (four ping periods).
  Transport transport{2};
  SocketTransport::Options options;
  options.self = 1;
  options.listen_host = "127.0.0.1";
  options.fingerprint = 5;
  SocketTransport listener(options, transport);
  listener.set_deliver([](Envelope) {});
  listener.add_peer(0, SocketEndpoint{"127.0.0.1", 0}, /*initiator=*/false);

  Bytes hello;
  append_hello(hello, 0, 5);
  const Bytes head(hello.begin(), hello.begin() + 7);
  const double start = poll_now();
  const int stalled = dial_raw(listener.listen_port(), head);
  const int late = dial_raw(listener.listen_port(), head);
  const auto closed = [](int fd) {
    std::uint8_t byte = 0;
    const ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
    return n == 0 || (n < 0 && errno == ECONNRESET);
  };
  while (poll_now() < start + 1.0) listener.poll(10);
  EXPECT_FALSE(closed(stalled));
  ASSERT_EQ(::send(late, hello.data() + head.size(), hello.size() - head.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size() - head.size()));

  while (!closed(stalled)) {
    listener.poll(10);
    ASSERT_LT(poll_now(), start + 10.0) << "the stalled socket stayed open";
  }
  EXPECT_GE(poll_now() - start, 2.0);
  ::close(stalled);

  // The late HELLO identified its socket, which outlives the bound: node 1
  // answered with its own HELLO, and the link counts one connect.
  EXPECT_TRUE(listener.all_connected());
  EXPECT_EQ(listener.netstats().peers().at(0).connects, 1u);
  Bytes reply(hello.size());
  ASSERT_EQ(::recv(late, reply.data(), reply.size(), MSG_WAITALL),
            static_cast<ssize_t>(reply.size()));
  Bytes expected;
  append_hello(expected, 1, 5);
  EXPECT_EQ(reply, expected);
  EXPECT_FALSE(closed(late));
  ::close(late);
}

double poll_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace
}  // namespace rex::net
