// Socket transport backend: the same envelopes over real TCP links
// (DESIGN.md §11).
//
// The simulator moves envelopes through in-memory mailboxes; a deployment
// moves the *same* envelopes as length-prefixed frames (net/frame.hpp) over
// one TCP connection per neighbor edge. SocketTransport owns that boundary
// for one process: it wraps the node's ordinary net::Transport (which keeps
// doing what it does in-process — outbox queueing, payload pooling, traffic
// accounting) and pumps it over sockets:
//
//   outbound   pump_outbox() takes everything the host queued via
//              Transport::send, accounts it (record_send) and encodes it
//              into the destination peer's tx queue; bytes drain to the
//              socket as the kernel accepts them (EPOLLOUT on backpressure).
//
//   inbound    poll() reads ready sockets, reassembles frames across
//              arbitrary TCP segmentation, rebuilds each data frame into an
//              Envelope (payload copied into the transport's BufferPool),
//              accounts it (record_delivery) and hands it to the
//              deliver callback — the exact signature UntrustedHost::
//              on_deliver expects, so TrustedNode code is untouched.
//
// Connection policy: for every edge, the lower node id initiates and the
// higher id accepts — no simultaneous-connect races. Both sides send a
// HELLO (node id + cluster-config fingerprint) as the first frame; a peer
// counts as connected only once its HELLO validated, and an accepted
// socket whose HELLO has not validated within four ping periods (2 s) is
// closed, so a client that never identifies cannot hold a descriptor.
// Dialed and accepted sockets are read and identified by the same code.
// Initiators reconnect with exponential backoff after drops; queued tx
// frames survive a drop and are re-flushed on the next connection behind
// its HELLO, rewound to the last whole-frame boundary so the new byte
// stream never starts mid-frame.
// Frames that fully entered the kernel before a drop may still be lost with
// the connection — exactly-once delivery across restarts is the job of the
// protocol-level rejoin/resync (DESIGN.md §6), not the framing layer.
//
// Single-threaded by design: everything happens inside poll() /
// pump_outbox() on the caller's thread, matching the one-process-per-node
// deployment model (node/daemon.hpp drives the loop).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "net/frame.hpp"
#include "net/netstats.hpp"
#include "net/transport.hpp"

namespace rex::net {

/// Where a peer listens. `host` is a numeric IP or resolvable name
/// ("127.0.0.1" for the loopback clusters in examples/clusters/).
struct SocketEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

class SocketTransport {
 public:
  struct Options {
    NodeId self = 0;
    /// Port to listen on; 0 binds an ephemeral port (tests), read it back
    /// via listen_port().
    std::uint16_t listen_port = 0;
    std::string listen_host = "0.0.0.0";
    /// Cluster-config fingerprint carried in HELLO. Two processes launched
    /// from different configs refuse to talk instead of desynchronizing.
    std::uint64_t fingerprint = 0;
  };

  /// Inbound envelope sink (same shape as UntrustedHost::on_deliver).
  using DeliverFn = std::function<void(Envelope)>;

  /// `local` is the node's in-process transport: the host keeps sending
  /// through it, SocketTransport drains and accounts it. Throws on bind
  /// failure. Must outlive nothing — closes every socket on destruction.
  SocketTransport(Options options, Transport& local);
  ~SocketTransport();

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Port actually bound (== Options::listen_port unless that was 0).
  [[nodiscard]] std::uint16_t listen_port() const { return listen_port_; }

  /// Registers a neighbor edge. `initiator` says whether this side dials
  /// (deployment policy: lower id initiates — node/daemon.cpp applies it).
  /// The first dial happens inside the next poll().
  void add_peer(NodeId id, SocketEndpoint endpoint, bool initiator);

  /// Installs the inbound envelope sink. Must be set before poll().
  void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  /// Drains the local transport's outbox for `self`, accounts each envelope
  /// (Transport::record_send) and queues it on the destination peer's tx
  /// stream. Envelopes for a currently-down peer stay queued and flush on
  /// reconnect. Throws if an envelope targets an unregistered peer.
  void pump_outbox();

  /// Announces this node's epoch-target completion to every peer (the
  /// cluster shutdown barrier; see DoneFrame).
  void send_done(std::uint64_t epochs);

  /// One event-loop iteration: waits up to `timeout_ms` for socket
  /// readiness (shortened if a reconnect or ping timer is due sooner),
  /// services reads/writes/connects, fires due timers. Returns the number
  /// of envelopes delivered to the sink during this call.
  std::size_t poll(int timeout_ms);

  /// True once every registered peer's HELLO validated in both directions
  /// we can observe (we received theirs; ours is at least queued).
  [[nodiscard]] bool all_connected() const;

  /// True when every peer's tx stream (HELLO + queued frames) fully
  /// drained into the kernel — the daemon's safe-to-exit check.
  [[nodiscard]] bool tx_idle() const;

  /// Peers that announced DONE so far.
  [[nodiscard]] std::size_t peers_done() const;
  /// True iff `id` announced DONE.
  [[nodiscard]] bool peer_done(NodeId id) const;

  /// Per-peer byte/RTT/reconnect ledger (docs/reporting.md "Netstats").
  [[nodiscard]] const NetStats& netstats() const { return netstats_; }
  [[nodiscard]] NetStats& netstats() { return netstats_; }

 private:
  /// One neighbor edge: its tx stream, which outlives any one connection.
  struct Peer {
    SocketEndpoint endpoint;
    bool initiator = false;

    int fd = -1;               // the live socket, once dialed or identified
    bool connecting = false;   // nonblocking connect() in flight
    bool identified = false;   // their HELLO validated on the current conn
    bool want_write = false;   // EPOLLOUT currently armed

    /// Encoded frames awaiting the socket, this side's HELLO first on each
    /// connection. `head` is the flush cursor, `mark` the start of the
    /// frame `head` sits in, `sizes` the byte length of each queued frame
    /// from `mark` on — on a drop, `head` rewinds to `mark` so the next
    /// connection resends the interrupted frame whole instead of starting
    /// mid-frame.
    Bytes txbuf;
    std::size_t head = 0;
    std::size_t mark = 0;
    std::deque<std::uint32_t> sizes;

    double next_attempt_s = 0.0;  // initiator redial time (monotonic)
    double backoff_s = 0.0;
    double next_ping_s = 0.0;

    bool done = false;
  };

  /// One open socket's inbound side, dialed or accepted alike.
  struct Conn {
    /// The peer this socket serves: set when dialed, and by the HELLO on an
    /// accepted socket.
    std::optional<NodeId> peer;
    FrameParser parser;
    /// Bytes received before the peer's HELLO identified the socket,
    /// credited to its ledger then.
    std::uint64_t bytes_rx = 0;
    /// When an accepted socket was accepted (monotonic): one with no peer
    /// after the HELLO timeout is closed.
    double accepted_s = 0.0;
  };

  [[nodiscard]] Peer& peer_ref(NodeId id);
  void setup_listener(const Options& options);
  void start_connect(NodeId id, double now_s);
  /// Opens a connection's tx stream: queues this side's HELLO at the
  /// rewind mark, or reuses the one a drop left unsent there, and flushes.
  void open_stream(NodeId id, double now_s);
  /// Closes `id`'s socket (if any), rewinds its tx stream and, for an
  /// initiator, schedules the redial.
  void drop_connection(NodeId id, double now_s);
  /// Closes `fd`, through drop_connection when a peer owns it.
  void close_conn(int fd, double now_s);
  void accept_ready(double now_s);
  /// Records the frame appended to `peer.txbuf` from `frame_start` on: its
  /// size for the rewind mark, and one `frames_tx`.
  void queue_frame(NodeId id, Peer& peer, std::size_t frame_start);
  void flush_peer(NodeId id, double now_s);
  void update_interest(NodeId id);
  std::size_t read_conn(int fd, double now_s);
  /// Processes every complete frame buffered on `fd`; returns envelopes
  /// delivered. On the first protocol violation the connection drops.
  std::size_t drain_frames(int fd, double now_s);
  /// The peer's HELLO validated on `fd`: binds an accepted socket and
  /// marks the peer connected.
  void identify(int fd, NodeId id, double now_s);
  void check_hello(const HelloFrame& hello) const;
  /// Redials, pings, and closes accepted sockets whose HELLO is overdue.
  void service_timers(double now_s);

  Options options_;
  Transport& local_;
  DeliverFn deliver_;
  NetStats netstats_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;

  std::map<NodeId, Peer> peers_;
  std::unordered_map<int, Conn> conns_;  // every open socket but the listener
};

}  // namespace rex::net
