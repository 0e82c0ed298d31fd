#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace rex::net {

namespace {

/// Initiator reconnect backoff: first retry after kReconnectInitialS,
/// doubling per failure up to kReconnectMaxS.
constexpr double kReconnectInitialS = 0.05;
constexpr double kReconnectMaxS = 2.0;
/// PING cadence per connected peer, feeding the RTT estimate.
constexpr double kPingPeriodS = 0.5;
/// How long an accepted socket may go without a valid HELLO before it is
/// closed. A peer sends its HELLO as soon as its connect completes, so
/// four ping periods only run out on a socket nothing will identify.
constexpr double kHelloTimeoutS = 4 * kPingPeriodS;

double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t mono_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kTxCompactWatermark = 64 * 1024;
constexpr int kMaxEvents = 64;

}  // namespace

SocketTransport::SocketTransport(Options options, Transport& local)
    : options_(std::move(options)), local_(local) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  REX_REQUIRE(epoll_fd_ >= 0, "epoll_create1 failed");
  setup_listener(options_);
}

SocketTransport::~SocketTransport() {
  for (auto& [fd, conn] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void SocketTransport::setup_listener(const Options& options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  REX_REQUIRE(listen_fd_ >= 0, "listener socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.listen_port);
  if (options.listen_host.empty() || options.listen_host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else {
    REX_REQUIRE(::inet_pton(AF_INET, options.listen_host.c_str(),
                            &addr.sin_addr) == 1,
                "listen_host is not a valid IPv4 address");
  }
  REX_REQUIRE(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr) == 0,
              "bind failed (port in use?)");
  REX_REQUIRE(::listen(listen_fd_, 64) == 0, "listen failed");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  REX_REQUIRE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                            &len) == 0,
              "getsockname failed");
  listen_port_ = ntohs(bound.sin_port);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  REX_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
              "epoll_ctl(listener) failed");
}

void SocketTransport::add_peer(NodeId id, SocketEndpoint endpoint,
                               bool initiator) {
  REX_REQUIRE(id != options_.self, "node cannot peer with itself");
  REX_REQUIRE(peers_.find(id) == peers_.end(), "peer registered twice");
  Peer& peer = peers_[id];
  peer.endpoint = std::move(endpoint);
  peer.initiator = initiator;
  peer.next_attempt_s = 0.0;  // dial on the next poll()
}

SocketTransport::Peer& SocketTransport::peer_ref(NodeId id) {
  auto it = peers_.find(id);
  REX_REQUIRE(it != peers_.end(), "envelope for an unregistered peer");
  return it->second;
}

// ===== Outbound =====

void SocketTransport::queue_frame(NodeId id, Peer& peer,
                                  std::size_t frame_start) {
  peer.sizes.push_back(
      static_cast<std::uint32_t>(peer.txbuf.size() - frame_start));
  netstats_.peer(id).frames_tx++;
}

void SocketTransport::pump_outbox() {
  std::vector<Envelope> batch;
  local_.take_outbox(options_.self, batch);
  if (batch.empty()) return;
  const double now_s = mono_now();
  for (Envelope& env : batch) {
    local_.record_send(env);
    Peer& peer = peer_ref(env.dst);
    if (peer.mark > 0 &&
        (peer.mark == peer.txbuf.size() || peer.mark >= kTxCompactWatermark)) {
      peer.txbuf.erase(peer.txbuf.begin(),
                       peer.txbuf.begin() +
                           static_cast<std::ptrdiff_t>(peer.mark));
      peer.head -= peer.mark;
      peer.mark = 0;
    }
    const std::size_t start = peer.txbuf.size();
    append_data(peer.txbuf, env);
    queue_frame(env.dst, peer, start);
    netstats_.peer(env.dst).data_tx++;
  }
  batch.clear();  // release payload references before flushing
  for (auto& [id, peer] : peers_) {
    if (peer.head < peer.txbuf.size()) flush_peer(id, now_s);
  }
}

void SocketTransport::send_done(std::uint64_t epochs) {
  const double now_s = mono_now();
  for (auto& [id, peer] : peers_) {
    const std::size_t start = peer.txbuf.size();
    append_done(peer.txbuf, options_.self, epochs);
    queue_frame(id, peer, start);
    flush_peer(id, now_s);
  }
}

void SocketTransport::open_stream(NodeId id, double now_s) {
  Peer& peer = peers_.at(id);
  netstats_.peer(id).frames_tx++;  // one HELLO per connection
  // head == mark here: the last drop rewound it.
  const bool reused =
      !peer.sizes.empty() &&
      peer.txbuf[peer.mark + 4] == static_cast<std::uint8_t>(FrameType::kHello);
  if (!reused) {
    Bytes hello;
    append_hello(hello, options_.self, options_.fingerprint);
    peer.txbuf.insert(
        peer.txbuf.begin() + static_cast<std::ptrdiff_t>(peer.mark),
        hello.begin(), hello.end());
    peer.sizes.push_front(static_cast<std::uint32_t>(hello.size()));
  }
  flush_peer(id, now_s);
}

void SocketTransport::flush_peer(NodeId id, double now_s) {
  Peer& peer = peers_.at(id);
  if (peer.fd < 0 || peer.connecting) return;
  PeerStats& stats = netstats_.peer(id);
  while (peer.head < peer.txbuf.size()) {
    const ssize_t n = ::send(peer.fd, peer.txbuf.data() + peer.head,
                             peer.txbuf.size() - peer.head, MSG_NOSIGNAL);
    if (n > 0) {
      peer.head += static_cast<std::size_t>(n);
      stats.bytes_tx += static_cast<std::uint64_t>(n);
      while (!peer.sizes.empty() &&
             peer.head >= peer.mark + peer.sizes.front()) {
        peer.mark += peer.sizes.front();
        peer.sizes.pop_front();
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!peer.want_write) {
        peer.want_write = true;
        update_interest(id);
      }
      return;
    }
    drop_connection(id, now_s);
    return;
  }

  if (peer.mark == peer.txbuf.size()) {  // fully drained: recycle in place
    peer.txbuf.clear();
    peer.head = 0;
    peer.mark = 0;
  }
  if (peer.want_write) {
    peer.want_write = false;
    update_interest(id);
  }
}

void SocketTransport::update_interest(NodeId id) {
  Peer& peer = peers_.at(id);
  if (peer.fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (peer.want_write ? EPOLLOUT : 0u);
  ev.data.fd = peer.fd;
  REX_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, peer.fd, &ev) == 0,
              "epoll_ctl(mod) failed");
}

// ===== Connection lifecycle =====

void SocketTransport::start_connect(NodeId id, double now_s) {
  Peer& peer = peers_.at(id);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(peer.endpoint.port);
  if (::getaddrinfo(peer.endpoint.host.c_str(), port.c_str(), &hints,
                    &result) != 0 ||
      result == nullptr) {
    if (result != nullptr) ::freeaddrinfo(result);
    drop_connection(id, now_s);  // schedules the backoff retry
    return;
  }
  const int fd = ::socket(result->ai_family,
                          SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    ::freeaddrinfo(result);
    drop_connection(id, now_s);
    return;
  }
  set_nodelay(fd);
  const int rc = ::connect(fd, result->ai_addr, result->ai_addrlen);
  ::freeaddrinfo(result);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    drop_connection(id, now_s);
    return;
  }

  peer.fd = fd;
  peer.connecting = (rc != 0);
  peer.want_write = peer.connecting;
  conns_[fd].peer = id;
  epoll_event ev{};
  ev.events = EPOLLIN | (peer.connecting ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  REX_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
              "epoll_ctl(add) failed");
  if (!peer.connecting) open_stream(id, now_s);
}

void SocketTransport::drop_connection(NodeId id, double now_s) {
  Peer& peer = peers_.at(id);
  if (peer.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, peer.fd, nullptr);
    ::close(peer.fd);
    conns_.erase(peer.fd);
    peer.fd = -1;
  }
  peer.connecting = false;
  peer.identified = false;
  peer.want_write = false;
  peer.head = peer.mark;  // resend the interrupted frame whole
  if (peer.initiator) {
    peer.backoff_s = peer.backoff_s <= 0.0
                         ? kReconnectInitialS
                         : std::min(peer.backoff_s * 2.0, kReconnectMaxS);
    peer.next_attempt_s = now_s + peer.backoff_s;
  }
}

void SocketTransport::close_conn(int fd, double now_s) {
  const std::optional<NodeId> peer = conns_.at(fd).peer;
  if (peer) {
    drop_connection(*peer, now_s);
    return;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(fd);
}

void SocketTransport::accept_ready(double now_s) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: wait for the next event
    }
    set_nodelay(fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_[fd].accepted_s = now_s;
  }
}

void SocketTransport::check_hello(const HelloFrame& hello) const {
  REX_REQUIRE(hello.version == kWireVersion,
              "peer speaks a different wire version");
  REX_REQUIRE(hello.fingerprint == options_.fingerprint,
              "peer launched from a different cluster config "
              "(fingerprint mismatch)");
}

void SocketTransport::identify(int fd, NodeId id, double now_s) {
  Conn& conn = conns_.at(fd);
  Peer& peer = peers_.at(id);
  const bool accepted = !conn.peer;
  if (accepted) {
    if (peer.fd >= 0) drop_connection(id, now_s);  // stale conn superseded
    conn.peer = id;
    peer.fd = fd;
  }
  peer.identified = true;
  peer.backoff_s = 0.0;
  peer.next_ping_s = now_s;
  PeerStats& stats = netstats_.peer(id);
  stats.record_connect();
  stats.bytes_rx += std::exchange(conn.bytes_rx, 0);
  stats.frames_rx++;  // the HELLO
  if (accepted) open_stream(id, now_s);  // a dialed stream opened on connect
}

// ===== Inbound =====

std::size_t SocketTransport::read_conn(int fd, double now_s) {
  Conn& conn = conns_.at(fd);
  // An identified socket bills its peer's ledger directly; identify()
  // credits what arrived before.
  std::uint64_t& bytes_rx = conn.peer && peers_.at(*conn.peer).identified
                                ? netstats_.peer(*conn.peer).bytes_rx
                                : conn.bytes_rx;
  bool eof = false;
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      bytes_rx += static_cast<std::uint64_t>(n);
      conn.parser.feed(BytesView(chunk, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof = true;  // orderly close or hard error: drain what we have, drop
    break;
  }
  const std::size_t delivered = drain_frames(fd, now_s);
  if (eof && conns_.count(fd) != 0) close_conn(fd, now_s);
  return delivered;
}

std::size_t SocketTransport::drain_frames(int fd, double now_s) {
  std::size_t delivered = 0;
  for (auto it = conns_.find(fd); it != conns_.end(); it = conns_.find(fd)) {
    Conn& conn = it->second;
    std::optional<HelloFrame> hello;
    std::optional<DataFrame> data;
    try {
      const std::optional<Frame> frame = conn.parser.next();
      if (!frame) break;
      if (!conn.peer || !peers_.at(*conn.peer).identified) {
        // The first frame on every socket: a HELLO from the peer it was
        // dialed for, or on an accepted one, from a registered peer that
        // this side does not dial.
        REX_REQUIRE(frame->type == FrameType::kHello,
                    "first frame is not a HELLO");
        hello = decode_hello(frame->body);
        const auto sender = peers_.find(hello->node);
        REX_REQUIRE(conn.peer ? hello->node == *conn.peer
                              : sender != peers_.end() &&
                                    !sender->second.initiator,
                    "HELLO from a node this socket does not serve");
      } else {
        const NodeId id = *conn.peer;
        Peer& peer = peers_.at(id);
        PeerStats& stats = netstats_.peer(id);
        stats.frames_rx++;
        switch (frame->type) {
          case FrameType::kHello:
            REX_REQUIRE(false, "second HELLO on one connection");
            break;
          case FrameType::kData:
            data = decode_data(frame->body);
            REX_REQUIRE(data->src == id && data->dst == options_.self,
                        "data frame for another edge");
            break;
          case FrameType::kPing: {
            const std::size_t start = peer.txbuf.size();
            append_pong(peer.txbuf, decode_ping_token(frame->body));
            queue_frame(id, peer, start);
            break;
          }
          case FrameType::kPong: {
            const std::uint64_t token = decode_ping_token(frame->body);
            const std::uint64_t now_ns = mono_now_ns();
            if (now_ns >= token) {
              stats.record_rtt(static_cast<double>(now_ns - token) * 1e-9);
            }
            break;
          }
          case FrameType::kDone:
            REX_REQUIRE(decode_done(frame->body).node == id,
                        "DONE for another node");
            peer.done = true;
            break;
        }
      }
    } catch (const Error&) {  // protocol violation: unrecoverable, drop
      close_conn(fd, now_s);
      return delivered;
    }
    if (hello) {
      check_hello(*hello);  // a config mismatch throws: retrying cannot fix it
      identify(fd, hello->node, now_s);
    } else if (data) {
      Bytes payload = local_.payload_pool().acquire();
      payload.assign(data->payload.begin(), data->payload.end());
      Envelope env;
      env.src = data->src;
      env.dst = data->dst;
      env.kind = data->kind;
      env.payload =
          SharedBytes::pooled(local_.payload_pool(), std::move(payload));
      local_.record_delivery(env);
      netstats_.peer(env.src).data_rx++;
      REX_REQUIRE(static_cast<bool>(deliver_),
                  "deliver callback not installed");
      deliver_(std::move(env));
      delivered++;
    }
  }
  const auto it = conns_.find(fd);
  if (it != conns_.end() && it->second.peer) {
    flush_peer(*it->second.peer, now_s);  // pongs queued above
  }
  return delivered;
}

// ===== Event loop =====

void SocketTransport::service_timers(double now_s) {
  std::vector<int> unidentified;
  for (const auto& [fd, conn] : conns_) {
    if (!conn.peer && now_s >= conn.accepted_s + kHelloTimeoutS) {
      unidentified.push_back(fd);
    }
  }
  for (const int fd : unidentified) close_conn(fd, now_s);
  for (auto& [id, peer] : peers_) {
    if (peer.initiator && peer.fd < 0 && now_s >= peer.next_attempt_s) {
      start_connect(id, now_s);
    }
    if (peer.identified && now_s >= peer.next_ping_s) {
      const std::size_t start = peer.txbuf.size();
      append_ping(peer.txbuf, mono_now_ns());
      queue_frame(id, peer, start);
      peer.next_ping_s = now_s + kPingPeriodS;
      flush_peer(id, now_s);
    }
  }
}

std::size_t SocketTransport::poll(int timeout_ms) {
  service_timers(mono_now());

  // Shorten the wait if a reconnect, ping or HELLO timer lands sooner.
  double deadline = std::numeric_limits<double>::infinity();
  for (const auto& [id, peer] : peers_) {
    if (peer.initiator && peer.fd < 0) {
      deadline = std::min(deadline, peer.next_attempt_s);
    }
    if (peer.identified) deadline = std::min(deadline, peer.next_ping_s);
  }
  for (const auto& [fd, conn] : conns_) {
    if (!conn.peer) {
      deadline = std::min(deadline, conn.accepted_s + kHelloTimeoutS);
    }
  }
  int timeout = std::max(timeout_ms, 0);
  if (deadline != std::numeric_limits<double>::infinity()) {
    const double wait_s = std::max(deadline - mono_now(), 0.0);
    timeout = std::min(timeout,
                       static_cast<int>(std::ceil(wait_s * 1000.0)));
  }

  epoll_event events[kMaxEvents];
  const int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
  if (ready < 0) {
    REX_REQUIRE(errno == EINTR, "epoll_wait failed");
    return 0;
  }

  std::size_t delivered = 0;
  const double now_s = mono_now();
  for (int i = 0; i < ready; ++i) {
    const int fd = events[i].data.fd;
    const std::uint32_t flags = events[i].events;

    if (fd == listen_fd_) {
      accept_ready(now_s);
      continue;
    }
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;  // closed earlier in this batch
    const std::optional<NodeId> id = it->second.peer;

    if (id && peers_.at(*id).connecting) {
      int err = 0;
      socklen_t len = sizeof err;
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0 || (flags & (EPOLLERR | EPOLLHUP)) != 0) {
        drop_connection(*id, now_s);  // schedules the backoff retry
      } else {
        peers_.at(*id).connecting = false;
        open_stream(*id, now_s);  // its flush disarms EPOLLOUT once drained
      }
      continue;
    }

    if ((flags & EPOLLIN) != 0) {
      delivered += read_conn(fd, now_s);
    } else if ((flags & (EPOLLERR | EPOLLHUP)) != 0) {
      close_conn(fd, now_s);
      continue;
    }
    if (id && conns_.count(fd) != 0 && (flags & EPOLLOUT) != 0) {
      flush_peer(*id, now_s);
    }
  }

  service_timers(mono_now());
  return delivered;
}

// ===== Observers =====

bool SocketTransport::all_connected() const {
  for (const auto& [id, peer] : peers_) {
    if (!peer.identified) return false;
  }
  return true;
}

bool SocketTransport::tx_idle() const {
  for (const auto& [id, peer] : peers_) {
    if (peer.head < peer.txbuf.size()) return false;
  }
  return true;
}

std::size_t SocketTransport::peers_done() const {
  std::size_t count = 0;
  for (const auto& [id, peer] : peers_) count += peer.done ? 1 : 0;
  return count;
}

bool SocketTransport::peer_done(NodeId id) const {
  auto it = peers_.find(id);
  return it != peers_.end() && it->second.done;
}

}  // namespace rex::net
