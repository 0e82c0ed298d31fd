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

#include "support/error.hpp"

namespace rex::net {

namespace {

/// Initiator reconnect backoff: first retry after kReconnectInitialS,
/// doubling per failure up to kReconnectMaxS.
constexpr double kReconnectInitialS = 0.05;
constexpr double kReconnectMaxS = 2.0;
/// PING cadence per connected peer, feeding the RTT estimate.
constexpr double kPingPeriodS = 0.5;

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
  for (auto& [id, peer] : peers_) {
    if (peer.fd >= 0) ::close(peer.fd);
  }
  for (auto& [fd, pending] : pending_) ::close(fd);
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

void SocketTransport::queue_frame(Peer& peer, std::size_t frame_start) {
  peer.sizes.push_back(
      static_cast<std::uint32_t>(peer.txbuf.size() - frame_start));
}

void SocketTransport::pump_outbox() {
  std::vector<Envelope> batch;
  local_.take_outbox(options_.self, batch);
  if (batch.empty()) return;
  const double now_s = mono_now();
  for (Envelope& env : batch) {
    local_.record_send(env);
    Peer& peer = peer_ref(env.dst);
    PeerStats& stats = netstats_.peer(env.dst);
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
    queue_frame(peer, start);
    stats.frames_tx++;
    stats.data_tx++;
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
    queue_frame(peer, start);
    netstats_.peer(id).frames_tx++;
    flush_peer(id, now_s);
  }
}

void SocketTransport::flush_peer(NodeId id, double now_s) {
  Peer& peer = peers_.at(id);
  if (peer.fd < 0 || peer.connecting) return;
  PeerStats& stats = netstats_.peer(id);

  // The HELLO always leads the stream on a fresh connection, even when data
  // frames were queued while the link was down.
  while (peer.hello_head < peer.hello.size()) {
    const ssize_t n =
        ::send(peer.fd, peer.hello.data() + peer.hello_head,
               peer.hello.size() - peer.hello_head, MSG_NOSIGNAL);
    if (n > 0) {
      peer.hello_head += static_cast<std::size_t>(n);
      stats.bytes_tx += static_cast<std::uint64_t>(n);
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
  fd_to_peer_[fd] = id;
  epoll_event ev{};
  ev.events = EPOLLIN | (peer.connecting ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  REX_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
              "epoll_ctl(add) failed");
  if (!peer.connecting) on_connected(id, now_s);
}

void SocketTransport::on_connected(NodeId id, double now_s) {
  Peer& peer = peers_.at(id);
  peer.connecting = false;
  peer.hello.clear();
  peer.hello_head = 0;
  append_hello(peer.hello, options_.self, options_.fingerprint);
  netstats_.peer(id).frames_tx++;
  flush_peer(id, now_s);
}

void SocketTransport::drop_connection(NodeId id, double now_s) {
  Peer& peer = peers_.at(id);
  if (peer.fd >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, peer.fd, nullptr);
    fd_to_peer_.erase(peer.fd);
    ::close(peer.fd);
    peer.fd = -1;
  }
  peer.connecting = false;
  peer.identified = false;
  peer.want_write = false;
  peer.parser = FrameParser{};
  peer.hello.clear();
  peer.hello_head = 0;
  peer.head = peer.mark;  // resend the interrupted frame whole
  if (peer.initiator) {
    peer.backoff_s = peer.backoff_s <= 0.0
                         ? kReconnectInitialS
                         : std::min(peer.backoff_s * 2.0, kReconnectMaxS);
    peer.next_attempt_s = now_s + peer.backoff_s;
  }
}

void SocketTransport::accept_ready() {
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
    pending_.emplace(fd, Pending{});
  }
}

void SocketTransport::close_pending(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  pending_.erase(fd);
}

void SocketTransport::check_hello(const HelloFrame& hello) const {
  REX_REQUIRE(hello.version == kWireVersion,
              "peer speaks a different wire version");
  REX_REQUIRE(hello.fingerprint == options_.fingerprint,
              "peer launched from a different cluster config "
              "(fingerprint mismatch)");
}

void SocketTransport::adopt_pending(int fd, Pending&& pending,
                                    const HelloFrame& hello, double now_s) {
  pending_.erase(fd);
  const NodeId id = hello.node;
  Peer& peer = peers_.at(id);
  if (peer.fd >= 0) drop_connection(id, now_s);  // stale conn superseded

  peer.fd = fd;
  peer.connecting = false;
  peer.want_write = false;
  fd_to_peer_[fd] = id;
  peer.parser = std::move(pending.parser);
  peer.identified = true;
  peer.backoff_s = 0.0;
  peer.next_ping_s = now_s;

  PeerStats& stats = netstats_.peer(id);
  stats.bytes_rx += pending.bytes_rx;
  stats.frames_rx++;  // the HELLO just consumed
  stats.record_connect();

  peer.hello.clear();
  peer.hello_head = 0;
  append_hello(peer.hello, options_.self, options_.fingerprint);
  stats.frames_tx++;
  flush_peer(id, now_s);
}

// ===== Inbound =====

std::size_t SocketTransport::read_peer(NodeId id, double now_s) {
  Peer& peer = peers_.at(id);
  PeerStats& stats = netstats_.peer(id);
  bool eof = false;
  std::uint8_t chunk[kReadChunk];
  while (peer.fd >= 0) {
    const ssize_t n = ::recv(peer.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      stats.bytes_rx += static_cast<std::uint64_t>(n);
      peer.parser.feed(BytesView(chunk, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof = true;  // orderly close or hard error: drain what we have, drop
    break;
  }
  const std::size_t delivered = drain_frames(id, now_s);
  if (eof && peers_.at(id).fd >= 0) drop_connection(id, now_s);
  return delivered;
}

std::size_t SocketTransport::drain_frames(NodeId id, double now_s) {
  std::size_t delivered = 0;
  Peer& peer = peers_.at(id);
  PeerStats& stats = netstats_.peer(id);
  while (peer.fd >= 0) {
    std::optional<Frame> frame;
    try {
      frame = peer.parser.next();
    } catch (const Error&) {  // malformed stream: unrecoverable, drop
      drop_connection(id, now_s);
      return delivered;
    }
    if (!frame) break;
    stats.frames_rx++;
    switch (frame->type) {
      case FrameType::kHello: {
        HelloFrame hello;
        if (peer.identified || !parse_hello(frame->body, hello) ||
            hello.node != id) {
          drop_connection(id, now_s);
          return delivered;
        }
        check_hello(hello);
        peer.identified = true;
        peer.backoff_s = 0.0;
        peer.next_ping_s = now_s;
        stats.record_connect();
        break;
      }
      case FrameType::kData: {
        DataFrame data;
        if (!peer.identified || !parse_data(frame->body, data) ||
            data.src != id || data.dst != options_.self) {
          drop_connection(id, now_s);
          return delivered;
        }
        Bytes payload = local_.payload_pool().acquire();
        payload.assign(data.payload.begin(), data.payload.end());
        Envelope env;
        env.src = data.src;
        env.dst = data.dst;
        env.kind = data.kind;
        env.payload = SharedBytes::pooled(local_.payload_pool(),
                                          std::move(payload));
        local_.record_delivery(env);
        stats.data_rx++;
        REX_REQUIRE(static_cast<bool>(deliver_),
                    "deliver callback not installed");
        deliver_(std::move(env));
        delivered++;
        break;
      }
      case FrameType::kPing: {
        std::uint64_t token = 0;
        if (!parse_ping_token(frame->body, token)) {
          drop_connection(id, now_s);
          return delivered;
        }
        const std::size_t start = peer.txbuf.size();
        append_pong(peer.txbuf, token);
        queue_frame(peer, start);
        stats.frames_tx++;
        break;
      }
      case FrameType::kPong: {
        std::uint64_t token = 0;
        if (!parse_ping_token(frame->body, token)) {
          drop_connection(id, now_s);
          return delivered;
        }
        const std::uint64_t now_ns = mono_now_ns();
        if (now_ns >= token) {
          stats.record_rtt(static_cast<double>(now_ns - token) * 1e-9);
        }
        break;
      }
      case FrameType::kDone: {
        DoneFrame done;
        if (!parse_done(frame->body, done) || done.node != id) {
          drop_connection(id, now_s);
          return delivered;
        }
        peer.done = true;
        peer.done_epochs = done.epochs;
        break;
      }
    }
  }
  if (peer.fd >= 0 && peer.head < peer.txbuf.size()) {
    flush_peer(id, now_s);  // pongs queued above
  }
  return delivered;
}

// ===== Event loop =====

void SocketTransport::service_timers(double now_s) {
  for (auto& [id, peer] : peers_) {
    if (peer.initiator && peer.fd < 0 && now_s >= peer.next_attempt_s) {
      start_connect(id, now_s);
    }
    if (peer.identified && now_s >= peer.next_ping_s) {
      const std::size_t start = peer.txbuf.size();
      append_ping(peer.txbuf, mono_now_ns());
      queue_frame(peer, start);
      netstats_.peer(id).frames_tx++;
      peer.next_ping_s = now_s + kPingPeriodS;
      flush_peer(id, now_s);
    }
  }
}

std::size_t SocketTransport::poll(int timeout_ms) {
  service_timers(mono_now());

  // Shorten the wait if a reconnect or ping timer lands sooner.
  double deadline = std::numeric_limits<double>::infinity();
  for (const auto& [id, peer] : peers_) {
    if (peer.initiator && peer.fd < 0) {
      deadline = std::min(deadline, peer.next_attempt_s);
    }
    if (peer.identified) deadline = std::min(deadline, peer.next_ping_s);
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
      accept_ready();
      continue;
    }

    if (auto pend_it = pending_.find(fd); pend_it != pending_.end()) {
      if ((flags & (EPOLLERR | EPOLLHUP)) != 0 && (flags & EPOLLIN) == 0) {
        close_pending(fd);
        continue;
      }
      // Read everything available; identify once the HELLO is complete.
      Pending& pending = pend_it->second;
      bool dead = false;
      std::uint8_t chunk[kReadChunk];
      for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n > 0) {
          pending.bytes_rx += static_cast<std::uint64_t>(n);
          pending.parser.feed(BytesView(chunk, static_cast<std::size_t>(n)));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        dead = true;
        break;
      }
      std::optional<Frame> frame;
      try {
        frame = pending.parser.next();
      } catch (const Error&) {
        close_pending(fd);
        continue;
      }
      if (frame) {
        HelloFrame hello;
        if (frame->type != FrameType::kHello ||
            !parse_hello(frame->body, hello) ||
            peers_.find(hello.node) == peers_.end() ||
            peers_.at(hello.node).initiator) {
          close_pending(fd);
          continue;
        }
        check_hello(hello);
        Pending adopted = std::move(pending);
        adopt_pending(fd, std::move(adopted), hello, now_s);
        delivered += drain_frames(hello.node, now_s);
      } else if (dead) {
        close_pending(fd);
      }
      continue;
    }

    auto it = fd_to_peer_.find(fd);
    if (it == fd_to_peer_.end()) continue;  // dropped earlier in this batch
    const NodeId id = it->second;
    Peer& peer = peers_.at(id);

    if (peer.connecting) {
      int err = 0;
      socklen_t len = sizeof err;
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0 || (flags & (EPOLLERR | EPOLLHUP)) != 0) {
        drop_connection(id, now_s);  // schedules the backoff retry
      } else {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
        peer.want_write = false;
        on_connected(id, now_s);
      }
      continue;
    }

    if ((flags & EPOLLIN) != 0) {
      delivered += read_peer(id, now_s);
    } else if ((flags & (EPOLLERR | EPOLLHUP)) != 0) {
      drop_connection(id, now_s);
      continue;
    }
    if (fd_to_peer_.count(fd) != 0 && (flags & EPOLLOUT) != 0) {
      flush_peer(id, now_s);
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
    if (peer.hello_head < peer.hello.size()) return false;
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
