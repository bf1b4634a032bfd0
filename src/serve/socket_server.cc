#include "serve/socket_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "util/log.h"

namespace crp::serve {

namespace {

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

SocketServer::~SocketServer() { stop(); }

bool SocketServer::start(u16 port, Handlers handlers) {
  if (running()) return true;
  handlers_ = std::move(handlers);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    CRP_WARN("serve", "socket() failed: %s", std::strerror(errno));
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0 || !set_nonblocking(fd)) {
    CRP_WARN("serve", "cannot bind 127.0.0.1:%u: %s", port,
             std::strerror(errno));
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port_ = ntohs(addr.sin_port);
  else
    port_ = port;

  int pipefd[2];
  if (::pipe(pipefd) != 0 || !set_nonblocking(pipefd[0]) ||
      !set_nonblocking(pipefd[1])) {
    CRP_WARN("serve", "wake pipe failed: %s", std::strerror(errno));
    ::close(fd);
    return false;
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  listen_fd_ = fd;
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void SocketServer::stop() {
  if (!running()) return;
  stop_.store(true, std::memory_order_release);
  wake();
  if (thread_.joinable()) thread_.join();
  // Tear down whatever survived the loop (fires on_close for each).
  std::vector<std::pair<ConnId, int>> fds;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [id, c] : conns_) fds.emplace_back(id, c.fd);
    conns_.clear();
  }
  for (auto& [id, fd] : fds) {
    ::close(fd);
    if (handlers_.on_close) handlers_.on_close(id);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
  listen_fd_ = wake_rd_ = wake_wr_ = -1;
  running_.store(false, std::memory_order_release);
}

size_t SocketServer::connection_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return conns_.size();
}

SocketServer::Stats SocketServer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void SocketServer::wake() {
  if (wake_wr_ < 0) return;
  char b = 1;
  for (;;) {
    ssize_t n = ::write(wake_wr_, &b, 1);
    if (n >= 0 || errno != EINTR) break;  // EAGAIN = already pending: fine
  }
}

bool SocketServer::send(ConnId conn, std::string data) {
  bool over = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = conns_.find(conn);
    if (it == conns_.end() || it->second.closing) return false;
    Conn& c = it->second;
    // Compact the drained prefix before growing the buffer.
    if (c.out_off > 0) {
      c.out.erase(0, c.out_off);
      c.out_off = 0;
    }
    c.out += data;
    size_t pending = c.out.size() - c.out_off;
    if (pending > stats_.out_buffer_hwm) stats_.out_buffer_hwm = pending;
    if (c.out.size() > opts_.max_out_buffer) {
      c.closing = true;  // runaway writer / stalled reader: drop it
      ++stats_.dropped_overflow;
      over = true;
    }
  }
  wake();
  return !over;
}

void SocketServer::close_conn(ConnId conn, bool after_flush) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = conns_.find(conn);
    if (it == conns_.end()) return;
    if (after_flush && (it->second.out.size() - it->second.out_off) > 0)
      it->second.close_after_flush = true;
    else
      it->second.closing = true;
  }
  wake();
}

void SocketServer::accept_clients() {
  for (;;) {
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN/EWOULDBLOCK: drained
    }
    if (!set_nonblocking(client)) {
      ::close(client);
      continue;
    }
    // Every reply is queued whole and drain_out sends all that is pending,
    // so Nagle would only hold a reply until the peer's delayed ACK.
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ConnId id;
    {
      std::lock_guard<std::mutex> lk(mu_);
      id = next_id_++;
      conns_[id].fd = client;
      ++stats_.accepted;
    }
    if (handlers_.on_open) handlers_.on_open(id);
  }
}

bool SocketServer::drain_in(ConnId id, Conn& c) {
  std::vector<char> buf(opts_.max_in_chunk);
  for (;;) {
    ssize_t got = ::recv(c.fd, buf.data(), buf.size(), 0);
    if (got > 0) {
      if (handlers_.on_data)
        handlers_.on_data(id, std::string_view(buf.data(), static_cast<size_t>(got)));
      // The handler may have queued a close (e.g. a QUIT command).
      {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = conns_.find(id);
        if (it == conns_.end() || it->second.closing) return it != conns_.end();
      }
      if (got < static_cast<ssize_t>(buf.size())) return true;  // drained
      continue;
    }
    if (got == 0) return false;  // peer closed
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;  // real error
  }
}

bool SocketServer::drain_out(Conn& c) {
  // Held across the (non-blocking) send: concurrent send() calls append to
  // c.out and may reallocate it, so the buffer must not be read unlocked.
  std::lock_guard<std::mutex> lk(mu_);
  for (;;) {
    size_t pending = c.out.size() - c.out_off;
    if (pending == 0) {
      c.out.clear();
      c.out_off = 0;
      return true;
    }
    ssize_t sent = ::send(c.fd, c.out.data() + c.out_off, pending, MSG_NOSIGNAL);
    if (sent > 0) {
      c.out_off += static_cast<size_t>(sent);
      continue;  // partial write: keep pushing until EAGAIN
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;  // socket full: POLLOUT will resume us
    return false;   // EPIPE/ECONNRESET/...
  }
}

void SocketServer::teardown(ConnId id, Conn& c) {
  ::close(c.fd);
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns_.erase(id);
  }
  if (handlers_.on_close) handlers_.on_close(id);
}

void SocketServer::loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    // Snapshot the poll set. Interest: always POLLIN; POLLOUT only while
    // bytes are pending (level-triggered poll would spin otherwise).
    std::vector<pollfd> pfds;
    std::vector<ConnId> ids;
    pfds.push_back({listen_fd_, POLLIN, 0});
    pfds.push_back({wake_rd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (auto& [id, c] : conns_) {
        short events = POLLIN;
        if (c.closing || (c.out.size() - c.out_off) > 0) events |= POLLOUT;
        pfds.push_back({c.fd, events, 0});
        ids.push_back(id);
      }
    }

    int n = ::poll(pfds.data(), pfds.size(), opts_.poll_timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }

    if (pfds[1].revents & POLLIN) {  // drain the wake pipe
      char sink[256];
      while (::read(wake_rd_, sink, sizeof sink) > 0) {
      }
    }
    if (pfds[0].revents & POLLIN) accept_clients();

    for (size_t i = 0; i < ids.size(); ++i) {
      ConnId id = ids[i];
      short rev = pfds[i + 2].revents;
      Conn* c;
      bool closing;
      {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        c = &it->second;
        closing = c->closing;
      }
      bool alive = true;
      if (!closing && (rev & (POLLIN | POLLHUP | POLLERR)))
        alive = drain_in(id, *c);
      if (alive) {
        std::lock_guard<std::mutex> lk(mu_);
        closing = c->closing;  // the data handler may have queued a close
      }
      if (alive && !closing) alive = drain_out(*c);
      bool flushed;
      {
        std::lock_guard<std::mutex> lk(mu_);
        flushed = (c->out.size() - c->out_off) == 0;
        if (c->close_after_flush && flushed) c->closing = true;
        closing = c->closing;
      }
      if (closing && !flushed) {
        // A close was requested while bytes are still pending without
        // after_flush semantics — best effort: drop them.
        alive = false;
      }
      if (!alive || closing) teardown(id, *c);
    }
  }
  // Leave connection teardown to stop(): it owns the final close+callback.
}

}  // namespace crp::serve
