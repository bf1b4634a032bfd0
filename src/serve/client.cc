#include "serve/client.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/log.h"

namespace crp::serve {

namespace {

void set_err(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
}

/// Write all of `data`, retrying on EINTR and short writes.
bool send_all(int fd, std::string_view data, std::string* err) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      set_err(err, strf("send: %s", std::strerror(errno)));
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

bool Client::connect(u16 port, std::string* err) {
  close();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_err(err, strf("socket: %s", std::strerror(errno)));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    set_err(err, strf("connect 127.0.0.1:%u: %s", unsigned{port}, std::strerror(errno)));
    ::close(fd);
    return false;
  }
  // Each request goes out in one send; do not hold it for the daemon's ACK.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  return true;
}

bool Client::set_recv_timeout_ms(int ms) {
  if (fd_ < 0 || ms < 0) return false;
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

bool Client::send_line(const std::string& line, std::string* err) {
  if (fd_ < 0) {
    set_err(err, "not connected");
    return false;
  }
  std::string framed = line;
  if (framed.empty() || framed.back() != '\n') framed.push_back('\n');
  return send_all(fd_, framed, err);
}

bool Client::read_line(std::string* line, std::string* err) {
  for (;;) {
    size_t nl = inbuf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(inbuf_, 0, nl);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      inbuf_.erase(0, nl + 1);
      return true;
    }
    if (fd_ < 0) {
      set_err(err, "not connected");
      return false;
    }
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        set_err(err, "recv timed out waiting for daemon");
        return false;
      }
      set_err(err, strf("recv: %s", std::strerror(errno)));
      return false;
    }
    if (n == 0) {
      set_err(err, "connection closed by daemon");
      return false;
    }
    inbuf_.append(chunk, static_cast<size_t>(n));
  }
}

bool Client::read_payload(size_t n, std::string* out, std::string* err) {
  while (inbuf_.size() < n) {
    if (fd_ < 0) {
      set_err(err, "not connected");
      return false;
    }
    char chunk[4096];
    ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        set_err(err, "recv timed out waiting for daemon");
        return false;
      }
      set_err(err, strf("recv: %s", std::strerror(errno)));
      return false;
    }
    if (got == 0) {
      set_err(err, "connection closed mid-payload");
      return false;
    }
    inbuf_.append(chunk, static_cast<size_t>(got));
  }
  out->assign(inbuf_, 0, n);
  inbuf_.erase(0, n);
  return true;
}

bool Client::request(const std::string& line, std::string* reply, std::string* err) {
  if (!send_line(line, err)) return false;
  return read_line(reply, err);
}

Client::Reply Client::parse_reply(const std::string& line) {
  Reply r;
  if (line.rfind("OK", 0) == 0) {
    r.ok = true;
    r.detail = line.size() > 3 ? line.substr(3) : "";
    return r;
  }
  if (line.rfind("ERR ", 0) == 0) {
    size_t sp = line.find(' ', 4);
    r.code = std::atoi(line.c_str() + 4);
    r.detail = sp == std::string::npos ? "" : line.substr(sp + 1);
    return r;
  }
  r.code = -1;
  r.detail = line;
  return r;
}

u64 Client::submit(const std::string& tenant, const std::string& target,
                   const std::vector<std::string>& knobs, int* code,
                   std::string* err) {
  std::string line = strf("SUBMIT %s %s", tenant.c_str(), target.c_str());
  for (const std::string& k : knobs) {
    line.push_back(' ');
    line.append(k);
  }
  std::string reply;
  if (!request(line, &reply, err)) return 0;
  Reply r = parse_reply(reply);
  if (!r.ok) {
    if (code != nullptr) *code = r.code;
    set_err(err, r.detail);
    return 0;
  }
  if (code != nullptr) *code = 0;
  u64 id = std::strtoull(r.detail.c_str(), nullptr, 10);
  if (id == 0) set_err(err, strf("bad SUBMIT reply \"%s\"", reply.c_str()));
  return id;
}

bool Client::watch_until_done(u64 job_id, std::string* state, bool* cached,
                              std::string* err) {
  std::string reply;
  if (!request(strf("WATCH %llu", static_cast<unsigned long long>(job_id)), &reply,
               err))
    return false;
  Reply r = parse_reply(reply);
  if (!r.ok) {
    set_err(err, r.detail);
    return false;
  }
  // Stream EVENT lines until the DONE line for this job.
  std::string line;
  for (;;) {
    if (!read_line(&line, err)) return false;
    if (line.rfind("EVENT ", 0) == 0) continue;
    if (line.rfind("DONE ", 0) == 0) {
      unsigned long long id = 0;
      char st[32] = {0};
      int cflag = 0;
      if (std::sscanf(line.c_str(), "DONE %llu %31s cached=%d", &id, st, &cflag) < 2 ||
          id != job_id) {
        set_err(err, strf("bad DONE line \"%s\"", line.c_str()));
        return false;
      }
      if (state != nullptr) *state = st;
      if (cached != nullptr) *cached = cflag != 0;
      return true;
    }
    set_err(err, strf("unexpected line while watching: \"%s\"", line.c_str()));
    return false;
  }
}

bool Client::fetch(u64 job_id, std::string* report, std::string* err) {
  std::string reply;
  if (!request(strf("FETCH %llu", static_cast<unsigned long long>(job_id)), &reply,
               err))
    return false;
  unsigned long long nbytes = 0;
  if (std::sscanf(reply.c_str(), "REPORT %llu", &nbytes) != 1) {
    Reply r = parse_reply(reply);
    set_err(err, r.detail.empty() ? reply : r.detail);
    return false;
  }
  return read_payload(static_cast<size_t>(nbytes), report, err);
}

bool Client::run_job(const std::string& tenant, const std::string& target,
                     const std::vector<std::string>& knobs, std::string* report,
                     bool* cached, std::string* err) {
  u64 id = submit(tenant, target, knobs, nullptr, err);
  if (id == 0) return false;
  std::string state;
  if (!watch_until_done(id, &state, cached, err)) return false;
  if (state != "done") {
    set_err(err, strf("job %llu finished %s", static_cast<unsigned long long>(id),
                      state.c_str()));
    return false;
  }
  return fetch(id, report, err);
}

}  // namespace crp::serve
