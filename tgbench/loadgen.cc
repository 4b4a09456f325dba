// Copyright 2026 TGCRN Reproduction Authors
#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "spans.h"

namespace tgbench {
namespace {

constexpr int64_t kStallNs = static_cast<int64_t>(
    LoopbackClient::kStallSeconds * 1e9);
// Poll timeout while only draining responses.
constexpr int64_t kDrainPollNs = 50'000'000;

// Position of the value of top-level `"key":` in a compact or spaced JSON
// object line, or npos. Keys are only looked up where the protocol puts
// them, and entity names never contain quotes, so a plain scan suffices.
size_t FindValue(const std::string& line, const char* key) {
  const std::string quoted = std::string("\"") + key + "\"";
  size_t pos = line.find(quoted);
  if (pos == std::string::npos) return pos;
  pos += quoted.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size() || line[pos] != ':') return std::string::npos;
  ++pos;
  while (pos < line.size() && line[pos] == ' ') ++pos;
  return pos < line.size() ? pos : std::string::npos;
}

bool ReadInt(const std::string& line, const char* key, int64_t* out) {
  const size_t pos = FindValue(line, key);
  if (pos == std::string::npos) return false;
  char* end = nullptr;
  const char* begin = line.c_str() + pos;
  errno = 0;
  const long long value = std::strtoll(begin, &end, 10);
  if (end == begin || errno == ERANGE) return false;
  *out = value;
  return true;
}

}  // namespace

LoopbackClient::~LoopbackClient() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

bool LoopbackClient::Connect(int port, int connections, std::string* error) {
  for (int i = 0; i < connections; ++i) {
    Conn conn;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) {
      *error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
        0) {
      *error = std::string("connect: ") + std::strerror(errno);
      ::close(conn.fd);
      return false;
    }
    int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    conns_.push_back(std::move(conn));
  }
  return true;
}

int64_t LoopbackClient::Outstanding() const {
  int64_t total = 0;
  for (const Conn& conn : conns_) {
    if (!conn.broken) total += static_cast<int64_t>(conn.pending.size());
  }
  return total;
}

void LoopbackClient::Send(std::vector<Request>* log, size_t index) {
  Request& request = (*log)[index];
  Conn& conn = conns_[request.conn];
  request.line.push_back('\n');
  request.sent_ns = NowNs();
  size_t off = 0;
  while (!conn.broken && off < request.line.size()) {
    const ssize_t wrote = ::send(conn.fd, request.line.data() + off,
                                 request.line.size() - off, MSG_NOSIGNAL);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) {
      conn.broken = true;
      break;
    }
    off += static_cast<size_t>(wrote);
  }
  request.line.clear();
  request.line.shrink_to_fit();
  if (!conn.broken) conn.pending.push_back(index);
}

void LoopbackClient::Pump(std::vector<Request>* log, int64_t timeout_ns,
                          std::vector<int>* completed) {
  std::vector<pollfd> fds;
  std::vector<int> which;
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].broken) continue;
    fds.push_back({conns_[i].fd, POLLIN, 0});
    which.push_back(static_cast<int>(i));
  }
  if (fds.empty()) return;
  timespec ts;
  timeout_ns = std::max<int64_t>(timeout_ns, 0);
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
  for (size_t j = 0; j < fds.size(); ++j) {
    if ((fds[j].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const int c = which[j];
    Conn& conn = conns_[c];
    for (;;) {
      char buf[65536];
      const ssize_t got = ::recv(conn.fd, buf, sizeof buf, MSG_DONTWAIT);
      if (got < 0 && errno == EINTR) continue;
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (got <= 0) {
        conn.broken = true;
        break;
      }
      const int64_t now = NowNs();
      // Acknowledge at once. The server leaves Nagle on, so a response
      // written while the previous one is unacknowledged would otherwise
      // wait for the delayed-ACK timer (up to 40 ms) -- timing the timer,
      // not the server. Linux clears the flag after use, hence every read.
      int one = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
      const size_t scan_from = conn.in.size();
      conn.in.append(buf, static_cast<size_t>(got));
      size_t start = 0;
      size_t newline = conn.in.find('\n', scan_from);
      while (newline != std::string::npos) {
        if (conn.pending.empty()) {
          ++unexpected_lines_;
        } else {
          Request& request = (*log)[conn.pending.front()];
          conn.pending.pop_front();
          request.response.assign(conn.in, start, newline - start);
          request.recv_ns = now;
          if (completed != nullptr) completed->push_back(c);
        }
        start = newline + 1;
        newline = conn.in.find('\n', start);
      }
      conn.in.erase(0, start);
    }
  }
}

void LoopbackClient::RunOpenLoop(std::vector<Request>* log,
                                 const std::vector<size_t>& order) {
  size_t next = 0;
  int64_t last_progress = NowNs();
  for (;;) {
    int64_t now = NowNs();
    while (next < order.size() && (*log)[order[next]].due_ns <= now) {
      Send(log, order[next++]);
      now = NowNs();
      last_progress = now;
    }
    const int64_t outstanding = Outstanding();
    if (next == order.size() && outstanding == 0) return;
    if (now - last_progress > kStallNs) return;
    const int64_t wait =
        next < order.size() ? (*log)[order[next]].due_ns - now : kDrainPollNs;
    Pump(log, wait, nullptr);
    if (Outstanding() != outstanding) last_progress = NowNs();
  }
}

void LoopbackClient::RunClosedLoop(
    std::vector<Request>* log, const std::vector<int>& conns, int inflight,
    int64_t end_ns, const std::function<int64_t(int)>& next) {
  auto issue = [&](int conn) {
    if (NowNs() >= end_ns || conns_[conn].broken) return;
    const int64_t index = next(conn);
    if (index >= 0) Send(log, static_cast<size_t>(index));
  };
  for (int conn : conns) {
    for (int k = 0; k < inflight; ++k) issue(conn);
  }
  int64_t last_progress = NowNs();
  std::vector<int> completed;
  while (Outstanding() > 0 && NowNs() - last_progress < kStallNs) {
    completed.clear();
    Pump(log, kDrainPollNs, &completed);
    if (!completed.empty()) last_progress = NowNs();
    for (int conn : completed) issue(conn);
  }
}

bool CheckOkLine(const std::string& line, int64_t id, std::string* why) {
  if (line.empty()) {
    *why = "no response";
    return false;
  }
  const size_t ok = FindValue(line, "ok");
  if (ok == std::string::npos || line.compare(ok, 4, "true") != 0) {
    *why = "not ok: " + line.substr(0, 200);
    return false;
  }
  int64_t echoed = 0;
  if (!ReadInt(line, "id", &echoed) || echoed != id) {
    *why = "response id does not echo request id " + std::to_string(id);
    return false;
  }
  return true;
}

bool CheckObserveResponse(const std::string& line, int64_t id,
                          int64_t expect_steps, std::string* why) {
  if (!CheckOkLine(line, id, why)) return false;
  int64_t steps = 0;
  if (!ReadInt(line, "steps", &steps) || steps != expect_steps) {
    *why = "observe reports steps != " + std::to_string(expect_steps);
    return false;
  }
  return true;
}

bool ParseForecastValues(const std::string& line, std::vector<float>* values,
                         std::string* why) {
  values->clear();
  size_t pos = FindValue(line, "forecast");
  if (pos == std::string::npos || line[pos] != '[') {
    *why = "no forecast array";
    return false;
  }
  int depth = 0;
  const char* text = line.c_str();
  while (pos < line.size()) {
    const char c = text[pos];
    if (c == '[') {
      ++depth;
      ++pos;
    } else if (c == ']') {
      ++pos;
      if (--depth == 0) return true;
    } else if (c == ',' || c == ' ') {
      ++pos;
    } else {
      char* end = nullptr;
      const double value = std::strtod(text + pos, &end);
      if (end == text + pos) {
        *why = "non-numeric forecast value at byte " + std::to_string(pos);
        return false;
      }
      values->push_back(static_cast<float>(value));
      pos = static_cast<size_t>(end - text);
    }
  }
  *why = "unterminated forecast array";
  return false;
}

bool CheckForecastResponse(const std::string& line, int64_t id,
                           int64_t expect_steps, const float* expected,
                           int64_t count, std::string* why) {
  if (!CheckOkLine(line, id, why)) return false;
  int64_t steps = 0;
  if (!ReadInt(line, "steps", &steps) || steps != expect_steps) {
    *why = "forecast reports steps != " + std::to_string(expect_steps);
    return false;
  }
  std::vector<float> values;
  if (!ParseForecastValues(line, &values, why)) return false;
  if (static_cast<int64_t>(values.size()) != count) {
    *why = "forecast has " + std::to_string(values.size()) + " values, want " +
           std::to_string(count);
    return false;
  }
  if (std::memcmp(values.data(), expected, sizeof(float) * count) != 0) {
    for (int64_t i = 0; i < count; ++i) {
      if (std::memcmp(&values[i], &expected[i], sizeof(float)) != 0) {
        *why = "forecast value " + std::to_string(i) + " is " +
               std::to_string(values[i]) + ", the reference replay gives " +
               std::to_string(expected[i]);
        break;
      }
    }
    return false;
  }
  return true;
}

}  // namespace tgbench
