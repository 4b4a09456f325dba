// Copyright 2026 TGCRN Reproduction Authors
// Load generation over the loopback socket: one client thread, a few
// connections, the serve line protocol (docs/SERVING.md). Requests are
// logged with their due, send and receive times and their raw response
// line; the checks below give one verdict per request.
#ifndef TGBENCH_LOADGEN_H_
#define TGBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace tgbench {

enum class Op { kObserve, kForecast, kStats };

// One request the client sent, and what it expects back.
struct Request {
  Op op = Op::kObserve;
  int conn = 0;
  int entity = -1;           // -1 for stats
  int phase = 0;             // caller-defined phase tag
  int64_t id = 0;            // client id, echoed in the response
  int64_t row = -1;          // observe: data row holding the values
  int64_t slot = 0;          // observe: slot of day
  int64_t expect_steps = 0;  // observe/forecast: entity steps to report
  int64_t due_ns = 0;        // open loop: scheduled send time
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;       // 0 until the response arrived
  std::string line;          // request line; cleared once sent
  std::string response;      // response line
};

class LoopbackClient {
 public:
  LoopbackClient() = default;
  ~LoopbackClient();
  LoopbackClient(const LoopbackClient&) = delete;
  LoopbackClient& operator=(const LoopbackClient&) = delete;

  // Opens `connections` TCP connections to 127.0.0.1:port.
  bool Connect(int port, int connections, std::string* error);

  // Open loop: sends log[order[i]] at its due_ns regardless of responses
  // (order is by due time), and returns once every request has its
  // response or nothing arrived for kStallSeconds.
  void RunOpenLoop(std::vector<Request>* log, const std::vector<size_t>& order);

  // Closed loop: keeps up to `inflight` requests outstanding on each of
  // `conns`. next(conn) appends that connection's next request to the log
  // and returns its index, or -1 when the connection has no more to send.
  // No request is issued at or after end_ns; outstanding ones are drained.
  void RunClosedLoop(std::vector<Request>* log, const std::vector<int>& conns,
                     int inflight, int64_t end_ns,
                     const std::function<int64_t(int conn)>& next);

  // Response lines that arrived with no request outstanding on their
  // connection (each one breaks the one-response-per-request contract).
  int64_t unexpected_lines() const { return unexpected_lines_; }

  // Giving up on a connection after this long without progress.
  static constexpr double kStallSeconds = 20.0;

 private:
  struct Conn {
    int fd = -1;
    std::string in;              // unparsed response bytes
    std::deque<size_t> pending;  // log indices awaiting a response, in order
    bool broken = false;
  };
  void Send(std::vector<Request>* log, size_t index);
  // Waits up to timeout_ns for responses and files each complete line
  // against its connection's oldest pending request; appends the
  // connection of every filed line to *completed (when non-null).
  void Pump(std::vector<Request>* log, int64_t timeout_ns,
            std::vector<int>* completed);
  int64_t Outstanding() const;

  std::vector<Conn> conns_;
  int64_t unexpected_lines_ = 0;
};

// --- Response checks (each returns false with *why set on a mismatch) ---

// An {"ok":true,...} line echoing `id`.
bool CheckOkLine(const std::string& line, int64_t id, std::string* why);
// An ok observe response reporting `expect_steps` entity steps.
bool CheckObserveResponse(const std::string& line, int64_t id,
                          int64_t expect_steps, std::string* why);
// Every number of the response's "forecast" grid, in order, as the float
// it round-trips to.
bool ParseForecastValues(const std::string& line, std::vector<float>* values,
                         std::string* why);
// An ok forecast response reporting `expect_steps` whose grid equals
// expected[0..count) bit for bit.
bool CheckForecastResponse(const std::string& line, int64_t id,
                           int64_t expect_steps, const float* expected,
                           int64_t count, std::string* why);

}  // namespace tgbench

#endif  // TGBENCH_LOADGEN_H_
