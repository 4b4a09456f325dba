// Copyright 2026 TGCRN Reproduction Authors
// Newline-delimited-JSON forecast server over TCP (the tgcrn_serve tool).
// One request per line, one JSON response line per request, in request
// order per connection (protocol spec: docs/SERVING.md "Line protocol").
//
// The server is a single-threaded poll() loop: readable sockets are
// drained, complete lines are parsed, and the round's requests are
// handed to the InferenceSession in arrival order — consecutive runs of
// the same op form one batched call, which is where micro-batching
// happens (the session splits runs into kernel waves of at most
// kWaveMax rows). Single-threading keeps the zero-alloc steady state
// trivially sound (one wave in flight) while the batched kernels still
// use the global thread pool for intra-wave parallelism. Sockets
// are non-blocking: responses a peer is slow to read are buffered per
// connection (bounded) and flushed on POLLOUT, so one stalled client
// cannot wedge the loop for everyone else.
//
// Telemetry: when a ServeTelemetry is attached and armed, every request
// carries a RequestTrace — id (client "id" field or server-assigned
// monotonic, propagated through batching) plus per-stage timestamps
// (read/parse/batch_wait/gather/kernel/scatter/serialize/flush) — and
// completed traces land in the stage histograms, the slow-request ring
// and the access log (docs/SERVING.md "Reading the request telemetry").
// Disarmed, the per-request cost is one relaxed load.
#ifndef TGCRN_SERVE_SERVER_H_
#define TGCRN_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/session.h"
#include "serve/telemetry.h"

namespace tgcrn {
namespace serve {

class Server {
 public:
  // `session` and `telemetry` are borrowed and must outlive the server;
  // `telemetry` may be null (or disarmed) for a telemetry-free server.
  // `port` 0 binds an ephemeral port (reported by port() after Start) —
  // the test/CI hook.
  Server(InferenceSession* session, int port,
         ServeTelemetry* telemetry = nullptr);
  ~Server();

  // Binds and listens on 127.0.0.1. False (with *error filled) on any
  // socket failure.
  bool Start(std::string* error);
  int port() const { return port_; }

  // Serves until a {"op":"shutdown"} request arrives or RequestStop is
  // called. Blocks. On exit, flushes the attached telemetry (the access
  // log closes complete even without a shutdown op).
  void Run();

  // Asks Run() to return after the current poll round. Async-signal-safe
  // (one atomic store) — the SIGTERM/SIGINT path of tgcrn_serve.
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

 private:
  struct Connection {
    int fd = -1;       // non-blocking once accepted
    std::string in;    // unparsed bytes (partial trailing line)
    std::string out;   // unsent response bytes (flushed on POLLOUT)
    size_t out_off = 0;  // sent prefix of `out`
    bool eof = false;
    // Tracing: when the current unparsed bytes began arriving / the last
    // successful recv — a parsed line's start and read stamps.
    int64_t line_start_ns = 0;
    int64_t last_recv_ns = 0;

    size_t pending_out() const { return out.size() - out_off; }
  };
  struct Request {
    size_t conn = 0;   // index into conns_
    bool valid = false;
    std::string error;
    std::string op;
    std::string entity;
    std::string view;  // stats sub-view ("slow")
    int64_t slot = 0;
    int64_t id = 0;          // client-supplied "id" (0 = none)
    bool client_id = false;  // echo `id` in the response
    std::vector<float> values;  // observe payload, flattened [N*d]
    RequestTrace trace;         // stamped only while tracing is armed
  };

  void AcceptNew();
  void ReadConnection(size_t index);
  // Splits complete lines off conns_[index].in into parsed requests.
  void ParseLines(size_t index, std::vector<Request>* requests);
  // Executes a round's requests in order, batching same-op runs, and
  // queues one response line per request.
  void Dispatch(std::vector<Request>* requests);
  // Serializes `out` (echoing a client id), queues it, stamps the
  // serialize/flush stages, and records the completed trace.
  void SendJson(Request* request, obs::Json out, bool error);
  // SendJson for a forecast answer, streamed by serve/wire.h's writer
  // straight into the connection's out buffer: the [Q, N, D] `grid`.
  void SendForecast(Request* request, int64_t steps, const float* grid);
  // Queues one response line and flushes as much buffered output as the
  // (non-blocking) socket accepts; the poll loop retries the remainder
  // on POLLOUT, so a stalled reader never blocks the serving thread.
  void Respond(size_t conn, const std::string& line);
  void FlushOutput(size_t index);
  void CloseConnection(size_t index);
  obs::Json StatsJson(const std::string& view);

  InferenceSession* session_;
  ServeTelemetry* telemetry_;
  int requested_port_;
  int port_ = 0;
  int listen_fd_ = -1;
  bool shutdown_ = false;
  std::atomic<bool> stop_{false};
  bool tracing_ = false;  // this round: telemetry attached and armed
  std::vector<Connection> conns_;
  int64_t alloc_marker_ = 0;  // tensor.allocations at the last stats op
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace serve
}  // namespace tgcrn

#endif  // TGCRN_SERVE_SERVER_H_
