// Copyright 2026 TGCRN Reproduction Authors
#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/wire.h"

namespace tgcrn {
namespace serve {
namespace {

// A connection that streams an unbounded line is broken or hostile;
// 32 MiB comfortably holds any observe payload the model could accept.
constexpr size_t kMaxLineBytes = 32ull << 20;

// Ceiling on buffered unsent responses per connection. A reader this far
// behind is stalled or gone — the connection is dropped rather than
// buffering without bound (forecast grids are large, so this is generous:
// thousands of city-scale responses).
constexpr size_t kMaxOutBytes = 128ull << 20;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

obs::Json ErrorLine(const std::string& op, const std::string& message) {
  obs::Json out = obs::Json::Object();
  out.Set("ok", obs::Json::Bool(false));
  if (!op.empty()) out.Set("op", obs::Json::Str(op));
  out.Set("error", obs::Json::Str(message));
  return out;
}

int64_t TensorAllocations() {
  return obs::Registry::Global().GetCounter("tensor.allocations")->Value();
}

int16_t OpCode(const std::string& op) {
  if (op == "observe") return kOpObserve;
  if (op == "forecast") return kOpForecast;
  if (op == "evict") return kOpEvict;
  if (op == "stats") return kOpStats;
  if (op == "shutdown") return kOpShutdown;
  return kOpOther;
}

int64_t NowNs() { return obs::internal::TraceNowNs(); }

// Appends one observe value; false unless it is a number that is finite
// as a float (null, strings, 1e39 and the like are refused, not coerced).
bool AppendValue(const obs::Json& value, std::vector<float>* out) {
  if (!value.is_number()) return false;
  const double v = value.AsDouble();
  if (!std::isfinite(v) ||
      std::fabs(v) > std::numeric_limits<float>::max()) {
    return false;
  }
  out->push_back(static_cast<float>(v));
  return true;
}

// Parses an observe's "values": nested [N][d] rows (the documented form)
// or a flat [N*d] list. Returns the error to answer with, or "" after
// filling `out`. Rows must all be arrays of one length.
std::string ParseObserveValues(const obs::Json& values,
                               std::vector<float>* out) {
  if (!values.is_array() || values.size() == 0) {
    return "observe needs a non-empty values array";
  }
  if (!values.at(0).is_array()) {
    for (size_t i = 0; i < values.size(); ++i) {
      if (!AppendValue(values.at(i), out)) {
        return "observe values[" + std::to_string(i) +
               "] is not a finite number";
      }
    }
    return "";
  }
  const size_t width = values.at(0).size();
  for (size_t row = 0; row < values.size(); ++row) {
    const obs::Json& cols = values.at(row);
    if (!cols.is_array() || cols.size() != width) {
      return "observe values rows must be arrays of one length (row " +
             std::to_string(row) + ")";
    }
    for (size_t col = 0; col < width; ++col) {
      if (!AppendValue(cols.at(col), out)) {
        return "observe values[" + std::to_string(row) + "][" +
               std::to_string(col) + "] is not a finite number";
      }
    }
  }
  return "";
}

}  // namespace

Server::Server(InferenceSession* session, int port, ServeTelemetry* telemetry)
    : session_(session), telemetry_(telemetry), requested_port_(port) {}

Server::~Server() {
  for (size_t i = 0; i < conns_.size(); ++i) CloseConnection(i);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool Server::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(requested_port_));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    *error = std::string("bind: ") + std::strerror(errno);
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    return false;
  }
  SetNonBlocking(listen_fd_);
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  alloc_marker_ = TensorAllocations();
  start_time_ = std::chrono::steady_clock::now();
  return true;
}

void Server::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN — the pending queue is drained
    SetNonBlocking(fd);
    Connection conn;
    conn.fd = fd;
    // Reuse a closed slot so conns_ stays dense-ish under churn.
    size_t slot = conns_.size();
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) {
        slot = i;
        break;
      }
    }
    if (slot == conns_.size()) {
      conns_.push_back(std::move(conn));
    } else {
      conns_[slot] = std::move(conn);
    }
  }
}

void Server::ReadConnection(size_t index) {
  Connection& conn = conns_[index];
  char buf[4096];
  const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
  if (got > 0) {
    if (tracing_) {
      const int64_t now = NowNs();
      // The first bytes after a fully-consumed buffer start a new line
      // (or pipelined run of lines); later recvs extend it.
      if (conn.in.empty()) conn.line_start_ns = now;
      conn.last_recv_ns = now;
    }
    conn.in.append(buf, static_cast<size_t>(got));
    if (conn.in.size() > kMaxLineBytes) CloseConnection(index);
  } else if (got == 0) {
    conn.eof = true;
  } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    CloseConnection(index);
  }
}

void Server::ParseLines(size_t index, std::vector<Request>* requests) {
  Connection& conn = conns_[index];
  size_t start = 0;
  for (;;) {
    const size_t newline = conn.in.find('\n', start);
    if (newline == std::string::npos) break;
    std::string line = conn.in.substr(start, newline - start);
    start = newline + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;

    Request request;
    request.conn = index;
    if (tracing_) {
      request.trace.Reset();
      request.trace.start_ns =
          conn.line_start_ns > 0 ? conn.line_start_ns : conn.last_recv_ns;
      request.trace.Stamp(kStageRead, conn.last_recv_ns);
    }
    obs::Json body;
    std::string parse_error;
    if (!obs::Json::Parse(line, &body, &parse_error) || !body.is_object()) {
      request.error = "malformed JSON: " + parse_error;
      if (tracing_) {
        request.trace.id = telemetry_->NextRequestId();
        request.trace.op = kOpOther;
        request.trace.Stamp(kStageParse, NowNs());
      }
      requests->push_back(std::move(request));
      continue;
    }
    request.op = body.GetString("op");
    request.entity = body.GetString("entity");
    request.slot = body.GetInt("slot");
    request.view = body.GetString("view");
    // Client-supplied request id (any positive integer), echoed in the
    // response and propagated through batching into the access log;
    // otherwise the server assigns a monotonic one.
    request.id = body.GetInt("id");
    request.client_id = request.id > 0;
    if (request.op == "observe") {
      request.error = ParseObserveValues(body["values"], &request.values);
    }
    if (tracing_) {
      request.trace.id =
          request.client_id ? request.id : telemetry_->NextRequestId();
      request.trace.op = OpCode(request.op);
      request.trace.Stamp(kStageParse, NowNs());
    }
    request.valid = request.error.empty();
    requests->push_back(std::move(request));
  }
  conn.in.erase(0, start);
  if (conn.in.empty()) conn.line_start_ns = 0;
}

void Server::SendJson(Request* request, obs::Json out, bool error) {
  if (request->client_id) out.Set("id", obs::Json::Int(request->id));
  const std::string line = out.Dump();
  if (tracing_) {
    request->trace.status = error ? 1 : 0;
    request->trace.Stamp(kStageSerialize, NowNs());
  }
  Respond(request->conn, line);
  if (!tracing_) return;
  request->trace.Stamp(kStageFlush, NowNs());
  telemetry_->RecordRequest(&request->trace);
}

void Server::SendForecast(Request* request, int64_t steps,
                          const float* grid) {
  const core::TGCRNConfig& mc = session_->model_config();
  ForecastLine line;
  line.entity = obs::Json::Escape(request->entity);
  line.grid = grid;
  line.horizon = mc.horizon;
  line.nodes = mc.num_nodes;
  line.dims = mc.output_dim;
  line.steps = steps;
  line.with_id = request->client_id;
  line.id = request->id;
  Connection& c = conns_[request->conn];
  if (c.fd >= 0) {
    // The out-buffer ceiling is checked against the line's size bound
    // before any byte of it is written.
    if (c.pending_out() + ForecastLineBound(line) + 1 > kMaxOutBytes) {
      CloseConnection(request->conn);
    } else {
      AppendForecastLine(line, &c.out);
      c.out.push_back('\n');
    }
  }
  if (tracing_) {
    request->trace.status = 0;
    request->trace.Stamp(kStageSerialize, NowNs());
  }
  FlushOutput(request->conn);
  if (!tracing_) return;
  request->trace.Stamp(kStageFlush, NowNs());
  telemetry_->RecordRequest(&request->trace);
}

void Server::Respond(size_t conn, const std::string& line) {
  Connection& c = conns_[conn];
  if (c.fd < 0) return;
  if (c.pending_out() + line.size() + 1 > kMaxOutBytes) {
    CloseConnection(conn);
    return;
  }
  c.out.append(line);
  c.out.push_back('\n');
  FlushOutput(conn);
}

void Server::FlushOutput(size_t index) {
  Connection& conn = conns_[index];
  while (conn.fd >= 0 && conn.out_off < conn.out.size()) {
    const ssize_t wrote =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (wrote <= 0) {
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;  // socket buffer full — the poll loop retries on POLLOUT
      }
      CloseConnection(index);
      return;
    }
    conn.out_off += static_cast<size_t>(wrote);
  }
  conn.out.clear();
  conn.out_off = 0;
}

void Server::CloseConnection(size_t index) {
  Connection& conn = conns_[index];
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
  conn.in.clear();
  conn.out.clear();
  conn.out_off = 0;
  conn.eof = false;
  conn.line_start_ns = 0;
  conn.last_recv_ns = 0;
}

obs::Json Server::StatsJson(const std::string& view) {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time_)
          .count();
  const obs::HistogramSnapshot lat =
      obs::Registry::Global().GetHistogram("serve.request_us")->Snapshot();
  const int64_t allocs = TensorAllocations();
  const double qps =
      uptime > 0.0 ? static_cast<double>(session_->requests()) / uptime : 0.0;
  obs::Registry::Global().GetGauge("serve.qps")->Set(qps);

  obs::Json out = obs::Json::Object();
  out.Set("ok", obs::Json::Bool(true));
  out.Set("op", obs::Json::Str("stats"));
  out.Set("entities", obs::Json::Int(session_->EntityCount()));
  out.Set("requests", obs::Json::Int(session_->requests()));
  out.Set("p50_us", obs::Json::Int(lat.ApproxQuantile(0.5)));
  out.Set("p99_us", obs::Json::Int(lat.ApproxQuantile(0.99)));
  out.Set("mean_us", obs::Json::Number(lat.Mean()));
  out.Set("qps", obs::Json::Number(qps));
  out.Set("uptime_s", obs::Json::Number(uptime));
  // Tensor heap allocations since the previous stats op — the wire-level
  // view of the zero-alloc steady state (0 once every client entity is
  // warm and shapes have stabilized; pinned by serve_server_test).
  out.Set("tensor_allocations_delta", obs::Json::Int(allocs - alloc_marker_));
  alloc_marker_ = allocs;

  // Entity-cache health (counters live in the metric registry and are
  // cumulative over the process).
  obs::Registry& reg = obs::Registry::Global();
  obs::Json cache = obs::Json::Object();
  cache.Set("hits", obs::Json::Int(reg.GetCounter("serve.cache_hits")->Value()));
  cache.Set("misses",
            obs::Json::Int(reg.GetCounter("serve.cache_misses")->Value()));
  cache.Set("evictions",
            obs::Json::Int(reg.GetCounter("serve.evictions")->Value()));
  const obs::HistogramSnapshot age =
      reg.GetHistogram("serve.eviction_age_ticks")->Snapshot();
  cache.Set("eviction_age_p50_ticks", obs::Json::Int(age.ApproxQuantile(0.5)));
  out.Set("cache", std::move(cache));

  if (telemetry_ != nullptr && telemetry_->armed()) {
    out.Set("stages", telemetry_->StageStatsJson());
    out.Set("requests_logged", obs::Json::Int(telemetry_->requests_recorded()));
    out.Set("slow_count", obs::Json::Int(telemetry_->slow_count()));
    if (view == "slow") out.Set("slow_requests", telemetry_->SlowRequestsJson());
  }
  return out;
}

void Server::Dispatch(std::vector<Request>* requests) {
  const core::TGCRNConfig& mc = session_->model_config();
  size_t i = 0;
  while (i < requests->size()) {
    Request& request = (*requests)[i];
    if (!request.valid) {
      if (tracing_) request.trace.Stamp(kStageBatchWait, NowNs());
      SendJson(&request, ErrorLine(request.op, request.error),
               /*error=*/true);
      ++i;
      continue;
    }
    if (request.op == "observe") {
      // Batch the maximal run of valid observes; the session chunks it
      // into kernel waves and keeps per-entity ordering.
      size_t end = i;
      std::vector<Observation> batch;
      while (end < requests->size() && (*requests)[end].valid &&
             (*requests)[end].op == "observe") {
        Request& r = (*requests)[end];
        if (r.entity.empty() ||
            static_cast<int64_t>(r.values.size()) !=
                mc.num_nodes * mc.input_dim ||
            r.slot < 0 || r.slot >= mc.steps_per_day) {
          break;
        }
        Observation ob;
        ob.entity = r.entity;
        ob.slot = r.slot;
        ob.values = std::move(r.values);
        batch.push_back(std::move(ob));
        ++end;
      }
      if (batch.empty()) {
        if (tracing_) request.trace.Stamp(kStageBatchWait, NowNs());
        SendJson(&request,
                 ErrorLine("observe",
                           "observe needs entity, slot in [0, steps_per_day) "
                           "and N*d values"),
                 /*error=*/true);
        ++i;
        continue;
      }
      if (tracing_) {
        const int64_t now = NowNs();
        for (size_t k = i; k < end; ++k) {
          (*requests)[k].trace.Stamp(kStageBatchWait, now);
        }
      }
      const InferenceSession::ObserveResult result =
          session_->Observe(batch);
      for (size_t k = 0; k < batch.size(); ++k) {
        Request& r = (*requests)[i + k];
        if (tracing_) {
          const WaveTiming& wave =
              session_->wave_timings()[result.wave_index[k]];
          r.trace.entity_count = 1;
          r.trace.batch_width = static_cast<int32_t>(wave.active);
          r.trace.Stamp(kStageGather, wave.gather_end_ns);
          r.trace.Stamp(kStageKernel, wave.kernel_end_ns);
          r.trace.Stamp(kStageScatter, wave.scatter_end_ns);
          telemetry_->drift().RecordObservation(batch[k].entity,
                                                result.steps[k], batch[k].slot,
                                                batch[k].values.data());
        }
        obs::Json out = obs::Json::Object();
        out.Set("ok", obs::Json::Bool(true));
        out.Set("op", obs::Json::Str("observe"));
        out.Set("entity", obs::Json::Str(batch[k].entity));
        out.Set("steps", obs::Json::Int(result.steps[k]));
        SendJson(&r, std::move(out), /*error=*/false);
      }
      if (tracing_) telemetry_->MaybeEmitDrift();
      i = end;
    } else if (request.op == "forecast") {
      // Batch the run, answering cold/unknown entities with errors and
      // the warm remainder from one batched Forecast call.
      size_t end = i;
      while (end < requests->size() && (*requests)[end].valid &&
             (*requests)[end].op == "forecast") {
        ++end;
      }
      if (tracing_) {
        const int64_t now = NowNs();
        for (size_t k = i; k < end; ++k) {
          (*requests)[k].trace.Stamp(kStageBatchWait, now);
        }
      }
      std::vector<size_t> warm;
      for (size_t k = i; k < end; ++k) {
        if (session_->StepsFor((*requests)[k].entity) > 0) warm.push_back(k);
      }
      Tensor forecasts;
      std::vector<int64_t> steps;
      if (!warm.empty()) {
        std::vector<std::string> names;
        names.reserve(warm.size());
        for (size_t k : warm) names.push_back((*requests)[k].entity);
        session_->Forecast(names, &forecasts, &steps);
      }
      size_t warm_index = 0;
      for (size_t k = i; k < end; ++k) {
        Request& r = (*requests)[k];
        if (warm_index < warm.size() && warm[warm_index] == k) {
          const float* row = forecasts.data() +
                             static_cast<int64_t>(warm_index) * mc.horizon *
                                 mc.num_nodes * mc.output_dim;
          if (tracing_) {
            // Forecast waves are contiguous chunks of kWaveMax rows.
            const size_t ordinal = warm_index / static_cast<size_t>(kWaveMax);
            const WaveTiming& wave = session_->wave_timings()[ordinal];
            r.trace.entity_count = 1;
            r.trace.batch_width = static_cast<int32_t>(wave.active);
            r.trace.Stamp(kStageGather, wave.gather_end_ns);
            r.trace.Stamp(kStageKernel, wave.kernel_end_ns);
            r.trace.Stamp(kStageScatter, wave.scatter_end_ns);
            telemetry_->drift().RecordForecast(r.entity, steps[warm_index],
                                               row);
          }
          SendForecast(&r, steps[warm_index], row);
          ++warm_index;
        } else {
          SendJson(&r,
                   ErrorLine("forecast", "entity " + r.entity +
                                             " has no observations (send "
                                             "observe first)"),
                   /*error=*/true);
        }
      }
      i = end;
    } else if (request.op == "evict") {
      if (tracing_) {
        request.trace.Stamp(kStageBatchWait, NowNs());
        request.trace.entity_count = 1;
      }
      const bool existed = session_->Evict(request.entity);
      obs::Json out = obs::Json::Object();
      out.Set("ok", obs::Json::Bool(true));
      out.Set("op", obs::Json::Str("evict"));
      out.Set("entity", obs::Json::Str(request.entity));
      out.Set("existed", obs::Json::Bool(existed));
      SendJson(&request, std::move(out), /*error=*/false);
      ++i;
    } else if (request.op == "stats") {
      if (tracing_) request.trace.Stamp(kStageBatchWait, NowNs());
      SendJson(&request, StatsJson(request.view), /*error=*/false);
      ++i;
    } else if (request.op == "shutdown") {
      if (tracing_) request.trace.Stamp(kStageBatchWait, NowNs());
      obs::Json out = obs::Json::Object();
      out.Set("ok", obs::Json::Bool(true));
      out.Set("op", obs::Json::Str("shutdown"));
      SendJson(&request, std::move(out), /*error=*/false);
      shutdown_ = true;
      return;  // drop anything queued after the shutdown
    } else {
      if (tracing_) request.trace.Stamp(kStageBatchWait, NowNs());
      SendJson(&request,
               ErrorLine(request.op,
                         "unknown op (observe|forecast|evict|stats|shutdown)"),
               /*error=*/true);
      ++i;
    }
  }
}

void Server::Run() {
  while (!shutdown_ && !stop_.load(std::memory_order_relaxed)) {
    // One relaxed load per round decides whether this round stamps
    // traces; disarmed serving takes no other telemetry branches.
    tracing_ = telemetry_ != nullptr && RpcTracingArmed();
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    std::vector<size_t> fd_conn;  // fds[1 + j] belongs to conns_[fd_conn[j]]
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) continue;
      const short events =
          POLLIN | (conns_[i].pending_out() > 0 ? POLLOUT : 0);
      fds.push_back({conns_[i].fd, events, 0});
      fd_conn.push_back(i);
    }
    const int ready = ::poll(fds.data(), fds.size(), 200 /*ms*/);
    if (ready <= 0) continue;

    if (fds[0].revents & POLLIN) AcceptNew();
    std::vector<Request> requests;
    for (size_t j = 0; j < fd_conn.size(); ++j) {
      const size_t index = fd_conn[j];
      if (fds[1 + j].revents & POLLOUT) FlushOutput(index);
      if (conns_[index].fd >= 0 &&
          (fds[1 + j].revents & (POLLIN | POLLHUP | POLLERR))) {
        ReadConnection(index);
        if (conns_[index].fd >= 0) ParseLines(index, &requests);
      }
    }
    Dispatch(&requests);
    for (size_t i = 0; i < conns_.size(); ++i) {
      // A half-closed peer may still be reading: hold the connection
      // until its buffered responses drain (or error out).
      if (conns_[i].fd >= 0 && conns_[i].eof &&
          conns_[i].pending_out() == 0) {
        CloseConnection(i);
      }
    }
  }

  // Best-effort drain of buffered responses (the shutdown ack, plus
  // anything a slow reader still owes) — bounded so a stalled peer
  // cannot block process exit.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<size_t> fd_conn;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0 || conns_[i].pending_out() == 0) continue;
      fds.push_back({conns_[i].fd, POLLOUT, 0});
      fd_conn.push_back(i);
    }
    if (fds.empty() || std::chrono::steady_clock::now() >= deadline) break;
    if (::poll(fds.data(), fds.size(), 100 /*ms*/) <= 0) continue;
    for (size_t j = 0; j < fd_conn.size(); ++j) {
      if (fds[j].revents & (POLLOUT | POLLHUP | POLLERR)) {
        FlushOutput(fd_conn[j]);
      }
    }
  }

  // Whatever ended the loop (shutdown op, RequestStop from a signal
  // handler), leave a complete access log: final drift block, slow
  // exemplars, close. Idempotent — the abort flush hook may also run.
  if (telemetry_ != nullptr) telemetry_->Flush();
}

}  // namespace serve
}  // namespace tgcrn
