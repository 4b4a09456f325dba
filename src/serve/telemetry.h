// Copyright 2026 TGCRN Reproduction Authors
// Request-level serving telemetry (operator guide: docs/SERVING.md
// "Reading the request telemetry"). Three sinks over one record type,
// the fixed-size RequestTrace the server stamps as a request moves
// through its lifecycle stages:
//
//   read -> parse -> batch_wait -> gather -> kernel -> scatter
//        -> serialize -> flush
//
//  * per-stage log2 histograms in the metric registry
//    (serve.stage_<name>_us), summarized by the extended `stats` op;
//  * a structured JSONL access log (TGCRN_SERVE_ACCESS_LOG=<path>), one
//    line per request, plus a bounded slow-request exemplar ring
//    (requests over TGCRN_SERVE_SLOW_US µs) retrievable via
//    {"op":"stats","view":"slow"} and dumped into the log on
//    shutdown/abort next to the trace/metrics/prof flush;
//  * DriftMonitor — online residual stats (per-horizon MAE/RMSE and
//    observation coverage, matched when observations later arrive for
//    forecasted entities) and periodic graph health on the live
//    adjacency, emitted as {"type":"drift"} lines in the access log.
//
// Arming: telemetry is armed iff TGCRN_SERVE_ACCESS_LOG or
// TGCRN_SERVE_SLOW_US is set. Disarmed, the server's only per-request
// cost is one relaxed load (RpcTracingArmed) — no stamps, no
// recording, bitwise-identical serving. Armed, recording stays free of
// tensor heap allocations: traces live in a preallocated ring, residual
// buffers are plain float vectors sized once per entity, and the access
// log line is formatted into a reused buffer. The graph-health probe
// does allocate tensors — it runs only at drift-emission cadence, never
// per request.
#ifndef TGCRN_SERVE_TELEMETRY_H_
#define TGCRN_SERVE_TELEMETRY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/session.h"

namespace tgcrn {
namespace serve {

// Stage slots of a RequestTrace, in lifecycle order. Each slot holds the
// offset from the request's start at which that stage *completed*; a
// stage's duration is the delta from the previous slot.
enum ServeStage {
  kStageRead = 0,      // request bytes fully received from the socket
  kStageParse,         // JSON parsed, request validated
  kStageBatchWait,     // dispatch reached it (time queued behind the round)
  kStageGather,        // hidden-state gather / input staging done
  kStageKernel,        // encoder/decoder kernel wave done
  kStageScatter,       // state write-back / output copy done
  kStageSerialize,     // response JSON built
  kStageFlush,         // response enqueued + first socket flush attempted
  kServeStageCount
};
const char* ServeStageName(int stage);

// One request's lifecycle as a POD record: an id, a start timestamp, and
// one completion offset per ServeStage.
struct RequestTrace {
  int64_t id = 0;        // client-supplied or server-assigned, unique
  int64_t start_ns = 0;  // steady-clock ns when the request's bytes landed
  int32_t entity_count = 0;
  int32_t batch_width = 0;  // active rows of the kernel wave that served it
  int16_t op = 0;           // ServeOp
  int16_t status = 0;       // 0 = ok, 1 = error
  // Per-stage completion offsets from start_ns; kUnset until stamped.
  // After Finalize(), offsets are monotone non-decreasing: a stage that
  // never ran inherits the previous stage's offset (zero duration).
  int64_t stage_ns[kServeStageCount];

  static constexpr int64_t kUnset = -1;

  RequestTrace() { Reset(); }
  void Reset() {
    id = start_ns = 0;
    entity_count = batch_width = 0;
    op = status = 0;
    for (int64_t& s : stage_ns) s = kUnset;
  }
  // Records `stage` as completed at absolute time `now_ns` (same steady
  // clock as start_ns).
  void Stamp(int stage, int64_t now_ns) {
    stage_ns[stage] = now_ns - start_ns;
  }
  // Carries unset stages forward so every slot holds a monotone
  // non-decreasing offset. Call once, after the last stamp.
  void Finalize() {
    int64_t running = 0;
    for (int64_t& s : stage_ns) {
      if (s < running) {
        s = running;  // unset (or skewed) inherits the previous offset
      } else {
        running = s;
      }
    }
  }
  // Offset of the final stage — the request's total latency once
  // finalized.
  int64_t total_ns() const { return stage_ns[kServeStageCount - 1]; }
};

// Fixed-capacity ring of RequestTrace records, preallocated up front.
// Push never allocates; when full, the oldest record is overwritten (and
// still counted by total()). Single-writer, like the serving loop.
class RpcTraceRing {
 public:
  explicit RpcTraceRing(int capacity)
      : ring_(static_cast<size_t>(capacity > 0 ? capacity : 1)) {}

  void Push(const RequestTrace& trace) {
    ring_[static_cast<size_t>(total_ % capacity())] = trace;
    ++total_;
  }
  int64_t capacity() const { return static_cast<int64_t>(ring_.size()); }
  // Records currently retained (== min(total, capacity)).
  int64_t size() const { return std::min(total_, capacity()); }
  int64_t total() const { return total_; }
  // i = 0 is the oldest retained record, size() - 1 the newest.
  const RequestTrace& At(int64_t i) const {
    const int64_t oldest = total_ - size();
    return ring_[static_cast<size_t>((oldest + i) % capacity())];
  }
  void Clear() { total_ = 0; }

 private:
  std::vector<RequestTrace> ring_;
  int64_t total_ = 0;
};

namespace internal {
extern std::atomic<bool> g_rpc_trace_armed;
}  // namespace internal

// True while an armed ServeTelemetry wants per-request traces.
inline bool RpcTracingArmed() {
  return internal::g_rpc_trace_armed.load(std::memory_order_relaxed);
}

// Op codes stored in RequestTrace::op.
enum ServeOp {
  kOpObserve = 0,
  kOpForecast,
  kOpEvict,
  kOpStats,
  kOpShutdown,
  kOpOther,  // unknown ops and malformed lines
};
const char* ServeOpName(int op);

// Matched residual observations per drift block (a final block is also
// emitted at flush/shutdown).
inline constexpr int64_t kDriftEvery = 256;
// Slow-request exemplar ring size.
inline constexpr int kSlowCapacity = 64;
// Entities whose latest forecast the drift monitor keeps for matching.
inline constexpr int64_t kDriftMaxEntities = 1024;

struct TelemetryConfig {
  std::string access_log_path;  // TGCRN_SERVE_ACCESS_LOG ("" = off)
  int64_t slow_us = 0;          // TGCRN_SERVE_SLOW_US (0 = off)

  static TelemetryConfig FromEnv();
  bool armed() const { return !access_log_path.empty() || slow_us > 0; }
};

// Online forecast-accuracy and graph-drift monitor over served traffic.
// A forecast registers the entity's predicted [Q, N, d] grid; each later
// observation of that entity at encoder step s matches horizon
// h = s - steps_at_forecast (1..Q) and accumulates |err| / err^2 against
// the recorded prediction. Coverage is the fraction of observations in
// the window that matched some outstanding horizon — low coverage means
// forecasts are stale or entities churn faster than they are forecast.
// All recording is tensor-allocation-free; Block() (the emission path)
// runs the graph-health probe, which is not.
class DriftMonitor {
 public:
  explicit DriftMonitor(InferenceSession* session);

  // `grid` is the raw [Q, N, d] forecast row; `steps` the entity's
  // encoder step count when it was made.
  void RecordForecast(const std::string& entity, int64_t steps,
                      const float* grid);
  // `values` is the raw [N, d] observation; `steps` the entity's step
  // count after absorbing it.
  void RecordObservation(const std::string& entity, int64_t steps,
                         int64_t slot, const float* values);

  // True once the window holds kDriftEvery matched observations.
  bool BlockDue() const;
  bool HasData() const { return total_observations_ > 0; }
  // Builds the {"type":"drift", ...} block (per-horizon MAE/RMSE,
  // coverage, live-adjacency graph health) and resets the window.
  obs::Json Block();

 private:
  struct PendingForecast {
    bool valid = false;
    int64_t steps = 0;           // entity steps when forecast
    std::vector<float> grid;     // [Q, N, d], capacity retained
  };

  InferenceSession* session_;
  int64_t q_, n_, d_;
  std::unordered_map<std::string, PendingForecast> pending_;
  // Window accumulators, index = horizon - 1.
  std::vector<int64_t> horizon_count_;
  std::vector<double> horizon_abs_, horizon_sq_;
  int64_t window_observations_ = 0;
  int64_t window_matched_ = 0;
  int64_t total_observations_ = 0;
  int64_t total_matched_ = 0;
  int64_t blocks_emitted_ = 0;
  // Graph probe: the last two consecutive observations of the first
  // entity ever observed (sticky, so interleaved fleets still produce
  // consecutive pairs).
  std::string probe_entity_;
  int probe_depth_ = 0;
  std::vector<float> probe_prev_, probe_last_;
  int64_t probe_prev_slot_ = 0, probe_last_slot_ = 0;
};

// The telemetry sink bundle the server records into.
// Single-threaded like the serving loop. At most one armed instance per
// process (it owns the RpcTracingArmed flag and the observability
// flush hook that makes SIGTERM'd servers leave a complete access log).
class ServeTelemetry {
 public:
  ServeTelemetry(TelemetryConfig config, InferenceSession* session);
  ~ServeTelemetry();

  bool armed() const { return armed_; }
  const TelemetryConfig& config() const { return config_; }

  // Server-assigned monotonic request ids (used when the client did not
  // supply an "id" field).
  int64_t NextRequestId() { return next_id_++; }

  // Finalizes the trace, feeds the stage histograms, appends the access
  // log line, and keeps a slow exemplar if the request crossed
  // TGCRN_SERVE_SLOW_US. `trace` must have its stages stamped in order.
  void RecordRequest(RequestTrace* trace);

  DriftMonitor& drift() { return drift_; }
  // Emits a drift block into the access log when one is due.
  void MaybeEmitDrift();

  // Stage-histogram summary for the stats op:
  // {"read": {"count", "p50_us", "p90_us", "p99_us"}, ...}.
  obs::Json StageStatsJson() const;
  // Slow exemplars (oldest first) for {"op":"stats","view":"slow"}.
  obs::Json SlowRequestsJson() const;
  int64_t slow_count() const { return slow_.total(); }
  int64_t requests_recorded() const { return requests_recorded_; }

  // Final drift block + slow-exemplar dump + access-log close. Runs once
  // (later calls are no-ops); invoked by Server::Run on clean shutdown
  // and by the observability flush hook on abort/SIGTERM.
  void Flush();

  ServeTelemetry(const ServeTelemetry&) = delete;
  ServeTelemetry& operator=(const ServeTelemetry&) = delete;

 private:
  void WriteLogLine(const char* line);
  void WriteLogJson(const obs::Json& json);
  obs::Json TraceJson(const RequestTrace& trace) const;

  TelemetryConfig config_;
  bool armed_ = false;
  std::FILE* log_ = nullptr;
  RpcTraceRing slow_;
  DriftMonitor drift_;
  obs::Histogram* stage_hist_[kServeStageCount] = {};
  int64_t next_id_ = 1;
  int64_t requests_recorded_ = 0;
  bool flushed_ = false;
  std::string line_buffer_;  // reused access-log formatting buffer
};

}  // namespace serve
}  // namespace tgcrn

#endif  // TGCRN_SERVE_TELEMETRY_H_
