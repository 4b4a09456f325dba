// Copyright 2026 TGCRN Reproduction Authors
#include "serve/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "common/flags.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace tgcrn {
namespace serve {

namespace internal {
std::atomic<bool> g_rpc_trace_armed{false};
}  // namespace internal

namespace {

const char* const kStageNames[kServeStageCount] = {
    "read",   "parse",   "batch_wait", "gather",
    "kernel", "scatter", "serialize",  "flush",
};

const char* const kOpNames[] = {
    "observe", "forecast", "evict", "stats", "shutdown", "other",
};

// The single armed telemetry instance, reachable from the observability
// flush hook (abort path / SIGTERM) without plumbing a pointer there.
ServeTelemetry* g_active_telemetry = nullptr;

void FlushActiveTelemetry() {
  if (g_active_telemetry != nullptr) g_active_telemetry->Flush();
}

}  // namespace

const char* ServeStageName(int stage) {
  return stage >= 0 && stage < kServeStageCount ? kStageNames[stage]
                                                : "unknown";
}

const char* ServeOpName(int op) {
  return op >= kOpObserve && op <= kOpOther ? kOpNames[op] : "other";
}

TelemetryConfig TelemetryConfig::FromEnv() {
  TelemetryConfig config;
  const char* path = std::getenv("TGCRN_SERVE_ACCESS_LOG");
  if (path != nullptr) config.access_log_path = path;
  config.slow_us = EnvIntOrDie<int64_t>(
      "TGCRN_SERVE_SLOW_US", std::getenv("TGCRN_SERVE_SLOW_US"),
      config.slow_us, 0);
  return config;
}

// ------------------------------------------------------- DriftMonitor --

DriftMonitor::DriftMonitor(InferenceSession* session) : session_(session) {
  const core::TGCRNConfig& mc = session_->model_config();
  q_ = mc.horizon;
  n_ = mc.num_nodes;
  d_ = mc.output_dim;
  // Residual matching compares observed [N, input_dim] against forecast
  // [N, output_dim] channels pairwise; with asymmetric dims only the
  // graph probe and coverage denominators stay meaningful.
  horizon_count_.assign(static_cast<size_t>(q_), 0);
  horizon_abs_.assign(static_cast<size_t>(q_), 0.0);
  horizon_sq_.assign(static_cast<size_t>(q_), 0.0);
}

void DriftMonitor::RecordForecast(const std::string& entity, int64_t steps,
                                  const float* grid) {
  auto it = pending_.find(entity);
  if (it == pending_.end()) {
    if (static_cast<int64_t>(pending_.size()) >= kDriftMaxEntities) return;
    it = pending_.emplace(entity, PendingForecast{}).first;
  }
  PendingForecast& pending = it->second;
  pending.steps = steps;
  pending.grid.assign(grid, grid + q_ * n_ * d_);
  pending.valid = true;
}

void DriftMonitor::RecordObservation(const std::string& entity,
                                     int64_t steps, int64_t slot,
                                     const float* values) {
  ++window_observations_;
  ++total_observations_;

  // Graph probe: keep the last two consecutive readings of the first
  // entity ever observed.
  if (probe_entity_.empty()) probe_entity_ = entity;
  if (entity == probe_entity_) {
    const core::TGCRNConfig& mc = session_->model_config();
    const size_t nd = static_cast<size_t>(mc.num_nodes * mc.input_dim);
    if (probe_depth_ > 0) {
      probe_prev_.swap(probe_last_);
      probe_prev_slot_ = probe_last_slot_;
    }
    probe_last_.assign(values, values + nd);
    probe_last_slot_ = slot;
    if (probe_depth_ < 2) ++probe_depth_;
  }

  auto it = pending_.find(entity);
  if (it == pending_.end() || !it->second.valid) return;
  const PendingForecast& pending = it->second;
  const int64_t horizon = steps - pending.steps;
  if (horizon >= 1 && horizon <= q_ &&
      session_->model_config().input_dim == d_) {
    const float* row = pending.grid.data() + (horizon - 1) * n_ * d_;
    double abs_sum = 0.0, sq_sum = 0.0;
    for (int64_t j = 0; j < n_ * d_; ++j) {
      const double err = static_cast<double>(values[j]) - row[j];
      abs_sum += std::fabs(err);
      sq_sum += err * err;
    }
    const double scale = 1.0 / static_cast<double>(n_ * d_);
    horizon_abs_[horizon - 1] += abs_sum * scale;
    horizon_sq_[horizon - 1] += sq_sum * scale;
    ++horizon_count_[horizon - 1];
    ++window_matched_;
    ++total_matched_;
  }
  // Past the last horizon the forecast has nothing left to match.
  if (horizon >= q_) it->second.valid = false;
}

bool DriftMonitor::BlockDue() const {
  return window_matched_ >= kDriftEvery;
}

obs::Json DriftMonitor::Block() {
  obs::Json block = obs::Json::Object();
  block.Set("type", obs::Json::Str("drift"));
  block.Set("block", obs::Json::Int(blocks_emitted_));
  block.Set("observations", obs::Json::Int(window_observations_));
  block.Set("matched", obs::Json::Int(window_matched_));
  block.Set("coverage",
            obs::Json::Number(
                window_observations_ > 0
                    ? static_cast<double>(window_matched_) /
                          static_cast<double>(window_observations_)
                    : 0.0));
  block.Set("total_observations", obs::Json::Int(total_observations_));
  block.Set("total_matched", obs::Json::Int(total_matched_));
  obs::Json horizons = obs::Json::Array();
  for (int64_t h = 1; h <= q_; ++h) {
    const int64_t count = horizon_count_[h - 1];
    obs::Json row = obs::Json::Object();
    row.Set("h", obs::Json::Int(h));
    row.Set("count", obs::Json::Int(count));
    row.Set("mae", obs::Json::Number(
                       count > 0 ? horizon_abs_[h - 1] / count : 0.0));
    row.Set("rmse",
            obs::Json::Number(
                count > 0 ? std::sqrt(horizon_sq_[h - 1] / count) : 0.0));
    horizons.Append(std::move(row));
  }
  block.Set("horizons", std::move(horizons));
  // Live-adjacency graph health from the probe pair (allocates; this is
  // the emission path, not the per-request path).
  obs::GraphHealthReport graph;
  if (probe_depth_ == 2 &&
      session_->CollectLiveGraphHealth(probe_prev_.data(), probe_prev_slot_,
                                       probe_last_.data(), probe_last_slot_,
                                       &graph)) {
    block.Set("graph", graph.ToJson());
  } else {
    block.Set("graph", obs::Json::Null());
  }

  std::fill(horizon_count_.begin(), horizon_count_.end(), 0);
  std::fill(horizon_abs_.begin(), horizon_abs_.end(), 0.0);
  std::fill(horizon_sq_.begin(), horizon_sq_.end(), 0.0);
  window_observations_ = 0;
  window_matched_ = 0;
  ++blocks_emitted_;
  return block;
}

// ----------------------------------------------------- ServeTelemetry --

ServeTelemetry::ServeTelemetry(TelemetryConfig config,
                               InferenceSession* session)
    : config_(std::move(config)),
      armed_(config_.armed()),
      slow_(kSlowCapacity),
      drift_(session) {
  for (int s = 0; s < kServeStageCount; ++s) {
    stage_hist_[s] = obs::Registry::Global().GetHistogram(
        std::string("serve.stage_") + kStageNames[s] + "_us");
  }
  line_buffer_.reserve(1024);
  if (!armed_) return;
  if (!config_.access_log_path.empty()) {
    log_ = std::fopen(config_.access_log_path.c_str(), "w");
    if (log_ == nullptr) {
      std::fprintf(stderr, "[serve] cannot open access log %s\n",
                   config_.access_log_path.c_str());
    }
  }
  TGCRN_CHECK(g_active_telemetry == nullptr)
      << "one armed ServeTelemetry per process";
  g_active_telemetry = this;
  internal::g_rpc_trace_armed.store(true, std::memory_order_relaxed);
  obs::RegisterFlushHook(&FlushActiveTelemetry);
}

ServeTelemetry::~ServeTelemetry() {
  Flush();
  if (g_active_telemetry == this) {
    obs::UnregisterFlushHook(&FlushActiveTelemetry);
    internal::g_rpc_trace_armed.store(false, std::memory_order_relaxed);
    g_active_telemetry = nullptr;
  }
}

void ServeTelemetry::WriteLogLine(const char* line) {
  if (log_ == nullptr) return;
  std::fputs(line, log_);
  std::fputc('\n', log_);
}

void ServeTelemetry::WriteLogJson(const obs::Json& json) {
  if (log_ == nullptr) return;
  WriteLogLine(json.Dump().c_str());
  std::fflush(log_);  // cold path (drift blocks, exemplar dump)
}

void ServeTelemetry::RecordRequest(RequestTrace* trace) {
  trace->Finalize();
  ++requests_recorded_;
  int64_t prev_ns = 0;
  for (int s = 0; s < kServeStageCount; ++s) {
    stage_hist_[s]->Observe((trace->stage_ns[s] - prev_ns) / 1000);
    prev_ns = trace->stage_ns[s];
  }
  if (log_ != nullptr) {
    char line[768];
    std::snprintf(
        line, sizeof(line),
        "{\"type\":\"request\",\"id\":%lld,\"op\":\"%s\","
        "\"status\":\"%s\",\"entities\":%d,\"batch\":%d,"
        "\"stage_us\":{\"read\":%lld,\"parse\":%lld,\"batch_wait\":%lld,"
        "\"gather\":%lld,\"kernel\":%lld,\"scatter\":%lld,"
        "\"serialize\":%lld,\"flush\":%lld},\"total_us\":%lld}",
        static_cast<long long>(trace->id), ServeOpName(trace->op),
        trace->status == 0 ? "ok" : "error", trace->entity_count,
        trace->batch_width,
        static_cast<long long>(trace->stage_ns[kStageRead] / 1000),
        static_cast<long long>(trace->stage_ns[kStageParse] / 1000),
        static_cast<long long>(trace->stage_ns[kStageBatchWait] / 1000),
        static_cast<long long>(trace->stage_ns[kStageGather] / 1000),
        static_cast<long long>(trace->stage_ns[kStageKernel] / 1000),
        static_cast<long long>(trace->stage_ns[kStageScatter] / 1000),
        static_cast<long long>(trace->stage_ns[kStageSerialize] / 1000),
        static_cast<long long>(trace->stage_ns[kStageFlush] / 1000),
        static_cast<long long>(trace->total_ns() / 1000));
    WriteLogLine(line);
  }
  if (config_.slow_us > 0 && trace->total_ns() / 1000 >= config_.slow_us) {
    slow_.Push(*trace);
  }
}

void ServeTelemetry::MaybeEmitDrift() {
  if (log_ != nullptr && drift_.BlockDue()) WriteLogJson(drift_.Block());
}

obs::Json ServeTelemetry::TraceJson(const RequestTrace& trace) const {
  obs::Json out = obs::Json::Object();
  out.Set("id", obs::Json::Int(trace.id));
  out.Set("op", obs::Json::Str(ServeOpName(trace.op)));
  out.Set("status", obs::Json::Str(trace.status == 0 ? "ok" : "error"));
  out.Set("entities", obs::Json::Int(trace.entity_count));
  out.Set("batch", obs::Json::Int(trace.batch_width));
  obs::Json stages = obs::Json::Object();
  for (int s = 0; s < kServeStageCount; ++s) {
    stages.Set(kStageNames[s], obs::Json::Int(trace.stage_ns[s] / 1000));
  }
  out.Set("stage_us", std::move(stages));
  out.Set("total_us", obs::Json::Int(trace.total_ns() / 1000));
  return out;
}

obs::Json ServeTelemetry::StageStatsJson() const {
  obs::Json out = obs::Json::Object();
  for (int s = 0; s < kServeStageCount; ++s) {
    const obs::HistogramSnapshot snap = stage_hist_[s]->Snapshot();
    obs::Json stage = obs::Json::Object();
    stage.Set("count", obs::Json::Int(snap.count));
    stage.Set("p50_us", obs::Json::Int(snap.ApproxQuantile(0.5)));
    stage.Set("p90_us", obs::Json::Int(snap.ApproxQuantile(0.9)));
    stage.Set("p99_us", obs::Json::Int(snap.ApproxQuantile(0.99)));
    out.Set(kStageNames[s], std::move(stage));
  }
  return out;
}

obs::Json ServeTelemetry::SlowRequestsJson() const {
  obs::Json out = obs::Json::Array();
  for (int64_t i = 0; i < slow_.size(); ++i) {
    obs::Json entry = TraceJson(slow_.At(i));
    entry.Set("type", obs::Json::Str("slow"));
    out.Append(std::move(entry));
  }
  return out;
}

void ServeTelemetry::Flush() {
  if (flushed_) return;
  flushed_ = true;
  if (log_ != nullptr) {
    // Final drift block, then the retained slow exemplars — the "dump on
    // shutdown/abort next to the metrics/prof flush" contract.
    if (drift_.HasData()) WriteLogJson(drift_.Block());
    for (int64_t i = 0; i < slow_.size(); ++i) {
      obs::Json entry = TraceJson(slow_.At(i));
      entry.Set("type", obs::Json::Str("slow"));
      WriteLogLine(entry.Dump().c_str());
    }
    std::fflush(log_);
    std::fclose(log_);
    log_ = nullptr;
  }
}

}  // namespace serve
}  // namespace tgcrn
