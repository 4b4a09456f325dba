// Copyright 2026 TGCRN Reproduction Authors
// CLI: serve forecasts from a trained checkpoint over newline-delimited
// JSON on a TCP socket. Operator guide: docs/SERVING.md.
//
// Usage:
//   tgcrn_serve --ckpt model.ckpt [--graph-topk K] [--port PORT]
//       [--threads T] [--prof serve.prof.json]
//
// The checkpoint written by train_model --save is the whole model: its
// config, parameters and fitted scaler (docs/SERVING.md "Checkpoint
// format"). --graph-topk overrides the trained top-k sparsity.
#include <csignal>
#include <cstdio>
#include <string>
#include <utility>

#include "common/flags.h"
#include "common/thread_pool.h"
#include "core/checkpoint.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/telemetry.h"

namespace {

// SIGTERM/SIGINT ask the poll loop to stop after the current round, so a
// killed server still drains buffers and flushes its telemetry (access
// log, registry dump) through the same path a shutdown op takes.
tgcrn::serve::Server* g_server = nullptr;

void HandleStopSignal(int /*signum*/) {
  if (g_server != nullptr) g_server->RequestStop();  // one atomic store
}

}  // namespace

int main(int argc, char** argv) {
  std::string ckpt_path;
  int64_t graph_topk = -1;  // -1 = the checkpoint's trained k
  int port = 0;             // 0 = ephemeral (printed once listening)
  int threads = 0;          // 0 = TGCRN_NUM_THREADS env or hw concurrency
  std::string prof_path;
  tgcrn::Flags flags;
  flags.Add("--ckpt", &ckpt_path)
      .Add("--graph-topk", &graph_topk)
      .Add("--port", &port)
      .Add("--threads", &threads)
      .Add("--prof", &prof_path);
  if (!flags.Parse(argc, argv, 1) || ckpt_path.empty() || port < 0 ||
      port > 65535) {
    std::fprintf(stderr,
                 "usage: %s --ckpt model.ckpt [--graph-topk K] "
                 "[--port PORT] [--threads T]\n"
                 "  [--prof serve.prof.json]\n"
                 "protocol + operations guide: docs/SERVING.md\n",
                 argv[0]);
    return 2;
  }
  if (threads > 0) tgcrn::common::SetNumThreads(threads);

  auto loaded = tgcrn::core::LoadCheckpoint(ckpt_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "checkpoint load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  tgcrn::core::Checkpoint checkpoint = std::move(loaded).ValueOrDie();
  tgcrn::core::TGCRN& model = *checkpoint.model;
  if (graph_topk >= 0) model.SetGraphTopK(graph_topk);
  std::printf("model: %lld parameters, top-k %lld, checkpoint %s\n",
              static_cast<long long>(model.NumParameters()),
              static_cast<long long>(model.config().graph_topk),
              ckpt_path.c_str());

  if (!prof_path.empty()) {
    tgcrn::obs::ProfOptions prof;
    prof.enabled = true;
    prof.path = prof_path;
    tgcrn::obs::StartProfiling(prof);
  }

  tgcrn::serve::InferenceSession session(
      &model, std::move(checkpoint.scaler),
      tgcrn::serve::SessionConfig::FromEnv());
  tgcrn::serve::ServeTelemetry telemetry(
      tgcrn::serve::TelemetryConfig::FromEnv(), &session);
  if (telemetry.armed()) {
    std::printf("telemetry: armed (access log: %s, slow threshold: %lld us)\n",
                telemetry.config().access_log_path.empty()
                    ? "<off>"
                    : telemetry.config().access_log_path.c_str(),
                static_cast<long long>(telemetry.config().slow_us));
  }
  tgcrn::serve::Server server(&session, port, &telemetry);
  g_server = &server;
  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("tgcrn_serve listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);
  server.Run();
  g_server = nullptr;
  // Same flush a CHECK-failure abort takes: profile + metrics dump + the
  // telemetry hook (all idempotent; Run already flushed the access log).
  tgcrn::obs::FlushObservability();

  if (!prof_path.empty()) {
    if (tgcrn::obs::WriteProfileFile(prof_path)) {
      std::printf("profile written to %s\n", prof_path.c_str());
    }
  }
  std::printf("shutdown after %lld requests\n",
              static_cast<long long>(session.requests()));
  return 0;
}
