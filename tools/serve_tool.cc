// Copyright 2026 TGCRN Reproduction Authors
// CLI: serve forecasts from a trained checkpoint over newline-delimited
// JSON on a TCP socket. Operator guide: docs/SERVING.md.
//
// Usage:
//   tgcrn_serve [data.csv] --ckpt model.ckpt --nodes N --features D
//       --steps-per-day S [--input-steps P] [--output-steps Q]
//       [--hidden H] [--variant tgcrn|no-tagsl|no-tdl|no-pdf|direct]
//       [--graph-topk K] [--port PORT] [--threads T] [--seed S]
//       [--prof serve.prof.json]
//
// Checkpoints written by train_model carry the fitted scaler as a footer
// (docs/SERVING.md "Checkpoint format"), which is authoritative here —
// no dataset file is needed to serve them. [data.csv] is the fallback
// for pre-footer checkpoints: the scaler is re-fitted exactly as
// train_model fits it (same CSV, same --input-steps/--output-steps, same
// split fractions). When both are available the re-fit is cross-checked
// against the footer and drift is reported. The model-shape flags must
// match training; LoadParameters rejects shape drift.
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "core/tgcrn.h"
#include "data/csv_loader.h"
#include "data/dataset.h"
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

struct Args {
  std::string data_path;
  std::string ckpt_path;
  tgcrn::data::CsvLoadOptions csv;
  int64_t input_steps = 12;
  int64_t output_steps = 12;
  int64_t hidden = 16;
  int64_t graph_topk = -1;  // -1 = TGCRN_GRAPH_TOPK env / model default
  int port = 0;             // 0 = ephemeral (printed once listening)
  int threads = 0;          // 0 = TGCRN_NUM_THREADS env or hw concurrency
  uint64_t seed = 1;
  std::string variant = "tgcrn";
  std::string prof_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  int i = 1;
  if (argv[1][0] != '-') args->data_path = argv[i++];
  for (; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--ckpt") args->ckpt_path = value;
    else if (flag == "--nodes") args->csv.num_nodes = std::stoll(value);
    else if (flag == "--features") args->csv.num_features = std::stoll(value);
    else if (flag == "--steps-per-day") {
      args->csv.steps_per_day = std::stoll(value);
    } else if (flag == "--input-steps") args->input_steps = std::stoll(value);
    else if (flag == "--output-steps") {
      args->output_steps = std::stoll(value);
    } else if (flag == "--hidden") args->hidden = std::stoll(value);
    else if (flag == "--graph-topk") args->graph_topk = std::stoll(value);
    else if (flag == "--port") args->port = std::stoi(value);
    else if (flag == "--threads") args->threads = std::stoi(value);
    else if (flag == "--seed") args->seed = std::stoull(value);
    else if (flag == "--variant") args->variant = value;
    else if (flag == "--prof") args->prof_path = value;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->ckpt_path.empty() && args->csv.num_nodes > 0 &&
         args->csv.num_features > 0 && args->csv.steps_per_day > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool parsed = false;
  try {
    parsed = ParseArgs(argc, argv, &args);
  } catch (const std::logic_error&) {
    // std::sto* throws invalid_argument / out_of_range on a bad number.
    std::fprintf(stderr, "invalid numeric flag value\n");
  }
  if (!parsed) {
    std::fprintf(
        stderr,
        "usage: %s [data.csv] --ckpt model.ckpt --nodes N --features D\n"
        "  --steps-per-day S [--input-steps P] [--output-steps Q]\n"
        "  [--hidden H] [--variant tgcrn|no-tagsl|no-tdl|no-pdf|direct]\n"
        "  [--graph-topk K] [--port PORT] [--threads T] [--seed S]\n"
        "  [--prof serve.prof.json]\n"
        "[data.csv] is only needed for checkpoints without a scaler\n"
        "footer (written by older train_model runs).\n"
        "protocol + operations guide: docs/SERVING.md\n",
        argv[0]);
    return 2;
  }
  if (args.threads > 0) tgcrn::common::SetNumThreads(args.threads);

  tgcrn::core::TGCRNConfig config;
  config.num_nodes = args.csv.num_nodes;
  config.input_dim = args.csv.num_features;
  config.output_dim = args.csv.num_features;
  config.horizon = args.output_steps;
  config.hidden_dim = args.hidden;
  config.steps_per_day = args.csv.steps_per_day;
  if (args.variant == "no-tagsl") {
    config.use_tagsl = false;
  } else if (args.variant == "no-tdl") {
    config.use_tdl = false;
  } else if (args.variant == "no-pdf") {
    config.use_pdf = false;
  } else if (args.variant == "direct") {
    config.use_encoder_decoder = false;
  } else if (args.variant != "tgcrn") {
    std::fprintf(stderr, "unknown variant %s\n", args.variant.c_str());
    return 2;
  }

  tgcrn::Rng rng(args.seed);
  tgcrn::core::TGCRN model(config, &rng);
  const tgcrn::Status status = model.LoadParameters(args.ckpt_path);
  if (!status.ok()) {
    std::fprintf(stderr, "checkpoint load failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  if (args.graph_topk >= 0) model.SetGraphTopK(args.graph_topk);
  std::printf("model: %s variant, %lld parameters, checkpoint %s\n",
              args.variant.c_str(),
              static_cast<long long>(model.NumParameters()),
              args.ckpt_path.c_str());

  // Scaler: the checkpoint's footer (training-time statistics) is
  // authoritative; a CSV re-fit is the fallback for pre-footer
  // checkpoints, and a drift check when both are available.
  tgcrn::data::StandardScaler scaler;
  const tgcrn::Status footer =
      tgcrn::data::LoadScalerFooter(args.ckpt_path, &scaler);
  if (footer.ok()) {
    if (static_cast<int64_t>(scaler.means().size()) !=
        args.csv.num_features) {
      std::fprintf(
          stderr, "checkpoint scaler has %zu channels, --features is %lld\n",
          scaler.means().size(),
          static_cast<long long>(args.csv.num_features));
      return 1;
    }
    std::printf("scaler: loaded from checkpoint footer\n");
  } else if (footer.code() != tgcrn::StatusCode::kNotFound) {
    std::fprintf(stderr, "scaler footer load failed: %s\n",
                 footer.ToString().c_str());
    return 1;
  } else if (args.data_path.empty()) {
    std::fprintf(stderr,
                 "checkpoint %s has no scaler footer — pass the training "
                 "data.csv so the scaler can be re-fitted, or re-save the "
                 "checkpoint with the current train_model\n",
                 args.ckpt_path.c_str());
    return 1;
  }
  if (!args.data_path.empty()) {
    auto loaded = tgcrn::data::LoadCsv(args.data_path, args.csv);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    tgcrn::data::ForecastDataset::Options options;
    options.input_steps = args.input_steps;
    options.output_steps = args.output_steps;
    tgcrn::data::ForecastDataset dataset(std::move(loaded).ValueOrDie(),
                                         options);
    if (footer.ok()) {
      if (dataset.scaler().means() != scaler.means() ||
          dataset.scaler().stds() != scaler.stds()) {
        std::fprintf(stderr,
                     "warning: scaler re-fitted from %s differs from the "
                     "checkpoint footer; serving with the footer "
                     "(training-time) statistics\n",
                     args.data_path.c_str());
      }
    } else {
      scaler = dataset.scaler();
      std::printf("scaler: re-fitted from %s (no footer in checkpoint) — "
                  "flags must reproduce the training fit exactly\n",
                  args.data_path.c_str());
    }
  }

  if (!args.prof_path.empty()) {
    tgcrn::obs::ProfOptions prof;
    prof.enabled = true;
    prof.path = args.prof_path;
    tgcrn::obs::StartProfiling(prof);
  }

  tgcrn::serve::InferenceSession session(
      &model, std::move(scaler), tgcrn::serve::SessionConfig::FromEnv());
  tgcrn::serve::ServeTelemetry telemetry(
      tgcrn::serve::TelemetryConfig::FromEnv(), &session);
  if (telemetry.armed()) {
    std::printf("telemetry: armed (access log: %s, slow threshold: %lld us)\n",
                telemetry.config().access_log_path.empty()
                    ? "<off>"
                    : telemetry.config().access_log_path.c_str(),
                static_cast<long long>(telemetry.config().slow_us));
  }
  tgcrn::serve::Server server(&session, args.port, &telemetry);
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
  // Same flush a CHECK-failure abort takes: trace + profile + metrics
  // dump + the telemetry hook (all idempotent; Run already flushed the
  // access log).
  tgcrn::obs::FlushObservability();

  if (!args.prof_path.empty()) {
    if (tgcrn::obs::WriteProfileFiles(args.prof_path)) {
      std::printf("profile written to %s (+ %s.collapsed)\n",
                  args.prof_path.c_str(), args.prof_path.c_str());
    }
  }
  std::printf("shutdown after %lld requests\n",
              static_cast<long long>(session.requests()));
  return 0;
}
