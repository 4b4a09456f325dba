// Copyright 2026 TGCRN Reproduction Authors
// Closed-loop load generator for the serving path (docs/SERVING.md):
// E entities with Poisson think-times drive an in-process
// InferenceSession — each round serves every due request (observations,
// with a forecast every F-th request per entity), the round's wall time
// advances the virtual clock, and served entities re-arm their next
// arrival with an exponential gap. After a warm-up phase (every entity
// observed, shapes stabilized) the measured phase pins the zero-alloc
// steady state via the tensor.allocations counter and reports
// p50/p99/mean latency and QPS from the serve.request_us histogram.
//
// With --report, the run is written as RunReport JSONL whose epoch line
// carries phase_seconds {serve_p50, serve_p99, serve_mean} — the rows
// tgcrn_report_diff gates against bench_results/baselines/serve_smoke.jsonl
// in CI, exactly how training-phase timings are gated. With
// --require-zero-alloc 1 the bench exits non-zero on any steady-state
// tensor heap allocation. Per-stage request telemetry comes only from
// the real server (tgcrn_serve with TGCRN_SERVE_ACCESS_LOG).
//
// Usage:
//   bench_serve [--entities E] [--warm-steps W] [--requests R]
//       [--forecast-every F] [--rate QPS] [--nodes N] [--hidden H]
//       [--horizon Q] [--steps-per-day S] [--topk K]
//       [--seed S] [--threads T] [--report serve.jsonl]
//       [--require-zero-alloc 0|1]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/tgcrn.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "serve/session.h"

namespace {

struct Args {
  int64_t entities = 12;
  int64_t warm_steps = 3;
  int64_t requests = 240;
  int64_t forecast_every = 4;
  double rate = 200.0;  // fleet-wide virtual arrivals per second
  int64_t nodes = 12;
  int64_t hidden = 16;
  int64_t horizon = 4;
  int64_t steps_per_day = 72;
  int64_t topk = 0;
  uint64_t seed = 7;
  int threads = 0;
  std::string report_path;
  int require_zero_alloc = 0;  // nonzero: fail on steady allocations
};

bool ParseArgs(int argc, char** argv, Args* args) {
  tgcrn::Flags flags;
  flags.Add("--entities", &args->entities)
      .Add("--warm-steps", &args->warm_steps)
      .Add("--requests", &args->requests)
      .Add("--forecast-every", &args->forecast_every)
      .Add("--rate", &args->rate)
      .Add("--nodes", &args->nodes)
      .Add("--hidden", &args->hidden)
      .Add("--horizon", &args->horizon)
      .Add("--steps-per-day", &args->steps_per_day)
      .Add("--topk", &args->topk)
      .Add("--seed", &args->seed)
      .Add("--threads", &args->threads)
      .Add("--report", &args->report_path)
      .Add("--require-zero-alloc", &args->require_zero_alloc);
  return flags.Parse(argc, argv, 1) && args->entities > 0 &&
         args->requests > 0 && args->forecast_every > 1 && args->rate > 0.0;
}

struct Client {
  std::string name;
  double next_due = 0.0;  // virtual seconds
  int64_t slot = 0;
  int64_t sent = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_serve [--entities E] [--warm-steps W]\n"
                 "  [--requests R] [--forecast-every F] [--rate QPS]\n"
                 "  [--nodes N] [--hidden H] [--horizon Q]\n"
                 "  [--steps-per-day S] [--topk K]\n"
                 "  [--seed S] [--threads T] [--report serve.jsonl]\n"
                 "  [--require-zero-alloc 0|1]\n"
                 "docs: docs/SERVING.md, docs/BENCHMARKS.md\n");
    return 2;
  }
  if (args.threads > 0) tgcrn::common::SetNumThreads(args.threads);

  tgcrn::core::TGCRNConfig config;
  config.num_nodes = args.nodes;
  config.input_dim = 2;
  config.output_dim = 2;
  config.horizon = args.horizon;
  config.hidden_dim = args.hidden;
  config.steps_per_day = args.steps_per_day;
  config.graph_topk = args.topk;
  tgcrn::Rng rng(args.seed);
  tgcrn::core::TGCRN model(config, &rng);

  // Latency doesn't depend on the weights being trained; a scaler fitted
  // on the same synthetic distribution the clients draw from keeps the
  // numerics in the trained-model regime.
  tgcrn::Tensor history({64, args.nodes, config.input_dim});
  for (int64_t i = 0; i < history.numel(); ++i) {
    history.mutable_data()[i] =
        static_cast<float>(40.0 + 20.0 * rng.NextDouble());
  }
  tgcrn::data::StandardScaler scaler;
  scaler.Fit(history, history.size(0));

  tgcrn::serve::InferenceSession session(&model, scaler,
                                         tgcrn::serve::SessionConfig{});

  tgcrn::Rng load_rng(args.seed + 1);
  const double per_entity_rate = args.rate / static_cast<double>(args.entities);
  auto exp_gap = [&]() {
    return -std::log(1.0 - load_rng.NextDouble()) / per_entity_rate;
  };
  auto fill_values = [&](std::vector<float>* values) {
    values->resize(static_cast<size_t>(args.nodes * config.input_dim));
    for (float& v : *values) {
      v = static_cast<float>(40.0 + 20.0 * load_rng.NextDouble());
    }
  };

  std::vector<Client> clients(static_cast<size_t>(args.entities));
  for (int64_t i = 0; i < args.entities; ++i) {
    clients[i].name = "entity-" + std::to_string(i);
    clients[i].next_due = exp_gap();
  }

  // Warm-up: every entity observed warm_steps times in full-fleet waves,
  // then one observe + forecast at every batch width 1..E. The Poisson
  // rounds of the measured phase can only produce those compositions, so
  // after the sweep no first-time tensor shape (and hence no pool miss)
  // is left for the steady state.
  for (int64_t w = 0; w < args.warm_steps; ++w) {
    std::vector<tgcrn::serve::Observation> wave;
    for (Client& client : clients) {
      tgcrn::serve::Observation ob;
      ob.entity = client.name;
      ob.slot = client.slot++ % args.steps_per_day;
      fill_values(&ob.values);
      wave.push_back(std::move(ob));
    }
    session.Observe(wave);
  }
  for (int64_t width = 1; width <= args.entities; ++width) {
    std::vector<tgcrn::serve::Observation> wave;
    std::vector<std::string> names;
    for (int64_t i = 0; i < width; ++i) {
      Client& client = clients[i];
      tgcrn::serve::Observation ob;
      ob.entity = client.name;
      ob.slot = client.slot++ % args.steps_per_day;
      fill_values(&ob.values);
      wave.push_back(std::move(ob));
      names.push_back(client.name);
    }
    session.Observe(wave);
    tgcrn::Tensor out;
    std::vector<int64_t> steps;
    session.Forecast(names, &out, &steps);
  }

  // Measured phase.
  auto* alloc_counter =
      tgcrn::obs::Registry::Global().GetCounter("tensor.allocations");
  auto* latency =
      tgcrn::obs::Registry::Global().GetHistogram("serve.request_us");
  latency->Reset();
  const int64_t allocs_before = alloc_counter->Value();
  const auto wall_start = std::chrono::steady_clock::now();

  double now = 0.0;
  int64_t served = 0;
  while (served < args.requests) {
    std::vector<size_t> due;
    double soonest = clients[0].next_due;
    for (size_t i = 0; i < clients.size(); ++i) {
      if (clients[i].next_due <= now) due.push_back(i);
      soonest = std::min(soonest, clients[i].next_due);
    }
    if (due.empty()) {
      now = soonest;
      continue;
    }
    std::vector<tgcrn::serve::Observation> observes;
    std::vector<std::string> forecasts;
    for (size_t index : due) {
      Client& client = clients[index];
      if ((client.sent + 1) % args.forecast_every == 0) {
        forecasts.push_back(client.name);
      } else {
        tgcrn::serve::Observation ob;
        ob.entity = client.name;
        ob.slot = client.slot++ % args.steps_per_day;
        fill_values(&ob.values);
        observes.push_back(std::move(ob));
      }
      ++client.sent;
    }
    const auto round_start = std::chrono::steady_clock::now();
    if (!observes.empty()) session.Observe(observes);
    if (!forecasts.empty()) {
      tgcrn::Tensor out;
      std::vector<int64_t> steps;
      session.Forecast(forecasts, &out, &steps);
    }
    const double round_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      round_start)
            .count();
    // Closed loop: the service time just spent is when the responses got
    // back, so re-arm the served entities relative to that instant.
    now += round_s;
    for (size_t index : due) clients[index].next_due = now + exp_gap();
    served += static_cast<int64_t>(due.size());
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const int64_t alloc_delta = alloc_counter->Value() - allocs_before;
  const tgcrn::obs::HistogramSnapshot lat = latency->Snapshot();
  const double p50_s = static_cast<double>(lat.ApproxQuantile(0.5)) / 1e6;
  const double p99_s = static_cast<double>(lat.ApproxQuantile(0.99)) / 1e6;
  const double mean_s = lat.Mean() / 1e6;
  const double qps = wall > 0.0 ? static_cast<double>(served) / wall : 0.0;

  std::printf("bench_serve: %lld requests over %lld entities (topk=%lld)\n",
              static_cast<long long>(served),
              static_cast<long long>(args.entities),
              static_cast<long long>(args.topk));
  std::printf("  latency p50 %8.1f us   p99 %8.1f us   mean %8.1f us\n",
              p50_s * 1e6, p99_s * 1e6, mean_s * 1e6);
  std::printf("  throughput %.1f req/s, steady-state tensor allocations: "
              "%lld\n",
              qps, static_cast<long long>(alloc_delta));

  if (!args.report_path.empty()) {
    tgcrn::obs::EpochReport epoch;
    epoch.epoch = 0;
    epoch.seconds = wall;
    epoch.phase_seconds["serve_p50"] = p50_s;
    epoch.phase_seconds["serve_p99"] = p99_s;
    epoch.phase_seconds["serve_mean"] = mean_s;
    if (tgcrn::obs::ProfilingEnabled()) {
      epoch.has_prof = true;
      epoch.prof = tgcrn::obs::CollectProfReport();
    }
    tgcrn::obs::RunReport report;
    report.model = "tgcrn-serve";
    report.num_parameters = model.NumParameters();
    report.num_threads = tgcrn::common::GetNumThreads();
    report.epochs_run = 1;
    report.total_seconds = wall;
    report.epochs.push_back(epoch);
    bool ok = tgcrn::obs::RunReport::AppendJsonLine(args.report_path,
                                                    epoch.ToJson());
    ok = tgcrn::obs::RunReport::AppendJsonLine(args.report_path,
                                               report.SummaryJson()) &&
         ok;
    if (!ok) {
      std::fprintf(stderr, "report write failed: %s\n",
                   args.report_path.c_str());
      return 1;
    }
    std::printf("  report written to %s\n", args.report_path.c_str());
  }

  if (args.require_zero_alloc != 0 && alloc_delta != 0) {
    std::fprintf(stderr,
                 "FAIL: %lld tensor heap allocations in steady state "
                 "(expected 0)\n",
                 static_cast<long long>(alloc_delta));
    return 1;
  }
  return 0;
}
