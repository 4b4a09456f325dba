// Copyright 2026 TGCRN Reproduction Authors
// tgbench: the repository benchmark (README.md in this directory).
//
//   tgbench --workload metro-dense|city-sparse --seed N --seconds S
//           --trace 0|1 [--sha REV]
//
// A workload is the system's life cycle on one input: set-up, a training
// section (train.h), then a serving section over loopback (serve.h); in
// an end-to-end run, one-thread training steps run between the serving
// rounds. With
// --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics from bench-side spans and counters. The
// last stdout line is the JSON result; the exit status is non-zero when
// any correctness check failed.
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "flags.h"
#include "obs/json.h"
#include "result.h"
#include "serve.h"
#include "spans.h"
#include "stats.h"
#include "train.h"

namespace tgbench {
namespace {

// Set-up repetitions of an end-to-end run; setup_s is their median.
constexpr int kSetupReps = 3;
// Share of --seconds given to training (the rest serves).
constexpr double kTrainShare = 0.35;

struct Workload {
  TrainSpec train;
  int64_t serve_topk;  // the served model's graph_topk (0: dense)
};

Workload MakeWorkload(const std::string& name) {
  if (name == "city-sparse") return {CitySparseTrainSpec(), 8};
  return {MetroDenseTrainSpec(), 0};
}

// Builds a section `reps` times, keeping the last; returns the median
// build time in seconds. The first build is timed from `first_start_ns`
// so it carries the process's own start-up.
template <typename Section, typename Spec>
double Build(const Spec& spec, uint64_t seed, int reps, int64_t first_start_ns,
             std::unique_ptr<Section>* out) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    out->reset();
    const int64_t start = rep == 0 ? first_start_ns : NowNs();
    *out = std::make_unique<Section>(spec, seed);
    seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Median(seconds);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Stamp(const Flags& flags) {
  tgcrn::obs::Json stamp = tgcrn::obs::Json::Object();
  stamp.Set("git_sha", tgcrn::obs::Json::Str(flags.sha));
  stamp.Set("workload", tgcrn::obs::Json::Str(flags.workload));
  stamp.Set("seed", tgcrn::obs::Json::Str(std::to_string(flags.seed)));
  stamp.Set("seconds", tgcrn::obs::Json::Int(flags.seconds));
  stamp.Set("trace", tgcrn::obs::Json::Bool(flags.trace));
  stamp.Set("nproc", tgcrn::obs::Json::Int(std::thread::hardware_concurrency()));
  stamp.Set("isa", tgcrn::obs::Json::Str(tgcrn::common::SimdIsaName(
                       tgcrn::common::ActiveSimdIsa())));
  stamp.Set("pool_threads",
            tgcrn::obs::Json::Int(tgcrn::common::GetNumThreads()));
  stamp.Set("build_type", tgcrn::obs::Json::Str(TGBENCH_BUILD_TYPE));
  tgcrn::obs::Json line = tgcrn::obs::Json::Object();
  line.Set("stamp", std::move(stamp));
  return line.Dump();
}

int Main(int argc, char** argv) {
  const int64_t process_start = NowNs();
  Flags flags;
  std::string error;
  if (!ParseFlags(argc, argv, &flags, &error)) {
    std::fprintf(stderr, "tgbench: %s\n%s", error.c_str(), Usage());
    return 2;
  }
  const Workload workload = MakeWorkload(flags.workload);
  const double seconds = flags.seconds;
  const int reps = flags.trace ? 1 : kSetupReps;
  RunResult result;

  std::unique_ptr<TrainSection> train;
  const double train_setup =
      Build(workload.train, flags.seed, reps, process_start, &train);
  if (flags.trace) {
    train->RunTraced(kTrainShare * seconds, &result);
    train.reset();
  } else {
    train->RunChecks(&result);
  }

  std::unique_ptr<ServeSection> serve;
  const double serve_setup =
      Build(workload.serve_topk, flags.seed, reps, NowNs(), &serve);
  if (flags.trace) {
    serve->RunTraced(&result);
  } else {
    // The one-thread training steps run in slices between the serving
    // rounds, so that they sample the whole run (TrainSection::Finish).
    const double slice = kTrainShare * seconds / ServeSection::kRounds;
    serve->Run((1.0 - kTrainShare) * seconds,
               [&] { train->StepOneThread(slice); }, &result);
    train->Finish(&result);
  }
  serve.reset();
  train.reset();

  if (!flags.trace) {
    result.Add("setup_s", train_setup + serve_setup, "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
  }
  std::printf("%s\n%s\n", Stamp(flags).c_str(), result.Render().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace tgbench

int main(int argc, char** argv) {
  try {
    return tgbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tgbench: %s\n", e.what());
    return 1;
  }
}
