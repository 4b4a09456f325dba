// Copyright 2026 TGCRN Reproduction Authors
// Regenerates Table VIII: computational cost - parameter counts and
// training time per epoch of the graph-based models on the HZMetro
// stand-in, including the two TGCRN embedding configurations the paper
// reports (d_nu = d_tau = 16 vs d_nu = 64, d_tau = 32; scaled here to the
// reproduction's dimensions in the same 1:1 and 4:2 ratios).
#include <cstdio>

#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "obs/prof.h"
#include "obs/report.h"
#include "paper_refs.h"

namespace tgcrn {
namespace bench {
namespace {

core::TrainResult TimeOneEpoch(core::ForecastModel* model,
                               const DatasetBundle& bundle,
                               const Scale& scale, int num_threads = 0) {
  core::TrainConfig config;
  config.epochs = 1;
  config.batch_size = scale.batch_size;
  config.max_batches_per_epoch = scale.max_batches_per_epoch;
  config.verbose = false;
  config.num_threads = num_threads;
  return core::TrainAndEvaluate(model, *bundle.dataset, config);
}

// Seconds spent in one trainer phase, summed over the run's epochs.
double PhaseSeconds(const core::TrainResult& result, const char* key) {
  const auto totals = result.report.PhaseTotals();
  const auto it = totals.find(key);
  return it != totals.end() ? it->second : 0.0;
}

// Profiler delta over one timed run (obs/prof.h): the armed profiler keeps
// accumulating across models, so each row subtracts the snapshot taken
// before its epoch. GFLOP/s sums the analytic kernel flops over kernel
// caller-exclusive seconds; IPC is NaN (rendered "-") where perf_event is
// unavailable.
struct KernelRates {
  double gflops = 0.0;
  double ipc = std::numeric_limits<double>::quiet_NaN();
};

KernelRates RatesFromDelta(const obs::ProfReport& delta) {
  KernelRates rates;
  double flops = 0.0, seconds = 0.0;
  int64_t instructions = 0, cycles = 0;
  for (const auto& kernel : delta.kernels) {
    flops += kernel.flops;
    seconds += kernel.exclusive_seconds;
    instructions += kernel.instructions;
    cycles += kernel.cycles;
  }
  if (seconds > 0.0) rates.gflops = flops / seconds / 1e9;
  if (delta.counters_available && cycles > 0) {
    rates.ipc = static_cast<double>(instructions) /
                static_cast<double>(cycles);
  }
  return rates;
}

// The per-model row: params, epoch time, the phase breakdown measured by
// the trainer's observability report (fwd/bwd are the network passes;
// "optim" folds clipping into the Adam step; "data" is batch assembly),
// and the kernel roofline rates from the profiler delta.
std::vector<std::string> CostRow(const std::string& label,
                                 const core::TrainResult& result,
                                 double params_ref, double seconds_ref,
                                 const KernelRates& rates) {
  return {label,
          Cell(static_cast<double>(result.num_parameters), params_ref, 0),
          Cell(result.seconds_per_epoch, seconds_ref, 3),
          Cell(PhaseSeconds(result, obs::kPhaseForward), -1.0, 3),
          Cell(PhaseSeconds(result, obs::kPhaseBackward), -1.0, 3),
          Cell(PhaseSeconds(result, obs::kPhaseClip) +
                   PhaseSeconds(result, obs::kPhaseAdam),
               -1.0, 3),
          Cell(PhaseSeconds(result, obs::kPhaseData), -1.0, 3),
          Cell(rates.gflops, -1.0, 2),
          Cell(rates.ipc, -1.0, 2)};
}

void Run() {
  const Scale scale = GetScale();
  const int max_threads = common::GetNumThreads();
  std::printf("Table VIII bench (cost), scale=%s, threads=%d\n",
              scale.name.c_str(), max_threads);
  const DatasetBundle bundle = MakeHzSim(scale);

  // Kernel-cost attribution for the GFLOP/s and IPC columns: armed once
  // here, snapshotted around every timed epoch below.
  obs::ProfOptions prof_options;
  prof_options.enabled = true;
  obs::StartProfiling(prof_options);
  obs::ProfReport prof_prev = obs::CollectProfReport();
  auto take_delta = [&prof_prev] {
    obs::ProfReport snapshot = obs::CollectProfReport();
    const obs::ProfReport delta = snapshot.DeltaFrom(prof_prev);
    prof_prev = std::move(snapshot);
    return RatesFromDelta(delta);
  };

  TablePrinter table({"Model", "#Params (paper)", "s/epoch (paper)",
                      "fwd s", "bwd s", "optim s", "data s", "GFLOP/s",
                      "IPC"});
  const std::vector<std::string> methods = {"DCRNN", "AGCRN", "GraphWaveNet",
                                            "PVCGN", "ESG"};
  for (const auto& method : methods) {
    std::printf("  timing %s...\n", method.c_str());
    std::fflush(stdout);
    auto model = MakeModel(method, bundle, scale, 5000);
    prof_prev = obs::CollectProfReport();
    const auto result = TimeOneEpoch(model.get(), bundle, scale);
    const CostRef& ref = CostRefs().at(method);
    table.AddRow(CostRow(method, result, ref.params, ref.seconds_per_epoch,
                         take_delta()));
    AppendCostHistory("table8_cost", method, scale, result);
  }
  // TGCRN small embeddings (paper: d_nu = d_tau = 16).
  {
    std::printf("  timing TGCRN (small embeddings)...\n");
    std::fflush(stdout);
    core::TGCRNConfig config;
    config.num_nodes = bundle.num_nodes;
    config.input_dim = bundle.num_features;
    config.output_dim = bundle.num_features;
    config.horizon = bundle.dataset->options().output_steps;
    config.hidden_dim = scale.hidden_dim;
    config.node_embed_dim = scale.node_embed_dim / 2;
    config.time_embed_dim = scale.node_embed_dim / 2;
    config.steps_per_day = bundle.steps_per_day;
    Rng rng(5001);
    core::TGCRN model(config, &rng);
    prof_prev = obs::CollectProfReport();
    const auto result = TimeOneEpoch(&model, bundle, scale);
    const CostRef& ref = CostRefs().at("TGCRN (16,16)");
    table.AddRow(CostRow("TGCRN (small emb)", result, ref.params,
                         ref.seconds_per_epoch, take_delta()));
    AppendCostHistory("table8_cost", "TGCRN-small-emb", scale, result);
  }
  // TGCRN large embeddings (paper: d_nu = 64, d_tau = 32 -> 2x ratio).
  {
    std::printf("  timing TGCRN (large embeddings)...\n");
    std::fflush(stdout);
    core::TGCRNConfig config;
    config.num_nodes = bundle.num_nodes;
    config.input_dim = bundle.num_features;
    config.output_dim = bundle.num_features;
    config.horizon = bundle.dataset->options().output_steps;
    config.hidden_dim = scale.hidden_dim;
    config.node_embed_dim = 2 * scale.node_embed_dim;
    config.time_embed_dim = scale.node_embed_dim;
    config.steps_per_day = bundle.steps_per_day;
    Rng rng(5002);
    core::TGCRN model(config, &rng);
    prof_prev = obs::CollectProfReport();
    const auto result = TimeOneEpoch(&model, bundle, scale);
    const CostRef& ref = CostRefs().at("TGCRN (64,32)");
    table.AddRow(CostRow("TGCRN (large emb)", result, ref.params,
                         ref.seconds_per_epoch, take_delta()));
    AppendCostHistory("table8_cost", "TGCRN-large-emb", scale, result);
  }
  std::printf("\n=== Table VIII (cost): measured (paper) ===\n");
  std::printf("(absolute values differ - paper trains hidden=64 models on "
              "N=80 with GPUs;\n the reproduction checks the *ordering*: "
              "PVCGN heaviest, dynamic-graph models\n costlier than static, "
              "TGCRN params grow with embedding dims)\n");
  EmitTable("table8_cost", table);

  // Thread-scaling addendum: the same TGCRN epoch at 1, 2, 4, ... threads
  // up to the current pool width. Losses are bitwise identical across the
  // runs; only wall-clock changes.
  {
    std::printf("\n=== thread scaling (TGCRN small emb, 1 epoch) ===\n");
    core::TGCRNConfig config;
    config.num_nodes = bundle.num_nodes;
    config.input_dim = bundle.num_features;
    config.output_dim = bundle.num_features;
    config.horizon = bundle.dataset->options().output_steps;
    config.hidden_dim = scale.hidden_dim;
    config.node_embed_dim = scale.node_embed_dim / 2;
    config.time_embed_dim = scale.node_embed_dim / 2;
    config.steps_per_day = bundle.steps_per_day;
    TablePrinter threads_table({"Threads", "s/epoch", "speedup"});
    std::vector<int> widths;
    for (int t = 1; t < max_threads; t *= 2) widths.push_back(t);
    widths.push_back(max_threads);
    double single_thread_secs = 0.0;
    for (const int t : widths) {
      Rng rng(5003);
      core::TGCRN model(config, &rng);
      const auto result = TimeOneEpoch(&model, bundle, scale, t);
      if (t == 1) single_thread_secs = result.seconds_per_epoch;
      const double speedup =
          result.seconds_per_epoch > 0.0
              ? single_thread_secs / result.seconds_per_epoch
              : 0.0;
      threads_table.AddRow({std::to_string(t),
                            Cell(result.seconds_per_epoch, -1.0, 3),
                            Cell(speedup, -1.0, 2)});
    }
    EmitTable("table8_cost_threads", threads_table);
    common::SetNumThreads(max_threads);  // restore for any later use
  }

  // Sparse scale-out addendum (TGCRN_GRAPH_TOPK): one TGCRN epoch on a
  // neighbor-limited metro_sim at city-scale N, dense path vs top-k CSR
  // path. The "s/epoch / (N*k)" column is the linearity check: roughly
  // flat for the sparse path (all autograd compute is O(N*k); the
  // remaining growth is the no-grad selection, whose O(N^2) part is one
  // E_nu E_nu^T GEMM per forward pass),
  // quadrupling per N-doubling for the dense path. The dense leg stops
  // where [B, N, N] adjacency temporaries stop fitting a sane budget.
  // Every row also lands in bench_results/history/ (ISA-stamped) so the
  // regression gate can diff the sparse path across commits.
  {
    const int64_t k = 16;
    std::vector<int64_t> sweep_ns;
    int64_t dense_max_n;
    if (scale.name == "quick") {
      sweep_ns = {128, 256};
      dense_max_n = 256;
    } else if (scale.name == "full") {
      sweep_ns = {1024, 2048, 4096, 8192};
      dense_max_n = 1024;
    } else {
      sweep_ns = {512, 1024, 2048, 4096};
      dense_max_n = 1024;
    }
    std::printf("\n=== sparse scale-out (TGCRN, 1 epoch, top-k=%lld) ===\n",
                static_cast<long long>(k));
    // "select s" splits out the exact top-k selection (tagsl.SelectTopK
    // inclusive time): it holds the only O(N^2) piece of the sparse path,
    // and it carries no autograd state. It is wall clock:
    // only the dispatching thread's scope counts, not the copies that
    // pool helpers file under root -> "worker" -> tagsl.SelectTopK. The
    // last column is the linearity check on everything else — the
    // learned O(N*k) compute — and should stay roughly flat down the
    // sparse rows.
    TablePrinter sparse_table({"N", "mode", "s/epoch", "select s",
                               "us/epoch per N*k (excl select)"});
    auto select_seconds = [](const obs::ProfReport& delta) {
      double seconds = 0.0;
      for (const auto& node : delta.nodes) {
        const bool helper_copy =
            node.parent >= 0 && delta.nodes[node.parent].name == "worker";
        if (node.name == "tagsl.SelectTopK" && !helper_copy) {
          seconds += node.inclusive_seconds;
        }
      }
      return seconds;
    };
    for (const int64_t n : sweep_ns) {
      std::printf("  timing N=%lld...\n", static_cast<long long>(n));
      std::fflush(stdout);
      datagen::MetroSimConfig sim_config;
      sim_config.num_stations = n;
      // One week (the simulator's minimum) at hourly slots: enough windows
      // to train on while keeping the untimed eval tail a small fraction
      // of the epoch at city-scale N.
      sim_config.num_days = 7;
      sim_config.steps_per_day = 18;
      sim_config.seed = 6001;
      sim_config.target_mean_inflow = 40.0;
      sim_config.keep_od_ground_truth = false;
      sim_config.max_od_pairs_per_station = 8;  // O(T*N*m) generation
      auto sim = datagen::SimulateMetro(sim_config);
      data::ForecastDataset::Options data_options;
      data_options.input_steps = 4;
      data_options.output_steps = 2;
      data::ForecastDataset dataset(std::move(sim.data), data_options);
      for (const bool sparse : {false, true}) {
        if (!sparse && n > dense_max_n) continue;
        core::TGCRNConfig config;
        config.num_nodes = n;
        config.horizon = 2;
        config.hidden_dim = 8;
        config.num_layers = 1;
        config.node_embed_dim = 8;
        config.time_embed_dim = 4;
        config.steps_per_day = sim_config.steps_per_day;
        Rng rng(6002);
        core::TGCRN model(config, &rng);
        core::TrainConfig train_config;
        train_config.epochs = 1;
        train_config.batch_size = 4;
        train_config.max_batches_per_epoch = 4;
        train_config.verbose = false;
        // Explicit per-leg override: beats any TGCRN_GRAPH_TOPK env value.
        train_config.graph_topk = sparse ? k : 0;
        // Per-epoch prof blocks share the exact boundary of
        // seconds_per_epoch (snapshot taken inside the epoch, after val
        // eval) — a whole-call delta would also count the untimed test
        // eval's selection scans and overshoot.
        train_config.prof.enabled = true;
        const auto result =
            core::TrainAndEvaluate(&model, dataset, train_config);
        double select_s = 0.0;
        for (const auto& epoch : result.report.epochs) {
          if (epoch.has_prof) select_s += select_seconds(epoch.prof);
        }
        if (result.epochs_run > 0) select_s /= result.epochs_run;
        const double per_nk =
            (result.seconds_per_epoch - select_s) /
            (static_cast<double>(n) * k) * 1e6;
        sparse_table.AddRow(
            {std::to_string(n), sparse ? "topk" : "dense",
             Cell(result.seconds_per_epoch, -1.0, 3),
             Cell(select_s, -1.0, 3), Cell(per_nk, -1.0, 3)});
        AppendCostHistory(
            "table8_cost",
            std::string(sparse ? "nsweep-sparse-N" : "nsweep-dense-N") +
                std::to_string(n),
            scale, result);
      }
    }
    EmitTable("table8_cost_sparse", sparse_table);
  }
}

}  // namespace
}  // namespace bench
}  // namespace tgcrn

int main() {
  tgcrn::bench::Run();
  return 0;
}
