// Copyright 2026 TGCRN Reproduction Authors
// Regenerates Fig 11: do the learned time-aware adjacency matrices follow
// the periodicities and trends of the true spatial correlations? The paper
// compares heat maps of learned A^t against OD passenger transfer. Because
// the simulator exposes the ground-truth OD intensity Lambda(t), this bench
// can quantify what the paper shows visually:
//  (a) weekday/weekend periodicity: the learned graphs of the two period
//      types should mirror the block structure of the true OD similarity;
//  (b) intra-day trend: learned graphs at consecutive spans should drift
//      smoothly, like the true OD does;
//  (c) pointwise alignment: correlation between learned A^t and Lambda(t)
//      across the test period, compared against a static self-learned
//      graph (AGCRN) which by construction cannot track the dynamics.
#include <cstdio>

#include "baselines/agcrn.h"
#include "bench_common.h"
#include "viz/heatmap.h"

namespace tgcrn {
namespace bench {
namespace {

double Pearson(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = a.size();
  double ma = 0, mb = 0;
  for (size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0, va = 0, vb = 0;
  for (size_t i = 0; i < n; ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  const double denom = std::sqrt(va * vb);
  return denom > 1e-12 ? cov / denom : 0.0;
}

double Cosine(const Tensor& a, const Tensor& b) {
  double dot = 0, na = 0, nb = 0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    dot += a.flat(i) * b.flat(i);
    na += a.flat(i) * a.flat(i);
    nb += b.flat(i) * b.flat(i);
  }
  return dot / (std::sqrt(na * nb) + 1e-12);
}

void Run() {
  const Scale scale = GetScale();
  std::printf("Fig 11 bench (learned graphs vs OD), scale=%s\n",
              scale.name.c_str());
  const DatasetBundle bundle = MakeHzSim(scale, /*keep_od=*/true);
  const int64_t spd = bundle.steps_per_day;
  const int64_t slot_8am = 8;

  std::printf("  training TGCRN...\n");
  std::fflush(stdout);
  auto model_ptr = MakeModel("TGCRN", bundle, scale, 9000);
  auto* tgcrn = dynamic_cast<core::TGCRN*>(model_ptr.get());
  RunNeural(tgcrn, bundle, scale, 9000);

  std::printf("  training AGCRN (static-graph reference)...\n");
  std::fflush(stdout);
  auto agcrn_ptr = MakeModel("AGCRN", bundle, scale, 9000);
  auto* agcrn = dynamic_cast<baselines::Agcrn*>(agcrn_ptr.get());
  RunNeural(agcrn, bundle, scale, 9000);

  // Helper: the learned raw graph at absolute step t, conditioned on the
  // true node state at t (as the model would see it at inference).
  data::StandardScaler scaler = bundle.dataset->scaler();
  auto learned_at = [&](const core::TGCRN& model, int64_t t) {
    Tensor x = scaler.Transform(
        bundle.raw_values.Slice(0, t, t + 1)).Squeeze(0);  // [N, d]
    return model.LearnedRawAdjacency(x, {bundle.slot_of_day[t]});
  };

  // (a) Periodicity: one week of 08:00 graphs.
  const char* kDayNames[] = {"MON", "TUE", "WED", "THU", "FRI", "SAT",
                             "SUN"};
  std::vector<Tensor> learned_by_day, od_by_day;
  const int64_t week_start_day = 21;  // inside the test period
  for (int64_t d = 0; d < 7; ++d) {
    const int64_t t = (week_start_day + d) * spd + slot_8am;
    learned_by_day.push_back(learned_at(*tgcrn, t));
    od_by_day.push_back(bundle.od_ground_truth[t]);
  }
  TablePrinter weekly({"pair", "learned cosine", "true OD cosine"});
  double learned_within = 0, learned_across = 0;
  int64_t n_within = 0, n_across = 0;
  for (int i = 0; i < 7; ++i) {
    for (int j = i + 1; j < 7; ++j) {
      const double lc = Cosine(learned_by_day[i], learned_by_day[j]);
      const double oc = Cosine(od_by_day[i], od_by_day[j]);
      weekly.AddRow({std::string(kDayNames[i]) + "-" + kDayNames[j],
                     TablePrinter::Num(lc, 4), TablePrinter::Num(oc, 4)});
      const bool same_period = (i >= 5) == (j >= 5);
      if (same_period) {
        learned_within += lc;
        ++n_within;
      } else {
        learned_across += lc;
        ++n_across;
      }
    }
  }
  std::printf("\n--- Fig 11(a): 08:00 graph similarity across one week ---\n");
  EmitTable("fig11a_weekly", weekly);

  // The paper's heat-map panels: learned adjacency (top) and true OD
  // (bottom) for a weekday and a weekend day, restricted to the first 8
  // stations so the panels stay readable.
  const int64_t k = std::min<int64_t>(8, bundle.num_nodes);
  auto corner = [&](const Tensor& m) {
    return m.Slice(0, 0, k).Slice(1, 0, k);
  };
  viz::HeatmapOptions hm;
  hm.per_matrix_scale = true;
  std::printf("\nlearned A^t at 08:00 (first %lld stations):\n%s",
              static_cast<long long>(k),
              viz::RenderHeatmapRow(
                  {corner(learned_by_day[3]), corner(learned_by_day[5])},
                  {"THU", "SAT"}, hm)
                  .c_str());
  std::printf("true OD at 08:00:\n%s",
              viz::RenderHeatmapRow(
                  {corner(od_by_day[3]), corner(od_by_day[5])},
                  {"THU", "SAT"}, hm)
                  .c_str());
  std::printf("learned graphs: same-period mean cosine %.4f vs "
              "across-period %.4f (periodicity captured: %s)\n",
              learned_within / n_within, learned_across / n_across,
              learned_within / n_within > learned_across / n_across ? "YES"
                                                                    : "NO");

  // (b) Trend: consecutive spans 08:00-09:00 on a weekday.
  TablePrinter trend({"span", "learned cos-to-prev", "true OD cos-to-prev"});
  const int64_t day_t = (week_start_day + 3) * spd + slot_8am;  // Thursday
  Tensor prev_learned = learned_at(*tgcrn, day_t);
  Tensor prev_od = bundle.od_ground_truth[day_t];
  Tensor first_learned = prev_learned.Clone();
  double drift_close = 0, drift_far = 0;
  for (int64_t k = 1; k < 4; ++k) {
    Tensor cur_learned = learned_at(*tgcrn, day_t + k);
    const Tensor& cur_od = bundle.od_ground_truth[day_t + k];
    char label[32];
    std::snprintf(label, sizeof(label), "+%lld min",
                  static_cast<long long>(k * 15));
    trend.AddRow({label,
                  TablePrinter::Num(Cosine(cur_learned, prev_learned), 5),
                  TablePrinter::Num(Cosine(cur_od, prev_od), 5)});
    if (k == 1) drift_close = Cosine(cur_learned, first_learned);
    if (k == 3) drift_far = Cosine(cur_learned, first_learned);
    prev_learned = cur_learned;
    prev_od = cur_od.Clone();
  }
  std::printf("\n--- Fig 11(b): smooth drift over consecutive spans ---\n");
  EmitTable("fig11b_trend", trend);
  std::printf("learned graph drifts monotonically: cos(+15min)=%.5f > "
              "cos(+45min)=%.5f : %s\n",
              drift_close, drift_far,
              drift_close > drift_far ? "YES" : "NO");

  // (c) Do the learned edges *track* the OD dynamics over time? For every
  // node pair (i,j) correlate the time series A_ij(t) with Lambda_ij(t)
  // across the test period and average over pairs. This isolates the
  // temporal claim of Fig 11: absolute edge magnitudes are an aggregation
  // operator's business, but their *variation in time* should follow the
  // true correlation dynamics. A static graph cannot score above 0 here
  // by construction (its edges never move).
  const int64_t total = static_cast<int64_t>(bundle.slot_of_day.size());
  const int64_t test_start = static_cast<int64_t>(total * 0.8);
  const int64_t n = bundle.num_nodes;
  std::vector<std::vector<double>> learned_series(n * n),
      static_series(n * n), od_series(n * n);
  for (int64_t t = test_start; t < total; t += 3) {
    Tensor learned = learned_at(*tgcrn, t);
    Tensor x = scaler.Transform(
        bundle.raw_values.Slice(0, t, t + 1)).Squeeze(0);
    Tensor static_graph =
        agcrn->LearnedRawAdjacency(x, {bundle.slot_of_day[t]});
    const Tensor& od = bundle.od_ground_truth[t];
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        if (i == j) continue;
        learned_series[i * n + j].push_back(learned.at({i, j}));
        static_series[i * n + j].push_back(static_graph.at({i, j}));
        od_series[i * n + j].push_back(od.at({i, j}));
      }
    }
  }
  auto mean_edge_correlation =
      [&](const std::vector<std::vector<double>>& graph_series) {
        double sum = 0.0;
        int64_t count = 0;
        for (int64_t k = 0; k < n * n; ++k) {
          if (od_series[k].empty()) continue;
          const double r = Pearson(graph_series[k], od_series[k]);
          if (std::isfinite(r)) {
            sum += r;
            ++count;
          }
        }
        return count > 0 ? sum / count : 0.0;
      };
  const double corr_tgcrn = mean_edge_correlation(learned_series);
  const double corr_static = mean_edge_correlation(static_series);
  TablePrinter align({"graph", "mean per-edge temporal corr with OD"});
  align.AddRow({"TGCRN (time-aware)", TablePrinter::Num(corr_tgcrn, 4)});
  align.AddRow({"AGCRN (static)", TablePrinter::Num(corr_static, 4)});
  std::printf("\n--- Fig 11(c): do learned edges track the OD dynamics "
              "over the test period? ---\n");
  EmitTable("fig11c_alignment", align);
  std::printf("time-aware graph tracks OD dynamics better than static: %s\n",
              corr_tgcrn > corr_static ? "YES" : "NO");
}

}  // namespace
}  // namespace bench
}  // namespace tgcrn

int main() {
  tgcrn::bench::Run();
  return 0;
}
