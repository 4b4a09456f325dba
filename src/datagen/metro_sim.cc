// Copyright 2026 TGCRN Reproduction Authors
#include "datagen/metro_sim.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/csr.h"

namespace tgcrn {
namespace datagen {
namespace {

// Smooth bump centered at `center` hours with the given width (hours).
double Bump(double hour, double center, double width) {
  const double z = (hour - center) / width;
  return std::exp(-0.5 * z * z);
}

// Travel delay between stations in slots, proportional to distance.
int64_t TravelDelaySlots(float distance) {
  return 1 + static_cast<int64_t>(distance / 4.0f);
}

// Deterministic per-pair phase in [0, 2*pi) from the pair index.
double PairPhase(int64_t i, int64_t j, int64_t n) {
  const uint64_t key = static_cast<uint64_t>(i * n + j);
  uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return 2.0 * M_PI *
         static_cast<double>(z >> 11) /
         static_cast<double>(1ULL << 53);
}

// The edge-level diurnal modulation described in MetroSimConfig.
double PairModulation(double hour, double strength, double phase) {
  return 1.0 + strength * std::sin(2.0 * M_PI * hour / 24.0 + phase);
}

}  // namespace

double MetroOriginProfile(AreaType type, double hour, bool weekend) {
  const double morning = Bump(hour, 8.0, 1.0);    // commute out of home
  const double evening = Bump(hour, 18.0, 1.2);   // commute out of work
  const double midday = Bump(hour, 13.0, 2.5);
  const double leisure = Bump(hour, 20.0, 1.5);
  const double base = 0.12;
  switch (type) {
    case AreaType::kResidential:
      return weekend ? base + 0.55 * midday + 0.45 * leisure
                     : base + 1.6 * morning + 0.35 * leisure;
    case AreaType::kBusiness:
      return weekend ? base + 0.15 * midday
                     : base + 1.5 * evening + 0.25 * midday;
    case AreaType::kShopping:
      return weekend ? base + 0.9 * midday + 1.0 * leisure
                     : base + 0.5 * midday + 0.6 * leisure;
    case AreaType::kMixed:
      return 0.5 * (MetroOriginProfile(AreaType::kResidential, hour, weekend) +
                    MetroOriginProfile(AreaType::kBusiness, hour, weekend));
  }
  return base;
}

double MetroAttractionProfile(AreaType type, double hour, bool weekend) {
  const double morning = Bump(hour, 8.25, 1.0);   // arrive at work
  const double evening = Bump(hour, 18.25, 1.2);  // arrive home
  const double midday = Bump(hour, 13.0, 2.5);
  const double leisure = Bump(hour, 20.0, 1.5);
  const double base = 0.12;
  switch (type) {
    case AreaType::kResidential:
      return weekend ? base + 0.4 * midday + 0.7 * leisure
                     : base + 1.6 * evening + 0.25 * leisure;
    case AreaType::kBusiness:
      return weekend ? base + 0.15 * midday
                     : base + 1.5 * morning + 0.25 * midday;
    case AreaType::kShopping:
      return weekend ? base + 0.9 * midday + 1.0 * leisure
                     : base + 0.5 * midday + 0.6 * leisure;
    case AreaType::kMixed:
      return 0.5 *
             (MetroAttractionProfile(AreaType::kResidential, hour, weekend) +
              MetroAttractionProfile(AreaType::kBusiness, hour, weekend));
  }
  return base;
}

namespace {

// The neighbor-limited generation path (max_od_pairs_per_station > 0):
// identical phenomenology restricted to each origin's top-m gravity
// destinations, O(T*N*m) time and O(N*m) memory. The station layout (and
// the RNG draws that produce it) is shared with the dense path; all later
// draws follow the kept-pair order (origin ascending, destination
// ascending within an origin), so output is deterministic for a config.
void SimulateNeighborLimited(const MetroSimConfig& config, Rng* rng,
                             const std::vector<float>& xs,
                             const std::vector<float>& ys,
                             const std::vector<float>& sizes,
                             MetroSimOutput* out) {
  TGCRN_CHECK(!config.keep_od_ground_truth)
      << "neighbor-limited metro_sim does not materialize OD ground truth";
  const int64_t n = config.num_stations;
  const int64_t spd = config.steps_per_day;
  const int64_t total = config.num_days * spd;
  const int64_t m = std::min<int64_t>(config.max_od_pairs_per_station, n - 1);

  // --- Top-m destinations per origin, row by row (no [N, N] tensor) ---------
  std::vector<int64_t> nbr(n * m);
  std::vector<float> nbr_gravity(n * m);
  std::vector<int64_t> nbr_delay(n * m);
  const int64_t row_grain =
      std::max<int64_t>(1, int64_t{16384} / std::max<int64_t>(1, n));
  common::ParallelFor(0, n, row_grain, [&](int64_t i0, int64_t i1) {
    std::vector<float> row(n);
    for (int64_t i = i0; i < i1; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        if (i == j) {
          row[j] = -1.0f;  // self-pairs carry no flow; rank last
          continue;
        }
        const float dx = xs[i] - xs[j];
        const float dy = ys[i] - ys[j];
        const float dist = std::sqrt(dx * dx + dy * dy);
        row[j] = sizes[i] * sizes[j] * std::exp(-dist / 6.0f);
      }
      // Same deterministic (value desc, index asc) selection as the
      // learned-graph sparsifier; kept ids come out ascending.
      graph::TopKRow(row.data(), n, m, nbr.data() + i * m);
      for (int64_t s = 0; s < m; ++s) {
        const int64_t j = nbr[i * m + s];
        const float dx = xs[i] - xs[j];
        const float dy = ys[i] - ys[j];
        const float dist = std::sqrt(dx * dx + dy * dy);
        nbr_gravity[i * m + s] = row[j];
        nbr_delay[i * m + s] = TravelDelaySlots(dist);
      }
    }
  });
  out->od_neighbors.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    out->od_neighbors[i].assign(nbr.begin() + i * m,
                                nbr.begin() + (i + 1) * m);
  }

  // --- Calibration over the kept pairs (noiseless intensity mean) -----------
  const double intensity_sum = common::DeterministicChunkedSum(
      total, /*grain=*/8, [&](int64_t t0, int64_t t1) {
        double sum = 0.0;
        for (int64_t t = t0; t < t1; ++t) {
          const int64_t slot = t % spd;
          const double hour = 6.0 + 18.0 * static_cast<double>(slot) / spd;
          const bool weekend = ((t / spd) % 7) >= 5;
          for (int64_t i = 0; i < n; ++i) {
            const double oi =
                MetroOriginProfile(out->area_types[i], hour, weekend);
            for (int64_t s = 0; s < m; ++s) {
              const int64_t j = nbr[i * m + s];
              sum += nbr_gravity[i * m + s] * oi *
                     MetroAttractionProfile(out->area_types[j], hour,
                                            weekend) *
                     PairModulation(hour, config.pair_phase_strength,
                                    PairPhase(i, j, n));
            }
          }
        }
        return sum;
      });
  const double mean_inflow = intensity_sum / (total * n);
  const double scale =
      config.target_mean_inflow / std::max(mean_inflow, 1e-9);

  // --- Main simulation -------------------------------------------------------
  out->data.values = Tensor::Zeros({total, n, 2});
  out->data.slot_of_day.resize(total);
  out->data.day_of_week.resize(total);
  out->data.steps_per_day = spd;
  std::vector<double> day_scale(n, 1.0);
  std::vector<double> ar_state(n, 0.0);
  float* values = out->data.values.mutable_data();

  for (int64_t t = 0; t < total; ++t) {
    const int64_t slot = t % spd;
    const double hour = 6.0 + 18.0 * static_cast<double>(slot) / spd;
    const int64_t dow = (t / spd) % 7;
    const bool weekend = dow >= 5;
    out->data.slot_of_day[t] = slot;
    out->data.day_of_week[t] = dow;

    if (slot == 0) {
      for (int64_t i = 0; i < n; ++i) {
        day_scale[i] = std::exp(rng->Gaussian(0.0, config.day_noise_sigma));
        ar_state[i] = 0.0;
      }
    }
    for (int64_t i = 0; i < n; ++i) {
      ar_state[i] =
          0.8 * ar_state[i] + rng->Gaussian(0.0, config.ar_noise_sigma);
    }

    for (int64_t i = 0; i < n; ++i) {
      const double oi = MetroOriginProfile(out->area_types[i], hour,
                                           weekend) *
                        day_scale[i] * std::exp(ar_state[i]);
      for (int64_t s = 0; s < m; ++s) {
        const int64_t j = nbr[i * m + s];
        const double lam =
            scale * nbr_gravity[i * m + s] * oi *
            MetroAttractionProfile(out->area_types[j], hour, weekend) *
            PairModulation(hour, config.pair_phase_strength,
                           PairPhase(i, j, n));
        const int64_t trips = rng->Poisson(lam);
        if (trips == 0) continue;
        values[(t * n + i) * 2 + 0] += static_cast<float>(trips);
        const int64_t arrive = t + nbr_delay[i * m + s];
        if (arrive < total) {
          values[(arrive * n + j) * 2 + 1] += static_cast<float>(trips);
        }
      }
    }
  }

  // --- Failure injection ------------------------------------------------------
  if (config.expected_closures > 0.0) {
    const int64_t events = rng->Poisson(config.expected_closures);
    for (int64_t e = 0; e < events; ++e) {
      const int64_t station = rng->UniformInt(0, n - 1);
      const int64_t duration = rng->UniformInt(8, 32);
      const int64_t first = rng->UniformInt(0, total - duration - 1);
      const int64_t last = first + duration;
      for (int64_t tt = first; tt <= last; ++tt) {
        values[(tt * n + station) * 2 + 0] = 0.0f;
        values[(tt * n + station) * 2 + 1] = 0.0f;
      }
      out->closures.push_back({station, first, last});
    }
  }
}

}  // namespace

MetroSimOutput SimulateMetro(const MetroSimConfig& config) {
  TGCRN_CHECK_GE(config.num_stations, 4);
  TGCRN_CHECK_GE(config.num_days, 7);
  Rng rng(config.seed);
  const int64_t n = config.num_stations;
  const int64_t spd = config.steps_per_day;
  const int64_t total = config.num_days * spd;

  MetroSimOutput out;

  // --- Static city layout ---------------------------------------------------
  // Coordinates in a 10x10 km box; area types cycle so every type exists.
  std::vector<float> xs(n), ys(n), sizes(n);
  out.area_types.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    xs[i] = rng.Uniform(0.0f, 10.0f);
    ys[i] = rng.Uniform(0.0f, 10.0f);
    sizes[i] = std::exp(static_cast<float>(rng.Gaussian(0.0, 0.35)));
    out.area_types[i] = static_cast<AreaType>(rng.UniformInt(0, 3));
  }
  if (config.max_od_pairs_per_station > 0) {
    // City-scale path: top-m gravity neighbors per origin, no dense [N, N]
    // matrices. Shares the layout draws above; see SimulateNeighborLimited.
    SimulateNeighborLimited(config, &rng, xs, ys, sizes, &out);
    return out;
  }
  out.distances = Tensor::Zeros({n, n});
  Tensor gravity = Tensor::Zeros({n, n});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const float dx = xs[i] - xs[j];
      const float dy = ys[i] - ys[j];
      const float dist = std::sqrt(dx * dx + dy * dy);
      out.distances.set_flat(i * n + j, dist);
      // Gravity model: bigger stations attract more; nearby pairs interact
      // more. The mild distance decay keeps long-range structure alive.
      gravity.set_flat(i * n + j,
                       sizes[i] * sizes[j] * std::exp(-dist / 6.0f));
    }
  }

  // --- Calibration pass: mean expected inflow -> target ---------------------
  // Expected inflow_i(t) = sum_j Lambda_ij(t). Compute the grand mean of the
  // noiseless intensity to derive a single global scale factor.
  double intensity_sum = 0.0;
  for (int64_t t = 0; t < total; ++t) {
    const int64_t slot = t % spd;
    const double hour = 6.0 + 18.0 * static_cast<double>(slot) / spd;
    const int64_t dow = (t / spd) % 7;  // day 0 is a Monday
    const bool weekend = dow >= 5;
    double step_sum = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double oi = MetroOriginProfile(out.area_types[i], hour, weekend);
      for (int64_t j = 0; j < n; ++j) {
        if (i == j) continue;
        step_sum += gravity.flat(i * n + j) * oi *
                    MetroAttractionProfile(out.area_types[j], hour,
                                           weekend) *
                    PairModulation(hour, config.pair_phase_strength,
                                   PairPhase(i, j, n));
      }
    }
    intensity_sum += step_sum;
  }
  const double mean_inflow = intensity_sum / (total * n);
  const double scale = config.target_mean_inflow / std::max(mean_inflow, 1e-9);

  // --- Main simulation -------------------------------------------------------
  out.data.values = Tensor::Zeros({total, n, 2});
  out.data.slot_of_day.resize(total);
  out.data.day_of_week.resize(total);
  out.data.steps_per_day = spd;
  if (config.keep_od_ground_truth) out.od_ground_truth.reserve(total);

  // Station-level noise: per-day lognormal scale and within-day AR(1).
  std::vector<double> day_scale(n, 1.0);
  std::vector<double> ar_state(n, 0.0);

  float* values = out.data.values.mutable_data();
  const int64_t max_delay = TravelDelaySlots(out.distances.MaxAll());

  for (int64_t t = 0; t < total; ++t) {
    const int64_t slot = t % spd;
    const double hour = 6.0 + 18.0 * static_cast<double>(slot) / spd;
    const int64_t dow = (t / spd) % 7;
    const bool weekend = dow >= 5;
    out.data.slot_of_day[t] = slot;
    out.data.day_of_week[t] = dow;

    if (slot == 0) {
      for (int64_t i = 0; i < n; ++i) {
        day_scale[i] =
            std::exp(rng.Gaussian(0.0, config.day_noise_sigma));
        ar_state[i] = 0.0;
      }
    }
    for (int64_t i = 0; i < n; ++i) {
      ar_state[i] = 0.8 * ar_state[i] +
                    rng.Gaussian(0.0, config.ar_noise_sigma);
    }

    Tensor lambda = Tensor::Zeros({n, n});
    float* lam = lambda.mutable_data();
    for (int64_t i = 0; i < n; ++i) {
      const double oi = MetroOriginProfile(out.area_types[i], hour, weekend) *
                        day_scale[i] * std::exp(ar_state[i]);
      for (int64_t j = 0; j < n; ++j) {
        if (i == j) continue;
        lam[i * n + j] = static_cast<float>(
            scale * gravity.flat(i * n + j) * oi *
            MetroAttractionProfile(out.area_types[j], hour, weekend) *
            PairModulation(hour, config.pair_phase_strength,
                           PairPhase(i, j, n)));
      }
    }

    // Sample trips, book tap-ins now and tap-outs after the travel delay.
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const int64_t trips = rng.Poisson(lam[i * n + j]);
        if (trips == 0) continue;
        values[(t * n + i) * 2 + 0] += static_cast<float>(trips);  // inflow
        const int64_t arrive =
            t + TravelDelaySlots(out.distances.flat(i * n + j));
        if (arrive < total) {
          values[(arrive * n + j) * 2 + 1] +=
              static_cast<float>(trips);  // outflow
        }
      }
    }

    if (config.keep_od_ground_truth) {
      out.od_ground_truth.push_back(std::move(lambda));
    }
  }
  (void)max_delay;

  // --- Failure injection ------------------------------------------------------
  if (config.expected_closures > 0.0) {
    const int64_t events = rng.Poisson(config.expected_closures);
    for (int64_t e = 0; e < events; ++e) {
      const int64_t station = rng.UniformInt(0, n - 1);
      const int64_t duration = rng.UniformInt(8, 32);  // 2-8 hours
      const int64_t first = rng.UniformInt(0, total - duration - 1);
      const int64_t last = first + duration;
      for (int64_t t = first; t <= last; ++t) {
        values[(t * n + station) * 2 + 0] = 0.0f;
        values[(t * n + station) * 2 + 1] = 0.0f;
      }
      out.closures.push_back({station, first, last});
    }
  }
  return out;
}

}  // namespace datagen
}  // namespace tgcrn
