// Copyright 2026 TGCRN Reproduction Authors
#include "serve/session.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "autograd/variable.h"
#include "common/check.h"
#include "common/flags.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tgcrn {
namespace serve {
namespace {

// Serve metric handles (names documented in docs/SERVING.md).
struct ServeMetrics {
  obs::Counter* requests;     // observations + forecast rows served
  obs::Counter* evictions;    // LRU evictions from the entity cache
  obs::Counter* cache_hits;    // AdmitEntity found a cached entity
  obs::Counter* cache_misses;  // AdmitEntity created (admitted) an entity
  obs::Gauge* entities;       // current entity cache population
  obs::Histogram* request_us;  // per-request latency (wave time, µs)
  obs::Histogram* batch_size;  // active rows per wave
  // Idle age of evicted entities in LRU ticks (touches elsewhere since
  // the victim's last use) — churn at small values means the cache bound
  // is too tight for the live fleet.
  obs::Histogram* eviction_age;
};

ServeMetrics& Metrics() {
  static ServeMetrics metrics{
      obs::Registry::Global().GetCounter("serve.requests"),
      obs::Registry::Global().GetCounter("serve.evictions"),
      obs::Registry::Global().GetCounter("serve.cache_hits"),
      obs::Registry::Global().GetCounter("serve.cache_misses"),
      obs::Registry::Global().GetGauge("serve.entities"),
      obs::Registry::Global().GetHistogram("serve.request_us"),
      obs::Registry::Global().GetHistogram("serve.batch_size"),
      obs::Registry::Global().GetHistogram("serve.eviction_age_ticks"),
  };
  return metrics;
}

// Wave batch width for `active` samples: the next power of two, so steady
// state cycles through O(log kWaveMax) tensor shapes (maximizing pool
// hits). Padding rows are zeros, and per-sample independence of the eval
// path makes them bitwise-invisible to active rows.
int64_t WaveWidth(int64_t active) {
  int64_t width = 1;
  while (width < active) width <<= 1;
  return width;
}

}  // namespace

SessionConfig SessionConfig::FromEnv() {
  SessionConfig config;
  config.max_entities = EnvIntOrDie<int64_t>(
      "TGCRN_SERVE_MAX_ENTITIES", std::getenv("TGCRN_SERVE_MAX_ENTITIES"),
      config.max_entities, 1);
  return config;
}

InferenceSession::InferenceSession(core::TGCRN* model,
                                   data::StandardScaler scaler,
                                   SessionConfig config)
    : model_(model), scaler_(std::move(scaler)), config_(config) {
  TGCRN_CHECK(model_ != nullptr);
  TGCRN_CHECK(config_.max_entities > 0);
  model_->SetTraining(false);
  model_->SetTeacherForcingProbability(0.0f);
  // Wave-timing storage never reallocates in steady state: one call
  // produces at most ceil(observations / wave_cap) entries.
  wave_timings_.reserve(64);
}

InferenceSession::EntityState& InferenceSession::AdmitEntity(
    const std::string& name,
    const std::unordered_set<std::string>& protect, int64_t* evicted) {
  auto it = entities_.find(name);
  if (it != entities_.end()) {
    it->second.tick = ++tick_;
    Metrics().cache_hits->Add(1);
    return it->second;
  }
  Metrics().cache_misses->Add(1);
  if (static_cast<int64_t>(entities_.size()) >= config_.max_entities) {
    // LRU scan over entities outside the in-flight wave — evicting a
    // wave member would strand its ObserveWave lookups. O(entities) —
    // the cache is bounded and admission is the rare path; a heap would
    // only complicate the steady state.
    auto lru = entities_.end();
    for (auto cand = entities_.begin(); cand != entities_.end(); ++cand) {
      if (protect.count(cand->first) > 0) continue;
      if (lru == entities_.end() || cand->second.tick < lru->second.tick) {
        lru = cand;
      }
    }
    // Observe caps a wave at max_entities distinct entities, so a full
    // cache always holds at least one entity outside the wave.
    TGCRN_CHECK(lru != entities_.end())
        << "entity cache holds only in-flight entities";
    Metrics().eviction_age->Observe(
        static_cast<int64_t>(tick_ - lru->second.tick));
    entities_.erase(lru);
    ++*evicted;
    Metrics().evictions->Add(1);
  }
  const core::TGCRNConfig& mc = model_->config();
  EntityState& state = entities_[name];
  state.tick = ++tick_;
  state.hidden.reserve(mc.num_layers);
  for (int64_t l = 0; l < mc.num_layers; ++l) {
    state.hidden.push_back(Tensor::Zeros({mc.num_nodes, mc.hidden_dim}));
  }
  Metrics().entities->Set(static_cast<double>(entities_.size()));
  return state;
}

void InferenceSession::ObserveWave(
    const std::vector<Observation>& observations,
    const std::vector<size_t>& wave) {
  WaveTiming timing;
  timing.start_ns = obs::internal::TraceNowNs();
  const core::TGCRNConfig& mc = model_->config();
  const int64_t n = mc.num_nodes;
  const int64_t d = mc.input_dim;
  const int64_t layers = mc.num_layers;
  const int64_t active = static_cast<int64_t>(wave.size());
  const int64_t b = WaveWidth(active);

  // Stage raw values into a pooled [B, N, d] tensor (memcpy, never
  // Tensor::FromVector — that path counts an external allocation).
  Tensor x_raw({b, n, d});
  std::vector<int64_t> slots(static_cast<size_t>(b), 0);
  std::vector<int64_t> prev_slots(static_cast<size_t>(b), 0);
  for (int64_t i = 0; i < active; ++i) {
    const Observation& ob = observations[wave[i]];
    TGCRN_CHECK_EQ(static_cast<int64_t>(ob.values.size()), n * d)
        << "entity " << ob.entity;
    TGCRN_CHECK(ob.slot >= 0 && ob.slot < mc.steps_per_day)
        << "slot " << ob.slot << " outside [0, " << mc.steps_per_day << ")";
    std::memcpy(x_raw.mutable_data() + i * n * d, ob.values.data(),
                static_cast<size_t>(n * d) * sizeof(float));
    slots[i] = ob.slot;
    const EntityState& entity = entities_.at(ob.entity);
    // Fresh entities get the same synthetic previous slot Forward's
    // t == 0 step derives (PrevSlots), keeping the two paths identical.
    prev_slots[i] = entity.steps == 0
                        ? (ob.slot + mc.steps_per_day - 1) % mc.steps_per_day
                        : entity.last_slot;
  }

  // Reassemble the batched recurrent state from the per-entity cache.
  core::TGCRNState state;
  state.hidden.reserve(layers);
  for (int64_t l = 0; l < layers; ++l) {
    Tensor h({b, n, mc.hidden_dim});
    for (int64_t i = 0; i < active; ++i) {
      const EntityState& entity = entities_.at(observations[wave[i]].entity);
      std::memcpy(h.mutable_data() + i * n * mc.hidden_dim,
                  entity.hidden[l].data(),
                  static_cast<size_t>(n * mc.hidden_dim) * sizeof(float));
    }
    state.hidden.emplace_back(std::move(h));
  }
  state.cached_adj.resize(layers);
  state.last_slots = prev_slots;
  // steps stays 0: 0 % refresh == 0, so the wave always rebuilds its
  // graphs — refresh-interval amortization is not sound across waves of
  // differently-composed entities (docs/SERVING.md "Graph refresh").
  timing.gather_end_ns = obs::internal::TraceNowNs();
  {
    ag::NoGradGuard no_grad;
    model_->EncoderStep(ag::Variable(scaler_.Transform(x_raw)), slots,
                        &state);
  }
  timing.kernel_end_ns = obs::internal::TraceNowNs();

  // Scatter the advanced hidden rows back into the entity cache.
  for (int64_t l = 0; l < layers; ++l) {
    const float* src = state.hidden[l].value().data();
    for (int64_t i = 0; i < active; ++i) {
      EntityState& entity = entities_[observations[wave[i]].entity];
      std::memcpy(entity.hidden[l].mutable_data(),
                  src + i * n * mc.hidden_dim,
                  static_cast<size_t>(n * mc.hidden_dim) * sizeof(float));
    }
  }
  for (int64_t i = 0; i < active; ++i) {
    EntityState& entity = entities_[observations[wave[i]].entity];
    entity.last_slot = slots[i];
    ++entity.steps;
    entity.tick = ++tick_;
  }

  timing.scatter_end_ns = obs::internal::TraceNowNs();
  timing.active = active;
  wave_timings_.push_back(timing);
  const int64_t us = (timing.scatter_end_ns - timing.start_ns) / 1000;
  ServeMetrics& metrics = Metrics();
  metrics.batch_size->Observe(active);
  for (int64_t i = 0; i < active; ++i) metrics.request_us->Observe(us);
  metrics.requests->Add(active);
  requests_ += active;
}

InferenceSession::ObserveResult InferenceSession::Observe(
    const std::vector<Observation>& observations) {
  ObserveResult result;
  result.steps.resize(observations.size(), 0);
  result.wave_index.resize(observations.size(), 0);
  wave_timings_.clear();
  // Waves of distinct entities: a repeated entity must see its earlier
  // observation applied first, so it starts the next wave. Admission is
  // per wave (just before it runs) with the wave's own entities shielded
  // from the LRU scan, so one batch can never evict an entity it is
  // about to step; capping a wave at max_entities distinct entities
  // keeps that shield satisfiable even for batches wider than the cache.
  const int64_t wave_cap = std::min(kWaveMax, config_.max_entities);
  std::vector<size_t> wave;
  std::unordered_set<std::string> in_wave;
  auto flush = [&]() {
    if (wave.empty()) return;
    for (size_t index : wave) {
      AdmitEntity(observations[index].entity, in_wave, &result.evicted);
    }
    const int32_t ordinal = static_cast<int32_t>(wave_timings_.size());
    ObserveWave(observations, wave);
    for (size_t index : wave) {
      result.steps[index] = entities_.at(observations[index].entity).steps;
      result.wave_index[index] = ordinal;
    }
    wave.clear();
    in_wave.clear();
  };
  for (size_t i = 0; i < observations.size(); ++i) {
    if (static_cast<int64_t>(wave.size()) >= wave_cap ||
        in_wave.count(observations[i].entity) > 0) {
      flush();
    }
    wave.push_back(i);
    in_wave.insert(observations[i].entity);
  }
  flush();
  return result;
}

void InferenceSession::ForecastWave(const std::vector<std::string>& entities,
                                    size_t begin, size_t end, Tensor* out) {
  WaveTiming timing;
  timing.start_ns = obs::internal::TraceNowNs();
  const core::TGCRNConfig& mc = model_->config();
  const int64_t n = mc.num_nodes;
  const int64_t q = mc.horizon;
  const int64_t layers = mc.num_layers;
  const int64_t active = static_cast<int64_t>(end - begin);
  const int64_t b = WaveWidth(active);

  core::TGCRNState state;
  state.hidden.reserve(layers);
  for (int64_t l = 0; l < layers; ++l) {
    Tensor h({b, n, mc.hidden_dim});
    for (int64_t i = 0; i < active; ++i) {
      const EntityState& entity = entities_.at(entities[begin + i]);
      std::memcpy(h.mutable_data() + i * n * mc.hidden_dim,
                  entity.hidden[l].data(),
                  static_cast<size_t>(n * mc.hidden_dim) * sizeof(float));
    }
    state.hidden.emplace_back(std::move(h));
  }
  state.cached_adj.resize(layers);
  state.last_slots.assign(static_cast<size_t>(b), 0);
  std::vector<std::vector<int64_t>> y_slots(
      static_cast<size_t>(b), std::vector<int64_t>(static_cast<size_t>(q), 0));
  for (int64_t i = 0; i < active; ++i) {
    const EntityState& entity = entities_.at(entities[begin + i]);
    state.last_slots[i] = entity.last_slot;
    for (int64_t step = 0; step < q; ++step) {
      y_slots[i][step] =
          (entity.last_slot + 1 + step) % mc.steps_per_day;
    }
    entities_[entities[begin + i]].tick = ++tick_;
  }

  Tensor raw;
  timing.gather_end_ns = obs::internal::TraceNowNs();
  {
    ag::NoGradGuard no_grad;
    // The decoder always rebuilds its graph at q == 0, so decoding from a
    // reassembled state is exact (see DecoderForecast).
    ag::Variable pred = model_->DecoderForecast(&state, y_slots, nullptr);
    raw = scaler_.InverseTransform(pred.value());
  }
  timing.kernel_end_ns = obs::internal::TraceNowNs();
  const int64_t row = q * n * mc.output_dim;
  for (int64_t i = 0; i < active; ++i) {
    std::memcpy(out->mutable_data() + (begin + i) * row,
                raw.data() + i * row,
                static_cast<size_t>(row) * sizeof(float));
  }

  timing.scatter_end_ns = obs::internal::TraceNowNs();
  timing.active = active;
  wave_timings_.push_back(timing);
  const int64_t us = (timing.scatter_end_ns - timing.start_ns) / 1000;
  ServeMetrics& metrics = Metrics();
  metrics.batch_size->Observe(active);
  for (int64_t i = 0; i < active; ++i) metrics.request_us->Observe(us);
  metrics.requests->Add(active);
  requests_ += active;
}

void InferenceSession::Forecast(const std::vector<std::string>& entities,
                                Tensor* out, std::vector<int64_t>* steps) {
  const core::TGCRNConfig& mc = model_->config();
  wave_timings_.clear();
  steps->resize(entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    const int64_t entity_steps = StepsFor(entities[i]);
    TGCRN_CHECK(entity_steps > 0)
        << "entity " << entities[i] << " has no observations";
    (*steps)[i] = entity_steps;
  }
  *out = Tensor::ForOverwrite({static_cast<int64_t>(entities.size()),
                               mc.horizon, mc.num_nodes, mc.output_dim});
  for (size_t begin = 0; begin < entities.size();
       begin += static_cast<size_t>(kWaveMax)) {
    const size_t end =
        std::min(entities.size(), begin + static_cast<size_t>(kWaveMax));
    ForecastWave(entities, begin, end, out);
  }
}

bool InferenceSession::CollectLiveGraphHealth(const float* prev,
                                              int64_t prev_slot,
                                              const float* last,
                                              int64_t last_slot,
                                              obs::GraphHealthReport* out) {
  const core::TGCRNConfig& mc = model_->config();
  if (prev == nullptr || last == nullptr || out == nullptr) return false;
  const int64_t nd = mc.num_nodes * mc.input_dim;
  Tensor raw({1, 2, mc.num_nodes, mc.input_dim});
  std::memcpy(raw.mutable_data(), prev,
              static_cast<size_t>(nd) * sizeof(float));
  std::memcpy(raw.mutable_data() + nd, last,
              static_cast<size_t>(nd) * sizeof(float));
  data::Batch batch;
  batch.x = scaler_.Transform(raw);
  batch.x_slots = {{prev_slot, last_slot}};
  return model_->CollectGraphHealth(batch, out);
}

bool InferenceSession::Evict(const std::string& entity) {
  const bool erased = entities_.erase(entity) > 0;
  if (erased) {
    Metrics().entities->Set(static_cast<double>(entities_.size()));
  }
  return erased;
}

int64_t InferenceSession::EntityCount() const {
  return static_cast<int64_t>(entities_.size());
}

int64_t InferenceSession::StepsFor(const std::string& entity) const {
  auto it = entities_.find(entity);
  return it == entities_.end() ? -1 : it->second.steps;
}

}  // namespace serve
}  // namespace tgcrn
