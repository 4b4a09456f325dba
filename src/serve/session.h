// Copyright 2026 TGCRN Reproduction Authors
// The inference half of the model/runtime split (DESIGN §15): a trained
// TGCRN plus the state the *runtime* owns — per-entity GCGRU hidden
// states, the scaler, micro-batching policy, and the serve metrics.
//
// An "entity" is one independent stream of [N, d] observations (one city,
// one deployment, one sensor fleet). Each observation advances that
// entity's recurrence by exactly one EncoderStep instead of replaying a
// P-step window, so serving cost per observation is O(1) in the window
// length; a forecast rolls the decoder out of the cached hidden state.
// Because TGCRN::Forward is itself built on InitState/EncoderStep/
// DecoderForecast, a warm entity's forecast is bitwise-identical to a
// direct Forward over the same window (pinned by serve_session_test).
//
// Zero-alloc steady state: the tensor pool recycles every per-request
// temporary — including the sub-256-element trend factors of TagSL — and
// the session pads wave batch sizes to powers of two so the pool sees a
// small, repeating set of shapes. After warm-up, an observe/forecast wave
// makes zero tensor heap allocations (pinned via the tensor.allocations
// counter, the same contract training pins per step).
//
// Thread model: the session is single-threaded (the poll-loop server and
// the bench both drive it from one thread); tensor ops inside a wave
// still use the global thread pool.
#ifndef TGCRN_SERVE_SESSION_H_
#define TGCRN_SERVE_SESSION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/tgcrn.h"
#include "data/dataset.h"
#include "obs/report.h"
#include "tensor/tensor.h"

namespace tgcrn {
namespace serve {

// Largest micro-batch (wave) handed to the batched kernels.
inline constexpr int64_t kWaveMax = 32;

// The deployment setting, overridable by its env var (documented in
// docs/API.md and docs/SERVING.md).
struct SessionConfig {
  // Entity cache capacity; admitting one more evicts the least recently
  // used entity (serve.evictions counts them).
  int64_t max_entities = 4096;  // TGCRN_SERVE_MAX_ENTITIES

  static SessionConfig FromEnv();
};

// One entity observation: the raw (unscaled) [N, d] reading at a
// slot-of-day. values is row-major, length N*d.
struct Observation {
  std::string entity;
  int64_t slot = 0;
  std::vector<float> values;
};

// Stage timing of one kernel wave (steady-clock ns, obs/trace clock):
// gather covers input staging plus hidden-state reassembly, kernel the
// EncoderStep/DecoderForecast call, scatter the write-back into the
// entity cache (or the output tensor, for forecasts). The telemetry
// layer turns these into per-request stage stamps.
struct WaveTiming {
  int64_t start_ns = 0;
  int64_t gather_end_ns = 0;
  int64_t kernel_end_ns = 0;
  int64_t scatter_end_ns = 0;
  int64_t active = 0;  // active (unpadded) rows in the wave
};

class InferenceSession {
 public:
  // `model` (borrowed, must outlive the session) is switched to eval mode;
  // `scaler` must be the one fitted at training time, as a
  // core::Checkpoint carries it.
  InferenceSession(core::TGCRN* model, data::StandardScaler scaler,
                   SessionConfig config);

  struct ObserveResult {
    std::vector<int64_t> steps;  // per observation: entity steps after it
    // Per observation: ordinal of the kernel wave (into wave_timings())
    // that served it.
    std::vector<int32_t> wave_index;
    int64_t evicted = 0;         // entities evicted to admit new ones
  };
  // Advances each observation's entity by one recurrent step. Unknown
  // entities are created (their first steps are the warm-up — allocations
  // during warm-up are expected; steady state is allocation-free).
  // Observations are chunked into waves of at most
  // min(kWaveMax, max_entities) *distinct* entities; repeats of an
  // entity land in later waves in input order. A wave's own entities are
  // never LRU victims, so an arbitrarily wide batch is served by
  // chunking instead of evicting in-flight state. CHECK-fails on a
  // values length != N*d or a slot outside [0, steps_per_day).
  ObserveResult Observe(const std::vector<Observation>& observations);

  // Batched forecast for warm entities (steps >= 1 — check StepsFor
  // first; CHECK-fails on cold/unknown entities). Fills `out` with the
  // raw-space forecast [B, Q, N, d]; row i belongs to entities[i]
  // (duplicates allowed), and steps[i] reports that entity's encoder
  // step count. Does not advance entity state.
  void Forecast(const std::vector<std::string>& entities, Tensor* out,
                std::vector<int64_t>* steps);

  // Drops one entity's cached state. Returns false if unknown.
  bool Evict(const std::string& entity);

  int64_t EntityCount() const;
  // Encoder steps consumed by an entity; -1 if unknown.
  int64_t StepsFor(const std::string& entity) const;
  int64_t requests() const { return requests_; }

  // Stage timings of the waves run by the most recent Observe/Forecast
  // call (cleared at each call's entry; storage capacity is retained so
  // steady state does not allocate). Forecast waves are contiguous
  // kWaveMax-sized chunks: row i of a Forecast ran in wave i/kWaveMax.
  const std::vector<WaveTiming>& wave_timings() const {
    return wave_timings_;
  }

  // Drift-monitor probe: assembles a [1, 2, N, d] window from two
  // consecutive raw observations of one entity and collects the learned
  // graph's health diagnostics on it (row entropy, sparsity, temporal
  // drift, top-k stability across calls). Allocates — call at drift
  // emission cadence, never per request. `prev`/`last` are raw [N*d].
  bool CollectLiveGraphHealth(const float* prev, int64_t prev_slot,
                              const float* last, int64_t last_slot,
                              obs::GraphHealthReport* out);

  const core::TGCRNConfig& model_config() const { return model_->config(); }
  const data::StandardScaler& scaler() const { return scaler_; }

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

 private:
  struct EntityState {
    std::vector<Tensor> hidden;  // per layer [N, hidden_dim]
    int64_t last_slot = 0;
    int64_t steps = 0;
    uint64_t tick = 0;  // LRU stamp
  };

  // Runs one observe wave (indices into `observations`, distinct
  // entities) through EncoderStep and scatters hidden states back.
  void ObserveWave(const std::vector<Observation>& observations,
                   const std::vector<size_t>& wave);
  // Runs one forecast wave; writes rows into out->mutable_data().
  void ForecastWave(const std::vector<std::string>& entities,
                    size_t begin, size_t end, Tensor* out);
  // Returns (creating if needed) `name`'s state and refreshes its LRU
  // tick; a new admission beyond max_entities evicts the LRU entity not
  // named in `protect` (the in-flight wave).
  EntityState& AdmitEntity(const std::string& name,
                           const std::unordered_set<std::string>& protect,
                           int64_t* evicted);

  core::TGCRN* model_;
  data::StandardScaler scaler_;
  SessionConfig config_;
  std::unordered_map<std::string, EntityState> entities_;
  uint64_t tick_ = 0;
  int64_t requests_ = 0;
  std::vector<WaveTiming> wave_timings_;  // last Observe/Forecast call
};

}  // namespace serve
}  // namespace tgcrn

#endif  // TGCRN_SERVE_SESSION_H_
