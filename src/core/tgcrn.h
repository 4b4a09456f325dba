// Copyright 2026 TGCRN Reproduction Authors
// The full Time-aware Graph Convolutional Recurrent Network (Section III-C):
// an encoder-decoder of stacked GCGRU layers whose adjacency at every step
// is produced by TagSL, trained with the joint objective
// L = L_error + lambda * L_time (Eq 17). All ablation variants of Table VII
// are switchable through TGCRNConfig.
#ifndef TGCRN_CORE_TGCRN_H_
#define TGCRN_CORE_TGCRN_H_

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/forecast_model.h"
#include "core/gcgru.h"
#include "core/tagsl.h"
#include "core/time_discrepancy.h"
#include "core/time_encoders.h"
#include "nn/linear.h"

namespace tgcrn {
namespace core {

struct TGCRNConfig {
  int64_t num_nodes = 0;
  int64_t input_dim = 2;    // d features per node
  int64_t output_dim = 2;   // forecast channels
  int64_t horizon = 4;      // Q
  int64_t hidden_dim = 16;  // GCGRU units
  int64_t num_layers = 2;
  int64_t node_embed_dim = 12;  // d_nu
  int64_t time_embed_dim = 8;   // d_tau
  int64_t steps_per_day = 72;   // |T| of the discretized day
  float alpha = 0.3f;           // saturation factor (Eq 9)
  float lambda = 0.1f;          // joint-loss weight (Eq 17)
  // Ablation switches (Table VII):
  bool use_tagsl = true;    // false => AGCRN-style static self-learned graph
  bool use_tdl = true;      // time discrepancy learning loss
  bool use_pdf = true;      // periodic discriminant function
  bool use_encoder_decoder = true;  // false => direct FC multi-step head
  enum class TimeEncoderKind { kDiscrete, kTime2vec, kContinuous };
  TimeEncoderKind time_encoder = TimeEncoderKind::kDiscrete;
  // Implements the paper's stated future-work optimization (Section
  // IV-C3): "the changes in correlations between time steps are often
  // small, making it unnecessary to calculate them so frequently". With
  // interval k > 1, the time-aware graph is rebuilt only every k-th
  // recurrent step (per layer) and reused in between. k = 1 is the paper's
  // model. bench_ablation_refresh measures the accuracy/time trade-off.
  int64_t graph_refresh_interval = 1;
  // Learned-graph sparsity (the TGCRN_GRAPH_TOPK path): > 0 keeps only
  // each row's top-k adjacency entries, renormalized, and runs the GCGRU
  // aggregation as CSR SpMM — autograd compute/memory O(N*k) instead of
  // O(N^2). 0 (default) is the dense paper model, bit-exact with the
  // pre-sparse behavior. Dropped edges receive exactly zero gradient
  // (the sparse-training contract, autograd/sparse_ops.h).
  int64_t graph_topk = 0;
  // Dropout applied between stacked GCGRU layers at train time (0 = off;
  // the paper does not specify one - provided as a regularization option).
  float inter_layer_dropout = 0.0f;
  // Enables scheduled-sampling support in the decoder (see
  // ForecastModel::SetTeacherForcingProbability).
  bool allow_teacher_forcing = true;
  uint64_t sampling_seed = 9177;
};

// Incremental recurrent state of a TGCRN encoder over one batch: the
// per-layer GCGRU hidden states plus the per-layer adjacency cache and step
// counter that drive graph_refresh_interval, and the slots of the most
// recent step (the prev-slots input of the next one). Forward() is built on
// this state, so one EncoderStep is bitwise-identical to the corresponding
// step inside a full P-window Forward — the property the serving layer
// (src/serve) relies on to advance entities one observation at a time
// instead of replaying windows. Copying a state copies cheap shared
// handles, not tensor storage. The cells' parameter-only products
// (GCGRUCell::HoistWeights) are computed on first use and kept for the
// state's lifetime — once per training forward pass, serving wave or
// forecast — so a state must not outlive a parameter update. While
// training they are the pass's autograd nodes, which every step feeds its
// W_nu and b_nu gradients into.
struct TGCRNState {
  std::vector<ag::Variable> hidden;   // per layer [B, N, hidden_dim]
  std::vector<Adjacency> cached_adj;  // per layer, refresh-interval cache
  std::vector<int64_t> last_slots;    // per sample; empty before any step
  int64_t steps = 0;                  // encoder steps consumed
  std::vector<GCGRUWeights> encoder_weights;  // per layer, lazily hoisted
  std::vector<GCGRUWeights> decoder_weights;

  bool initialized() const { return !hidden.empty(); }
};

class TGCRN : public ForecastModel {
 public:
  TGCRN(const TGCRNConfig& config, Rng* rng);

  // Number of parameter floats a TGCRN built from `config` holds, without
  // building it. Computed in double so a hostile config cannot overflow;
  // the checkpoint loader bounds it by the file size before construction.
  static double ParameterCount(const TGCRNConfig& config);

  ag::Variable Forward(const data::Batch& batch) override;

  // --- Step-level inference API (the model/runtime split, DESIGN §15) ---
  // Forward() is exactly InitState + P × EncoderStep + DecoderForecast;
  // callers that keep their own state (the serving session) get bitwise-
  // identical results by construction.
  // Zero-hidden state for a batch of `batch_size` samples.
  TGCRNState InitState(int64_t batch_size) const;
  // Advances the recurrence by one step. x is [B, N, input_dim]; slots are
  // the per-sample slot-of-day ids of this step. The previous step's slots
  // come from the state (PrevSlots of `slots` on the very first step,
  // matching Forward's t == 0 handling).
  void EncoderStep(const ag::Variable& x, const std::vector<int64_t>& slots,
                   TGCRNState* state);
  // Rolls the decoder (or the direct head) out of `state`, producing the
  // [B, Q, N, output_dim] forecast. y_slots rows are the per-sample slot
  // ids of the Q future steps. Mutates state->hidden/cached_adj — pass a
  // copy to keep the encoder state. `teacher_values` ([B, Q, N, d],
  // scaled) enables scheduled sampling and is only consulted while
  // training; inference callers pass nullptr.
  ag::Variable DecoderForecast(
      TGCRNState* state, const std::vector<std::vector<int64_t>>& y_slots,
      const Tensor* teacher_values = nullptr);
  ag::Variable AuxiliaryLoss(const data::Batch& batch, Rng* rng) override;
  float auxiliary_weight() const override {
    return (config_.use_tdl && UsesTime()) ? config_.lambda : 0.0f;
  }
  void SetTeacherForcingProbability(float probability) override {
    teacher_forcing_ = config_.allow_teacher_forcing ? probability : 0.0f;
  }
  void SetGraphTopK(int64_t k) override {
    config_.graph_topk = std::max<int64_t>(k, 0);
  }
  std::string name() const override { return "TGCRN"; }

  // Learned-graph diagnostics on the batch's last two input steps (entropy,
  // sparsity, adjacent-step drift, cross-epoch top-k stability). Returns
  // false when the input window is too short (P < 2). Works for the
  // ablated graph variants too — TagSL always produces the adjacency.
  bool CollectGraphHealth(const data::Batch& batch,
                          obs::GraphHealthReport* out) override;

  // The learned time-aware adjacency (normalized) for one step, averaged
  // over the batch dimension - used by the Fig 11 / Fig 12 analyses.
  Tensor LearnedAdjacency(const Tensor& x_t,
                          const std::vector<int64_t>& slots) const;
  // The raw (pre-normalization) A^t of Eq 9.
  Tensor LearnedRawAdjacency(const Tensor& x_t,
                             const std::vector<int64_t>& slots) const;

  // The discrete time-embedding table [steps_per_day, d_tau] (CHECK-fails
  // for the continuous encoder variants).
  Tensor TimeEmbeddingTable() const;

  const TGCRNConfig& config() const { return config_; }

 private:
  bool UsesTime() const {
    return config_.use_tagsl;  // time enters through TagSL and E_hat
  }
  // Builds E_hat^t = [E_nu ; E_tau,t] broadcast to [B, N, embed_dim].
  ag::Variable BuildEmbed(int64_t batch,
                          const std::vector<int64_t>& slots) const;
  // The per-step aggregation operand: dense TagSL graph, or its top-k CSR
  // form when config_.graph_topk > 0.
  Adjacency BuildAdjacency(const ag::Variable& x,
                           const std::vector<int64_t>& slots,
                           const std::vector<int64_t>& prev_slots) const;
  // Per-sample slots at step t of the batch (column of slot rows).
  static std::vector<int64_t> SlotColumn(
      const std::vector<std::vector<int64_t>>& rows, int64_t t);
  static std::vector<int64_t> PrevSlots(const std::vector<int64_t>& slots,
                                        int64_t steps_per_day);

  TGCRNConfig config_;
  GraphHealthOptions graph_health_options_;
  GraphTopKState graph_topk_state_;
  int64_t embed_dim_ = 0;
  float teacher_forcing_ = 0.0f;
  Rng sampling_rng_{9177};
  std::unique_ptr<TimeEncoder> time_encoder_;
  std::unique_ptr<TagSL> tagsl_;
  std::vector<std::unique_ptr<GCGRUCell>> encoder_cells_;
  std::vector<std::unique_ptr<GCGRUCell>> decoder_cells_;
  std::unique_ptr<nn::Linear> output_layer_;   // decoder head (per step)
  std::unique_ptr<nn::Linear> direct_head_;    // w/o enc-dec head
};

}  // namespace core
}  // namespace tgcrn

#endif  // TGCRN_CORE_TGCRN_H_
