// Copyright 2026 TGCRN Reproduction Authors
#include "core/tgcrn.h"

#include <cmath>

#include "obs/health.h"

namespace tgcrn {
namespace core {
namespace {

// The hoisted weights of cells[layer] in a state's per-pass cache,
// computed on first use for a batch of `batch`.
const GCGRUWeights& HoistedWeights(
    const std::vector<std::unique_ptr<GCGRUCell>>& cells, int64_t layer,
    const ag::Variable& node_embed, int64_t batch,
    std::vector<GCGRUWeights>* weights) {
  weights->resize(cells.size());
  GCGRUWeights& w = (*weights)[layer];
  if (!w.defined()) w = cells[layer]->HoistWeights(node_embed, batch);
  return w;
}

}  // namespace

TGCRN::TGCRN(const TGCRNConfig& config, Rng* rng)
    : config_(config), sampling_rng_(config.sampling_seed) {
  TGCRN_CHECK_GT(config_.num_nodes, 0);
  TGCRN_CHECK_GE(config_.num_layers, 1);

  if (UsesTime()) {
    switch (config_.time_encoder) {
      case TGCRNConfig::TimeEncoderKind::kDiscrete:
        time_encoder_ = std::make_unique<DiscreteTimeEmbedding>(
            config_.steps_per_day, config_.time_embed_dim, rng);
        break;
      case TGCRNConfig::TimeEncoderKind::kTime2vec:
        time_encoder_ = std::make_unique<Time2vecEncoder>(
            config_.time_embed_dim, config_.steps_per_day, rng);
        break;
      case TGCRNConfig::TimeEncoderKind::kContinuous:
        time_encoder_ = std::make_unique<ContinuousTimeEncoder>(
            config_.time_embed_dim, config_.steps_per_day, rng);
        break;
    }
    RegisterModule("time_encoder", time_encoder_.get());
  }

  TagSL::Options tagsl_options;
  tagsl_options.num_nodes = config_.num_nodes;
  tagsl_options.node_dim = config_.node_embed_dim;
  tagsl_options.alpha = config_.alpha;
  tagsl_options.use_time = UsesTime();
  tagsl_options.use_pdf = config_.use_tagsl && config_.use_pdf;
  tagsl_ = std::make_unique<TagSL>(tagsl_options, time_encoder_.get(), rng);
  RegisterModule("tagsl", tagsl_.get());

  const int64_t time_dim = UsesTime() ? config_.time_embed_dim : 0;
  embed_dim_ = config_.node_embed_dim + time_dim;

  for (int64_t l = 0; l < config_.num_layers; ++l) {
    const int64_t enc_in = l == 0 ? config_.input_dim : config_.hidden_dim;
    encoder_cells_.push_back(std::make_unique<GCGRUCell>(
        enc_in, config_.hidden_dim, config_.node_embed_dim, time_dim, rng));
    RegisterModule("encoder_cell" + std::to_string(l),
                   encoder_cells_.back().get());
  }
  if (config_.use_encoder_decoder) {
    for (int64_t l = 0; l < config_.num_layers; ++l) {
      const int64_t dec_in = l == 0 ? config_.output_dim : config_.hidden_dim;
      decoder_cells_.push_back(std::make_unique<GCGRUCell>(
          dec_in, config_.hidden_dim, config_.node_embed_dim, time_dim,
          rng));
      RegisterModule("decoder_cell" + std::to_string(l),
                     decoder_cells_.back().get());
    }
    output_layer_ = std::make_unique<nn::Linear>(config_.hidden_dim,
                                                 config_.output_dim, rng);
    RegisterModule("output_layer", output_layer_.get());
  } else {
    direct_head_ = std::make_unique<nn::Linear>(
        config_.hidden_dim, config_.horizon * config_.output_dim, rng);
    RegisterModule("direct_head", direct_head_.get());
  }
}

double TGCRN::ParameterCount(const TGCRNConfig& config) {
  // Mirrors the constructor above, module by module.
  const bool uses_time = config.use_tagsl;
  const double nodes = static_cast<double>(config.num_nodes);
  const double hidden = static_cast<double>(config.hidden_dim);
  const double node_dim = static_cast<double>(config.node_embed_dim);
  const double time_dim =
      uses_time ? static_cast<double>(config.time_embed_dim) : 0.0;
  const double in = static_cast<double>(config.input_dim);
  const double out = static_cast<double>(config.output_dim);
  const double layers = static_cast<double>(config.num_layers);
  double count = 0.0;
  if (uses_time) {
    switch (config.time_encoder) {
      case TGCRNConfig::TimeEncoderKind::kDiscrete:
        count += static_cast<double>(config.steps_per_day) * time_dim;
        break;
      case TGCRNConfig::TimeEncoderKind::kTime2vec:
        count += 2.0 * time_dim;  // freq, phase
        break;
      case TGCRNConfig::TimeEncoderKind::kContinuous:
        count += std::floor(time_dim / 2.0);  // freq
        break;
    }
  }
  count += nodes * node_dim;  // TagSL E_nu
  // One GCGRU cell: gate and candidate pools (weights and biases) over
  // the node and time embeddings, for [v ; A v] inputs of 2 * (in + H).
  const auto cell = [&](double cell_in) {
    const double cat = 2.0 * (cell_in + hidden);
    return (node_dim + time_dim) * 3.0 * hidden * (cat + 1.0);
  };
  count += cell(in) + (layers - 1.0) * cell(hidden);
  if (config.use_encoder_decoder) {
    count += cell(out) + (layers - 1.0) * cell(hidden);
    count += hidden * out + out;  // output layer
  } else {
    const double head = static_cast<double>(config.horizon) * out;
    count += hidden * head + head;  // direct head
  }
  return count;
}

std::vector<int64_t> TGCRN::SlotColumn(
    const std::vector<std::vector<int64_t>>& rows, int64_t t) {
  std::vector<int64_t> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    TGCRN_CHECK_LT(t, static_cast<int64_t>(row.size()));
    out.push_back(row[t]);
  }
  return out;
}

std::vector<int64_t> TGCRN::PrevSlots(const std::vector<int64_t>& slots,
                                      int64_t steps_per_day) {
  std::vector<int64_t> out;
  out.reserve(slots.size());
  for (int64_t s : slots) {
    out.push_back((s + steps_per_day - 1) % steps_per_day);
  }
  return out;
}

Adjacency TGCRN::BuildAdjacency(const ag::Variable& x,
                                const std::vector<int64_t>& slots,
                                const std::vector<int64_t>& prev_slots)
    const {
  if (config_.graph_topk > 0) {
    return Adjacency(
        tagsl_->BuildSparseGraph(x, slots, prev_slots, config_.graph_topk));
  }
  return Adjacency(tagsl_->BuildGraph(x, slots, prev_slots));
}

ag::Variable TGCRN::BuildEmbed(int64_t batch,
                               const std::vector<int64_t>& slots) const {
  // The per-step time representation E_tau,t of Eq 12 ([B, d_tau]); the
  // node half E_nu is passed to GCGRU separately (the factorized form of
  // the concatenation - see gcgru.h).
  (void)batch;
  if (!UsesTime()) return {};
  return time_encoder_->Encode(slots);
}

TGCRNState TGCRN::InitState(int64_t batch_size) const {
  TGCRNState state;
  state.hidden.resize(config_.num_layers);
  for (int64_t l = 0; l < config_.num_layers; ++l) {
    state.hidden[l] = ag::Variable(
        Tensor::Zeros({batch_size, config_.num_nodes, config_.hidden_dim}));
  }
  state.cached_adj.resize(config_.num_layers);
  return state;
}

void TGCRN::EncoderStep(const ag::Variable& x,
                        const std::vector<int64_t>& slots,
                        TGCRNState* state) {
  TGCRN_CHECK(state->initialized());
  TGCRN_CHECK_EQ(x.size(1), config_.num_nodes);
  const int64_t refresh = std::max<int64_t>(config_.graph_refresh_interval,
                                            1);
  const std::vector<int64_t> prev =
      state->last_slots.empty() ? PrevSlots(slots, config_.steps_per_day)
                                : state->last_slots;
  ag::Variable time_embed = BuildEmbed(x.size(0), slots);
  ag::Variable input = x;
  for (int64_t l = 0; l < config_.num_layers; ++l) {
    // Each layer learns its own time-aware graph from its own input
    // state (Section III-C: X^i = h^{i-1}); with refresh > 1 the graph
    // is rebuilt lazily (paper Section IV-C3's proposed optimization).
    if (state->steps % refresh == 0 || !state->cached_adj[l].defined()) {
      state->cached_adj[l] = BuildAdjacency(input, slots, prev);
    }
    input = encoder_cells_[l]->Forward(
        input, state->hidden[l], state->cached_adj[l],
        tagsl_->node_embedding(), time_embed,
        HoistedWeights(encoder_cells_, l, tagsl_->node_embedding(),
                       x.size(0), &state->encoder_weights));
    if (config_.inter_layer_dropout > 0.0f && l + 1 < config_.num_layers) {
      input = ag::Dropout(input, config_.inter_layer_dropout, training(),
                          &sampling_rng_);
    }
    state->hidden[l] = input;
  }
  state->last_slots = slots;
  ++state->steps;
}

ag::Variable TGCRN::DecoderForecast(
    TGCRNState* state, const std::vector<std::vector<int64_t>>& y_slots,
    const Tensor* teacher_values) {
  TGCRN_CHECK(state->initialized());
  const int64_t b = state->hidden.front().size(0);
  const int64_t n = config_.num_nodes;

  if (!config_.use_encoder_decoder) {
    // Table VII "w/o enc-dec": a fully connected head maps the last hidden
    // state directly to all Q steps.
    ag::Variable flat =
        direct_head_->Forward(state->hidden.back());  // [B,N,Q*d]
    ag::Variable shaped = ag::Reshape(
        flat, {b, n, config_.horizon, config_.output_dim});
    ag::Variable direct_out = ag::Permute(shaped, {0, 2, 1, 3});  // [B,Q,N,d]
    TGCRN_HEALTH_TAP("tgcrn.prediction", direct_out.value());
    return direct_out;
  }

  // Hidden states initialized from the encoder; inputs are the model's own
  // previous predictions (recursive multi-step decoding). The adjacency
  // cache is rebuilt at q == 0 (0 % refresh == 0), so a decoder rollout
  // never depends on encoder-cached graphs — which is what lets the
  // serving session decode from a reassembled state.
  const int64_t refresh = std::max<int64_t>(config_.graph_refresh_interval,
                                            1);
  ag::Variable dec_input{Tensor::Zeros({b, n, config_.output_dim})};
  std::vector<ag::Variable> outputs;
  std::vector<int64_t> prev_slots = state->last_slots;
  TGCRN_CHECK(!prev_slots.empty()) << "decoder needs at least one encoded step";
  for (int64_t q = 0; q < config_.horizon; ++q) {
    const std::vector<int64_t> slots = SlotColumn(y_slots, q);
    ag::Variable time_embed = BuildEmbed(b, slots);
    ag::Variable input = dec_input;
    for (int64_t l = 0; l < config_.num_layers; ++l) {
      if (q % refresh == 0 || !state->cached_adj[l].defined()) {
        state->cached_adj[l] = BuildAdjacency(input, slots, prev_slots);
      }
      input = decoder_cells_[l]->Forward(
          input, state->hidden[l], state->cached_adj[l],
          tagsl_->node_embedding(), time_embed,
          HoistedWeights(decoder_cells_, l, tagsl_->node_embedding(), b,
                         &state->decoder_weights));
      state->hidden[l] = input;
    }
    ag::Variable y =
        output_layer_->Forward(state->hidden.back());  // [B, N, d_out]
    outputs.push_back(y);
    // Scheduled sampling: while training, with probability
    // teacher_forcing_ the decoder is fed the ground truth for this step
    // (detached from the graph) instead of its own prediction.
    if (training() && teacher_forcing_ > 0.0f && teacher_values != nullptr &&
        sampling_rng_.NextDouble() < teacher_forcing_) {
      dec_input = ag::Variable(
          teacher_values->Slice(1, q, q + 1).Squeeze(1).Clone());
    } else {
      dec_input = y;
    }
    prev_slots = slots;
  }
  ag::Variable prediction = ag::Stack(outputs, 1);  // [B, Q, N, d_out]
  TGCRN_HEALTH_TAP("tgcrn.prediction", prediction.value());
  return prediction;
}

ag::Variable TGCRN::Forward(const data::Batch& batch) {
  const int64_t b = batch.batch_size();
  const int64_t p = batch.x.size(1);
  TGCRN_CHECK_EQ(batch.x.size(2), config_.num_nodes);

  TGCRNState state = InitState(b);
  ag::Variable x_all{batch.x};  // constant input [B, P, N, d]
  for (int64_t t = 0; t < p; ++t) {
    EncoderStep(ag::Squeeze(ag::Slice(x_all, 1, t, t + 1), 1),  // [B, N, d]
                SlotColumn(batch.x_slots, t), &state);
  }
  // Scheduled sampling only draws from the RNG while training with a
  // non-zero probability, so passing the teacher only then keeps the
  // sampling stream identical to the pre-split implementation.
  const Tensor* teacher =
      config_.use_encoder_decoder && training() && teacher_forcing_ > 0.0f
          ? &batch.y_scaled
          : nullptr;
  return DecoderForecast(&state, batch.y_slots, teacher);
}

bool TGCRN::CollectGraphHealth(const data::Batch& batch,
                               obs::GraphHealthReport* out) {
  const int64_t p = batch.x.size(1);
  if (p < 2) return false;
  ag::NoGradGuard no_grad;
  // A^t from the last input step, A^{t-1} from the one before it — the
  // same (x, slot, prev-slot) triples the encoder feeds TagSL.
  ag::Variable x_t{batch.x.Slice(1, p - 1, p).Squeeze(1)};
  ag::Variable x_prev{batch.x.Slice(1, p - 2, p - 1).Squeeze(1)};
  const std::vector<int64_t> slots = SlotColumn(batch.x_slots, p - 1);
  const std::vector<int64_t> prev = SlotColumn(batch.x_slots, p - 2);
  const std::vector<int64_t> prev2 =
      p >= 3 ? SlotColumn(batch.x_slots, p - 3)
             : PrevSlots(prev, config_.steps_per_day);
  *out = tagsl_->ComputeGraphHealth(x_t, x_prev, slots, prev, prev2,
                                    graph_health_options_,
                                    &graph_topk_state_);
  return true;
}

ag::Variable TGCRN::AuxiliaryLoss(const data::Batch& batch, Rng* rng) {
  if (!config_.use_tdl || !UsesTime() ||
      config_.time_encoder != TGCRNConfig::TimeEncoderKind::kDiscrete) {
    return {};
  }
  // Rows are the windows' full P+Q slot sequences; gamma = P/2 (paper:
  // "we set gamma_triangle half of the length of the input time steps").
  std::vector<std::vector<int64_t>> rows;
  rows.reserve(batch.x_slots.size());
  for (size_t i = 0; i < batch.x_slots.size(); ++i) {
    std::vector<int64_t> row = batch.x_slots[i];
    row.insert(row.end(), batch.y_slots[i].begin(), batch.y_slots[i].end());
    rows.push_back(std::move(row));
  }
  const int64_t gamma =
      std::max<int64_t>(1, static_cast<int64_t>(batch.x_slots[0].size()) / 2);
  return TimeDiscrepancyLossFromRows(*time_encoder_, rows, gamma,
                                     config_.steps_per_day, rng);
}

Tensor TGCRN::LearnedAdjacency(const Tensor& x_t,
                               const std::vector<int64_t>& slots) const {
  ag::Variable x{x_t.dim() == 2 ? x_t.Unsqueeze(0) : x_t};
  ag::Variable adj = tagsl_->BuildGraph(
      x, slots, PrevSlots(slots, config_.steps_per_day));
  return adj.value().Mean(0);
}

Tensor TGCRN::LearnedRawAdjacency(const Tensor& x_t,
                                  const std::vector<int64_t>& slots) const {
  ag::Variable x{x_t.dim() == 2 ? x_t.Unsqueeze(0) : x_t};
  ag::Variable adj = tagsl_->BuildRawGraph(
      x, slots, PrevSlots(slots, config_.steps_per_day));
  return adj.value().dim() == 3 ? adj.value().Mean(0) : adj.value();
}

Tensor TGCRN::TimeEmbeddingTable() const {
  auto* discrete = dynamic_cast<DiscreteTimeEmbedding*>(time_encoder_.get());
  TGCRN_CHECK(discrete != nullptr)
      << "time embedding table only exists for the discrete encoder";
  return discrete->weight().value();
}

}  // namespace core
}  // namespace tgcrn
