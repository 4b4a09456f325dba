// Copyright 2026 TGCRN Reproduction Authors
// Time-aware Graph Structure Learning (TagSL), Section III-A of the paper.
// Builds the per-time-step adjacency
//
//   A_nu    = <E_nu, E_nu^T>                       (Eq 6,  static correlation)
//   eta_t   = <E_tau(t), E_tau(t-1)>               (Eq 7,  trend factor)
//   A_rho   = tanh(<X_t, X_t^T>)                   (Eq 8,  periodic discriminant)
//   A^t     = (1 + alpha * sigmoid(A_rho)) .* (A_nu + eta_t)   (Eq 9)
//
// followed by Norm(A^t) = row-softmax over relu(A^t) (Eq 11, the AGCRN
// convention the paper builds on). Ablation switches disable the time term
// (yielding the pure self-learning graph of AGCRN, the paper's "w/o tagsl")
// and the periodic discriminant ("w/o PDF").
#ifndef TGCRN_CORE_TAGSL_H_
#define TGCRN_CORE_TAGSL_H_

#include <vector>

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "core/time_encoders.h"
#include "nn/module.h"
#include "obs/report.h"

namespace tgcrn {
namespace core {

// Knobs for the per-epoch learned-graph diagnostics (§IV-E health view).
struct GraphHealthOptions {
  // Edge-mass threshold for the sparsity statistic; <= 0 means the uniform
  // row weight 1/N (entries carrying more than their uniform share).
  double mass_threshold = 0.0;
  // Neighborhood size for the cross-epoch top-k stability statistic.
  int64_t topk = 3;
};

// Cross-epoch carry-over for top-k stability: each node's top-k neighbor
// ids (sorted) from the previous collection. Empty until the first one.
struct GraphTopKState {
  std::vector<std::vector<int64_t>> topk_ids;
};

class TagSL : public nn::Module {
 public:
  struct Options {
    int64_t num_nodes = 0;
    int64_t node_dim = 12;       // d_nu
    float alpha = 0.3f;          // saturation factor of the PDF (Eq 9)
    bool use_time = true;        // include eta_t (false => self-learning)
    bool use_pdf = true;         // include the periodic discriminant
  };

  // `time_encoder` is borrowed (owned by the enclosing model) and may be
  // null when options.use_time is false.
  TagSL(const Options& options, const TimeEncoder* time_encoder, Rng* rng);

  // Builds the normalized time-aware adjacency [B, N, N].
  // x_t:   [B, N, C] node states at this step (layer input).
  // slots / prev_slots: per-sample slot-of-day ids at t and t-1.
  ag::Variable BuildGraph(const ag::Variable& x_t,
                          const std::vector<int64_t>& slots,
                          const std::vector<int64_t>& prev_slots) const;

  // Pre-normalization A^t of Eq 9 (for the Fig 11 visualizations).
  ag::Variable BuildRawGraph(const ag::Variable& x_t,
                             const std::vector<int64_t>& slots,
                             const std::vector<int64_t>& prev_slots) const;

  // Sparse top-k variant of BuildGraph (the TGCRN_GRAPH_TOPK execution
  // path). Two stages: (1) an exact no-grad selection pass computes the
  // raw scores in small cache-resident row tiles (E_nu E_nu^T once per
  // tile, x x^T per batch item, the Eq 8-9 gate and relu in place) and
  // streams each row into graph::TopKRow, keeping its k largest relu'd
  // logits (value-descending, index-ascending tie-breaks — the same
  // ranking graph::SparsifyTopK applies to the dense softmax, since
  // softmax is strictly monotone); (2) only the B*N*k kept-edge logits are
  // recomputed differentiably (gathers + dots) and row-softmaxed, which
  // equals the dense softmax renormalized over the kept entries — so
  // gradients reach E_nu, the time encoder and x_t through the kept edges
  // and dropped edges get exactly zero gradient (the sparse-training
  // contract, autograd/sparse_ops.h). Autograd memory and compute are
  // O(B*N*k); only the selection scan (gradient-free, with O(tile*N)
  // scratch and no N^2 temporaries) remains O(N^2). All-zero rows
  // degrade to uniform over the kept set, matching graph::SparsifyTopK's
  // fallback.
  ag::SparseGraph BuildSparseGraph(const ag::Variable& x_t,
                                   const std::vector<int64_t>& slots,
                                   const std::vector<int64_t>& prev_slots,
                                   int64_t k) const;

  // Diagnostics of the learned graph at one time step, collected per epoch
  // by the health monitor (no gradients recorded):
  //  * row_entropy — mean row entropy of A^t normalized by ln N: 1 means
  //    the softmax collapsed to uniform rows, 0 means delta rows.
  //  * sparsity — fraction of total edge mass on entries >= threshold.
  //  * temporal_drift — mean |A^t - A^{t-1}| between the graphs of two
  //    adjacent steps (the paper's claim is that graphs evolve with time;
  //    zero drift under use_time means the trend factor is doing nothing).
  //  * topk_stability — mean overlap of each node's top-k neighbors (of
  //    the batch-mean graph) with `state`'s previous collection; NaN when
  //    `state` is empty. `state` is updated in place.
  // x_t/slots/prev_slots build A^t; x_prev/prev_slots/prev2_slots build
  // A^{t-1}. Deterministic at any thread count.
  obs::GraphHealthReport ComputeGraphHealth(
      const ag::Variable& x_t, const ag::Variable& x_prev,
      const std::vector<int64_t>& slots,
      const std::vector<int64_t>& prev_slots,
      const std::vector<int64_t>& prev2_slots,
      const GraphHealthOptions& options, GraphTopKState* state) const;

  const ag::Variable& node_embedding() const { return node_embedding_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  const TimeEncoder* time_encoder_;
  ag::Variable node_embedding_;  // E_nu [N, d_nu]
};

}  // namespace core
}  // namespace tgcrn

#endif  // TGCRN_CORE_TAGSL_H_
