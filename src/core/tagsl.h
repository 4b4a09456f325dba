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
//
// Eq 8-11 after A_nu and eta_t are one autograd node (dense and top-k),
// with a hand-written backward that keeps only the normalized graph and
// recomputes the rest from x_t, A_nu (or E_nu) and eta_t. Its values and
// gradients are bitwise those of the op chain it replaced (the oracle in
// tests/tagsl_test.cc; DESIGN §9).
#ifndef TGCRN_CORE_TAGSL_H_
#define TGCRN_CORE_TAGSL_H_

#include <memory>
#include <mutex>
#include <vector>

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "common/cpu_features.h"
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

// The candidate order of the sparse selection walk (defined in tagsl.cc).
struct SelectPrefix;

class TagSL : public nn::Module {
 public:
  struct Options {
    int64_t num_nodes = 0;
    int64_t node_dim = 12;       // d_nu
    float alpha = 0.3f;          // PDF saturation factor (Eq 9), >= 0
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

  // Pre-normalization A^t of Eq 9 (for the Fig 11 visualizations). Values
  // only: the result records no gradient.
  ag::Variable BuildRawGraph(const ag::Variable& x_t,
                             const std::vector<int64_t>& slots,
                             const std::vector<int64_t>& prev_slots) const;

  // Sparse top-k variant of BuildGraph (the TGCRN_GRAPH_TOPK execution
  // path). Two stages: (1) an exact no-grad selection keeps each row's k
  // largest relu'd logits (value-descending, index-ascending tie-breaks —
  // the same ranking graph::SparsifyTopK applies to the dense softmax,
  // since softmax is strictly monotone). It walks each row's columns in
  // descending A_nu order, scoring only the visited candidates, and stops
  // once (1 + alpha) * (A_nu + eta_t), a ceiling on every unvisited score,
  // falls strictly below the k-th kept score; the order is cached until
  // E_nu changes, and a row the walk cannot close is scanned in full.
  // The kept set is bitwise the full scan's. (2) One autograd node
  // recomputes only the B*N*k kept-edge logits and row-softmaxes them,
  // which equals the dense softmax renormalized over the kept entries —
  // so gradients reach E_nu, the time encoder and x_t through the kept
  // edges and dropped edges get exactly zero gradient (the
  // sparse-training contract, autograd/sparse_ops.h). Autograd memory
  // and compute are O(B*N*k); the selection builds its O(N^2)
  // A_nu once per E_nu and otherwise scores a few candidates per row.
  // All-zero rows degrade to uniform over the kept set, matching
  // graph::SparsifyTopK's fallback.
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
  // Eq 7's trend factor eta_t [B, 1]; undefined without use_time.
  ag::Variable TrendFactor(const std::vector<int64_t>& slots,
                           const std::vector<int64_t>& prev_slots,
                           int64_t batch) const;
  // The dense A^t [B, N, N]: normalized (Eq 11) as one autograd node, or
  // Eq 9's raw entries without a tape.
  ag::Variable Graph(const ag::Variable& x_t,
                     const std::vector<int64_t>& slots,
                     const std::vector<int64_t>& prev_slots,
                     bool normalize) const;
  // Stage 1 of BuildSparseGraph: writes the kept column ids of every
  // (item, row) of x [B, N, C] into col_ids (CsrIndex::col_ids layout).
  // eta is the [B] trend factor, or null without use_time.
  void SelectTopK(const float* x, int64_t batch, int64_t channels,
                  const float* eta, int64_t kept, int64_t* col_ids) const;
  // The walk's candidate prefix for the current E_nu, the ISA and the
  // depth for `kept`: the cached one while all three match, else a fresh
  // build (*built).
  std::shared_ptr<const SelectPrefix> AcquireSelectPrefix(
      common::SimdIsa isa, int64_t kept, bool* built) const;

  Options options_;
  const TimeEncoder* time_encoder_;
  ag::Variable node_embedding_;  // E_nu [N, d_nu]

  // Selection-walk cache. The prefix is immutable once built; a call
  // holds its own reference, so a rebuild never pulls it from under a
  // running walk. select_depth_ is the candidate depth for k =
  // select_kept_: it starts at 4k (at least 32) and doubles while rows
  // keep falling back, which rebuilds the prefix on the next call.
  mutable std::mutex select_mu_;
  mutable std::shared_ptr<const SelectPrefix> select_prefix_;
  mutable int64_t select_kept_ = 0;
  mutable int64_t select_depth_ = 0;
};

}  // namespace core
}  // namespace tgcrn

#endif  // TGCRN_CORE_TAGSL_H_
