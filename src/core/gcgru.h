// Copyright 2026 TGCRN Reproduction Authors
// Graph Convolution-based Gated Recurrent Unit (GCGRU), Section III-B.
// Each gate aggregates [X_t ; h_{t-1}] over the (time-aware) graph and
// applies node-specific, time-aware weights obtained by the paper's matrix
// decomposition W = E_hat W_pool with E_hat = [E_nu ; E_tau,t] (Eq 12-16).
//
// Implementation note: materializing W = E_hat @ W_pool per (batch, node)
// costs B*N*d_e*C*H. Because E_hat concatenates a batch-independent node
// part and a node-independent time part, the contraction factorizes
//   out[b,n] = s[b,n] (E_nu[n] Wp_nu) + s[b,n] (E_tau[b] Wp_tau)
// which is algebraically identical (matmul distributes over the
// concatenation) and ~d_e times cheaper. The parameters are stored as the
// two pool halves; their union is exactly the paper's W_pool.
#ifndef TGCRN_CORE_GCGRU_H_
#define TGCRN_CORE_GCGRU_H_

#include "autograd/ops.h"
#include "autograd/sparse_ops.h"
#include "nn/init.h"
#include "nn/module.h"

namespace tgcrn {
namespace core {

// The aggregation operand of one recurrent step: either the dense
// normalized adjacency [B, N, N] or its top-k CSR form (the
// TGCRN_GRAPH_TOPK execution path). Exactly one side is set; the GCGRU
// step runs its spatial aggregation as a batched GEMM or as CSR SpMM
// (ag::SpmmCsrRows) accordingly.
struct Adjacency {
  ag::Variable dense;
  ag::SparseGraph sparse;

  Adjacency() = default;
  /*implicit*/ Adjacency(ag::Variable d) : dense(std::move(d)) {}
  /*implicit*/ Adjacency(ag::SparseGraph s) : sparse(std::move(s)) {}

  bool is_sparse() const { return sparse.defined(); }
  bool defined() const { return dense.defined() || sparse.defined(); }
};

// The parameter-only products of one cell: the node halves of the
// node-adaptive weights of Eq 13-15, W_nu = E_nu pool_w_node and
// b_nu = E_nu pool_b_node, for the gates and the candidate. They depend on
// parameters alone, so a pass computes them once (GCGRUCell::HoistWeights)
// instead of at every step; TGCRNState keeps them for the pass it drives.
// Each product is an ag::Matmul: one autograd node per pass while a
// gradient is recorded, which every step of the pass feeds its dW_nu and
// b_nu gradient into, and a plain leaf under NoGradGuard. For batches wide
// enough to pay for it, each node's W_nu slice is also packed for the
// forward GEMM and, when recording, transposed for the backward's
// g W_nu^T. Packed or not, the values are the same bits. The weights are
// valid only while the parameters keep the values they had when hoisted:
// a new pass (or serving wave) hoists again.
struct GCGRUWeights {
  ag::Variable gates_w;    // [N, 2C * 2H]
  ag::Variable gates_b;    // [N, 2H]
  ag::Variable cand_w;     // [N, 2C * H]
  ag::Variable cand_b;     // [N, H]
  Tensor gates_packed;     // N panel sets of gates_w[n] as (2C x 2H)
  Tensor cand_packed;      // N panel sets of cand_w[n] as (2C x H)
  Tensor gates_packed_t;   // N panel sets of gates_w[n]^T as (2H x 2C)
  Tensor cand_packed_t;    // N panel sets of cand_w[n]^T as (H x 2C)

  bool defined() const { return gates_w.defined(); }
};

class GCGRUCell : public nn::Module {
 public:
  // node_embed_dim is d_nu; time_embed_dim is d_tau (0 disables the
  // time-aware weight component, e.g. for the "w/o tagsl" ablation).
  GCGRUCell(int64_t input_dim, int64_t hidden_dim, int64_t node_embed_dim,
            int64_t time_embed_dim, Rng* rng);

  // One recurrent step, Eq 13-16 fused into one tensor-level step (the
  // gates, the candidate and the blend).
  //   x:          [B, N, input_dim]   current input
  //   h:          [B, N, hidden_dim]  previous hidden state
  //   adj:        dense [B, N, N] or top-k CSR adjacency (see Adjacency)
  //   node_embed: [N, d_nu]           E_nu
  //   time_embed: [B, d_tau]          E_tau at this step (undefined Variable
  //                                   when constructed with d_tau == 0)
  // Returns the next hidden state [B, N, hidden_dim]. While gradients are
  // recorded and some input needs them, the step is ONE autograd node whose
  // hand-written backward routes gradients to x, h, the adjacency, E_tau,
  // the four time pools and the hoisted W_nu and b_nu (whose own nodes
  // pass them on to E_nu and the four node pools once per pass); under
  // NoGradGuard (eval, serving) it runs on plain tensors and records
  // nothing. This overload hoists the weights itself (four more nodes).
  ag::Variable Forward(const ag::Variable& x, const ag::Variable& h,
                       const Adjacency& adj, const ag::Variable& node_embed,
                       const ag::Variable& time_embed) const;
  // Same step with weights hoisted earlier from the same node_embed and
  // the cell's current parameters (bitwise the values the overload above
  // computes).
  ag::Variable Forward(const ag::Variable& x, const ag::Variable& h,
                       const Adjacency& adj, const ag::Variable& node_embed,
                       const ag::Variable& time_embed,
                       const GCGRUWeights& weights) const;

  // W_nu and b_nu for both convolutions as ag::Matmul products, packed per
  // node when `batch` (the B the weights will serve) reaches the GEMM
  // packing cutover; the backward's transposed panels only when the
  // products record a gradient.
  GCGRUWeights HoistWeights(const ag::Variable& node_embed,
                            int64_t batch) const;

  int64_t hidden_dim() const { return hidden_dim_; }
  int64_t input_dim() const { return input_dim_; }

 private:
  int64_t input_dim_;
  int64_t hidden_dim_;
  int64_t node_embed_dim_;
  int64_t time_embed_dim_;
  // Gate (z, r) pools: node half [d_nu, C*2H] and time half [d_tau, C*2H].
  ag::Variable gates_pool_w_node_;
  ag::Variable gates_pool_w_time_;
  ag::Variable gates_pool_b_node_;  // [d_nu, 2H]
  ag::Variable gates_pool_b_time_;  // [d_tau, 2H]
  // Candidate pools.
  ag::Variable cand_pool_w_node_;
  ag::Variable cand_pool_w_time_;
  ag::Variable cand_pool_b_node_;
  ag::Variable cand_pool_b_time_;
};

}  // namespace core
}  // namespace tgcrn

#endif  // TGCRN_CORE_GCGRU_H_
