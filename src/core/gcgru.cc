// Copyright 2026 TGCRN Reproduction Authors
//
// The fused GCGRU step. One call computes Eq 13-16 on plain tensors with
// the same kernels, shapes and add order as a chain of Matmul / Concat /
// Permute / Add / Sigmoid / Tanh / Mul ops would, so its values are
// bitwise those of that chain (the test oracle in tests/gcgru_test.cc).
// Training wraps it in one autograd node whose backward replays the
// chain's backward kernels in the chain's order (DESIGN §9). This file is
// built with -ffp-contract=off (src/CMakeLists.txt): every multiply and
// add in the elementwise loops rounds separately, as the tensor ops do.
#include "core/gcgru.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "tensor/kernels/gemm.h"
#include "tensor/kernels/vmath.h"

namespace tgcrn {
namespace core {
namespace {

// Multiply-accumulates per ParallelFor chunk of the step's own GEMM loops,
// as in the batched-matmul driver (tensor/tensor.cc). Grain only moves
// chunk boundaries between disjoint outputs, never bits.
constexpr int64_t kGemmGrainFlops = 4096;

int64_t GemmGrain(int64_t per_item) {
  return std::max<int64_t>(1,
                           kGemmGrainFlops / std::max<int64_t>(1, per_item));
}

// Packs each of the `count` logical (k x n) matrices of `w` for gemm_rows:
// row-major (k x n) sources, or (n x k) ones read transposed.
Tensor PackEach(const gemm::Kernels& kern, const float* w, int64_t count,
                int64_t k, int64_t n, bool transpose_b = false) {
  const int64_t per = gemm::PackedBCount(k, n);
  Tensor packed = Tensor::ForOverwrite({count * per});
  float* out = packed.mutable_data();
  common::ParallelFor(0, count, GemmGrain(k * n), [&](int64_t m0, int64_t m1) {
    for (int64_t m = m0; m < m1; ++m) {
      kern.pack_b(w + m * k * n, k, n, transpose_b, out + m * per);
    }
  });
  return packed;
}

// One step's aggregation operand as plain tensors: exactly one side set.
struct AdjOperand {
  const Tensor* dense = nullptr;       // [B, N, N]
  graph::CsrIndex* index = nullptr;    // top-k CSR structure
  const Tensor* values = nullptr;      // [B, nnz]
};

// The time-aware half of one convolution's weights (all null without
// time): E_tau [B, d_tau] and the two time pools.
struct TimeOperand {
  const Tensor* embed = nullptr;
  const Tensor* pool_w = nullptr;  // [d_tau, 2C * O]
  const Tensor* pool_b = nullptr;  // [d_tau, O]
};

// What one convolution's backward needs: its activations and the
// parents only it reads.
struct ConvSaved {
  Tensor v;       // [B, N, C]: [x ; h] (gates) or [x ; r*h] (candidate)
  Tensor sup;     // [B, N, 2C] = [v ; A v]
  Tensor w_time;  // [B, 2C * O] = E_tau pool_w_time; empty without time
  Tensor w_packed_t;  // W_nu^T panels for g W_nu^T, or empty
  // The hoisted W_nu [N, 2C * O] and b_nu [N, O], and the time pools
  // (null without time).
  ag::internal::NodeRef w_node, b_node, pool_w_time, pool_b_time;
};

// Everything the step's backward reads: activations and the parents it
// routes gradients to. Lives in the step arena while training
// (ag::SavedState), so a step allocates nothing on the heap for it.
struct StepSaved {
  ConvSaved gates;
  ConvSaved cand;
  Tensor zr;  // [B, N, 2H] sigmoid of the gates (z | r)
  Tensor c;   // [B, N, H] tanh of the candidate
  std::shared_ptr<graph::CsrIndex> index;  // sparse adjacency structure
  ag::internal::NodeRef x, h, adj, time_embed;
};

// Writes [a ; b] rows into v ([rows, ca + cb]) and the first half of sup
// ([rows, 2 (ca + cb)]); `b_scale`, when set, multiplies b elementwise
// (the candidate's r * h, r read at stride b_scale_stride).
void FillValue(const float* a, int64_t ca, const float* b, int64_t cb,
               const float* b_scale, int64_t b_scale_stride, int64_t rows,
               float* v, float* sup) {
  const int64_t c = ca + cb;
  common::ParallelFor(0, rows, RowGrain(2 * c), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* vr = v + r * c;
      const float* ar = a + r * ca;
      const float* br = b + r * cb;
      for (int64_t j = 0; j < ca; ++j) vr[j] = ar[j];
      if (b_scale != nullptr) {
        const float* sr = b_scale + r * b_scale_stride;
        for (int64_t j = 0; j < cb; ++j) vr[ca + j] = sr[j] * br[j];
      } else {
        for (int64_t j = 0; j < cb; ++j) vr[ca + j] = br[j];
      }
      std::copy(vr, vr + c, sup + r * 2 * c);
    }
  });
}

// One node-adaptive convolution of Eq 13/15 plus its activation. On entry
// s->v holds v and the first half of s->sup a copy of it; A v is written
// straight into sup's second half. Returns
//   act(((sup[b,n] W_nu[n] + b_nu[n]) + sup[b,n] W_tau[b]) + b_tau[b])
// in the op-by-op cell's add order; the node term reads sup's per-node
// rows through gemm_rows' A strides.
Tensor ConvForward(const AdjOperand& adj, const TimeOperand& time,
                   const Tensor& w_node, const Tensor& w_packed,
                   const Tensor& b_node, int64_t out_dim,
                   const gemm::Kernels& kern,
                   void (*act)(const float*, float*, int64_t),
                   ConvSaved* s) {
  const int64_t batch = s->v.size(0);
  const int64_t n = s->v.size(1);
  const int64_t c = s->v.size(2);
  const int64_t c2 = 2 * c;
  float* sp = s->sup.mutable_data();
  if (adj.dense != nullptr) {
    const int64_t per = gemm::PackedBCount(n, c);
    const Tensor packed = PackEach(kern, s->v.data(), batch, n, c);
    const float* ap = adj.dense->data();
    common::ParallelFor(
        0, batch * n, GemmGrain(n * c), [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1;) {
            const int64_t bi = r / n;
            const int64_t i = r - bi * n;
            const int64_t run = std::min(r1 - r, n - i);
            kern.gemm_rows(ap + bi * n * n, n, 1, packed.data() + bi * per,
                           i, i + run, n, c, sp + bi * n * c2 + c, c2);
            r += run;
          }
        });
  } else {
    ag::SpmmCsrRows(*adj.index, *adj.values, s->v, sp + c, c2);
  }

  // Node term, per node: its batch rows of sup (stride N * 2C) times
  // W_nu[n], prepacked when the batch is wide enough to pay for packing.
  Tensor by_node = Tensor::ForOverwrite({n, batch, out_dim});
  float* mp = by_node.mutable_data();
  const int64_t per_w = gemm::PackedBCount(c2, out_dim);
  common::ParallelFor(
      0, n, GemmGrain(batch * c2 * out_dim), [&](int64_t n0, int64_t n1) {
        for (int64_t node = n0; node < n1; ++node) {
          float* out_node = mp + node * batch * out_dim;
          if (w_packed.numel() > 0) {
            kern.gemm_rows(sp + node * c2, n * c2, 1,
                           w_packed.data() + node * per_w, 0, batch, c2,
                           out_dim, out_node, out_dim);
          } else {
            kern.gemm_rows_direct(sp + node * c2, n * c2, 1,
                                  w_node.data() + node * c2 * out_dim, 0,
                                  batch, c2, out_dim, out_node);
          }
        }
      });

  Tensor out_time;
  Tensor b_time;
  if (time.embed != nullptr) {
    s->w_time = time.embed->Matmul(*time.pool_w);
    out_time = s->sup.Matmul(s->w_time.Reshape({batch, c2, out_dim}));
    b_time = time.embed->Matmul(*time.pool_b);
  }
  Tensor out = Tensor::ForOverwrite({batch, n, out_dim});
  float* op = out.mutable_data();
  const float* bn = b_node.data();
  const float* ot = time.embed != nullptr ? out_time.data() : nullptr;
  const float* bt = time.embed != nullptr ? b_time.data() : nullptr;
  common::ParallelFor(
      0, batch * n, RowGrain(out_dim), [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t bi = r / n;
          const int64_t node = r - bi * n;
          float* row = op + r * out_dim;
          const float* mr = mp + (node * batch + bi) * out_dim;
          const float* bnr = bn + node * out_dim;
          if (ot != nullptr) {
            const float* otr = ot + r * out_dim;
            const float* btr = bt + bi * out_dim;
            for (int64_t j = 0; j < out_dim; ++j) {
              row[j] = ((mr[j] + bnr[j]) + otr[j]) + btr[j];
            }
          } else {
            for (int64_t j = 0; j < out_dim; ++j) row[j] = mr[j] + bnr[j];
          }
          act(row, row, out_dim);
        }
      });
  return out;
}

// Analytic cost of the step's own loops; the Tensor kernels it calls (the
// time-term GEMMs, the SpMM, the backward's transposed GEMMs) record
// theirs under their own scopes. Shape-only, so identical at every ISA and
// thread count. dense: whether the aggregation is the dense GEMM (run
// here) or the SpMM (recorded by spmm.SpmmCsr).
struct StepCost {
  double flops = 0.0;
  double bytes = 0.0;
};

StepCost ForwardCost(double b, double n, double cin, double hid, bool dense,
                     bool time) {
  StepCost cost;
  const double c = cin + hid;
  const double rows = b * n;
  for (const double o : {2.0 * hid, hid}) {
    if (dense) {
      cost.flops += 2.0 * b * n * n * c;
      cost.bytes += 4.0 * (b * n * n + 2.0 * rows * c);
    }
    cost.flops += 2.0 * rows * 2.0 * c * o;                // node term
    cost.flops += (time ? 3.0 : 1.0) * rows * o;           // bias adds
    cost.bytes += 4.0 * (rows * 3.0 * c + n * 2.0 * c * o  // v, sup, W_nu
                         + 2.0 * rows * o);                // pre, act
  }
  cost.flops += 10.0 * rows * 2.0 * hid + 12.0 * rows * hid;  // sigmoid, tanh
  cost.flops += rows * hid + 5.0 * rows * hid;  // r*h, Eq 16 blend
  cost.bytes += 4.0 * (rows * (cin + 4.0 * hid));  // x, h, z, c~, out
  return cost;
}

// node_panels: whether g W_nu^T runs here on the hoisted panels (else the
// tensor.MatmulTransposeB row records it).
StepCost BackwardCost(double b, double n, double cin, double hid, bool time,
                      bool node_panels) {
  StepCost cost;
  const double c = cin + hid;
  const double rows = b * n;
  for (const double o : {2.0 * hid, hid}) {
    if (node_panels) {
      cost.flops += 2.0 * rows * o * 2.0 * c;  // g W_nu^T
      cost.bytes += 4.0 * (rows * o + n * 2.0 * c * o + rows * 2.0 * c);
    }
    cost.flops += 2.0 * rows * 2.0 * c * o;           // dW_nu (node GEMM)
    cost.flops += (time ? 2.0 : 1.0) * rows * o;      // bias-gradient sums
    cost.flops += 2.0 * rows * 2.0 * c + rows * c;    // sup grad, + A^T g
    cost.bytes += 4.0 * (rows * o * 3.0 + rows * 2.0 * c * 4.0 +
                         n * 2.0 * c * o);
  }
  cost.flops += 9.0 * rows * hid + 7.0 * rows * 2.0 * hid;  // Eq 16, gates
  cost.flops += 2.0 * rows * cin + 3.0 * rows * hid;  // x and h accumulation
  cost.bytes += 4.0 * rows * (3.0 * cin + 12.0 * hid);
  return cost;
}

Tensor StepForward(const Tensor& x, const Tensor& h, const AdjOperand& adj,
                   const TimeOperand& gates_time,
                   const TimeOperand& cand_time, const GCGRUWeights& w,
                   StepSaved* s) {
  TGCRN_TRACE_SCOPE("gcgru.Step");
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  const int64_t cin = x.size(2);
  const int64_t hid = h.size(2);
  const int64_t c = cin + hid;
  const int64_t rows = batch * n;
  const StepCost cost =
      ForwardCost(static_cast<double>(batch), static_cast<double>(n),
                  static_cast<double>(cin), static_cast<double>(hid),
                  adj.dense != nullptr, gates_time.embed != nullptr);
  obs::RecordKernelCost("gcgru.Step", cost.flops, cost.bytes);
  const common::SimdIsa isa = common::ActiveSimdIsa();
  const gemm::Kernels& kern = gemm::GetKernels(isa);
  const vmath::internal::Kernels& vm = vmath::GetVmathKernels(isa);

  // Eq 13-14: update and reset gates from [x ; h] and its aggregation.
  s->gates.v = Tensor::ForOverwrite({batch, n, c});
  s->gates.sup = Tensor::ForOverwrite({batch, n, 2 * c});
  FillValue(x.data(), cin, h.data(), hid, nullptr, 0, rows,
            s->gates.v.mutable_data(), s->gates.sup.mutable_data());
  s->zr = ConvForward(adj, gates_time, w.gates_w.value(), w.gates_packed,
                      w.gates_b.value(), 2 * hid, kern, vm.sigmoid_n,
                      &s->gates);

  // Eq 15: candidate from [x ; r * h].
  s->cand.v = Tensor::ForOverwrite({batch, n, c});
  s->cand.sup = Tensor::ForOverwrite({batch, n, 2 * c});
  FillValue(x.data(), cin, h.data(), hid, s->zr.data() + hid, 2 * hid, rows,
            s->cand.v.mutable_data(), s->cand.sup.mutable_data());
  s->c = ConvForward(adj, cand_time, w.cand_w.value(), w.cand_packed,
                     w.cand_b.value(), hid, kern, vm.tanh_n, &s->cand);

  // Eq 16: h' = (1 - z) h + z c~, with 1 - z as (-z) + 1.
  Tensor out = Tensor::ForOverwrite({batch, n, hid});
  const float* zr = s->zr.data();
  const float* cp = s->c.data();
  const float* hp = h.data();
  float* op = out.mutable_data();
  common::ParallelFor(0, rows, RowGrain(hid), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* z = zr + r * 2 * hid;
      for (int64_t j = 0; j < hid; ++j) {
        const int64_t i = r * hid + j;
        const float one_minus_z = z[j] * -1.0f + 1.0f;
        op[i] = one_minus_z * hp[i] + z[j] * cp[i];
      }
    }
  });
  return out;
}

// Accumulates `g` into `node` when it takes gradients.
void Accumulate(const ag::internal::NodeRef& node, const Tensor& g) {
  if (node && node->needs_grad) node->AccumulateGrad(g);
}

bool NeedsGrad(const ag::internal::NodeRef& node) {
  return node && node->needs_grad;
}

// Columns [begin, begin + width) of a [rows, stride] buffer as a new
// [batch, n, width] tensor.
Tensor Columns(const float* src, int64_t stride, int64_t begin,
               int64_t width, int64_t batch, int64_t n) {
  Tensor out = Tensor::ForOverwrite({batch, n, width});
  float* op = out.mutable_data();
  common::ParallelFor(0, batch * n, RowGrain(width),
                      [&](int64_t r0, int64_t r1) {
                        for (int64_t r = r0; r < r1; ++r) {
                          std::copy(src + r * stride + begin,
                                    src + r * stride + begin + width,
                                    op + r * width);
                        }
                      });
  return out;
}

// True when g W_nu^T runs on the hoisted transposed panels: they exist and
// the batch is wide enough that tensor.MatmulTransposeB would pack the
// same panels (below the cutover it takes its dot-row path instead).
bool UsesNodePanels(const ConvSaved& s) {
  return s.w_packed_t.numel() > 0 && s.v.size(0) >= gemm::kSmallMCutover;
}

// Backward of one convolution given the gradient of its pre-activation
// ([B, N, O]); returns the gradient of v. Parents are accumulated in the
// order the op-by-op chain fired: b_tau (E_tau, pool), the time term
// (sup, then E_tau and pool via W_tau), b_nu, the node term (sup, then
// W_nu), the split of [v ; A v], and the aggregation (adjacency, then v).
// b_nu and W_nu are the pass's hoisted products: their own Matmul nodes
// carry the summed gradients on to E_nu and the node pools once, after
// the last step of the pass.
Tensor ConvBackward(const ConvSaved& s, const Tensor& g_pre,
                    const StepSaved& st, const gemm::Kernels& kern) {
  const int64_t batch = s.v.size(0);
  const int64_t n = s.v.size(1);
  const int64_t c = s.v.size(2);
  const int64_t c2 = 2 * c;
  const int64_t o = g_pre.size(2);
  const bool time = st.time_embed != nullptr;

  Tensor g_sup_time;  // [B, N, 2C] from the time term
  if (time) {
    const Tensor& t = st.time_embed->value;
    const Tensor g_bt = g_pre.Sum(1);  // [B, O]
    if (NeedsGrad(st.time_embed)) {
      Accumulate(st.time_embed, g_bt.MatmulTransposeB(s.pool_b_time->value));
    }
    if (NeedsGrad(s.pool_b_time)) {
      Accumulate(s.pool_b_time, t.MatmulTransposeA(g_bt));
    }
    g_sup_time = g_pre.MatmulTransposeB(s.w_time.Reshape({batch, c2, o}));
    if (NeedsGrad(st.time_embed) || NeedsGrad(s.pool_w_time)) {
      const Tensor g_wt =
          s.sup.MatmulTransposeA(g_pre).Reshape({batch, c2 * o});
      if (NeedsGrad(st.time_embed)) {
        Accumulate(st.time_embed,
                   g_wt.MatmulTransposeB(s.pool_w_time->value));
      }
      if (NeedsGrad(s.pool_w_time)) {
        Accumulate(s.pool_w_time, t.MatmulTransposeA(g_wt));
      }
    }
  }

  if (NeedsGrad(s.b_node)) Accumulate(s.b_node, g_pre.Sum(0));  // [N, O]

  // Node term: per node n, out[:, n] = sup[:, n] W_nu[n].
  Tensor g_node = Tensor::ForOverwrite({n, batch, o});  // g_pre per node
  {
    const float* gp = g_pre.data();
    float* gn = g_node.mutable_data();
    common::ParallelFor(0, batch * n, RowGrain(o), [&](int64_t r0,
                                                        int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const int64_t bi = r / n;
        const int64_t node = r - bi * n;
        std::copy(gp + r * o, gp + (r + 1) * o, gn + (node * batch + bi) * o);
      }
    });
  }
  Tensor g_by_node;  // [N, B, 2C] = g_node[n] W_nu[n]^T
  if (UsesNodePanels(s)) {
    g_by_node = Tensor::ForOverwrite({n, batch, c2});
    const int64_t per = gemm::PackedBCount(o, c2);
    const float* gn = g_node.data();
    const float* wt = s.w_packed_t.data();
    float* out = g_by_node.mutable_data();
    common::ParallelFor(
        0, n, GemmGrain(batch * o * c2), [&](int64_t n0, int64_t n1) {
          for (int64_t node = n0; node < n1; ++node) {
            kern.gemm_rows(gn + node * batch * o, o, 1, wt + node * per, 0,
                           batch, o, c2, out + node * batch * c2, c2);
          }
        });
  } else {
    g_by_node =
        g_node.MatmulTransposeB(s.w_node->value.Reshape({n, c2, o}));
  }
  if (NeedsGrad(s.w_node)) {
    // dW_nu[n] = sup[:, n]^T g_node[n], sup read in place.
    Tensor g_wn = Tensor::ForOverwrite({n, c2 * o});
    const Tensor packed = PackEach(kern, g_node.data(), n, batch, o);
    const int64_t per = gemm::PackedBCount(batch, o);
    const float* sp = s.sup.data();
    float* wp = g_wn.mutable_data();
    common::ParallelFor(
        0, n, GemmGrain(batch * c2 * o), [&](int64_t n0, int64_t n1) {
          for (int64_t node = n0; node < n1; ++node) {
            kern.gemm_rows(sp + node * c2, 1, n * c2,
                           packed.data() + node * per, 0, c2, batch, o,
                           wp + node * c2 * o, o);
          }
        });
    Accumulate(s.w_node, g_wn);
  }

  // Gradient of [v ; A v]: the time term's part, then the node term's.
  Tensor g_v = Tensor::ForOverwrite({batch, n, c});
  Tensor g_agg = Tensor::ForOverwrite({batch, n, c});
  {
    const float* gt = time ? g_sup_time.data() : nullptr;
    const float* gb = g_by_node.data();
    float* gv = g_v.mutable_data();
    float* ga = g_agg.mutable_data();
    common::ParallelFor(0, batch * n, RowGrain(c2), [&](int64_t r0,
                                                         int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const int64_t bi = r / n;
        const int64_t node = r - bi * n;
        const float* gbr = gb + (node * batch + bi) * c2;
        const float* gtr = gt != nullptr ? gt + r * c2 : nullptr;
        for (int64_t k = 0; k < c2; ++k) {
          const float s_k = gtr != nullptr ? (0.0f + gtr[k]) + (0.0f + gbr[k])
                                           : 0.0f + (0.0f + gbr[k]);
          if (k < c) {
            gv[r * c + k] = 0.0f + s_k;
          } else {
            ga[r * c + k - c] = 0.0f + s_k;
          }
        }
      }
    });
  }

  // Aggregation A v: the adjacency first, then v.
  if (st.index == nullptr) {
    const Tensor& a = st.adj->value;
    if (NeedsGrad(st.adj)) Accumulate(st.adj, g_agg.MatmulTransposeB(s.v));
    g_v.AddInplace(a.MatmulTransposeA(g_agg));
  } else {
    if (NeedsGrad(st.adj)) {
      Accumulate(st.adj, ag::SpmmCsrGradValues(*st.index, g_agg, s.v));
    }
    g_v.AddInplace(ag::SpmmCsrGradX(st.index.get(), st.adj->value, g_agg));
  }
  return g_v;
}

// The step's backward, in the op-by-op chain's firing order: Eq 16, the
// candidate convolution, x's and h's candidate-side partials, the gates'
// activation, the gate convolution, and x's and h's gate-side partials.
// Each `0.0f + g` stands for a chain node's first accumulation into its
// zero-filled grad buffer (which turns -0 into +0), so even the signs of
// zeros match the chain.
void StepBackward(const StepSaved& s, const Tensor& g) {
  TGCRN_TRACE_SCOPE("gcgru.StepBackward");
  const int64_t batch = s.c.size(0);
  const int64_t n = s.c.size(1);
  const int64_t hid = s.c.size(2);
  const int64_t c = s.gates.v.size(2);
  const int64_t cin = c - hid;
  const int64_t rows = batch * n;
  const StepCost cost = BackwardCost(
      static_cast<double>(batch), static_cast<double>(n),
      static_cast<double>(cin), static_cast<double>(hid),
      s.time_embed != nullptr, UsesNodePanels(s.gates));
  obs::RecordKernelCost("gcgru.StepBackward", cost.flops, cost.bytes);
  const gemm::Kernels& kern = gemm::GetKernels(common::ActiveSimdIsa());
  const float* zr = s.zr.data();
  const float* cp = s.c.data();
  const float* hp = s.h->value.data();
  const float* gp = g.data();

  // Eq 16 into z (from z * c~) and into the candidate's pre-activation.
  Tensor g_z = Tensor::ForOverwrite({batch, n, hid});
  Tensor g_cand = Tensor::ForOverwrite({batch, n, hid});
  {
    float* gz = g_z.mutable_data();
    float* gc = g_cand.mutable_data();
    common::ParallelFor(0, rows, RowGrain(hid), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* z = zr + r * 2 * hid;
        for (int64_t j = 0; j < hid; ++j) {
          const int64_t i = r * hid + j;
          const float g_blend = 0.0f + gp[i];
          gz[i] = 0.0f + g_blend * cp[i];
          const float g_c = 0.0f + g_blend * z[j];
          gc[i] = 0.0f + g_c * (-(cp[i] * cp[i]) + 1.0f);
        }
      }
    });
  }
  const Tensor g_v_cand = ConvBackward(s.cand, g_cand, s, kern);

  // [x ; r h]: x's partial, then r h into r and h; (1 - z) h into z and h.
  if (NeedsGrad(s.x)) {
    s.x->AccumulateGrad(Columns(g_v_cand.data(), c, 0, cin, batch, n));
  }
  Tensor h_from_rh = Tensor::ForOverwrite({batch, n, hid});
  Tensor h_from_blend = Tensor::ForOverwrite({batch, n, hid});
  Tensor g_gates = Tensor::ForOverwrite({batch, n, 2 * hid});
  {
    const float* gv = g_v_cand.data();
    const float* gz = g_z.data();
    float* p_rh = h_from_rh.mutable_data();
    float* p_blend = h_from_blend.mutable_data();
    float* gg = g_gates.mutable_data();
    common::ParallelFor(0, rows, RowGrain(2 * hid), [&](int64_t r0,
                                                         int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* z = zr + r * 2 * hid;
        const float* rr = z + hid;
        float* ggr = gg + r * 2 * hid;
        for (int64_t j = 0; j < hid; ++j) {
          const int64_t i = r * hid + j;
          const float g_rh = 0.0f + gv[r * c + cin + j];
          const float g_r = 0.0f + g_rh * hp[i];
          p_rh[i] = g_rh * rr[j];
          const float g_blend = 0.0f + gp[i];
          const float g_one_minus_z = 0.0f + g_blend * hp[i];
          p_blend[i] = g_blend * (z[j] * -1.0f + 1.0f);
          const float g_neg_z = 0.0f + g_one_minus_z;
          const float g_zj = gz[i] + -1.0f * g_neg_z;
          // The gates' gradient as the two Slice backwards built it.
          const float gzr_z = 0.0f + (0.0f + g_zj);
          const float gzr_r = (0.0f + (0.0f + g_r)) + 0.0f;
          ggr[j] = 0.0f + (gzr_z * z[j]) * (-z[j] + 1.0f);
          ggr[hid + j] = 0.0f + (gzr_r * rr[j]) * (-rr[j] + 1.0f);
        }
      }
    });
  }
  Accumulate(s.h, h_from_rh);
  Accumulate(s.h, h_from_blend);
  const Tensor g_v_gates = ConvBackward(s.gates, g_gates, s, kern);

  // [x ; h]: x's partial, then h's.
  if (NeedsGrad(s.x)) {
    s.x->AccumulateGrad(Columns(g_v_gates.data(), c, 0, cin, batch, n));
  }
  if (NeedsGrad(s.h)) {
    s.h->AccumulateGrad(Columns(g_v_gates.data(), c, cin, hid, batch, n));
  }
}

}  // namespace

GCGRUCell::GCGRUCell(int64_t input_dim, int64_t hidden_dim,
                     int64_t node_embed_dim, int64_t time_embed_dim,
                     Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      node_embed_dim_(node_embed_dim),
      time_embed_dim_(time_embed_dim) {
  TGCRN_CHECK_GT(node_embed_dim, 0);
  // Convolution order 2, as in AGCRN (the paper's base): the supports are
  // [I, A_hat], so each gate sees [v ; A_hat v] -> input width 2 * cat.
  const int64_t cat = 2 * (input_dim + hidden_dim);
  const int64_t d_e = node_embed_dim + time_embed_dim;
  auto make_pool_w = [&](const char* name, int64_t rows, int64_t out) {
    return RegisterParameter(
        name, nn::XavierUniform({rows, cat * out}, cat * d_e / 2, out, rng));
  };
  gates_pool_w_node_ =
      make_pool_w("gates_pool_w_node", node_embed_dim, 2 * hidden_dim);
  gates_pool_b_node_ = RegisterParameter(
      "gates_pool_b_node", Tensor::Zeros({node_embed_dim, 2 * hidden_dim}));
  cand_pool_w_node_ =
      make_pool_w("cand_pool_w_node", node_embed_dim, hidden_dim);
  cand_pool_b_node_ = RegisterParameter(
      "cand_pool_b_node", Tensor::Zeros({node_embed_dim, hidden_dim}));
  if (time_embed_dim > 0) {
    gates_pool_w_time_ =
        make_pool_w("gates_pool_w_time", time_embed_dim, 2 * hidden_dim);
    gates_pool_b_time_ = RegisterParameter(
        "gates_pool_b_time",
        Tensor::Zeros({time_embed_dim, 2 * hidden_dim}));
    cand_pool_w_time_ =
        make_pool_w("cand_pool_w_time", time_embed_dim, hidden_dim);
    cand_pool_b_time_ = RegisterParameter(
        "cand_pool_b_time", Tensor::Zeros({time_embed_dim, hidden_dim}));
  }
}

GCGRUWeights GCGRUCell::HoistWeights(const ag::Variable& node_embed,
                                      int64_t batch) const {
  TGCRN_CHECK_EQ(node_embed.size(1), node_embed_dim_);
  const int64_t n = node_embed.size(0);
  const int64_t cat = 2 * (input_dim_ + hidden_dim_);
  GCGRUWeights w;
  w.gates_w = ag::Matmul(node_embed, gates_pool_w_node_);
  w.gates_b = ag::Matmul(node_embed, gates_pool_b_node_);
  w.cand_w = ag::Matmul(node_embed, cand_pool_w_node_);
  w.cand_b = ag::Matmul(node_embed, cand_pool_b_node_);
  if (batch >= gemm::kSmallMCutover) {
    const gemm::Kernels& kern = gemm::GetKernels(common::ActiveSimdIsa());
    const float* gw = w.gates_w.value().data();
    const float* cw = w.cand_w.value().data();
    w.gates_packed = PackEach(kern, gw, n, cat, 2 * hidden_dim_);
    w.cand_packed = PackEach(kern, cw, n, cat, hidden_dim_);
    if (w.gates_w.needs_grad()) {
      w.gates_packed_t =
          PackEach(kern, gw, n, 2 * hidden_dim_, cat, /*transpose_b=*/true);
      w.cand_packed_t =
          PackEach(kern, cw, n, hidden_dim_, cat, /*transpose_b=*/true);
    }
  }
  return w;
}

ag::Variable GCGRUCell::Forward(const ag::Variable& x, const ag::Variable& h,
                                const Adjacency& adj,
                                const ag::Variable& node_embed,
                                const ag::Variable& time_embed) const {
  return Forward(x, h, adj, node_embed, time_embed,
                 HoistWeights(node_embed, x.size(0)));
}

ag::Variable GCGRUCell::Forward(const ag::Variable& x, const ag::Variable& h,
                                const Adjacency& adj,
                                const ag::Variable& node_embed,
                                const ag::Variable& time_embed,
                                const GCGRUWeights& weights) const {
  TGCRN_CHECK_EQ(x.value().dim(), 3);
  TGCRN_CHECK_EQ(x.size(2), input_dim_);
  TGCRN_CHECK_EQ(h.size(2), hidden_dim_);
  TGCRN_CHECK(h.shape() ==
              (Shape{x.size(0), x.size(1), hidden_dim_}));
  TGCRN_CHECK_EQ(time_embed.defined() ? 1 : 0, time_embed_dim_ > 0 ? 1 : 0)
      << "time_embed presence must match construction";
  const int64_t batch = x.size(0);
  const int64_t n = x.size(1);
  TGCRN_CHECK_EQ(node_embed.size(0), n);
  TGCRN_CHECK(weights.defined() &&
              weights.gates_w.shape() ==
                  (Shape{n, 2 * (input_dim_ + hidden_dim_) * 2 * hidden_dim_}))
      << "weights were hoisted for another cell or graph";
  const bool time = time_embed.defined();
  if (time) TGCRN_CHECK_EQ(time_embed.size(0), batch);

  AdjOperand adj_op;
  ag::Variable adj_var;
  if (adj.is_sparse()) {
    const graph::CsrIndex& index = *adj.sparse.index;
    TGCRN_CHECK(index.batch == batch && index.rows == n && index.cols == n)
        << "sparse adjacency must be [" << batch << ", " << n << ", " << n
        << "]";
    adj_var = adj.sparse.values;
    adj_op.index = adj.sparse.index.get();
    adj_op.values = &adj_var.value();
  } else {
    TGCRN_CHECK(adj.dense.defined());
    TGCRN_CHECK(adj.dense.shape() == (Shape{batch, n, n}))
        << "dense adjacency must be [" << batch << ", " << n << ", " << n
        << "], got " << ShapeToString(adj.dense.shape());
    adj_var = adj.dense;
    adj_op.dense = &adj_var.value();
  }
  TimeOperand gates_time;
  TimeOperand cand_time;
  if (time) {
    gates_time = {&time_embed.value(), &gates_pool_w_time_.value(),
                  &gates_pool_b_time_.value()};
    cand_time = {&time_embed.value(), &cand_pool_w_time_.value(),
                 &cand_pool_b_time_.value()};
  }

  // Parents in the order the op-by-op chain's backward walk first reached
  // them, so the topological sort visits everything upstream in the same
  // order: [x ; h], the adjacency, the gates' W_nu and b_nu, E_tau and the
  // gate time pools, then the candidate's.
  std::vector<ag::Variable> parents = {x, h, adj_var, weights.gates_w,
                                       weights.gates_b};
  if (time) {
    parents.insert(parents.end(),
                   {time_embed, gates_pool_w_time_, gates_pool_b_time_});
  }
  parents.insert(parents.end(), {weights.cand_w, weights.cand_b});
  if (time) {
    parents.insert(parents.end(), {cand_pool_w_time_, cand_pool_b_time_});
  }
  bool record = ag::GradEnabled();
  if (record) {
    record = std::any_of(parents.begin(), parents.end(),
                         [](const ag::Variable& p) { return p.needs_grad(); });
  }
  if (!record) {
    StepSaved scratch;
    return ag::Variable(StepForward(x.value(), h.value(), adj_op, gates_time,
                                    cand_time, weights, &scratch));
  }

  ag::SavedState<StepSaved> saved;
  Tensor out = StepForward(x.value(), h.value(), adj_op, gates_time,
                           cand_time, weights, &*saved);
  saved->x = x.node();
  saved->h = h.node();
  saved->adj = adj_var.node();
  saved->gates.w_node = weights.gates_w.node();
  saved->gates.b_node = weights.gates_b.node();
  saved->gates.w_packed_t = weights.gates_packed_t;
  saved->cand.w_node = weights.cand_w.node();
  saved->cand.b_node = weights.cand_b.node();
  saved->cand.w_packed_t = weights.cand_packed_t;
  if (time) {
    saved->time_embed = time_embed.node();
    saved->gates.pool_w_time = gates_pool_w_time_.node();
    saved->gates.pool_b_time = gates_pool_b_time_.node();
    saved->cand.pool_w_time = cand_pool_w_time_.node();
    saved->cand.pool_b_time = cand_pool_b_time_.node();
  }
  if (adj.is_sparse()) {
    saved->index = adj.sparse.index;
    // The backward's transposed SpMM needs the CSC lists; build them now so
    // the backward (which may run under a step arena) does no index work.
    saved->index->BuildTranspose();
  }
  return ag::MakeOpNode(std::move(out), std::move(parents),
                        [saved = std::move(saved)](const Tensor& g) {
                          StepBackward(*saved, g);
                        });
}

}  // namespace core
}  // namespace tgcrn
