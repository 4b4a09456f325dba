// Copyright 2026 TGCRN Reproduction Authors
#include "core/tagsl.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "nn/init.h"
#include "obs/health.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels/gemm.h"
#include "tensor/kernels/vmath.h"

namespace tgcrn {
namespace core {

TagSL::TagSL(const Options& options, const TimeEncoder* time_encoder,
             Rng* rng)
    : options_(options), time_encoder_(time_encoder) {
  TGCRN_CHECK_GT(options_.num_nodes, 0);
  if (options_.use_time) {
    TGCRN_CHECK(time_encoder_ != nullptr)
        << "TagSL with use_time requires a time encoder";
  }
  node_embedding_ = RegisterParameter(
      "node_embedding",
      nn::NormalInit({options_.num_nodes, options_.node_dim}, 0.3f, rng));
}

ag::Variable TagSL::BuildRawGraph(const ag::Variable& x_t,
                                  const std::vector<int64_t>& slots,
                                  const std::vector<int64_t>& prev_slots)
    const {
  const int64_t batch = x_t.size(0);
  TGCRN_CHECK_EQ(x_t.size(1), options_.num_nodes);

  // Eq 6: static node-pair correlation, shared across the batch.
  ag::Variable a_nu = ag::Matmul(node_embedding_,
                                 ag::Transpose(node_embedding_, 0, 1));
  ag::Variable base = ag::Unsqueeze(a_nu, 0);  // [1, N, N]

  if (options_.use_time) {
    TGCRN_CHECK_EQ(static_cast<int64_t>(slots.size()), batch);
    TGCRN_CHECK_EQ(static_cast<int64_t>(prev_slots.size()), batch);
    // Eq 7: trend factor from consecutive time representations. Scaled by
    // 1/d_tau so its magnitude is invariant to the embedding width.
    ag::Variable e_t = time_encoder_->Encode(slots);          // [B, d_tau]
    ag::Variable e_prev = time_encoder_->Encode(prev_slots);  // [B, d_tau]
    ag::Variable eta = ag::MulScalar(
        ag::Sum(ag::Mul(e_t, e_prev), 1, /*keepdim=*/true),
        1.0f / static_cast<float>(time_encoder_->dim()));  // [B, 1]
    eta = ag::Unsqueeze(eta, 2);  // [B, 1, 1]
    base = ag::Add(base, eta);    // broadcast -> [B, N, N]
  }

  if (options_.use_pdf) {
    // Eq 8: the periodic discriminant maps the current node states to a
    // bounded pattern matrix. The inner product is scaled by 1/sqrt(C)
    // (paper uses raw <X, X^T>; the scaling keeps tanh out of saturation
    // for z-scored features without changing its discriminative role).
    const float scale =
        1.0f / std::sqrt(static_cast<float>(x_t.size(2)));
    ag::Variable a_rho = ag::Tanh(ag::MulScalar(
        ag::Matmul(x_t, ag::Transpose(x_t, -2, -1)), scale));  // [B, N, N]
    // Eq 9: (1 + alpha * sigmoid(A_rho)) expands the graph weights of the
    // identified period.
    ag::Variable gate =
        ag::AddScalar(ag::MulScalar(ag::Sigmoid(a_rho), options_.alpha),
                      1.0f);
    base = ag::Mul(gate, base);
  } else if (base.value().dim() == 3 && base.size(0) == 1 && batch > 1) {
    // Keep the output batch-shaped even without batch-dependent terms.
    base = ag::BroadcastTo(base, {batch, options_.num_nodes,
                                  options_.num_nodes});
  }
  return base;
}

namespace {

// Rows per selection tile. The batch-shared E_nu tile and one score tile
// (2 x kSelectTileRows x N floats, 96 KiB at N = 1024) stay cache
// resident while they are scored and scanned. Two GEMM register tiles
// high; the row split never changes a score (gemm_rows is independent of
// row-block phase).
constexpr int64_t kSelectTileRows = 2 * gemm::kMr;
// Score elements (tile rows x N x batch) per ParallelFor chunk: small
// graphs, e.g. the N = 32 serving models, select on the calling thread.
constexpr int64_t kSelectGrainElems = 65536;

// Turns one tile of `len` Eq 6 scores `a_nu` into the relu'd raw scores
// of Eq 9 for one batch item, in place in `score`, which holds the Eq 8
// inner products <x_i, x_j> on entry when use_pdf. Each step is a
// separately rounded operation in the order of the dense path's tensor
// ops (this file is built with -ffp-contract=off), and vmath is
// lanewise, so the scores are bit-identical to BuildRawGraph's at each
// ISA. Adding eta = 0 without use_time can only flip the sign of a zero,
// which relu erases.
void ClipTileScores(const float* a_nu, float eta, bool use_pdf,
                    float pdf_scale, float alpha,
                    const vmath::internal::Kernels& vmath_kernels,
                    int64_t len, float* score) {
  if (!use_pdf) {
    for (int64_t i = 0; i < len; ++i) {
      const float v = a_nu[i] + eta;
      score[i] = v > 0.0f ? v : 0.0f;
    }
    return;
  }
  for (int64_t i = 0; i < len; ++i) score[i] *= pdf_scale;
  vmath_kernels.tanh_n(score, score, len);
  vmath_kernels.sigmoid_n(score, score, len);
  for (int64_t i = 0; i < len; ++i) {
    const float v = (score[i] * alpha + 1.0f) * (a_nu[i] + eta);
    score[i] = v > 0.0f ? v : 0.0f;
  }
}

}  // namespace

ag::SparseGraph TagSL::BuildSparseGraph(
    const ag::Variable& x_t, const std::vector<int64_t>& slots,
    const std::vector<int64_t>& prev_slots, int64_t k) const {
  const int64_t batch = x_t.size(0);
  const int64_t n = options_.num_nodes;
  TGCRN_CHECK_EQ(x_t.size(1), n);
  const int64_t kept = std::min<int64_t>(std::max<int64_t>(k, 1), n);
  const int64_t nnz = n * kept;
  const int64_t channels = x_t.size(2);
  const float pdf_scale = 1.0f / std::sqrt(static_cast<float>(channels));

  // Trend factor eta_t (Eq 7), shared by both stages: its value drives the
  // selection ranking, and the same Variable joins the kept-edge logits so
  // the time encoder trains through the sparse path.
  ag::Variable eta;  // [B, 1]
  if (options_.use_time) {
    TGCRN_CHECK_EQ(static_cast<int64_t>(slots.size()), batch);
    ag::Variable e_t = time_encoder_->Encode(slots);
    ag::Variable e_prev = time_encoder_->Encode(prev_slots);
    eta = ag::MulScalar(ag::Sum(ag::Mul(e_t, e_prev), 1, /*keepdim=*/true),
                        1.0f / static_cast<float>(time_encoder_->dim()));
  }

  // --- Stage 1: exact top-k selection (no gradients) ----------------------
  auto index = std::make_shared<graph::CsrIndex>();
  index->batch = batch;
  index->rows = n;
  index->cols = n;
  index->row_offsets.resize(n + 1);
  for (int64_t r = 0; r <= n; ++r) index->row_offsets[r] = r * kept;
  index->slot_rows.resize(nnz);
  for (int64_t s = 0; s < nnz; ++s) index->slot_rows[s] = s / kept;
  index->col_ids.resize(batch * nnz);
  {
    TGCRN_TRACE_SCOPE("tagsl.SelectTopK");
    const int64_t d_nu = options_.node_dim;
    const bool use_pdf = options_.use_pdf;
    // Shape-only analytic cost: one raw-score recompute per entry (the
    // d_nu-dot is hoisted per tile, the C-dot runs per batch item) plus
    // the selection scan. Score tiles never leave cache, so the logical
    // traffic is the operands and the kept ids.
    obs::RecordKernelCost(
        "tagsl.SelectTopK",
        static_cast<double>(batch) * static_cast<double>(n) *
            static_cast<double>(n) *
            (2.0 * static_cast<double>(d_nu) +
             (use_pdf ? 2.0 * static_cast<double>(channels) : 0.0) + 4.0),
        4.0 * static_cast<double>(n) *
                (static_cast<double>(d_nu) +
                 static_cast<double>(batch) * static_cast<double>(channels)) +
            8.0 * static_cast<double>(batch) * static_cast<double>(nnz));
    const common::SimdIsa isa = common::ActiveSimdIsa();
    const gemm::Kernels& gemm_kernels = gemm::GetKernels(isa);
    const vmath::internal::Kernels& vmath_kernels =
        vmath::GetVmathKernels(isa);
    const float* embed = node_embedding_.value().data();  // [N, d_nu]
    const float* x = x_t.value().data();                  // [B, N, C]
    const float* eta_data =
        options_.use_time ? eta.value().data() : nullptr;

    // E_nu^T once per call, each x_b^T once per batch item.
    const int64_t packed_e_count = gemm::PackedBCount(d_nu, n);
    const int64_t packed_x_count =
        use_pdf ? gemm::PackedBCount(channels, n) : 0;
    const auto packed = TensorBufferPool::Global().AcquireForOverwrite(
        packed_e_count + batch * packed_x_count);
    float* packed_e = packed->data();
    float* packed_x = packed_e + packed_e_count;
    gemm_kernels.pack_b(embed, d_nu, n, /*transpose_b=*/true, packed_e);
    for (int64_t b = 0; use_pdf && b < batch; ++b) {
      gemm_kernels.pack_b(x + b * n * channels, channels, n,
                          /*transpose_b=*/true, packed_x + b * packed_x_count);
    }

    const int64_t num_tiles = (n + kSelectTileRows - 1) / kSelectTileRows;
    const int64_t tile_grain = std::max<int64_t>(
        1, kSelectGrainElems / (kSelectTileRows * n * batch));
    common::ParallelFor(0, num_tiles, tile_grain, [&](int64_t t0,
                                                      int64_t t1) {
      const auto scratch = TensorBufferPool::Global().AcquireForOverwrite(
          2 * kSelectTileRows * n);
      float* a_nu = scratch->data();
      float* score = a_nu + kSelectTileRows * n;
      for (int64_t t = t0; t < t1; ++t) {
        const int64_t r0 = t * kSelectTileRows;
        const int64_t rows = std::min(kSelectTileRows, n - r0);
        // Eq 6 tile: <E_nu[r0:r0+rows], E_nu^T>, batch-independent.
        gemm_kernels.gemm_rows(embed + r0 * d_nu, d_nu, 1, packed_e, 0, rows,
                               d_nu, n, a_nu);
        for (int64_t b = 0; b < batch; ++b) {
          if (use_pdf) {
            // Eq 8 tile: <x_b[rows], x_b^T>.
            gemm_kernels.gemm_rows(x + (b * n + r0) * channels, channels, 1,
                                   packed_x + b * packed_x_count, 0, rows,
                                   channels, n, score);
          }
          ClipTileScores(a_nu, eta_data != nullptr ? eta_data[b] : 0.0f,
                         use_pdf, pdf_scale, options_.alpha, vmath_kernels,
                         rows * n, score);
          // Relu ties (clipped entries) break on the lower column id, the
          // same total order graph::SparsifyTopK applies to the dense
          // softmax; softmax is strictly monotone, so the kept sets match.
          int64_t* ids = index->col_ids.data() + b * nnz + r0 * kept;
          for (int64_t r = 0; r < rows; ++r) {
            graph::TopKRow(score + r * n, n, kept, ids + r * kept);
          }
        }
      }
    });
  }

  // --- Stage 2: differentiable kept-edge logits ---------------------------
  // Flat gather ids over the kept edges, in (batch, row, slot) order.
  std::vector<int64_t> row_ids;  // edge's row node
  std::vector<int64_t> col_ids;  // edge's column node
  row_ids.reserve(batch * nnz);
  col_ids.reserve(batch * nnz);
  for (int64_t b = 0; b < batch; ++b) {
    const int64_t* ids = index->col_ids.data() + b * nnz;
    for (int64_t s = 0; s < nnz; ++s) {
      row_ids.push_back(s / kept);
      col_ids.push_back(ids[s]);
    }
  }

  // Eq 6 on the kept edges: <E_nu[row], E_nu[col]>.
  ag::Variable e_row = ag::EmbeddingLookup(node_embedding_, row_ids);
  ag::Variable e_col = ag::EmbeddingLookup(node_embedding_, col_ids);
  ag::Variable logit = ag::Reshape(
      ag::Sum(ag::Mul(e_row, e_col), 1), {batch, nnz});
  if (options_.use_time) {
    logit = ag::Add(logit, eta);  // [B, 1] broadcast over the edges
  }
  if (options_.use_pdf) {
    // Eq 8-9 on the kept edges: per-edge <x[row], x[col]> via flat gathers.
    std::vector<int64_t> flat_row(batch * nnz);
    std::vector<int64_t> flat_col(batch * nnz);
    for (int64_t i = 0; i < batch * nnz; ++i) {
      const int64_t b = i / nnz;
      flat_row[i] = b * n + row_ids[i];
      flat_col[i] = b * n + col_ids[i];
    }
    ag::Variable x_flat =
        ag::Reshape(x_t, {batch * n, x_t.size(2)});
    ag::Variable dot = ag::Sum(
        ag::Mul(ag::EmbeddingLookup(x_flat, flat_row),
                ag::EmbeddingLookup(x_flat, flat_col)),
        1);
    ag::Variable gate = ag::AddScalar(
        ag::MulScalar(ag::Sigmoid(ag::Tanh(ag::MulScalar(dot, pdf_scale))),
                      options_.alpha),
        1.0f);
    logit = ag::Mul(ag::Reshape(gate, {batch, nnz}), logit);
  }
  // Eq 11 restricted to the kept set: softmax over each row's k logits ==
  // the dense row-softmax renormalized over the kept entries (the dropped
  // mass cancels), with all-zero rows degrading to uniform 1/k.
  ag::SparseGraph out;
  out.index = index;
  out.values = ag::Reshape(
      ag::Softmax(ag::Reshape(ag::Relu(logit), {batch * n, kept}), -1),
      {batch, nnz});
  return out;
}

ag::Variable TagSL::BuildGraph(const ag::Variable& x_t,
                               const std::vector<int64_t>& slots,
                               const std::vector<int64_t>& prev_slots) const {
  // Eq 11: Norm = row-softmax over relu, yielding a row-stochastic
  // aggregation operator.
  ag::Variable adj =
      ag::Softmax(ag::Relu(BuildRawGraph(x_t, slots, prev_slots)), -1);
  TGCRN_HEALTH_TAP("tagsl.adjacency", adj.value());
  return adj;
}

namespace {

// Elements per chunk for the diagnostic reductions; fixed chunking keeps
// the statistics bitwise identical at any thread count.
constexpr int64_t kGraphStatsGrain = 4096;

}  // namespace

obs::GraphHealthReport TagSL::ComputeGraphHealth(
    const ag::Variable& x_t, const ag::Variable& x_prev,
    const std::vector<int64_t>& slots, const std::vector<int64_t>& prev_slots,
    const std::vector<int64_t>& prev2_slots, const GraphHealthOptions& options,
    GraphTopKState* state) const {
  ag::NoGradGuard no_grad;
  const Tensor a_t = BuildGraph(x_t, slots, prev_slots).value();
  const Tensor a_prev = BuildGraph(x_prev, prev_slots, prev2_slots).value();

  obs::GraphHealthReport report;
  const int64_t n = options_.num_nodes;
  const int64_t numel = a_t.numel();
  const int64_t rows = numel / n;  // B * N row distributions
  const float* at = a_t.data();
  const float* ap = a_prev.data();

  // Mean row entropy of the row-stochastic A^t, normalized to [0, 1] by
  // the uniform-row maximum ln N. Rows are disjoint spans of the flat
  // buffer, so one flat -p ln p sum covers all of them.
  if (n > 1) {
    const double entropy_sum = common::DeterministicChunkedSum(
        numel, kGraphStatsGrain, [at](int64_t begin, int64_t end) {
          double s = 0.0;
          for (int64_t i = begin; i < end; ++i) {
            const double p = static_cast<double>(at[i]);
            if (p > 0.0) s -= p * std::log(p);
          }
          return s;
        });
    report.row_entropy = entropy_sum /
                         (static_cast<double>(rows) *
                          std::log(static_cast<double>(n)));
  }

  // Fraction of total edge mass on entries at or above the threshold
  // (default: the uniform row share 1/N). Low values mean the softmax
  // spreads mass thinly; 1 means every row concentrated on strong edges.
  const double threshold = options.mass_threshold > 0.0
                               ? options.mass_threshold
                               : 1.0 / static_cast<double>(n);
  const double mass_above = common::DeterministicChunkedSum(
      numel, kGraphStatsGrain, [at, threshold](int64_t begin, int64_t end) {
        double s = 0.0;
        for (int64_t i = begin; i < end; ++i) {
          const double p = static_cast<double>(at[i]);
          if (p >= threshold) s += p;
        }
        return s;
      });
  // Each row sums to 1 exactly in the softmax's own arithmetic; use the
  // analytic total so sparsity is a clean fraction of mass.
  report.sparsity = mass_above / static_cast<double>(rows);

  // Mean absolute entry change between the adjacent-step graphs.
  report.temporal_drift =
      common::DeterministicChunkedSum(
          numel, kGraphStatsGrain, [at, ap](int64_t begin, int64_t end) {
            double s = 0.0;
            for (int64_t i = begin; i < end; ++i) {
              s += std::abs(static_cast<double>(at[i]) -
                            static_cast<double>(ap[i]));
            }
            return s;
          }) /
      static_cast<double>(numel);

  // Top-k neighborhoods of the batch-mean graph, compared against the
  // previous collection. Ties break on the lower node id so the selection
  // is deterministic.
  const int64_t k = std::min<int64_t>(std::max<int64_t>(options.topk, 1), n);
  report.topk = k;
  const Tensor mean_adj = a_t.Mean(0);  // [N, N]
  const float* mean_data = mean_adj.data();
  std::vector<std::vector<int64_t>> topk_ids(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) {
    auto& ids = topk_ids[static_cast<size_t>(r)];
    ids.resize(static_cast<size_t>(k));
    graph::TopKRow(mean_data + r * n, n, k, ids.data());
  }
  if (state != nullptr &&
      static_cast<int64_t>(state->topk_ids.size()) == n) {
    int64_t overlap = 0;
    for (int64_t r = 0; r < n; ++r) {
      const auto& now = topk_ids[static_cast<size_t>(r)];
      const auto& before = state->topk_ids[static_cast<size_t>(r)];
      std::vector<int64_t> common_ids;
      std::set_intersection(now.begin(), now.end(), before.begin(),
                            before.end(), std::back_inserter(common_ids));
      overlap += static_cast<int64_t>(common_ids.size());
    }
    report.topk_stability =
        static_cast<double>(overlap) / static_cast<double>(n * k);
  }
  if (state != nullptr) state->topk_ids = std::move(topk_ids);
  return report;
}

}  // namespace core
}  // namespace tgcrn
