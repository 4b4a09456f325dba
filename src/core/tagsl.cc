// Copyright 2026 TGCRN Reproduction Authors
#include "core/tagsl.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>

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
  // The selection walk's gate ceiling 1 + alpha needs alpha >= 0.
  TGCRN_CHECK(std::isfinite(options_.alpha) && options_.alpha >= 0.0f)
      << "TagSL alpha must be finite and >= 0, got " << options_.alpha;
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

// Rows per A_nu tile of the prefix build (kSelectTileRows x N floats,
// 48 KiB at N = 1024, cache resident while its rows are ranked). Two
// GEMM register tiles high; the row split never changes a score
// (gemm_rows is independent of row-block phase).
constexpr int64_t kSelectTileRows = 2 * gemm::kMr;
// Score elements per ParallelFor chunk (tile rows x N for the prefix
// build, rows x batch x depth for the walk): small graphs, e.g. the
// N = 32 serving models, select on the calling thread.
constexpr int64_t kSelectGrainElems = 65536;
// Candidates scored per gather_dots / vmath call in the selection walk.
constexpr int64_t kWalkBlock = 16;
// Smallest candidate depth of a prefix build (capped at N).
constexpr int64_t kMinSelectDepth = 32;

// Turns `len` Eq 6 scores `a_nu` into the relu'd raw scores of Eq 9 for
// one batch item, in place in `score`, which holds the Eq 8 inner
// products <x_i, x_j> on entry when use_pdf. Each step is a
// separately rounded operation in the order of the dense path's tensor
// ops (this file is built with -ffp-contract=off), and vmath is
// lanewise, so the scores are bit-identical to BuildRawGraph's at each
// ISA. Adding eta = 0 without use_time can only flip the sign of a zero,
// which relu erases.
void ClipScores(const float* a_nu, float eta, bool use_pdf,
                float pdf_scale, float alpha,
                const vmath::internal::Kernels& vmath_kernels, int64_t len,
                float* score) {
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

// Writes the `depth` best columns of `row` (length n >= depth) by (value
// desc, index asc) into cols, in that rank order, and their values into
// values. Only entries >= a threshold tau are ranked. With `hint` (the
// hint_count >= depth columns of this row's previous prefix), tau is
// the least of their current values, which hint_count entries reach.
// Otherwise tau is an order statistic of a strided sample, picked so that
// about 3 * depth entries reach it. If fewer than depth do, every entry
// is ranked. Either way the depth best entries are all >= tau, so the
// result is exact. `survivors` and `keys` are n-element scratch,
// `sample` 2 * depth.
void RankRowPrefix(const float* row, int64_t n, int64_t depth,
                   const int32_t* hint, int64_t hint_count,
                   int32_t* survivors, uint64_t* keys, float* sample,
                   int32_t* cols, float* values) {
  bool have_tau = false;
  float tau = 0.0f;
  if (hint != nullptr) {
    tau = row[hint[0]];
    for (int64_t i = 1; i < hint_count; ++i) tau = std::min(tau, row[hint[i]]);
    have_tau = true;
  } else if (n >= 8 * depth) {
    const int64_t sampled = 2 * depth;
    const int64_t stride = n / sampled;
    for (int64_t i = 0; i < sampled; ++i) sample[i] = row[i * stride];
    const int64_t rank = std::min(
        sampled, std::max<int64_t>(1, 3 * depth * sampled / n));
    std::nth_element(sample, sample + rank - 1, sample + sampled,
                     std::greater<>());
    tau = sample[rank - 1];
    have_tau = true;
  }
  int64_t count = 0;
  if (have_tau) {
    for (int64_t j = 0; j < n; ++j) {
      survivors[count] = static_cast<int32_t>(j);
      count += row[j] >= tau ? 1 : 0;
    }
  }
  if (count < depth) {
    count = n;
    std::iota(survivors, survivors + n, int32_t{0});
  }
  for (int64_t i = 0; i < count; ++i) {
    keys[i] = graph::RankKey(row[survivors[i]], survivors[i]);
  }
  std::nth_element(keys, keys + depth - 1, keys + count, std::greater<>());
  std::sort(keys, keys + depth, std::greater<>());
  for (int64_t s = 0; s < depth; ++s) {
    cols[s] = static_cast<int32_t>(graph::RankKeyColumn(keys[s]));
    values[s] = row[cols[s]];
  }
}

// Sorts k distinct column ids (< 2^31) ascending. Small k places each id
// at its rank, counted without branches: a std::sort of 16 ids costs as
// much as the walk that found them.
void SortKeptIds(int64_t* ids, int64_t k) {
  constexpr int64_t kMaxCounted = 32;
  if (k > kMaxCounted) {
    std::sort(ids, ids + k);
    return;
  }
  int32_t cols[kMaxCounted];
  for (int64_t i = 0; i < k; ++i) cols[i] = static_cast<int32_t>(ids[i]);
  for (int64_t i = 0; i < k; ++i) {
    int32_t rank = 0;
    for (int64_t j = 0; j < k; ++j) rank += cols[j] < cols[i] ? 1 : 0;
    ids[rank] = cols[i];
  }
}

}  // namespace

// Each row's `depth` best columns by A_nu, ranked (value desc, index asc),
// with their A_nu values: the order the selection walk visits them in. A
// pure function of E_nu's bits, the ISA (the GEMM rounds per ISA) and the
// depth, so a cached copy serves every call until one of them changes.
struct SelectPrefix {
  common::SimdIsa isa;
  int64_t depth;                // candidates per row, <= N
  std::vector<float> embed;     // the E_nu [N, d_nu] it was built from
  std::vector<float> packed_e;  // E_nu^T, packed for gemm_rows
  std::vector<int32_t> cols;    // [N, depth] candidate columns
  std::vector<float> a_nu;      // [N, depth] their Eq 6 scores
};

std::shared_ptr<const SelectPrefix> TagSL::AcquireSelectPrefix(
    common::SimdIsa isa, int64_t kept, bool* built) const {
  const int64_t n = options_.num_nodes;
  const int64_t d_nu = options_.node_dim;
  const float* embed = node_embedding_.value().data();
  const size_t embed_count = static_cast<size_t>(n * d_nu);
  std::lock_guard<std::mutex> lock(select_mu_);
  if (kept != select_kept_) {
    select_kept_ = kept;
    select_depth_ = std::max(kMinSelectDepth, 4 * kept);
  }
  const int64_t depth = std::min(n, select_depth_);
  *built = false;
  if (select_prefix_ != nullptr && select_prefix_->isa == isa &&
      select_prefix_->depth == depth &&
      std::memcmp(select_prefix_->embed.data(), embed,
                  embed_count * sizeof(float)) == 0) {
    return select_prefix_;
  }
  // The prefix being replaced seeds each row's threshold when it is at
  // least as deep.
  const std::shared_ptr<const SelectPrefix> previous =
      select_prefix_ != nullptr && select_prefix_->depth >= depth
          ? select_prefix_
          : nullptr;
  auto prefix = std::make_shared<SelectPrefix>();
  prefix->isa = isa;
  prefix->depth = depth;
  prefix->embed.assign(embed, embed + embed_count);
  const gemm::Kernels& gemm_kernels = gemm::GetKernels(isa);
  prefix->packed_e.resize(gemm::PackedBCount(d_nu, n));
  gemm_kernels.pack_b(embed, d_nu, n, /*transpose_b=*/true,
                      prefix->packed_e.data());
  prefix->cols.resize(n * depth);
  prefix->a_nu.resize(n * depth);

  // A_nu in row tiles by gemm_rows, whose bits do not depend on the
  // row-block phase (so they equal the fallback's one-row calls), each
  // row cut to its top `depth` in rank order.
  const int64_t num_tiles = (n + kSelectTileRows - 1) / kSelectTileRows;
  const int64_t tile_grain =
      std::max<int64_t>(1, kSelectGrainElems / (kSelectTileRows * n));
  common::ParallelFor(0, num_tiles, tile_grain, [&](int64_t t0, int64_t t1) {
    std::vector<float> a_tile(kSelectTileRows * n);
    std::vector<int32_t> survivors(n);
    std::vector<uint64_t> keys(n);
    std::vector<float> sample(2 * depth);
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t r0 = t * kSelectTileRows;
      const int64_t rows = std::min(kSelectTileRows, n - r0);
      gemm_kernels.gemm_rows(embed + r0 * d_nu, d_nu, 1,
                             prefix->packed_e.data(), 0, rows, d_nu, n,
                             a_tile.data(), n);
      for (int64_t r = 0; r < rows; ++r) {
        const int32_t* hint =
            previous != nullptr
                ? previous->cols.data() + (r0 + r) * previous->depth
                : nullptr;
        RankRowPrefix(a_tile.data() + r * n, n, depth, hint,
                      previous != nullptr ? previous->depth : 0,
                      survivors.data(), keys.data(), sample.data(),
                      prefix->cols.data() + (r0 + r) * depth,
                      prefix->a_nu.data() + (r0 + r) * depth);
      }
    }
  });
  select_prefix_ = prefix;
  *built = true;
  return prefix;
}

void TagSL::SelectTopK(const float* x, int64_t batch, int64_t channels,
                       const float* eta, int64_t kept,
                       int64_t* col_ids) const {
  TGCRN_TRACE_SCOPE("tagsl.SelectTopK");
  const int64_t n = options_.num_nodes;
  const int64_t d_nu = options_.node_dim;
  const int64_t nnz = n * kept;
  const bool use_pdf = options_.use_pdf;
  // Candidate columns and gather_dots offsets are int32.
  TGCRN_CHECK_LT(n * std::max<int64_t>(channels, 1), int64_t{1} << 31);
  // Operand reads plus the kept ids written; the walk adds its own below.
  double bytes = 4.0 * static_cast<double>(n) *
                     (static_cast<double>(d_nu) +
                      static_cast<double>(batch) *
                          static_cast<double>(channels)) +
                 8.0 * static_cast<double>(batch) * static_cast<double>(nnz);
  if (kept == n) {
    // Every column is kept: TopKRow's answer for k = N, with no scores.
    for (int64_t i = 0; i < batch * n; ++i) {
      std::iota(col_ids + i * n, col_ids + (i + 1) * n, int64_t{0});
    }
    obs::RecordKernelCost("tagsl.SelectTopK", 0.0, bytes);
    return;
  }

  const common::SimdIsa isa = common::ActiveSimdIsa();
  const gemm::Kernels& gemm_kernels = gemm::GetKernels(isa);
  const vmath::internal::Kernels& vmath_kernels =
      vmath::GetVmathKernels(isa);
  bool built = false;
  const std::shared_ptr<const SelectPrefix> prefix =
      AcquireSelectPrefix(isa, kept, &built);
  const int64_t depth = prefix->depth;
  const float pdf_scale = 1.0f / std::sqrt(static_cast<float>(channels));
  const float alpha = options_.alpha;
  // The gate sigmoid(.) * alpha + 1 of a score is at most this ceiling:
  // sigmoid(.) <= 1 and alpha >= 0, and IEEE rounding is monotone.
  const float gate_max = alpha + 1.0f;

  // Each x_b^T packed once per call for rows that fall back to the full
  // scan, which a prefix covering every column never needs.
  const bool can_fall_back = depth < n;
  const int64_t packed_x_count =
      use_pdf && can_fall_back ? gemm::PackedBCount(channels, n) : 0;
  std::shared_ptr<std::vector<float>> packed;
  if (packed_x_count > 0) {
    packed = TensorBufferPool::Global().AcquireForOverwrite(batch *
                                                            packed_x_count);
    for (int64_t b = 0; b < batch; ++b) {
      gemm_kernels.pack_b(x + b * n * channels, channels, n,
                          /*transpose_b=*/true,
                          packed->data() + b * packed_x_count);
    }
  }

  std::atomic<int64_t> scored{0};
  std::atomic<int64_t> fallbacks{0};
  const int64_t row_grain =
      std::max<int64_t>(1, kSelectGrainElems / (batch * depth));
  common::ParallelFor(0, n, row_grain, [&](int64_t r0, int64_t r1) {
    float block[kWalkBlock];
    std::shared_ptr<std::vector<float>> full;  // fallback A_nu + score rows
    int64_t full_row = -1;                      // row whose A_nu is in full
    int64_t chunk_scored = 0;
    int64_t chunk_fallbacks = 0;
    const uint64_t zero_key = graph::RankKey(0.0f, 0);
    for (int64_t r = r0; r < r1; ++r) {
      const int32_t* cand = prefix->cols.data() + r * depth;
      const float* cand_a = prefix->a_nu.data() + r * depth;
      for (int64_t b = 0; b < batch; ++b) {
        const float eta_b = eta != nullptr ? eta[b] : 0.0f;
        const float* xb = x + b * n * channels;
        int64_t* ids = col_ids + b * nnz + r * kept;
        // Min-heap of the kept rank keys in `ids` itself; the root is the
        // worst kept column.
        uint64_t* heap = reinterpret_cast<uint64_t*>(ids);
        int64_t filled = 0;
        bool closed = false;
        bool all_zero = false;  // every unvisited score is exactly 0
        int64_t block_begin = 0;
        int64_t block_end = 0;  // candidates [block_begin, block_end) scored
        for (int64_t t = 0; t < depth; ++t) {
          // Candidates arrive in non-increasing A_nu, so this ceiling
          // bounds the score of candidate t and of every column after it.
          const float shifted = cand_a[t] + eta_b;
          const float bound = use_pdf ? gate_max * shifted : shifted;
          if (bound <= 0.0f) {
            all_zero = true;
            break;
          }
          if (filled == kept && graph::RankKey(bound, 0) < heap[0]) {
            closed = true;
            break;
          }
          if (t == block_end) {
            block_begin = t;
            block_end = std::min(depth, t + kWalkBlock);
            const int64_t len = block_end - block_begin;
            if (use_pdf) {
              gemm_kernels.gather_dots(xb + r * channels, xb, cand + t, len,
                                       channels, block);
            }
            ClipScores(cand_a + t, eta_b, use_pdf, pdf_scale, alpha,
                           vmath_kernels, len, block);
            chunk_scored += len;
          }
          const uint64_t key = graph::RankKey(block[t - block_begin], cand[t]);
          if (filled < kept) {
            heap[filled++] = key;
            if (filled == kept) graph::HeapifyRankKeys(heap, kept);
          } else if (key > heap[0]) {
            graph::SiftDownRankKey(heap, kept, 0, key);
          }
        }
        if (all_zero) {
          // The positive kept scores stay; zeros rank by index, so the
          // lowest-index columns outside them fill the remaining slots.
          int64_t positive = 0;
          for (int64_t s = 0; s < filled; ++s) {
            if (heap[s] > zero_key) {
              ids[positive++] = graph::RankKeyColumn(heap[s]);
            }
          }
          SortKeptIds(ids, positive);
          int64_t next = positive;
          for (int64_t c = 0, q = 0; next < kept; ++c) {
            if (q < positive && ids[q] == c) {
              ++q;
            } else {
              ids[next++] = c;
            }
          }
          SortKeptIds(ids, kept);
        } else if (closed || !can_fall_back) {
          for (int64_t s = 0; s < kept; ++s) {
            ids[s] = graph::RankKeyColumn(heap[s]);
          }
          SortKeptIds(ids, kept);
        } else {
          // The bound did not close within the prefix: the full-row scan
          // for this row and item alone.
          if (full == nullptr) {
            full = TensorBufferPool::Global().AcquireForOverwrite(2 * n);
          }
          float* a_row = full->data();
          float* score = a_row + n;
          if (full_row != r) {
            gemm_kernels.gemm_rows(prefix->embed.data() + r * d_nu, d_nu, 1,
                                   prefix->packed_e.data(), 0, 1, d_nu, n,
                                   a_row, n);
            full_row = r;
          }
          if (use_pdf) {
            gemm_kernels.gemm_rows(xb + r * channels, channels, 1,
                                   packed->data() + b * packed_x_count, 0,
                                   1, channels, n, score, n);
          }
          ClipScores(a_row, eta_b, use_pdf, pdf_scale, alpha,
                         vmath_kernels, n, score);
          graph::TopKRow(score, n, kept, ids);
          ++chunk_fallbacks;
        }
      }
    }
    scored += chunk_scored;
    fallbacks += chunk_fallbacks;
  });

  // Analytic cost: the prefix build when this call made one (the E_nu
  // GEMM and one selection pass per row), each scored candidate (the
  // C-dot when use_pdf, the gate and the bound) and each fallback row's
  // full recompute. The counts are pure functions of the inputs, so the
  // model is thread-count invariant.
  const double dn = static_cast<double>(n);
  const double pdf_flops = use_pdf ? 2.0 * static_cast<double>(channels) : 0.0;
  double flops =
      static_cast<double>(scored.load()) * (pdf_flops + 6.0) +
      static_cast<double>(fallbacks.load()) * dn *
          (2.0 * static_cast<double>(d_nu) + pdf_flops + 4.0);
  bytes += 8.0 * static_cast<double>(scored.load());
  if (built) {
    flops += dn * dn * (2.0 * static_cast<double>(d_nu) + 1.0);
    bytes += 8.0 * dn * static_cast<double>(depth);
  }
  obs::RecordKernelCost("tagsl.SelectTopK", flops, bytes);

  // Deepen the next prefix while the fallback rows' full scans (N columns
  // each) outweigh the walks' whole candidate budget (B x N x depth).
  if (can_fall_back && fallbacks.load() * n > batch * n * depth) {
    std::lock_guard<std::mutex> lock(select_mu_);
    if (select_prefix_ == prefix) select_depth_ = 2 * depth;
  }
}

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
  SelectTopK(x_t.value().data(), batch, channels,
             options_.use_time ? eta.value().data() : nullptr, kept,
             index->col_ids.data());

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
