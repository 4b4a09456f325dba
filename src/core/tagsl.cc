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

// Eq 8's discriminant for `len` inner products <x_i, x_j>: t = tanh of
// the product scaled by pdf_scale, and sg = sigmoid(t). t and sg may be
// `dot` itself (in place).
void Discriminant(const float* dot, int64_t len, float pdf_scale,
                  const vmath::internal::Kernels& vmath_kernels, float* t,
                  float* sg) {
  for (int64_t i = 0; i < len; ++i) t[i] = dot[i] * pdf_scale;
  vmath_kernels.tanh_n(t, t, len);
  vmath_kernels.sigmoid_n(t, sg, len);
}

// Turns `len` Eq 6 scores `a_nu` into Eq 9's entries of A^t for one batch
// item, in place in `score`, which holds Eq 8's sigmoid(tanh(.)) on entry
// when use_pdf; `clip` applies Eq 11's relu. eta points at the item's
// trend factor, or is null without use_time. Each step is a separately
// rounded operation in the order of the tensor ops of Eq 6-11 (this file
// is built with -ffp-contract=off), and vmath is lanewise, so the scores
// are bit-identical to that op chain's at each ISA, however the entries
// are split into calls.
void GateScores(const float* a_nu, const float* eta, bool use_pdf,
                float alpha, bool clip, int64_t len, float* score) {
  const float shift = eta != nullptr ? *eta : 0.0f;
  if (!use_pdf) {
    for (int64_t i = 0; i < len; ++i) {
      const float v = eta != nullptr ? a_nu[i] + shift : a_nu[i];
      score[i] = clip && !(v > 0.0f) ? 0.0f : v;
    }
    return;
  }
  for (int64_t i = 0; i < len; ++i) {
    const float base = eta != nullptr ? a_nu[i] + shift : a_nu[i];
    const float v = (score[i] * alpha + 1.0f) * base;
    score[i] = clip && !(v > 0.0f) ? 0.0f : v;
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
        const float* eta_item = eta != nullptr ? eta + b : nullptr;
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
              Discriminant(block, len, pdf_scale, vmath_kernels, block,
                           block);
            }
            GateScores(cand_a + t, eta_item, use_pdf, alpha, /*clip=*/true,
                       len, block);
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
            Discriminant(score, n, pdf_scale, vmath_kernels, score, score);
          }
          GateScores(a_row, eta_item, use_pdf, alpha, /*clip=*/true, n,
                     score);
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

namespace {

// What the fused graph node's backward reads. The output (the node's own
// value, shared storage) is the only activation it keeps: every other
// intermediate of Eq 8-11 is recomputed from x, a_nu (dense) or E_nu
// (top-k) and eta, whose values the graph holds anyway.
struct GraphSaved {
  Tensor y;  // the normalized graph: [B, N, N] dense, [B, nnz] top-k
  std::shared_ptr<graph::CsrIndex> index;  // top-k structure; null dense
  // x (null without use_pdf), a_nu [N, N] (dense) or E_nu [N, d_nu]
  // (top-k), and eta [B, 1] (null without use_time).
  ag::internal::NodeRef x, embed, eta;
  bool use_pdf = false;
  float alpha = 0.0f;
  float pdf_scale = 1.0f;
};

bool NeedsGrad(const ag::internal::NodeRef& node) {
  return node && node->needs_grad;
}

// <a, b> accumulated serially from 0, as Sum(Mul(a, b), -1) rounds it.
float Dot(const float* a, const float* b, int64_t len) {
  float sum = 0.0f;
  for (int64_t i = 0; i < len; ++i) sum += a[i] * b[i];
  return sum;
}

// The backward of Eq 9-11 for `len` entries of one row, with use_pdf:
// on entry g_base holds the softmax's input gradient, t = tanh of the
// scaled <x_i, x_j> and sg = sigmoid(t); a_nu and eta (null without
// use_time) give the base. On exit g_base holds the base's gradient and,
// when g_xx is not null, g_xx the gradient of <x_i, x_j>: through relu,
// the gate product, alpha, sigmoid, tanh and the 1/sqrt(C) scale, each
// factor rounded as the op chain's backward kernels round it.
void GateGradRow(const float* a_nu, const float* eta, float alpha,
                 float pdf_scale, const float* t, const float* sg,
                 int64_t len, float* g_base, float* g_xx) {
  const float shift = eta != nullptr ? *eta : 0.0f;
  for (int64_t j = 0; j < len; ++j) {
    const float base = eta != nullptr ? a_nu[j] + shift : a_nu[j];
    const float gate = sg[j] * alpha + 1.0f;
    const float g_m = gate * base > 0.0f ? g_base[j] : 0.0f;
    g_base[j] = g_m * gate;
    if (g_xx == nullptr) continue;
    const float g_sig = alpha * (g_m * base);
    const float g_tanh = (g_sig * sg[j]) * (-sg[j] + 1.0f);
    g_xx[j] = pdf_scale * (g_tanh * (-(t[j] * t[j]) + 1.0f));
  }
}

// The relu gradient of `len` entries without use_pdf, where the relu's
// input is the base a_nu (+ eta).
void BaseGradRow(const float* a_nu, const float* eta, int64_t len,
                 float* g_base) {
  const float shift = eta != nullptr ? *eta : 0.0f;
  for (int64_t j = 0; j < len; ++j) {
    const float base = eta != nullptr ? a_nu[j] + shift : a_nu[j];
    g_base[j] = base > 0.0f ? g_base[j] : 0.0f;
  }
}

// The node's analytic cost over `entries` graph entries (B N^2 dense,
// B N k top-k). Forward, per entry: Eq 9's gate with use_pdf (scale,
// tanh, sigmoid, alpha, +1, product), the eta add, relu and the softmax,
// plus each top-k edge's Eq 6 / Eq 8 dots. Backward recomputes all of
// that and adds the softmax and relu gradients, the gate chain's
// gradients with use_pdf, and each top-k edge's scatters into E_nu and x.
// The x x^T GEMM, the reductions into a_nu and eta and the backward's
// GEMMs record under their own tensor rows. Shape-only, so identical at
// every ISA and thread count.
struct GraphCost {
  double flops = 0.0;
  double bytes = 0.0;
};

GraphCost ForwardGraphCost(double entries, double n, double d_nu,
                           double channels, bool sparse, bool pdf) {
  const double gate = pdf ? 26.0 : 0.0;
  const double dots = sparse ? 2.0 * (d_nu + (pdf ? channels : 0.0)) : 0.0;
  GraphCost cost;
  cost.flops = entries * (gate + 14.0 + dots);
  cost.bytes = 4.0 * entries * (pdf && !sparse ? 2.0 : 1.0) +
               (sparse ? 8.0 * entries + 4.0 * n * d_nu : 4.0 * n * n);
  return cost;
}

GraphCost BackwardGraphCost(double entries, double n, double d_nu,
                            double channels, bool sparse, bool pdf) {
  GraphCost cost = ForwardGraphCost(entries, n, d_nu, channels, sparse, pdf);
  cost.flops += entries * (5.0 + (pdf ? 12.0 : 0.0));
  cost.bytes += 4.0 * entries * (pdf ? 3.0 : 2.0);
  if (sparse) {
    cost.flops += entries * 4.0 * (d_nu + (pdf ? channels : 0.0));
    cost.bytes += 8.0 * entries;
  }
  return cost;
}

void RecordGraphCost(const char* scope, const GraphCost& cost) {
  obs::RecordKernelCost(scope, cost.flops, cost.bytes);
}

// The periodic discriminant's inner product <x_i, x_j> is scaled by
// 1/sqrt(C) before the tanh of Eq 8. The paper uses the raw product; the
// scaling keeps tanh out of saturation for z-scored features without
// changing its discriminative role. Eq 9's gate 1 + alpha sigmoid(.)
// then expands the graph weights of the identified period.
//
// Eq 8-11 over dense rows: A^t for every (item, row) from a_nu [N, N],
// eta [B] (null without use_time) and, with use_pdf, x [B, N, C] — relu'd
// and row-softmaxed when `normalize`, else Eq 9's raw A^t. x x^T is the
// same Tensor GEMM the op chain ran, and every later pass rewrites its
// buffer in place, so the whole forward holds one [B, N, N] buffer.
Tensor DenseGraphForward(const Tensor& x, const Tensor& a_nu,
                         const float* eta, bool use_pdf, float alpha,
                         bool normalize) {
  const int64_t batch = x.size(0);
  const int64_t n = a_nu.size(0);
  const float pdf_scale = 1.0f / std::sqrt(static_cast<float>(x.size(2)));
  Tensor out = use_pdf ? x.Matmul(x.Transpose(1, 2))
                       : Tensor::ForOverwrite({batch, n, n});
  const vmath::internal::Kernels& vm =
      vmath::GetVmathKernels(common::ActiveSimdIsa());
  const float* ap = a_nu.data();
  float* op = out.mutable_data();
  if (use_pdf) {
    common::ParallelFor(0, out.numel(), kElemwiseGrain,
                        [&](int64_t i0, int64_t i1) {
                          Discriminant(op + i0, i1 - i0, pdf_scale, vm,
                                       op + i0, op + i0);
                        });
  }
  common::ParallelFor(0, batch * n, RowGrain(n), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / n;
      float* row = op + r * n;
      GateScores(ap + (r - b * n) * n, eta != nullptr ? eta + b : nullptr,
                 use_pdf, alpha, normalize, n, row);
      if (normalize) SoftmaxRow(row, row, n);
    }
  });
  return out;
}

// Backward of the dense node, in the op chain's kernels and order: the
// softmax and relu gradients, then per entry the gradients of Eq 9's two
// factors — the base a_nu + eta and, with use_pdf, the gate back through
// sigmoid, tanh and the 1/sqrt(C) scale to x x^T. a_nu and eta take the
// base's gradient summed as the broadcasting Add's ReduceTo sums it; x
// takes the X X^T product's two partials, g X first, then (X^T g)^T.
void DenseGraphBackward(const GraphSaved& s, const Tensor& g) {
  TGCRN_TRACE_SCOPE("tagsl.GraphBackward");
  const int64_t batch = s.y.size(0);
  const int64_t n = s.y.size(1);
  const bool pdf = s.use_pdf;
  const Tensor x = s.x ? s.x->value : Tensor();
  RecordGraphCost("tagsl.GraphBackward",
                  BackwardGraphCost(static_cast<double>(batch * n * n),
                                    static_cast<double>(n), 0.0,
                                    pdf ? static_cast<double>(x.size(2)) : 0.0,
                                    /*sparse=*/false, pdf));
  const vmath::internal::Kernels& vm =
      vmath::GetVmathKernels(common::ActiveSimdIsa());
  const float* ap = s.embed->value.data();
  const float* eta = s.eta ? s.eta->value.data() : nullptr;
  const float alpha = s.alpha;
  const float pdf_scale = s.pdf_scale;
  // x x^T, overwritten row by row with its gradient, and Eq 8's tanh
  // and sigmoid of it.
  Tensor g_xx = pdf ? x.Matmul(x.Transpose(1, 2)) : Tensor();
  Tensor t = pdf ? Tensor::ForOverwrite({batch, n, n}) : Tensor();
  Tensor sg = pdf ? Tensor::ForOverwrite({batch, n, n}) : Tensor();
  Tensor g_base = Tensor::ForOverwrite({batch, n, n});
  const float* yp = s.y.data();
  const float* gp = g.data();
  float* gxp = pdf ? g_xx.mutable_data() : nullptr;
  float* tp = pdf ? t.mutable_data() : nullptr;
  float* sgp = pdf ? sg.mutable_data() : nullptr;
  float* gbp = g_base.mutable_data();
  if (pdf) {
    common::ParallelFor(0, g_xx.numel(), kElemwiseGrain,
                        [&](int64_t i0, int64_t i1) {
                          Discriminant(gxp + i0, i1 - i0, pdf_scale, vm,
                                       tp + i0, sgp + i0);
                        });
  }
  common::ParallelFor(0, batch * n, RowGrain(n), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / n;
      const float* a_row = ap + (r - b * n) * n;
      const float* eta_b = eta != nullptr ? eta + b : nullptr;
      float* gb = gbp + r * n;
      SoftmaxGradRow(yp + r * n, gp + r * n, gb, n);
      if (pdf) {
        GateGradRow(a_row, eta_b, alpha, pdf_scale, tp + r * n, sgp + r * n,
                    n, gb, gxp + r * n);
      } else {
        BaseGradRow(a_row, eta_b, n, gb);
      }
    }
  });
  if (NeedsGrad(s.eta)) {
    s.eta->AccumulateGrad(
        g_base.ReduceTo({batch, 1, 1}).Reshape({batch, 1}));
  }
  if (NeedsGrad(s.embed)) {
    s.embed->AccumulateGrad(g_base.ReduceTo({1, n, n}).Reshape({n, n}));
  }
  if (pdf && NeedsGrad(s.x)) {
    s.x->AccumulateGrad(g_xx.MatmulTransposeB(x.Transpose(1, 2)));
    s.x->AccumulateGrad(x.MatmulTransposeA(g_xx).Transpose(1, 2));
  }
}

// Eq 6-11 on the kept edges of `index`: per edge <E_row, E_col> (+ eta),
// gated with use_pdf by <x_row, x_col>, relu'd and softmaxed over each
// row's k slots, with Sum(Mul(.)) 's serial dots — values [B, nnz].
Tensor SparseGraphForward(const graph::CsrIndex& index, const Tensor& x,
                          const Tensor& embed, const float* eta,
                          bool use_pdf, float alpha) {
  const int64_t batch = index.batch;
  const int64_t n = index.rows;
  const int64_t nnz = index.nnz();
  const int64_t kept = nnz / n;
  const int64_t d_nu = embed.size(1);
  const int64_t channels = x.size(2);
  const float pdf_scale = 1.0f / std::sqrt(static_cast<float>(channels));
  const vmath::internal::Kernels& vm =
      vmath::GetVmathKernels(common::ActiveSimdIsa());
  Tensor out = Tensor::ForOverwrite({batch, nnz});
  Tensor a_nu = Tensor::ForOverwrite({batch, nnz});
  const float* ep = embed.data();
  const float* xp = x.data();
  float* op = out.mutable_data();
  float* ap = a_nu.mutable_data();
  const int64_t row_grain = RowGrain(kept * (d_nu + channels));
  common::ParallelFor(0, batch * n, row_grain, [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / n;
      const int64_t row = r - b * n;
      const int64_t* cols = index.col_ids.data() + r * kept;
      const float* xb = xp + b * n * channels;
      for (int64_t s = 0; s < kept; ++s) {
        ap[r * kept + s] = Dot(ep + row * d_nu, ep + cols[s] * d_nu, d_nu);
        if (use_pdf) {
          op[r * kept + s] = Dot(xb + row * channels,
                                 xb + cols[s] * channels, channels);
        }
      }
    }
  });
  if (use_pdf) {
    common::ParallelFor(0, out.numel(), kElemwiseGrain,
                        [&](int64_t i0, int64_t i1) {
                          Discriminant(op + i0, i1 - i0, pdf_scale, vm,
                                       op + i0, op + i0);
                        });
  }
  common::ParallelFor(0, batch * n, RowGrain(kept), [&](int64_t r0,
                                                        int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* v = op + r * kept;
      GateScores(ap + r * kept, eta != nullptr ? eta + r / n : nullptr,
                 use_pdf, alpha, /*clip=*/true, kept, v);
      SoftmaxRow(v, v, kept);
    }
  });
  return out;
}

// out[dst] += scale[e] * src[other] over the edges of every (item, node)
// list, in flat edge order per destination row — the order the op chain's
// EmbeddingLookup backward (IndexAdd0Inplace) scattered in. `by_col`
// scatters into each edge's column (through the CSC lists), else into its
// row; `per_item` addresses rows of a [B N, width] buffer (x) instead of
// an [N, width] one (E_nu, whose rows take every item's edges, item-major).
Tensor ScatterEdges(const graph::CsrIndex& index, const float* scale,
                    const float* src, int64_t width, bool by_col,
                    bool per_item) {
  const int64_t batch = index.batch;
  const int64_t n = index.rows;
  const int64_t nnz = index.nnz();
  const int64_t kept = nnz / n;
  const int64_t items = per_item ? batch : 1;
  Tensor out = Tensor::Zeros({items * n, width});
  float* op = out.mutable_data();
  common::ParallelFor(
      0, items * n, RowGrain(kept * width * (per_item ? 1 : batch)),
      [&](int64_t d0, int64_t d1) {
        for (int64_t d = d0; d < d1; ++d) {
          const int64_t node = d % n;
          float* dst = op + d * width;
          const int64_t b_begin = per_item ? d / n : 0;
          const int64_t b_end = per_item ? b_begin + 1 : batch;
          for (int64_t b = b_begin; b < b_end; ++b) {
            const float* srcb = src + (per_item ? b * n * width : 0);
            if (by_col) {
              const int64_t* offs =
                  index.t_offsets.data() + b * (n + 1) + node;
              const int64_t* slots = index.t_slots.data() + b * nnz;
              for (int64_t i = offs[0]; i < offs[1]; ++i) {
                const int64_t slot = slots[i];
                const float g = scale[b * nnz + slot];
                const float* other = srcb + index.slot_rows[slot] * width;
                for (int64_t c = 0; c < width; ++c) dst[c] += g * other[c];
              }
            } else {
              const int64_t e0 = b * nnz + node * kept;
              for (int64_t e = e0; e < e0 + kept; ++e) {
                const float g = scale[e];
                const float* other = srcb + index.col_ids[e] * width;
                for (int64_t c = 0; c < width; ++c) dst[c] += g * other[c];
              }
            }
          }
        }
      });
  return out;
}

// Backward of the top-k node: per row the softmax and relu gradients over
// the k slots, per edge the gradients of the logit (into eta, summed per
// item, and into both E_nu rows) and, with use_pdf, of the gate back to
// the x dot. Parents take them in the op chain's order: eta; E_nu's
// column-side scatter, then its row-side one; x's column-side scatter
// plus its row-side one, in one accumulation.
void SparseGraphBackward(const GraphSaved& s, const Tensor& g) {
  TGCRN_TRACE_SCOPE("tagsl.GraphBackward");
  const graph::CsrIndex& index = *s.index;
  const int64_t batch = index.batch;
  const int64_t n = index.rows;
  const int64_t nnz = index.nnz();
  const int64_t kept = nnz / n;
  const bool pdf = s.use_pdf;
  const bool x_grad = pdf && NeedsGrad(s.x);
  const Tensor& embed = s.embed->value;
  const int64_t d_nu = embed.size(1);
  const int64_t channels = pdf ? s.x->value.size(2) : 0;
  RecordGraphCost("tagsl.GraphBackward",
                  BackwardGraphCost(static_cast<double>(batch * nnz),
                                    static_cast<double>(n),
                                    static_cast<double>(d_nu),
                                    static_cast<double>(channels),
                                    /*sparse=*/true, pdf));
  const vmath::internal::Kernels& vm =
      vmath::GetVmathKernels(common::ActiveSimdIsa());
  const float* ep = embed.data();
  const float* xp = pdf ? s.x->value.data() : nullptr;
  const float* eta = s.eta ? s.eta->value.data() : nullptr;
  const float alpha = s.alpha;
  const float pdf_scale = s.pdf_scale;
  Tensor g_logit = Tensor::ForOverwrite({batch, nnz});
  Tensor g_dot = x_grad ? Tensor::ForOverwrite({batch, nnz}) : Tensor();
  Tensor a_nu = Tensor::ForOverwrite({batch, nnz});
  Tensor t = pdf ? Tensor::ForOverwrite({batch, nnz}) : Tensor();
  Tensor sg = pdf ? Tensor::ForOverwrite({batch, nnz}) : Tensor();
  const float* yp = s.y.data();
  const float* gp = g.data();
  float* glp = g_logit.mutable_data();
  float* gdp = x_grad ? g_dot.mutable_data() : nullptr;
  float* ap = a_nu.mutable_data();
  float* tp = pdf ? t.mutable_data() : nullptr;
  float* sgp = pdf ? sg.mutable_data() : nullptr;
  common::ParallelFor(
      0, batch * n, RowGrain(kept * (d_nu + channels)),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t b = r / n;
          const int64_t row = r - b * n;
          const int64_t* cols = index.col_ids.data() + r * kept;
          const float* xb = pdf ? xp + b * n * channels : nullptr;
          for (int64_t j = 0; j < kept; ++j) {
            ap[r * kept + j] =
                Dot(ep + row * d_nu, ep + cols[j] * d_nu, d_nu);
            if (pdf) {
              tp[r * kept + j] = Dot(xb + row * channels,
                                     xb + cols[j] * channels, channels);
            }
          }
        }
      });
  if (pdf) {
    common::ParallelFor(0, t.numel(), kElemwiseGrain,
                        [&](int64_t i0, int64_t i1) {
                          Discriminant(tp + i0, i1 - i0, pdf_scale, vm,
                                       tp + i0, sgp + i0);
                        });
  }
  common::ParallelFor(0, batch * n, RowGrain(kept), [&](int64_t r0,
                                                        int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* eta_b = eta != nullptr ? eta + r / n : nullptr;
      float* gl = glp + r * kept;
      SoftmaxGradRow(yp + r * kept, gp + r * kept, gl, kept);
      if (pdf) {
        GateGradRow(ap + r * kept, eta_b, alpha, pdf_scale, tp + r * kept,
                    sgp + r * kept, kept, gl,
                    gdp != nullptr ? gdp + r * kept : nullptr);
      } else {
        BaseGradRow(ap + r * kept, eta_b, kept, gl);
      }
    }
  });
  if (NeedsGrad(s.eta)) s.eta->AccumulateGrad(g_logit.ReduceTo({batch, 1}));
  if (NeedsGrad(s.embed)) {
    s.embed->AccumulateGrad(
        ScatterEdges(index, glp, ep, d_nu, /*by_col=*/true, false));
    s.embed->AccumulateGrad(
        ScatterEdges(index, glp, ep, d_nu, /*by_col=*/false, false));
  }
  if (x_grad) {
    Tensor g_x = ScatterEdges(index, gdp, xp, channels, /*by_col=*/true,
                              /*per_item=*/true);
    g_x.AddInplace(ScatterEdges(index, gdp, xp, channels, /*by_col=*/false,
                                /*per_item=*/true));
    s.x->AccumulateGrad(g_x.Reshape(s.x->value.shape()));
  }
}

}  // namespace

ag::Variable TagSL::TrendFactor(const std::vector<int64_t>& slots,
                                const std::vector<int64_t>& prev_slots,
                                int64_t batch) const {
  if (!options_.use_time) return ag::Variable();
  TGCRN_CHECK_EQ(static_cast<int64_t>(slots.size()), batch);
  TGCRN_CHECK_EQ(static_cast<int64_t>(prev_slots.size()), batch);
  // Eq 7: trend factor from consecutive time representations. Scaled by
  // 1/d_tau so its magnitude is invariant to the embedding width.
  ag::Variable e_t = time_encoder_->Encode(slots);          // [B, d_tau]
  ag::Variable e_prev = time_encoder_->Encode(prev_slots);  // [B, d_tau]
  return ag::MulScalar(ag::Sum(ag::Mul(e_t, e_prev), 1, /*keepdim=*/true),
                       1.0f / static_cast<float>(time_encoder_->dim()));
}

ag::Variable TagSL::Graph(const ag::Variable& x_t,
                          const std::vector<int64_t>& slots,
                          const std::vector<int64_t>& prev_slots,
                          bool normalize) const {
  const int64_t batch = x_t.size(0);
  const int64_t n = options_.num_nodes;
  TGCRN_CHECK_EQ(x_t.value().dim(), 3);
  TGCRN_CHECK_EQ(x_t.size(1), n);
  const bool pdf = options_.use_pdf;
  // Eq 6: static node-pair correlation, shared across the batch.
  ag::Variable a_nu = ag::Matmul(node_embedding_,
                                 ag::Transpose(node_embedding_, 0, 1));
  ag::Variable eta = TrendFactor(slots, prev_slots, batch);  // [B, 1]
  const float* eta_data = eta.defined() ? eta.value().data() : nullptr;

  TGCRN_TRACE_SCOPE("tagsl.Graph");
  const GraphCost cost = ForwardGraphCost(
      static_cast<double>(batch * n * n), static_cast<double>(n), 0.0,
      pdf ? static_cast<double>(x_t.size(2)) : 0.0, /*sparse=*/false, pdf);
  RecordGraphCost("tagsl.Graph", cost);
  Tensor out = DenseGraphForward(x_t.value(), a_nu.value(), eta_data, pdf,
                                 options_.alpha, normalize);
  // Parents in the order the op chain's backward walk first reached them
  // (the gate's x, then a_nu, then eta), so the topological sort visits
  // everything upstream in the same order.
  std::vector<ag::Variable> parents;
  if (pdf) parents.push_back(x_t);
  parents.push_back(a_nu);
  if (eta.defined()) parents.push_back(eta);
  const bool record =
      ag::GradEnabled() &&
      std::any_of(parents.begin(), parents.end(),
                  [](const ag::Variable& p) { return p.needs_grad(); });
  if (!record) return ag::Variable(std::move(out));
  ag::SavedState<GraphSaved> saved;
  saved->y = out;
  if (pdf) saved->x = x_t.node();
  saved->embed = a_nu.node();
  if (eta.defined()) saved->eta = eta.node();
  saved->use_pdf = pdf;
  saved->alpha = options_.alpha;
  saved->pdf_scale = 1.0f / std::sqrt(static_cast<float>(x_t.size(2)));
  return ag::MakeOpNode(std::move(out), std::move(parents),
                        [saved = std::move(saved)](const Tensor& g) {
                          DenseGraphBackward(*saved, g);
                        });
}

ag::Variable TagSL::BuildRawGraph(const ag::Variable& x_t,
                                  const std::vector<int64_t>& slots,
                                  const std::vector<int64_t>& prev_slots)
    const {
  ag::NoGradGuard no_grad;
  return Graph(x_t, slots, prev_slots, /*normalize=*/false);
}

ag::Variable TagSL::BuildGraph(const ag::Variable& x_t,
                               const std::vector<int64_t>& slots,
                               const std::vector<int64_t>& prev_slots) const {
  ag::Variable adj = Graph(x_t, slots, prev_slots, /*normalize=*/true);
  TGCRN_HEALTH_TAP("tagsl.adjacency", adj.value());
  return adj;
}

ag::SparseGraph TagSL::BuildSparseGraph(
    const ag::Variable& x_t, const std::vector<int64_t>& slots,
    const std::vector<int64_t>& prev_slots, int64_t k) const {
  const int64_t batch = x_t.size(0);
  const int64_t n = options_.num_nodes;
  TGCRN_CHECK_EQ(x_t.value().dim(), 3);
  TGCRN_CHECK_EQ(x_t.size(1), n);
  const int64_t kept = std::min<int64_t>(std::max<int64_t>(k, 1), n);
  const int64_t nnz = n * kept;
  const int64_t channels = x_t.size(2);
  const bool pdf = options_.use_pdf;

  // Trend factor eta_t (Eq 7), shared by both stages: its value drives the
  // selection ranking, and the same Variable is a parent of the kept-edge
  // node so the time encoder trains through the sparse path.
  ag::Variable eta = TrendFactor(slots, prev_slots, batch);  // [B, 1]
  const float* eta_data = eta.defined() ? eta.value().data() : nullptr;

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
  SelectTopK(x_t.value().data(), batch, channels, eta_data, kept,
             index->col_ids.data());

  // --- Stage 2: the kept-edge graph, one autograd node --------------------
  // Eq 11 restricted to the kept set: softmax over each row's k logits ==
  // the dense row-softmax renormalized over the kept entries (the dropped
  // mass cancels), with all-zero rows degrading to uniform 1/k.
  TGCRN_TRACE_SCOPE("tagsl.Graph");
  RecordGraphCost("tagsl.Graph",
                  ForwardGraphCost(static_cast<double>(batch * nnz),
                                   static_cast<double>(n),
                                   static_cast<double>(options_.node_dim),
                                   static_cast<double>(channels),
                                   /*sparse=*/true, pdf));
  Tensor values = SparseGraphForward(*index, x_t.value(),
                                     node_embedding_.value(), eta_data, pdf,
                                     options_.alpha);
  ag::SparseGraph out;
  out.index = index;
  // Parents in the op chain's first-reach order: the gate's x, E_nu, eta.
  std::vector<ag::Variable> parents;
  if (pdf) parents.push_back(x_t);
  parents.push_back(node_embedding_);
  if (eta.defined()) parents.push_back(eta);
  const bool record =
      ag::GradEnabled() &&
      std::any_of(parents.begin(), parents.end(),
                  [](const ag::Variable& p) { return p.needs_grad(); });
  if (!record) {
    out.values = ag::Variable(std::move(values));
    return out;
  }
  // The column-side scatters walk the CSC lists; build them now so the
  // backward (which may run under a step arena) does no index work.
  index->BuildTranspose();
  ag::SavedState<GraphSaved> saved;
  saved->y = values;
  saved->index = index;
  if (pdf) saved->x = x_t.node();
  saved->embed = node_embedding_.node();
  if (eta.defined()) saved->eta = eta.node();
  saved->use_pdf = pdf;
  saved->alpha = options_.alpha;
  saved->pdf_scale = 1.0f / std::sqrt(static_cast<float>(channels));
  out.values = ag::MakeOpNode(std::move(values), std::move(parents),
                              [saved = std::move(saved)](const Tensor& g) {
                                SparseGraphBackward(*saved, g);
                              });
  return out;
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
