// Copyright 2026 TGCRN Reproduction Authors
#include "graph/csr.h"

#include <algorithm>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/prof.h"
#include "obs/trace.h"

namespace tgcrn {
namespace graph {
namespace {

// Elements scanned per ParallelFor chunk in the sparsify/transpose passes.
// Grain only moves chunk boundaries; per-row work is serial either way, so
// it never affects results.
constexpr int64_t kSparsifyGrainElems = 16384;

// Columns TopKRow can rank: the key keeps 32 bits of column index.
constexpr int64_t kMaxRankedColumns = int64_t{1} << 32;

}  // namespace

void CsrIndex::Validate() const {
  TGCRN_CHECK_GT(batch, 0);
  TGCRN_CHECK_GT(rows, 0);
  TGCRN_CHECK_GT(cols, 0);
  TGCRN_CHECK_EQ(static_cast<int64_t>(row_offsets.size()), rows + 1);
  TGCRN_CHECK_EQ(row_offsets.front(), 0);
  const int64_t n = nnz();
  TGCRN_CHECK_EQ(static_cast<int64_t>(slot_rows.size()), n);
  TGCRN_CHECK_EQ(static_cast<int64_t>(col_ids.size()), batch * n);
  for (int64_t r = 0; r < rows; ++r) {
    TGCRN_CHECK_LE(row_offsets[r], row_offsets[r + 1]);
  }
  for (int64_t b = 0; b < batch; ++b) {
    const int64_t* ids = col_ids.data() + b * n;
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t s = row_offsets[r]; s < row_offsets[r + 1]; ++s) {
        TGCRN_CHECK_GE(ids[s], 0);
        TGCRN_CHECK_LT(ids[s], cols);
        if (s > row_offsets[r]) {
          TGCRN_CHECK_LT(ids[s - 1], ids[s]) << "col ids not ascending";
        }
      }
    }
  }
}

void CsrIndex::BuildTranspose() {
  if (has_transpose()) return;
  const int64_t n = nnz();
  t_offsets.assign(batch * (cols + 1), 0);
  t_slots.resize(batch * n);
  // Counting sort of each item's slots by column. Slots are visited in
  // ascending order within each bucket, so the transpose adjacency lists
  // are ordered by (column, slot) — a pure function of the structure.
  common::ParallelFor(0, batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const int64_t* ids = col_ids.data() + b * n;
      int64_t* offs = t_offsets.data() + b * (cols + 1);
      int64_t* out = t_slots.data() + b * n;
      for (int64_t s = 0; s < n; ++s) ++offs[ids[s] + 1];
      for (int64_t c = 0; c < cols; ++c) offs[c + 1] += offs[c];
      // Scatter with offs[c] as column c's cursor; afterwards offs[c]
      // holds the end of column c, i.e. the start of column c + 1, so
      // shifting up by one restores the offsets.
      for (int64_t s = 0; s < n; ++s) out[offs[ids[s]]++] = s;
      for (int64_t c = cols - 1; c > 0; --c) offs[c] = offs[c - 1];
      offs[0] = 0;
    }
  });
}

void TopKRow(const float* row, int64_t n, int64_t k, int64_t* out) {
  TGCRN_CHECK_LE(n, kMaxRankedColumns);
  k = std::min(k, n);
  if (k <= 0) return;
  // out[0..k) holds the kept columns' rank keys as a min-heap: the root is
  // the worst kept column.
  uint64_t* heap = reinterpret_cast<uint64_t*>(out);
  for (int64_t j = 0; j < k; ++j) heap[j] = RankKey(row[j], j);
  HeapifyRankKeys(heap, k);
  // Columns arrive in ascending order, so a later column equal to the
  // root ranks below it: only a strictly larger value is admitted.
  float threshold = row[RankKeyColumn(heap[0])];
  for (int64_t j = k; j < n; ++j) {
    if (row[j] > threshold) {
      SiftDownRankKey(heap, k, 0, RankKey(row[j], j));
      threshold = row[RankKeyColumn(heap[0])];
    }
  }
  for (int64_t s = 0; s < k; ++s) out[s] = RankKeyColumn(heap[s]);
  std::sort(out, out + k);  // ascending column order fixes the slot layout
}

CsrBatch SparsifyTopK(const Tensor& dense, int64_t k) {
  TGCRN_TRACE_SCOPE("graph.SparsifyTopK");
  TGCRN_CHECK(dense.dim() == 2 || dense.dim() == 3)
      << "SparsifyTopK expects [B, N, N] or [N, N]";
  const int64_t batch = dense.dim() == 3 ? dense.size(0) : 1;
  const int64_t rows = dense.size(dense.dim() - 2);
  const int64_t cols = dense.size(dense.dim() - 1);
  const int64_t kept = std::min<int64_t>(std::max<int64_t>(k, 1), cols);

  // Shape-only analytic cost (identical at every ISA and thread count):
  // selection scans each row once, renormalization touches kept slots.
  obs::RecordKernelCost(
      "graph.SparsifyTopK",
      static_cast<double>(dense.numel()) +
          2.0 * static_cast<double>(batch) * static_cast<double>(rows) *
              static_cast<double>(kept),
      4.0 * (static_cast<double>(dense.numel()) +
             3.0 * static_cast<double>(batch) * static_cast<double>(rows) *
                 static_cast<double>(kept)));

  CsrBatch out;
  out.index = std::make_shared<CsrIndex>();
  CsrIndex& index = *out.index;
  index.batch = batch;
  index.rows = rows;
  index.cols = cols;
  index.row_offsets.resize(rows + 1);
  for (int64_t r = 0; r <= rows; ++r) index.row_offsets[r] = r * kept;
  const int64_t nnz = rows * kept;
  index.slot_rows.resize(nnz);
  for (int64_t s = 0; s < nnz; ++s) index.slot_rows[s] = s / kept;
  index.col_ids.resize(batch * nnz);
  out.values = Tensor::ForOverwrite({batch, nnz});

  const float* src = dense.data();
  float* vals = out.values.mutable_data();
  int64_t* ids = index.col_ids.data();
  const int64_t total_rows = batch * rows;
  const int64_t grain =
      std::max<int64_t>(1, kSparsifyGrainElems / std::max<int64_t>(1, cols));
  common::ParallelFor(0, total_rows, grain, [&](int64_t r0, int64_t r1) {
    for (int64_t br = r0; br < r1; ++br) {
      const float* row = src + br * cols;
      int64_t* row_ids = ids + br * kept;
      float* row_vals = vals + br * kept;
      TopKRow(row, cols, kept, row_ids);
      float sum = 0.0f;
      for (int64_t s = 0; s < kept; ++s) {
        row_vals[s] = row[row_ids[s]];
        sum += row_vals[s];
      }
      if (sum > 0.0f) {
        const float inv = 1.0f / sum;
        for (int64_t s = 0; s < kept; ++s) row_vals[s] *= inv;
      } else {
        // All-zero row (e.g. a fully relu-clipped row before softmax ever
        // ran): fall back to the uniform distribution over the kept set so
        // the result stays row-stochastic.
        const float uniform = 1.0f / static_cast<float>(kept);
        for (int64_t s = 0; s < kept; ++s) row_vals[s] = uniform;
      }
    }
  });
  return out;
}

Tensor CsrToDense(const CsrBatch& batch) {
  TGCRN_CHECK(batch.defined());
  const CsrIndex& index = *batch.index;
  const int64_t nnz = index.nnz();
  Tensor dense = Tensor::Zeros({index.batch, index.rows, index.cols});
  float* out = dense.mutable_data();
  const float* vals = batch.values.data();
  for (int64_t b = 0; b < index.batch; ++b) {
    const int64_t* ids = index.col_ids.data() + b * nnz;
    float* mat = out + b * index.rows * index.cols;
    for (int64_t s = 0; s < nnz; ++s) {
      mat[index.slot_rows[s] * index.cols + ids[s]] = vals[b * nnz + s];
    }
  }
  return dense;
}

}  // namespace graph
}  // namespace tgcrn
