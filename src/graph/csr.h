// Copyright 2026 TGCRN Reproduction Authors
// Compressed-sparse-row storage for the learned time-aware graphs and the
// deterministic dense -> top-k -> CSR sparsify kernel that produces it.
//
// Batch-of-slots layout. A learned adjacency is a batch of row-stochastic
// [rows, cols] matrices that all share one sparsity *budget*: top-k keeps
// exactly min(k, cols) entries per row, so every batch item has the same
// row_offsets (rows + 1 entries, shared) while column ids and values are
// per-item, stored slot-major: slot s of batch item b lives at
// col_ids[b * nnz + s] / values flat index b * nnz + s. Values travel as a
// dense [batch, nnz] Tensor so the autograd layer (autograd/sparse_ops.h)
// treats them like any other activation.
//
// Determinism contract. Top-k selection ranks entries by (value descending,
// column index ascending) — a strict total order, so the kept set is unique
// regardless of selection algorithm, thread count, or ISA. Kept columns are
// then sorted ascending, fixing the slot order (and hence every downstream
// accumulation order) as a function of the input alone. Renormalization
// divides each kept value by the row's kept sum in ascending-slot order:
// applied to a row-softmax adjacency this is exactly the softmax
// renormalized over the kept entries.
#ifndef TGCRN_GRAPH_CSR_H_
#define TGCRN_GRAPH_CSR_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace tgcrn {
namespace graph {

// The structure (index) half of a batch of CSR matrices. Values live
// separately (CsrBatch / ag::SparseGraph) so one immutable index can be
// shared by the forward value tensor and every gradient pass.
struct CsrIndex {
  int64_t batch = 0;
  int64_t rows = 0;
  int64_t cols = 0;
  // Shared row pointer: slot range of row r is
  // [row_offsets[r], row_offsets[r + 1]) in every batch item.
  std::vector<int64_t> row_offsets;  // rows + 1
  // Row of each slot (the inverse of row_offsets), shared across the batch.
  std::vector<int64_t> slot_rows;  // nnz
  // Column id of each slot, ascending within a row. Slot-major per item.
  std::vector<int64_t> col_ids;  // batch * nnz
  // Transpose (CSC) view for the backward kernel, built by
  // BuildTranspose(): for batch item b, the incoming slots of column c are
  // t_slots[b * nnz + t_offsets[b * (cols + 1) + c] ...). t_slots holds
  // item-local slot ids ordered by (column, then slot ascending) — a
  // deterministic counting sort of col_ids, so transpose accumulation
  // order is also a pure function of the structure.
  std::vector<int64_t> t_offsets;  // batch * (cols + 1)
  std::vector<int64_t> t_slots;    // batch * nnz

  // Slots per batch item.
  int64_t nnz() const { return row_offsets.empty() ? 0 : row_offsets.back(); }
  bool has_transpose() const { return !t_offsets.empty(); }

  // Builds the transpose lists (idempotent). Deterministic counting sort,
  // parallel over batch items.
  void BuildTranspose();

  // Internal consistency checks (shapes, sortedness); aborts on violation.
  void Validate() const;
};

// One batch of CSR matrices: immutable structure + dense value tensor.
struct CsrBatch {
  std::shared_ptr<CsrIndex> index;
  Tensor values;  // [batch, nnz], slot-major

  bool defined() const { return index != nullptr; }
};

// The top-k ranking as one 64-bit key, so a larger key ranks higher
// under (value desc, index asc). The high half maps the value's bits to
// an unsigned integer that orders like the value, with -0.0 folded onto
// +0.0 since they compare equal. The low half is the complemented column
// index: among equal values the lower index ranks higher.
inline uint64_t RankKey(float value, int64_t column) {
  const uint32_t bits = std::bit_cast<uint32_t>(value + 0.0f);
  const uint32_t ordered =
      (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
  return uint64_t{ordered} << 32 |
         (0xFFFFFFFFu - static_cast<uint32_t>(column));
}

inline int64_t RankKeyColumn(uint64_t key) {
  return 0xFFFFFFFFu - static_cast<uint32_t>(key);
}

// Bounded top-k as a min-heap of rank keys heap[0..k), the root the worst
// kept key. Stores `key` at slot i and sifts it down; with i = 0 this
// replaces the root.
inline void SiftDownRankKey(uint64_t* heap, int64_t k, int64_t i,
                            uint64_t key) {
  for (;;) {
    int64_t child = 2 * i + 1;
    if (child >= k) break;
    if (child + 1 < k) child += heap[child + 1] < heap[child];
    if (heap[child] >= key) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = key;
}

// Orders heap[0..k) into that min-heap.
inline void HeapifyRankKeys(uint64_t* heap, int64_t k) {
  for (int64_t i = k / 2 - 1; i >= 0; --i) SiftDownRankKey(heap, k, i, heap[i]);
}

// Writes the column ids of the min(k, n) largest entries of `row`
// (length n < 2^32, no NaN) into `out`, ranked by (value descending,
// index ascending) and then sorted ascending by index. One streaming
// pass: a bounded heap, kept in `out` itself, holds the first k columns,
// and a later column enters only if it beats the worst kept value
// strictly (columns arrive in ascending order, so a tie never displaces
// an earlier id). No scratch beyond `out`. The selection is a pure
// function of the row contents (see file header), so it is
// bitwise-reproducible across thread counts and ISAs.
void TopKRow(const float* row, int64_t n, int64_t k, int64_t* out);

// Sparsifies a dense batch of row-distributions [B, N, N] (or one [N, N]
// matrix, treated as batch 1) to top-k CSR form, renormalizing each row's
// kept values to sum to 1 (uniform 1/k for all-zero rows). k is clamped to
// [1, N]. The kernel parallelizes over fixed row chunks; results are
// bitwise identical at any thread count.
CsrBatch SparsifyTopK(const Tensor& dense, int64_t k);

// Densifies a CsrBatch back to [batch, rows, cols] (zeros where dropped).
// Test/diagnostic utility.
Tensor CsrToDense(const CsrBatch& batch);

}  // namespace graph
}  // namespace tgcrn

#endif  // TGCRN_GRAPH_CSR_H_
