// Compressed sparse row/column matrices — the storage substrate the paper's
// SpMM operator (line 1 of CG) runs on.  CHORD stores data and metadata in
// this format (Sec. V-B "Handling sparsity").
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace cello {
class Rng;
}  // namespace cello

namespace cello::sparse {

/// One coordinate-format entry used while assembling a matrix.
struct Triplet {
  i64 row = 0;
  i64 col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(i64 rows, i64 cols) : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

  /// Build from triplets in any order; duplicate coordinates are summed.
  ///
  /// Assembly is a counting sort: one pass range-checks the entries and
  /// counts them per row, a stable scatter places them into their rows, and
  /// each row is then sorted stably by column (insertion sort for short
  /// rows, std::stable_sort for long ones).  That is O(nnz + rows) for the
  /// near-sorted short rows every generator produces, plus O(r log r) for a
  /// long row of r entries.  Duplicates of one coordinate are summed left to
  /// right in input order, so the result is a pure function of the triplet
  /// sequence.  The triplets are released right after the scatter, so peak
  /// memory is the triplet vector plus 16 B per entry.  Throws cello::Error
  /// on an out-of-range index.
  static CsrMatrix from_triplets(i64 rows, i64 cols, std::vector<Triplet> entries);

  i64 rows() const { return rows_; }
  i64 cols() const { return cols_; }
  i64 nnz() const { return static_cast<i64>(values_.size()); }

  std::span<const i64> row_ptr() const { return row_ptr_; }
  std::span<const i64> col_idx() const { return col_idx_; }
  std::span<const double> values() const { return values_; }

  i64 row_nnz(i64 r) const { return row_ptr_[r + 1] - row_ptr_[r]; }
  double max_row_nnz() const;
  double avg_row_nnz() const;

  /// Bytes moved when streaming this matrix (values + column ids + row ptrs),
  /// matching ir::TensorDesc::bytes for compressed tensors.
  Bytes stream_bytes(Bytes word_bytes = 4) const {
    return static_cast<Bytes>(nnz()) * (word_bytes + 4) + static_cast<Bytes>(rows_ + 1) * 4;
  }

  CsrMatrix transpose() const;

  /// y = A * x for a single dense vector.
  void spmv(std::span<const double> x, std::span<double> y) const;

  /// Structural invariants: sorted column indices per row, monotone row_ptr,
  /// indices in range.  Throws cello::Error on violation.
  void validate() const;

 private:
  // Generators that only change values of an already-sorted matrix (row
  // normalization, diagonal lift) write the arrays directly: no reassembly.
  friend CsrMatrix diagonally_dominant(const CsrMatrix& a, double margin);
  friend CsrMatrix make_powerlaw_graph(i64 n, i64 target_nnz, Rng& rng);

  i64 rows_ = 0;
  i64 cols_ = 0;
  std::vector<i64> row_ptr_;
  std::vector<i64> col_idx_;
  std::vector<double> values_;
};

}  // namespace cello::sparse
