// Compressed sparse row/column matrices — the storage substrate the paper's
// SpMM operator (line 1 of CG) runs on.  CHORD stores data and metadata in
// this format (Sec. V-B "Handling sparsity").
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace cello {
class Rng;
}  // namespace cello

namespace cello::sparse {

/// std::allocator whose value-less construct default-initializes, so resize()
/// leaves trivial elements unwritten: the assembler's worker threads make the
/// first write to every element (and so take the page faults) in parallel.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <class U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// One coordinate-format entry used while assembling a matrix.
struct Triplet {
  i64 row = 0;
  i64 col = 0;
  double value = 0.0;
};

/// Coordinate entries in assembly order as three parallel arrays with 32-bit
/// indices: 16 B per entry, the compact input the generators fill.
struct CooEntries {
  std::vector<u32> row, col;
  std::vector<double> value;

  size_t size() const { return value.size(); }
  void reserve(size_t n) {
    row.reserve(n);
    col.reserve(n);
    value.reserve(n);
  }
  void push(u32 r, u32 c, double v) {
    row.push_back(r);
    col.push_back(c);
    value.push_back(v);
  }
};

/// Which stored entries one input entry (r, c, v) stands for.
enum class Mirror : u8 {
  none,         ///< (r, c, v) alone
  interleaved,  ///< (r, c, v), then (c, r, v) right after it when r != c
  appended,     ///< (r, c, v); after the last input entry, every (c, r, v)
                ///< with r != c follows in input order
};

/// How a matrix is assembled from its entries.
struct Assembly {
  Mirror mirror = Mirror::none;
  /// Replace each row's diagonal by margin + the sum of |v| over its other
  /// entries in column order (stored diagonals are dropped, the lifted one
  /// sits at its sorted position): diagonally_dominant applied on the fly.
  bool lift_diagonal = false;
  double margin = 1.0;
  /// Assembly threads; 0 = std::thread::hardware_concurrency() for inputs
  /// large enough to repay the threads, the calling thread alone otherwise.
  /// The count never changes a bit of the result.
  u32 workers = 0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(i64 rows, i64 cols) : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

  /// Build from triplets in any order; duplicate coordinates are summed.
  ///
  /// Assembly is a counting sort split by row ranges across `how.workers`
  /// threads.  Each worker scans the whole input, counts the entries of the
  /// rows it owns, then (after one prefix sum) scatters them into their rows
  /// in input order, sorts each row stably by column (insertion sort for
  /// short rows, std::stable_sort for long ones) and folds duplicates of one
  /// coordinate left to right in input order.  Every row therefore sees its
  /// entries in input order whatever the worker count, and the result is a
  /// pure function of the entry sequence and `how.mirror`/`how.lift_diagonal`.
  /// That is O(nnz + rows) per worker for the near-sorted short rows every
  /// generator produces, plus O(r log r) for a long row of r entries.  The
  /// input is released right after the scatter; peak memory is the input
  /// plus 16 B per stored entry and 8 B per row, then 32 B per entry while
  /// the rows are copied into exact-size arrays.  Throws cello::Error on an
  /// out-of-range index (the first in input order, each entry checked with
  /// its mirror).
  static CsrMatrix from_triplets(i64 rows, i64 cols, std::vector<Triplet> entries,
                                 const Assembly& how = {});
  /// The same assembly over the compact 32-bit entry arrays.
  static CsrMatrix assemble(i64 rows, i64 cols, CooEntries entries, const Assembly& how = {});

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
  template <class Source>
  static CsrMatrix assemble_from(i64 rows, i64 cols, Source& src, const Assembly& how);

  // The graph generator row-normalizes the assembled values in place.
  friend CsrMatrix make_powerlaw_graph(i64 n, i64 target_nnz, Rng& rng, u32 workers);

  template <class T>
  using Array = std::vector<T, DefaultInitAllocator<T>>;

  i64 rows_ = 0;
  i64 cols_ = 0;
  Array<i64> row_ptr_;
  Array<i64> col_idx_;
  Array<double> values_;
};

}  // namespace cello::sparse
