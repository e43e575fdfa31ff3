#include "sparse/csr.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cello::sparse {

namespace {

/// One stored entry while its row is being sorted: column and value side by
/// side, so the scatter touches one cache line per entry instead of two.
struct RowEntry {
  i64 col;
  double value;
};

/// Rows up to this length are sorted by insertion (they are short and nearly
/// sorted in every generator); longer rows go to std::stable_sort.
constexpr i64 kInsertionSortMaxRow = 32;

/// Stable sort of one row's entries by column.
void sort_row(RowEntry* first, RowEntry* last) {
  if (last - first > kInsertionSortMaxRow) {
    std::stable_sort(first, last, [](const RowEntry& a, const RowEntry& b) { return a.col < b.col; });
    return;
  }
  for (RowEntry* it = first + 1; it < last; ++it) {
    const RowEntry e = *it;
    RowEntry* hole = it;
    for (; hole > first && (hole - 1)->col > e.col; --hole) *hole = *(hole - 1);
    *hole = e;
  }
}

}  // namespace

CsrMatrix CsrMatrix::from_triplets(i64 rows, i64 cols, std::vector<Triplet> entries) {
  CsrMatrix m(rows, cols);
  // Count per row into row_ptr_[r + 1], then turn the counts into row starts
  // shifted by one slot: row_ptr_[r + 1] = start of row r.  The scatter below
  // advances each as its row's cursor, leaving row_ptr_[r + 1] = end of row r.
  for (const auto& t : entries) {
    CELLO_CHECK_MSG(t.row >= 0 && t.row < rows, "triplet row out of range: " << t.row);
    CELLO_CHECK_MSG(t.col >= 0 && t.col < cols, "triplet col out of range: " << t.col);
    ++m.row_ptr_[t.row + 1];
  }
  i64 start = 0;
  for (i64 r = 0; r < rows; ++r) {
    const i64 count = m.row_ptr_[r + 1];
    m.row_ptr_[r + 1] = start;
    start += count;
  }
  std::vector<RowEntry> placed(entries.size());
  for (const auto& t : entries) placed[m.row_ptr_[t.row + 1]++] = {t.col, t.value};
  std::vector<Triplet>().swap(entries);

  // Sort each row by column, then fold equal columns into their first entry
  // (the stable sort keeps input order, so sums run left to right) while
  // compacting the rows leftward.
  i64 out = 0;
  i64 row_begin = 0;
  for (i64 r = 0; r < rows; ++r) {
    const i64 row_end = m.row_ptr_[r + 1];
    sort_row(placed.data() + row_begin, placed.data() + row_end);
    const i64 row_out = out;
    for (i64 k = row_begin; k < row_end; ++k) {
      if (out > row_out && placed[out - 1].col == placed[k].col)
        placed[out - 1].value += placed[k].value;
      else
        placed[out++] = placed[k];
    }
    m.row_ptr_[r + 1] = out;
    row_begin = row_end;
  }
  m.col_idx_.resize(out);
  m.values_.resize(out);
  for (i64 k = 0; k < out; ++k) {
    m.col_idx_[k] = placed[k].col;
    m.values_[k] = placed[k].value;
  }
  return m;
}

double CsrMatrix::max_row_nnz() const {
  i64 mx = 0;
  for (i64 r = 0; r < rows_; ++r) mx = std::max(mx, row_nnz(r));
  return static_cast<double>(mx);
}

double CsrMatrix::avg_row_nnz() const {
  return rows_ == 0 ? 0.0 : static_cast<double>(nnz()) / static_cast<double>(rows_);
}

CsrMatrix CsrMatrix::transpose() const {
  std::vector<Triplet> ts;
  ts.reserve(values_.size());
  for (i64 r = 0; r < rows_; ++r)
    for (i64 k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      ts.push_back({col_idx_[k], r, values_[k]});
  return from_triplets(cols_, rows_, std::move(ts));
}

void CsrMatrix::spmv(std::span<const double> x, std::span<double> y) const {
  CELLO_CHECK(static_cast<i64>(x.size()) == cols_);
  CELLO_CHECK(static_cast<i64>(y.size()) == rows_);
  for (i64 r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (i64 k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) acc += values_[k] * x[col_idx_[k]];
    y[r] = acc;
  }
}

void CsrMatrix::validate() const {
  CELLO_CHECK(static_cast<i64>(row_ptr_.size()) == rows_ + 1);
  CELLO_CHECK(row_ptr_.front() == 0);
  CELLO_CHECK(row_ptr_.back() == nnz());
  for (i64 r = 0; r < rows_; ++r) {
    CELLO_CHECK_MSG(row_ptr_[r] <= row_ptr_[r + 1], "row_ptr not monotone at row " << r);
    for (i64 k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      CELLO_CHECK(col_idx_[k] >= 0 && col_idx_[k] < cols_);
      if (k + 1 < row_ptr_[r + 1])
        CELLO_CHECK_MSG(col_idx_[k] < col_idx_[k + 1], "unsorted columns in row " << r);
    }
  }
}

}  // namespace cello::sparse
