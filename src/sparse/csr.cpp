#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/parallel.hpp"

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

/// Below this many stored entries per thread, an automatic worker count
/// (Assembly::workers == 0) gives the threads less work than starting them
/// costs.
constexpr size_t kMinEntriesPerWorker = size_t{1} << 16;

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

/// Sort row `r`'s `n` scattered entries, fold equal columns into their first
/// entry (the stable sort keeps input order, so sums run left to right), and
/// with `lift` write the lifted diagonal at its sorted position; the slot
/// after the entries is reserved for it.  Returns the row's stored length.
i64 finish_row(RowEntry* row, i64 n, i64 r, const Assembly& how) {
  sort_row(row, row + n);
  i64 len = 0;
  for (i64 k = 0; k < n; ++k) {
    if (len > 0 && row[len - 1].col == row[k].col)
      row[len - 1].value += row[k].value;
    else
      row[len++] = row[k];
  }
  if (!how.lift_diagonal) return len;
  // Stored diagonals were never scattered, so every entry is off-diagonal.
  double rowsum = 0.0;
  i64 at = len;
  for (i64 k = 0; k < len; ++k) {
    rowsum += std::abs(row[k].value);
    if (at == len && row[k].col > r) at = k;
  }
  std::move_backward(row + at, row + len, row + len + 1);
  row[at] = {r, rowsum + how.margin};
  return len + 1;
}

/// The two entry layouts: each owns its storage until release() and hands
/// the scans a view of raw pointers (locals the loops need not reload).
struct TripletSource {
  std::vector<Triplet> v;
  struct View {
    const Triplet* t;
    i64 row(size_t k) const { return t[k].row; }
    i64 col(size_t k) const { return t[k].col; }
    double value(size_t k) const { return t[k].value; }
  };
  size_t size() const { return v.size(); }
  View view() const { return {v.data()}; }
  void release() { std::vector<Triplet>().swap(v); }
};

struct CooSource {
  CooEntries e;
  struct View {
    const u32* rows;
    const u32* cols;
    const double* values;
    i64 row(size_t k) const { return rows[k]; }
    i64 col(size_t k) const { return cols[k]; }
    double value(size_t k) const { return values[k]; }
  };
  size_t size() const { return e.size(); }
  View view() const { return {e.row.data(), e.col.data(), e.value.data()}; }
  void release() { e = CooEntries{}; }
};

/// Split [0, rows) into `parts` ranges holding about equal shares of the
/// prefix-summed `starts` (starts[r] = first slot of row r, starts[rows] =
/// total): range w is [bounds[w], bounds[w + 1]).
std::vector<i64> balanced_bounds(const i64* starts, i64 rows, u32 parts) {
  std::vector<i64> bounds(parts + 1, rows);
  bounds[0] = 0;
  const i64 total = starts[rows];
  for (u32 w = 1; w < parts; ++w) {
    const i64 target = static_cast<i64>(static_cast<double>(total) * w / parts);
    const i64* at = std::lower_bound(starts, starts + rows, target);
    bounds[w] = std::max(bounds[w - 1], static_cast<i64>(at - starts));
  }
  return bounds;
}

}  // namespace

template <class Source>
CsrMatrix CsrMatrix::assemble_from(i64 rows, i64 cols, Source& src, const Assembly& how) {
  if (how.lift_diagonal)
    CELLO_CHECK_MSG(rows <= cols,
                    "a diagonal lift needs rows <= cols, got " << rows << "x" << cols);
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.resize(static_cast<size_t>(rows) + 1);  // written by pass 2
  m.row_ptr_[0] = 0;
  const size_t n = src.size();
  const Mirror mirror = how.mirror;
  const bool lift = how.lift_diagonal;
  const size_t stored_guess =
      (mirror != Mirror::none ? 2 * n : n) + (lift ? static_cast<size_t>(rows) : 0);
  const u32 wanted =
      how.workers != 0 ? how.workers : worker_count(0, stored_guess / kMinEntriesPerWorker);
  const u32 workers = static_cast<u32>(std::clamp<i64>(rows, 1, wanted));  // no empty ranges

  // Every worker scans the whole input and keeps the entries of the rows it
  // owns, so no row is ever split between workers.
  //
  // Pass 1, rows split evenly: every worker range-checks the whole input (so
  // each throws the same first error) and counts the entries of its rows
  // into start[r + 1], plus the reserved lift slot.  Stored diagonals are
  // skipped under a lift.
  std::unique_ptr<i64[]> start(new i64[rows + 1]);
  start[0] = 0;
  parallel_for(workers, workers, [&, in = src.view()](size_t w, u32) {
    const i64 lo = rows * static_cast<i64>(w) / workers;
    const i64 hi = rows * static_cast<i64>(w + 1) / workers;
    const u64 span = static_cast<u64>(hi - lo), nrows = static_cast<u64>(rows),
              ncols = static_cast<u64>(cols);
    i64* const count = start.get() + 1;
    std::fill(count + lo, count + hi, lift ? 1 : 0);
    for (size_t k = 0; k < n; ++k) {
      const i64 r = in.row(k), c = in.col(k);
      CELLO_CHECK_MSG(static_cast<u64>(r) < nrows, "triplet row out of range: " << r);
      CELLO_CHECK_MSG(static_cast<u64>(c) < ncols, "triplet col out of range: " << c);
      if (static_cast<u64>(r - lo) < span && !(lift && r == c)) ++count[r];
      if (mirror != Mirror::none && r != c) {
        CELLO_CHECK_MSG(static_cast<u64>(c) < nrows, "triplet row out of range: " << c);
        CELLO_CHECK_MSG(static_cast<u64>(r) < ncols, "triplet col out of range: " << r);
        if (static_cast<u64>(c - lo) < span) ++count[c];
      }
    }
  });
  for (i64 r = 0; r < rows; ++r) start[r + 1] += start[r];

  // Pass 2, rows split by slot count: each worker scatters its rows' entries
  // in input order (row_ptr_[r + 1] is row r's cursor), then finishes each
  // row in place and leaves its stored length in row_ptr_[r + 1].
  std::unique_ptr<RowEntry[]> placed(new RowEntry[static_cast<size_t>(start[rows])]);
  const std::vector<i64> by_slots = balanced_bounds(start.get(), rows, workers);
  parallel_for(workers, workers, [&, in = src.view()](size_t w, u32) {
    const i64 lo = by_slots[w], hi = by_slots[w + 1];
    const u64 span = static_cast<u64>(hi - lo);
    i64* const cursor = m.row_ptr_.data() + 1;
    std::copy(start.get() + lo, start.get() + hi, cursor + lo);
    RowEntry* const out = placed.get();
    auto place = [=](i64 r, i64 c, double v) { out[cursor[r]++] = {c, v}; };
    for (size_t k = 0; k < n; ++k) {
      const i64 r = in.row(k), c = in.col(k);
      if (static_cast<u64>(r - lo) < span && !(lift && r == c)) place(r, c, in.value(k));
      if (mirror == Mirror::interleaved && r != c && static_cast<u64>(c - lo) < span)
        place(c, r, in.value(k));
    }
    if (mirror == Mirror::appended)
      for (size_t k = 0; k < n; ++k) {
        const i64 r = in.row(k), c = in.col(k);
        if (r != c && static_cast<u64>(c - lo) < span) place(c, r, in.value(k));
      }
    for (i64 r = lo; r < hi; ++r)
      cursor[r] = finish_row(out + start[r], cursor[r] - start[r], r, how);
  });
  src.release();
  for (i64 r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];

  // Pass 3, rows split by stored entries: copy the finished rows into the
  // exact-size arrays (their first write, so the page faults split too).
  const size_t nnz = static_cast<size_t>(m.row_ptr_[rows]);
  m.col_idx_.resize(nnz);
  m.values_.resize(nnz);
  const std::vector<i64> by_nnz = balanced_bounds(m.row_ptr_.data(), rows, workers);
  parallel_for(workers, workers, [&](size_t w, u32) {
    for (i64 r = by_nnz[w]; r < by_nnz[w + 1]; ++r) {
      const RowEntry* in = placed.get() + start[r];
      for (i64 k = m.row_ptr_[r], end = m.row_ptr_[r + 1]; k < end; ++k, ++in) {
        m.col_idx_[k] = in->col;
        m.values_[k] = in->value;
      }
    }
  });
  return m;
}

CsrMatrix CsrMatrix::from_triplets(i64 rows, i64 cols, std::vector<Triplet> entries,
                                   const Assembly& how) {
  TripletSource src{std::move(entries)};
  return assemble_from(rows, cols, src, how);
}

CsrMatrix CsrMatrix::assemble(i64 rows, i64 cols, CooEntries entries, const Assembly& how) {
  CooSource src{std::move(entries)};
  return assemble_from(rows, cols, src, how);
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
