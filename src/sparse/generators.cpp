#include "sparse/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/error.hpp"

namespace cello::sparse {
namespace {

/// Symmetrize a triplet list (add the transpose entries, halving values so
/// the diagonal scale stays comparable).
void symmetrize(std::vector<Triplet>& ts) {
  const size_t n = ts.size();
  for (size_t i = 0; i < n; ++i)
    if (ts[i].row != ts[i].col) ts.push_back({ts[i].col, ts[i].row, ts[i].value});
}

}  // namespace

i64 circuit_max_nnz(i64 n) {
  return n == 1 ? 2 : std::numeric_limits<i64>::max();
}

i64 powerlaw_graph_max_nnz(i64 n) {
  // n * n overflows past floor(sqrt(2^63 - 1)); no target can exceed that.
  return n > 3037000499 ? std::numeric_limits<i64>::max() : n * n + 1;
}

CsrMatrix make_fem_banded(i64 n, i64 target_nnz, Rng& rng) {
  CELLO_CHECK_MSG(n > 0 && target_nnz >= n, "make_fem_banded needs 1 <= n <= target_nnz, got n="
                                                 << n << " target_nnz=" << target_nnz);
  // Average off-diagonal band width that hits the nnz target: nnz ~ n * (1 + 2*halfband_used)
  const i64 per_row = std::max<i64>(1, target_nnz / n);
  const i64 half = std::max<i64>(1, (per_row - 1) / 2);

  std::vector<Triplet> ts;
  ts.reserve(static_cast<size_t>(target_nnz) + n);
  for (i64 r = 0; r < n; ++r) ts.push_back({r, r, 4.0 + rng.uniform()});
  // FEM stencils couple nearby unknowns: offsets 1..half plus an occasional
  // long-range coupling (mesh wrap), keeping rows around per_row entries.
  for (i64 r = 0; r < n; ++r) {
    for (i64 d = 1; d <= half; ++d) {
      const i64 c = r + d;
      if (c < n) {
        const double v = -1.0 / static_cast<double>(d);
        ts.push_back({r, c, v});
        ts.push_back({c, r, v});
      }
    }
  }
  // Top up with random symmetric couplings until we reach the target.
  while (static_cast<i64>(ts.size()) < target_nnz && n > 2) {
    const i64 r = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    const i64 c = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    if (r == c) continue;
    ts.push_back({r, c, -0.1});
    ts.push_back({c, r, -0.1});
  }
  auto m = CsrMatrix::from_triplets(n, n, std::move(ts));
  return diagonally_dominant(m);
}

CsrMatrix make_circuit(i64 n, i64 target_nnz, Rng& rng) {
  CELLO_CHECK_MSG(n > 0 && target_nnz >= n && target_nnz <= circuit_max_nnz(n),
                  "make_circuit needs 1 <= n <= target_nnz <= "
                      << circuit_max_nnz(n) << ", got n=" << n << " target_nnz=" << target_nnz);
  std::vector<Triplet> ts;
  ts.reserve(static_cast<size_t>(target_nnz) + n);
  for (i64 r = 0; r < n; ++r) ts.push_back({r, r, 2.0});
  // Circuit matrices have highly irregular connectivity: most nodes couple to
  // a couple of neighbours, a few hub nodes (rails) couple to many.
  const i64 off_target = std::max<i64>(0, target_nnz - n) / 2;  // pairs
  i64 made = 0;
  while (made < off_target) {
    i64 r;
    if (rng.uniform() < 0.05) {
      r = static_cast<i64>(rng.bounded(std::max<u64>(1, static_cast<u64>(n) / 100)));  // hub
    } else {
      r = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    }
    const i64 c = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    if (r == c) continue;
    ts.push_back({r, c, -0.5 * rng.uniform()});
    ++made;
  }
  symmetrize(ts);
  auto m = CsrMatrix::from_triplets(n, n, std::move(ts));
  return diagonally_dominant(m);
}

CsrMatrix make_powerlaw_graph(i64 n, i64 target_nnz, Rng& rng) {
  CELLO_CHECK_MSG(n > 0 && target_nnz >= n && target_nnz <= powerlaw_graph_max_nnz(n),
                  "make_powerlaw_graph needs 1 <= n <= target_nnz <= "
                      << powerlaw_graph_max_nnz(n) << ", got n=" << n
                      << " target_nnz=" << target_nnz);
  std::vector<Triplet> ts;
  for (i64 r = 0; r < n; ++r) ts.push_back({r, r, 1.0});  // self loops (A + I)
  const i64 edges = std::max<i64>(0, (target_nnz - n)) / 2;
  // Preferential-attachment flavoured endpoints: sample with a squared bias
  // toward low ids, producing the heavy-tailed degree profile of citation
  // and PPI graphs.
  std::set<std::pair<i64, i64>> seen;
  i64 made = 0;
  while (made < edges) {
    const double u1 = rng.uniform();
    const i64 a = static_cast<i64>(u1 * u1 * static_cast<double>(n));
    const i64 b = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    if (a == b || a >= n) continue;
    if (!seen.insert({std::min(a, b), std::max(a, b)}).second) continue;
    ts.push_back({a, b, 1.0});
    ts.push_back({b, a, 1.0});
    ++made;
  }
  // Row-normalize (random-walk normalization used by GCN pipelines).
  auto m = CsrMatrix::from_triplets(n, n, std::move(ts));
  for (i64 r = 0; r < n; ++r) {
    const double deg = static_cast<double>(m.row_nnz(r));
    for (i64 k = m.row_ptr_[r]; k < m.row_ptr_[r + 1]; ++k) m.values_[k] /= deg;
  }
  return m;
}

CsrMatrix diagonally_dominant(const CsrMatrix& a, double margin) {
  const i64 rows = a.rows();
  CELLO_CHECK_MSG(rows <= a.cols(), "diagonally_dominant needs rows <= cols, got "
                                        << rows << "x" << a.cols());
  // Walk the sorted rows once to size the result exactly, once to fill it:
  // every stored diagonal is replaced by the lifted one, and rows without a
  // diagonal gain one at its sorted position.
  i64 stored_diag = 0;
  for (i64 r = 0; r < rows; ++r)
    for (i64 k = a.row_ptr_[r]; k < a.row_ptr_[r + 1]; ++k) stored_diag += a.col_idx_[k] == r;
  CsrMatrix out(rows, a.cols());
  const size_t out_nnz = static_cast<size_t>(a.nnz() - stored_diag + rows);
  out.col_idx_.reserve(out_nnz);
  out.values_.reserve(out_nnz);
  for (i64 r = 0; r < rows; ++r) {
    const i64 begin = a.row_ptr_[r];
    const i64 end = a.row_ptr_[r + 1];
    double rowsum = 0.0;
    for (i64 k = begin; k < end; ++k)
      if (a.col_idx_[k] != r) rowsum += std::abs(a.values_[k]);
    bool placed = false;
    for (i64 k = begin; k < end; ++k) {
      const i64 c = a.col_idx_[k];
      if (c == r) continue;
      if (!placed && c > r) {
        out.col_idx_.push_back(r);
        out.values_.push_back(rowsum + margin);
        placed = true;
      }
      out.col_idx_.push_back(c);
      out.values_.push_back(a.values_[k]);
    }
    if (!placed) {
      out.col_idx_.push_back(r);
      out.values_.push_back(rowsum + margin);
    }
    out.row_ptr_[r + 1] = static_cast<i64>(out.col_idx_.size());
  }
  return out;
}

}  // namespace cello::sparse
