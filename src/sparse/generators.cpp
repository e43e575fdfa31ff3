#include "sparse/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "common/error.hpp"

namespace cello::sparse {
namespace {

/// Generators store row and column ids in 32 bits (CooEntries).
void check_rows_fit(const char* generator, i64 n) {
  CELLO_CHECK_MSG(n <= static_cast<i64>(std::numeric_limits<u32>::max()),
                  generator << " supports at most " << std::numeric_limits<u32>::max()
                            << " rows, got n=" << n);
}

}  // namespace

i64 circuit_max_nnz(i64 n) {
  return n == 1 ? 2 : std::numeric_limits<i64>::max();
}

i64 powerlaw_graph_max_nnz(i64 n) {
  // n * n overflows past floor(sqrt(2^63 - 1)); no target can exceed that.
  return n > 3037000499 ? std::numeric_limits<i64>::max() : n * n + 1;
}

CsrMatrix make_fem_banded(i64 n, i64 target_nnz, Rng& rng, u32 workers) {
  CELLO_CHECK_MSG(n > 0 && target_nnz >= n, "make_fem_banded needs 1 <= n <= target_nnz, got n="
                                                 << n << " target_nnz=" << target_nnz);
  check_rows_fit("make_fem_banded", n);
  // Average off-diagonal band width that hits the nnz target: nnz ~ n * (1 + 2*halfband_used)
  const i64 per_row = std::max<i64>(1, target_nnz / n);
  const i64 half = std::max<i64>(1, (per_row - 1) / 2);

  // Each row's diagonal draw is consumed and dropped: the lift below replaces
  // every diagonal, but the draws stay in the sequence the couplings follow.
  for (i64 r = 0; r < n; ++r) rng.uniform();
  CooEntries pairs;
  pairs.reserve(static_cast<size_t>((target_nnz - n) / 2 + 1));
  // FEM stencils couple nearby unknowns: offsets 1..half plus an occasional
  // long-range coupling (mesh wrap), keeping rows around per_row entries.
  for (i64 r = 0; r < n; ++r) {
    for (i64 d = 1; d <= half; ++d) {
      const i64 c = r + d;
      if (c < n)
        pairs.push(static_cast<u32>(r), static_cast<u32>(c), -1.0 / static_cast<double>(d));
    }
  }
  // Top up with random symmetric couplings until the stored entries (the
  // diagonal plus both triangles, before merging) reach the target.
  i64 stored = n + 2 * static_cast<i64>(pairs.size());
  while (stored < target_nnz && n > 2) {
    const i64 r = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    const i64 c = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    if (r == c) continue;
    pairs.push(static_cast<u32>(r), static_cast<u32>(c), -0.1);
    stored += 2;
  }
  return CsrMatrix::assemble(
      n, n, std::move(pairs),
      {.mirror = Mirror::interleaved, .lift_diagonal = true, .workers = workers});
}

CsrMatrix make_circuit(i64 n, i64 target_nnz, Rng& rng, u32 workers) {
  CELLO_CHECK_MSG(n > 0 && target_nnz >= n && target_nnz <= circuit_max_nnz(n),
                  "make_circuit needs 1 <= n <= target_nnz <= "
                      << circuit_max_nnz(n) << ", got n=" << n << " target_nnz=" << target_nnz);
  check_rows_fit("make_circuit", n);
  // Circuit matrices have highly irregular connectivity: most nodes couple to
  // a couple of neighbours, a few hub nodes (rails) couple to many.  The
  // diagonal comes from the lift alone.
  const i64 off_target = std::max<i64>(0, target_nnz - n) / 2;  // pairs
  CooEntries pairs;
  pairs.reserve(static_cast<size_t>(off_target));
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
    pairs.push(static_cast<u32>(r), static_cast<u32>(c), -0.5 * rng.uniform());
    ++made;
  }
  // Symmetrized by appending every coupling's transpose after the drawn ones.
  return CsrMatrix::assemble(
      n, n, std::move(pairs),
      {.mirror = Mirror::appended, .lift_diagonal = true, .workers = workers});
}

CsrMatrix make_powerlaw_graph(i64 n, i64 target_nnz, Rng& rng, u32 workers) {
  CELLO_CHECK_MSG(n > 0 && target_nnz >= n && target_nnz <= powerlaw_graph_max_nnz(n),
                  "make_powerlaw_graph needs 1 <= n <= target_nnz <= "
                      << powerlaw_graph_max_nnz(n) << ", got n=" << n
                      << " target_nnz=" << target_nnz);
  check_rows_fit("make_powerlaw_graph", n);
  const i64 edges = std::max<i64>(0, (target_nnz - n)) / 2;
  CooEntries pairs;
  pairs.reserve(static_cast<size_t>(n + edges));
  for (i64 r = 0; r < n; ++r) pairs.push(static_cast<u32>(r), static_cast<u32>(r), 1.0);  // A + I
  // Preferential-attachment flavoured endpoints: sample with a squared bias
  // toward low ids, producing the heavy-tailed degree profile of citation
  // and PPI graphs.
  // Each undirected edge {a, b} is keyed min * n + max (< 2^64 for n < 2^32).
  std::unordered_set<u64> seen;
  seen.reserve(static_cast<size_t>(edges));
  i64 made = 0;
  while (made < edges) {
    const double u1 = rng.uniform();
    const i64 a = static_cast<i64>(u1 * u1 * static_cast<double>(n));
    const i64 b = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    if (a == b || a >= n) continue;
    if (!seen.insert(static_cast<u64>(std::min(a, b)) * static_cast<u64>(n) +
                     static_cast<u64>(std::max(a, b)))
             .second)
      continue;
    pairs.push(static_cast<u32>(a), static_cast<u32>(b), 1.0);
    ++made;
  }
  // Row-normalize (random-walk normalization used by GCN pipelines).
  auto m = CsrMatrix::assemble(n, n, std::move(pairs),
                               {.mirror = Mirror::interleaved, .workers = workers});
  for (i64 r = 0; r < n; ++r) {
    const double deg = static_cast<double>(m.row_nnz(r));
    for (i64 k = m.row_ptr_[r]; k < m.row_ptr_[r + 1]; ++k) m.values_[k] /= deg;
  }
  return m;
}

CsrMatrix diagonally_dominant(const CsrMatrix& a, double margin) {
  std::vector<Triplet> ts;
  ts.reserve(static_cast<size_t>(a.nnz()));
  for (i64 r = 0; r < a.rows(); ++r)
    for (i64 k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k)
      ts.push_back({r, a.col_idx()[k], a.values()[k]});
  return CsrMatrix::from_triplets(a.rows(), a.cols(), std::move(ts),
                                  {.lift_diagonal = true, .margin = margin});
}

}  // namespace cello::sparse
