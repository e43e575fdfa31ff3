// Synthetic sparse-matrix generators.
//
// The paper evaluates on SuiteSparse matrices (fv1, shallow_water1,
// G2_circuit, nasa4704) and OMEGA's GNN graphs (cora, protein).  Those files
// are not available offline, so we generate matrices with the *same shape
// statistics* (rows, nnz, occupancy profile) — the quantities that determine
// traffic and reuse in the simulator.  See DESIGN.md §2 for the substitution
// rationale.
//
// Accepted sizes: every generator needs 1 <= n <= target_nnz, and those that
// must sample off-diagonal or distinct coordinates cap target_nnz at what n
// rows can hold (circuit_max_nnz / powerlaw_graph_max_nnz).  A request
// outside the range throws cello::Error instead of sampling forever.
// target_nnz is a target, not a guarantee: colliding random couplings are
// merged, so fem/circuit matrices can store slightly fewer entries.  Row and
// column ids are 32-bit while a matrix is assembled, so n < 2^32.
//
// Assembly order is part of each generator's output contract.  The random
// draws run serially (their sequence defines the matrix) into a compact
// entry list, which CsrMatrix::assemble turns into CSR on `workers` threads
// (0 = the hardware thread count, or the calling thread alone for small
// matrices): every row sees its entries in draw order, duplicates are summed
// in that order, and fem/circuit lift the diagonal in the same per-row pass
// (diagonally_dominant's rule), so the result is the same bit for bit at any
// worker count, and the same as assembling the full symmetric triplet list
// with from_triplets and then calling diagonally_dominant.
#pragma once

#include "common/rng.hpp"
#include "sparse/csr.hpp"

namespace cello::sparse {

/// FEM-style banded matrix (stencil neighbourhoods): symmetric positive
/// definite, ~target_nnz stored entries, diagonally dominant so CG converges.
/// Accepts any target_nnz >= n (random couplings may repeat; with n <= 2 the
/// matrix holds only the diagonal and band).
CsrMatrix make_fem_banded(i64 n, i64 target_nnz, Rng& rng, u32 workers = 0);

/// Circuit-simulation style: strong diagonal plus sparse random off-diagonal
/// couplings (irregular row occupancy), SPD-ified by diagonal dominance.
/// Accepts n <= target_nnz <= circuit_max_nnz(n).
CsrMatrix make_circuit(i64 n, i64 target_nnz, Rng& rng, u32 workers = 0);

/// Largest target_nnz make_circuit accepts: unbounded (couplings may repeat)
/// for n >= 2, and 2 for n == 1, whose only entry is the diagonal.
i64 circuit_max_nnz(i64 n);

/// Power-law (graph adjacency) pattern for GNN datasets; returns the
/// normalized adjacency with self loops (A_hat = A + I, row-normalized).
/// Accepts n <= target_nnz <= powerlaw_graph_max_nnz(n).
CsrMatrix make_powerlaw_graph(i64 n, i64 target_nnz, Rng& rng, u32 workers = 0);

/// Largest target_nnz make_powerlaw_graph accepts: the graph asks for
/// (target_nnz - n) / 2 distinct undirected edges, at most n(n-1)/2 of which
/// exist, so the bound is n * n + 1.
i64 powerlaw_graph_max_nnz(i64 n);

/// Make any square matrix strictly diagonally dominant (hence SPD when
/// symmetrized) by lifting its diagonal; used by tests and solvers.  The
/// generators apply the same lift while they assemble (Assembly::lift_diagonal).
CsrMatrix diagonally_dominant(const CsrMatrix& a, double margin = 1.0);

}  // namespace cello::sparse
