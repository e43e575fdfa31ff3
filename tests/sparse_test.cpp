// Tests for the sparse substrate: CSR container, synthetic generators
// (parameterized over the Table VI datasets) and Matrix Market I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "sparse/csr.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"

namespace {

using namespace cello;
using sparse::CsrMatrix;
using sparse::Triplet;

TEST(Csr, FromTripletsSortsAndSumsDuplicates) {
  const std::vector<Triplet> ts = {{1, 2, 3.0}, {0, 0, 1.0}, {1, 2, 2.0}, {1, 0, 4.0}};
  const auto m = CsrMatrix::from_triplets(2, 3, ts);
  m.validate();
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.row_nnz(0), 1);
  EXPECT_EQ(m.row_nnz(1), 2);
  // Row 1: (0, 4.0), (2, 5.0) — duplicates summed, columns sorted.
  EXPECT_EQ(m.col_idx()[1], 0);
  EXPECT_DOUBLE_EQ(m.values()[2], 5.0);
}

TEST(Csr, RejectsOutOfRangeTriplets) {
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), Error);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{0, -1, 1.0}}), Error);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{-1, 0, 1.0}}), Error);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{0, 2, 1.0}}), Error);
  // A bad entry after good ones is still caught.
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, 1.0}, {1, 5, 1.0}}), Error);
  EXPECT_THROW(CsrMatrix::from_triplets(0, 0, {{0, 0, 1.0}}), Error);
}

TEST(Csr, FromTripletsSortsUnsortedRows) {
  const auto m =
      CsrMatrix::from_triplets(2, 5, {{1, 4, 1.0}, {0, 3, 2.0}, {1, 0, 3.0}, {0, 1, 4.0},
                                      {1, 2, 5.0}, {0, 4, 6.0}});
  m.validate();
  EXPECT_EQ(std::vector<i64>(m.row_ptr().begin(), m.row_ptr().end()),
            (std::vector<i64>{0, 3, 6}));
  EXPECT_EQ(std::vector<i64>(m.col_idx().begin(), m.col_idx().end()),
            (std::vector<i64>{1, 3, 4, 0, 2, 4}));
  EXPECT_EQ(std::vector<double>(m.values().begin(), m.values().end()),
            (std::vector<double>{4.0, 2.0, 6.0, 3.0, 5.0, 1.0}));
}

TEST(Csr, FromTripletsKeepsEmptyRows) {
  const auto m = CsrMatrix::from_triplets(6, 3, {{4, 2, 1.0}, {1, 0, 2.0}, {4, 0, 3.0}});
  m.validate();
  EXPECT_EQ(std::vector<i64>(m.row_ptr().begin(), m.row_ptr().end()),
            (std::vector<i64>{0, 0, 1, 1, 1, 3, 3}));
  EXPECT_EQ(m.row_nnz(5), 0);
  EXPECT_EQ(CsrMatrix::from_triplets(3, 3, {}).nnz(), 0);
  EXPECT_EQ(CsrMatrix::from_triplets(3, 3, {}).row_ptr().size(), 4u);
}

TEST(Csr, FromTripletsSumsDuplicatesInInputOrder) {
  // 1e16 + 1 rounds back to 1e16, so these sums depend on their order:
  // {1e16, 1, -1e16} gives 0 left to right, but 1 with -1e16 first.
  const auto m = CsrMatrix::from_triplets(
      2, 2, {{0, 1, 1e16}, {1, 0, 7.0}, {0, 1, 1.0}, {0, 0, 2.0}, {0, 1, -1e16}, {0, 1, 1.0}});
  m.validate();
  ASSERT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.col_idx()[1], 1);
  EXPECT_EQ(m.values()[1], 1.0);  // ((1e16 + 1) - 1e16) + 1
  const auto n = CsrMatrix::from_triplets(1, 1, {{0, 0, 1e16}, {0, 0, 1.0}, {0, 0, -1e16}});
  EXPECT_EQ(n.values()[0], 0.0);
  const auto rev = CsrMatrix::from_triplets(1, 1, {{0, 0, -1e16}, {0, 0, 1e16}, {0, 0, 1.0}});
  EXPECT_EQ(rev.values()[0], 1.0);
}

TEST(Csr, FromTripletsSortsRowsLongerThanTheInsertionCutoff) {
  // One 400-entry row (100 columns x 4 copies) in shuffled order, with
  // values spread over 17 decades so that summing a column's copies in any
  // order but the input order almost surely rounds differently: exercises the
  // stable_sort path's ordering and its stability.
  Rng rng(11);
  std::vector<Triplet> ts;
  for (int copy = 0; copy < 4; ++copy)
    for (i64 c = 0; c < 100; ++c) {
      const double scale = std::pow(10.0, static_cast<double>(rng.bounded(17)) - 8.0);
      ts.push_back({1, c, (rng.uniform() - 0.5) * scale});
    }
  for (size_t i = ts.size() - 1; i > 0; --i)
    std::swap(ts[i], ts[rng.bounded(static_cast<u64>(i + 1))]);
  ts.push_back({0, 3, 9.0});
  std::vector<double> expected(100, 0.0);
  std::vector<bool> seen(100, false);
  for (const auto& t : ts) {
    if (t.row != 1) continue;
    expected[t.col] = seen[t.col] ? expected[t.col] + t.value : t.value;
    seen[t.col] = true;
  }
  const auto m = CsrMatrix::from_triplets(3, 100, ts);
  m.validate();
  ASSERT_EQ(m.row_nnz(1), 100);
  EXPECT_EQ(m.row_nnz(0), 1);
  EXPECT_EQ(m.row_nnz(2), 0);
  for (i64 c = 0; c < 100; ++c) {
    const i64 k = m.row_ptr()[1] + c;
    EXPECT_EQ(m.col_idx()[k], c);
    EXPECT_EQ(m.values()[k], expected[c]) << "column " << c;
  }
}

TEST(Csr, DiagonallyDominantLiftsOrInsertsTheDiagonal) {
  // Row 0 has a stored diagonal, row 1 has none (its diagonal is inserted
  // between columns 0 and 2), row 2 is empty.
  const auto a = CsrMatrix::from_triplets(
      3, 3, {{0, 0, 100.0}, {0, 2, -2.0}, {1, 2, 3.0}, {1, 0, -1.5}});
  const auto d = sparse::diagonally_dominant(a, 0.25);
  d.validate();
  EXPECT_EQ(std::vector<i64>(d.row_ptr().begin(), d.row_ptr().end()),
            (std::vector<i64>{0, 2, 5, 6}));
  EXPECT_EQ(std::vector<i64>(d.col_idx().begin(), d.col_idx().end()),
            (std::vector<i64>{0, 2, 0, 1, 2, 2}));
  EXPECT_EQ(std::vector<double>(d.values().begin(), d.values().end()),
            (std::vector<double>{2.25, -2.0, -1.5, 4.75, 3.0, 0.25}));
  EXPECT_THROW(sparse::diagonally_dominant(CsrMatrix::from_triplets(3, 2, {})), Error);
}

TEST(Csr, TransposeRoundTrip) {
  Rng rng(5);
  std::vector<Triplet> ts;
  for (int i = 0; i < 50; ++i)
    ts.push_back({static_cast<i64>(rng.bounded(10)), static_cast<i64>(rng.bounded(7)),
                  rng.uniform()});
  const auto m = CsrMatrix::from_triplets(10, 7, ts);
  const auto mtt = m.transpose().transpose();
  ASSERT_EQ(mtt.nnz(), m.nnz());
  for (i64 k = 0; k < m.nnz(); ++k) {
    EXPECT_EQ(mtt.col_idx()[k], m.col_idx()[k]);
    EXPECT_DOUBLE_EQ(mtt.values()[k], m.values()[k]);
  }
}

TEST(Csr, SpmvMatchesDense) {
  const auto m = CsrMatrix::from_triplets(3, 3, {{0, 0, 2.0}, {0, 2, 1.0}, {1, 1, 3.0},
                                                 {2, 0, -1.0}, {2, 2, 4.0}});
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3);
  m.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);
}

TEST(Csr, StreamBytesFormula) {
  const auto m = CsrMatrix::from_triplets(4, 4, {{0, 0, 1.0}, {3, 3, 1.0}});
  EXPECT_EQ(m.stream_bytes(4), 2u * 8 + 5u * 4);
}

TEST(Csr, RowOccupancyStats) {
  const auto m = CsrMatrix::from_triplets(3, 3, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}});
  EXPECT_DOUBLE_EQ(m.max_row_nnz(), 2.0);
  EXPECT_NEAR(m.avg_row_nnz(), 1.0, 1e-12);
}

// ---- parallel assembly ------------------------------------------------------

/// FNV-1a over row_ptr, col_idx and the value bits, each as 8 little-endian
/// bytes.
u64 csr_digest(const CsrMatrix& m) {
  u64 h = 0xcbf29ce484222325ull;
  auto mix = [&h](u64 word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const i64 v : m.row_ptr()) mix(static_cast<u64>(v));
  for (const i64 v : m.col_idx()) mix(static_cast<u64>(v));
  for (const double v : m.values()) {
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
  return h;
}

/// What assembly must produce, spelled out the slow way: expand the mirror
/// into the full stored sequence, fold each coordinate's values in that
/// order, and apply the diagonal lift row by row.
std::map<std::pair<i64, i64>, double> reference_assembly(const std::vector<Triplet>& in,
                                                         const sparse::Assembly& how) {
  std::vector<Triplet> seq;
  for (const Triplet& t : in) {
    seq.push_back(t);
    if (how.mirror == sparse::Mirror::interleaved && t.row != t.col)
      seq.push_back({t.col, t.row, t.value});
  }
  if (how.mirror == sparse::Mirror::appended)
    for (const Triplet& t : in)
      if (t.row != t.col) seq.push_back({t.col, t.row, t.value});
  std::map<std::pair<i64, i64>, double> acc;
  for (const Triplet& t : seq) {
    if (how.lift_diagonal && t.row == t.col) continue;
    const auto [it, fresh] = acc.emplace(std::make_pair(t.row, t.col), t.value);
    if (!fresh) it->second += t.value;
  }
  if (how.lift_diagonal) {
    std::map<i64, double> rowsum;
    for (const auto& [rc, v] : acc) rowsum[rc.first] += std::abs(v);
    i64 rows = 0;
    for (const Triplet& t : seq) rows = std::max({rows, t.row + 1, t.col + 1});
    for (i64 r = 0; r < rows; ++r) acc[{r, r}] = rowsum[r] + how.margin;
  }
  return acc;
}

/// Adversarial entry lists: every row folds order-sensitive duplicates (so a
/// row split across workers, or summed out of input order, changes bits),
/// some rows are empty, one row is far past the insertion-sort cutoff, and
/// the cancelling sums of FromTripletsSumsDuplicatesInInputOrder recur.
std::vector<Triplet> adversarial_triplets(i64 rows, u64 seed) {
  Rng rng(seed);
  std::vector<Triplet> ts;
  for (int round = 0; round < 3; ++round)
    for (i64 r = 0; r < rows; ++r) {
      if (r % 7 == 3) continue;  // empty rows (unless mirrored into)
      const i64 c = static_cast<i64>(rng.bounded(static_cast<u64>(rows)));
      ts.push_back({r, c, 1e16});
      ts.push_back({r, (c + 1) % rows, rng.uniform()});
      ts.push_back({r, c, 1.0});
      ts.push_back({r, c, -1e16});
    }
  for (int copy = 0; copy < 3; ++copy)
    for (i64 c = rows - 1; c >= 0; --c) {
      const double scale = std::pow(10.0, static_cast<double>(rng.bounded(17)) - 8.0);
      ts.push_back({rows / 2, c, (rng.uniform() - 0.5) * scale});
    }
  for (size_t i = ts.size() - 1; i > 0; --i)
    std::swap(ts[i], ts[rng.bounded(static_cast<u64>(i + 1))]);
  ts.push_back({1, 1, 1e16});
  ts.push_back({1, 1, 1.0});
  ts.push_back({1, 1, -1e16});
  return ts;
}

TEST(Assembly, EveryWorkerCountMatchesTheReference) {
  const i64 rows = 61;
  const std::vector<Triplet> ts = adversarial_triplets(rows, 3);
  for (const auto mirror :
       {sparse::Mirror::none, sparse::Mirror::interleaved, sparse::Mirror::appended})
    for (const bool lift : {false, true}) {
      const sparse::Assembly base{.mirror = mirror, .lift_diagonal = lift, .margin = 0.5};
      const auto expected = reference_assembly(ts, base);
      u64 digest = 0;
      for (const u32 workers : {1u, 2u, 3u, 4u, 7u, 0u}) {
        sparse::Assembly how = base;
        how.workers = workers;
        const std::string what = "mirror=" + std::to_string(static_cast<int>(mirror)) +
                                 " lift=" + std::to_string(lift) +
                                 " workers=" + std::to_string(workers);
        const auto m = CsrMatrix::from_triplets(rows, rows, ts, how);
        m.validate();
        std::map<std::pair<i64, i64>, double> got;
        for (i64 r = 0; r < rows; ++r)
          for (i64 k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k)
            got[{r, m.col_idx()[k]}] = m.values()[k];
        ASSERT_EQ(got.size(), expected.size()) << what;
        for (const auto& [rc, v] : expected)
          EXPECT_EQ(got.at(rc), v) << what << " at (" << rc.first << ", " << rc.second << ")";
        // The compact layout assembles the same bytes.
        sparse::CooEntries coo;
        for (const Triplet& t : ts)
          coo.push(static_cast<u32>(t.row), static_cast<u32>(t.col), t.value);
        EXPECT_EQ(csr_digest(CsrMatrix::assemble(rows, rows, std::move(coo), how)), csr_digest(m))
            << what;
        if (workers == 1) digest = csr_digest(m);
        EXPECT_EQ(csr_digest(m), digest) << what;
      }
    }
}

TEST(Assembly, DuplicatesStraddlingEveryRangeBoundary) {
  // Eight rows of 40 copies of one column each: whatever split the workers
  // pick, a boundary row keeps its input-order sum; a cancelling sequence
  // that only the left-to-right order turns into 1.0 marks every row.
  std::vector<Triplet> ts;
  for (int copy = 0; copy < 40; ++copy)
    for (i64 r = 0; r < 8; ++r) ts.push_back({r, 5, copy == 0 ? 1e16 : (copy == 1 ? 1.0 : 0.0)});
  for (i64 r = 0; r < 8; ++r) {
    ts.push_back({r, 5, -1e16});
    ts.push_back({r, 5, 1.0});
  }
  for (const u32 workers : {1u, 2u, 3u, 4u, 7u}) {
    const auto m = CsrMatrix::from_triplets(8, 6, ts, {.workers = workers});
    ASSERT_EQ(m.nnz(), 8) << workers;
    for (i64 r = 0; r < 8; ++r)
      EXPECT_EQ(m.values()[r], 1.0) << "row " << r << " workers " << workers;
  }
}

TEST(Assembly, OutOfRangeErrorsDoNotDependOnTheWorkerCount) {
  std::vector<Triplet> ts;
  for (i64 r = 0; r < 100; ++r) ts.push_back({r, r, 1.0});
  ts.push_back({3, 100, 1.0});  // the first bad entry
  ts.push_back({100, 3, 1.0});
  for (const u32 workers : {1u, 4u, 7u}) {
    try {
      CsrMatrix::from_triplets(100, 100, ts, {.workers = workers});
      ADD_FAILURE() << "no error at workers=" << workers;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("triplet col out of range: 100"), std::string::npos)
          << e.what();
    }
  }
  // A mirrored entry is range-checked as a row too.
  EXPECT_THROW(
      CsrMatrix::from_triplets(2, 3, {{0, 2, 1.0}}, {.mirror = sparse::Mirror::interleaved}),
      Error);
  EXPECT_THROW(CsrMatrix::from_triplets(3, 2, {}, {.lift_diagonal = true}), Error);
}

// ---- generators (parameterized over the Table VI datasets) -----------------

class DatasetGeneratorTest : public ::testing::TestWithParam<sparse::DatasetSpec> {};

TEST_P(DatasetGeneratorTest, MatchesPublishedShapeStats) {
  const auto& spec = GetParam();
  const auto m = sparse::instantiate(spec);
  m.validate();
  EXPECT_EQ(m.rows(), spec.rows);
  EXPECT_EQ(m.cols(), spec.rows);
  // nnz within 25% of the published count (duplicate collapses / symmetry).
  EXPECT_GT(m.nnz(), spec.nnz * 3 / 4) << spec.name;
  EXPECT_LT(m.nnz(), spec.nnz * 5 / 4) << spec.name;
}

TEST_P(DatasetGeneratorTest, DeterministicAcrossCalls) {
  const auto& spec = GetParam();
  const auto a = sparse::instantiate(spec);
  const auto b = sparse::instantiate(spec);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (i64 k = 0; k < std::min<i64>(a.nnz(), 500); ++k)
    EXPECT_DOUBLE_EQ(a.values()[k], b.values()[k]);
}

INSTANTIATE_TEST_SUITE_P(Table6, DatasetGeneratorTest,
                         ::testing::ValuesIn(sparse::table6_datasets()),
                         [](const ::testing::TestParamInfo<sparse::DatasetSpec>& info) {
                           return info.param.name;
                         });

TEST(Generators, FemBandedIsDiagonallyDominant) {
  Rng rng(1);
  const auto m = sparse::make_fem_banded(500, 3500, rng);
  for (i64 r = 0; r < m.rows(); ++r) {
    double diag = 0, off = 0;
    for (i64 k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
      if (m.col_idx()[k] == r)
        diag = m.values()[k];
      else
        off += std::abs(m.values()[k]);
    }
    EXPECT_GT(diag, off) << "row " << r;
  }
}

TEST(Generators, CircuitHasIrregularRows) {
  Rng rng(2);
  const auto m = sparse::make_circuit(2000, 14000, rng);
  EXPECT_GT(m.max_row_nnz(), 2.0 * m.avg_row_nnz());  // hub rows exist
}

TEST(Generators, PowerLawGraphRowsAreNormalized) {
  Rng rng(3);
  const auto m = sparse::make_powerlaw_graph(1000, 5000, rng);
  for (i64 r = 0; r < m.rows(); ++r) {
    double s = 0;
    for (i64 k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) s += m.values()[k];
    EXPECT_NEAR(s, 1.0, 1e-9) << "row " << r;
  }
}

TEST(Generators, RejectTargetsTheyCannotReach) {
  Rng rng(1);
  // Without the range checks the first two would sample forever.
  EXPECT_THROW(sparse::make_powerlaw_graph(4, 100, rng), Error);
  EXPECT_THROW(sparse::make_circuit(1, 3, rng), Error);
  EXPECT_THROW(sparse::make_fem_banded(10, 9, rng), Error);
  EXPECT_THROW(sparse::make_circuit(0, 0, rng), Error);
  EXPECT_EQ(sparse::powerlaw_graph_max_nnz(4), 17);
  EXPECT_EQ(sparse::circuit_max_nnz(1), 2);
  // The bound is reachable: every edge of K4 plus the self loops.
  EXPECT_EQ(sparse::make_powerlaw_graph(4, 17, rng).nnz(), 16);
  EXPECT_EQ(sparse::make_circuit(1, 2, rng).nnz(), 1);
}

// ---- bit-exact generator pins ---------------------------------------------

// Recorded from the comparison-sort assembly these generators used before
// the counting-sort rewrite; any change to generation or assembly order that
// moves a single bit fails here.
TEST(GeneratorPins, Table6DatasetsAreBitExact) {
  const std::vector<std::pair<std::string, u64>> pins = {
      {"fv1", 0xa7547229498072baull},        {"shallow_water1", 0x9f33bcf2124cd0e2ull},
      {"G2_circuit", 0x8941ceb09f6ecc63ull}, {"nasa4704", 0xa66dd49545d2fdbdull},
      {"cora", 0xecf1098a3a155a5aull},       {"protein", 0x0e11e6333fc4a4f6ull},
  };
  ASSERT_EQ(pins.size(), sparse::table6_datasets().size());
  for (const auto& [name, digest] : pins)
    EXPECT_EQ(csr_digest(sparse::instantiate(sparse::dataset_by_name(name))), digest) << name;
}

/// The four gen= matrices of the Table IV end-to-end grid at seeds 1 and 2.
struct GenPin {
  const char* gen;
  i64 m, nnz;
  u64 seed, digest;
};
constexpr GenPin kTable4Pins[] = {
    {"fem", 81920, 327680, 1, 0x25f6767f640aeb91ull},
    {"fem", 4704, 104756, 1, 0x2e3121e70d9f63a7ull},
    {"graph", 2708, 9464, 1, 0xb0cbe29c5f3386f1ull},
    {"circuit", 150102, 726674, 1, 0x5bfed559a6282c7bull},
    {"fem", 81920, 327680, 2, 0x27f939274eefd3f1ull},
    {"fem", 4704, 104756, 2, 0x18797963b23bf690ull},
    {"graph", 2708, 9464, 2, 0x10c8084acc01ca40ull},
    {"circuit", 150102, 726674, 2, 0x28d8a974945229e3ull},
};

CsrMatrix generate(const GenPin& p, u32 workers = 0) {
  Rng rng(p.seed);
  const std::string gen = p.gen;
  return gen == "fem"       ? sparse::make_fem_banded(p.m, p.nnz, rng, workers)
         : gen == "circuit" ? sparse::make_circuit(p.m, p.nnz, rng, workers)
                            : sparse::make_powerlaw_graph(p.m, p.nnz, rng, workers);
}

TEST(GeneratorPins, Table4GenSpecsAreBitExact) {
  for (const GenPin& p : kTable4Pins)
    EXPECT_EQ(csr_digest(generate(p)), p.digest) << p.gen << " m=" << p.m << " seed=" << p.seed;
}

TEST(GeneratorPins, EveryWorkerCountAssemblesTheSameBits) {
  for (const GenPin& p : kTable4Pins)
    for (const u32 workers : {1u, 2u, 3u, 4u, 7u})
      EXPECT_EQ(csr_digest(generate(p, workers)), p.digest)
          << p.gen << " m=" << p.m << " seed=" << p.seed << " workers=" << workers;
}

TEST(Generators, DatasetLookup) {
  EXPECT_EQ(sparse::dataset_by_name("fv1").rows, 9604);
  EXPECT_EQ(sparse::dataset_by_name("cora").gnn_in_features, 1433);
  EXPECT_THROW(sparse::dataset_by_name("nope"), Error);
}

// ---- matrix market ----------------------------------------------------------

TEST(MatrixMarket, RoundTrip) {
  const auto m = CsrMatrix::from_triplets(3, 4, {{0, 1, 2.5}, {2, 3, -1.0}, {1, 0, 7.0}});
  std::stringstream ss;
  sparse::write_matrix_market(m, ss);
  const auto back = sparse::read_matrix_market(ss);
  ASSERT_EQ(back.rows(), 3);
  ASSERT_EQ(back.cols(), 4);
  ASSERT_EQ(back.nnz(), 3);
  for (i64 k = 0; k < 3; ++k) EXPECT_DOUBLE_EQ(back.values()[k], m.values()[k]);
}

TEST(MatrixMarket, ReadsSymmetric) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real symmetric\n"
                       "3 3 2\n1 1 5.0\n3 1 2.0\n");
  const auto m = sparse::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 3);  // (0,0), (2,0), (0,2)
  std::vector<double> x = {1, 0, 0}, y(3);
  m.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
}

TEST(MatrixMarket, SymmetricDuplicatesAreBitExact) {
  // One triangle plus stray upper-triangle entries and repeats: (3,1) thrice
  // and (1,3) once fold into one (3,1)/(1,3) pair, where only the interleaved
  // order (each entry, then its transpose) gives row 3's sum of 1.0.
  // Recorded from the parser that pushed each mirrored triplet itself.
  std::stringstream ss("%%MatrixMarket matrix coordinate real symmetric\n"
                       "% one triangle plus stray upper entries and repeats\n"
                       "5 5 12\n"
                       "1 1 4.0\n3 1 1e16\n2 2 1.5\n1 3 1.0\n3 1 -1e16\n2 2 0.25\n"
                       "5 2 -3.5\n4 4 2.0\n5 2 0.125\n2 5 1e-3\n3 1 1.0\n5 5 7.0\n");
  const auto m = sparse::read_matrix_market(ss);
  m.validate();
  EXPECT_EQ(m.nnz(), 8);
  EXPECT_EQ(m.values()[m.row_ptr()[2]], 1.0);
  EXPECT_EQ(csr_digest(m), 0xac51aeefb688f27cull);
}

TEST(MatrixMarket, ReadsPattern) {
  std::stringstream ss("%%MatrixMarket matrix coordinate pattern general\n"
                       "2 2 2\n1 1\n2 2\n");
  const auto m = sparse::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.values()[0], 1.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::stringstream ss("not a matrix\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), Error);
}

TEST(MatrixMarket, RejectsTruncatedBody) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), Error);
}

}  // namespace
