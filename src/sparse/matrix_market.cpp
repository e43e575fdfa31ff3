#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace cello::sparse {

namespace {

/// Cap the triplet reservation for a header we have not yet corroborated
/// with actual data: a lying "1 1 9000000000000000000" size line must produce
/// a clean truncation error when the body ends, not a bad_alloc inside
/// reserve().  The vector still grows to any honest nnz.
constexpr size_t kMaxTrustedReserve = size_t{1} << 20;

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  CELLO_CHECK_MSG(std::getline(in, line), "empty matrix market stream");
  std::istringstream header(line);
  std::string banner, object, fmt, field, symmetry;
  header >> banner >> object >> fmt >> field >> symmetry;
  std::transform(object.begin(), object.end(), object.begin(), ::tolower);
  std::transform(fmt.begin(), fmt.end(), fmt.begin(), ::tolower);
  std::transform(field.begin(), field.end(), field.begin(), ::tolower);
  std::transform(symmetry.begin(), symmetry.end(), symmetry.begin(), ::tolower);
  CELLO_CHECK_MSG(banner == "%%MatrixMarket", "not a MatrixMarket file");
  CELLO_CHECK_MSG(object == "matrix", "unsupported MatrixMarket object: " << object);
  CELLO_CHECK_MSG(fmt == "coordinate", "only coordinate format supported");
  CELLO_CHECK_MSG(field == "real" || field == "double" || field == "integer" ||
                      field == "pattern",
                  "unsupported MatrixMarket field: " << field);
  const bool pattern = (field == "pattern");
  const bool symmetric = (symmetry == "symmetric");
  CELLO_CHECK_MSG(symmetry == "general" || symmetric, "unsupported symmetry: " << symmetry);

  bool have_size_line = false;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') {
      have_size_line = true;
      break;
    }
  }
  CELLO_CHECK_MSG(have_size_line, "matrix market stream ends before the size line");
  std::istringstream sizes(line);
  i64 rows = 0, cols = 0, nnz = 0;
  CELLO_CHECK_MSG(sizes >> rows >> cols >> nnz, "bad size line: " << line);
  CELLO_CHECK_MSG(rows > 0 && cols > 0 && nnz >= 0, "bad size line: " << line);
  // Division form of nnz <= rows*cols, immune to the i64 overflow a hostile
  // header could provoke in the product.
  CELLO_CHECK_MSG(nnz / cols <= rows, "size line claims " << nnz << " entries for a " << rows
                                                          << " x " << cols << " matrix");

  std::vector<Triplet> ts;
  ts.reserve(std::min(static_cast<size_t>(nnz), kMaxTrustedReserve));
  for (i64 i = 0; i < nnz; ++i) {
    CELLO_CHECK_MSG(std::getline(in, line), "truncated matrix market body at entry " << i);
    std::istringstream entry(line);
    i64 r = 0, c = 0;
    double v = 1.0;
    CELLO_CHECK_MSG(entry >> r >> c, "malformed entry " << i << ": '" << line << "'");
    if (!pattern)
      CELLO_CHECK_MSG(entry >> v, "entry " << i << " is missing its value: '" << line << "'");
    CELLO_CHECK_MSG(r >= 1 && r <= rows,
                    "entry " << i << ": row " << r << " outside [1, " << rows << "]");
    CELLO_CHECK_MSG(c >= 1 && c <= cols,
                    "entry " << i << ": col " << c << " outside [1, " << cols << "]");
    ts.push_back({r - 1, c - 1, v});
  }
  // A symmetric file stores one triangle: each off-diagonal entry stands for
  // itself and, right after it, its transpose.
  return CsrMatrix::from_triplets(rows, cols, std::move(ts),
                                  {.mirror = symmetric ? Mirror::interleaved : Mirror::none});
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  CELLO_CHECK_MSG(in.good(), "cannot open " << path);
  return read_matrix_market(in);
}

void write_matrix_market(const CsrMatrix& m, std::ostream& out) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << m.rows() << ' ' << m.cols() << ' ' << m.nnz() << '\n';
  for (i64 r = 0; r < m.rows(); ++r)
    for (i64 k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k)
      out << (r + 1) << ' ' << (m.col_idx()[k] + 1) << ' ' << m.values()[k] << '\n';
}

void write_matrix_market_file(const CsrMatrix& m, const std::string& path) {
  std::ofstream out(path);
  CELLO_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  write_matrix_market(m, out);
}

}  // namespace cello::sparse
