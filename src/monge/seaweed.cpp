#include "monge/seaweed.h"

#include "monge/steady_ant.h"
#include "util/check.h"

namespace monge {

namespace {

std::vector<std::int32_t> mul_rec(const std::vector<std::int32_t>& a,
                                  const std::vector<std::int32_t>& b) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  if (n == 0) return {};
  if (n == 1) return {0};

  const std::int64_t m = n / 2;

  // Split PA by columns into [0,m) and [m,n); compact by deleting empty
  // rows. Rows keep their relative order, so M_A^{-1} is just the sorted
  // list of surviving original rows.
  std::vector<std::int32_t> a_lo, a_hi, rows_lo, rows_hi;
  a_lo.reserve(static_cast<std::size_t>(m));
  rows_lo.reserve(static_cast<std::size_t>(m));
  a_hi.reserve(static_cast<std::size_t>(n - m));
  rows_hi.reserve(static_cast<std::size_t>(n - m));
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t c = a[static_cast<std::size_t>(r)];
    if (c < m) {
      a_lo.push_back(c);
      rows_lo.push_back(static_cast<std::int32_t>(r));
    } else {
      a_hi.push_back(static_cast<std::int32_t>(c - m));
      rows_hi.push_back(static_cast<std::int32_t>(r));
    }
  }

  // Split PB by rows into [0,m) and [m,n); compact by deleting empty
  // columns, relabelling each surviving column by its rank (M_B).
  std::vector<std::uint8_t> col_in_lo(static_cast<std::size_t>(n), 0);
  for (std::int64_t r = 0; r < m; ++r) {
    col_in_lo[static_cast<std::size_t>(b[static_cast<std::size_t>(r)])] = 1;
  }
  std::vector<std::int32_t> col_rank(static_cast<std::size_t>(n));
  std::vector<std::int32_t> cols_lo, cols_hi;  // M_B^{-1} per subproblem
  cols_lo.reserve(static_cast<std::size_t>(m));
  cols_hi.reserve(static_cast<std::size_t>(n - m));
  for (std::int64_t c = 0; c < n; ++c) {
    if (col_in_lo[static_cast<std::size_t>(c)]) {
      col_rank[static_cast<std::size_t>(c)] =
          static_cast<std::int32_t>(cols_lo.size());
      cols_lo.push_back(static_cast<std::int32_t>(c));
    } else {
      col_rank[static_cast<std::size_t>(c)] =
          static_cast<std::int32_t>(cols_hi.size());
      cols_hi.push_back(static_cast<std::int32_t>(c));
    }
  }
  std::vector<std::int32_t> b_lo(static_cast<std::size_t>(m));
  std::vector<std::int32_t> b_hi(static_cast<std::size_t>(n - m));
  for (std::int64_t r = 0; r < m; ++r) {
    b_lo[static_cast<std::size_t>(r)] =
        col_rank[static_cast<std::size_t>(b[static_cast<std::size_t>(r)])];
  }
  for (std::int64_t r = m; r < n; ++r) {
    b_hi[static_cast<std::size_t>(r - m)] =
        col_rank[static_cast<std::size_t>(b[static_cast<std::size_t>(r)])];
  }

  const std::vector<std::int32_t> c_lo = mul_rec(a_lo, b_lo);
  const std::vector<std::int32_t> c_hi = mul_rec(a_hi, b_hi);

  // Expand back to the n×n grid: PC,q(r,c) = P'C,q(M_A(r), M_B(c)), and the
  // two expanded results partition both the rows and the columns, so their
  // union is a full colored permutation — the steady ant's input.
  std::vector<std::int32_t> union_rc(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> union_color(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < c_lo.size(); ++i) {
    const auto r = static_cast<std::size_t>(rows_lo[i]);
    union_rc[r] = cols_lo[static_cast<std::size_t>(c_lo[i])];
    union_color[r] = 0;
  }
  for (std::size_t i = 0; i < c_hi.size(); ++i) {
    const auto r = static_cast<std::size_t>(rows_hi[i]);
    union_rc[r] = cols_hi[static_cast<std::size_t>(c_hi[i])];
    union_color[r] = 1;
  }
  return steady_ant_combine_raw(union_rc, union_color);
}

}  // namespace

std::vector<std::int32_t> seaweed_multiply_reference_raw(
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b) {
  MONGE_CHECK(a.size() == b.size());
  return mul_rec(a, b);
}

}  // namespace monge
