#include "monge/core_sparse.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/check.h"

namespace monge {

namespace {

void check_full_permutation(std::span<const std::int32_t> p) {
  const auto n = static_cast<std::int64_t>(p.size());
  MONGE_CHECK_MSG(n <= std::numeric_limits<std::int32_t>::max(),
                  "CoreSparsePerm: size " << n << " exceeds int32 indexing");
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (std::int64_t r = 0; r < n; ++r) {
    const std::int32_t c = p[static_cast<std::size_t>(r)];
    MONGE_CHECK_MSG(c >= 0 && c < n && !seen[static_cast<std::size_t>(c)],
                    "CoreSparsePerm: not a full permutation (row "
                        << r << " -> col " << c << ")");
    seen[static_cast<std::size_t>(c)] = true;
  }
}

}  // namespace

CoreSparsePerm CoreSparsePerm::from_dense(std::span<const std::int32_t> p) {
  check_full_permutation(p);
  CoreSparsePerm out;
  out.n_ = static_cast<std::int64_t>(p.size());
  for (std::int64_t r = 0; r < out.n_; ++r) {
    const std::int32_t c = p[static_cast<std::size_t>(r)];
    if (c != r) {
      out.rows_.push_back(static_cast<std::int32_t>(r));
      out.cols_.push_back(c);
    }
  }
  return out;
}

CoreSparsePerm CoreSparsePerm::identity(std::int64_t n) {
  MONGE_CHECK_MSG(n >= 0 && n <= std::numeric_limits<std::int32_t>::max(),
                  "CoreSparsePerm::identity: bad n " << n);
  CoreSparsePerm out;
  out.n_ = n;
  return out;
}

std::vector<std::int32_t> CoreSparsePerm::to_dense() const {
  std::vector<std::int32_t> out(static_cast<std::size_t>(n_));
  to_dense_into(out);
  return out;
}

void CoreSparsePerm::to_dense_into(std::span<std::int32_t> out) const {
  MONGE_CHECK_MSG(static_cast<std::int64_t>(out.size()) == n_,
                  "CoreSparsePerm::to_dense_into: out.size() "
                      << out.size() << " != n " << n_);
  std::iota(out.begin(), out.end(), std::int32_t{0});
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out[static_cast<std::size_t>(rows_[i])] = cols_[i];
  }
}

std::vector<IdentityRun> CoreSparsePerm::identity_runs() const {
  std::vector<IdentityRun> runs;
  std::int64_t cursor = 0;
  for (const std::int32_t r : rows_) {
    if (r > cursor) {
      runs.push_back({static_cast<std::int32_t>(cursor),
                      static_cast<std::int32_t>(r - cursor)});
    }
    cursor = r + 1;
  }
  if (n_ > cursor) {
    runs.push_back({static_cast<std::int32_t>(cursor),
                    static_cast<std::int32_t>(n_ - cursor)});
  }
  return runs;
}

// monge-lint: hot
std::int64_t core_size_of(std::span<const std::int32_t> p) {
  std::int64_t core = 0;
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(p.size()); ++i) {
    core += p[static_cast<std::size_t>(i)] != i;
  }
  return core;
}

// monge-lint: hot
bool core_exceeds(std::span<const std::int32_t> p, std::int64_t limit) {
  if (limit < 0) return true;  // core size >= 0 > limit for every input
  std::int64_t core = 0;
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(p.size()); ++i) {
    core += p[static_cast<std::size_t>(i)] != i;
    if (core > limit) return true;
  }
  return false;
}

namespace {

/// Inclusive range [lo, hi] of boundaries a core point blocks: the seaweed
/// of point (r, c) crosses every vertical boundary strictly between its row
/// and its column, so boundaries min(r,c)+1 .. max(r,c) cannot be clean.
struct BlockedSpan {
  std::int32_t lo;
  std::int32_t hi;
};

void append_spans(const CoreSparsePerm& p, std::vector<BlockedSpan>& spans) {
  const auto rows = p.core_rows();
  const auto cols = p.core_cols();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::int32_t r = rows[i];
    const std::int32_t c = cols[i];
    spans.push_back({std::min(r, c) + 1, std::max(r, c)});
  }
}

}  // namespace

CoreSparsePerm core_sparse_multiply(const CoreSparsePerm& a,
                                    const CoreSparsePerm& b,
                                    const DenseBlockSolver& solve_block) {
  MONGE_CHECK_MSG(a.n() == b.n(), "core_sparse_multiply: size mismatch "
                                      << a.n() << " vs " << b.n());
  CoreSparsePerm out = CoreSparsePerm::identity(a.n());
  if (a.core_size() == 0) return b;
  if (b.core_size() == 0) return a;

  // Every boundary blocked by either core, as sorted merged spans; the
  // complement boundaries are clean for BOTH inputs, so each merged span
  // [s, e] of blocked boundaries is one independent diagonal block over
  // rows [s-1, e] (direct-sum decomposition of the seaweed product).
  std::vector<BlockedSpan> spans;
  spans.reserve(static_cast<std::size_t>(a.core_size() + b.core_size()));
  append_spans(a, spans);
  append_spans(b, spans);
  std::sort(spans.begin(), spans.end(),
            [](const BlockedSpan& x, const BlockedSpan& y) {
              return x.lo < y.lo;
            });

  std::vector<std::int32_t> out_rows;
  std::vector<std::int32_t> out_cols;
  std::vector<std::int32_t> da;
  std::vector<std::int32_t> db;
  std::vector<std::int32_t> dc;
  std::size_t ia = 0;  // cursor into a's core (blocks ascend, rows ascend)
  std::size_t ib = 0;  // cursor into b's core

  std::size_t i = 0;
  while (i < spans.size()) {
    // Merge overlapping/adjacent spans into one maximal blocked run.
    std::int32_t s = spans[i].lo;
    std::int32_t e = spans[i].hi;
    for (++i; i < spans.size() && spans[i].lo <= e + 1; ++i) {
      e = std::max(e, spans[i].hi);
    }
    const std::int64_t lo = s - 1;   // first row of the block
    const std::int64_t hi = e + 1;   // one past the last row
    const std::int64_t size = hi - lo;

    // Gather each core's points inside the block. Every core point lies in
    // exactly one block (its blocked span is a subset of one merged run).
    const std::size_t a_begin = ia;
    while (ia < a.core_rows().size() && a.core_rows()[ia] < hi) ++ia;
    const std::size_t b_begin = ib;
    while (ib < b.core_rows().size() && b.core_rows()[ib] < hi) ++ib;
    const std::size_t ca = ia - a_begin;
    const std::size_t cb = ib - b_begin;

    if (cb == 0) {
      // B restricts to the identity here: the block's product is A's block.
      out_rows.insert(out_rows.end(), a.core_rows().begin() + a_begin,
                      a.core_rows().begin() + ia);
      out_cols.insert(out_cols.end(), a.core_cols().begin() + a_begin,
                      a.core_cols().begin() + ia);
      continue;
    }
    if (ca == 0) {
      out_rows.insert(out_rows.end(), b.core_rows().begin() + b_begin,
                      b.core_rows().begin() + ib);
      out_cols.insert(out_cols.end(), b.core_cols().begin() + b_begin,
                      b.core_cols().begin() + ib);
      continue;
    }

    // Both cores interact: materialize the dense block (shifted to [0,size))
    // and delegate to the dense solver.
    da.resize(static_cast<std::size_t>(size));
    db.resize(static_cast<std::size_t>(size));
    dc.resize(static_cast<std::size_t>(size));
    std::iota(da.begin(), da.end(), std::int32_t{0});
    std::iota(db.begin(), db.end(), std::int32_t{0});
    for (std::size_t k = a_begin; k < ia; ++k) {
      da[static_cast<std::size_t>(a.core_rows()[k] - lo)] =
          static_cast<std::int32_t>(a.core_cols()[k] - lo);
    }
    for (std::size_t k = b_begin; k < ib; ++k) {
      db[static_cast<std::size_t>(b.core_rows()[k] - lo)] =
          static_cast<std::int32_t>(b.core_cols()[k] - lo);
    }
    solve_block(da, db, dc);
    for (std::int64_t r = 0; r < size; ++r) {
      const std::int32_t c = dc[static_cast<std::size_t>(r)];
      if (c != r) {
        out_rows.push_back(static_cast<std::int32_t>(lo + r));
        out_cols.push_back(static_cast<std::int32_t>(lo + c));
      }
    }
  }

  out.rows_ = std::move(out_rows);
  out.cols_ = std::move(out_cols);
  return out;
}

}  // namespace monge
