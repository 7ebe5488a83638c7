#include "monge/core_sparse.h"

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

}  // namespace monge
