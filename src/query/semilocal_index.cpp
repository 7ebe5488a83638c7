#include "query/semilocal_index.h"

#include <algorithm>
#include <atomic>
#include <bit>

#include "lcs/hunt_szymanski.h"
#include "lis/kernel.h"
#include "lis/sequential.h"
#include "monge/engine.h"
#include "util/check.h"

namespace monge::query {

namespace {

/// Process-unique index ids. Starts at 1 so 0 always means "no index"
/// (the empty QueryHandle in the API tier).
std::uint64_t next_index_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

SemiLocalIndex SemiLocalIndex::build(std::span<const std::int32_t> kernel_rows,
                                     std::vector<std::int64_t> row_starts) {
  SemiLocalIndex idx;
  idx.n_ = static_cast<std::int64_t>(kernel_rows.size());
  idx.id_ = next_index_id();
  idx.row_starts_ = std::move(row_starts);
  if (idx.n_ == 0) return idx;  // every non-empty window is out of range

  // Heap-ordered merge tree over rows: leaves_ = bit_ceil(n) leaves, node k
  // covers rows [ (k - leaves_) ... ] at the leaf level and the union of
  // its children above. Sizes first (a leaf holds 1 column iff its row has
  // a kernel point), then one prefix-sum pass fixes the flattened offsets,
  // then leaves are filled and parents merged bottom-up with std::merge —
  // every level is O(n), the whole build O(n log n).
  idx.leaves_ = static_cast<std::int64_t>(
      std::bit_ceil(static_cast<std::uint64_t>(idx.n_)));
  const std::size_t nodes = static_cast<std::size_t>(2 * idx.leaves_);
  std::vector<std::int64_t> size(nodes, 0);
  for (std::int64_t r = 0; r < idx.n_; ++r) {
    if (kernel_rows[static_cast<std::size_t>(r)] != kNone) {
      size[static_cast<std::size_t>(idx.leaves_ + r)] = 1;
      ++idx.points_;
    }
  }
  for (std::int64_t k = idx.leaves_ - 1; k >= 1; --k) {
    size[static_cast<std::size_t>(k)] = size[static_cast<std::size_t>(2 * k)] +
                                        size[static_cast<std::size_t>(2 * k + 1)];
  }
  idx.node_off_.assign(nodes + 1, 0);
  for (std::size_t k = 1; k < nodes; ++k) {
    idx.node_off_[k + 1] = idx.node_off_[k] + size[k];
  }
  idx.pool_.resize(static_cast<std::size_t>(idx.node_off_[nodes]));
  for (std::int64_t r = 0; r < idx.n_; ++r) {
    const std::int32_t c = kernel_rows[static_cast<std::size_t>(r)];
    if (c != kNone) {
      idx.pool_[static_cast<std::size_t>(
          idx.node_off_[static_cast<std::size_t>(idx.leaves_ + r)])] = c;
    }
  }
  for (std::int64_t k = idx.leaves_ - 1; k >= 1; --k) {
    const auto at = [&](std::int64_t node) {
      return idx.pool_.begin() +
             static_cast<std::ptrdiff_t>(
                 idx.node_off_[static_cast<std::size_t>(node)]);
    };
    std::merge(at(2 * k), at(2 * k + 1), at(2 * k + 1), at(2 * k + 2), at(k));
  }
  return idx;
}

SemiLocalIndex SemiLocalIndex::from_sequence(
    std::span<const std::int64_t> seq) {
  SeaweedEngine engine;
  return from_sequence(seq, engine);
}

SemiLocalIndex SemiLocalIndex::from_sequence(std::span<const std::int64_t> seq,
                                             SeaweedEngine& engine) {
  const Perm kernel = lis::lis_kernel(lis::rank_reduce_strict(seq), engine);
  return build(kernel.row_to_col(), {});
}

SemiLocalIndex SemiLocalIndex::from_kernel(const Perm& kernel) {
  MONGE_CHECK_MSG(kernel.rows() == kernel.cols(),
                  "SemiLocalIndex::from_kernel requires a square kernel, got "
                      << kernel.rows() << "x" << kernel.cols());
  return build(kernel.row_to_col(), {});
}

SemiLocalIndex SemiLocalIndex::from_lcs_pair(std::span<const std::int64_t> s,
                                             std::span<const std::int64_t> t,
                                             SeaweedEngine& engine) {
  const lcs::HsOccurrences occ(t);
  const auto seq = occ.match_sequence(s);
  MONGE_CHECK_MSG(
      static_cast<std::int64_t>(seq.size()) <= kSeaweedEngineMaxN,
      "SemiLocalIndex::from_lcs_pair match sequence has "
          << seq.size() << " entries, above the engine limit "
          << kSeaweedEngineMaxN);
  const Perm kernel = lis::lis_kernel(lis::rank_reduce_strict(seq), engine);
  return build(kernel.row_to_col(), occ.match_row_starts(s));
}

SemiLocalIndex SemiLocalIndex::from_lcs_kernel(
    const Perm& kernel, std::vector<std::int64_t> row_starts) {
  MONGE_CHECK_MSG(kernel.rows() == kernel.cols(),
                  "SemiLocalIndex::from_lcs_kernel requires a square kernel");
  MONGE_CHECK_MSG(!row_starts.empty() && row_starts.front() == 0 &&
                      row_starts.back() == kernel.rows() &&
                      std::is_sorted(row_starts.begin(), row_starts.end()),
                  "SemiLocalIndex::from_lcs_kernel row_starts must ascend "
                  "from 0 to kernel.rows()");
  return build(kernel.row_to_col(), std::move(row_starts));
}

std::int64_t SemiLocalIndex::dominance_count(std::int64_t l,
                                             std::int64_t r_col) const {
  // Decompose rows [l, n) into O(log n) heap nodes; each contributes the
  // number of its columns <= r_col by one binary search.
  std::int64_t count = 0;
  const auto node_hits = [&](std::int64_t k) {
    const auto lo = pool_.begin() + static_cast<std::ptrdiff_t>(
                                        node_off_[static_cast<std::size_t>(k)]);
    const auto hi =
        pool_.begin() +
        static_cast<std::ptrdiff_t>(node_off_[static_cast<std::size_t>(k) + 1]);
    return static_cast<std::int64_t>(
        std::upper_bound(lo, hi, static_cast<std::int32_t>(r_col)) - lo);
  };
  for (std::int64_t a = leaves_ + l, b = leaves_ + n_; a < b;
       a >>= 1, b >>= 1) {
    if (a & 1) count += node_hits(a++);
    if (b & 1) count += node_hits(--b);
  }
  return count;
}

std::int64_t SemiLocalIndex::window_lis(std::int64_t l, std::int64_t r) const {
  // Empty windows (l > r, including r == -1) are legitimate and answer 0 —
  // the same contract as lis::kernel_window_lis.
  if (l > r) return 0;
  MONGE_CHECK_MSG(l >= 0 && r < n_, "window [" << l << ", " << r
                                               << "] out of range for n="
                                               << n_);
  return (r - l + 1) - dominance_count(l, r);
}

std::vector<std::int64_t> SemiLocalIndex::window_lis_batch(
    std::span<const std::pair<std::int64_t, std::int64_t>> windows) const {
  std::vector<std::int64_t> out;
  out.reserve(windows.size());
  for (const auto& [l, r] : windows) out.push_back(window_lis(l, r));
  return out;
}

std::int64_t SemiLocalIndex::substring_lcs(std::int64_t i,
                                           std::int64_t j) const {
  MONGE_CHECK_MSG(lcs_mode(),
                  "substring_lcs requires an LCS-mode index (from_lcs_pair)");
  if (i > j) return 0;
  MONGE_CHECK_MSG(i >= 0 && j < source_rows(),
                  "substring [" << i << ", " << j << "] out of range for |s|="
                                << source_rows());
  // s[i..j]'s matches are the contiguous match window
  // [row_starts[i], row_starts[j+1]); its window-LIS is the LCS.
  return window_lis(row_starts_[static_cast<std::size_t>(i)],
                    row_starts_[static_cast<std::size_t>(j) + 1] - 1);
}

std::vector<std::int64_t> SemiLocalIndex::substring_lcs_batch(
    std::span<const std::pair<std::int64_t, std::int64_t>> substrings) const {
  std::vector<std::int64_t> out;
  out.reserve(substrings.size());
  for (const auto& [i, j] : substrings) out.push_back(substring_lcs(i, j));
  return out;
}

std::int64_t SemiLocalIndex::memory_bytes() const {
  return static_cast<std::int64_t>(pool_.capacity() * sizeof(std::int32_t) +
                                   node_off_.capacity() * sizeof(std::int64_t) +
                                   row_starts_.capacity() *
                                       sizeof(std::int64_t));
}

}  // namespace monge::query
