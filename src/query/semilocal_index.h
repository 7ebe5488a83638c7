// monge::query::SemiLocalIndex — precompute-once, query-millions serving of
// window-LIS and substring-LCS from one persisted seaweed permutation.
//
// Every LisRequest/LcsRequest used to discard the semi-local kernel after a
// single batch of answers and re-run the whole seaweed machinery on the
// next request. The index keeps the implicit semi-local distribution
// instead: building it runs the existing kernel builders
// (lis::lis_kernel / lis::lis_kernel_reference / lis::mpc_lis — all
// bit-identical) exactly ONCE, then layers a range-dominance counting
// structure over the kernel points in the style of the submatrix-maximum
// structures of Gawrychowski–Mozes–Weimann (arXiv 1307.2313), so any
// window query answers online in polylog time without touching the engine
// again. The static-index design point is deliberate: the dynamic-LIS
// lower bounds of Gawrychowski–Janczewski (arXiv 2102.11797) rule out
// polylog per-update maintenance, so "index once, serve many" is the
// scalable regime.
//
// Query identities (src/lis/kernel.h):
//   LIS(seq[l..r])   = (r − l + 1) − KΣ(l, r + 1)
//   KΣ(l, r + 1)     = #{kernel points (row, col) : row >= l, col <= r}
// The dominance count is served by a merge tree (a merge-sort tree over
// the kernel rows, each node holding the sorted columns of its row range,
// flattened into one contiguous pool): O(n log n) space built in
// O(n log n), O(log² n) per query — against O(n) per query for the
// kernel-scan kernel_window_lis, and a full kernel rebuild per request
// for the pre-index Solver flow (bench/bench_query.cpp measures the gap).
//
// Substring-LCS rides the same structure. The Hunt–Szymanski match
// sequence of (s, t) is ordered (i asc, j desc), so the matches of any
// s-substring s[i..j] are one CONTIGUOUS window of it, and
//   LCS(s[i..j], t) = window-LIS of the match window —
// the decreasing-j-within-a-row trick makes strictly increasing
// subsequences pick at most one match per s row, a fact that is oblivious
// to which rows the window keeps. An LCS-mode index stores the kernel of
// the rank-reduced match sequence plus the |s|+1 row-start offsets
// (lcs::HsOccurrences::match_row_starts) that translate substring
// endpoints to match-window endpoints.
//
// Immutability & sharing: an index never changes after construction and
// every query member is const — concurrent queries from any number of
// threads are safe. The API tier hands indexes around as
// monge::QueryHandle (api/request.h), a shared_ptr plus the index's
// process-unique id(); the SolverService keeps handles in its digest-keyed
// result cache, so identical BuildIndexRequests dedupe onto one shared
// index.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "monge/permutation.h"

namespace monge {
class SeaweedEngine;
}

namespace monge::query {

class SemiLocalIndex {
 public:
  /// Window-LIS index of a sequence (duplicates allowed; strict LIS):
  /// rank-reduces, builds the semi-local kernel through ONE
  /// lis::lis_kernel run on a default-options engine that lives for this
  /// call only, and erects the merge tree. O(n log² n) build, O(n log n)
  /// space retained.
  ///
  /// @param seq the sequence to serve window-LIS queries over.
  /// @return the immutable index.
  static SemiLocalIndex from_sequence(std::span<const std::int64_t> seq);

  /// Same, with the kernel build running on the caller's engine (reusing
  /// its arena and striping across its pool when one is configured).
  ///
  /// @param seq the sequence to serve window-LIS queries over.
  /// @param engine the engine the kernel build runs on.
  /// @return the immutable index.
  static SemiLocalIndex from_sequence(std::span<const std::int64_t> seq,
                                      SeaweedEngine& engine);

  /// Window-LIS index from an already-built kernel (lis::lis_kernel and
  /// friends), for callers that ran the seaweed product themselves — the
  /// Solver's MpcSim route hands lis::mpc_lis kernels through here.
  ///
  /// @param kernel an n×n kernel sub-permutation (validated square).
  /// @return the immutable index.
  static SemiLocalIndex from_kernel(const Perm& kernel);

  /// Substring-LCS index of the pair (s, t): serves LCS(s[i..j], t) for
  /// every substring of s against the fixed text t. Builds the
  /// Hunt–Szymanski match sequence (its size is the indexed n — worst
  /// case |s|·|t|, the paper's m = n^{1+δ} regime; must be
  /// <= kSeaweedEngineMaxN), the kernel of its rank reduction, and the
  /// row-start translation table. The kernel build runs on the caller's
  /// engine (reusing its arena and striping across its pool when one is
  /// configured).
  ///
  /// @param s the query side; substrings of s are the query domain.
  /// @param t the fixed text.
  /// @param engine the engine the kernel build runs on.
  /// @return the immutable index.
  static SemiLocalIndex from_lcs_pair(std::span<const std::int64_t> s,
                                      std::span<const std::int64_t> t,
                                      SeaweedEngine& engine);

  /// Substring-LCS index from a pre-built match-sequence kernel plus the
  /// row-start offsets (lcs::HsOccurrences::match_row_starts(s)): the
  /// Solver's MpcSim route builds the kernel on the cluster and adapts it
  /// here. row_starts must have source_rows + 1 ascending entries ending
  /// at kernel.rows().
  ///
  /// @param kernel the kernel of the rank-reduced match sequence.
  /// @param row_starts |s| + 1 offsets; s-row i's matches are
  ///     [row_starts[i], row_starts[i+1]) in the match sequence.
  /// @return the immutable index.
  static SemiLocalIndex from_lcs_kernel(const Perm& kernel,
                                        std::vector<std::int64_t> row_starts);

  /// LIS(seq[l..r]) in O(log² n) — bit-identical to
  /// lis::kernel_window_lis on the same kernel (pinned against the
  /// lis::lis_window_batch patience oracle in tests/test_query.cpp).
  ///
  /// @param l window start (inclusive).
  /// @param r window end (inclusive); l > r is a legitimate empty window
  ///     and answers 0, even with endpoints outside [0, size()).
  /// @return the LIS length of seq[l..r].
  std::int64_t window_lis(std::int64_t l, std::int64_t r) const;

  /// One window_lis per entry, served online (no offline sweep, no state):
  /// O(q log² n) total.
  ///
  /// @param windows (l, r) inclusive windows; empty (l > r) windows
  ///     answer 0.
  /// @return one LIS length per window, in input order.
  std::vector<std::int64_t> window_lis_batch(
      std::span<const std::pair<std::int64_t, std::int64_t>> windows) const;

  /// LCS(s[i..j], t) in O(log² m), m the match count — LCS mode only
  /// (throws otherwise). Matches lcs::lcs_dp on the substring.
  ///
  /// @param i substring start in s (inclusive).
  /// @param j substring end in s (inclusive); i > j is a legitimate empty
  ///     substring and answers 0, even with endpoints outside
  ///     [0, source_rows()).
  /// @return the LCS length of (s[i..j], t).
  std::int64_t substring_lcs(std::int64_t i, std::int64_t j) const;

  /// One substring_lcs per entry, in input order — LCS mode only.
  ///
  /// @param substrings (i, j) inclusive substrings of s; empty (i > j)
  ///     entries answer 0.
  /// @return one LCS length per substring, in input order.
  std::vector<std::int64_t> substring_lcs_batch(
      std::span<const std::pair<std::int64_t, std::int64_t>> substrings) const;

  /// The full-range answer in O(1): LIS of the whole sequence, or (in LCS
  /// mode) LCS(s, t) — n − point_count().
  std::int64_t full_answer() const { return n_ - points_; }

  /// Indexed length n: the sequence length, or the match-sequence length
  /// in LCS mode.
  std::int64_t size() const { return n_; }
  /// Kernel points retained by the merge tree.
  std::int64_t point_count() const { return points_; }
  /// True for from_lcs_pair / from_lcs_kernel indexes.
  bool lcs_mode() const { return !row_starts_.empty(); }
  /// |s| in LCS mode (the substring query domain), 0 otherwise.
  std::int64_t source_rows() const {
    return lcs_mode() ? static_cast<std::int64_t>(row_starts_.size()) - 1 : 0;
  }
  /// Process-unique id, never reused — the API tier's digest/cache key
  /// component for query requests against this index.
  std::uint64_t id() const { return id_; }
  /// Retained heap footprint of the dominance structure, in bytes.
  std::int64_t memory_bytes() const;

 private:
  SemiLocalIndex() = default;

  /// Shared tail of every factory: takes the kernel's row→col array and
  /// builds the flattened merge tree.
  static SemiLocalIndex build(std::span<const std::int32_t> kernel_rows,
                              std::vector<std::int64_t> row_starts);

  /// KΣ(l, r + 1): kernel points with row >= l and col <= r_col, by
  /// decomposing [l, n) into O(log n) merge-tree nodes and binary-searching
  /// each node's sorted column list.
  std::int64_t dominance_count(std::int64_t l, std::int64_t r_col) const;

  std::int64_t n_ = 0;       ///< indexed rows (= kernel rows).
  std::int64_t points_ = 0;  ///< kernel points in the tree.
  std::int64_t leaves_ = 0;  ///< merge-tree leaf count (bit_ceil(n_)).
  std::uint64_t id_ = 0;
  /// Flattened merge tree: node k (1-indexed heap order, leaves_ leaves)
  /// owns pool_[node_off_[k], node_off_[k+1]), its row range's columns in
  /// ascending order.
  std::vector<std::int32_t> pool_;
  std::vector<std::int64_t> node_off_;
  /// LCS mode: |s| + 1 match-sequence offsets; empty in window-LIS mode.
  std::vector<std::int64_t> row_starts_;
};

}  // namespace monge::query
