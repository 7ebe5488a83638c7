// Core-sparse representation of full permutation matrices, after
// Gorbachev et al., "Core-Sparse Monge Matrix Multiplication" (PAPERS.md,
// arXiv 2408.04613).
//
// The *core* of a full permutation P are its non-trivial seaweeds: the rows
// r with P(r) != r, i.e. the points off the main diagonal. Real workloads
// (near-identical strings through the Hunt–Szymanski reduction, LIS of
// almost-sorted feeds) produce permutations whose core is a tiny fraction
// of n:
//
//   * CoreSparsePerm stores only the core points (sorted by row) plus the
//     implied identity runs between them — O(core) space, lossless
//     to_dense / from_dense round-trip, O(1) core_size() probe.
//   * core_size_of and core_exceeds count the core of a dense row->col
//     array; core_exceeds stops at the first element past its budget.
//
// The core-sparse product itself lives in SeaweedEngine: a probed node
// whose core density is at or below SeaweedEngineOptions::
// core_density_cutoff is cut at boundaries clean for both inputs into
// independent diagonal blocks, streamed over the dense spans in arena
// scratch. core_exceeds is its density probe. The engine is fuzzed against
// a core_density_cutoff = 0 engine, which never probes
// (tests/test_core_sparse.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace monge {

/// One maximal run of fixed points (p[i] == i for start <= i < start+len)
/// between core points — the boundary run-length metadata of the
/// representation, recovered from the gaps of the sorted core rows.
struct IdentityRun {
  /// First row of the run.
  std::int32_t start = 0;
  /// Number of consecutive fixed rows.
  std::int32_t len = 0;
  friend bool operator==(const IdentityRun&, const IdentityRun&) = default;
};

/// A full permutation of [0, n) stored as its core: the points with
/// p[row] != row, sorted by row. Space is O(core_size); the identity
/// permutation of any n is zero bytes of payload.
class CoreSparsePerm {
 public:
  /// Empty (n = 0) permutation.
  CoreSparsePerm() = default;

  /// Builds the core-sparse form of a dense row->col array. Validates that
  /// `p` is a full permutation of [0, p.size()) and throws std::logic_error
  /// otherwise. O(n) time, O(core) result space.
  ///
  /// @param p dense row->col array of a full permutation.
  /// @return the equivalent core-sparse representation.
  static CoreSparsePerm from_dense(std::span<const std::int32_t> p);

  /// The n×n identity — the canonical zero-core permutation.
  ///
  /// @param n matrix dimension; must be >= 0.
  /// @return a CoreSparsePerm with core_size() == 0.
  static CoreSparsePerm identity(std::int64_t n);

  /// Lossless inverse of from_dense: materializes the dense row->col array.
  ///
  /// @return dense row->col array of size n().
  std::vector<std::int32_t> to_dense() const;

  /// Allocation-free to_dense.
  ///
  /// @param out receives the dense row->col array; out.size() must be n().
  void to_dense_into(std::span<std::int32_t> out) const;

  /// @return the matrix dimension n.
  std::int64_t n() const { return n_; }

  /// The cheap density probe: number of non-fixed rows. O(1).
  ///
  /// @return the number of core points.
  std::int64_t core_size() const {
    return static_cast<std::int64_t>(rows_.size());
  }

  /// @return core_size() / n, or 0.0 when n == 0 (the identity convention —
  ///     an empty permutation has nothing off-diagonal).
  double core_density() const {
    return n_ == 0 ? 0.0
                   : static_cast<double>(core_size()) / static_cast<double>(n_);
  }

  /// @return the core rows, sorted ascending.
  std::span<const std::int32_t> core_rows() const { return rows_; }

  /// @return the core columns, parallel to core_rows() (core_cols()[i] is
  ///     the image of core_rows()[i]).
  std::span<const std::int32_t> core_cols() const { return cols_; }

  /// The boundary run-length metadata: the maximal identity runs between
  /// core points, in row order. Their total length is n - core_size().
  ///
  /// @return the runs, possibly empty (a full-core permutation has none).
  std::vector<IdentityRun> identity_runs() const;

  friend bool operator==(const CoreSparsePerm&,
                         const CoreSparsePerm&) = default;

 private:
  std::int64_t n_ = 0;
  std::vector<std::int32_t> rows_;
  std::vector<std::int32_t> cols_;
};

/// Number of non-fixed rows of a dense row->col array — Perm::core_size()
/// for raw spans. O(n).
///
/// @param p dense row->col array (need not be validated).
/// @return the count of indices with p[i] != i.
std::int64_t core_size_of(std::span<const std::int32_t> p);

/// Early-exit density probe: true iff `p` has more than `limit` non-fixed
/// rows. Stops scanning at the (limit+1)-th core element, so probing a
/// dense random permutation against a small cutoff is O(limit), not O(n).
///
/// @param p dense row->col array.
/// @param limit inclusive core budget; negative always exceeds (even n=0,
///   since core size >= 0 > limit).
/// @return whether core_size_of(p) > limit.
bool core_exceeds(std::span<const std::int32_t> p, std::int64_t limit);

}  // namespace monge
