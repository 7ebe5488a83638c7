// Theorem 1.2, sequential version: subunit-Monge multiplication of
// sub-permutation matrices by reduction to the permutation case (§4.1).
//
// Given PA (rA×n2) and PB (n2×cB):
//  1. delete empty rows of PA and empty columns of PB (they stay empty in
//     the product),
//  2. extend the compacted PA' (n1×n2) with n2−n1 fresh rows *above* it,
//     covering PA's empty columns in increasing order, producing a full
//     permutation P'A; symmetrically extend PB' with n2−n3 fresh columns
//     *to the right*, covering PB's empty rows,
//  3. multiply, and read PC out of the bottom-left n1×n3 block
//     ([∗ ∗; PC ∗] in the paper's display); the content of the ∗ blocks is
//     irrelevant as long as P'A, P'B are permutations.
//
// `subunit_multiply` runs this directly on the engine, as a batch of one
// through SeaweedEngine::subunit_multiply_batch_into: the compact/extend
// arithmetic happens in arena scratch and the product is read straight out
// of the core solve — no padded Perm temporaries. The explicit padding
// (SubunitPadding / subunit_pad_pair / subunit_unpad) is kept both as the
// legacy reference path (`subunit_multiply_padded`, differential-fuzzed
// against the direct path) and for callers that must materialize the
// padded permutations anyway — the MPC reduction in core/mpc_subperm
// feeds them to the cluster multiply.
#pragma once

#include <utility>
#include <vector>

#include "monge/permutation.h"

namespace monge {

class SeaweedEngine;

/// PC = PA ⊡ PB for sub-permutations (Lemma 2.2 guarantees PC exists and is
/// a sub-permutation). O((n2) log(n2)) on top of the compaction. Runs on
/// the caller's engine (reusing its arena, and its thread pool if
/// configured); deterministic — bit-identical to subunit_multiply_padded
/// for every thread count. One subunit_multiply_batch_into call, so it
/// advances engine.subunit_batch_calls() by exactly 1.
///
/// @param a sub-permutation PA (rA×n2).
/// @param b sub-permutation PB (n2×cB) with b.rows() == a.cols().
/// @param engine the engine the core solve runs on; not thread-safe, so
///     the caller must not share it across concurrent calls.
/// @return the product sub-permutation (rA×cB).
Perm subunit_multiply(const Perm& a, const Perm& b, SeaweedEngine& engine);

/// The §4.1 padding layout of one pair: which rows of A / columns of B
/// survive the compaction, and the shape bookkeeping needed to read the
/// product back out of the padded core.
struct SubunitPadding {
  std::vector<std::int32_t> rows_a;  ///< surviving original rows of PA
  std::vector<std::int32_t> cols_b;  ///< surviving original columns of PB
  std::int64_t shift = 0;            ///< n2 − n1
  std::int64_t n3 = 0;               ///< \#surviving columns of PB
  std::int64_t out_rows = 0;         ///< rows of the product (= rows of PA)
  std::int64_t out_cols = 0;         ///< columns of the product (= cols of PB)
  bool empty = false;  ///< product is all-zero; no core multiply needed
};

/// Materializes the padded full permutations P'A, P'B (both n2×n2) and the
/// layout needed to unpad. Returns empty Perms (and sets info.empty) when
/// the product is trivially all-zero. Pure layout arithmetic: no engine,
/// no arena, deterministic.
///
/// @param a sub-permutation PA (rA×n2).
/// @param b sub-permutation PB (n2×cB) with b.rows() == a.cols().
/// @param info receives the padding layout; safe to reuse one struct
///     across pairs (it is reset on entry).
/// @return the padded full permutations (P'A, P'B), each n2×n2.
std::pair<Perm, Perm> subunit_pad_pair(const Perm& a, const Perm& b,
                                       SubunitPadding& info);

/// Reads PC out of the bottom-left n1×n3 block of the padded product.
///
/// @param info the layout subunit_pad_pair produced for the pair.
/// @param padded_product P'A ⊡ P'B (n2×n2 full permutation).
/// @return the product sub-permutation (info.out_rows × info.out_cols).
Perm subunit_unpad(const SubunitPadding& info, const Perm& padded_product);

/// The legacy reduction through explicitly padded Perms, kept as the
/// reference the direct engine path is differential-fuzzed against. The
/// padded core multiply runs on the caller's engine (arena reused across
/// calls; results bit-identical for every thread count).
///
/// @param a sub-permutation PA (rA×n2).
/// @param b sub-permutation PB (n2×cB) with b.rows() == a.cols().
/// @param engine the engine the padded core multiply runs on.
/// @return the product sub-permutation (rA×cB).
Perm subunit_multiply_padded(const Perm& a, const Perm& b,
                             SeaweedEngine& engine);

}  // namespace monge
