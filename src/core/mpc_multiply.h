// Theorem 1.1: O(1)-round fully-scalable deterministic MPC algorithm for
// implicit unit-Monge matrix multiplication, on the simulated cluster.
//
// Structure (§3):
//   1. Split PA into H column blocks and PB into H row blocks, compact
//      empty rows/columns (one sort each, Lemmas 2.3/2.5), and recurse; the
//      recursion is executed iteratively level by level, all subproblems of
//      a level in parallel.
//   2. Leaves (subproblem size <= G) are solved machine-locally with the
//      sequential seaweed algorithm.
//   3. The combine re-expands the H child results into the parent index
//      space (colored union), computes opt(·, jG) / opt(iG, ·) on grid
//      lines via the flattened-tree descent — each descent phase is one
//      batched offline rank search (Lemma 2.6) over one tree level's
//      unsorted key array; the per-child δ increment collapses to
//      RANK(node, r, col) − RANK(node, q, col) — and finishes the crossed
//      G×G subgrids locally (§3.3, shared solve_box).
//
// Knobs reproduce the paper's baselines:
//   split_h = 2, tree_fanout large  -> the §1.4 "warmup": Θ(log n) rounds.
//   split_h = 2, tree_fanout = 2    -> "CHS23-profile": Θ(log² n) rounds.
//   paper schedule (H = n^{(1−δ)/10}) -> Θ((δ/(1−δ))²) rounds, flat in n.
//
// The control plane (which line/box lives where, interval metadata) is
// orchestrated by the simulation driver; all point data, tree indices,
// rank queries and result routing move through counted, space-checked
// messages. See DESIGN.md for the exact list of shortcuts.
#pragma once

#include <cstdint>

#include "monge/permutation.h"
#include "mpc/cluster.h"

namespace monge::core {

struct MpcMultiplyOptions {
  /// Split arity H >= 2. 0 = paper schedule max(2, round(n^{(1−δ)/10}))
  /// with δ = log m / log n. Runs as min(H, n) for the batch's largest n.
  std::int64_t split_h = 0;
  /// Merge-tree fanout (>= 2) for the grid-line descent. 0 = split H.
  /// Runs as min(fanout, n + 1) for the batch's largest n.
  std::int64_t tree_fanout = 0;
  /// Grid spacing G (also the leaf threshold). 0 = ceil(n / m), the
  /// paper's G = n^{1−δ}.
  std::int64_t box_g = 0;
};

/// Throws InvalidRequestError unless split_h and tree_fanout are each 0
/// (the paper schedule) or at least 2, and box_g is at least 0. An arity of
/// 1 never shrinks a subproblem or widens a tree node, so the multiply
/// would never end. Every MPC multiply entry, mpc_lis, mpc_lcs and the
/// Solver call this before their first round.
void validate_options(const MpcMultiplyOptions& options);

struct MpcMultiplyReport {
  std::int64_t rounds = 0;           // cluster rounds consumed by this call
  std::int64_t levels = 0;           // recursion depth
  std::int64_t split_h = 2;          // resolved H, as it ran (capped)
  std::int64_t tree_fanout = 2;      // resolved descent fanout (capped)
  std::int64_t box_g = 0;            // resolved G
  std::int64_t lines = 0;            // grid lines processed (all levels)
  std::int64_t crossed_boxes = 0;    // §3.3 subgrid instances
  std::int64_t interesting_points = 0;
  std::int64_t rank_queries = 0;     // batched rank-search queries issued
  std::int64_t max_machine_words = 0;
};

/// PC = PA ⊡ PB for full n×n permutations (Theorem 1.1). Inputs and output
/// are host-side (input loading / output reading are free in the model);
/// all intermediate state lives on the cluster.
Perm mpc_unit_monge_multiply(mpc::Cluster& cluster, const Perm& a,
                             const Perm& b,
                             const MpcMultiplyOptions& options = {},
                             MpcMultiplyReport* report = nullptr);

/// Batch variant: many independent products share every round (the level
/// structure of §3.1 is indexed by subproblem anyway). This is what the
/// LIS divide-and-conquer (Theorem 1.3) uses so that all merges of a level
/// cost one combine. Sizes may differ between pairs.
std::vector<Perm> mpc_unit_monge_multiply_batch(
    mpc::Cluster& cluster, const std::vector<std::pair<Perm, Perm>>& pairs,
    const MpcMultiplyOptions& options = {},
    MpcMultiplyReport* report = nullptr);

/// Option presets reproducing the paper's comparison rows (resolved for a
/// given input size and cluster):
///  - paper_profile: the Theorem 1.1 schedule (H = max(2, n^{(1−δ)/10})).
///  - warmup_profile: §1.4 warmup — two-way splits with a flattened search
///    tree; Θ(log n) rounds per multiply.
///  - chs23_profile: two-way splits *and* a binary search tree — the
///    unflattened [CHS23]-style profile, Θ(log² n) rounds per multiply.
MpcMultiplyOptions paper_profile(std::int64_t n, const mpc::Cluster& cluster);
MpcMultiplyOptions warmup_profile(std::int64_t n, const mpc::Cluster& cluster);
MpcMultiplyOptions chs23_profile(std::int64_t n, const mpc::Cluster& cluster);

}  // namespace monge::core
