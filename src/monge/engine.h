// Arena-backed sequential/parallel seaweed multiplication engine.
//
// SeaweedEngine runs Tiskin's divide-and-conquer unit-Monge multiplication
// (the same split/compact/combine recursion as seaweed.h) over index ranges
// into a flat scratch arena that is sized exactly once per top-level call:
// after the first multiply of a given size the recursion performs zero heap
// allocations. The budget is a pure function of the size and the knobs,
// computed in O(log n) wherever it is needed (the top-level sizing, and
// every fork carving its two halves' slices), so the engine caches
// nothing between calls. Below a configurable cutoff it switches to a dense
// distribution-matrix base case (the arena version of multiply_naive), and
// above a configurable grain size it forks the two independent lo/hi
// subproblems onto a ThreadPool (fork-join whose join takes back or waits
// for its own fork, so nested forks cannot deadlock). The per-node combine
// is the steady-ant walk dispatched through steady_ant_simd.h (blocked
// descent + mask-select resolution on the widest ISA the host offers;
// MONGE_FORCE_SCALAR pins it back to the scalar walk). The result is
// bit-identical to seaweed_multiply_reference_raw for every input: PA ⊡ PB
// is unique and every combine path reproduces the same bits.
//
// Input-size limit: the combine packs each point as (coord << 1) | color
// in one int32, so every dimension a public entry point accepts (n for the
// full-permutation paths; a.size(), b.size() and b_cols for the subunit
// paths) must be <= kSeaweedEngineMaxN = 2^30. Larger inputs throw a clear
// std::logic_error up front — the limit is checked at every public entry
// point, never silently truncated into UB.
//
// Knobs (SeaweedEngineOptions):
//   * base_case_cutoff — subproblems of size <= cutoff are solved by the
//     dense (min,+) base case instead of recursing. The dense solve is
//     O(k^3) but branch-light and allocation-free, so it wins for small k;
//     the default is tuned on bench/seq_multiply (see README). Set to 1 to
//     force the pure recursion (useful in tests). Must be in [1, 256] —
//     the cubic base case turns pathological far below the upper bound —
//     and construction throws on out-of-range values instead of silently
//     rewriting the knob.
//   * parallel_grain — the least work handed to another thread.
//     Subproblems larger than this fork their lo/hi halves onto the pool;
//     a batch is cut into contiguous stripes whose entries' summed sizes
//     reach it, and only stripes fork. Smaller work runs sequentially on
//     the calling thread. Must be >= 2 (a size-1 subproblem cannot fork;
//     construction throws below that). Stripe cuts depend on the entry
//     sizes and the grain alone, never on the thread count, and scheduling
//     never affects results (forks write disjoint arena slices), only
//     wall-clock.
//   * pool — optional ThreadPool; nullptr means fully sequential. The
//     engine never owns the pool.
//
// The engine has one raw batch entry per product kind, plus a Perm entry:
//   * multiply — a validating Perm-in/Perm-out full product (a batch of
//     one), for callers that hold Perms,
//   * multiply_batch_into — many independent full products behind one
//     arena sizing, solved back-to-back or striped across the pool (the
//     MPC simulator's machine-local leaf solve issues one call per machine
//     and level), and
//   * subunit_multiply_batch_into — the §4.1 sub-permutation reduction run
//     directly on raw row->col arrays, with the compact/extend arithmetic
//     in arena scratch instead of padded Perm temporaries (the level-order
//     LIS kernel issues one call per merge level).
// A single raw product is a batch of one.
//
// Representation-adaptive dispatch: every entry point routes its recursion
// nodes through a density probe (see core_density_cutoff below). Nodes
// whose inputs both have core density (fraction of rows with p[r] != r)
// at or below the cutoff are cut at boundaries clean for both inputs into
// independent diagonal blocks — the core-sparse decomposition of Gorbachev
// et al. (arXiv 2408.04613), streamed over the dense spans — where
// one-sided-identity blocks are copied verbatim and only interacting
// blocks recurse densely (forking above the grain like any node).
// Near-identical inputs (tiny cores) therefore cost near the core size
// instead of n log n, while dense random inputs pay only the early-exit
// probe. An engine constructed with core_density_cutoff = 0 never probes
// and is the pure dense differential oracle the adaptive path is fuzzed
// against. Dispatch never affects results: the product permutation is
// unique, so every path produces the same bits.
//
// An engine instance is NOT thread-safe (it owns one arena); use one
// engine per thread. Every engine has an owner: a Solver owns one, the MPC
// leaf rounds build one per machine (its machine-local memory), and free
// functions that multiply take the engine as an argument.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "monge/permutation.h"

namespace monge {

class ThreadPool;

/// Largest size any SeaweedEngine entry point accepts, in every dimension
/// (n for full permutations; rows, inner size and b_cols for the subunit
/// paths). The steady-ant combine packs each point as (coord << 1) | color
/// in one int32, which overflows past 2^30; inputs beyond the limit throw
/// std::logic_error at the public entry points.
inline constexpr std::int64_t kSeaweedEngineMaxN = std::int64_t{1} << 30;

/// Tuning knobs for a SeaweedEngine. Fixed and validated at construction
/// (out-of-range values throw std::logic_error rather than being silently
/// rewritten, so options() always reports exactly what the caller chose);
/// see the file comment for how each knob trades off. None of them affect
/// results — only wall-clock and arena footprint.
struct SeaweedEngineOptions {
  /// Subproblems of size <= cutoff use the dense O(k^3) base case.
  /// Must be in [1, 256]; validated at construction.
  std::int64_t base_case_cutoff = 8;
  /// The least work handed to another thread of `pool` (when set): a
  /// subproblem larger than this forks its halves, and a batch forks only
  /// between stripes of entries whose sizes sum to at least this. Must be
  /// >= 2; validated at construction.
  std::int64_t parallel_grain = 1 << 13;
  /// Optional fork-join pool; nullptr runs fully sequential. Borrowed,
  /// never owned: the pool must outlive the engine's calls that use it.
  ThreadPool* pool = nullptr;
  /// Density-adaptive dispatch knob: recursion nodes of size >=
  /// core_probe_min_n probe both inputs' core density (fraction of
  /// non-fixed rows, measured by an early-exit scan that stops as soon as
  /// the budget is blown). When BOTH densities are <= the cutoff, the node
  /// is cut at boundaries clean for both inputs into independent diagonal
  /// blocks: one-sided-identity blocks are copied, only interacting blocks
  /// recurse densely (the file comment names the decomposition).
  /// Must be in [0, 1]; 0 disables probing entirely, which makes the
  /// engine the pure dense differential oracle. Like every knob it never
  /// affects results — only which path computes them and how fast.
  double core_density_cutoff = 0.25;
  /// Smallest recursion node the density probe considers; below it the
  /// dense recursion is already cheap and probing is pure overhead. Must
  /// be >= 2; validated at construction.
  std::int64_t core_probe_min_n = 64;
};

/// Counters of the engine's representation decisions (the
/// core_density_cutoff dispatch). Snapshot via
/// SeaweedEngine::representation_stats(); subtract two snapshots for a
/// per-call delta. Totals depend only on the inputs and the knobs — never
/// on scheduling — so they are deterministic across thread counts.
struct RepresentationStats {
  /// Probed nodes that stayed dense: core density above the cutoff, or no
  /// boundary clean for both inputs (the node is one indivisible block).
  std::int64_t dense_nodes = 0;
  /// Probed nodes that took the core-sparse block decomposition.
  std::int64_t core_sparse_nodes = 0;
  /// Decomposed blocks where both cores interact, solved by the dense
  /// recursion on shifted copies.
  std::int64_t blocks_dense = 0;
  /// Decomposed blocks where one input restricts to the identity, copied
  /// verbatim (id ⊡ X = X ⊡ id = X).
  std::int64_t blocks_copied = 0;

  friend bool operator==(const RepresentationStats&,
                         const RepresentationStats&) = default;

  /// Member-wise difference, for before/after per-call deltas.
  friend RepresentationStats operator-(const RepresentationStats& x,
                                       const RepresentationStats& y) {
    return {x.dense_nodes - y.dense_nodes,
            x.core_sparse_nodes - y.core_sparse_nodes,
            x.blocks_dense - y.blocks_dense,
            x.blocks_copied - y.blocks_copied};
  }
};

namespace detail {

/// Lock-free tallies behind SeaweedEngine::representation_stats(): forked
/// pool workers increment them concurrently, so they are atomics. Relaxed
/// ordering suffices — the fork-join barrier sequences every increment
/// before any snapshot the owning thread takes.
struct SeaweedRepCounters {
  std::atomic<std::int64_t> dense_nodes{0};
  std::atomic<std::int64_t> core_sparse_nodes{0};
  std::atomic<std::int64_t> blocks_dense{0};
  std::atomic<std::int64_t> blocks_copied{0};
};

}  // namespace detail

/// Borrowed view of a raw row->col index array. Full permutations for the
/// multiply entry points; the subunit entry points additionally allow kNone
/// (empty row) entries.
using PermView = std::span<const std::int32_t>;

/// One batch entry: the product PA ⊡ PB of pair.first and pair.second.
using PermPairView = std::pair<PermView, PermView>;

/// One batched subunit product: PC = PA ⊡ PB for sub-permutation row->col
/// arrays (kNone = empty row). `a` is a.size() × b.size(), `b` is
/// b.size() × b_cols.
struct SubunitPairView {
  PermView a;
  PermView b;
  std::int64_t b_cols = 0;
};

class SeaweedEngine {
 public:
  /// Constructs an engine with the given knobs (validated as documented on
  /// SeaweedEngineOptions; out-of-range values throw std::logic_error).
  /// The arena starts empty and grows monotonically across calls;
  /// construction itself does not allocate scratch.
  ///
  /// @param options tuning knobs; copied, fixed for the engine's lifetime.
  explicit SeaweedEngine(SeaweedEngineOptions options = {});

  SeaweedEngine(const SeaweedEngine&) = delete;
  SeaweedEngine& operator=(const SeaweedEngine&) = delete;

  /// PC = PA ⊡ PB for full permutations, validated in every build (use
  /// subunit_multiply for sub-permutations); solved as a batch of one
  /// through multiply_batch_into. Deterministic: bit-identical to
  /// seaweed_multiply_reference_raw for every input, knob choice and
  /// thread count.
  ///
  /// @param a full permutation matrix PA.
  /// @param b full permutation matrix PB with b.rows() == a.cols().
  /// @return the product permutation PA ⊡ PB.
  Perm multiply(const Perm& a, const Perm& b);

  /// Batched products PC_i = PA_i ⊡ PB_i on raw row->col arrays; a single
  /// product is a batch of one. The inputs are taken on trust in release
  /// builds: each must be a full permutation of [0, n_i), which only debug
  /// builds verify (multiply validates Perms in every build). Sizes are
  /// always checked against kSeaweedEngineMaxN.
  ///
  /// The arena is sized ONCE for the whole batch, then the pairs are
  /// solved back-to-back. With a ThreadPool configured, the batch is cut
  /// into contiguous stripes: a stripe closes once its pairs' summed n
  /// reaches parallel_grain, and a tail short of it joins the last stripe.
  /// Each stripe solves its pairs back-to-back and the stripes fork-join
  /// via invoke_two (so batches may be issued from pool workers). The
  /// arena holds the largest pair's budget for a batch of one stripe (or
  /// without a pool), else the sum, over stripes, of each stripe's largest
  /// budget. Results are bit-identical to seaweed_multiply_reference_raw
  /// for every pair, thread count and grain. Pairs may have mixed sizes,
  /// including 0 and 1. This is what the MPC simulator's machine-local
  /// leaf solve calls — one engine call per machine and level.
  ///
  /// @param pairs the (PA_i, PB_i) inputs; each pair's views must have
  ///     equal size and be full permutations.
  /// @param outs one output span per pair, outs[i].size() ==
  ///     pairs[i].first.size(); outputs must not alias any input.
  void multiply_batch_into(std::span<const PermPairView> pairs,
                           std::span<const std::span<std::int32_t>> outs);

  /// Batched subunit products PC_i = PA_i ⊡ PB_i (Theorem 1.2 through the
  /// §4.1 reduction) on sub-permutation row->col arrays (kNone = empty
  /// row); a single product is a batch of one. Entry i's `a` has
  /// a.size() rows and b.size() columns, its `b` has b.size() rows and
  /// b_cols columns. The compact/extend arithmetic runs entirely in the
  /// arena — no Perm construction and no heap temporaries — and each core
  /// solve reuses its padded-PA slot as its output. Sub-permutation
  /// validity is checked in every build (it falls out of the compaction
  /// pass), and every dimension against kSeaweedEngineMaxN.
  ///
  /// Same arena and striping contract as multiply_batch_into, with a
  /// pair's size being its inner dimension b.size(): sequentially, or
  /// when the batch forms one stripe, the arena is sized once for the
  /// largest pair and the pairs are solved back-to-back; with a ThreadPool
  /// configured, stripes whose summed sizes reach parallel_grain fork-join
  /// via invoke_two on disjoint carved slices, and the arena holds the
  /// sum, over stripes, of each stripe's largest budget (a pair's own core
  /// solve forks only when it exceeds parallel_grain).
  ///
  /// Deterministic: bit-identical to subunit_multiply_padded's unpadded
  /// result for every pair, thread count and batch shape. Pairs may have
  /// mixed and degenerate shapes (empty a/b, b_cols == 0, all-kNone rows).
  /// This is what the level-order LIS kernel issues: one call per merge
  /// level.
  ///
  /// @param pairs the (PA_i, PB_i, b_cols_i) inputs; b_cols_i >= 0.
  /// @param outs one output span per pair, outs[i].size() ==
  ///     pairs[i].a.size(); receives out[r] = product column of row r, or
  ///     kNone. Outputs must not alias any input.
  void subunit_multiply_batch_into(
      std::span<const SubunitPairView> pairs,
      std::span<const std::span<std::int32_t>> outs);

  /// @return the engine's knobs, exactly as passed at construction (the
  ///     constructor validates instead of clamping, so the effective
  ///     values never differ from the requested ones).
  const SeaweedEngineOptions& options() const { return options_; }

  /// Number of subunit_multiply_batch_into calls this engine has served
  /// to completion — calls that threw (validation or solve) are not
  /// counted. Every subunit product the engine computes goes through it:
  /// one call per LIS-kernel merge level, and one per single product
  /// (subunit_multiply, a Solver kSubunit request). For tests asserting
  /// the call structure.
  ///
  /// @return the lifetime completed batched-subunit call count.
  std::int64_t subunit_batch_calls() const { return subunit_batch_calls_; }

  /// Snapshot of the representation-decision counters, accumulated over
  /// the engine's lifetime (monotone — subtract two snapshots for the
  /// delta of one call; RepresentationStats::operator- does exactly that).
  /// Deterministic for a given input sequence and knob set.
  ///
  /// @return the current counter values.
  RepresentationStats representation_stats() const;

  /// Current arena capacity in bytes (grows monotonically; for tests and
  /// benchmarks).
  ///
  /// @return the scratch buffer size in bytes, including alignment slack.
  std::size_t arena_capacity() const { return buffer_.size(); }

  /// Exact number of scratch bytes a full-permutation multiply of size n
  /// will reserve (for tests and benchmarks). A pure function of n and
  /// options(): O(log n), no allocation, no state.
  ///
  /// @param n problem size (rows of PA).
  /// @return the arena budget in bytes for one size-n core solve.
  std::size_t arena_bytes_for(std::int64_t n) const;

 private:
  /// Grows the buffer to hold at least `bytes` scratch (plus alignment
  /// slack) and returns the 64-byte-aligned usable range.
  std::span<std::byte> arena_span(std::size_t bytes);

  SeaweedEngineOptions options_;
  std::vector<std::byte> buffer_;
  std::int64_t subunit_batch_calls_ = 0;
  /// Representation-decision tallies; mutable because counting decisions
  /// does not change observable products, and incremented from forked
  /// workers during a call (hence atomics — see detail::SeaweedRepCounters).
  mutable detail::SeaweedRepCounters rep_counters_;
};

}  // namespace monge
