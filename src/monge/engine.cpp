#include "monge/engine.h"

#include <algorithm>

#include "monge/core_sparse.h"
#include "monge/steady_ant_simd.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace monge {

namespace {

constexpr std::size_t kAlign = 64;

constexpr std::size_t aligned_bytes(std::size_t b) {
  return (b + (kAlign - 1)) & ~(kAlign - 1);
}

template <typename T>
constexpr std::size_t slot_bytes(std::int64_t count) {
  return aligned_bytes(sizeof(T) * static_cast<std::size_t>(count));
}

/// Bump allocator over a caller-owned byte range. Allocations are 64-byte
/// aligned; freeing is LIFO via mark()/rewind(). carve() splits off a
/// disjoint sub-arena so a forked subproblem can allocate concurrently.
class Arena {
 public:
  Arena(std::byte* base, std::size_t cap) : base_(base), cap_(cap) {}

  template <typename T>
  std::span<T> alloc(std::int64_t count) {
    const std::size_t bytes = slot_bytes<T>(count);
    MONGE_CHECK_MSG(used_ + bytes <= cap_,
                    "seaweed engine arena overflow: need "
                        << bytes << " bytes, " << (cap_ - used_) << " free");
    T* p = reinterpret_cast<T*>(base_ + used_);
    used_ += bytes;
    return {p, static_cast<std::size_t>(count)};
  }

  std::size_t mark() const { return used_; }
  void rewind(std::size_t mark) { used_ = mark; }
  std::size_t remaining() const { return cap_ - used_; }

  Arena carve(std::size_t bytes) {
    MONGE_CHECK_MSG(used_ + bytes <= cap_,
                    "seaweed engine arena overflow on fork");
    Arena sub(base_ + used_, bytes);
    used_ += bytes;
    return sub;
  }

 private:
  std::byte* base_;
  std::size_t cap_;
  std::size_t used_ = 0;
};

// ---------------------------------------------------------------------------
// Sizing. These mirror the exact allocation sequence of base_case / mul_rec
// below; Arena::alloc re-checks at runtime, so a mismatch throws instead of
// corrupting memory. All sizes depend only on n (full permutations split
// exactly m / n-m), so the budget is data-independent.
// ---------------------------------------------------------------------------

/// The public-entry-point guard for kSeaweedEngineMaxN (see engine.h): the
/// packed (coord << 1) | color int32 representation the combine uses
/// overflows past 2^30, so every dimension is rejected with a clear error
/// instead of silently running into UB.
void check_size_limit(std::size_t size, const char* what) {
  MONGE_CHECK_MSG(size <= static_cast<std::size_t>(kSeaweedEngineMaxN),
                  "SeaweedEngine packs (coord, color) into one int32 and "
                  "supports dimensions up to 2^30; "
                      << what << " = " << size << " exceeds the limit");
}

std::size_t base_case_bytes(std::int64_t n) {
  return 3 * slot_bytes<std::int32_t>((n + 1) * (n + 1));
}

std::size_t split_scratch_bytes(std::int64_t n) {
  return slot_bytes<std::int32_t>(n);
}

std::size_t combine_scratch_bytes(std::int64_t n) {
  return 2 * slot_bytes<std::int32_t>(n) + slot_bytes<std::int32_t>(n + 1);
}

std::size_t persistent_bytes(std::int64_t m, std::int64_t h) {
  // rows_lo/cols_lo/a_lo (m+1), rows_hi/cols_hi/a_hi (h+1), b_ranks (m+h);
  // the +1s are slack slots for the branchless split writes.
  return 3 * slot_bytes<std::int32_t>(m + 1) +
         3 * slot_bytes<std::int32_t>(h + 1) + slot_bytes<std::int32_t>(m + h);
}

/// One top-level call's options and representation counters. Every budget
/// is a pure function of the size and the options, so a forked worker
/// computes its own carves and shares nothing with its sibling but the
/// atomic counters.
struct Plan {
  const SeaweedEngineOptions& opt;
  detail::SeaweedRepCounters* rep;

  /// Whether a fork can run on another thread at all.
  bool pooled() const {
    return opt.pool != nullptr && opt.pool->thread_count() > 1;
  }

  bool fork(std::int64_t n) const {
    return pooled() && n > opt.parallel_grain;
  }

  /// Whether a size-n node runs the core-density probe (solve_adaptive).
  /// Upward-closed in n, like fork.
  bool probe(std::int64_t n) const {
    return opt.core_density_cutoff > 0 && n >= opt.core_probe_min_n &&
           n > opt.base_case_cutoff;
  }

  /// A size-x node's budget when x <= the base-case cutoff: nothing for
  /// x <= 1, else the cutoff's own base case. The base case of the cutoff
  /// needs more than the recursion just above it (1 152 vs 1 024 bytes at
  /// cutoff 8), so budgeting each base case at its own size would make
  /// budgets dip as the size grows; at the cutoff's size every budget is
  /// monotone in the size.
  std::size_t leaf_bytes(std::int64_t x) const {
    return x <= 1 ? 0 : base_case_bytes(opt.base_case_cutoff);
  }

  /// The arena budget of a size-n node. The nodes at depth d of the
  /// halving tree have size ⌊n/2^d⌋ or ⌊n/2^d⌋ + 1, so the walk starts at
  /// the first depth where both sizes are base cases and carries the two
  /// budgets up one level at a time: O(log n), no allocation, no state.
  // monge-lint: hot
  std::size_t node_bytes(std::int64_t n) const {
    if (n <= opt.base_case_cutoff) return leaf_bytes(n);
    int depth = 1;
    while ((n >> depth) + 1 > opt.base_case_cutoff) ++depth;
    std::int64_t k = n >> depth;
    std::size_t at_k = leaf_bytes(k);
    std::size_t at_k1 = leaf_bytes(k + 1);
    for (int d = depth - 1; d >= 1; --d) {
      const std::int64_t up = n >> d;
      const std::size_t up_k = split_node_bytes(up, k, at_k, at_k1);
      at_k1 = split_node_bytes(up + 1, k, at_k, at_k1);
      at_k = up_k;
      k = up;
    }
    return split_node_bytes(n, k, at_k, at_k1);
  }

 private:
  /// The budget of a size-x node whose halves have size k or k + 1, with
  /// budgets at_k and at_k1. A node's frame is its persistent slots plus
  /// the largest of its split scratch, its combine scratch and its
  /// children: the sum of the halves' budgets when it forks (carved side
  /// by side), else the larger one.
  // monge-lint: hot
  std::size_t split_node_bytes(std::int64_t x, std::int64_t k,
                               std::size_t at_k, std::size_t at_k1) const {
    if (x <= opt.base_case_cutoff) return leaf_bytes(x);
    const std::int64_t m = x / 2;
    const std::int64_t h = x - m;
    MONGE_DCHECK(m >= k && h <= k + 1);
    const std::size_t lo = m == k ? at_k : at_k1;
    const std::size_t hi = h == k ? at_k : at_k1;
    const std::size_t children = fork(x) ? lo + hi : std::max(lo, hi);
    const std::size_t dense =
        persistent_bytes(m, h) +
        std::max({split_scratch_bytes(x), combine_scratch_bytes(x), children});
    // Probed nodes may take the block path, whose dense block of size
    // B < x needs two shifted input copies plus that block's own frame,
    // 2·slot(B) + dense(B). Budgets are monotone in the size (see
    // leaf_bytes), so dense(B) <= dense(x) and two size-x slots cover it.
    return probe(x) ? dense + 2 * slot_bytes<std::int32_t>(x) : dense;
  }
};

// ---------------------------------------------------------------------------
// Base case: dense distribution-matrix (min,+) product, the arena version of
// multiply_naive. O(n^3) arithmetic but branch-light and allocation-free,
// which beats the recursion's per-node passes for small n.
// ---------------------------------------------------------------------------

/// dist(i, j) = #points with row >= i and col < j, row-major with stride w.
// monge-lint: hot
void fill_dist(std::span<const std::int32_t> p, std::span<std::int32_t> dist,
               std::int64_t w) {
  const std::int64_t n = w - 1;
  for (std::int64_t j = 0; j < w; ++j) dist[static_cast<std::size_t>(n * w + j)] = 0;
  for (std::int64_t i = n - 1; i >= 0; --i) {
    const std::int32_t c = p[static_cast<std::size_t>(i)];
    const std::size_t row = static_cast<std::size_t>(i * w);
    const std::size_t below = static_cast<std::size_t>((i + 1) * w);
    for (std::int64_t j = 0; j <= c; ++j) {
      dist[row + static_cast<std::size_t>(j)] =
          dist[below + static_cast<std::size_t>(j)];
    }
    for (std::int64_t j = c + 1; j < w; ++j) {
      dist[row + static_cast<std::size_t>(j)] =
          dist[below + static_cast<std::size_t>(j)] + 1;
    }
  }
}

// monge-lint: hot
void base_case(std::span<const std::int32_t> a, std::span<const std::int32_t> b,
               std::span<std::int32_t> out, Arena& arena) {
  const auto n = static_cast<std::int64_t>(a.size());
  const std::int64_t w = n + 1;
  const std::size_t mark = arena.mark();
  auto da = arena.alloc<std::int32_t>(w * w);
  auto db = arena.alloc<std::int32_t>(w * w);
  auto dc = arena.alloc<std::int32_t>(w * w);
  fill_dist(a, da, w);
  fill_dist(b, db, w);
  for (std::int64_t i = 0; i < w; ++i) {
    const std::size_t ai = static_cast<std::size_t>(i * w);
    for (std::int64_t k = 0; k < w; ++k) {
      std::int32_t best = da[ai] + db[static_cast<std::size_t>(k)];
      for (std::int64_t j = 1; j < w; ++j) {
        best = std::min(best, da[ai + static_cast<std::size_t>(j)] +
                                  db[static_cast<std::size_t>(j * w + k)]);
      }
      dc[ai + static_cast<std::size_t>(k)] = best;
    }
  }
  // Extract the product permutation from the cross-differences; for full
  // permutations every row holds exactly one point.
  for (std::int64_t r = 0; r < n; ++r) {
    const std::size_t row = static_cast<std::size_t>(r * w);
    const std::size_t below = static_cast<std::size_t>((r + 1) * w);
    for (std::int64_t c = 0; c < n; ++c) {
      const std::int32_t v = dc[row + static_cast<std::size_t>(c) + 1] -
                             dc[below + static_cast<std::size_t>(c) + 1] -
                             dc[row + static_cast<std::size_t>(c)] +
                             dc[below + static_cast<std::size_t>(c)];
      MONGE_DCHECK(v == 0 || v == 1);
      if (v == 1) {
        out[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(c);
        break;
      }
    }
  }
  arena.rewind(mark);
}

// ---------------------------------------------------------------------------
// The recursion.
// ---------------------------------------------------------------------------

/// Density-adaptive dispatch wrapper around mul_rec: probes the node when
/// the plan says to and routes it to the core-sparse block path or the
/// dense recursion. Same contract as mul_rec (out may alias a).
void solve_adaptive(std::span<const std::int32_t> a,
                    std::span<const std::int32_t> b,
                    std::span<std::int32_t> out, Arena& arena,
                    const Plan& plan);

/// The dense recursion. `out` receives the product; it may alias `a` (all
/// reads of `a` happen in the split phase, all writes to `out` in the
/// combine) — the recursive calls exploit this by writing each child's
/// result over that child's input, so no separate result buffers exist.
// monge-lint: hot
void mul_rec(std::span<const std::int32_t> a, std::span<const std::int32_t> b,
             std::span<std::int32_t> out, Arena& arena, const Plan& plan) {
  const auto n = static_cast<std::int64_t>(a.size());
  if (n == 0) return;
  if (n == 1) {
    out[0] = 0;
    return;
  }
  if (n <= plan.opt.base_case_cutoff) {
    base_case(a, b, out, arena);
    return;
  }

  const std::int64_t m = n / 2;
  const std::int64_t h = n - m;
  const std::size_t frame = arena.mark();

  // Persistent node state, live across the recursive calls. a_lo/a_hi hold
  // the compacted PA halves and are overwritten by the children with their
  // results; b_ranks holds b_lo then b_hi, written by one exact scatter.
  // The split loops below are branchless — both sides' targets are written
  // unconditionally and the cursor of the non-matching side stays put —
  // which is why each cursor-written list carries one slack slot.
  auto rows_lo = arena.alloc<std::int32_t>(m + 1);
  auto cols_lo = arena.alloc<std::int32_t>(m + 1);
  auto a_lo_buf = arena.alloc<std::int32_t>(m + 1);
  auto rows_hi = arena.alloc<std::int32_t>(h + 1);
  auto cols_hi = arena.alloc<std::int32_t>(h + 1);
  auto a_hi_buf = arena.alloc<std::int32_t>(h + 1);
  auto b_ranks = arena.alloc<std::int32_t>(n);
  const auto a_lo = a_lo_buf.first(static_cast<std::size_t>(m));
  const auto a_hi = a_hi_buf.first(static_cast<std::size_t>(h));
  const auto b_lo = b_ranks.subspan(0, static_cast<std::size_t>(m));
  const auto b_hi =
      b_ranks.subspan(static_cast<std::size_t>(m), static_cast<std::size_t>(h));

  // Split PA by columns into [0,m) / [m,n); compact by deleting empty rows.
  // A full permutation sends exactly m rows to the lo half.
  {
    std::int64_t la = 0, lb = 0;
    for (std::int64_t r = 0; r < n; ++r) {
      const std::int32_t c = a[static_cast<std::size_t>(r)];
      const bool is_lo = c < m;
      a_lo_buf[static_cast<std::size_t>(la)] = c;
      rows_lo[static_cast<std::size_t>(la)] = static_cast<std::int32_t>(r);
      a_hi_buf[static_cast<std::size_t>(lb)] = static_cast<std::int32_t>(c - m);
      rows_hi[static_cast<std::size_t>(lb)] = static_cast<std::int32_t>(r);
      la += is_lo;
      lb += !is_lo;
    }
    MONGE_DCHECK(la == m && lb == h);
  }

  // Split PB by rows; compact by deleting empty columns, relabelling each
  // surviving column by its rank. One inverse pass, then one fused scan in
  // column order that emits the column maps and both compacted inputs.
  {
    const std::size_t scratch = arena.mark();
    auto b_inv = arena.alloc<std::int32_t>(n);
    for (std::int64_t r = 0; r < n; ++r) {
      b_inv[static_cast<std::size_t>(b[static_cast<std::size_t>(r)])] =
          static_cast<std::int32_t>(r);
    }
    std::int64_t lo = 0, hi = 0;
    for (std::int64_t c = 0; c < n; ++c) {
      const std::int32_t r = b_inv[static_cast<std::size_t>(c)];
      const bool is_lo = r < m;
      cols_lo[static_cast<std::size_t>(lo)] = static_cast<std::int32_t>(c);
      cols_hi[static_cast<std::size_t>(hi)] = static_cast<std::int32_t>(c);
      b_ranks[static_cast<std::size_t>(r)] =
          static_cast<std::int32_t>(is_lo ? lo : hi);
      lo += is_lo;
      hi += !is_lo;
    }
    MONGE_DCHECK(lo == m && hi == h);
    arena.rewind(scratch);
  }

  // Recurse, each child writing its result over its own input; the
  // subproblems are independent, so above the grain size they run
  // concurrently on disjoint arena slices. A node's budget holds both
  // carves, and so does a dense block of the core-sparse path inside its
  // probed parent's budget (budgets are monotone in the size).
  if (plan.fork(n)) {
    const std::size_t mark = arena.mark();
    Arena lo_arena = arena.carve(plan.node_bytes(m));
    Arena hi_arena = arena.carve(plan.node_bytes(h));
    plan.opt.pool->invoke_two(
        [&] { solve_adaptive(a_lo, b_lo, a_lo, lo_arena, plan); },
        [&] { solve_adaptive(a_hi, b_hi, a_hi, hi_arena, plan); });
    arena.rewind(mark);
  } else {
    solve_adaptive(a_lo, b_lo, a_lo, arena, plan);
    solve_adaptive(a_hi, b_hi, a_hi, arena, plan);
  }

  // Expand both results back to the n×n grid (a full colored permutation,
  // packed as (col << 1) | color per row) and combine with the steady ant —
  // the blocked, ISA-dispatched walk in steady_ant_simd.h (bit-identical
  // to the scalar reference; MONGE_FORCE_SCALAR pins it back to scalar).
  {
    const std::size_t scratch = arena.mark();
    auto row_pk = arena.alloc<std::int32_t>(n);
    auto col_pk = arena.alloc<std::int32_t>(n);
    auto t = arena.alloc<std::int32_t>(n + 1);
    for (std::int64_t i = 0; i < m; ++i) {
      row_pk[static_cast<std::size_t>(rows_lo[static_cast<std::size_t>(i)])] =
          cols_lo[static_cast<std::size_t>(a_lo[static_cast<std::size_t>(i)])]
          << 1;
    }
    for (std::int64_t i = 0; i < h; ++i) {
      row_pk[static_cast<std::size_t>(rows_hi[static_cast<std::size_t>(i)])] =
          (cols_hi[static_cast<std::size_t>(a_hi[static_cast<std::size_t>(i)])]
           << 1) |
          1;
    }
    steady_ant_packed_into(row_pk, col_pk, t, out);
    arena.rewind(scratch);
  }
  arena.rewind(frame);
}

/// The core-sparse block decomposition of Gorbachev et al. (arXiv
/// 2408.04613), streamed over dense spans: one forward pass tracks the
/// running maximum of both inputs' values; at index i, mx == i means the
/// boundary after i is clean for BOTH inputs — the seaweed braid never
/// crosses it — closing an independent diagonal block. Blocks where one
/// input restricts to the identity are copied verbatim (id ⊡ X = X ⊡ id =
/// X); blocks where both cores interact recurse densely on shifted arena
/// copies, forking above the grain like any node. Returns false without
/// writing anything when no interior boundary is clean (the node is one
/// indivisible block and the caller's dense recursion is the right tool).
///
/// `out` may alias `a`, like mul_rec: at index i every read of a[i]/b[i]
/// (the mx/fixed scan, the shifted copies) happens before any write to
/// out[j <= i], and indices past i are untouched until the cursor gets
/// there.
// monge-lint: hot
bool core_block_solve(std::span<const std::int32_t> a,
                      std::span<const std::int32_t> b,
                      std::span<std::int32_t> out, Arena& arena,
                      const Plan& plan) {
  const auto n = static_cast<std::int64_t>(a.size());
  std::int64_t start = 0;
  std::int64_t fixed_a = 0;
  std::int64_t fixed_b = 0;
  std::int64_t blocks_dense = 0;
  std::int64_t blocks_copied = 0;
  std::int32_t mx = -1;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t av = a[static_cast<std::size_t>(i)];
    const std::int32_t bv = b[static_cast<std::size_t>(i)];
    mx = std::max({mx, av, bv});
    fixed_a += av == i;
    fixed_b += bv == i;
    if (mx != static_cast<std::int32_t>(i)) continue;
    const std::int64_t size = i + 1 - start;
    if (size == n) return false;  // one whole-range block: stay dense
    if (fixed_b == size) {
      // B is the identity on [start, i]: the product block is A's block
      // (which is also the identity when fixed_a == size).
      std::copy(a.begin() + start, a.begin() + (i + 1), out.begin() + start);
      ++blocks_copied;
    } else if (fixed_a == size) {
      std::copy(b.begin() + start, b.begin() + (i + 1), out.begin() + start);
      ++blocks_copied;
    } else {
      // Both cores interact: solve the block densely over copies shifted
      // to [0, size) — mul_rec, not solve_adaptive, because this block
      // provably has no clean boundary to probe for.
      const std::size_t mark = arena.mark();
      auto sa = arena.alloc<std::int32_t>(size);
      auto sb = arena.alloc<std::int32_t>(size);
      for (std::int64_t j = 0; j < size; ++j) {
        sa[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(
            a[static_cast<std::size_t>(start + j)] - start);
        sb[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(
            b[static_cast<std::size_t>(start + j)] - start);
      }
      const auto block_out =
          out.subspan(static_cast<std::size_t>(start),
                      static_cast<std::size_t>(size));
      mul_rec(sa, sb, block_out, arena, plan);
      for (std::int64_t j = 0; j < size; ++j) {
        block_out[static_cast<std::size_t>(j)] +=
            static_cast<std::int32_t>(start);
      }
      arena.rewind(mark);
      ++blocks_dense;
    }
    start = i + 1;
    fixed_a = 0;
    fixed_b = 0;
  }
  plan.rep->blocks_dense.fetch_add(blocks_dense, std::memory_order_relaxed);
  plan.rep->blocks_copied.fetch_add(blocks_copied, std::memory_order_relaxed);
  return true;
}

// monge-lint: hot
void solve_adaptive(std::span<const std::int32_t> a,
                    std::span<const std::int32_t> b,
                    std::span<std::int32_t> out, Arena& arena,
                    const Plan& plan) {
  const auto n = static_cast<std::int64_t>(a.size());
  if (plan.probe(n)) {
    // Both inputs must be at or below the density cutoff for the block
    // path to be worth trying; the early-exit scan keeps the probe cost
    // O(cutoff·n) on dense inputs.
    const auto limit = static_cast<std::int64_t>(
        plan.opt.core_density_cutoff * static_cast<double>(n));
    if (!core_exceeds(a, limit) && !core_exceeds(b, limit) &&
        core_block_solve(a, b, out, arena, plan)) {
      plan.rep->core_sparse_nodes.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    plan.rep->dense_nodes.fetch_add(1, std::memory_order_relaxed);
  }
  mul_rec(a, b, out, arena, plan);
}

#ifndef NDEBUG
void dcheck_full_permutation(std::span<const std::int32_t> p) {
  const auto n = static_cast<std::int64_t>(p.size());
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (std::int32_t v : p) {
    MONGE_DCHECK(v >= 0 && v < n && !seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}
#endif

/// Runs stripes [lo, hi), forking recursively via invoke_two (safe from
/// pool workers, same as mul_rec's own forks). `solve(k)` runs stripe k;
/// shared by the full-permutation and subunit batches.
template <typename Solve>
void batch_rec(std::size_t lo, std::size_t hi, ThreadPool* pool,
               const Solve& solve) {
  if (hi - lo == 1) {
    solve(lo);
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  pool->invoke_two([&] { batch_rec(lo, mid, pool, solve); },
                   [&] { batch_rec(mid, hi, pool, solve); });
}

/// One batch entry's fork measure (its core solve's n, the quantity
/// Plan::fork compares with the grain) and its arena budget.
struct EntryCost {
  std::int64_t size;
  std::size_t bytes;
};

/// The shared batch skeleton: validate + budget every entry up front
/// (`cost_of(i)`), size the arena ONCE for the whole batch, then solve.
/// With a pool, the entries are cut into contiguous stripes: a stripe
/// closes once its summed size reaches the grain, and a tail short of it
/// joins the last stripe, so the cut depends on the sizes and the grain
/// alone. Each stripe solves its entries back-to-back in one carved slice
/// sized for its largest entry, and only stripes fork. A batch of one
/// stripe (or without a pool) solves back-to-back on one arena sized for
/// the largest entry.
/// `arena_span(bytes)` is the engine's buffer accessor; `solve(i, arena)`
/// runs entry i. Budgets are 64-byte multiples, so carving preserves
/// alignment.
template <typename ArenaSpanFn, typename CostFn, typename SolveFn>
void solve_batch(std::size_t count, const Plan& plan, ArenaSpanFn arena_span,
                 CostFn cost_of, SolveFn solve) {
  struct Stripe {
    std::size_t begin, end;
    std::size_t bytes;  // the largest budget among [begin, end)
  };
  // A batch of one is one stripe by definition: skip the stripe list, so a
  // single product allocates nothing on a pooled engine either.
  const bool pooled = count > 1 && plan.pooled();
  std::vector<Stripe> stripes;
  std::size_t max_bytes = 0;
  std::int64_t open_size = 0;  // summed size of the last stripe
  for (std::size_t i = 0; i < count; ++i) {
    const EntryCost cost = cost_of(i);
    max_bytes = std::max(max_bytes, cost.bytes);
    if (!pooled) continue;
    if (stripes.empty() || open_size >= plan.opt.parallel_grain) {
      stripes.push_back({i, i, 0});
      open_size = 0;
    }
    stripes.back().end = i + 1;
    stripes.back().bytes = std::max(stripes.back().bytes, cost.bytes);
    open_size += cost.size;
  }
  if (stripes.size() > 1 && open_size < plan.opt.parallel_grain) {
    const Stripe tail = stripes.back();
    stripes.pop_back();
    stripes.back().end = tail.end;
    stripes.back().bytes = std::max(stripes.back().bytes, tail.bytes);
  }

  if (stripes.size() <= 1) {
    const auto span = arena_span(max_bytes);
    for (std::size_t i = 0; i < count; ++i) {
      Arena arena(span.data(), span.size());
      solve(i, arena);
    }
    return;
  }

  std::size_t total_bytes = 0;
  for (const Stripe& s : stripes) total_bytes += s.bytes;
  const auto span = arena_span(total_bytes);
  Arena whole(span.data(), span.size());
  std::vector<Arena> slices;
  slices.reserve(stripes.size());
  for (const Stripe& s : stripes) slices.push_back(whole.carve(s.bytes));
  batch_rec(0, stripes.size(), plan.opt.pool, [&](std::size_t k) {
    for (std::size_t i = stripes[k].begin; i < stripes[k].end; ++i) {
      Arena arena = slices[k];  // every entry starts at the slice's base
      solve(i, arena);
    }
  });
}

// ---------------------------------------------------------------------------
// The §4.1 subunit reduction in arena scratch (compact both inputs, extend
// to full n2×n2 permutations, core-solve over the padded-PA slot, read the
// product out of the bottom-left block). subunit_multiply_batch_into runs
// it per entry; the caller sizes the arena with subunit_node_bytes and
// guarantees capacity.
// ---------------------------------------------------------------------------

std::size_t subunit_node_bytes(const Plan& plan, std::int64_t ra,
                               std::int64_t n2, std::int64_t b_cols) {
  // Arena layout: the padded permutations and the surviving-row/column maps
  // persist across the core solve; the column-occupancy scratch is rewound
  // before it, so the budget takes the max of the two phases. There are at
  // most n2 surviving rows/columns (their product columns/rows are
  // distinct), which bounds the map slots.
  const std::size_t core = plan.node_bytes(n2);
  const std::size_t persistent =
      2 * slot_bytes<std::int32_t>(n2) +
      slot_bytes<std::int32_t>(std::min(ra, n2)) +
      slot_bytes<std::int32_t>(std::min(b_cols, n2));
  const std::size_t compact_scratch =
      slot_bytes<std::uint8_t>(n2) + slot_bytes<std::int32_t>(b_cols);
  return persistent + std::max(core, compact_scratch);
}

// monge-lint: hot
void subunit_solve(PermView a, PermView b, std::int64_t b_cols,
                   std::span<std::int32_t> out, Arena& arena,
                   const Plan& plan) {
  const auto ra = static_cast<std::int64_t>(a.size());
  const auto n2 = static_cast<std::int64_t>(b.size());
  std::fill(out.begin(), out.end(), kNone);
  if (ra == 0 || n2 == 0 || b_cols == 0) return;

  auto pa = arena.alloc<std::int32_t>(n2);
  auto pb = arena.alloc<std::int32_t>(n2);
  auto rows_a = arena.alloc<std::int32_t>(std::min(ra, n2));
  auto cols_b = arena.alloc<std::int32_t>(std::min(b_cols, n2));
  const std::size_t scratch = arena.mark();

  // Compact PA: surviving original rows, and which columns they occupy.
  auto col_used = arena.alloc<std::uint8_t>(n2);
  std::fill(col_used.begin(), col_used.end(), std::uint8_t{0});
  std::int64_t n1 = 0;
  for (std::int64_t r = 0; r < ra; ++r) {
    const std::int32_t c = a[static_cast<std::size_t>(r)];
    if (c == kNone) continue;
    MONGE_CHECK_MSG(c >= 0 && c < n2 && !col_used[static_cast<std::size_t>(c)],
                    "subunit multiply: A is not a sub-permutation (row "
                        << r << " -> col " << c << ")");
    col_used[static_cast<std::size_t>(c)] = 1;
    rows_a[static_cast<std::size_t>(n1++)] = static_cast<std::int32_t>(r);
  }
  if (n1 == 0) return;

  // P'A (n2×n2): the top n2−n1 rows cover PA's empty columns in increasing
  // order; the bottom n1 rows are the compacted PA.
  std::int64_t top = 0;
  for (std::int64_t c = 0; c < n2; ++c) {
    if (!col_used[static_cast<std::size_t>(c)]) {
      pa[static_cast<std::size_t>(top++)] = static_cast<std::int32_t>(c);
    }
  }
  MONGE_CHECK(top == n2 - n1);
  for (std::int64_t i = 0; i < n1; ++i) {
    pa[static_cast<std::size_t>(top + i)] =
        a[static_cast<std::size_t>(rows_a[static_cast<std::size_t>(i)])];
  }

  // Compact PB: surviving columns ranked in column order (0 marks occupancy
  // in the first pass, then becomes the rank).
  auto col_rank = arena.alloc<std::int32_t>(b_cols);
  std::fill(col_rank.begin(), col_rank.end(), kNone);
  for (std::int64_t r = 0; r < n2; ++r) {
    const std::int32_t c = b[static_cast<std::size_t>(r)];
    if (c == kNone) continue;
    MONGE_CHECK_MSG(
        c >= 0 && c < b_cols && col_rank[static_cast<std::size_t>(c)] == kNone,
        "subunit multiply: B is not a sub-permutation (row " << r << " -> col "
                                                             << c << ")");
    col_rank[static_cast<std::size_t>(c)] = 0;
  }
  std::int64_t n3 = 0;
  for (std::int64_t c = 0; c < b_cols; ++c) {
    if (col_rank[static_cast<std::size_t>(c)] != kNone) {
      col_rank[static_cast<std::size_t>(c)] = static_cast<std::int32_t>(n3);
      cols_b[static_cast<std::size_t>(n3++)] = static_cast<std::int32_t>(c);
    }
  }
  if (n3 == 0) return;

  // P'B (n2×n2): surviving columns keep their rank in [0,n3); each empty
  // row of PB gets one of the appended columns [n3,n2) in increasing order.
  std::int64_t appended = 0;
  for (std::int64_t r = 0; r < n2; ++r) {
    const std::int32_t c = b[static_cast<std::size_t>(r)];
    pb[static_cast<std::size_t>(r)] =
        c == kNone ? static_cast<std::int32_t>(n3 + appended++)
                   : col_rank[static_cast<std::size_t>(c)];
  }
  MONGE_CHECK(appended == n2 - n3);
  arena.rewind(scratch);

  // Core solve; the result overwrites P'A (the out-aliases-a contract,
  // which the adaptive dispatch and the block path both honor).
  solve_adaptive(pa, pb, pa, arena, plan);

  // Read PC out of the bottom-left n1×n3 block.
  const std::int64_t shift = n2 - n1;
  for (std::int64_t r = shift; r < n2; ++r) {
    const std::int32_t c = pa[static_cast<std::size_t>(r)];
    if (c < n3) {
      out[static_cast<std::size_t>(rows_a[static_cast<std::size_t>(r - shift)])] =
          cols_b[static_cast<std::size_t>(c)];
    }
  }
}

void check_subunit_shapes(PermView a, PermView b, std::int64_t b_cols,
                          std::span<const std::int32_t> out) {
  MONGE_CHECK(out.size() == a.size() && b_cols >= 0);
  check_size_limit(a.size(), "a.size()");
  check_size_limit(b.size(), "b.size()");
  check_size_limit(static_cast<std::size_t>(b_cols), "b_cols");
}

}  // namespace

SeaweedEngine::SeaweedEngine(SeaweedEngineOptions options)
    : options_(options) {
  // Validate instead of silently rewriting the caller's knobs: a rejected
  // value is a caller bug worth surfacing, and options() must always
  // report exactly what was requested. The upper cutoff bound keeps the
  // O(cutoff^3) dense base case from dominating (the sweet spot is ~4-16).
  MONGE_CHECK_MSG(
      options_.base_case_cutoff >= 1 && options_.base_case_cutoff <= 256,
      "SeaweedEngineOptions::base_case_cutoff must be in [1, 256], got "
          << options_.base_case_cutoff);
  MONGE_CHECK_MSG(options_.parallel_grain >= 2,
                  "SeaweedEngineOptions::parallel_grain must be >= 2, got "
                      << options_.parallel_grain);
  // The comparison is written so NaN fails it (NaN >= 0.0 is false).
  MONGE_CHECK_MSG(options_.core_density_cutoff >= 0.0 &&
                      options_.core_density_cutoff <= 1.0,
                  "SeaweedEngineOptions::core_density_cutoff must be in "
                  "[0, 1], got "
                      << options_.core_density_cutoff);
  MONGE_CHECK_MSG(options_.core_probe_min_n >= 2,
                  "SeaweedEngineOptions::core_probe_min_n must be >= 2, got "
                      << options_.core_probe_min_n);
}

RepresentationStats SeaweedEngine::representation_stats() const {
  return {
      rep_counters_.dense_nodes.load(std::memory_order_relaxed),
      rep_counters_.core_sparse_nodes.load(std::memory_order_relaxed),
      rep_counters_.blocks_dense.load(std::memory_order_relaxed),
      rep_counters_.blocks_copied.load(std::memory_order_relaxed),
  };
}

std::size_t SeaweedEngine::arena_bytes_for(std::int64_t n) const {
  return Plan{options_, &rep_counters_}.node_bytes(n);
}

std::span<std::byte> SeaweedEngine::arena_span(std::size_t bytes) {
  if (buffer_.size() < bytes + kAlign) {
    // The arena never carries state between calls, so grow without copying
    // the old scratch bytes.
    buffer_.clear();
    buffer_.resize(bytes + kAlign);
  }
  auto base = reinterpret_cast<std::uintptr_t>(buffer_.data());
  const std::size_t shift = (kAlign - base % kAlign) % kAlign;
  return {buffer_.data() + shift, buffer_.size() - shift};
}

void SeaweedEngine::multiply_batch_into(
    std::span<const PermPairView> pairs,
    std::span<const std::span<std::int32_t>> outs) {
  MONGE_CHECK(pairs.size() == outs.size());
  if (pairs.empty()) return;
  const Plan plan{options_, &rep_counters_};
  solve_batch(
      pairs.size(), plan, [this](std::size_t bytes) { return arena_span(bytes); },
      [&](std::size_t i) {
        MONGE_CHECK(pairs[i].first.size() == pairs[i].second.size() &&
                    outs[i].size() == pairs[i].first.size());
        check_size_limit(pairs[i].first.size(), "n");
#ifndef NDEBUG
        dcheck_full_permutation(pairs[i].first);
        dcheck_full_permutation(pairs[i].second);
#endif
        const auto n = static_cast<std::int64_t>(pairs[i].first.size());
        return EntryCost{n, plan.node_bytes(n)};
      },
      [&](std::size_t i, Arena& arena) {
        solve_adaptive(pairs[i].first, pairs[i].second, outs[i], arena, plan);
      });
}

void SeaweedEngine::subunit_multiply_batch_into(
    std::span<const SubunitPairView> pairs,
    std::span<const std::span<std::int32_t>> outs) {
  MONGE_CHECK(pairs.size() == outs.size());
  if (!pairs.empty()) {
    const Plan plan{options_, &rep_counters_};
    solve_batch(
        pairs.size(), plan,
        [this](std::size_t bytes) { return arena_span(bytes); },
        [&](std::size_t i) {
          check_subunit_shapes(pairs[i].a, pairs[i].b, pairs[i].b_cols,
                               outs[i]);
          const auto n2 = static_cast<std::int64_t>(pairs[i].b.size());
          return EntryCost{
              n2, subunit_node_bytes(
                      plan, static_cast<std::int64_t>(pairs[i].a.size()), n2,
                      pairs[i].b_cols)};
        },
        [&](std::size_t i, Arena& arena) {
          subunit_solve(pairs[i].a, pairs[i].b, pairs[i].b_cols, outs[i],
                        arena, plan);
        });
  }
  // Count completed calls only — a batch rejected by validation (or that
  // threw mid-solve) was not served.
  ++subunit_batch_calls_;
}

Perm SeaweedEngine::multiply(const Perm& a, const Perm& b) {
  MONGE_CHECK_MSG(a.is_full_permutation() && b.is_full_permutation(),
                  "SeaweedEngine::multiply requires full permutations (use "
                  "subunit_multiply for sub-permutations)");
  MONGE_CHECK(a.cols() == b.rows());
  std::vector<std::int32_t> out(static_cast<std::size_t>(a.rows()));
  const PermPairView pair{a.row_to_col(), b.row_to_col()};
  const std::span<std::int32_t> dst(out);
  multiply_batch_into({&pair, 1}, {&dst, 1});
  return Perm::from_rows(std::move(out), b.cols());
}

}  // namespace monge
