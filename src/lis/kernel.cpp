#include "lis/kernel.h"

#include <utility>

#include "monge/engine.h"
#include "util/check.h"
#include "util/fenwick.h"

namespace monge::lis {

namespace {

/// The kernel as a raw row->col array (kNone = empty row). The whole
/// value-split recursion stays in this representation and every merge runs
/// on the engine's direct subunit path, so no Perm is constructed (or
/// validated) until lis_kernel_reference wraps the final result. This is
/// the pre-batching depth-first builder: one engine call per merge.
std::vector<std::int32_t> kernel_rec(const std::vector<std::int32_t>& p,
                                     SeaweedEngine& engine) {
  const auto n = static_cast<std::int64_t>(p.size());
  if (n == 0) return {};
  if (n == 1) return {kNone};  // empty kernel: LIS of one element is 1

  const std::int64_t mid = n / 2;
  std::vector<std::int32_t> lo_pos, hi_pos, p_lo, p_hi;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t v = p[static_cast<std::size_t>(i)];
    if (v < mid) {
      lo_pos.push_back(static_cast<std::int32_t>(i));
      p_lo.push_back(v);
    } else {
      hi_pos.push_back(static_cast<std::int32_t>(i));
      p_hi.push_back(static_cast<std::int32_t>(v - mid));
    }
  }
  const std::vector<std::int32_t> k_lo = kernel_rec(p_lo, engine);
  const std::vector<std::int32_t> k_hi = kernel_rec(p_hi, engine);

  // Embed: A = K_lo at lo positions + identity at hi positions;
  //        B = identity at lo positions + K_hi at hi positions.
  std::vector<std::int32_t> a(static_cast<std::size_t>(n), kNone),
      b(static_cast<std::size_t>(n), kNone);
  for (std::size_t i = 0; i < k_lo.size(); ++i) {
    if (k_lo[i] != kNone) {
      a[static_cast<std::size_t>(lo_pos[i])] =
          lo_pos[static_cast<std::size_t>(k_lo[i])];
    }
  }
  for (std::int32_t pos : hi_pos) a[static_cast<std::size_t>(pos)] = pos;
  for (std::int32_t pos : lo_pos) b[static_cast<std::size_t>(pos)] = pos;
  for (std::size_t i = 0; i < k_hi.size(); ++i) {
    if (k_hi[i] != kNone) {
      b[static_cast<std::size_t>(hi_pos[i])] =
          hi_pos[static_cast<std::size_t>(k_hi[i])];
    }
  }
  std::vector<std::int32_t> out(static_cast<std::size_t>(n));
  const SubunitPairView pair{a, b, n};
  const std::span<std::int32_t> dst(out);
  engine.subunit_multiply_batch_into({&pair, 1}, {&dst, 1});
  return out;
}

// ---------------------------------------------------------------------------
// Level-order builder over flat arrays. The value-split tree of every input
// is a STATIC structure (node sizes split floor/ceil independently of the
// data), so the builder lists every input's internal nodes once, top-down
// and grouped by depth, each as a value range [lo, hi) of the inputs'
// concatenated value space split at mid = lo + (hi - lo) / 2 exactly as
// kernel_rec splits. Everything a node owns lives in its own segment
// [lo, hi) of a few flat arrays of the batch's total size:
//   * pos: the node's elements' positions in increasing order. Two arrays
//     alternate between levels, and both start as the inverse permutation,
//     so a size-1 child's list is its value's position and needs no case.
//   * kernel: the node's kernel in node-local position ranks, kNone on
//     size-1 leaves. One array serves every level: a node reads its
//     children's kernels from its own segment before the engine overwrites
//     that segment with its product.
//   * a, b: the node's (A, B) embedding pair.
// The merges run deepest level first. Each node merges its two children's
// position lists; the rank each child element takes in that merge is
// kernel_rec's lo_pos / hi_pos, stored over the child list it was read
// from (which no later level reads). From those ranks and the children's
// kernels the node writes its embedding, and the whole level issues ONE
// SeaweedEngine::subunit_multiply_batch_into call — sharing a single arena
// sizing and striping across the engine's pool — that writes each product
// into its node's kernel segment. Every batch carries kernel_rec's (A, B)
// pairs, so the kernels match the reference bit for bit.
// ---------------------------------------------------------------------------

/// One internal node of the value-split forest: the value range [lo, hi)
/// of the batch's concatenated value space, size >= 2.
struct SplitRange {
  std::int32_t lo, hi;
  std::int32_t mid() const { return lo + (hi - lo) / 2; }
};

/// Kernels (raw row->col arrays) of all inputs, concatenated in input
/// order, one batched engine call per merge level of the forest. Validates
/// every input while it scatters the inverse permutation.
std::vector<std::int32_t> kernel_forest(std::span<const PermView> perms,
                                        SeaweedEngine& engine) {
  std::size_t total = 0;
  for (const PermView p : perms) total += p.size();
  MONGE_CHECK_MSG(total <= static_cast<std::size_t>(INT32_MAX),
                  "lis kernel batch of " << total
                                         << " elements exceeds a 32-bit index");

  // Input t owns the value and position range [off_t, off_t + n_t). Each
  // input of size >= 2 roots one node, and the nodes are listed level by
  // level, each level's children in their parents' order.
  std::vector<std::int32_t> pos0(total, kNone);
  std::vector<SplitRange> nodes;
  nodes.reserve(total);
  std::int32_t off = 0;
  for (const PermView p : perms) {
    const auto n = static_cast<std::int32_t>(p.size());
    for (std::int32_t i = 0; i < n; ++i) {
      const std::int32_t v = p[static_cast<std::size_t>(i)];
      MONGE_CHECK_MSG(v >= 0 && v < n &&
                          pos0[static_cast<std::size_t>(off + v)] == kNone,
                      "lis_kernel requires a permutation of [0, n)");
      pos0[static_cast<std::size_t>(off + v)] = off + i;
    }
    if (n >= 2) nodes.push_back({off, off + n});
    off += n;
  }
  std::vector<std::size_t> level_begin{0};
  while (level_begin.back() < nodes.size()) {
    const std::size_t begin = level_begin.back();
    level_begin.push_back(nodes.size());
    for (std::size_t i = begin; i < level_begin.back(); ++i) {
      const SplitRange node = nodes[i];
      if (node.mid() - node.lo >= 2) nodes.push_back({node.lo, node.mid()});
      if (node.hi - node.mid() >= 2) nodes.push_back({node.mid(), node.hi});
    }
  }

  std::vector<std::int32_t> pos1(pos0);
  std::vector<std::int32_t> kernel(total, kNone), a(total), b(total);
  std::int32_t* const k = kernel.data();
  std::vector<SubunitPairView> views;
  std::vector<std::span<std::int32_t>> outs;
  for (std::size_t d = level_begin.size() - 1; d-- > 0;) {
    // Level d merges into `pos`; its children's lists are in the array the
    // level below merged into, and become their merged ranks here.
    std::int32_t* const pos = (d % 2 == 0 ? pos0 : pos1).data();
    std::int32_t* const rank = (d % 2 == 0 ? pos1 : pos0).data();
    views.clear();
    outs.clear();
    for (std::size_t i = level_begin[d]; i < level_begin[d + 1]; ++i) {
      const std::int32_t lo = nodes[i].lo, mid = nodes[i].mid(),
                         hi = nodes[i].hi;
      std::int32_t x = lo, y = mid, r = 0;
      for (; x < mid && y < hi; ++r) {
        std::int32_t& src = rank[x] < rank[y] ? rank[x++] : rank[y++];
        pos[lo + r] = std::exchange(src, r);
      }
      for (; x < mid; ++r, ++x) pos[lo + r] = std::exchange(rank[x], r);
      for (; y < hi; ++r, ++y) pos[lo + r] = std::exchange(rank[y], r);

      // Embed: A = K_lo at lo ranks + identity at hi ranks;
      //        B = identity at lo ranks + K_hi at hi ranks —
      // the same arrays kernel_rec builds per merge.
      std::int32_t* const na = a.data() + lo;
      std::int32_t* const nb = b.data() + lo;
      for (std::int32_t e = lo; e < mid; ++e) {
        na[rank[e]] = k[e] == kNone ? kNone : rank[lo + k[e]];
        nb[rank[e]] = rank[e];
      }
      for (std::int32_t e = mid; e < hi; ++e) {
        na[rank[e]] = rank[e];
        nb[rank[e]] = k[e] == kNone ? kNone : rank[mid + k[e]];
      }
      const auto size = static_cast<std::size_t>(hi - lo);
      views.push_back({{na, size}, {nb, size}, hi - lo});
      outs.emplace_back(k + lo, size);
    }
    engine.subunit_multiply_batch_into(views, outs);
  }
  return kernel;
}

void check_permutation(std::span<const std::int32_t> p) {
  std::vector<bool> seen(p.size(), false);
  for (std::int32_t v : p) {
    MONGE_CHECK_MSG(v >= 0 && v < static_cast<std::int32_t>(p.size()) &&
                        !seen[static_cast<std::size_t>(v)],
                    "lis_kernel requires a permutation of [0, n)");
    seen[static_cast<std::size_t>(v)] = true;
  }
}

}  // namespace

Perm lis_kernel(std::span<const std::int32_t> perm, SeaweedEngine& engine) {
  return Perm::from_rows(kernel_forest({&perm, 1}, engine),
                         static_cast<std::int64_t>(perm.size()));
}

std::vector<Perm> lis_kernel_batch(
    std::span<const std::vector<std::int32_t>> perms, SeaweedEngine& engine) {
  const std::vector<PermView> views(perms.begin(), perms.end());
  const std::vector<std::int32_t> kernels = kernel_forest(views, engine);
  std::vector<Perm> out;
  out.reserve(perms.size());
  auto next = kernels.begin();
  for (const auto& p : perms) {
    const auto n = static_cast<std::ptrdiff_t>(p.size());
    out.push_back(
        Perm::from_rows(std::vector<std::int32_t>(next, next + n), n));
    next += n;
  }
  return out;
}

Perm lis_kernel_reference(std::span<const std::int32_t> perm,
                          SeaweedEngine& engine) {
  check_permutation(perm);
  const std::vector<std::int32_t> p(perm.begin(), perm.end());
  return Perm::from_rows(kernel_rec(p, engine),
                         static_cast<std::int64_t>(perm.size()));
}

std::int64_t lis_from_kernel(const Perm& kernel) {
  return kernel.rows() - kernel.point_count();
}

std::int64_t kernel_window_lis(const Perm& kernel, std::int64_t l,
                               std::int64_t r) {
  // Empty windows (l > r, including r == -1) are legitimate and answer 0.
  if (l > r) return 0;
  MONGE_CHECK(l >= 0 && r < kernel.rows());
  std::int64_t count = 0;
  for (std::int64_t row = l; row < kernel.rows(); ++row) {
    const std::int32_t c = kernel.col_of(row);
    count += (c != kNone && c < r + 1);
  }
  return (r - l + 1) - count;
}

std::vector<std::int64_t> kernel_window_lis_batch(
    const Perm& kernel,
    std::span<const std::pair<std::int64_t, std::int64_t>> windows) {
  // KΣ(l, r+1) counts points with row >= l and col <= r. Sweep rows from
  // high to low, inserting points into a Fenwick over columns; answer each
  // query when the sweep passes its l. Degenerate l > r windows are never
  // enqueued and keep their initial 0.
  const std::int64_t n = kernel.rows();
  std::vector<std::vector<std::size_t>> by_l(static_cast<std::size_t>(n) + 1);
  for (std::size_t qi = 0; qi < windows.size(); ++qi) {
    if (windows[qi].first > windows[qi].second) continue;  // empty: stays 0
    MONGE_CHECK(windows[qi].first >= 0 && windows[qi].second < n);
    by_l[static_cast<std::size_t>(windows[qi].first)].push_back(qi);
  }
  std::vector<std::int64_t> out(windows.size(), 0);
  Fenwick cols(n);
  for (std::int64_t row = n - 1; row >= 0; --row) {
    const std::int32_t c = kernel.col_of(row);
    if (c != kNone) cols.add(c, 1);
    for (std::size_t qi : by_l[static_cast<std::size_t>(row)]) {
      const auto [l, r] = windows[qi];
      out[qi] = (r - l + 1) - cols.prefix(r + 1);
    }
  }
  return out;
}

}  // namespace monge::lis
