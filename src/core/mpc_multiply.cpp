#include "core/mpc_multiply.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "monge/engine.h"
#include "monge/multiway.h"
#include "mpc/collectives.h"
#include "mpc/dist_vector.h"
#include "util/check.h"
#include "util/error.h"
#include "util/math.h"
#include "util/overflow.h"

namespace monge::core {

namespace {

using mpc::Cluster;
using mpc::DistVector;
using mpc::MachineCtx;
using mpc::PerMachine;

struct SubPoint {
  std::int32_t sub;
  std::int32_t row;
  std::int32_t col;
};

struct ColoredPt {
  std::int32_t sub;
  std::int32_t row;
  std::int32_t col;
  std::int32_t color;
};

/// Host-side description of one recursion level's subproblems. Every level
/// holds exactly n points in total, laid out sub-by-sub, so the global
/// index of (sub, local_row) is offset[sub] + local_row.
struct LevelMeta {
  std::vector<std::int64_t> offset;
  std::vector<std::int64_t> size;
  std::int64_t max_size = 0;

  std::int64_t subs() const { return static_cast<std::int64_t>(size.size()); }
  /// Subproblem owning a global index (offsets ascending).
  std::int32_t sub_of(std::int64_t global) const {
    const auto it =
        std::upper_bound(offset.begin(), offset.end(), global) - 1;
    return static_cast<std::int32_t>(it - offset.begin());
  }
};

// ---------------------------------------------------------------------------
// Distributed merge-tree index (§3.2's tree T, one key array per level, in
// point order: mpc::rank_search sorts the keys with each query batch).
// ---------------------------------------------------------------------------

struct RankQuery {
  std::int32_t level;
  std::int32_t sub;
  std::int64_t node_start;  // aligned to width(level)
  std::int32_t color;       // in [0, H+1]
  std::int64_t thr;         // exclusive upper bound on the free coordinate
};

class TreeIndex {
 public:
  /// row_axis: nodes partition the row coordinate, the free coordinate is
  /// the column (vertical grid lines); col_axis is the mirror image.
  TreeIndex(Cluster& c, const DistVector<ColoredPt>& pts,
            const LevelMeta& meta, std::int64_t h, std::int64_t fanout,
            bool row_axis)
      : h_(h), fanout_(fanout), coord_mult_(meta.max_size + 2) {
    // The root is strictly wider than any subproblem, so a descent that
    // never sees a positive δ ends at node_start >= size, which encodes
    // cmp = size + 1 ("no such i").
    top_ = 0;
    width_top_ = 1;
    while (width_top_ <= meta.max_size) {
      width_top_ *= fanout_;
      ++top_;
    }
    for (std::int32_t level = 0; level <= top_; ++level) {
      nodes_per_sub_.push_back(width_top_ / width(level));
    }
    // Exact, overflow-checked: the naive int64 product overflows (UB)
    // exactly when the guard should reject; see util/overflow.h.
    MONGE_CHECK(util::product_below(
        {meta.subs(), nodes_per_sub_[0], h_ + 2, coord_mult_},
        std::int64_t{1} << 62));
    for (std::int32_t level = 0; level <= top_; ++level) {
      DistVector<std::int64_t> keys(c, pts.size());
      c.run_round([&](MachineCtx& mc) {
        const auto& loc = pts.local(mc.id());
        auto& out = keys.local(mc.id());
        MONGE_CHECK(out.size() == loc.size());
        for (std::size_t k = 0; k < loc.size(); ++k) {
          const std::int64_t node =
              (row_axis ? loc[k].row : loc[k].col) / width(level);
          const std::int64_t free_coord = row_axis ? loc[k].col : loc[k].row;
          out[k] = pack(level, loc[k].sub, node, loc[k].color, free_coord);
        }
      });
      levels_.push_back(std::move(keys));
    }
  }

  std::int32_t top_level() const { return top_; }
  std::int64_t width(std::int32_t level) const {
    return ipow(fanout_, level);
  }

  std::int64_t pack(std::int32_t level, std::int64_t sub, std::int64_t node,
                    std::int64_t color, std::int64_t coord) const {
    return ((sub * nodes_per_sub_[static_cast<std::size_t>(level)] + node) *
                (h_ + 2) +
            color) *
               coord_mult_ +
           coord;
  }

  /// Answers #points with key < (query) for a batch of queries, grouping by
  /// tree level; each level present costs one offline rank search.
  std::vector<std::int64_t> answer(Cluster& c,
                                   const std::vector<RankQuery>& queries,
                                   std::int64_t* counter) const {
    std::vector<std::int64_t> result(queries.size(), 0);
    if (counter) *counter += static_cast<std::int64_t>(queries.size());
    std::map<std::int32_t, std::vector<std::size_t>> by_level;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      by_level[queries[i].level].push_back(i);
    }
    for (const auto& [level, idx] : by_level) {
      std::vector<std::int64_t> keys;
      keys.reserve(idx.size());
      for (std::size_t i : idx) {
        const auto& q = queries[i];
        keys.push_back(pack(level, q.sub, q.node_start / width(level),
                            q.color, q.thr));
      }
      auto dq = DistVector<std::int64_t>::from_host(c, keys);
      const auto counts =
          mpc::rank_search(c, levels_[static_cast<std::size_t>(level)], dq)
              .to_host();
      for (std::size_t k = 0; k < idx.size(); ++k) result[idx[k]] = counts[k];
    }
    return result;
  }

 private:
  std::int64_t h_;
  std::int64_t fanout_;
  std::int64_t coord_mult_;
  std::int32_t top_ = 0;
  std::int64_t width_top_ = 1;
  std::vector<std::int64_t> nodes_per_sub_;
  std::vector<DistVector<std::int64_t>> levels_;
};

// ---------------------------------------------------------------------------
// Grid-line descent (§3.2).
// ---------------------------------------------------------------------------

struct LineTask {
  std::int32_t sub;
  std::int64_t pos;   // the fixed coordinate of this line, in [0, size]
  std::int64_t size;  // parent size
  // Filled by the descent:
  std::vector<std::int64_t> c_below;  // per color: #points with coord < pos
  std::vector<std::int64_t> totals;   // per color: #points
  // cmp[pair(q,r)] = first i with δ_{q,r}(i, pos) > 0 (size+1 if none).
  std::vector<std::int64_t> cmp;
  monge::LineData data;  // assembled intervals (grid_anchors filled later)
};

std::size_t pair_index(std::int32_t q, std::int32_t r, std::int64_t h) {
  // index of (q, r), q < r, in lexicographic pair order
  return static_cast<std::size_t>(q * (2 * h - q - 1) / 2 + (r - q - 1));
}

/// δ_{q,r}(0, pos) = Σ_{q<=x<r} (C_x(pos) − cnt_x)  (always <= 0).
std::int64_t delta_at_zero(const LineTask& line, std::int32_t q,
                           std::int32_t r) {
  std::int64_t v = 0;
  for (std::int32_t x = q; x < r; ++x) {
    v += line.c_below[static_cast<std::size_t>(x)] -
         line.totals[static_cast<std::size_t>(x)];
  }
  return v;
}

/// Runs all line descents against one axis index. `h` is the number of
/// colors. Fills c_below/totals/cmp/data for every line.
void run_line_descents(Cluster& c, const TreeIndex& tree,
                       std::vector<LineTask>& lines, std::int64_t h,
                       std::int64_t* query_counter) {
  // Phase A: base counts (root-node queries).
  {
    std::vector<RankQuery> qs;
    for (const auto& line : lines) {
      for (std::int32_t x = 0; x < h; ++x) {
        qs.push_back(RankQuery{tree.top_level(), line.sub, 0, x, line.pos});
        qs.push_back(RankQuery{tree.top_level(), line.sub, 0, x, 0});
      }
      qs.push_back(RankQuery{tree.top_level(), line.sub, 0,
                             static_cast<std::int32_t>(h), 0});
    }
    const auto ans = tree.answer(c, qs, query_counter);
    std::size_t at = 0;
    for (auto& line : lines) {
      line.c_below.assign(static_cast<std::size_t>(h), 0);
      line.totals.assign(static_cast<std::size_t>(h), 0);
      std::vector<std::int64_t> lo(static_cast<std::size_t>(h) + 1, 0);
      for (std::int32_t x = 0; x < h; ++x) {
        line.c_below[static_cast<std::size_t>(x)] = ans[at] - ans[at + 1];
        lo[static_cast<std::size_t>(x)] = ans[at + 1];
        at += 2;
      }
      lo[static_cast<std::size_t>(h)] = ans[at++];
      for (std::int32_t x = 0; x < h; ++x) {
        line.totals[static_cast<std::size_t>(x)] =
            lo[static_cast<std::size_t>(x) + 1] -
            lo[static_cast<std::size_t>(x)];
      }
    }
  }

  // Phase B: simultaneous descents for every (line, q<r) pair.
  struct Search {
    std::size_t line;
    std::int32_t q, r;
    std::int64_t node_start = 0;
    std::int64_t delta = 0;  // δ at node_start (invariant: <= 0)
  };
  std::vector<Search> searches;
  for (std::size_t li = 0; li < lines.size(); ++li) {
    lines[li].cmp.assign(static_cast<std::size_t>(h * (h - 1) / 2), 0);
    for (std::int32_t q = 0; q < h; ++q) {
      for (std::int32_t r = q + 1; r < h; ++r) {
        Search s;
        s.line = li;
        s.q = q;
        s.r = r;
        s.delta = delta_at_zero(lines[li], q, r);
        searches.push_back(s);
      }
    }
  }

  const std::int64_t f = tree.width(1);
  for (std::int32_t level = tree.top_level(); level >= 1; --level) {
    const std::int64_t w = tree.width(level - 1);
    std::vector<RankQuery> qs;
    qs.reserve(searches.size() * static_cast<std::size_t>(2 * f));
    for (const auto& s : searches) {
      for (std::int64_t k = 0; k < f; ++k) {
        const std::int64_t child = s.node_start + k * w;
        qs.push_back(RankQuery{static_cast<std::int32_t>(level - 1),
                               lines[s.line].sub, child, s.r,
                               lines[s.line].pos});
        qs.push_back(RankQuery{static_cast<std::int32_t>(level - 1),
                               lines[s.line].sub, child, s.q,
                               lines[s.line].pos});
      }
    }
    const auto ans = tree.answer(c, qs, query_counter);
    std::size_t at = 0;
    for (auto& s : searches) {
      // Boundary deltas: δ(start + (k+1)w) = δ(start + kw) + Δ_k with
      // Δ_k = RANK(child_k, r, pos) − RANK(child_k, q, pos).
      std::int64_t best_k = 0;
      std::int64_t best_delta = s.delta;
      std::int64_t cur = s.delta;
      for (std::int64_t k = 0; k < f; ++k) {
        const std::int64_t d = ans[at] - ans[at + 1];
        at += 2;
        if (k + 1 < f) {
          cur += d;
          if (cur <= 0) {
            best_k = k + 1;
            best_delta = cur;
          }
        }
      }
      s.node_start += best_k * w;
      s.delta = best_delta;
    }
  }

  for (const auto& s : searches) {
    auto& line = lines[s.line];
    // Leaf node [t, t+1) with δ(t) <= 0; δ(t+1) > 0 or t beyond the end.
    line.cmp[pair_index(s.q, s.r, h)] =
        std::min<std::int64_t>(s.node_start + 1, line.size + 1);
  }

  // Assemble opt intervals per line: opt(0) = 0 always (δ_{q,r}(0) <= 0);
  // opt can change only at cmp breakpoints.
  for (auto& line : lines) {
    std::vector<std::int64_t> bps(line.cmp.begin(), line.cmp.end());
    std::sort(bps.begin(), bps.end());
    bps.erase(std::unique(bps.begin(), bps.end()), bps.end());
    const auto opt_at = [&](std::int64_t i) {
      std::int32_t best = 0;
      for (std::int32_t r = 1; r < h; ++r) {
        if (i >= line.cmp[pair_index(best, r, h)]) best = r;
      }
      return best;
    };
    line.data.pos = line.pos;
    line.data.start = {0};
    line.data.value = {0};
    for (std::int64_t bp : bps) {
      if (bp <= 0 || bp > line.size) continue;
      const std::int32_t v = opt_at(bp);
      if (v != line.data.value.back()) {
        line.data.start.push_back(bp);
        line.data.value.push_back(v);
      }
    }
  }
}

/// Decomposes [0, end) into tree nodes (aligned, widths F^l), greedily from
/// the largest width. At most (F-1)·levels nodes.
std::vector<std::pair<std::int32_t, std::int64_t>> node_decomposition(
    const TreeIndex& tree, std::int64_t end) {
  std::vector<std::pair<std::int32_t, std::int64_t>> out;
  std::int64_t pos = 0;
  for (std::int32_t level = tree.top_level(); level >= 0 && pos < end;
       --level) {
    const std::int64_t w = tree.width(level);
    while (pos + w <= end) {
      out.push_back({level, pos});
      pos += w;
    }
  }
  MONGE_CHECK(pos == end);
  return out;
}

/// The paper's split arity max(2, n^{(1−δ)/10}), with δ = log m / log n.
std::int64_t paper_h(std::int64_t n, const Cluster& cluster) {
  const std::int64_t m = cluster.machines();
  const double delta =
      std::log(static_cast<double>(std::max<std::int64_t>(m, 2))) /
      std::log(static_cast<double>(std::max<std::int64_t>(n, 2)));
  return std::max<std::int64_t>(
      2, ipow_frac(std::max<std::int64_t>(n, 2),
                   std::max(0.0, 1.0 - delta) / 10.0));
}

}  // namespace

void validate_options(const MpcMultiplyOptions& options) {
  const auto arity = [](std::int64_t v, const char* name) {
    if (v == 0 || v >= 2) return;
    throw InvalidRequestError(std::string("MpcMultiplyOptions.") + name +
                              " must be 0 (paper schedule) or >= 2, got " +
                              std::to_string(v));
  };
  arity(options.split_h, "split_h");
  arity(options.tree_fanout, "tree_fanout");
  if (options.box_g < 0) {
    throw InvalidRequestError(
        "MpcMultiplyOptions.box_g must be >= 0 (0 = ceil(n / m)), got " +
        std::to_string(options.box_g));
  }
}

std::vector<Perm> mpc_unit_monge_multiply_batch(
    Cluster& cluster, const std::vector<std::pair<Perm, Perm>>& pairs,
    const MpcMultiplyOptions& options, MpcMultiplyReport* report) {
  validate_options(options);
  const std::int64_t m = cluster.machines();

  MpcMultiplyReport rep;
  const std::int64_t start_rounds = cluster.rounds();

  // Level 0: one subproblem per input pair.
  LevelMeta meta0;
  meta0.max_size = 0;
  std::vector<SubPoint> host_a, host_b;
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    const Perm& a = pairs[t].first;
    const Perm& b = pairs[t].second;
    MONGE_CHECK_MSG(a.is_full_permutation() && b.is_full_permutation(),
                    "Theorem 1.1 takes full permutations; use "
                    "mpc_subunit_multiply for sub-permutations");
    MONGE_CHECK(b.rows() == a.rows());
    meta0.offset.push_back(meta0.offset.empty()
                               ? 0
                               : meta0.offset.back() + meta0.size.back());
    meta0.size.push_back(a.rows());
    meta0.max_size = std::max(meta0.max_size, a.rows());
    for (std::int64_t r = 0; r < a.rows(); ++r) {
      host_a.push_back(SubPoint{static_cast<std::int32_t>(t),
                                static_cast<std::int32_t>(r), a.col_of(r)});
      host_b.push_back(SubPoint{static_cast<std::int32_t>(t),
                                static_cast<std::int32_t>(r), b.col_of(r)});
    }
  }
  const auto n = static_cast<std::int64_t>(host_a.size());  // total points

  // Resolve the schedule from the largest problem in the batch. An H above
  // n_sched only adds empty blocks and a fanout above n_sched + 1 only adds
  // empty tree children, while the grid-line descents grow ~H² and 2F per
  // step, so both are capped there.
  const std::int64_t n_sched = std::max<std::int64_t>(meta0.max_size, 2);
  const std::int64_t h_split =
      std::min(n_sched, options.split_h > 0 ? options.split_h
                                            : paper_h(n_sched, cluster));
  const std::int64_t fanout = std::min(
      n_sched + 1, options.tree_fanout > 0 ? options.tree_fanout : h_split);
  const std::int64_t g = options.box_g > 0
                             ? options.box_g
                             : std::max<std::int64_t>(1, ceil_div(n, m));
  rep.split_h = h_split;
  rep.tree_fanout = fanout;
  rep.box_g = g;

  if (n == 0) {
    if (report) *report = rep;
    std::vector<Perm> out;
    for (const auto& pr : pairs) out.push_back(Perm(pr.first.rows(), pr.first.rows()));
    return out;
  }

  auto a_pts = DistVector<SubPoint>::from_host(cluster, host_a);
  auto b_pts = DistVector<SubPoint>::from_host(cluster, host_b);

  std::vector<LevelMeta> metas;
  metas.push_back(std::move(meta0));

  // -------------------------------------------------------------------
  // Top-down split phase (§3.1): one sort of PA and PB per level.
  // -------------------------------------------------------------------
  std::vector<DistVector<std::int32_t>> row_maps, col_maps;
  while (metas.back().max_size > g) {
    const LevelMeta& meta = metas.back();
    LevelMeta next;
    next.max_size = 0;
    for (std::int64_t t = 0; t < meta.subs(); ++t) {
      const std::int64_t k = meta.size[static_cast<std::size_t>(t)];
      for (std::int64_t q = 0; q < h_split; ++q) {
        const std::int64_t sz = (q + 1) * k / h_split - q * k / h_split;
        next.offset.push_back(
            next.offset.empty()
                ? 0
                : next.offset.back() + next.size.back());
        next.size.push_back(sz);
        next.max_size = std::max(next.max_size, sz);
      }
    }

    // Child id and block base for a point, given its splitting coordinate.
    const auto child_of = [&](std::int32_t sub, std::int64_t coord) {
      const std::int64_t k = meta.size[static_cast<std::size_t>(sub)];
      const std::int64_t q = std::min<std::int64_t>(
          h_split - 1, coord * h_split / std::max<std::int64_t>(k, 1));
      // floor rounding can be off by one around block boundaries
      std::int64_t qq = q;
      while (qq > 0 && coord < qq * k / h_split) --qq;
      while (qq + 1 < h_split && coord >= (qq + 1) * k / h_split) ++qq;
      return qq;
    };
    const auto block_base = [&](std::int32_t sub, std::int64_t q) {
      const std::int64_t k = meta.size[static_cast<std::size_t>(sub)];
      return q * k / h_split;
    };

    const std::int64_t key_mult = meta.max_size + 1;

    // PA: child by column block, rows compacted by rank (the sort), columns
    // shifted into the block.
    mpc::sample_sort(cluster, a_pts, [&](const SubPoint& p) {
      const std::int64_t q = child_of(p.sub, p.col);
      return (static_cast<std::int64_t>(p.sub) * h_split + q) * key_mult +
             p.row;
    });
    DistVector<std::int32_t> row_map(cluster, n);
    cluster.run_round([&](MachineCtx& mc) {
      auto& loc = a_pts.local(mc.id());
      auto& map_loc = row_map.local(mc.id());
      const std::int64_t lo = a_pts.layout().lo(mc.id());
      for (std::size_t i = 0; i < loc.size(); ++i) {
        const std::int64_t global = lo + static_cast<std::int64_t>(i);
        const std::int32_t child = next.sub_of(global);
        map_loc[i] = loc[i].row;  // parent-local row of this child row
        const std::int64_t q = child % h_split;
        loc[i].col = static_cast<std::int32_t>(
            loc[i].col - block_base(loc[i].sub, q));
        loc[i].row = static_cast<std::int32_t>(
            global - next.offset[static_cast<std::size_t>(child)]);
        loc[i].sub = child;
      }
    });

    // PB: child by row block, columns compacted by rank, rows shifted.
    mpc::sample_sort(cluster, b_pts, [&](const SubPoint& p) {
      const std::int64_t q = child_of(p.sub, p.row);
      return (static_cast<std::int64_t>(p.sub) * h_split + q) * key_mult +
             p.col;
    });
    DistVector<std::int32_t> col_map(cluster, n);
    cluster.run_round([&](MachineCtx& mc) {
      auto& loc = b_pts.local(mc.id());
      auto& map_loc = col_map.local(mc.id());
      const std::int64_t lo = b_pts.layout().lo(mc.id());
      for (std::size_t i = 0; i < loc.size(); ++i) {
        const std::int64_t global = lo + static_cast<std::int64_t>(i);
        const std::int32_t child = next.sub_of(global);
        map_loc[i] = loc[i].col;  // parent-local column of this child column
        const std::int64_t q = child % h_split;
        loc[i].row = static_cast<std::int32_t>(
            loc[i].row - block_base(loc[i].sub, q));
        loc[i].col = static_cast<std::int32_t>(
            global - next.offset[static_cast<std::size_t>(child)]);
        loc[i].sub = child;
      }
    });

    row_maps.push_back(std::move(row_map));
    col_maps.push_back(std::move(col_map));
    metas.push_back(std::move(next));
  }
  rep.levels = static_cast<std::int64_t>(metas.size()) - 1;

  // -------------------------------------------------------------------
  // Leaf solve: every subproblem fits one machine.
  // -------------------------------------------------------------------
  const LevelMeta& leaf = metas.back();
  const mpc::BlockLayout leaf_owner{n, m};
  const auto leaf_machine = [&](std::int32_t sub) {
    return leaf.size[static_cast<std::size_t>(sub)] == 0
               ? 0
               : leaf_owner.owner(leaf.offset[static_cast<std::size_t>(sub)]);
  };
  PerMachine<std::vector<std::pair<std::int64_t, SubPoint>>> a_out(
      static_cast<std::size_t>(m)),
      b_out(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    for (const SubPoint& p : std::as_const(a_pts).local(i)) {
      a_out[static_cast<std::size_t>(i)].push_back({leaf_machine(p.sub), p});
    }
    for (const SubPoint& p : std::as_const(b_pts).local(i)) {
      b_out[static_cast<std::size_t>(i)].push_back({leaf_machine(p.sub), p});
    }
  }
  const auto a_in = mpc::route_items<SubPoint>(cluster, a_out);
  const auto b_in = mpc::route_items<SubPoint>(cluster, b_out);

  PerMachine<std::vector<std::pair<std::int64_t, SubPoint>>> c_out(
      static_cast<std::size_t>(m));
  cluster.run_round([&](MachineCtx& mc) {
    const std::int64_t i = mc.id();
    c_out[static_cast<std::size_t>(i)].clear();  // restartable on recovery
    // Group the received points by subproblem.
    std::map<std::int32_t, std::vector<SubPoint>> as, bs;
    for (const SubPoint& p : a_in[static_cast<std::size_t>(i)]) {
      as[p.sub].push_back(p);
    }
    for (const SubPoint& p : b_in[static_cast<std::size_t>(i)]) {
      bs[p.sub].push_back(p);
    }
    // Pack every leaf into one contiguous buffer and hand the whole batch
    // to this machine's engine in ONE call: a single arena sizing and zero
    // per-leaf heap allocations. The engine is the machine's local memory
    // for this round (§3 step 2: leaves are solved machine-locally) and
    // keeps no state across rounds, so recovery can re-run the round.
    // Machines run concurrently on the cluster pool; within a machine the
    // batch is solved back-to-back (the engine has no pool).
    std::int64_t total = 0;
    for (auto& [sub, ap] : as) {
      const std::int64_t k = leaf.size[static_cast<std::size_t>(sub)];
      MONGE_CHECK_MSG(static_cast<std::int64_t>(ap.size()) == k &&
                          static_cast<std::int64_t>(bs[sub].size()) == k,
                      "leaf sub " << sub << " expected " << k << " points, got "
                                  << ap.size() << "/" << bs[sub].size());
      total += k;
    }
    std::vector<std::int32_t> pa_store(static_cast<std::size_t>(total)),
        pb_store(static_cast<std::size_t>(total)),
        pc_store(static_cast<std::size_t>(total));
    std::vector<std::int32_t> batch_subs;
    std::vector<std::int64_t> batch_offsets;
    std::int64_t at = 0;
    for (auto& [sub, ap] : as) {
      const std::int64_t k = leaf.size[static_cast<std::size_t>(sub)];
      for (const SubPoint& p : ap) {
        MONGE_CHECK_MSG(p.row >= 0 && p.row < k && p.col >= 0 && p.col < k,
                        "leaf A point out of range: sub " << sub << " row "
                                                          << p.row << " col "
                                                          << p.col << " k "
                                                          << k);
        pa_store[static_cast<std::size_t>(at + p.row)] = p.col;
      }
      for (const SubPoint& p : bs[sub]) {
        MONGE_CHECK_MSG(p.row >= 0 && p.row < k && p.col >= 0 && p.col < k,
                        "leaf B point out of range: sub " << sub << " row "
                                                          << p.row << " col "
                                                          << p.col << " k "
                                                          << k);
        pb_store[static_cast<std::size_t>(at + p.row)] = p.col;
      }
      batch_subs.push_back(sub);
      batch_offsets.push_back(at);
      at += k;
    }
    std::vector<PermPairView> views;
    std::vector<std::span<std::int32_t>> outs;
    views.reserve(batch_subs.size());
    outs.reserve(batch_subs.size());
    for (std::size_t j = 0; j < batch_subs.size(); ++j) {
      const auto off = static_cast<std::size_t>(batch_offsets[j]);
      const auto k = static_cast<std::size_t>(
          leaf.size[static_cast<std::size_t>(batch_subs[j])]);
      views.push_back({std::span<const std::int32_t>(pa_store).subspan(off, k),
                       std::span<const std::int32_t>(pb_store).subspan(off, k)});
      outs.push_back(std::span<std::int32_t>(pc_store).subspan(off, k));
    }
    SeaweedEngine engine;
    engine.multiply_batch_into(views, outs);
    for (std::size_t j = 0; j < batch_subs.size(); ++j) {
      const std::int32_t sub = batch_subs[j];
      const std::int64_t k = leaf.size[static_cast<std::size_t>(sub)];
      for (std::int64_t r = 0; r < k; ++r) {
        c_out[static_cast<std::size_t>(i)].push_back(
            {leaf.offset[static_cast<std::size_t>(sub)] + r,
             SubPoint{sub, static_cast<std::int32_t>(r),
                      pc_store[static_cast<std::size_t>(batch_offsets[j] + r)]}});
      }
    }
  });
  auto c_pts = mpc::scatter_to_layout<SubPoint>(cluster, n, c_out);

  // -------------------------------------------------------------------
  // Bottom-up combines.
  // -------------------------------------------------------------------
  for (std::int64_t level = rep.levels - 1; level >= 0; --level) {
    const LevelMeta& parent = metas[static_cast<std::size_t>(level)];
    const LevelMeta& child = metas[static_cast<std::size_t>(level) + 1];
    const DistVector<std::int32_t>& row_map =
        row_maps[static_cast<std::size_t>(level)];
    const DistVector<std::int32_t>& col_map =
        col_maps[static_cast<std::size_t>(level)];

    // --- Expand child results to parent coordinates. The row map is
    // index-aligned with c_pts (child row r of child t sits at global index
    // offset[t]+r), so rows resolve locally; columns need one lookup trip.
    struct ColReq {
      std::int64_t back_idx;  // global index of the requesting entry
      std::int64_t map_idx;   // col_map index to read
    };
    PerMachine<std::vector<std::pair<std::int64_t, ColReq>>> req_out(
        static_cast<std::size_t>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      const std::int64_t lo = c_pts.layout().lo(i);
      const auto& loc = std::as_const(c_pts).local(i);
      for (std::size_t k = 0; k < loc.size(); ++k) {
        const std::int64_t map_idx =
            child.offset[static_cast<std::size_t>(loc[k].sub)] + loc[k].col;
        req_out[static_cast<std::size_t>(i)].push_back(
            {col_map.layout().owner(map_idx),
             ColReq{lo + static_cast<std::int64_t>(k), map_idx}});
      }
    }
    const auto reqs = mpc::route_items<ColReq>(cluster, req_out);
    struct ColAns {
      std::int64_t back_idx;
      std::int32_t value;
    };
    PerMachine<std::vector<std::pair<std::int64_t, ColAns>>> ans_out(
        static_cast<std::size_t>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      const std::int64_t lo = col_map.layout().lo(i);
      for (const ColReq& rq : reqs[static_cast<std::size_t>(i)]) {
        ans_out[static_cast<std::size_t>(i)].push_back(
            {c_pts.layout().owner(rq.back_idx),
             ColAns{rq.back_idx,
                    col_map.local(i)[static_cast<std::size_t>(
                        rq.map_idx - lo)]}});
      }
    }
    const auto answers = mpc::route_items<ColAns>(cluster, ans_out);

    // Build the colored union in parent coordinates.
    PerMachine<std::vector<std::pair<std::int64_t, ColoredPt>>> u_out(
        static_cast<std::size_t>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      const std::int64_t lo = c_pts.layout().lo(i);
      const auto& loc = std::as_const(c_pts).local(i);
      const auto& rm = row_map.local(i);
      for (const ColAns& an : answers[static_cast<std::size_t>(i)]) {
        const auto k = static_cast<std::size_t>(an.back_idx - lo);
        const SubPoint& p = loc[k];
        const std::int32_t psub =
            static_cast<std::int32_t>(p.sub / h_split);
        const std::int32_t color =
            static_cast<std::int32_t>(p.sub % h_split);
        const std::int32_t prow = rm[k];  // aligned with this entry
        const ColoredPt cp{psub, prow, an.value, color};
        u_out[static_cast<std::size_t>(i)].push_back(
            {parent.offset[static_cast<std::size_t>(psub)] + prow, cp});
      }
    }
    auto u_pts = mpc::scatter_to_layout<ColoredPt>(cluster, n, u_out);

    // --- Merge-tree indices for both axes.
    const TreeIndex row_tree(cluster, u_pts, parent, h_split, fanout, true);
    const TreeIndex col_tree(cluster, u_pts, parent, h_split, fanout, false);

    // --- Grid lines: descents on both axes.
    std::vector<LineTask> vlines, hlines;
    std::vector<std::vector<std::size_t>> vline_of(
        static_cast<std::size_t>(parent.subs()));
    std::vector<std::vector<std::size_t>> hline_of(
        static_cast<std::size_t>(parent.subs()));
    for (std::int64_t t = 0; t < parent.subs(); ++t) {
      const std::int64_t k = parent.size[static_cast<std::size_t>(t)];
      if (k == 0) continue;
      const std::int64_t nb = ceil_div(k, g);
      for (std::int64_t j = 0; j <= nb; ++j) {
        vline_of[static_cast<std::size_t>(t)].push_back(vlines.size());
        vlines.push_back(LineTask{static_cast<std::int32_t>(t),
                                  std::min(j * g, k), k, {}, {}, {}, {}});
        hline_of[static_cast<std::size_t>(t)].push_back(hlines.size());
        hlines.push_back(LineTask{static_cast<std::int32_t>(t),
                                  std::min(j * g, k), k, {}, {}, {}, {}});
      }
    }
    run_line_descents(cluster, row_tree, vlines, h_split, &rep.rank_queries);
    run_line_descents(cluster, col_tree, hlines, h_split, &rep.rank_queries);
    rep.lines += static_cast<std::int64_t>(vlines.size() + hlines.size());

    // --- Classify boxes; issue anchor queries for crossed ones.
    struct Box {
      std::int32_t sub;
      std::int64_t bi, bj;
      std::int64_t r0, r1, c0, c1;
      std::int32_t kmin, kmax;
      std::size_t vline_right, hline_top;
    };
    std::vector<Box> crossed;
    // box_dir[sub] maps (bi, bj) -> uniform opt value, or ~index into
    // `crossed` for crossed boxes.
    std::vector<std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t>>
        box_dir(static_cast<std::size_t>(parent.subs()));
    for (std::int64_t t = 0; t < parent.subs(); ++t) {
      const std::int64_t k = parent.size[static_cast<std::size_t>(t)];
      if (k == 0) continue;
      const std::int64_t nb = ceil_div(k, g);
      const auto& vl = vline_of[static_cast<std::size_t>(t)];
      const auto& hl = hline_of[static_cast<std::size_t>(t)];
      const auto corner = [&](std::int64_t i, std::int64_t j) {
        return vlines[vl[static_cast<std::size_t>(j)]].data.opt_at(
            std::min(i * g, k));
      };
      for (std::int64_t bi = 0; bi < nb; ++bi) {
        for (std::int64_t bj = 0; bj < nb; ++bj) {
          const std::int32_t c00 = corner(bi, bj), c01 = corner(bi, bj + 1),
                             c10 = corner(bi + 1, bj),
                             c11 = corner(bi + 1, bj + 1);
          if (c00 == c01 && c00 == c10 && c00 == c11) {
            box_dir[static_cast<std::size_t>(t)][{bi, bj}] = c00;
            continue;
          }
          Box box;
          box.sub = static_cast<std::int32_t>(t);
          box.bi = bi;
          box.bj = bj;
          box.r0 = bi * g;
          box.r1 = std::min((bi + 1) * g, k);
          box.c0 = bj * g;
          box.c1 = std::min((bj + 1) * g, k);
          box.kmin = std::min(std::min(c00, c01), std::min(c10, c11));
          box.kmax = std::max(std::max(c00, c01), std::max(c10, c11));
          box.vline_right = vl[static_cast<std::size_t>(bj + 1)];
          box.hline_top = hl[static_cast<std::size_t>(bi)];
          box_dir[static_cast<std::size_t>(t)][{bi, bj}] =
              ~static_cast<std::int64_t>(crossed.size());
          crossed.push_back(box);
        }
      }
    }
    rep.crossed_boxes += static_cast<std::int64_t>(crossed.size());

    // Anchor values δ_{k,k+1}(r0, c1) for every crossed box: δ at row 0
    // plus rank counts over the node decomposition of [0, r0).
    std::vector<std::vector<std::int64_t>> box_anchor(crossed.size());
    {
      std::vector<RankQuery> qs;
      std::vector<std::tuple<std::size_t, std::int32_t>> slots;
      for (std::size_t bx = 0; bx < crossed.size(); ++bx) {
        const Box& box = crossed[bx];
        box_anchor[bx].assign(
            static_cast<std::size_t>(box.kmax - box.kmin), 0);
        const auto decomp = node_decomposition(row_tree, box.r0);
        for (std::int32_t kk = box.kmin; kk < box.kmax; ++kk) {
          box_anchor[bx][static_cast<std::size_t>(kk - box.kmin)] =
              delta_at_zero(vlines[box.vline_right], kk, kk + 1);
          for (const auto& [lvl, start] : decomp) {
            qs.push_back(RankQuery{lvl, box.sub, start, kk + 1,
                                   vlines[box.vline_right].pos});
            qs.push_back(RankQuery{lvl, box.sub, start, kk,
                                   vlines[box.vline_right].pos});
            slots.push_back({bx, kk});
          }
        }
      }
      const auto ans = row_tree.answer(cluster, qs, &rep.rank_queries);
      for (std::size_t s = 0; s < slots.size(); ++s) {
        const auto [bx, kk] = slots[s];
        box_anchor[bx][static_cast<std::size_t>(kk - crossed[bx].kmin)] +=
            ans[2 * s] - ans[2 * s + 1];
      }
    }

    // --- Route strip points to box machines, and uncrossed survivors
    // straight to the assembly.
    const auto box_machine = [&](std::size_t bx) {
      return static_cast<std::int64_t>((bx * 2654435761u) % static_cast<std::size_t>(m));
    };
    struct StripPt {
      std::int32_t box;
      std::int32_t row, col, color;
      std::int32_t is_row_strip;
    };
    // Per-parent lists of crossed boxes by row and column block, so a point
    // touches only the boxes of its own strips.
    std::vector<std::map<std::int64_t, std::vector<std::size_t>>> row_boxes(
        static_cast<std::size_t>(parent.subs())),
        col_boxes(static_cast<std::size_t>(parent.subs()));
    for (std::size_t bx = 0; bx < crossed.size(); ++bx) {
      row_boxes[static_cast<std::size_t>(crossed[bx].sub)][crossed[bx].bi]
          .push_back(bx);
      col_boxes[static_cast<std::size_t>(crossed[bx].sub)][crossed[bx].bj]
          .push_back(bx);
    }
    PerMachine<std::vector<std::pair<std::int64_t, StripPt>>> strip_out(
        static_cast<std::size_t>(m));
    PerMachine<std::vector<std::pair<std::int64_t, SubPoint>>> asm_out(
        static_cast<std::size_t>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      for (const ColoredPt& p : std::as_const(u_pts).local(i)) {
        const auto& dir = box_dir[static_cast<std::size_t>(p.sub)];
        const std::int64_t bi = p.row / g, bj = p.col / g;
        const std::int64_t own_state = dir.at({bi, bj});
        if (own_state >= 0 && p.color == own_state) {
          asm_out[static_cast<std::size_t>(i)].push_back(
              {parent.offset[static_cast<std::size_t>(p.sub)] + p.row,
               SubPoint{p.sub, p.row, p.col}});
        }
        const auto& rb = row_boxes[static_cast<std::size_t>(p.sub)];
        if (const auto it = rb.find(bi); it != rb.end()) {
          for (std::size_t bx : it->second) {
            const Box& box = crossed[bx];
            if (p.color < box.kmin || p.color > box.kmax) continue;
            strip_out[static_cast<std::size_t>(i)].push_back(
                {box_machine(bx),
                 StripPt{static_cast<std::int32_t>(bx), p.row, p.col,
                         p.color, 1}});
          }
        }
        const auto& cb = col_boxes[static_cast<std::size_t>(p.sub)];
        if (const auto it = cb.find(bj); it != cb.end()) {
          for (std::size_t bx : it->second) {
            const Box& box = crossed[bx];
            if (p.color < box.kmin || p.color > box.kmax) continue;
            strip_out[static_cast<std::size_t>(i)].push_back(
                {box_machine(bx),
                 StripPt{static_cast<std::int32_t>(bx), p.row, p.col,
                         p.color, 0}});
          }
        }
      }
    }
    const auto strips = mpc::route_items<StripPt>(cluster, strip_out);

    // --- Solve crossed boxes locally on their machines. Machines run
    // concurrently, so per-machine counters are accumulated in disjoint
    // slots and summed after the round (incrementing rep directly from the
    // lambda would race).
    std::vector<std::int64_t> interesting_per_machine(
        static_cast<std::size_t>(m), 0);
    // asm_out already holds the host-pushed uncrossed survivors; remember
    // where they end so a recovery re-execution can truncate back to the
    // baseline instead of appending box results twice.
    std::vector<std::size_t> asm_base(static_cast<std::size_t>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      asm_base[static_cast<std::size_t>(i)] =
          asm_out[static_cast<std::size_t>(i)].size();
    }
    cluster.run_round([&](MachineCtx& mc) {
      const std::int64_t i = mc.id();
      asm_out[static_cast<std::size_t>(i)].resize(
          asm_base[static_cast<std::size_t>(i)]);
      std::int64_t interesting = 0;
      std::map<std::int32_t, BoxTask> tasks;
      for (std::size_t bx = 0; bx < crossed.size(); ++bx) {
        if (box_machine(bx) != i) continue;
        const Box& box = crossed[bx];
        BoxTask task;
        task.r0 = box.r0;
        task.r1 = box.r1;
        task.c0 = box.c0;
        task.c1 = box.c1;
        task.kmin = box.kmin;
        task.kmax = box.kmax;
        const LineData& top = hlines[box.hline_top].data;
        const LineData& right = vlines[box.vline_right].data;
        for (std::int64_t cc = box.c0; cc <= box.c1; ++cc) {
          task.top_opt.push_back(top.opt_at(cc));
        }
        for (std::int64_t rr = box.r0; rr <= box.r1; ++rr) {
          task.right_opt.push_back(right.opt_at(rr));
        }
        task.anchor = box_anchor[bx];
        tasks[static_cast<std::int32_t>(bx)] = std::move(task);
      }
      for (const StripPt& sp : strips[static_cast<std::size_t>(i)]) {
        auto& task = tasks.at(sp.box);
        const ColoredPoint cp{sp.row, sp.col, sp.color};
        if (sp.is_row_strip) {
          task.row_points.push_back(cp);
        } else {
          task.col_points.push_back(cp);
        }
      }
      for (auto& [bx, task] : tasks) {
        const BoxResult res = solve_box(task);
        const Box& box = crossed[static_cast<std::size_t>(bx)];
        for (const Point& p : res.interesting) {
          asm_out[static_cast<std::size_t>(i)].push_back(
              {parent.offset[static_cast<std::size_t>(box.sub)] + p.row,
               SubPoint{box.sub, static_cast<std::int32_t>(p.row),
                        static_cast<std::int32_t>(p.col)}});
        }
        for (const Point& p : res.surviving) {
          asm_out[static_cast<std::size_t>(i)].push_back(
              {parent.offset[static_cast<std::size_t>(box.sub)] + p.row,
               SubPoint{box.sub, static_cast<std::int32_t>(p.row),
                        static_cast<std::int32_t>(p.col)}});
        }
        interesting += static_cast<std::int64_t>(res.interesting.size());
      }
      interesting_per_machine[static_cast<std::size_t>(i)] = interesting;
    });
    for (std::int64_t cnt : interesting_per_machine) {
      rep.interesting_points += cnt;
    }

    // --- Assemble this level's results (validates one point per row).
    c_pts = mpc::scatter_to_layout<SubPoint>(cluster, n, asm_out);
  }

  // Read out the result permutations, one per input pair.
  const auto host = c_pts.to_host();
  const LevelMeta& top = metas[0];
  std::vector<Perm> out;
  for (std::int64_t t = 0; t < top.subs(); ++t) {
    const std::int64_t k = top.size[static_cast<std::size_t>(t)];
    std::vector<std::int32_t> rc(static_cast<std::size_t>(k), kNone);
    for (std::int64_t idx = 0; idx < k; ++idx) {
      const SubPoint& p = host[static_cast<std::size_t>(
          top.offset[static_cast<std::size_t>(t)] + idx)];
      MONGE_CHECK(p.sub == t);
      rc[static_cast<std::size_t>(p.row)] = p.col;
    }
    Perm perm = Perm::from_rows(std::move(rc), k);
    MONGE_CHECK_MSG(perm.is_full_permutation(),
                    "MPC multiply did not produce a permutation");
    out.push_back(std::move(perm));
  }

  rep.rounds = cluster.rounds() - start_rounds;
  rep.max_machine_words = cluster.stats().max_machine_words;
  if (report) *report = rep;
  return out;
}

Perm mpc_unit_monge_multiply(Cluster& cluster, const Perm& a, const Perm& b,
                             const MpcMultiplyOptions& options,
                             MpcMultiplyReport* report) {
  std::vector<std::pair<Perm, Perm>> pairs;
  pairs.emplace_back(a, b);
  auto out = mpc_unit_monge_multiply_batch(cluster, pairs, options, report);
  return std::move(out[0]);
}

MpcMultiplyOptions paper_profile(std::int64_t n, const Cluster& cluster) {
  MpcMultiplyOptions o;
  o.split_h = paper_h(n, cluster);
  o.tree_fanout = o.split_h;
  return o;
}

MpcMultiplyOptions warmup_profile(std::int64_t n, const Cluster& cluster) {
  MpcMultiplyOptions o;
  o.split_h = 2;
  o.tree_fanout = paper_h(n, cluster);
  return o;
}

MpcMultiplyOptions chs23_profile(std::int64_t, const Cluster&) {
  MpcMultiplyOptions o;
  o.split_h = 2;
  o.tree_fanout = 2;
  return o;
}

}  // namespace monge::core
