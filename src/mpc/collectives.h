// Deterministic O(1)-round MPC collectives (the [GSZ11] toolbox of §2.2).
//
// Everything here is measured, not assumed: each collective advances the
// cluster's round counter and routes real messages subject to the space
// checks. For a fixed δ the round counts are constants (they grow only with
// 1/(1−δ), never with n):
//
//   sample_sort        Lemma 2.5 — top-down F-ary splitter refinement with
//                      mergeable quantile sketches, F = Θ(√s); the group
//                      hierarchy has ⌈log_F m⌉ = O(δ/(1−δ)) levels.
//   exclusive_prefix   Lemma 2.4 — up/down sweep of a fanout-Θ(s) tree.
//   route_items        one all-to-all round (messages grouped per
//                      destination).
//   scatter_to_layout  route (global_index, value) pairs into a canonical
//                      block-distributed vector.
//   inverse_permutation Lemma 2.3 — one routing round.
//   rank_search        Lemma 2.6 — tag in place, sort together, prefix,
//                      route back.
//   gather_to_machine  collect a whole DistVector on one machine (used for
//                      machine-local base cases; throws SpaceLimitError if
//                      it does not fit, which is exactly the fully-
//                      scalability experiment).
//
// Every round closure here follows the cluster's restartable-round
// contract (mpc/cluster.h): host-side accumulators are cleared at round
// entry or double-buffered, so crash recovery can roll registered state
// back and re-execute a round without double-absorbing anything.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/dist_vector.h"
#include "util/check.h"
#include "util/math.h"

namespace monge::mpc {

// ---------------------------------------------------------------------------
// F-ary rank-tree helpers (BFS numbering: children of p are pF+1 .. pF+F).
// ---------------------------------------------------------------------------

inline std::int64_t tree_parent(std::int64_t rank, std::int64_t f) {
  return (rank - 1) / f;
}

inline int tree_depth_of_rank(std::int64_t rank, std::int64_t f) {
  int d = 0;
  while (rank > 0) {
    rank = (rank - 1) / f;
    ++d;
  }
  return d;
}

/// Depth of the deepest rank in a tree over ranks [0, size). BFS numbering
/// makes depth nondecreasing in rank, so it is depth(size-1).
inline int tree_max_depth(std::int64_t size, std::int64_t f) {
  return size <= 1 ? 0 : tree_depth_of_rank(size - 1, f);
}

/// Sort and broadcast fan-out: F = Θ(√s), so one tree node's traffic (F
/// sketches of O(F) words) fits the space budget at every δ.
inline std::int64_t collective_fanout(const Cluster& c) {
  const auto s = static_cast<double>(c.space_words());
  auto f = static_cast<std::int64_t>(std::sqrt(s / 16.0));
  f = std::max<std::int64_t>(f, 2);
  f = std::min<std::int64_t>(f, 1 << 12);
  return f;
}

/// Prefix fan-out F = clamp(s/16, 2, 4096): a prefix message is at most 4
/// words per child, envelope included. Depth 1 on fully_scalable, δ <= 1/2.
inline std::int64_t prefix_fanout(const Cluster& c) {
  return std::clamp<std::int64_t>(c.space_words() / 16, 2, 1 << 12);
}

namespace tags {
inline constexpr std::int64_t kSketch = 1;
inline constexpr std::int64_t kSplitters = 2;
inline constexpr std::int64_t kFragment = 3;
inline constexpr std::int64_t kChunk = 4;
inline constexpr std::int64_t kDown = 6;
inline constexpr std::int64_t kItem = 8;
/// Up-sweep messages use tags [kUp, kUp + fanout) to carry the child slot.
inline constexpr std::int64_t kUp = 1 << 20;
}  // namespace tags

// ---------------------------------------------------------------------------
// Prefix sums over one value per machine (Lemma 2.4).
// ---------------------------------------------------------------------------

struct PrefixResult {
  PerMachine<std::int64_t> prefix;  // exclusive prefix of machine values
  std::int64_t total = 0;           // known by every machine afterwards
};

/// Exclusive prefix sums of one int64 per machine via a prefix_fanout-ary
/// up/down sweep; 2·depth + 2 rounds.
PrefixResult exclusive_prefix(Cluster& c, const PerMachine<std::int64_t>& val);

// ---------------------------------------------------------------------------
// One-round routing of typed items.
// ---------------------------------------------------------------------------

/// Delivers arbitrary (destination, item) pairs; messages are grouped per
/// destination. Two rounds (send, absorb). Returns the items received per
/// machine, ordered by sender id (deterministic).
template <typename T>
PerMachine<std::vector<T>> route_items(
    Cluster& c, const PerMachine<std::vector<std::pair<std::int64_t, T>>>& out) {
  const std::int64_t m = c.machines();
  PerMachine<std::vector<T>> received(static_cast<std::size_t>(m));
  c.run_round([&](MachineCtx& mc) {
    const auto& mine = out[static_cast<std::size_t>(mc.id())];
    if (mine.empty()) return;
    // Group by destination without sorting: count the items per
    // destination, then pack each item straight into its destination's
    // payload. Items keep their send order within a destination, and the
    // messages go out in destination order.
    constexpr std::size_t wpe = util::kWordsPerItem<T>;
    std::vector<std::size_t> count(static_cast<std::size_t>(m), 0);
    for (const auto& [to, item] : mine) {
      MONGE_CHECK_MSG(to >= 0 && to < m, "send to invalid machine " << to);
      ++count[static_cast<std::size_t>(to)];
    }
    PerMachine<std::vector<Word>> payload(static_cast<std::size_t>(m));
    for (std::size_t d = 0; d < payload.size(); ++d) {
      payload[d].assign(count[d] * wpe, 0);
      count[d] = 0;  // becomes the fill cursor, in words
    }
    for (const auto& [to, item] : mine) {
      const auto d = static_cast<std::size_t>(to);
      util::pack_item(item, payload[d].data() + count[d]);
      count[d] += wpe;
    }
    for (std::size_t d = 0; d < payload.size(); ++d) {
      if (count[d] > 0) {
        mc.send(static_cast<std::int64_t>(d), tags::kItem,
                std::move(payload[d]));
      }
    }
  });
  c.run_round([&](MachineCtx& mc) {
    auto& mine = received[static_cast<std::size_t>(mc.id())];
    mine.clear();  // restartable: crash recovery re-executes the round
    for (const Message& msg : mc.inbox()) msg.decode_append(mine);
  });
  return received;
}

/// Routes (global_index, value) pairs into a fresh canonically block-
/// distributed DistVector of the given size. Every index must be covered
/// exactly once (checked).
template <typename T>
DistVector<T> scatter_to_layout(
    Cluster& c, std::int64_t total,
    const PerMachine<std::vector<std::pair<std::int64_t, T>>>& items) {
  struct Slot {
    std::int64_t idx;
    T value;
  };
  DistVector<T> dv(c, total);
  const BlockLayout& layout = dv.layout();
  PerMachine<std::vector<std::pair<std::int64_t, Slot>>> out(
      static_cast<std::size_t>(c.machines()));
  for (std::int64_t i = 0; i < c.machines(); ++i) {
    out[static_cast<std::size_t>(i)].reserve(
        items[static_cast<std::size_t>(i)].size());
    for (const auto& [idx, value] : items[static_cast<std::size_t>(i)]) {
      MONGE_DCHECK(idx >= 0 && idx < total);
      out[static_cast<std::size_t>(i)].push_back(
          {layout.owner(idx), Slot{idx, value}});
    }
  }
  auto received = route_items<Slot>(c, out);
  std::vector<std::uint8_t> seen;
  for (std::int64_t i = 0; i < c.machines(); ++i) {
    auto& loc = dv.local(i);
    seen.assign(loc.size(), 0);
    for (const Slot& s : received[static_cast<std::size_t>(i)]) {
      const std::int64_t k = s.idx - layout.lo(i);
      MONGE_CHECK_MSG(k >= 0 && k < static_cast<std::int64_t>(loc.size()),
                      "index " << s.idx << " not owned by machine " << i);
      MONGE_CHECK_MSG(!seen[static_cast<std::size_t>(k)],
                      "duplicate index " << s.idx);
      seen[static_cast<std::size_t>(k)] = 1;
      loc[static_cast<std::size_t>(k)] = s.value;
    }
    for (std::uint8_t s : seen) {
      MONGE_CHECK_MSG(s, "scatter_to_layout left an index unset");
    }
  }
  return dv;
}

// ---------------------------------------------------------------------------
// Sorting (Lemma 2.5).
// ---------------------------------------------------------------------------

namespace detail {

struct SketchItem {
  std::int64_t key;
  std::int64_t weight;
};

/// Compress a key-sorted weighted sketch to at most `cap` items.
std::vector<SketchItem> compress_sketch(std::vector<SketchItem> items,
                                        std::int64_t cap);

/// Regular weighted samples of a sorted run.
template <typename T, typename KeyFn>
std::vector<SketchItem> leaf_sketch(const std::vector<T>& sorted,
                                    std::int64_t cap, KeyFn&& key) {
  const auto n = static_cast<std::int64_t>(sorted.size());
  std::vector<SketchItem> out;
  if (n == 0) return out;
  const std::int64_t chunks = std::min(cap, n);
  std::int64_t prev = 0;
  for (std::int64_t t = 0; t < chunks; ++t) {
    const std::int64_t end = (t + 1) * n / chunks;
    if (end == prev) continue;
    out.push_back(SketchItem{key(sorted[static_cast<std::size_t>(end - 1)]),
                             end - prev});
    prev = end;
  }
  return out;
}

}  // namespace detail

/// Deterministic sort of a DistVector (shards of any sizes) by an int64 key
/// (Lemma 2.5). Afterwards it is globally sorted and in canonical layout.
/// Round count is Θ((δ/(1−δ))²) — independent of n for fixed δ.
template <typename T, typename KeyFn>
void sample_sort(Cluster& c, DistVector<T>& dv, KeyFn key) {
  const std::int64_t m = c.machines();
  const auto by_key = [&key](const T& a, const T& b) { return key(a) < key(b); };

  // Local sort (one compute round).
  c.run_round([&](MachineCtx& mc) {
    auto& v = dv.local(mc.id());
    std::sort(v.begin(), v.end(), by_key);
  });
  if (m == 1) return;

  const std::int64_t f = collective_fanout(c);
  const std::int64_t cap = 4 * f;  // sketch capacity per tree node

  // Host-side per-machine protocol state (machine i only touches slot i).
  PerMachine<std::vector<detail::SketchItem>> sketch(
      static_cast<std::size_t>(m));
  PerMachine<std::vector<std::int64_t>> splitters(static_cast<std::size_t>(m));

  // Top-down splitter refinement: every group splits into subgroups of
  // size ceil(group/F) until each machine is its own group. Group extents
  // are tracked explicitly per machine: subgroup boundaries are relative to
  // the parent group's base, so they are NOT globally aligned to a common
  // modulus once sizes stop dividing evenly.
  PerMachine<std::int64_t> grp_base(static_cast<std::size_t>(m), 0);
  PerMachine<std::int64_t> grp_size(static_cast<std::size_t>(m), m);

  for (;;) {
    std::int64_t g = 1;  // largest current group
    for (std::int64_t i = 0; i < m; ++i) {
      g = std::max(g, grp_size[static_cast<std::size_t>(i)]);
    }
    if (g <= 1) break;
    const auto group_base = [&](std::int64_t i) {
      return grp_base[static_cast<std::size_t>(i)];
    };
    const auto group_size = [&](std::int64_t i) {
      return grp_size[static_cast<std::size_t>(i)];
    };
    // Per-group split width; every machine can derive it from its own
    // group's size.
    const auto sub_width = [&](std::int64_t i) {
      return ceil_div(std::max<std::int64_t>(group_size(i), 1), f);
    };
    const int dmax = tree_max_depth(g, f);

    // --- Sketch up-sweep: leaves to root of each group's rank tree.
    for (std::int64_t i = 0; i < m; ++i) {
      sketch[static_cast<std::size_t>(i)] =
          detail::leaf_sketch(dv.local(i), cap, key);
    }
    // Double-buffered so every round is restartable: a hop merges the
    // previous hop's sketch (read-only this round) with the inbox into the
    // next buffer — crash recovery re-executes the merge instead of
    // absorbing the same children twice.
    PerMachine<std::vector<detail::SketchItem>> next_sketch(
        static_cast<std::size_t>(m));
    for (int hop = dmax; hop >= 1; --hop) {
      c.run_round([&](MachineCtx& mc) {
        const std::int64_t i = mc.id();
        auto sk = sketch[static_cast<std::size_t>(i)];
        for (const Message& msg : mc.inbox()) {
          if (msg.tag == tags::kSketch) msg.decode_append(sk);
        }
        std::sort(sk.begin(), sk.end(), [](const auto& a, const auto& b) {
          return a.key < b.key;
        });
        sk = detail::compress_sketch(std::move(sk), cap);
        const std::int64_t rank = i - group_base(i);
        if (rank < group_size(i) && tree_depth_of_rank(rank, f) == hop) {
          mc.send_items<detail::SketchItem>(
              group_base(i) + tree_parent(rank, f), tags::kSketch, sk);
        }
        next_sketch[static_cast<std::size_t>(i)] = std::move(sk);
      });
      sketch.swap(next_sketch);
    }
    // Absorb the hop-1 sends at the roots and compute splitters there (on
    // a local merge copy — the sketches are dead after this round).
    c.run_round([&](MachineCtx& mc) {
      const std::int64_t i = mc.id();
      auto sk = sketch[static_cast<std::size_t>(i)];
      for (const Message& msg : mc.inbox()) {
        if (msg.tag == tags::kSketch) msg.decode_append(sk);
      }
      std::sort(sk.begin(), sk.end(),
                [](const auto& a, const auto& b) { return a.key < b.key; });
      splitters[static_cast<std::size_t>(i)].clear();
      if (i != group_base(i)) return;  // only group roots pick splitters
      const std::int64_t gsize = group_size(i);
      const std::int64_t buckets = ceil_div(gsize, sub_width(i));
      std::int64_t w_total = 0;
      for (const auto& item : sk) w_total += item.weight;
      auto& spl = splitters[static_cast<std::size_t>(i)];
      std::size_t pos = 0;
      std::int64_t acc = 0;
      for (std::int64_t t = 1; t < buckets; ++t) {
        const std::int64_t target = w_total * t / buckets;
        while (pos + 1 < sk.size() && acc + sk[pos].weight < target) {
          acc += sk[pos].weight;
          ++pos;
        }
        spl.push_back(sk.empty() ? 0 : sk[pos].key);
      }
    });

    // --- Broadcast splitters down each group's rank tree.
    for (int hop = 0; hop <= dmax; ++hop) {
      c.run_round([&](MachineCtx& mc) {
        const std::int64_t i = mc.id();
        for (const Message& msg : mc.inbox()) {
          if (msg.tag == tags::kSplitters) {
            splitters[static_cast<std::size_t>(i)] = msg.payload;
          }
        }
        const std::int64_t rank = i - group_base(i);
        if (tree_depth_of_rank(rank, f) != hop) return;
        for (std::int64_t k = 1; k <= f; ++k) {
          const std::int64_t child = rank * f + k;
          if (child >= group_size(i)) break;
          mc.send_items<std::int64_t>(group_base(i) + child, tags::kSplitters,
                                      splitters[static_cast<std::size_t>(i)]);
        }
      });
    }

    // --- Route fragments to their destination subgroups.
    c.run_round([&](MachineCtx& mc) {
      const std::int64_t i = mc.id();
      const std::int64_t base = group_base(i);
      const std::int64_t gsize = group_size(i);
      const std::int64_t rank = i - base;
      const auto& spl = splitters[static_cast<std::size_t>(i)];
      auto& v = dv.local(i);
      // v is sorted; fragment t = keys in [spl[t-1], spl[t]).
      std::size_t lo = 0;
      const std::int64_t buckets =
          static_cast<std::int64_t>(spl.size()) + 1;
      for (std::int64_t t = 0; t < buckets; ++t) {
        std::size_t hi = v.size();
        if (t < static_cast<std::int64_t>(spl.size())) {
          hi = static_cast<std::size_t>(
              std::lower_bound(v.begin() + static_cast<std::ptrdiff_t>(lo),
                               v.end(), spl[static_cast<std::size_t>(t)],
                               [&](const T& a, std::int64_t s) {
                                 return key(a) < s;
                               }) -
              v.begin());
        }
        if (hi > lo) {
          const std::int64_t w = sub_width(i);
          const std::int64_t sub_base = base + t * w;
          const std::int64_t sub_size = std::min(w, gsize - t * w);
          MONGE_DCHECK(sub_size > 0);
          const std::int64_t dest = sub_base + (rank % sub_size);
          mc.send_items<T>(dest, tags::kFragment,
                           std::span<const T>(v.data() + lo, hi - lo));
        }
        lo = hi;
      }
      v.clear();
    });
    c.run_round([&](MachineCtx& mc) {
      auto& v = dv.local(mc.id());
      for (const Message& msg : mc.inbox()) {
        if (msg.tag == tags::kFragment) msg.decode_append(v);
      }
      std::sort(v.begin(), v.end(), by_key);
    });

    // Descend into subgroups: machine i's next group is the subgroup of its
    // parent group that contains it.
    for (std::int64_t i = 0; i < m; ++i) {
      const std::int64_t base = group_base(i);
      const std::int64_t gsize = group_size(i);
      const std::int64_t w = sub_width(i);
      const std::int64_t t = (i - base) / w;
      grp_base[static_cast<std::size_t>(i)] = base + t * w;
      grp_size[static_cast<std::size_t>(i)] = std::min(w, gsize - t * w);
    }
  }

  // --- Exact rebalance to the canonical block layout.
  PerMachine<std::int64_t> counts(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    counts[static_cast<std::size_t>(i)] =
        static_cast<std::int64_t>(dv.local(i).size());
  }
  const PrefixResult pr = exclusive_prefix(c, counts);
  MONGE_CHECK(pr.total == dv.size());
  const BlockLayout& layout = dv.layout();
  c.run_round([&](MachineCtx& mc) {
    const std::int64_t i = mc.id();
    auto& v = dv.local(i);
    std::int64_t rank = pr.prefix[static_cast<std::size_t>(i)];
    std::size_t pos = 0;
    while (pos < v.size()) {
      const std::int64_t owner = layout.owner(rank);
      const std::int64_t take = std::min<std::int64_t>(
          static_cast<std::int64_t>(v.size() - pos), layout.hi(owner) - rank);
      // The tag carries the destination-local offset of this chunk.
      mc.send_items<T>(owner, (rank - layout.lo(owner)) << 8 | tags::kChunk,
                       std::span<const T>(v.data() + pos,
                                          static_cast<std::size_t>(take)));
      rank += take;
      pos += static_cast<std::size_t>(take);
    }
    v.clear();
  });
  c.run_round([&](MachineCtx& mc) {
    const std::int64_t i = mc.id();
    auto& v = dv.local(i);
    v.assign(static_cast<std::size_t>(layout.size(i)), T{});
    for (const Message& msg : mc.inbox()) {
      if ((msg.tag & 0xff) != tags::kChunk) continue;
      const std::int64_t offset = msg.tag >> 8;
      auto items = msg.decode<T>();
      for (std::size_t k = 0; k < items.size(); ++k) {
        v[static_cast<std::size_t>(offset) + k] = items[k];
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Rank searching (Lemma 2.6) and permutation inversion (Lemma 2.3).
// ---------------------------------------------------------------------------

/// For each query key, the number of value keys strictly smaller than it.
/// Implemented exactly as the Lemma 2.6 proof: tag values/queries, sort
/// them together with queries preceding equal values, take a prefix sum of
/// the value indicator, and route answers back by query index.
/// Values may come in any order and shard sizes; queries (and answers) in
/// the canonical layout. Keys must fit in 62 bits (plus a tie-break bit).
DistVector<std::int64_t> rank_search(Cluster& c,
                                     const DistVector<std::int64_t>& values,
                                     const DistVector<std::int64_t>& queries);

/// Lemma 2.3: inv[p[i]] = i in one routing step.
DistVector<std::int32_t> inverse_permutation(Cluster& c,
                                             const DistVector<std::int32_t>& p);

// ---------------------------------------------------------------------------
// Gather / element-wise prefix.
// ---------------------------------------------------------------------------

/// Collects the whole vector on `target` (host-visible return). Two rounds.
/// Strict mode throws SpaceLimitError when dv does not fit on one machine —
/// the scalability-restriction experiments rely on this.
template <typename T>
std::vector<T> gather_to_machine(Cluster& c, const DistVector<T>& dv,
                                 std::int64_t target) {
  std::vector<T> out(static_cast<std::size_t>(dv.size()));
  c.run_round([&](MachineCtx& mc) {
    const std::int64_t i = mc.id();
    const auto& v = dv.local(i);
    if (!v.empty()) {
      mc.send_items<T>(target, (dv.layout().lo(i)) << 8 | tags::kChunk, v);
    }
  });
  c.run_round([&](MachineCtx& mc) {
    if (mc.id() != target) return;
    for (const Message& msg : mc.inbox()) {
      if ((msg.tag & 0xff) != tags::kChunk) continue;
      const std::int64_t offset = msg.tag >> 8;
      auto items = msg.decode<T>();
      for (std::size_t k = 0; k < items.size(); ++k) {
        out[static_cast<std::size_t>(offset) + k] = items[k];
      }
    }
  });
  return out;
}

/// Element-wise exclusive prefix sum over a DistVector<int64>.
DistVector<std::int64_t> dv_exclusive_prefix(Cluster& c,
                                             const DistVector<std::int64_t>& v);

}  // namespace monge::mpc
