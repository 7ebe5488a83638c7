#include "mpc/collectives.h"

namespace monge::mpc {

namespace detail {

std::size_t compress_sketch(std::span<SketchItem> items, std::int64_t cap) {
  if (static_cast<std::int64_t>(items.size()) <= cap) return items.size();
  std::int64_t w_total = 0;
  for (const auto& it : items) w_total += it.weight;
  const std::int64_t step = std::max<std::int64_t>(1, ceil_div(w_total, cap));
  // In place: every item written consumes at least one item read.
  const std::int64_t last_key = items.back().key;
  std::size_t out = 0;
  std::int64_t carry = 0;
  for (const auto& it : items) {
    carry += it.weight;
    if (carry >= step) {
      items[out++] = SketchItem{it.key, carry};
      carry = 0;
    }
  }
  if (carry > 0) items[out++] = SketchItem{last_key, carry};
  return out;
}

}  // namespace detail

namespace {

// Contiguous-range tree over machines [0, m): the node for range [lo, hi)
// lives on machine `lo`, and its children are the <= f near-equal chunks of
// [lo+1, hi). Unlike a heap-numbered tree, the preorder of this tree equals
// machine-id order, which is what prefix sums need.
struct RangeTree {
  struct Node {
    std::int64_t parent = -1;  ///< parent machine, -1 for the root
    int depth = 0;             ///< 0 for the root
    std::int64_t slot = 0;     ///< index among the parent's children
    /// This node's children, in order: kids[first_kid, first_kid + kid_count).
    std::int64_t first_kid = 0;
    std::int64_t kid_count = 0;
  };
  std::vector<Node> node;          // one per machine
  std::vector<std::int64_t> kids;  // each node's children, contiguous
  int max_depth = 0;

  RangeTree(std::int64_t m, std::int64_t f) {
    node.resize(static_cast<std::size_t>(m));
    if (m == 0) return;
    kids.reserve(static_cast<std::size_t>(m - 1));
    // DFS from the root range.
    std::vector<std::pair<std::int64_t, std::int64_t>> stack{{0, m}};
    while (!stack.empty()) {
      const auto [lo, hi] = stack.back();
      stack.pop_back();
      const std::int64_t start = lo + 1;
      const std::int64_t len = hi - start;
      if (len <= 0) continue;
      Node& p = node[static_cast<std::size_t>(lo)];
      p.first_kid = static_cast<std::int64_t>(kids.size());
      const std::int64_t parts = std::min<std::int64_t>(f, len);
      for (std::int64_t k = 0; k < parts; ++k) {
        const std::int64_t a = start + k * len / parts;
        const std::int64_t b = start + (k + 1) * len / parts;
        if (b <= a) continue;
        Node& child = node[static_cast<std::size_t>(a)];
        child.parent = lo;
        child.depth = p.depth + 1;
        child.slot = p.kid_count++;
        max_depth = std::max(max_depth, child.depth);
        kids.push_back(a);
        stack.push_back({a, b});
      }
    }
  }
};

}  // namespace

PrefixResult exclusive_prefix(Cluster& c,
                              const PerMachine<std::int64_t>& val) {
  const std::int64_t m = c.machines();
  MONGE_CHECK(static_cast<std::int64_t>(val.size()) == m);
  const RangeTree tree(m, prefix_fanout(c));
  const auto node = [&](std::int64_t i) -> const RangeTree::Node& {
    return tree.node[static_cast<std::size_t>(i)];
  };

  // subtree[i] accumulates the sum of machine i's tree subtree; child_sum,
  // aligned with tree.kids, records each child's subtree sum at its parent
  // for the down-sweep (machine i owns its children's entries).
  PerMachine<std::int64_t> subtree(val.begin(), val.end());
  std::vector<std::int64_t> child_sum(tree.kids.size(), 0);

  const auto absorb_up = [&](MachineCtx& mc) {
    const std::int64_t i = mc.id();
    const RangeTree::Node& me = node(i);
    for (const Message& msg : mc.inbox()) {
      if (msg.tag < tags::kUp) continue;
      const std::int64_t k = msg.tag - tags::kUp;  // child slot
      child_sum[static_cast<std::size_t>(me.first_kid + k)] = msg.payload[0];
    }
    // Restartable: the subtree sum is recomputed from the overwrite-once
    // child slots (all of a node's children report in the same round), so
    // a re-executed round never double-absorbs a child.
    std::int64_t sum = val[static_cast<std::size_t>(i)];
    for (std::int64_t k = 0; k < me.kid_count; ++k) {
      sum += child_sum[static_cast<std::size_t>(me.first_kid + k)];
    }
    subtree[static_cast<std::size_t>(i)] = sum;
  };

  // Up-sweep: depth-hop machines push their subtree sums to parents.
  for (int hop = tree.max_depth; hop >= 1; --hop) {
    c.run_round([&](MachineCtx& mc) {
      const std::int64_t i = mc.id();
      absorb_up(mc);
      const RangeTree::Node& me = node(i);
      if (me.depth == hop) {
        const std::int64_t up[] = {subtree[static_cast<std::size_t>(i)]};
        mc.send_items<std::int64_t>(me.parent, tags::kUp + me.slot, up);
      }
    });
  }
  // Absorb the hop-1 sends at the root.
  PerMachine<std::int64_t> prefix(static_cast<std::size_t>(m), 0);
  PerMachine<std::int64_t> total(static_cast<std::size_t>(m), 0);
  c.run_round([&](MachineCtx& mc) {
    absorb_up(mc);
    if (mc.id() == 0) {
      prefix[0] = 0;
      total[0] = subtree[0];
    }
  });

  // Down-sweep. Children of a node cover the contiguous range after the
  // node itself, in order, so child k's exclusive prefix is
  // parent prefix + parent value + subtree sums of children 0..k-1.
  for (int hop = 0; hop <= tree.max_depth; ++hop) {
    c.run_round([&](MachineCtx& mc) {
      const std::int64_t i = mc.id();
      const auto k = static_cast<std::size_t>(i);
      for (const Message& msg : mc.inbox()) {
        if (msg.tag != tags::kDown) continue;
        prefix[k] = msg.payload[0];
        total[k] = msg.payload[1];
      }
      const RangeTree::Node& me = node(i);
      if (me.depth != hop) return;
      std::int64_t acc = prefix[k] + val[k];
      for (std::int64_t j = 0; j < me.kid_count; ++j) {
        const auto at = static_cast<std::size_t>(me.first_kid + j);
        const std::int64_t down[] = {acc, total[k]};
        mc.send_items<std::int64_t>(tree.kids[at], tags::kDown, down);
        acc += child_sum[at];
      }
    });
  }

  PrefixResult out;
  out.prefix = std::move(prefix);
  out.total = total.empty() ? 0 : total[0];
  return out;
}

DistVector<std::int64_t> rank_search(Cluster& c,
                                     const DistVector<std::int64_t>& values,
                                     const DistVector<std::int64_t>& queries) {
  const std::int64_t m = c.machines();
  const std::int64_t nq = queries.size();
  MONGE_CHECK(queries.is_balanced());  // answers come back in its layout

  struct Tagged {
    std::int64_t sort_key;  // (key << 1) | is_value, so queries come first
    std::int64_t id;        // query index, or -1 for values
  };

  // 1. Each machine tags its own values and queries side by side. The
  //    shards come out uneven; the sort's final rebalance evens them.
  DistVector<Tagged> combined(c, values.size() + nq);
  for (std::int64_t i = 0; i < m; ++i) {
    auto& loc = combined.local(i);
    loc.clear();
    for (const std::int64_t v : values.local(i)) {
      MONGE_DCHECK(std::llabs(v) < (std::int64_t{1} << 62));
      loc.push_back(Tagged{(v << 1) | 1, -1});
    }
    std::int64_t qidx = queries.layout().lo(i);
    for (const std::int64_t q : queries.local(i)) {
      loc.push_back(Tagged{q << 1, qidx++});
    }
  }

  // 2. Sort together; the tie-break bit puts each query before the values
  //    that share its key, so its rank counts strictly-smaller values.
  sample_sort(c, combined, [](const Tagged& t) { return t.sort_key; });

  // 3. Prefix-count the value indicator.
  PerMachine<std::int64_t> local_values(static_cast<std::size_t>(m), 0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (const Tagged& t : std::as_const(combined).local(i)) {
      local_values[static_cast<std::size_t>(i)] += (t.id < 0);
    }
  }
  const PrefixResult pr = exclusive_prefix(c, local_values);

  // 4. Route answers back, aligned with the query layout.
  PerMachine<std::vector<std::pair<std::int64_t, std::int64_t>>> answers(
      static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    std::int64_t rank = pr.prefix[static_cast<std::size_t>(i)];
    const auto& loc = std::as_const(combined).local(i);
    answers[static_cast<std::size_t>(i)].reserve(loc.size());
    for (const Tagged& t : loc) {
      if (t.id < 0) {
        ++rank;
      } else {
        answers[static_cast<std::size_t>(i)].push_back({t.id, rank});
      }
    }
  }
  return scatter_to_layout(c, nq, answers);
}

DistVector<std::int32_t> inverse_permutation(
    Cluster& c, const DistVector<std::int32_t>& p) {
  const std::int64_t m = c.machines();
  PerMachine<std::vector<std::pair<std::int64_t, std::int32_t>>> items(
      static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    const auto& loc = p.local(i);
    const std::int64_t lo = p.layout().lo(i);
    for (std::size_t k = 0; k < loc.size(); ++k) {
      items[static_cast<std::size_t>(i)].push_back(
          {static_cast<std::int64_t>(loc[k]),
           static_cast<std::int32_t>(lo + static_cast<std::int64_t>(k))});
    }
  }
  return scatter_to_layout(c, p.size(), items);
}

DistVector<std::int64_t> dv_exclusive_prefix(
    Cluster& c, const DistVector<std::int64_t>& v) {
  const std::int64_t m = c.machines();
  PerMachine<std::int64_t> sums(static_cast<std::size_t>(m), 0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t x : v.local(i)) sums[static_cast<std::size_t>(i)] += x;
  }
  const PrefixResult pr = exclusive_prefix(c, sums);
  DistVector<std::int64_t> out(c, v.size());
  c.run_round([&](MachineCtx& mc) {
    const std::int64_t i = mc.id();
    const auto& in = v.local(i);
    auto& loc = out.local(i);
    MONGE_CHECK(loc.size() == in.size());
    std::int64_t acc = pr.prefix[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < in.size(); ++k) {
      loc[k] = acc;
      acc += in[k];
    }
  });
  return out;
}

}  // namespace monge::mpc
