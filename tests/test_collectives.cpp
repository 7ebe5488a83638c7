#include "mpc/collectives.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/dist_vector.h"
#include "util/rng.h"

namespace monge::mpc {
namespace {

MpcConfig cfg_of(std::int64_t machines, std::int64_t space = 1 << 22,
                 bool strict = true) {
  MpcConfig cfg;
  cfg.num_machines = machines;
  cfg.space_words = space;
  cfg.strict = strict;
  cfg.threads = 2;
  return cfg;
}

// --- exclusive_prefix -------------------------------------------------------

class PrefixSweep
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {};

TEST_P(PrefixSweep, MatchesSequentialScan) {
  const auto [m, space] = GetParam();
  Cluster c(cfg_of(m, space, /*strict=*/false));
  Rng rng(static_cast<std::uint64_t>(m * 31 + space));
  PerMachine<std::int64_t> vals(static_cast<std::size_t>(m));
  for (auto& v : vals) v = rng.next_in(-50, 50);

  const PrefixResult pr = exclusive_prefix(c, vals);
  std::int64_t acc = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    EXPECT_EQ(pr.prefix[static_cast<std::size_t>(i)], acc) << "i=" << i;
    acc += vals[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(pr.total, acc);
  // 2·depth + 2 rounds: a lone machine takes 2, one level under the root
  // takes 4, and the s = 64 cases (fanout 4) still build deeper trees.
  if (m == 1) {
    EXPECT_EQ(c.rounds(), 2);
  } else if (m - 1 <= prefix_fanout(c)) {
    EXPECT_EQ(c.rounds(), 4);
  } else {
    EXPECT_EQ(space, 64);
    EXPECT_GT(c.rounds(), 4);
  }
}

using MP = std::pair<std::int64_t, std::int64_t>;
INSTANTIATE_TEST_SUITE_P(
    Sweep, PrefixSweep,
    ::testing::Values(MP{1, 1 << 20}, MP{2, 1 << 20}, MP{3, 1 << 20},
                      MP{16, 1 << 20}, MP{33, 1 << 20}, MP{64, 1 << 20},
                      // Tiny space forces fanout 2 => deep trees.
                      MP{17, 64}, MP{64, 64}, MP{100, 64}));

TEST(Prefix, RoundsGrowOnlyWithTreeDepth) {
  // With a large space budget the fanout covers all machines: constant
  // rounds regardless of m.
  Cluster c64(cfg_of(64));
  Cluster c8(cfg_of(8));
  PerMachine<std::int64_t> v64(64, 1), v8(8, 1);
  exclusive_prefix(c64, v64);
  exclusive_prefix(c8, v8);
  EXPECT_EQ(c64.rounds(), c8.rounds());
}

TEST(Prefix, FourRoundsOnFullyScalableClusters) {
  // A prefix message is a scalar, so the tree's fanout is sized off s, not
  // √s: with δ <= 1/2 it covers every machine and the sweep is one level.
  for (const std::int64_t n : {std::int64_t{16}, std::int64_t{1} << 10,
                               std::int64_t{1} << 16}) {
    for (const double delta : {0.1, 0.3, 0.5}) {
      MpcConfig cfg = MpcConfig::fully_scalable(n, delta);
      cfg.threads = 1;
      Cluster c(cfg);
      if (c.machines() == 1) continue;
      EXPECT_GE(prefix_fanout(c), c.machines() - 1) << n << " " << delta;
      const PrefixResult pr = exclusive_prefix(
          c, PerMachine<std::int64_t>(static_cast<std::size_t>(c.machines()),
                                      1));
      EXPECT_EQ(pr.total, c.machines());
      EXPECT_EQ(c.rounds(), 4) << "n=" << n << " delta=" << delta;
    }
  }
}

// --- route / scatter --------------------------------------------------------

TEST(RouteItems, DeliversGroupedByDestination) {
  Cluster c(cfg_of(4));
  PerMachine<std::vector<std::pair<std::int64_t, std::int64_t>>> out(4);
  // Every machine sends (i*10 + dest) to every dest.
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t d = 0; d < 4; ++d) {
      out[static_cast<std::size_t>(i)].push_back({d, i * 10 + d});
    }
  }
  const auto got = route_items<std::int64_t>(c, out);
  for (std::int64_t d = 0; d < 4; ++d) {
    std::vector<std::int64_t> expect;
    for (std::int64_t i = 0; i < 4; ++i) expect.push_back(i * 10 + d);
    EXPECT_EQ(got[static_cast<std::size_t>(d)], expect);  // sender order
  }
}

TEST(ScatterToLayout, PlacesEveryIndex) {
  Cluster c(cfg_of(5));
  const std::int64_t n = 37;
  PerMachine<std::vector<std::pair<std::int64_t, std::int64_t>>> items(5);
  // Machine i contributes indices congruent to i mod 5, value = idx^2.
  for (std::int64_t idx = 0; idx < n; ++idx) {
    items[static_cast<std::size_t>(idx % 5)].push_back({idx, idx * idx});
  }
  auto dv = scatter_to_layout<std::int64_t>(c, n, items);
  const auto host = dv.to_host();
  for (std::int64_t idx = 0; idx < n; ++idx) {
    EXPECT_EQ(host[static_cast<std::size_t>(idx)], idx * idx);
  }
}

TEST(ScatterToLayout, RejectsMissingIndex) {
  Cluster c(cfg_of(2));
  PerMachine<std::vector<std::pair<std::int64_t, std::int64_t>>> items(2);
  items[0].push_back({0, 5});  // index 1 missing
  EXPECT_THROW(scatter_to_layout<std::int64_t>(c, 2, items), std::logic_error);
}

// --- sort -------------------------------------------------------------------

struct SortCase {
  std::int64_t m;
  std::int64_t n;
  std::int64_t space;
  std::uint64_t seed;
};

class SortSweep : public ::testing::TestWithParam<SortCase> {};

TEST_P(SortSweep, SortsAndRebalances) {
  const auto& p = GetParam();
  Cluster c(cfg_of(p.m, p.space, /*strict=*/false));
  Rng rng(p.seed);
  std::vector<std::int64_t> data(static_cast<std::size_t>(p.n));
  for (auto& x : data) x = rng.next_in(-1000000, 1000000);

  auto dv = DistVector<std::int64_t>::from_host(c, data);
  sample_sort(c, dv, [](std::int64_t x) { return x; });

  std::sort(data.begin(), data.end());
  EXPECT_TRUE(dv.is_balanced());
  EXPECT_EQ(dv.to_host(), data);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortSweep,
    ::testing::Values(SortCase{1, 100, 1 << 22, 1}, SortCase{2, 1000, 1 << 22, 2},
                      SortCase{3, 1000, 1 << 22, 3},
                      SortCase{7, 5000, 1 << 22, 4},
                      SortCase{16, 10000, 1 << 22, 5},
                      SortCase{33, 9999, 1 << 22, 6},
                      // Small space => fanout 2 => many levels.
                      SortCase{16, 4000, 2048, 7},
                      SortCase{32, 6000, 2048, 8},
                      // Regression: >= 3 group levels with non-dividing
                      // group sizes (misaligned subgroup bases).
                      SortCase{128, 1024, 1920, 12},
                      SortCase{200, 4096, 1000, 13},
                      SortCase{64, 999, 500, 14},
                      // More machines than elements and tiny inputs.
                      SortCase{8, 5, 1 << 22, 9}, SortCase{4, 0, 1 << 22, 10},
                      SortCase{5, 4, 1 << 22, 11}),
    [](const auto& tpi) {
      // Appends, not an operator+ chain: the chain trips a gcc-12
      // -Wrestrict false positive (PR105651) once inlined at -O3.
      std::string name;
      name += "m";
      name += std::to_string(tpi.param.m);
      name += "_n";
      name += std::to_string(tpi.param.n);
      name += "_s";
      name += std::to_string(tpi.param.space);
      return name;
    });

TEST(Sort, HandlesDuplicateKeys) {
  Cluster c(cfg_of(8, 4096, false));
  Rng rng(17);
  std::vector<std::int64_t> data(5000);
  for (auto& x : data) x = rng.next_in(0, 7);  // heavy duplication
  auto dv = DistVector<std::int64_t>::from_host(c, data);
  sample_sort(c, dv, [](std::int64_t x) { return x; });
  std::sort(data.begin(), data.end());
  EXPECT_EQ(dv.to_host(), data);
}

// Keys in [0, 7] are where tie order shows: the merges keep equal keys in
// sender order, which decides where duplicates land and so which messages
// go out. At every cluster thread count the sort must put every item in
// the same place and count the same rounds, words and peaks.
TEST(Sort, DuplicateKeysSameStatsAtEveryThreadCount) {
  struct Rec {
    std::int64_t key;
    std::int64_t origin;
  };
  for (const std::int64_t m : {8, 32, 60}) {
    for (const std::int64_t space : {300, 1024}) {
      Rng rng(static_cast<std::uint64_t>(m * 7 + space));
      std::vector<Rec> data(static_cast<std::size_t>(25 * m));
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = Rec{rng.next_in(0, 7), static_cast<std::int64_t>(i)};
      }
      std::vector<std::int64_t> keys;
      for (const Rec& r : data) keys.push_back(r.key);
      std::sort(keys.begin(), keys.end());
      std::vector<std::int64_t> first_origins;
      ClusterStats first{};
      for (const unsigned threads : {1u, 2u, 3u}) {
        MpcConfig cfg = cfg_of(m, space, /*strict=*/false);
        cfg.threads = threads;
        Cluster c(cfg);
        auto dv = DistVector<Rec>::from_host(c, data);
        sample_sort(c, dv, [](const Rec& r) { return r.key; });
        std::vector<std::int64_t> got_keys, origins;
        for (const Rec& r : dv.to_host()) {
          got_keys.push_back(r.key);
          origins.push_back(r.origin);
        }
        const std::string where = "m=" + std::to_string(m) + " s=" +
                                  std::to_string(space) +
                                  " threads=" + std::to_string(threads);
        ASSERT_EQ(got_keys, keys) << where;
        if (threads == 1) {
          first_origins = origins;
          first = c.stats();
          continue;
        }
        EXPECT_EQ(origins, first_origins) << where;
        EXPECT_EQ(c.stats().rounds, first.rounds) << where;
        EXPECT_EQ(c.stats().total_comm_words, first.total_comm_words) << where;
        EXPECT_EQ(c.stats().max_machine_words, first.max_machine_words)
            << where;
        EXPECT_EQ(c.stats().max_resident_words, first.max_resident_words)
            << where;
      }
    }
  }
}

TEST(Sort, AlreadySortedAndReversed) {
  for (bool reversed : {false, true}) {
    Cluster c(cfg_of(9, 1 << 22));
    std::vector<std::int64_t> data(4321);
    std::iota(data.begin(), data.end(), 0);
    if (reversed) std::reverse(data.begin(), data.end());
    auto dv = DistVector<std::int64_t>::from_host(c, data);
    sample_sort(c, dv, [](std::int64_t x) { return x; });
    std::sort(data.begin(), data.end());
    EXPECT_EQ(dv.to_host(), data);
  }
}

TEST(Sort, CustomKeyOnStructs) {
  struct Rec {
    std::int64_t key;
    std::int64_t payload;
  };
  Cluster c(cfg_of(6));
  Rng rng(23);
  std::vector<Rec> data(2000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = Rec{rng.next_in(0, 100000), static_cast<std::int64_t>(i)};
  }
  auto dv = DistVector<Rec>::from_host(c, data);
  sample_sort(c, dv, [](const Rec& r) { return r.key; });
  const auto got = dv.to_host();
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(got[i - 1].key, got[i].key);
  }
  // Same multiset of payloads.
  std::vector<std::int64_t> pays;
  for (const auto& r : got) pays.push_back(r.payload);
  std::sort(pays.begin(), pays.end());
  for (std::size_t i = 0; i < pays.size(); ++i) {
    EXPECT_EQ(pays[i], static_cast<std::int64_t>(i));
  }
}

TEST(Sort, RoundCountIndependentOfNForFixedDelta) {
  // The fully-scalable profile: for fixed δ, sort rounds are O(1) — the
  // level structure depends on δ only (up to fan-out rounding).
  std::vector<std::int64_t> rounds;
  for (std::int64_t n : {std::int64_t{1} << 12, std::int64_t{1} << 14,
                         std::int64_t{1} << 16}) {
    Cluster c(MpcConfig::fully_scalable(n, 0.5));
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<std::int64_t> data(static_cast<std::size_t>(n));
    for (auto& x : data) x = rng.next_in(0, 1 << 30);
    auto dv = DistVector<std::int64_t>::from_host(c, data);
    sample_sort(c, dv, [](std::int64_t x) { return x; });
    std::sort(data.begin(), data.end());
    ASSERT_EQ(dv.to_host(), data);
    rounds.push_back(c.rounds());
  }
  // Allow small wobble from fanout rounding, but no growth trend.
  EXPECT_LE(rounds.back(), rounds.front() + 2);
}

// rank_search hands the sort shards of any size (each machine's values
// next to its queries). Under a strict budget the sort must still end
// globally sorted and in the canonical layout.
TEST(Sort, UnbalancedShardsUnderStrictBudget) {
  const std::int64_t n = 1 << 12;
  for (const bool all_on_one : {true, false}) {
    MpcConfig cfg = MpcConfig::fully_scalable(n, 0.5);
    cfg.threads = 2;
    Cluster c(cfg);
    Rng rng(all_on_one ? 3 : 4);
    std::vector<std::int64_t> data(static_cast<std::size_t>(n));
    for (auto& x : data) x = rng.next_in(0, 1 << 20);
    DistVector<std::int64_t> dv(c, n);
    for (std::int64_t i = 0; i < c.machines(); ++i) dv.local(i).clear();
    for (const std::int64_t x : data) {
      // One machine holds everything, or a random quarter of the machines
      // hold it all and the rest stay empty.
      const std::int64_t owner =
          all_on_one ? c.machines() / 2
                     : 4 * rng.next_in(0, c.machines() / 4 - 1);
      dv.local(owner).push_back(x);
    }
    ASSERT_FALSE(dv.is_balanced());
    ASSERT_NO_THROW(sample_sort(c, dv, [](std::int64_t x) { return x; }))
        << "all_on_one=" << all_on_one;
    std::sort(data.begin(), data.end());
    EXPECT_TRUE(dv.is_balanced());
    EXPECT_EQ(dv.to_host(), data);
  }
}

TEST(Sort, RespectsStrictSpaceAtScale) {
  // Under the paper's regime the sort must stay within s per machine.
  const std::int64_t n = 1 << 14;
  for (double delta : {0.3, 0.5}) {
    Cluster c(MpcConfig::fully_scalable(n, delta));
    Rng rng(42);
    std::vector<std::int64_t> data(static_cast<std::size_t>(n));
    for (auto& x : data) x = rng.next_in(0, 1 << 30);
    auto dv = DistVector<std::int64_t>::from_host(c, data);
    EXPECT_NO_THROW(sample_sort(c, dv, [](std::int64_t x) { return x; }))
        << "delta=" << delta;
  }
}

// --- rank search / inverse permutation / prefix -----------------------------

TEST(RankSearch, MatchesBruteForce) {
  Cluster c(cfg_of(7));
  Rng rng(5);
  std::vector<std::int64_t> values(500), queries(300);
  for (auto& v : values) v = rng.next_in(0, 200);
  for (auto& q : queries) q = rng.next_in(-5, 205);

  auto dvv = DistVector<std::int64_t>::from_host(c, values);
  auto dvq = DistVector<std::int64_t>::from_host(c, queries);
  const auto got = rank_search(c, dvv, dvq).to_host();

  ASSERT_EQ(got.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    std::int64_t expect = 0;
    for (std::int64_t v : values) expect += (v < queries[i]);
    EXPECT_EQ(got[i], expect) << "query " << queries[i];
  }
}

// Duplicate queries share a sort key, so their tie order decides which
// machine answers each one. Answers must equal brute force, and the counts
// must not depend on the cluster's thread count.
TEST(RankSearch, DuplicateQueriesSameStatsAtEveryThreadCount) {
  for (const std::int64_t m : {8, 32, 60}) {
    for (const std::int64_t space : {300, 1024}) {
      Rng rng(static_cast<std::uint64_t>(m * 11 + space));
      std::vector<std::int64_t> values(static_cast<std::size_t>(10 * m));
      std::vector<std::int64_t> queries(static_cast<std::size_t>(15 * m));
      for (auto& v : values) v = rng.next_in(0, 7);
      for (auto& q : queries) q = rng.next_in(0, 7);
      ClusterStats first{};
      for (const unsigned threads : {1u, 2u, 3u}) {
        MpcConfig cfg = cfg_of(m, space, /*strict=*/false);
        cfg.threads = threads;
        Cluster c(cfg);
        auto dvv = DistVector<std::int64_t>::from_host(c, values);
        auto dvq = DistVector<std::int64_t>::from_host(c, queries);
        const auto got = rank_search(c, dvv, dvq).to_host();
        const std::string where = "m=" + std::to_string(m) + " s=" +
                                  std::to_string(space) +
                                  " threads=" + std::to_string(threads);
        ASSERT_EQ(got.size(), queries.size()) << where;
        for (std::size_t i = 0; i < queries.size(); ++i) {
          std::int64_t expect = 0;
          for (const std::int64_t v : values) expect += (v < queries[i]);
          ASSERT_EQ(got[i], expect) << where << " query " << i;
        }
        if (threads == 1) {
          first = c.stats();
          continue;
        }
        EXPECT_EQ(c.stats().rounds, first.rounds) << where;
        EXPECT_EQ(c.stats().total_comm_words, first.total_comm_words) << where;
        EXPECT_EQ(c.stats().max_machine_words, first.max_machine_words)
            << where;
        EXPECT_EQ(c.stats().max_resident_words, first.max_resident_words)
            << where;
      }
    }
  }
}

TEST(RankSearch, TiesCountStrictlySmaller) {
  Cluster c(cfg_of(3));
  std::vector<std::int64_t> values = {5, 5, 5, 7};
  std::vector<std::int64_t> queries = {5, 6, 7, 8};
  auto dvv = DistVector<std::int64_t>::from_host(c, values);
  auto dvq = DistVector<std::int64_t>::from_host(c, queries);
  EXPECT_EQ(rank_search(c, dvv, dvq).to_host(),
            (std::vector<std::int64_t>{0, 3, 3, 4}));
}

// The values may come in any order and any shard sizes (the tree index
// hands rank_search unsorted level arrays); the queries come in the
// canonical layout. Every answer must equal a host-side count.
TEST(RankSearch, ValuesInAnyOrderAndLayout) {
  enum class Layout { kCanonical, kAllOnOne, kSomeEmpty };
  for (const std::int64_t m : {1, 6}) {
    for (const std::int64_t nv : {0, 1, 300}) {
      for (const std::int64_t nq : {0, 1, 200}) {
        for (const Layout layout :
             {Layout::kCanonical, Layout::kAllOnOne, Layout::kSomeEmpty}) {
          Cluster c(cfg_of(m, 4096));
          Rng rng(static_cast<std::uint64_t>(m * 1000 + nv * 10 + nq));
          std::vector<std::int64_t> values(static_cast<std::size_t>(nv));
          std::vector<std::int64_t> queries(static_cast<std::size_t>(nq));
          for (auto& v : values) v = rng.next_in(0, 40);  // duplicate keys
          for (auto& q : queries) q = rng.next_in(-3, 43);
          auto dvv = DistVector<std::int64_t>::from_host(c, values);
          if (layout != Layout::kCanonical) {
            for (std::int64_t i = 0; i < m; ++i) dvv.local(i).clear();
            for (const std::int64_t v : values) {
              const std::int64_t owner =
                  layout == Layout::kAllOnOne ? m - 1
                                              : 2 * rng.next_in(0, (m - 1) / 2);
              dvv.local(owner).push_back(v);
            }
          }
          auto dvq = DistVector<std::int64_t>::from_host(c, queries);
          const auto got = rank_search(c, dvv, dvq);
          EXPECT_TRUE(got.is_balanced());
          const auto host = got.to_host();
          ASSERT_EQ(host.size(), queries.size());
          for (std::size_t i = 0; i < queries.size(); ++i) {
            std::int64_t expect = 0;
            for (const std::int64_t v : values) expect += (v < queries[i]);
            EXPECT_EQ(host[i], expect)
                << "m=" << m << " nv=" << nv << " nq=" << nq << " layout="
                << static_cast<int>(layout) << " q=" << queries[i];
          }
        }
      }
    }
  }
}

TEST(InversePermutation, MatchesDirectInverse) {
  for (std::int64_t m : {1, 4, 9}) {
    Cluster c(cfg_of(m));
    Rng rng(static_cast<std::uint64_t>(m));
    const auto p = rng.permutation(1000);
    auto dv = DistVector<std::int32_t>::from_host(c, p);
    const auto inv = inverse_permutation(c, dv).to_host();
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(inv[static_cast<std::size_t>(p[i])],
                static_cast<std::int32_t>(i));
    }
  }
}

TEST(DvExclusivePrefix, MatchesScan) {
  Cluster c(cfg_of(6));
  Rng rng(9);
  std::vector<std::int64_t> data(777);
  for (auto& x : data) x = rng.next_in(-10, 10);
  auto dv = DistVector<std::int64_t>::from_host(c, data);
  const auto got = dv_exclusive_prefix(c, dv).to_host();
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(got[i], acc);
    acc += data[i];
  }
}

TEST(GatherToMachine, CollectsWholeVector) {
  Cluster c(cfg_of(5));
  std::vector<std::int64_t> data(100);
  std::iota(data.begin(), data.end(), 7);
  auto dv = DistVector<std::int64_t>::from_host(c, data);
  EXPECT_EQ(gather_to_machine(c, dv, 3), data);
}

TEST(GatherToMachine, ThrowsWhenItDoesNotFit) {
  Cluster c(cfg_of(8, /*space=*/32, /*strict=*/true));
  std::vector<std::int64_t> data(200, 1);
  // from_host splits 25 words per machine (fits); gathering 200 does not.
  auto dv = DistVector<std::int64_t>::from_host(c, data);
  EXPECT_THROW(gather_to_machine(c, dv, 0), SpaceLimitError);
}

TEST(Determinism, IdenticalRunsProduceIdenticalStats) {
  const auto run = [] {
    Cluster c(cfg_of(13));
    Rng rng(77);
    std::vector<std::int64_t> data(3000);
    for (auto& x : data) x = rng.next_in(0, 1 << 20);
    auto dv = DistVector<std::int64_t>::from_host(c, data);
    sample_sort(c, dv, [](std::int64_t x) { return x; });
    return std::pair{c.stats().total_comm_words, dv.to_host()};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace monge::mpc
