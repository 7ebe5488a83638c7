#include "monge/engine.h"

#include <gtest/gtest.h>

#include <iterator>
#include <numeric>

#include "api/solver.h"
#include "monge/distribution.h"
#include "monge/seaweed.h"
#include "monge/subperm.h"
#include "testing.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace monge {
namespace {

using testing::all_permutations;
using testing::engine_multiply;
using testing::engine_multiply_batch;
using testing::engine_subunit_multiply;
using testing::engine_subunit_multiply_batch;
using testing::nearly_sorted_perm;

std::vector<std::int32_t> random_raw_perm(std::int64_t n, Rng& rng) {
  return rng.permutation(n);
}

/// Grains the striping suites run at: below, near and above the tiny
/// entries' summed sizes, so stripes hold one entry or several.
constexpr std::int64_t kStripeGrains[] = {16, 64, 1024};

TEST(SeaweedEngine, ExhaustiveSmallPermutations) {
  for (const std::int64_t cutoff : {1, 2, 3, 8}) {
    SeaweedEngine engine({.base_case_cutoff = cutoff});
    for (int n = 1; n <= 5; ++n) {
      const auto perms = all_permutations(n);
      for (const auto& pa : perms) {
        for (const auto& pb : perms) {
          const Perm a = Perm::from_rows(pa, n);
          const Perm b = Perm::from_rows(pb, n);
          ASSERT_EQ(engine.multiply(a, b), multiply_naive(a, b))
              << "n=" << n << " cutoff=" << cutoff;
        }
      }
    }
  }
}

// Randomized equivalence fuzz across sizes straddling the base-case cutoff:
// the engine must agree with the naive oracle and be bit-identical to the
// legacy recursion for every cutoff choice.
TEST(SeaweedEngine, EquivalenceFuzzAcrossCutoffs) {
  Rng rng(20240518);
  for (const std::int64_t cutoff : {1, 4, 16, 32, 64}) {
    SeaweedEngine engine({.base_case_cutoff = cutoff});
    for (const std::int64_t n :
         {2, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129}) {
      for (int rep = 0; rep < 3; ++rep) {
        const auto a = random_raw_perm(n, rng);
        const auto b = random_raw_perm(n, rng);
        const auto got = engine_multiply(engine, a, b);
        const auto ref = seaweed_multiply_reference_raw(a, b);
        ASSERT_EQ(got, ref) << "n=" << n << " cutoff=" << cutoff;
        const Perm pa = Perm::from_rows(a, n);
        const Perm pb = Perm::from_rows(b, n);
        ASSERT_EQ(Perm::from_rows(got, n), multiply_naive(pa, pb))
            << "n=" << n << " cutoff=" << cutoff;
      }
    }
  }
}

TEST(SeaweedEngine, BitIdenticalToReferenceLargerSizes) {
  Rng rng(7);
  SeaweedEngine engine;
  for (const std::int64_t n : {255, 256, 257, 777, 1024, 2048}) {
    const auto a = random_raw_perm(n, rng);
    const auto b = random_raw_perm(n, rng);
    ASSERT_EQ(engine_multiply(engine, a, b),
              seaweed_multiply_reference_raw(a, b))
        << "n=" << n;
  }
}

TEST(SeaweedEngine, EmptyAndTiny) {
  SeaweedEngine engine;
  EXPECT_TRUE(engine_multiply(engine, {}, {}).empty());
  EXPECT_EQ(engine_multiply(engine, std::vector<std::int32_t>{0},
                            std::vector<std::int32_t>{0}),
            (std::vector<std::int32_t>{0}));
  // The Perm entry runs the same sizes as a batch of one, which sizes the
  // arena even for n <= 1.
  EXPECT_EQ(engine.multiply(Perm(0, 0), Perm(0, 0)), Perm(0, 0));
  EXPECT_EQ(engine.multiply(Perm::identity(1), Perm::identity(1)),
            Perm::identity(1));
}

// Knobs are validated at construction — out-of-range values throw instead
// of being silently rewritten, so options() always reports exactly what
// the caller requested.
TEST(SeaweedEngine, RejectsOutOfRangeOptions) {
  EXPECT_THROW(SeaweedEngine({.base_case_cutoff = 0}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.base_case_cutoff = -5}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.base_case_cutoff = 257}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.base_case_cutoff = 1 << 20}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.parallel_grain = 1}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.parallel_grain = 0}), std::logic_error);
  EXPECT_THROW(SeaweedEngine({.parallel_grain = -1}), std::logic_error);
  // Boundary values construct, and options() echoes them verbatim.
  const SeaweedEngine lo({.base_case_cutoff = 1, .parallel_grain = 2});
  EXPECT_EQ(lo.options().base_case_cutoff, 1);
  EXPECT_EQ(lo.options().parallel_grain, 2);
  const SeaweedEngine hi({.base_case_cutoff = 256});
  EXPECT_EQ(hi.options().base_case_cutoff, 256);
}

// Inputs beyond kSeaweedEngineMaxN = 2^30 would overflow the packed
// (coord << 1) | color int32 representation; every public entry point must
// reject them with a clear error up front. Sizes are validated before any
// element is touched, so spans with an oversize extent over a dummy
// element never get dereferenced. (Materializing 4 GiB views instead is
// not an option here; the fabricated extent technically violates the
// span-constructor range precondition, which no shipping standard library
// can or does check — if one ever grows full bounds metadata, swap these
// for allocation-backed views.)
TEST(SeaweedEngine, RejectsOversizeInputs) {
  SeaweedEngine engine;
  const auto huge =
      static_cast<std::size_t>(kSeaweedEngineMaxN) + 1;
  std::int32_t dummy = 0;
  const std::span<const std::int32_t> big(&dummy, huge);
  std::span<std::int32_t> big_out(&dummy, huge);
  EXPECT_THROW(engine_multiply(engine, big, big, big_out), std::logic_error);
  const std::vector<PermPairView> pairs{{big, big}};
  const std::vector<std::span<std::int32_t>> outs{big_out};
  EXPECT_THROW(engine.multiply_batch_into(pairs, outs), std::logic_error);
  // Subunit paths: every dimension is guarded, including b_cols.
  const std::vector<std::int32_t> a{0, 1};
  const std::vector<std::int32_t> b{0, 1};
  std::vector<std::int32_t> out(2);
  EXPECT_THROW(
      engine_subunit_multiply(engine, a, b, kSeaweedEngineMaxN + 1, out),
      std::logic_error);
  EXPECT_THROW(engine_subunit_multiply(engine, big, b, 2, big_out),
               std::logic_error);
  const std::vector<SubunitPairView> spairs{{a, big, 2}};
  const std::vector<std::span<std::int32_t>> souts{out};
  EXPECT_THROW(engine.subunit_multiply_batch_into(spairs, souts),
               std::logic_error);
  // The engine stays usable after a rejected call.
  EXPECT_EQ(engine_subunit_multiply(engine, a, b, 2), a);
}

// Budgets computed from the size and the knobs alone, pinned at sizes
// around the base cutoff, the probe minimum and the grain, where the two
// halves of a node differ in size. Every base case of size 2 to the cutoff
// is budgeted as the cutoff's own, so budgets are monotone in the size;
// any change to the formula shows here.
TEST(SeaweedEngine, ArenaBudgetsMatchParent) {
  constexpr std::int64_t kSizes[] = {9, 63, 65, 1023, 1025, 8193, 65537};
  ThreadPool pool(3);
  const struct {
    const char* name;
    SeaweedEngineOptions options;
    std::size_t bytes[std::size(kSizes)];
  } kTable[] = {
      {"default", {}, {1600, 3712, 5184, 51840, 53568, 399360, 3153600}},
      {"pool 3, grain 64",
       {.parallel_grain = 64, .pool = &pool},
       {1600, 3712, 7680, 173248, 178752, 1994880, 20648640}},
      {"core_density_cutoff 0",
       {.core_density_cutoff = 0.0},
       {1600, 3712, 4544, 35968, 37056, 267776, 2104128}},
      {"base_case_cutoff 1",
       {.base_case_cutoff = 1},
       {1984, 4096, 5568, 52224, 53952, 399744, 3153984}},
  };
  for (const auto& row : kTable) {
    const SeaweedEngine engine(row.options);
    for (std::size_t i = 0; i < std::size(kSizes); ++i) {
      EXPECT_EQ(engine.arena_bytes_for(kSizes[i]), row.bytes[i])
          << row.name << " n=" << kSizes[i];
    }
  }
}

// A probed node's budget must hold the dense block its split leaves: one
// block a little above the base cutoff, the rest of the node copied. Each
// case overflows the arena if a base case is budgeted at its own size (the
// base case of the cutoff then outweighs the budget one size up). The
// engine and a Solver built with the same options return the oracle's
// product.
TEST(SeaweedEngine, DenseBlockNearBaseCutoffFitsProbedBudget) {
  const struct {
    std::int64_t n, swap_with, cutoff;
  } kCases[] = {{72, 64, 8}, {68, 56, 16}, {65, 35, 64}};
  for (const auto& c : kCases) {
    std::vector<std::int32_t> a(static_cast<std::size_t>(c.n));
    std::iota(a.begin(), a.end(), 0);
    std::vector<std::int32_t> b = a;
    std::swap(a[0], a[static_cast<std::size_t>(c.swap_with)]);
    std::swap(b[1], b[2]);
    const auto want = seaweed_multiply_reference_raw(a, b);
    const SeaweedEngineOptions options{.base_case_cutoff = c.cutoff};
    SeaweedEngine engine(options);
    EXPECT_EQ(engine_multiply(engine, a, b), want) << "n=" << c.n;
    EXPECT_GT(engine.representation_stats().blocks_dense, 0) << "n=" << c.n;
    Solver solver(SolverOptions{.engine = options});
    const auto res = solver.try_solve(MultiplyRequest{
        Perm::from_rows(a, c.n), Perm::from_rows(b, c.n)});
    ASSERT_TRUE(res.ok()) << "n=" << c.n << ": " << res.report.message;
    EXPECT_EQ(res.value.c.row_to_col(), want) << "n=" << c.n;
  }
}

// The arena is sized once: repeating a multiply of the same (or smaller)
// size must not grow the buffer.
TEST(SeaweedEngine, ArenaIsReusedAcrossCalls) {
  Rng rng(11);
  SeaweedEngine engine;
  const auto a = random_raw_perm(1024, rng);
  const auto b = random_raw_perm(1024, rng);
  const auto first = engine_multiply(engine, a, b);
  const std::size_t cap = engine.arena_capacity();
  EXPECT_GE(cap, engine.arena_bytes_for(1024));
  for (const std::int64_t n : {1024, 512, 100}) {
    const auto pa = random_raw_perm(n, rng);
    const auto pb = random_raw_perm(n, rng);
    ASSERT_EQ(engine_multiply(engine, pa, pb),
              seaweed_multiply_reference_raw(pa, pb));
  }
  EXPECT_EQ(engine.arena_capacity(), cap);
  EXPECT_EQ(engine_multiply(engine, a, b), first);
}

TEST(SeaweedEngine, MultiplyIntoWritesCallerBuffer) {
  Rng rng(13);
  SeaweedEngine engine;
  const auto a = random_raw_perm(300, rng);
  const auto b = random_raw_perm(300, rng);
  std::vector<std::int32_t> out(300, kNone);
  engine_multiply(engine, a, b, out);
  EXPECT_EQ(out, seaweed_multiply_reference_raw(a, b));
}

// Determinism: the forked execution must produce the exact same bits for
// every thread count and grain size (subproblems write disjoint arena
// slices, so scheduling cannot leak into results).
TEST(SeaweedEngine, DeterministicUnderThreadCounts) {
  Rng rng(42);
  const std::int64_t n = 4096;
  const auto a = random_raw_perm(n, rng);
  const auto b = random_raw_perm(n, rng);
  const auto ref = seaweed_multiply_reference_raw(a, b);
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    ThreadPool pool(threads);
    for (const std::int64_t grain : {64, 256, 1024}) {
      SeaweedEngine engine(
          {.parallel_grain = grain, .pool = &pool});
      ASSERT_EQ(engine_multiply(engine, a, b), ref)
          << "threads=" << threads << " grain=" << grain;
      // Repeat on the warm arena: still identical.
      ASSERT_EQ(engine_multiply(engine, a, b), ref)
          << "threads=" << threads << " grain=" << grain;
    }
  }
}

// A core-sparse node's dense block can have any size, and a pooled engine
// forks it above the grain like any other node, computing both halves'
// budgets on the spot. Here one shuffled window of 300 sits in a nearly
// identical n = 2048 pair.
TEST(SeaweedEngine, PooledDenseBlockAboveGrainMatchesSequential) {
  Rng rng(8);
  const std::int64_t n = 2048;
  std::vector<std::int32_t> a(static_cast<std::size_t>(n));
  std::iota(a.begin(), a.end(), 0);
  std::vector<std::int32_t> b = a;
  for (auto* p : {&a, &b}) {
    for (std::int64_t i = 299; i > 0; --i) {
      std::swap((*p)[static_cast<std::size_t>(100 + i)],
                (*p)[static_cast<std::size_t>(100 + rng.next_in(0, i))]);
    }
  }
  ThreadPool pool(3);
  SeaweedEngine pooled({.parallel_grain = 64, .pool = &pool});
  SeaweedEngine sequential;
  const auto before = pooled.representation_stats();
  EXPECT_EQ(engine_multiply(pooled, a, b), engine_multiply(sequential, a, b));
  const auto delta = pooled.representation_stats() - before;
  EXPECT_EQ(delta, sequential.representation_stats());
  EXPECT_GT(delta.blocks_dense, 0);
}

// At n = 71 the probed root holds one 66-row dense block just above the
// grain, so the block forks its halves inside the root's budget; the
// pooled product and counters must be the sequential engine's.
TEST(SeaweedEngine, PooledBlockNearBaseCutoffMatchesSequential) {
  const std::int64_t n = 71;
  std::vector<std::int32_t> a(static_cast<std::size_t>(n));
  std::iota(a.begin(), a.end(), 0);
  std::vector<std::int32_t> b = a;
  std::swap(a[0], a[65]);  // one block of rows [0, 66), both cores inside
  std::swap(b[1], b[2]);
  ThreadPool pool(3);
  SeaweedEngine pooled({.parallel_grain = 64, .pool = &pool});
  SeaweedEngine sequential;
  EXPECT_EQ(engine_multiply(pooled, a, b), engine_multiply(sequential, a, b));
  const auto rep = pooled.representation_stats();
  EXPECT_EQ(rep, sequential.representation_stats());
  EXPECT_EQ(rep.blocks_dense, 1);
}

// Nested invoke_two from pool workers must not deadlock even when the
// fork tree is much deeper than the worker count.
TEST(ThreadPool, InvokeTwoNestedFork) {
  ThreadPool pool(2);
  std::function<std::int64_t(std::int64_t, std::int64_t)> sum =
      [&](std::int64_t lo, std::int64_t hi) -> std::int64_t {
    if (hi - lo <= 1) return lo;
    const std::int64_t mid = lo + (hi - lo) / 2;
    std::int64_t left = 0, right = 0;
    pool.invoke_two([&] { left = sum(lo, mid); },
                    [&] { right = sum(mid, hi); });
    return left + right;
  };
  EXPECT_EQ(sum(0, 1024), 1024 * 1023 / 2);
}

TEST(ThreadPool, InvokeTwoPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.invoke_two([] { throw std::runtime_error("a"); }, [] {}),
      std::runtime_error);
  EXPECT_THROW(
      pool.invoke_two([] {}, [] { throw std::runtime_error("b"); }),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// multiply_batch_into: differential fuzz against batches of one.
// ---------------------------------------------------------------------------

// Random batches (including the empty batch) of random mixed sizes
// (including 0 and 1): the batched solve must be bit-identical to solving
// every pair with an independent engine. Covers well over 1000 pairs.
TEST(SeaweedEngineBatch, MatchesPerPairMultiplyFuzz) {
  Rng rng(20260729);
  SeaweedEngine batch_engine;
  SeaweedEngine single_engine;
  std::int64_t cases = 0;
  for (int round = 0; round < 140; ++round) {
    const std::uint64_t batch_size = rng.next_below(17);  // 0..16
    std::vector<std::vector<std::int32_t>> as, bs;
    std::vector<PermPairView> views;
    for (std::uint64_t t = 0; t < batch_size; ++t) {
      // Mixed sizes, biased toward small but straddling the cutoff, with
      // explicit 0/1 degenerate entries sprinkled in.
      const std::uint64_t kind = rng.next_below(8);
      const std::int64_t n = kind == 0   ? 0
                             : kind == 1 ? 1
                                         : rng.next_in(2, 160);
      as.push_back(rng.permutation(n));
      bs.push_back(rng.permutation(n));
    }
    views.reserve(as.size());
    for (std::size_t t = 0; t < as.size(); ++t) {
      views.push_back({as[t], bs[t]});
    }
    const auto got = engine_multiply_batch(batch_engine, views);
    ASSERT_EQ(got.size(), as.size());
    for (std::size_t t = 0; t < as.size(); ++t) {
      ASSERT_EQ(got[t], engine_multiply(single_engine, as[t], bs[t]))
          << "round=" << round << " pair=" << t << " n=" << as[t].size();
      ++cases;
    }
  }
  EXPECT_GE(cases, 1000);
}

// Striping across a ThreadPool must not change a single bit or a
// representation counter, for every thread count, grain and batch shape;
// repeated on the warm arena. The second batch mixes many tiny pairs with
// pairs above the grain, so some stripes hold several pairs.
TEST(SeaweedEngineBatch, StripedAcrossPoolMatchesSequential) {
  Rng rng(4242);
  std::vector<std::vector<std::vector<std::int32_t>>> as(2), bs(2);
  for (const std::int64_t n : {0, 1, 7, 64, 65, 128, 300, 33, 2, 511}) {
    as[0].push_back(rng.permutation(n));
    bs[0].push_back(rng.permutation(n));
  }
  for (int t = 0; t < 64; ++t) {
    if (t % 16 == 5) {
      const std::int64_t n = 1024 + 100 * (t / 16);
      const bool sorted = t % 32 == 5;
      as[1].push_back(sorted ? nearly_sorted_perm(n, 8, rng)
                             : rng.permutation(n));
      bs[1].push_back(sorted ? nearly_sorted_perm(n, 8, rng)
                             : rng.permutation(n));
    } else {
      as[1].push_back(rng.permutation(t % 13));
      bs[1].push_back(rng.permutation(t % 13));
    }
  }
  for (std::size_t k = 0; k < as.size(); ++k) {
    std::vector<PermPairView> views;
    for (std::size_t t = 0; t < as[k].size(); ++t) {
      views.push_back({as[k][t], bs[k][t]});
    }
    SeaweedEngine sequential;
    const auto expect = engine_multiply_batch(sequential, views);
    const RepresentationStats expect_rep = sequential.representation_stats();
    for (const unsigned threads : {1u, 2u, 3u, 4u}) {
      ThreadPool pool(threads);
      for (const std::int64_t grain : kStripeGrains) {
        // Grains below the larger pairs also fork inside them, nesting
        // invoke_two under the batch fork-join.
        SeaweedEngine striped({.parallel_grain = grain, .pool = &pool});
        for (const char* arena : {"cold", "warm"}) {
          const auto before = striped.representation_stats();
          ASSERT_EQ(engine_multiply_batch(striped, views), expect)
              << "batch=" << k << " threads=" << threads
              << " grain=" << grain << " arena=" << arena;
          ASSERT_EQ(striped.representation_stats() - before, expect_rep)
              << "batch=" << k << " threads=" << threads
              << " grain=" << grain << " arena=" << arena;
        }
      }
    }
  }
}

TEST(SeaweedEngineBatch, EmptyBatchAndDegeneratePairs) {
  SeaweedEngine engine;
  EXPECT_TRUE(engine_multiply_batch(engine, {}).empty());
  const std::vector<std::int32_t> empty;
  const std::vector<std::int32_t> one{0};
  std::vector<PermPairView> views{{empty, empty}, {one, one}, {empty, empty}};
  const auto got = engine_multiply_batch(engine, views);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].empty());
  EXPECT_EQ(got[1], (std::vector<std::int32_t>{0}));
  EXPECT_TRUE(got[2].empty());
}

// The arena is sized once for the whole batch: re-running the same batch
// (or any batch of no-larger pairs) must not grow the buffer, and the
// sequential batch needs no more scratch than its largest pair.
TEST(SeaweedEngineBatch, ArenaSizedOnceForWholeBatch) {
  Rng rng(31337);
  SeaweedEngine engine;
  std::vector<std::vector<std::int32_t>> as, bs;
  std::vector<PermPairView> views;
  for (const std::int64_t n : {100, 700, 50, 512}) {
    as.push_back(rng.permutation(n));
    bs.push_back(rng.permutation(n));
  }
  for (std::size_t t = 0; t < as.size(); ++t) views.push_back({as[t], bs[t]});
  const auto first = engine_multiply_batch(engine, views);
  const std::size_t cap = engine.arena_capacity();
  EXPECT_GE(cap, engine.arena_bytes_for(700));
  EXPECT_EQ(engine_multiply_batch(engine, views), first);
  EXPECT_EQ(engine.arena_capacity(), cap);
}

// ---------------------------------------------------------------------------
// subunit_multiply_batch_into: differential fuzz against batches of one
// over randomized shapes, including empty, size-1 and heavily skewed ones.
// ---------------------------------------------------------------------------

struct SubunitBatchInputs {
  std::vector<std::vector<std::int32_t>> as, bs;
  std::vector<std::int64_t> b_cols;
  std::vector<SubunitPairView> views;
};

// One random (ra×n2) ⊡ (n2×cb) shape; `kind` steers degenerate and skewed
// cases so the fuzz hits empty inputs, single elements, thin/fat inner
// dimensions and all-empty-row sub-permutations.
void push_random_subunit_pair(SubunitBatchInputs& in, Rng& rng) {
  std::int64_t ra, n2, cb;
  switch (rng.next_below(8)) {
    case 0:  // an empty side
      ra = 0, n2 = rng.next_in(0, 8), cb = rng.next_in(0, 8);
      break;
    case 1:
      ra = rng.next_in(0, 8), n2 = 0, cb = rng.next_in(0, 8);
      break;
    case 2:
      ra = rng.next_in(0, 8), n2 = rng.next_in(0, 8), cb = 0;
      break;
    case 3:  // single element
      ra = n2 = cb = 1;
      break;
    case 4:  // skewed: thin inner dimension
      ra = rng.next_in(1, 120), n2 = rng.next_in(1, 8),
      cb = rng.next_in(1, 120);
      break;
    case 5:  // skewed: fat inner dimension
      ra = rng.next_in(1, 8), n2 = rng.next_in(1, 120), cb = rng.next_in(1, 8);
      break;
    default:  // generic mixed sizes straddling the base-case cutoff
      ra = rng.next_in(1, 100), n2 = rng.next_in(1, 100),
      cb = rng.next_in(1, 100);
      break;
  }
  const std::int64_t ka = std::min(ra, n2) > 0
                              ? rng.next_in(0, std::min(ra, n2))
                              : 0;  // 0 = all rows empty
  const std::int64_t kb =
      std::min(n2, cb) > 0 ? rng.next_in(0, std::min(n2, cb)) : 0;
  in.as.push_back(Perm::random_sub(ra, n2, ka, rng).row_to_col());
  in.bs.push_back(Perm::random_sub(n2, cb, kb, rng).row_to_col());
  in.b_cols.push_back(cb);
}

void finalize_views(SubunitBatchInputs& in) {
  in.views.clear();
  for (std::size_t t = 0; t < in.as.size(); ++t) {
    in.views.push_back({in.as[t], in.bs[t], in.b_cols[t]});
  }
}

// Random batches (including the empty batch) of random shapes: the batched
// subunit solve must be bit-identical to solving every pair with an
// independent engine. Covers well over 1000 shapes.
TEST(SeaweedEngineSubunitBatch, MatchesPerCallFuzz) {
  Rng rng(20260729);
  SeaweedEngine batch_engine;
  SeaweedEngine single_engine;
  std::int64_t cases = 0;
  for (int round = 0; round < 150; ++round) {
    SubunitBatchInputs in;
    const std::uint64_t batch_size = rng.next_below(17);  // 0..16
    for (std::uint64_t t = 0; t < batch_size; ++t) {
      push_random_subunit_pair(in, rng);
    }
    finalize_views(in);
    const auto got = engine_subunit_multiply_batch(batch_engine, in.views);
    ASSERT_EQ(got.size(), in.as.size());
    for (std::size_t t = 0; t < in.as.size(); ++t) {
      ASSERT_EQ(got[t], engine_subunit_multiply(single_engine, in.as[t],
                                                in.bs[t], in.b_cols[t]))
          << "round=" << round << " pair=" << t << " ra=" << in.as[t].size()
          << " n2=" << in.bs[t].size() << " cb=" << in.b_cols[t];
      ++cases;
    }
  }
  EXPECT_GE(cases, 1000);
}

// Striping a subunit batch across a ThreadPool must not change a single
// bit or a representation counter, for every thread count and grain;
// repeated on the warm arena. The second batch mixes many tiny pairs with
// pairs above the grain, so some stripes hold several pairs.
TEST(SeaweedEngineSubunitBatch, StripedAcrossPoolMatchesSequential) {
  Rng rng(777);
  std::vector<SubunitBatchInputs> batches(2);
  for (int t = 0; t < 24; ++t) push_random_subunit_pair(batches[0], rng);
  SubunitBatchInputs& mixed = batches[1];
  for (int t = 0; t < 64; ++t) {
    if (t % 16 == 5) {
      const std::int64_t n = 1024 + 100 * (t / 16);
      if (t % 32 == 5) {
        mixed.as.push_back(nearly_sorted_perm(n, 8, rng));
        mixed.bs.push_back(nearly_sorted_perm(n, 8, rng));
        mixed.b_cols.push_back(n);
      } else {
        mixed.as.push_back(
            Perm::random_sub(n - 50, n, n - 80, rng).row_to_col());
        mixed.bs.push_back(
            Perm::random_sub(n, n + 30, n - 60, rng).row_to_col());
        mixed.b_cols.push_back(n + 30);
      }
    } else {
      push_random_subunit_pair(mixed, rng);
    }
  }
  for (std::size_t k = 0; k < batches.size(); ++k) {
    SubunitBatchInputs& in = batches[k];
    finalize_views(in);
    SeaweedEngine sequential;
    const auto expect = engine_subunit_multiply_batch(sequential, in.views);
    const RepresentationStats expect_rep = sequential.representation_stats();
    for (const unsigned threads : {1u, 2u, 3u, 4u}) {
      ThreadPool pool(threads);
      for (const std::int64_t grain : kStripeGrains) {
        // Grains below the larger core solves also fork inside them,
        // nesting invoke_two under the batch fork-join.
        SeaweedEngine striped({.parallel_grain = grain, .pool = &pool});
        for (const char* arena : {"cold", "warm"}) {
          const auto before = striped.representation_stats();
          ASSERT_EQ(engine_subunit_multiply_batch(striped, in.views), expect)
              << "batch=" << k << " threads=" << threads
              << " grain=" << grain << " arena=" << arena;
          ASSERT_EQ(striped.representation_stats() - before, expect_rep)
              << "batch=" << k << " threads=" << threads
              << " grain=" << grain << " arena=" << arena;
        }
      }
    }
  }
}

// A batch whose summed size stays under the grain forms one stripe: a
// pooled engine solves it back-to-back in an arena sized for its largest
// pair, exactly like a pool-less engine, not one carved slice per pair.
TEST(SeaweedEngineSubunitBatch, BatchUnderGrainNeedsNoMoreArenaThanSequential) {
  Rng rng(31339);
  SubunitBatchInputs in;
  for (int t = 0; t < 64; ++t) {
    in.as.push_back(Perm::random_sub(100, 100, 80, rng).row_to_col());
    in.bs.push_back(Perm::random_sub(100, 100, 80, rng).row_to_col());
    in.b_cols.push_back(100);
  }
  finalize_views(in);
  ThreadPool pool(3);
  SeaweedEngine pooled({.pool = &pool});
  SeaweedEngine sequential;
  EXPECT_EQ(engine_subunit_multiply_batch(pooled, in.views),
            engine_subunit_multiply_batch(sequential, in.views));
  EXPECT_EQ(pooled.arena_capacity(), sequential.arena_capacity());
}

TEST(SeaweedEngineSubunitBatch, EmptyBatchAndDegeneratePairs) {
  SeaweedEngine engine;
  EXPECT_TRUE(engine_subunit_multiply_batch(engine, {}).empty());
  const std::vector<std::int32_t> empty;
  const std::vector<std::int32_t> none_row{kNone, kNone};
  const std::vector<std::int32_t> ident{0, 1};
  std::vector<SubunitPairView> views{
      {empty, empty, 0},      // 0×0 ⊡ 0×0
      {none_row, ident, 2},   // all rows of A empty
      {ident, none_row, 2},   // all rows of B empty
      {ident, ident, 2},      // tiny identity product
  };
  const auto got = engine_subunit_multiply_batch(engine, views);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_TRUE(got[0].empty());
  EXPECT_EQ(got[1], none_row);
  EXPECT_EQ(got[2], none_row);
  EXPECT_EQ(got[3], ident);
}

// The arena is sized once for the whole batch: re-running the same batch
// must not grow the buffer.
TEST(SeaweedEngineSubunitBatch, ArenaSizedOnceForWholeBatch) {
  Rng rng(31338);
  SeaweedEngine engine;
  SubunitBatchInputs in;
  for (int t = 0; t < 12; ++t) push_random_subunit_pair(in, rng);
  finalize_views(in);
  const auto first = engine_subunit_multiply_batch(engine, in.views);
  const std::size_t cap = engine.arena_capacity();
  EXPECT_EQ(engine_subunit_multiply_batch(engine, in.views), first);
  EXPECT_EQ(engine.arena_capacity(), cap);
}

TEST(SeaweedEngine, SubunitMultiplyOverload) {
  Rng rng(99);
  SeaweedEngine engine;
  for (int rep = 0; rep < 10; ++rep) {
    const Perm a = Perm::random_sub(40, 30, 18, rng);
    const Perm b = Perm::random_sub(30, 50, 21, rng);
    ASSERT_EQ(subunit_multiply(a, b, engine), multiply_naive(a, b));
  }
}

}  // namespace
}  // namespace monge
