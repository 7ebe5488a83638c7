// google-benchmark: the sequential substrate. The arena-backed SeaweedEngine
// vs the legacy per-node-allocating recursion it replaced, engine knob
// sweeps (base-case cutoff, thread scaling), the O(n^3) distribution-matrix
// oracle (crossover is immediate), the steady-ant combine on its own, and
// the monge::Solver facade dispatch overhead vs the direct engine call.
#include <benchmark/benchmark.h>

#include <numeric>

#include "api/solver.h"
#include "monge/core_sparse.h"
#include "monge/distribution.h"
#include "monge/engine.h"
#include "monge/seaweed.h"
#include "monge/steady_ant.h"
#include "monge/steady_ant_simd.h"
#include "monge/subperm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace monge;

namespace {

/// One product on the engine's raw entry: a batch of one.
void multiply_one(SeaweedEngine& engine, const std::vector<std::int32_t>& a,
                  const std::vector<std::int32_t>& b,
                  std::vector<std::int32_t>& out) {
  const PermPairView pair{a, b};
  const std::span<std::int32_t> dst(out);
  engine.multiply_batch_into({&pair, 1}, {&dst, 1});
}

// Perm-in/Perm-out path: the validating SeaweedEngine::multiply, with an
// output Perm allocated per call.
void BM_SeaweedMultiply(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Perm a = Perm::random(n, rng);
  const Perm b = Perm::random(n, rng);
  SeaweedEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.multiply(a, b));
  }
}
BENCHMARK(BM_SeaweedMultiply)->Range(1 << 8, 1 << 14);

// The seed's textbook recursion (~8 fresh std::vectors per node), kept as
// the baseline the engine is measured against.
void BM_SeaweedReference(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const auto a = rng.permutation(n);
  const auto b = rng.permutation(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(seaweed_multiply_reference_raw(a, b));
  }
}
BENCHMARK(BM_SeaweedReference)->Range(1 << 8, 1 << 14);

// Engine with a warm arena and default knobs, sequential.
void BM_SeaweedEngine(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const auto a = rng.permutation(n);
  const auto b = rng.permutation(n);
  SeaweedEngine engine;
  std::vector<std::int32_t> out(a.size());
  for (auto _ : state) {
    multiply_one(engine, a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SeaweedEngine)->Range(1 << 8, 1 << 14);

// Base-case cutoff sweep at fixed n (tuning knob for
// SeaweedEngineOptions::base_case_cutoff).
void BM_SeaweedEngineCutoff(benchmark::State& state) {
  const std::int64_t n = 1 << 14;
  const std::int64_t cutoff = state.range(0);
  Rng rng(1);
  const auto a = rng.permutation(n);
  const auto b = rng.permutation(n);
  SeaweedEngine engine({.base_case_cutoff = cutoff});
  std::vector<std::int32_t> out(a.size());
  for (auto _ : state) {
    multiply_one(engine, a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SeaweedEngineCutoff)->RangeMultiplier(2)->Range(1, 128);

// Thread scaling at fixed n. The grain is dropped to n/16 so the fork tree
// is deep enough (16 leaves) to occupy every requested worker — with the
// default grain of 2^13 only the root of a 2^14 problem would fork.
void BM_SeaweedEngineThreads(benchmark::State& state) {
  const std::int64_t n = 1 << 14;
  const auto threads = static_cast<unsigned>(state.range(0));
  Rng rng(1);
  const auto a = rng.permutation(n);
  const auto b = rng.permutation(n);
  ThreadPool pool(threads);
  SeaweedEngine engine(
      {.parallel_grain = n / 16, .pool = threads > 1 ? &pool : nullptr});
  std::vector<std::int32_t> out(a.size());
  for (auto _ : state) {
    multiply_one(engine, a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_SeaweedEngineThreads)->DenseRange(1, 4)->UseRealTime();

// ---------------------------------------------------------------------------
// Batched engine leaf solves: one recursion level's worth of MPC leaves
// (64 independent G-sized products) as a single multiply_batch_into call,
// the call shape the MPC simulator's machine-local leaf solve issues. The
// batch pays one arena sizing and zero per-leaf output allocations.
// ---------------------------------------------------------------------------

struct LeafBatch {
  std::vector<std::int32_t> pa, pb, pc;
  std::vector<PermPairView> views;
  std::vector<std::span<std::int32_t>> outs;
};

LeafBatch make_leaf_batch(std::int64_t g, std::int64_t pairs, Rng& rng) {
  LeafBatch batch;
  batch.pa.reserve(static_cast<std::size_t>(g * pairs));
  batch.pb.reserve(static_cast<std::size_t>(g * pairs));
  batch.pc.resize(static_cast<std::size_t>(g * pairs));
  for (std::int64_t t = 0; t < pairs; ++t) {
    const auto a = rng.permutation(g);
    const auto b = rng.permutation(g);
    batch.pa.insert(batch.pa.end(), a.begin(), a.end());
    batch.pb.insert(batch.pb.end(), b.begin(), b.end());
  }
  for (std::int64_t t = 0; t < pairs; ++t) {
    const auto off = static_cast<std::size_t>(t * g);
    const auto len = static_cast<std::size_t>(g);
    batch.views.push_back(
        {std::span<const std::int32_t>(batch.pa).subspan(off, len),
         std::span<const std::int32_t>(batch.pb).subspan(off, len)});
    batch.outs.push_back(std::span<std::int32_t>(batch.pc).subspan(off, len));
  }
  return batch;
}

void BM_SeaweedEngineLeafBatch(benchmark::State& state) {
  const std::int64_t g = state.range(0);
  const std::int64_t pairs = 64;
  Rng rng(5);
  LeafBatch batch = make_leaf_batch(g, pairs, rng);
  SeaweedEngine engine;
  for (auto _ : state) {
    engine.multiply_batch_into(batch.views, batch.outs);
    benchmark::DoNotOptimize(batch.pc.data());
  }
  state.SetItemsProcessed(state.iterations() * pairs);
}
BENCHMARK(BM_SeaweedEngineLeafBatch)->Arg(64)->Arg(256)->Arg(1024);

// Striping the same 64×256 batch across a ThreadPool.
void BM_SeaweedEngineBatchThreads(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  Rng rng(5);
  LeafBatch batch = make_leaf_batch(256, 64, rng);
  ThreadPool pool(threads);
  SeaweedEngine engine({.pool = threads > 1 ? &pool : nullptr});
  for (auto _ : state) {
    engine.multiply_batch_into(batch.views, batch.outs);
    benchmark::DoNotOptimize(batch.pc.data());
  }
}
BENCHMARK(BM_SeaweedEngineBatchThreads)->DenseRange(1, 4)->UseRealTime();

// ---------------------------------------------------------------------------
// Subunit multiplication: the direct in-arena path vs the legacy reduction
// through explicitly padded Perms, on half-density sub-permutations.
// ---------------------------------------------------------------------------

void BM_SubunitDirect(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(9);
  const Perm a = Perm::random_sub(n, n, n / 2, rng);
  const Perm b = Perm::random_sub(n, n, n / 2, rng);
  SeaweedEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(subunit_multiply(a, b, engine));
  }
}
BENCHMARK(BM_SubunitDirect)->Range(1 << 8, 1 << 12);

void BM_SubunitPadded(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(9);
  const Perm a = Perm::random_sub(n, n, n / 2, rng);
  const Perm b = Perm::random_sub(n, n, n / 2, rng);
  SeaweedEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(subunit_multiply_padded(a, b, engine));
  }
}
BENCHMARK(BM_SubunitPadded)->Range(1 << 8, 1 << 12);

// ---------------------------------------------------------------------------
// Batched subunit solves: one LIS-kernel merge level's worth of subunit
// products (32 independent pairs of half-density n×n sub-permutations) as a
// single subunit_multiply_batch_into call. The batch pays one arena sizing
// for the level; this is the call shape the level-order lis_kernel issues
// once per merge level.
// ---------------------------------------------------------------------------

struct SubunitLevel {
  std::vector<std::vector<std::int32_t>> as, bs;
  std::vector<std::int32_t> out_backing;
  std::vector<SubunitPairView> views;
  std::vector<std::span<std::int32_t>> outs;
};

SubunitLevel make_subunit_level(std::int64_t n, std::int64_t pairs, Rng& rng) {
  SubunitLevel level;
  level.out_backing.resize(static_cast<std::size_t>(n * pairs));
  for (std::int64_t t = 0; t < pairs; ++t) {
    level.as.push_back(Perm::random_sub(n, n, n / 2, rng).row_to_col());
    level.bs.push_back(Perm::random_sub(n, n, n / 2, rng).row_to_col());
  }
  for (std::int64_t t = 0; t < pairs; ++t) {
    const auto i = static_cast<std::size_t>(t);
    level.views.push_back({level.as[i], level.bs[i], n});
    level.outs.push_back(std::span<std::int32_t>(level.out_backing)
                             .subspan(static_cast<std::size_t>(t * n),
                                      static_cast<std::size_t>(n)));
  }
  return level;
}

void BM_SubunitBatchLevel(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t pairs = 32;
  Rng rng(17);
  SubunitLevel level = make_subunit_level(n, pairs, rng);
  SeaweedEngine engine;
  for (auto _ : state) {
    engine.subunit_multiply_batch_into(level.views, level.outs);
    benchmark::DoNotOptimize(level.out_backing.data());
  }
  state.SetItemsProcessed(state.iterations() * pairs);
}
BENCHMARK(BM_SubunitBatchLevel)->Arg(64)->Arg(256)->Arg(1024);

// ---------------------------------------------------------------------------
// Facade dispatch overhead: the same Perm-in/Perm-out full multiply once
// through monge::Solver (request validation + routing + result wrapping)
// and once as the direct engine call the facade delegates to. Results are
// bit-identical by construction; the delta is the cost of the facade —
// an O(1) shape check, the backend switch and the result move (the O(n)
// full-permutation content check is NOT paid twice; the engine's own
// validating entry point does it once). The true delta is below run-to-run
// noise, so this A/B needs elevated repetitions:
// --benchmark_repetitions=41 --benchmark_enable_random_interleaving=true,
// compare medians (see README, Benchmarks) — the acceptance bar is <= 2%.
// ---------------------------------------------------------------------------

void BM_SolverDispatch(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const MultiplyRequest req{Perm::random(n, rng), Perm::random(n, rng)};
  Solver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(req));
  }
}
BENCHMARK(BM_SolverDispatch)->Range(1 << 8, 1 << 14);

// The delegate BM_SolverDispatch wraps: SeaweedEngine::multiply on an
// equally warm engine (same validation, same output Perm construction).
void BM_SolverDispatchDirect(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Perm a = Perm::random(n, rng);
  const Perm b = Perm::random(n, rng);
  SeaweedEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.multiply(a, b));
  }
}
BENCHMARK(BM_SolverDispatchDirect)->Range(1 << 8, 1 << 14);

// ---------------------------------------------------------------------------
// The representation layer: density-adaptive dispatch vs the dense-only
// oracle across a similarity sweep. Inputs are identity permutations with
// ~n/d rows shuffled inside 64-wide windows (d = 64 → core ratio ~1/64,
// near-identical traffic) down to d = 1 (fully random, the dense regime
// the probe must bail out of cheaply). Arg pair: (d, adaptive 0/1); both
// variants produce bit-identical outputs, the delta is pure dispatch win
// (sparse inputs) or pure probe overhead (dense inputs). Compare medians
// from interleaved repetitions (see README, Benchmarks).
// ---------------------------------------------------------------------------

std::vector<std::int32_t> core_ratio_perm(std::int64_t n, std::int64_t denom,
                                          Rng& rng) {
  if (denom == 1) return rng.permutation(n);
  std::vector<std::int32_t> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), std::int32_t{0});
  const std::int64_t width = 64;
  const std::int64_t windows = std::max<std::int64_t>(1, n / denom / width);
  for (std::int64_t w = 0; w < windows; ++w) {
    const auto start =
        static_cast<std::int64_t>(rng.next_below(n - width + 1));
    for (std::int64_t i = width - 1; i > 0; --i) {
      std::swap(p[static_cast<std::size_t>(start + i)],
                p[static_cast<std::size_t>(
                    start + static_cast<std::int64_t>(rng.next_below(i + 1)))]);
    }
  }
  return p;
}

void BM_CoreSparseVsDense(benchmark::State& state) {
  const std::int64_t n = 1 << 14;
  const std::int64_t denom = state.range(0);
  const bool adaptive = state.range(1) != 0;
  Rng rng(7);
  const auto a = core_ratio_perm(n, denom, rng);
  const auto b = core_ratio_perm(n, denom, rng);
  SeaweedEngine engine({.core_density_cutoff = adaptive ? 0.25 : 0.0});
  std::vector<std::int32_t> out(a.size());
  for (auto _ : state) {
    multiply_one(engine, a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["core_density_a"] =
      static_cast<double>(core_size_of(a)) / static_cast<double>(n);
}
BENCHMARK(BM_CoreSparseVsDense)
    ->ArgsProduct({{64, 16, 8, 4, 1}, {0, 1}});

void BM_NaiveMultiply(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  const Perm a = Perm::random(n, rng);
  const Perm b = Perm::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiply_naive(a, b));
  }
}
BENCHMARK(BM_NaiveMultiply)->Range(1 << 5, 1 << 8);

// ---------------------------------------------------------------------------
// The full steady-ant combine, scalar vs the widest SIMD path in this
// build: walk (blocked descent) + resolution (mask-select) + col-pack
// scatter, on a warm scratch set. Any row coloring of a full permutation
// is a valid H=2 union, so a random coloring measures the real combine.
// A/B per the bench-noise protocol: interleaved repetitions, compare
// medians (see README, Benchmarks).
// ---------------------------------------------------------------------------

struct CombineCase {
  std::vector<std::int32_t> row_pk, col_pk, t, out;
};

CombineCase make_combine_case(std::int64_t n, Rng& rng) {
  CombineCase c;
  const auto rc = rng.permutation(n);
  c.row_pk.resize(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    c.row_pk[static_cast<std::size_t>(r)] = static_cast<std::int32_t>(
        (rc[static_cast<std::size_t>(r)] << 1) |
        static_cast<std::int32_t>(rng.next_below(2)));
  }
  c.col_pk.resize(static_cast<std::size_t>(n));
  c.t.resize(static_cast<std::size_t>(n) + 1);
  c.out.resize(static_cast<std::size_t>(n));
  return c;
}

void run_combine_bench(benchmark::State& state, SteadyAntIsa isa) {
  const std::int64_t n = state.range(0);
  Rng rng(2);
  CombineCase c = make_combine_case(n, rng);
  state.SetLabel(steady_ant_isa_name(isa));
  for (auto _ : state) {
    steady_ant_packed_into(isa, c.row_pk, c.col_pk, c.t, c.out);
    benchmark::DoNotOptimize(c.out.data());
  }
}

void BM_SteadyAntCombineScalar(benchmark::State& state) {
  run_combine_bench(state, SteadyAntIsa::kScalar);
}
BENCHMARK(BM_SteadyAntCombineScalar)->Range(1 << 10, 1 << 18);

// The widest ISA compiled in AND supported by this host (the dispatched
// default, ignoring MONGE_FORCE_SCALAR so the A/B stays an A/B); the
// label records which path ran.
void BM_SteadyAntCombineSimd(benchmark::State& state) {
  run_combine_bench(state, steady_ant_available_isas().back());
}
BENCHMARK(BM_SteadyAntCombineSimd)->Range(1 << 10, 1 << 18);

void BM_SteadyAnt(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(2);
  std::vector<std::int32_t> rc = rng.permutation(n);
  std::vector<std::uint8_t> color(static_cast<std::size_t>(n));
  for (auto& c : color) c = static_cast<std::uint8_t>(rng.next_below(2));
  // Color split must be row/column consistent for a real combine; for a
  // throughput measurement the raw walk over a random coloring is
  // representative (the ant only reads the arrays).
  for (auto _ : state) {
    benchmark::DoNotOptimize(steady_ant_thresholds(rc, color));
  }
}
BENCHMARK(BM_SteadyAnt)->Range(1 << 10, 1 << 18);

}  // namespace

BENCHMARK_MAIN();
