// google-benchmark: wall-clock of the applications — sequential patience
// sorting, the sequential kernel (direct substrate baseline + the
// monge::Solver facade route), the Hunt–Szymanski LCS, and the whole
// simulated MPC LIS driven through the facade (which pays simulation
// overhead; the model's metric is rounds, reported by the fig_* binaries).
#include <benchmark/benchmark.h>

#include "api/solver.h"
#include "bench_common.h"
#include "lcs/hunt_szymanski.h"
#include "lis/kernel.h"
#include "lis/sequential.h"
#include "monge/engine.h"

using namespace monge;

namespace {

void BM_PatienceLis(benchmark::State& state) {
  const auto seq = bench::random_sequence(state.range(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lis::lis_length(seq));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PatienceLis)->Range(1 << 10, 1 << 18)->Complexity();

// Level-order builder: one batched subunit engine call per merge level.
void BM_LisKernelSeq(benchmark::State& state) {
  Rng rng(2);
  const auto p = rng.permutation(state.range(0));
  SeaweedEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lis::lis_kernel(p, engine));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LisKernelSeq)->Range(1 << 8, 1 << 13)->Complexity();

// The pre-batching depth-first recursion (one engine call per merge), kept
// as the per-merge baseline. A/B against BM_LisKernelSeq needs interleaved
// repetitions on the single-core dev box (see README).
void BM_LisKernelPerMerge(benchmark::State& state) {
  Rng rng(2);
  const auto p = rng.permutation(state.range(0));
  SeaweedEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lis::lis_kernel_reference(p, engine));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LisKernelPerMerge)->Range(1 << 8, 1 << 13)->Complexity();

// The facade kernel route: the same LisRequest a service client would
// send (sequence in, kernel out), paying the strict-LIS rank reduction on
// top of the lis_kernel build that BM_LisKernelSeq measures directly.
void BM_SolverLisKernel(benchmark::State& state) {
  Rng rng(2);
  const auto p = rng.permutation(state.range(0));
  LisRequest req;
  req.want_kernel = true;
  req.seq.assign(p.begin(), p.end());
  Solver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(req));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SolverLisKernel)->Range(1 << 8, 1 << 13)->Complexity();

// The whole simulated MPC LIS through the facade; the per-iteration Solver
// mirrors the fresh per-iteration cluster the direct call used (cluster
// construction/provisioning is part of the measured service cost).
void BM_MpcLisSimulated(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  LisRequest req;
  req.seq = bench::random_sequence(n, 3);
  for (auto _ : state) {
    Solver solver({.backend = SolverBackend::kMpcSim,
                   .cluster = bench::scaled_cluster(n, 0.5)});
    benchmark::DoNotOptimize(solver.solve(req));
  }
}
BENCHMARK(BM_MpcLisSimulated)->Range(1 << 8, 1 << 11);

void BM_LcsHuntSzymanski(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(4);
  std::vector<std::int64_t> s(static_cast<std::size_t>(n)),
      t(static_cast<std::size_t>(n));
  for (auto& x : s) x = rng.next_in(0, 64);
  for (auto& x : t) x = rng.next_in(0, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lcs::lcs_hs(s, t));
  }
}
BENCHMARK(BM_LcsHuntSzymanski)->Range(1 << 8, 1 << 12);

}  // namespace

BENCHMARK_MAIN();
