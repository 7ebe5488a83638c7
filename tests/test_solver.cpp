// monge::Solver facade: every route (single + batch, both backends) is
// pinned bit-identical against the direct free-function calls it delegates
// to and against the reference oracles, plus SolverOptions validation
// (invalid backend/engine/MPC knobs throw at construction, mirroring
// SeaweedEngineOptions semantics).
#include "api/solver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/mpc_subperm.h"
#include "lcs/hunt_szymanski.h"
#include "lcs/mpc_lcs.h"
#include "lis/kernel.h"
#include "lis/mpc_lis.h"
#include "lis/sequential.h"
#include "monge/seaweed.h"
#include "monge/subperm.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace monge {
namespace {

std::vector<std::int64_t> random_sequence(std::int64_t n, std::int64_t hi,
                                          Rng& rng) {
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
  for (auto& x : seq) x = rng.next_in(0, hi);
  return seq;
}

std::vector<std::pair<std::int64_t, std::int64_t>> random_windows(
    std::int64_t n, std::int64_t q, Rng& rng) {
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;
  for (std::int64_t i = 0; i < q; ++i) {
    windows.push_back({rng.next_in(0, n - 1), rng.next_in(0, n - 1)});
  }
  windows.push_back({3, 2});  // legitimate empty window
  return windows;
}

TEST(SolverOptions, ValidationThrowsAtConstruction) {
  EXPECT_NO_THROW(Solver{});
  EXPECT_NO_THROW(Solver{SolverOptions{.backend = SolverBackend::kMpcSim}});

  // Solver-validated knobs throw the taxonomy's InvalidRequestError.
  for (const int bad : {2, 7}) {  // 2 was the retired Reference backend
    SolverOptions bad_backend;
    bad_backend.backend = static_cast<SolverBackend>(bad);
    EXPECT_THROW(Solver{bad_backend}, InvalidRequestError) << bad;
  }

  // Engine knobs are validated by the owned engine's constructor, which
  // keeps its std::logic_error contract.
  SolverOptions bad_cutoff;
  bad_cutoff.engine.base_case_cutoff = 0;
  EXPECT_THROW(Solver{bad_cutoff}, std::logic_error);
  SolverOptions bad_grain;
  bad_grain.engine.parallel_grain = 1;
  EXPECT_THROW(Solver{bad_grain}, std::logic_error);

  SolverOptions bad_delta;
  bad_delta.mpc_delta = 1.0;
  EXPECT_THROW(Solver{bad_delta}, InvalidRequestError);
  SolverOptions bad_slack;
  bad_slack.mpc_slack = 0.0;
  EXPECT_THROW(Solver{bad_slack}, InvalidRequestError);
  SolverOptions bad_machines;
  bad_machines.cluster.num_machines = -1;
  EXPECT_THROW(Solver{bad_machines}, InvalidRequestError);
  SolverOptions bad_space;
  bad_space.cluster.num_machines = 2;
  bad_space.cluster.space_words = 0;
  EXPECT_THROW(Solver{bad_space}, InvalidRequestError);
  SolverOptions bad_multiply;
  bad_multiply.multiply.split_h = -1;
  EXPECT_THROW(Solver{bad_multiply}, InvalidRequestError);
  // An arity of 1 would never end a MpcSim multiply.
  SolverOptions split_one;
  split_one.multiply.split_h = 1;
  EXPECT_THROW(Solver{split_one}, InvalidRequestError);
  SolverOptions fanout_one;
  fanout_one.multiply.tree_fanout = 1;
  EXPECT_THROW(Solver{fanout_one}, InvalidRequestError);
  SolverOptions bad_classes;
  bad_classes.lis_leaf_classes = -1;
  EXPECT_THROW(Solver{bad_classes}, InvalidRequestError);
}

TEST(SolverOptions, EchoedExactlyAndBackendNames) {
  SolverOptions opts;
  opts.backend = SolverBackend::kMpcSim;
  opts.engine.base_case_cutoff = 3;
  opts.mpc_delta = 0.25;
  Solver solver(opts);
  EXPECT_EQ(solver.options().backend, SolverBackend::kMpcSim);
  EXPECT_EQ(solver.options().engine.base_case_cutoff, 3);
  EXPECT_EQ(solver.options().mpc_delta, 0.25);
  EXPECT_EQ(solver.engine().options().base_case_cutoff, 3);
  EXPECT_STREQ(solver_backend_name(SolverBackend::kSequential), "sequential");
  EXPECT_STREQ(solver_backend_name(SolverBackend::kMpcSim), "mpc-sim");
}

TEST(SolverOptions, ShapeValidationOnRequests) {
  Solver solver;
  Rng rng(3);
  // Inner dimension mismatch.
  MultiplyRequest bad{Perm::random(4, rng), Perm::random(5, rng)};
  EXPECT_THROW(solver.solve(bad), std::logic_error);
  // kFull on a sub-permutation.
  MultiplyRequest sub{Perm::random_sub(4, 4, 2, rng), Perm::random(4, rng),
                      MultiplyRequest::Kind::kFull};
  EXPECT_THROW(solver.solve(sub), std::logic_error);
}

TEST(SolverMultiply, SequentialBitIdenticalToDirectCalls) {
  SeaweedEngine engine;
  Rng rng(11);
  Solver solver;
  for (const std::int64_t n : {1, 2, 3, 5, 16, 33, 64, 257}) {
    const MultiplyRequest full{Perm::random(n, rng), Perm::random(n, rng)};
    const Perm full_c = solver.solve(full).c;
    EXPECT_EQ(full_c, engine.multiply(full.a, full.b)) << n;
    // The textbook recursion is the oracle.
    EXPECT_EQ(full_c, Perm::from_rows(seaweed_multiply_reference_raw(
                                          full.a.row_to_col(),
                                          full.b.row_to_col()),
                                      n))
        << n;

    const MultiplyRequest sub{
        Perm::random_sub(n, n, n / 2, rng),
        Perm::random_sub(n, (3 * n) / 2, n / 2, rng),
        MultiplyRequest::Kind::kSubunit};
    const Perm sub_c = solver.solve(sub).c;
    EXPECT_EQ(sub_c, subunit_multiply(sub.a, sub.b, engine)) << n;
    // The explicit §4.1 padding is the oracle.
    EXPECT_EQ(sub_c, subunit_multiply_padded(sub.a, sub.b, engine)) << n;
  }
}

// A single subunit product is one batched engine call, on the engine and
// through the facade: both advance subunit_batch_calls() by exactly 1.
TEST(SolverMultiply, SingleSubunitProductIsOneBatchedEngineCall) {
  Rng rng(14);
  const Perm a = Perm::random_sub(40, 30, 18, rng);
  const Perm b = Perm::random_sub(30, 50, 21, rng);
  SeaweedEngine engine;
  const std::int64_t engine_before = engine.subunit_batch_calls();
  const Perm direct = subunit_multiply(a, b, engine);
  EXPECT_EQ(engine.subunit_batch_calls(), engine_before + 1);

  Solver solver;
  const std::int64_t solver_before = solver.engine().subunit_batch_calls();
  const MultiplyResult result =
      solver.solve(MultiplyRequest{a, b, MultiplyRequest::Kind::kSubunit});
  EXPECT_EQ(solver.engine().subunit_batch_calls(), solver_before + 1);
  EXPECT_EQ(result.c, direct);
  EXPECT_EQ(direct, subunit_multiply_padded(a, b, engine));
}

TEST(SolverMultiply, SequentialBatchBitIdenticalAndOneEngineCallPerKind) {
  SeaweedEngine engine;
  Rng rng(13);
  Solver solver;
  std::vector<MultiplyRequest> reqs;
  for (const std::int64_t n : {1, 2, 5, 16, 64, 33}) {
    reqs.push_back({Perm::random(n, rng), Perm::random(n, rng)});
    reqs.push_back({Perm::random_sub(n, n, n / 2, rng),
                    Perm::random_sub(n, n, n / 2, rng),
                    MultiplyRequest::Kind::kSubunit});
  }
  const std::int64_t sub_calls_before = solver.engine().subunit_batch_calls();
  const auto results = solver.solve_batch(reqs);
  // The whole subunit group went through exactly ONE batched engine call.
  EXPECT_EQ(solver.engine().subunit_batch_calls(), sub_calls_before + 1);
  ASSERT_EQ(results.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Perm direct = reqs[i].kind == MultiplyRequest::Kind::kFull
                            ? engine.multiply(reqs[i].a, reqs[i].b)
                            : subunit_multiply(reqs[i].a, reqs[i].b, engine);
    EXPECT_EQ(results[i].c, direct) << i;
  }
}

TEST(SolverMultiply, SequentialBatchMatchesWithThreadPool) {
  Rng rng(14);
  std::vector<MultiplyRequest> reqs;
  for (const std::int64_t n : {1, 3, 16, 64, 128}) {
    reqs.push_back({Perm::random(n, rng), Perm::random(n, rng)});
    reqs.push_back({Perm::random_sub(n, n, n / 2, rng),
                    Perm::random_sub(n, n, n / 2, rng),
                    MultiplyRequest::Kind::kSubunit});
  }
  Solver seq_solver;
  ThreadPool pool(3);
  Solver pool_solver({.engine = {.parallel_grain = 32, .pool = &pool}});
  const auto seq_res = seq_solver.solve_batch(reqs);
  const auto pool_res = pool_solver.solve_batch(reqs);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(seq_res[i].c, pool_res[i].c) << i;
  }
}

TEST(SolverMultiply, MpcSimBitIdenticalToDirectCalls) {
  Rng rng(15);
  mpc::MpcConfig cfg;
  cfg.num_machines = 4;
  cfg.space_words = 1 << 20;
  cfg.threads = 2;
  const std::int64_t n = 64;
  const MultiplyRequest full{Perm::random(n, rng), Perm::random(n, rng)};
  const MultiplyRequest sub{Perm::random_sub(n, n, n / 2, rng),
                            Perm::random_sub(n, n, n / 2, rng),
                            MultiplyRequest::Kind::kSubunit};

  Solver solver({.backend = SolverBackend::kMpcSim, .cluster = cfg});
  const auto full_res = solver.solve(full);
  const auto sub_res = solver.solve(sub);

  {
    mpc::Cluster direct_cluster(cfg);
    core::MpcMultiplyReport rep;
    const Perm direct =
        core::mpc_unit_monge_multiply(direct_cluster, full.a, full.b, {}, &rep);
    EXPECT_EQ(full_res.c, direct);
    EXPECT_EQ(full_res.report.rounds, rep.rounds);
    EXPECT_EQ(full_res.report.levels, rep.levels);
    EXPECT_EQ(full_res.report.split_h, rep.split_h);
    EXPECT_EQ(full_res.report.rank_queries, rep.rank_queries);
  }
  {
    mpc::Cluster direct_cluster(cfg);
    core::MpcMultiplyReport rep;
    const Perm direct =
        core::mpc_subunit_multiply(direct_cluster, sub.a, sub.b, {}, &rep);
    EXPECT_EQ(sub_res.c, direct);
    EXPECT_EQ(sub_res.report.rounds, rep.rounds);
  }
}

TEST(SolverMultiply, MpcSimBatchBitIdenticalToDirectBatch) {
  Rng rng(16);
  mpc::MpcConfig cfg;
  cfg.num_machines = 4;
  cfg.space_words = 1 << 20;
  cfg.threads = 2;
  std::vector<MultiplyRequest> reqs;
  for (const std::int64_t n : {16, 32, 64}) {
    reqs.push_back({Perm::random(n, rng), Perm::random(n, rng)});
  }
  Solver solver({.backend = SolverBackend::kMpcSim, .cluster = cfg});
  const auto results = solver.solve_batch(reqs);

  std::vector<std::pair<Perm, Perm>> pairs;
  for (const auto& r : reqs) pairs.emplace_back(r.a, r.b);
  mpc::Cluster direct_cluster(cfg);
  core::MpcMultiplyReport rep;
  const auto direct =
      core::mpc_unit_monge_multiply_batch(direct_cluster, pairs, {}, &rep);
  ASSERT_EQ(results.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(results[i].c, direct[i]) << i;
    EXPECT_EQ(results[i].report.rounds, rep.rounds);
  }
}

TEST(SolverLis, SequentialRoutesBitIdenticalToDirectCalls) {
  SeaweedEngine engine;
  Rng rng(17);
  Solver solver;
  for (const std::int64_t n : {1, 2, 37, 192}) {
    const auto seq = random_sequence(n, 40, rng);  // duplicates likely

    // Length-only routes to patience sorting.
    EXPECT_EQ(solver.solve(LisRequest{.seq = seq}).lis, lis::lis_length(seq));

    // Kernel route: rank reduction + the level-order kernel builder.
    const auto kres = solver.solve(LisRequest{.seq = seq, .want_kernel = true});
    const Perm direct_kernel =
        lis::lis_kernel(lis::rank_reduce_strict(seq), engine);
    EXPECT_EQ(kres.kernel, direct_kernel);
    EXPECT_EQ(kres.lis, lis::lis_from_kernel(direct_kernel));

    // Windowed batch answers through the kernel.
    const auto windows = random_windows(n, 6, rng);
    const auto wres = solver.solve(LisRequest{.seq = seq, .windows = windows});
    EXPECT_EQ(wres.window_lis,
              lis::kernel_window_lis_batch(direct_kernel, windows));
    EXPECT_TRUE(wres.kernel.row_to_col().empty());  // not requested

    // The oracles: the quadratic DP, the depth-first kernel builder and
    // per-window patience sorting.
    EXPECT_EQ(kres.lis, lis::lis_length_dp(seq));
    EXPECT_EQ(kres.kernel,
              lis::lis_kernel_reference(lis::rank_reduce_strict(seq), engine));
    EXPECT_EQ(wres.window_lis, lis::lis_window_batch(seq, windows));
  }
}

TEST(SolverLis, SequentialBatchBitIdenticalToPerRequestSolve) {
  Rng rng(19);
  Solver solver;
  std::vector<LisRequest> reqs;
  for (const std::int64_t n : {5, 64, 33, 128}) {
    reqs.push_back({.seq = random_sequence(n, 25, rng)});  // length-only
    reqs.push_back({.seq = random_sequence(n, 25, rng), .want_kernel = true});
    reqs.push_back({.seq = random_sequence(n, 25, rng),
                    .windows = random_windows(n, 4, rng)});
  }
  const auto batch = solver.solve_batch(reqs);
  ASSERT_EQ(batch.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const auto single = solver.solve(reqs[i]);
    EXPECT_EQ(batch[i].lis, single.lis) << i;
    EXPECT_EQ(batch[i].kernel, single.kernel) << i;
    EXPECT_EQ(batch[i].window_lis, single.window_lis) << i;
  }
}

TEST(SolverLis, MpcSimBitIdenticalToDirectCalls) {
  Rng rng(20);
  const std::int64_t n = 256;
  const auto seq = random_sequence(n, 1 << 20, rng);
  const auto windows = random_windows(n, 8, rng);

  Solver solver({.backend = SolverBackend::kMpcSim});  // auto-provisioned
  const auto res = solver.solve(
      LisRequest{.seq = seq, .want_kernel = true, .windows = windows});

  mpc::Cluster direct_cluster(mpc::MpcConfig::fully_scalable(n, 0.5));
  const auto direct = lis::mpc_lis(direct_cluster, seq);
  EXPECT_EQ(res.lis, direct.lis);
  EXPECT_EQ(res.kernel, direct.kernel);
  EXPECT_EQ(res.rounds, direct.rounds);
  EXPECT_EQ(res.merge_levels, direct.merge_levels);
  EXPECT_EQ(res.window_lis,
            lis::kernel_window_lis_batch(direct.kernel, windows));
  EXPECT_EQ(res.lis, lis::lis_length(seq));  // and it is the right answer
}

TEST(SolverLcs, AllBackendsBitIdenticalToDirectCalls) {
  Rng rng(21);
  const auto s = random_sequence(96, 6, rng);
  const auto t = random_sequence(80, 6, rng);
  const auto matches =
      static_cast<std::int64_t>(lcs::hs_match_sequence(s, t).size());

  Solver seq_solver;
  const auto seq_res = seq_solver.solve(LcsRequest{s, t});
  EXPECT_EQ(seq_res.lcs, lcs::lcs_hs(s, t));
  EXPECT_EQ(seq_res.matches, matches);

  EXPECT_EQ(seq_res.lcs, lcs::lcs_dp(s, t));

  Solver mpc_solver({.backend = SolverBackend::kMpcSim});
  const auto mpc_res = mpc_solver.solve(LcsRequest{s, t});
  mpc::Cluster direct_cluster(mpc::MpcConfig::fully_scalable(matches, 0.5));
  const auto direct = lcs::mpc_lcs(direct_cluster, s, t);
  EXPECT_EQ(mpc_res.lcs, direct.lcs);
  EXPECT_EQ(mpc_res.matches, direct.matches);
  EXPECT_EQ(mpc_res.rounds, direct.rounds);
}

TEST(SolverLcs, ReferenceAndSequentialReportIdenticalMatches) {
  // The streaming lcs::hs_match_count and the DP oracle must agree exactly
  // with what the Sequential route reports.
  Rng rng(31);
  Solver seq_solver;
  for (int trial = 0; trial < 12; ++trial) {
    const LcsRequest req{random_sequence(rng.next_in(0, 64), 5, rng),
                         random_sequence(rng.next_in(0, 64), 5, rng)};
    const auto seq_res = seq_solver.solve(req);
    ASSERT_EQ(lcs::hs_match_count(req.s, req.t), seq_res.matches) << trial;
    ASSERT_EQ(lcs::lcs_dp(req.s, req.t), seq_res.lcs) << trial;
  }
}

TEST(SolverLcs, BatchBitIdenticalToPerRequestSolveAllBackends) {
  // The Sequential batch fast path groups by (t, s), shares occurrence
  // tables and answers each group once; it must stay bit-identical to
  // the per-call loop. Duplicates and shared-t requests stress the
  // grouping; the empty pair stresses the zero-match path.
  Rng rng(32);
  const auto shared_t = random_sequence(48, 4, rng);
  std::vector<LcsRequest> reqs;
  reqs.push_back({random_sequence(40, 4, rng), shared_t});
  reqs.push_back({random_sequence(30, 4, rng), shared_t});
  reqs.push_back(reqs[0]);  // exact duplicate collapses in the batch
  reqs.push_back({random_sequence(25, 3, rng), random_sequence(31, 3, rng)});
  reqs.push_back({{}, shared_t});
  reqs.push_back({random_sequence(10, 2, rng), {}});
  reqs.push_back({shared_t, shared_t});

  for (const auto backend :
       {SolverBackend::kSequential, SolverBackend::kMpcSim}) {
    SolverOptions opts;
    opts.backend = backend;
    opts.cluster.threads = 1;
    Solver solver(opts);
    const auto batch = solver.solve_batch(reqs);
    ASSERT_EQ(batch.size(), reqs.size());
    Solver fresh(opts);  // per-call loop on an independent instance
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto single = fresh.solve(reqs[i]);
      EXPECT_EQ(batch[i].lcs, single.lcs) << i;
      EXPECT_EQ(batch[i].matches, single.matches) << i;
    }
  }
}

TEST(SolverCluster, LazyProvisioningAndReuse) {
  Rng rng(22);
  Solver solver({.backend = SolverBackend::kMpcSim});
  EXPECT_EQ(solver.cluster(), nullptr);  // lazy: nothing until first use

  const auto seq = random_sequence(128, 1 << 16, rng);
  const auto first = solver.solve(LisRequest{.seq = seq});
  const mpc::Cluster* cluster_after_first = solver.cluster();
  ASSERT_NE(cluster_after_first, nullptr);

  // Same-size request: the cluster is reused and the per-request round
  // delta is reproducible.
  const auto second = solver.solve(LisRequest{.seq = seq});
  EXPECT_EQ(solver.cluster(), cluster_after_first);
  EXPECT_EQ(second.lis, first.lis);
  EXPECT_EQ(second.rounds, first.rounds);

  // A different input size re-provisions (fully_scalable config changes).
  const auto big = random_sequence(512, 1 << 16, rng);
  (void)solver.solve(LisRequest{.seq = big});
  EXPECT_EQ(solver.cluster()->machines(),
            mpc::MpcConfig::fully_scalable(512, 0.5).num_machines);
}

TEST(SolverTrySolve, OkPathMatchesSolveBitIdentically) {
  Rng rng(31);
  const auto seq = random_sequence(96, 1 << 12, rng);
  Solver solver;
  const auto direct = solver.solve(LisRequest{.seq = seq, .want_kernel = true});
  auto res = solver.try_solve(LisRequest{.seq = seq, .want_kernel = true});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.report.status, SolveStatus::kOk);
  EXPECT_EQ(res.report.backend, SolverBackend::kSequential);
  EXPECT_FALSE(res.report.degraded);
  EXPECT_TRUE(res.report.message.empty());
  EXPECT_EQ(res.report.recovery, mpc::RecoveryStats{});
  EXPECT_EQ(res.value.lis, direct.lis);
  EXPECT_EQ(res.value.kernel, direct.kernel);
}

TEST(SolverTrySolve, InvalidRequestIsClassifiedNotDegraded) {
  Rng rng(32);
  Solver solver;
  // Inner dimension mismatch: invalid on every backend, never degraded.
  MultiplyRequest bad{Perm::random(4, rng), Perm::random(5, rng)};
  const auto res = solver.try_solve(bad);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.report.status, SolveStatus::kInvalidRequest);
  EXPECT_FALSE(res.report.degraded);
  EXPECT_FALSE(res.report.message.empty());
}

TEST(SolverTrySolve, ReportsRecoveryActivityOnChaoticOkRuns) {
  // Auto-provisioned MpcSim cluster with a recoverable chaos plan: the
  // faults carry into the provisioned config, the run succeeds, and the
  // report's recovery delta shows the masked events.
  Rng rng(33);
  const auto seq = random_sequence(96, 1 << 12, rng);
  SolverOptions opts;
  opts.backend = SolverBackend::kMpcSim;
  opts.cluster.threads = 1;
  opts.cluster.faults.seed = 7;
  opts.cluster.faults.drop_prob = 1.0;
  Solver solver(opts);
  Solver clean({.backend = SolverBackend::kMpcSim,
                .cluster = {.num_machines = 0, .threads = 1}});
  const auto baseline = clean.solve(LisRequest{.seq = seq});
  auto res = solver.try_solve(LisRequest{.seq = seq});
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.report.degraded);
  EXPECT_EQ(res.value.lis, baseline.lis);
  EXPECT_EQ(res.value.rounds, baseline.rounds);  // paper ledger unchanged
  EXPECT_GT(res.report.recovery.messages_dropped, 0);
  EXPECT_GT(res.report.recovery.recovery_comm_words, 0);
}

TEST(SolverTrySolve, UnrecoverableFaultDegradesToSequential) {
  Rng rng(34);
  const auto seq = random_sequence(96, 1 << 12, rng);
  SolverOptions opts;
  opts.backend = SolverBackend::kMpcSim;
  opts.cluster.num_machines = 4;
  opts.cluster.space_words = 1 << 20;
  opts.cluster.threads = 1;
  // Crash in an uncheckpointed round: recovery is impossible by design.
  opts.cluster.checkpoint_interval = 2;
  opts.cluster.faults.scheduled.push_back(
      {/*round=*/1, /*machine=*/0, mpc::FaultKind::kCrash});
  Solver solver(opts);

  // solve() throws the taxonomy error; try_solve degrades instead.
  EXPECT_THROW(solver.solve(LisRequest{.seq = seq}), FaultError);
  auto res = solver.try_solve(LisRequest{.seq = seq});
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.report.degraded);
  EXPECT_EQ(res.report.backend, SolverBackend::kSequential);
  EXPECT_NE(res.report.message.find("fault"), std::string::npos);
  EXPECT_NE(res.report.message.find("degraded to sequential"),
            std::string::npos);
  EXPECT_EQ(res.value.lis, lis::lis_length(seq));
  // The failed cluster was torn down for a clean slate.
  EXPECT_EQ(solver.cluster(), nullptr);
}

TEST(SolverTrySolve, SpaceOverrunDegradesToSequential) {
  Rng rng(35);
  const auto seq = random_sequence(256, 1 << 12, rng);
  SolverOptions opts;
  opts.backend = SolverBackend::kMpcSim;
  opts.cluster.num_machines = 4;
  opts.cluster.space_words = 8;  // absurdly tight: guaranteed overrun
  opts.cluster.strict = true;
  opts.cluster.threads = 1;
  Solver solver(opts);
  auto res = solver.try_solve(LisRequest{.seq = seq});
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.report.degraded);
  EXPECT_NE(res.report.message.find("space-limit"), std::string::npos);
  EXPECT_EQ(res.value.lis, lis::lis_length(seq));
}

TEST(SolverTrySolve, StatusNames) {
  EXPECT_STREQ(solve_status_name(SolveStatus::kOk), "ok");
  EXPECT_STREQ(solve_status_name(SolveStatus::kInvalidRequest),
               "invalid-request");
  EXPECT_STREQ(solve_status_name(SolveStatus::kSpaceLimit), "space-limit");
  EXPECT_STREQ(solve_status_name(SolveStatus::kFault), "fault");
  EXPECT_STREQ(solve_status_name(SolveStatus::kCodec), "codec");
  EXPECT_STREQ(solve_status_name(SolveStatus::kInternalError),
               "internal-error");
}

}  // namespace
}  // namespace monge
