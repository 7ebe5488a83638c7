// SolverService: request digests (every field of every kind), the four
// entry points agreeing on every request kind, in-flight dedup (K
// identical concurrent submits -> exactly one underlying solve), bounded
// admission (reject and block), LRU result-cache behavior incl. eviction,
// bit-identity of service answers vs direct Solver::solve on both backends
// and vs the reference oracles (fresh and cached), shutdown drain, and the
// chaos path (unrecoverable MpcSim fault -> degraded report through the
// future).
#include "api/service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lcs/hunt_szymanski.h"
#include "lis/kernel.h"
#include "lis/sequential.h"
#include "monge/engine.h"
#include "monge/seaweed.h"
#include "query/semilocal_index.h"
#include "monge/subperm.h"
#include "util/error.h"
#include "util/rng.h"

namespace monge {
namespace {

std::vector<std::int64_t> random_sequence(std::int64_t n, std::int64_t hi,
                                          Rng& rng) {
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n));
  for (auto& x : seq) x = rng.next_in(0, hi);
  return seq;
}

TEST(RequestDigest, IdenticalPayloadsDigestEqually) {
  Rng rng(1);
  const auto seq = random_sequence(32, 100, rng);
  const LisRequest a{.seq = seq, .want_kernel = true, .windows = {{1, 5}}};
  const LisRequest b{.seq = seq, .want_kernel = true, .windows = {{1, 5}}};
  EXPECT_EQ(request_digest(a), request_digest(b));

  MultiplyRequest m1{Perm::identity(8), Perm::reverse(8)};
  MultiplyRequest m2{Perm::identity(8), Perm::reverse(8)};
  EXPECT_EQ(request_digest(m1), request_digest(m2));
}

/// How many fields RequestTraits::visit lists for req.
template <typename Req>
std::size_t visited_fields(const Req& req) {
  return RequestTraits<Req>::visit(
      req, [](const auto&... fields) { return sizeof...(fields); });
}

/// Each entry of `perturbed` is `base` with exactly one visited field
/// changed, one entry per field: every one must move the digest.
template <typename Req>
void expect_every_field_digested(const Req& base,
                                 const std::vector<Req>& perturbed) {
  ASSERT_EQ(perturbed.size(), visited_fields(base))
      << "one perturbation per visited field";
  for (std::size_t i = 0; i < perturbed.size(); ++i) {
    EXPECT_NE(request_digest(perturbed[i]), request_digest(base))
        << "field " << i << " of kind " << RequestTraits<Req>::kTag;
  }
}

TEST(RequestDigest, DistinguishesPayloadsAndFieldBoundaries) {
  // The s/t split is length-prefixed: moving one element across the
  // boundary must change the digest even though the concatenation agrees.
  const LcsRequest split_a{.s = {1, 2}, .t = {3}};
  const LcsRequest split_b{.s = {1}, .t = {2, 3}};
  EXPECT_NE(request_digest(split_a), request_digest(split_b));

  // Every field that visit() lists matters, on every kind: one row per
  // kind in MONGE_REQUEST_KINDS (a new kind adds its row). A visitor that
  // dropped a field (say BuildIndexRequest::kind, which would let the
  // cache hand a window-LIS index to a substring-LCS build) fails here.
  Rng rng(2);
  const auto seq = random_sequence(32, 100, rng);
  const auto other = random_sequence(32, 100, rng);
  Solver solver;
  const QueryHandle lis_a =
      solver.solve(BuildIndexRequest{.seq = {3, 1, 4, 1, 5}}).handle;
  const QueryHandle lis_b =
      solver.solve(BuildIndexRequest{.seq = {3, 1, 4, 1, 5}}).handle;
  const QueryHandle lcs_a =
      solver
          .solve(BuildIndexRequest{.kind = BuildIndexRequest::Kind::kSubstringLcs,
                                   .seq = {1, 2, 3},
                                   .t = {3, 2, 1}})
          .handle;
  const QueryHandle lcs_b =
      solver
          .solve(BuildIndexRequest{.kind = BuildIndexRequest::Kind::kSubstringLcs,
                                   .seq = {1, 2, 3},
                                   .t = {3, 2, 1}})
          .handle;

  const MultiplyRequest mul{Perm::identity(8), Perm::identity(8)};
  expect_every_field_digested(
      mul, {{mul.a, mul.b, MultiplyRequest::Kind::kSubunit},
            {Perm::reverse(8), mul.b},
            {mul.a, Perm::reverse(8)}});

  const LisRequest lis{.seq = seq, .windows = {{0, 3}}};
  expect_every_field_digested(
      lis, {{.seq = other, .windows = lis.windows},
            {.seq = seq, .want_kernel = true, .windows = lis.windows},
            {.seq = seq, .windows = {{0, 4}}}});

  const LcsRequest lcs{.s = seq, .t = other};
  expect_every_field_digested(
      lcs, {{.s = other, .t = other}, {.s = seq, .t = seq}});

  const BuildIndexRequest build{.seq = seq};
  expect_every_field_digested(
      build,
      {{.kind = BuildIndexRequest::Kind::kSubstringLcs, .seq = seq},
       {.seq = other},
       {.seq = seq, .t = {1}}});

  const WindowLisQuery win{lis_a, {{0, 3}, {1, 2}}};
  expect_every_field_digested(
      win, {{lis_b, win.windows}, {lis_a, {{0, 3}, {1, 3}}}});

  const SubstringLcsQuery sub{lcs_a, {{0, 2}}};
  expect_every_field_digested(
      sub, {{lcs_b, sub.substrings}, {lcs_a, {{1, 2}}}});

  // The same words under two kinds' tags never share a digest: the tag
  // word leads every stream.
  EXPECT_NE(request_digest(WindowLisQuery{lis_a, {{0, 2}}}),
            request_digest(SubstringLcsQuery{lis_a, {{0, 2}}}));
  // [len, seq..., want_kernel = 1, 0 windows] vs [len, s..., |t| = 1, 0].
  EXPECT_NE(request_digest(LisRequest{.seq = seq, .want_kernel = true}),
            request_digest(LcsRequest{.s = seq, .t = {0}}));
  const LisRequest lis_like{.seq = {1, 2}};
  const LcsRequest lcs_like{.s = {1, 2}, .t = {}};
  EXPECT_NE(request_digest(lis_like), request_digest(lcs_like));
}

// ---------------------------------------------------------------------------
// Every request kind: solve, try_solve, submit and try_submit agree.
// ---------------------------------------------------------------------------

using Windows = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// One sample request of each kind; the query kinds index on `solver`.
template <typename Req>
Req sample_request(Solver& solver);

template <>
MultiplyRequest sample_request(Solver& /*solver*/) {
  Rng rng(40);
  return {Perm::random_sub(20, 28, 12, rng), Perm::random_sub(28, 24, 14, rng),
          MultiplyRequest::Kind::kSubunit};
}

template <>
LisRequest sample_request(Solver& /*solver*/) {
  Rng rng(41);
  return {.seq = random_sequence(48, 200, rng),
          .want_kernel = true,
          .windows = {{0, 10}, {5, 30}, {7, 2}}};
}

template <>
LcsRequest sample_request(Solver& /*solver*/) {
  Rng rng(42);
  return {.s = random_sequence(24, 6, rng), .t = random_sequence(30, 6, rng)};
}

template <>
BuildIndexRequest sample_request(Solver& /*solver*/) {
  Rng rng(43);
  return {.kind = BuildIndexRequest::Kind::kSubstringLcs,
          .seq = random_sequence(20, 5, rng),
          .t = random_sequence(16, 5, rng)};
}

template <>
WindowLisQuery sample_request(Solver& solver) {
  Rng rng(44);
  const auto seq = random_sequence(40, 100, rng);
  return {solver.solve(BuildIndexRequest{.seq = seq}).handle,
          {{0, 39}, {3, 17}, {9, 4}}};
}

template <>
SubstringLcsQuery sample_request(Solver& solver) {
  return {solver.solve(sample_request<BuildIndexRequest>(solver)).handle,
          {{0, 19}, {2, 11}, {6, 5}}};
}

void expect_same(const MultiplyResult& a, const MultiplyResult& b) {
  EXPECT_EQ(a.c, b.c);
  EXPECT_EQ(a.report.rounds, b.report.rounds);
  EXPECT_EQ(a.report.levels, b.report.levels);
}

void expect_same(const LisResult& a, const LisResult& b) {
  EXPECT_EQ(a.lis, b.lis);
  EXPECT_EQ(a.kernel, b.kernel);
  EXPECT_EQ(a.window_lis, b.window_lis);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.merge_levels, b.merge_levels);
}

void expect_same(const LcsResult& a, const LcsResult& b) {
  EXPECT_EQ(a.lcs, b.lcs);
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.rounds, b.rounds);
}

/// Two builds return different handles, so they agree when the shapes and
/// the answers of every window (or substring) agree.
void expect_same(const BuildIndexResult& a, const BuildIndexResult& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.points, b.points);
  EXPECT_EQ(a.full, b.full);
  EXPECT_EQ(a.rounds, b.rounds);
  ASSERT_TRUE(a.handle.valid());
  ASSERT_TRUE(b.handle.valid());
  const query::SemiLocalIndex& ia = *a.handle.index;
  const query::SemiLocalIndex& ib = *b.handle.index;
  ASSERT_EQ(ia.lcs_mode(), ib.lcs_mode());
  const std::int64_t len = ia.lcs_mode() ? ia.source_rows() : ia.size();
  Windows all;
  for (std::int64_t l = 0; l < len; ++l) {
    for (std::int64_t r = l; r < len; ++r) all.emplace_back(l, r);
  }
  if (ia.lcs_mode()) {
    EXPECT_EQ(ia.substring_lcs_batch(all), ib.substring_lcs_batch(all));
  } else {
    EXPECT_EQ(ia.window_lis_batch(all), ib.window_lis_batch(all));
  }
}

void expect_same(const WindowLisResult& a, const WindowLisResult& b) {
  EXPECT_EQ(a.lis, b.lis);
}

void expect_same(const SubstringLcsResult& a, const SubstringLcsResult& b) {
  EXPECT_EQ(a.lcs, b.lcs);
}

template <typename List>
struct GtestTypesOf;
template <typename... Reqs>
struct GtestTypesOf<RequestList<Reqs...>> {
  using type = ::testing::Types<Reqs...>;
};

/// Names each instantiation by its kind's digest tag (EveryRequestKind/M...).
struct KindTagName {
  template <typename Req>
  static std::string GetName(int /*index*/) {
    return std::string(1, RequestTraits<Req>::kTag);
  }
};

template <typename Req>
class EveryRequestKind : public ::testing::Test {};
TYPED_TEST_SUITE(EveryRequestKind, GtestTypesOf<RequestKinds>::type,
                 KindTagName);

TYPED_TEST(EveryRequestKind, SolveTrySolveSubmitAndTrySubmitAgree) {
  using Req = TypeParam;
  Solver solver;
  const Req req = sample_request<Req>(solver);
  const auto solved = solver.solve(req);

  const auto tried = solver.try_solve(req);
  ASSERT_TRUE(tried.ok()) << tried.report.message;
  expect_same(tried.value, solved);

  SolverService submit_service({.workers = 1});
  expect_same(submit_service.submit(req).get(), solved);

  SolverService try_service({.workers = 1});
  auto fresh = try_service.try_submit(req);
  ASSERT_TRUE(fresh.admitted());
  const auto fresh_res = fresh.future.get();
  ASSERT_TRUE(fresh_res.ok()) << fresh_res.report.message;
  EXPECT_FALSE(fresh_res.report.cached);
  expect_same(fresh_res.value, solved);

  // An identical second try_submit is served from the cache.
  const std::int64_t hits_before = try_service.stats().cache_hits;
  auto again = try_service.try_submit(req);
  ASSERT_TRUE(again.admitted());
  const auto again_res = again.future.get();
  EXPECT_TRUE(again_res.report.cached);
  EXPECT_EQ(try_service.stats().cache_hits, hits_before + 1);
  EXPECT_EQ(try_service.stats().solves, 1);
  expect_same(again_res.value, solved);
}

TEST(SolverService, OptionsValidatedAtConstruction) {
  EXPECT_NO_THROW(SolverService{ServiceOptions{.workers = 2}});
  ServiceOptions bad_depth;
  bad_depth.queue_depth = 0;
  EXPECT_THROW(SolverService{bad_depth}, InvalidRequestError);
  ServiceOptions bad_admission;
  bad_admission.admission = static_cast<AdmissionPolicy>(7);
  EXPECT_THROW(SolverService{bad_admission}, InvalidRequestError);
  // Nested solver knobs are validated eagerly, on the constructing thread.
  ServiceOptions bad_solver;
  bad_solver.solver.mpc_delta = 2.0;
  EXPECT_THROW(SolverService{bad_solver}, InvalidRequestError);
}

TEST(SolverService, MatchesDirectSolverOnSequentialAndReference) {
  // Served answers equal the direct Sequential Solver's and the reference
  // oracles'.
  SeaweedEngine engine;
  Rng rng(10);
  Solver direct;
  SolverService service({.workers = 2});

  const MultiplyRequest mul{Perm::random(32, rng), Perm::random(32, rng)};
  const MultiplyRequest sub{Perm::random_sub(20, 28, 12, rng),
                            Perm::random_sub(28, 24, 14, rng),
                            MultiplyRequest::Kind::kSubunit};
  const LisRequest lis{.seq = random_sequence(48, 200, rng),
                       .want_kernel = true,
                       .windows = {{0, 10}, {5, 30}, {7, 2}}};
  const LcsRequest lcs{.s = random_sequence(24, 6, rng),
                       .t = random_sequence(30, 6, rng)};

  auto fm = service.submit(mul);
  auto fs = service.submit(sub);
  auto fl = service.submit(lis);
  auto fc = service.submit(lcs);

  const Perm mul_served = fm.get().c;
  EXPECT_EQ(mul_served, direct.solve(mul).c);
  EXPECT_EQ(mul_served, Perm::from_rows(seaweed_multiply_reference_raw(
                                            mul.a.row_to_col(),
                                            mul.b.row_to_col()),
                                        mul.b.cols()));
  const Perm sub_served = fs.get().c;
  EXPECT_EQ(sub_served, direct.solve(sub).c);
  EXPECT_EQ(sub_served, subunit_multiply_padded(sub.a, sub.b, engine));
  const auto lis_direct = direct.solve(lis);
  const auto lis_served = fl.get();
  EXPECT_EQ(lis_served.lis, lis_direct.lis);
  EXPECT_EQ(lis_served.kernel, lis_direct.kernel);
  EXPECT_EQ(lis_served.window_lis, lis_direct.window_lis);
  EXPECT_EQ(lis_served.lis, lis::lis_length_dp(lis.seq));
  EXPECT_EQ(lis_served.kernel,
            lis::lis_kernel_reference(lis::rank_reduce_strict(lis.seq),
                                      engine));
  EXPECT_EQ(lis_served.window_lis, lis::lis_window_batch(lis.seq, lis.windows));
  const auto lcs_direct = direct.solve(lcs);
  const auto lcs_served = fc.get();
  EXPECT_EQ(lcs_served.lcs, lcs_direct.lcs);
  EXPECT_EQ(lcs_served.matches, lcs_direct.matches);
  EXPECT_EQ(lcs_served.lcs, lcs::lcs_dp(lcs.s, lcs.t));
  EXPECT_EQ(lcs_served.matches, lcs::hs_match_count(lcs.s, lcs.t));
}

TEST(SolverService, MatchesDirectSolverOnMpcSimIncludingRounds) {
  Rng rng(11);
  SolverOptions sopts;
  sopts.backend = SolverBackend::kMpcSim;
  sopts.cluster.threads = 1;
  Solver direct(sopts);
  SolverService service({.solver = sopts, .workers = 1});

  const LisRequest lis{.seq = random_sequence(96, 1 << 12, rng)};
  const LcsRequest lcs{.s = random_sequence(20, 5, rng),
                       .t = random_sequence(24, 5, rng)};

  auto fl = service.submit(lis);
  auto fc = service.submit(lcs);
  const auto lis_direct = direct.solve(lis);
  const auto lis_served = fl.get();
  EXPECT_EQ(lis_served.lis, lis_direct.lis);
  EXPECT_EQ(lis_served.rounds, lis_direct.rounds);
  EXPECT_EQ(lis_served.merge_levels, lis_direct.merge_levels);
  const auto lcs_direct = direct.solve(lcs);
  const auto lcs_served = fc.get();
  EXPECT_EQ(lcs_served.lcs, lcs_direct.lcs);
  EXPECT_EQ(lcs_served.matches, lcs_direct.matches);
  EXPECT_EQ(lcs_served.rounds, lcs_direct.rounds);
}

TEST(SolverService, DedupCoalescesConcurrentIdenticalSubmits) {
  Rng rng(12);
  std::latch release(1);
  ServiceOptions opts;
  opts.workers = 1;
  opts.solve_hook = [&] { release.wait(); };
  SolverService service(opts);

  const LisRequest req{.seq = random_sequence(64, 500, rng),
                       .want_kernel = true};
  constexpr int kIdentical = 6;
  std::vector<std::future<LisResult>> futs;
  for (int i = 0; i < kIdentical; ++i) futs.push_back(service.submit(req));
  // The worker is held at the hook, so every later submit coalesced onto
  // the single in-flight computation instead of spending a queue slot.
  release.count_down();

  std::vector<LisResult> results;
  for (auto& f : futs) results.push_back(f.get());
  for (const auto& r : results) {
    EXPECT_EQ(r.lis, results[0].lis);
    EXPECT_EQ(r.kernel, results[0].kernel);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kIdentical);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.solves, 1);  // exactly ONE underlying solve
  EXPECT_EQ(stats.coalesced, kIdentical - 1);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(SolverService, QueueFullRejectsWithOverloadedStatus) {
  Rng rng(13);
  std::latch entered(1);
  std::latch release(1);
  std::atomic<bool> first_call{true};
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  opts.admission = AdmissionPolicy::kReject;
  opts.solve_hook = [&] {
    if (first_call.exchange(false)) entered.count_down();
    release.wait();
  };
  SolverService service(opts);

  const LisRequest plug{.seq = random_sequence(32, 100, rng)};
  const LisRequest queued{.seq = random_sequence(33, 100, rng)};
  const LisRequest refused_a{.seq = random_sequence(34, 100, rng)};
  const LcsRequest refused_b{.s = {1, 2, 3}, .t = {3, 2, 1}};

  auto f_plug = service.submit(plug);
  entered.wait();  // the worker holds `plug`; the queue is empty again
  auto f_queued = service.submit(queued);  // fills the depth-1 queue

  // Queue full: try_submit reports kOverloaded, submit throws.
  auto rejected = service.try_submit(refused_a);
  EXPECT_FALSE(rejected.admitted());
  EXPECT_EQ(rejected.admission.status, SolveStatus::kOverloaded);
  EXPECT_FALSE(rejected.future.valid());
  EXPECT_THROW(service.submit(refused_b), OverloadedError);

  // Coalescing and cache hits bypass admission: an identical in-flight
  // request attaches even though the queue is full.
  auto f_coalesced = service.submit(queued);

  release.count_down();
  EXPECT_EQ(f_plug.get().lis, lis::lis_length(plug.seq));
  EXPECT_EQ(f_queued.get().lis, lis::lis_length(queued.seq));
  EXPECT_EQ(f_coalesced.get().lis, lis::lis_length(queued.seq));
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.solves, 2);
}

TEST(SolverService, BlockingAdmissionWaitsForASlot) {
  Rng rng(14);
  std::latch entered(1);
  std::latch release(1);
  std::atomic<bool> first_call{true};
  ServiceOptions opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  opts.admission = AdmissionPolicy::kBlock;
  opts.solve_hook = [&] {
    if (first_call.exchange(false)) entered.count_down();
    release.wait();
  };
  SolverService service(opts);

  const LisRequest a{.seq = random_sequence(32, 100, rng)};
  const LisRequest b{.seq = random_sequence(33, 100, rng)};
  const LisRequest c{.seq = random_sequence(34, 100, rng)};

  auto fa = service.submit(a);
  entered.wait();
  auto fb = service.submit(b);  // queue now full

  std::future<LisResult> fc;
  std::thread blocked([&] { fc = service.submit(c); });  // must block
  release.count_down();
  blocked.join();

  EXPECT_EQ(fa.get().lis, lis::lis_length(a.seq));
  EXPECT_EQ(fb.get().lis, lis::lis_length(b.seq));
  EXPECT_EQ(fc.get().lis, lis::lis_length(c.seq));
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.admitted, 3);
}

TEST(SolverService, CacheServesRepeatsAndEvictsLeastRecentlyUsed) {
  Rng rng(15);
  ServiceOptions opts;
  opts.workers = 1;
  opts.cache_capacity = 2;
  SolverService service(opts);

  const LisRequest a{.seq = random_sequence(40, 300, rng)};
  const LisRequest b{.seq = random_sequence(41, 300, rng)};
  const LisRequest c{.seq = random_sequence(42, 300, rng)};

  const auto a_fresh = service.submit(a).get();
  EXPECT_EQ(service.stats().solves, 1);
  const auto a_cached = service.submit(a).get();  // hit
  EXPECT_EQ(service.stats().solves, 1);
  EXPECT_EQ(service.stats().cache_hits, 1);
  EXPECT_EQ(a_cached.lis, a_fresh.lis);

  // The cache is shared across submit flavors; try_submit flags the hit.
  auto a_try = service.try_submit(a);
  ASSERT_TRUE(a_try.admitted());
  const auto a_try_res = a_try.future.get();
  EXPECT_TRUE(a_try_res.report.cached);
  EXPECT_EQ(a_try_res.value.lis, a_fresh.lis);
  EXPECT_EQ(service.stats().cache_hits, 2);

  (void)service.submit(b).get();  // LRU: {B, A}
  (void)service.submit(c).get();  // evicts A -> {C, B}
  EXPECT_EQ(service.stats().solves, 3);
  (void)service.submit(a).get();  // miss: A was evicted
  EXPECT_EQ(service.stats().solves, 4);
  (void)service.submit(c).get();  // C survived the eviction: hit
  EXPECT_EQ(service.stats().solves, 4);
  EXPECT_EQ(service.stats().cache_hits, 3);
}

TEST(SolverService, CachedResultsBitIdenticalToFreshOnAllBackends) {
  Rng rng(16);
  const auto seq = random_sequence(96, 1 << 12, rng);
  const auto s = random_sequence(20, 5, rng);
  const auto t = random_sequence(24, 5, rng);
  for (const auto backend :
       {SolverBackend::kSequential, SolverBackend::kMpcSim}) {
    SolverOptions sopts;
    sopts.backend = backend;
    sopts.cluster.threads = 1;
    Solver direct(sopts);
    SolverService service({.solver = sopts, .workers = 1});

    const LisRequest lis{.seq = seq, .want_kernel = true};
    const LcsRequest lcs{.s = s, .t = t};
    const auto lis_fresh = service.submit(lis).get();
    const auto lis_cached = service.submit(lis).get();
    const auto lcs_fresh = service.submit(lcs).get();
    const auto lcs_cached = service.submit(lcs).get();
    EXPECT_GE(service.stats().cache_hits, 2);

    const auto lis_direct = direct.solve(lis);
    EXPECT_EQ(lis_cached.lis, lis_fresh.lis);
    EXPECT_EQ(lis_cached.kernel, lis_fresh.kernel);
    EXPECT_EQ(lis_cached.rounds, lis_fresh.rounds);
    EXPECT_EQ(lis_fresh.lis, lis_direct.lis);
    EXPECT_EQ(lis_fresh.kernel, lis_direct.kernel);
    EXPECT_EQ(lis_fresh.rounds, lis_direct.rounds);
    EXPECT_EQ(lcs_cached.lcs, lcs_fresh.lcs);
    EXPECT_EQ(lcs_cached.matches, lcs_fresh.matches);
    EXPECT_EQ(lcs_cached.rounds, lcs_fresh.rounds);
    EXPECT_EQ(lcs_fresh.lcs, direct.solve(lcs).lcs);
  }
}

TEST(SolverService, ConcurrentSubmitsFromManyThreads) {
  Rng rng(17);
  // A pool of request templates every submitter draws from, so duplicate
  // traffic exercises the cache and in-flight dedup under contention.
  std::vector<LisRequest> lis_pool;
  for (int i = 0; i < 4; ++i) {
    lis_pool.push_back({.seq = random_sequence(40 + i, 200, rng)});
  }
  std::vector<LcsRequest> lcs_pool;
  for (int i = 0; i < 3; ++i) {
    lcs_pool.push_back({.s = random_sequence(16 + i, 4, rng),
                        .t = random_sequence(18 + i, 4, rng)});
  }
  std::vector<MultiplyRequest> mul_pool;
  for (int i = 0; i < 3; ++i) {
    mul_pool.push_back({Perm::random(24, rng), Perm::random(24, rng)});
  }

  Solver direct;
  std::vector<std::int64_t> lis_expected, lcs_expected;
  std::vector<Perm> mul_expected;
  for (const auto& r : lis_pool) lis_expected.push_back(direct.solve(r).lis);
  for (const auto& r : lcs_pool) lcs_expected.push_back(direct.solve(r).lcs);
  for (const auto& r : mul_pool) mul_expected.push_back(direct.solve(r).c);

  SolverService service({.workers = 2});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int tid = 0; tid < kThreads; ++tid) {
    submitters.emplace_back([&, tid] {
      for (int i = 0; i < kPerThread; ++i) {
        const int pick = (tid * 7 + i) % 10;
        if (pick < 4) {
          auto f = service.submit(lis_pool[static_cast<std::size_t>(pick)]);
          if (f.get().lis != lis_expected[static_cast<std::size_t>(pick)]) {
            ++failures;
          }
        } else if (pick < 7) {
          const int k = pick - 4;
          auto f = service.submit(lcs_pool[static_cast<std::size_t>(k)]);
          if (f.get().lcs != lcs_expected[static_cast<std::size_t>(k)]) {
            ++failures;
          }
        } else {
          const int k = pick - 7;
          auto f = service.submit(mul_pool[static_cast<std::size_t>(k)]);
          if (!(f.get().c == mul_expected[static_cast<std::size_t>(k)])) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(failures, 0);

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  // Each of the 10 templates is solved exactly once: after the first
  // completion it is cache-resident (capacity never overflows here), and
  // while in flight identical submits coalesce.
  EXPECT_EQ(stats.solves, 10);
  EXPECT_EQ(stats.cache_hits + stats.coalesced + stats.solves,
            stats.submitted);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(SolverService, ShutdownDrainsAdmittedWork) {
  Rng rng(18);
  std::latch release(1);
  std::vector<LisRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back({.seq = random_sequence(30 + i, 100, rng)});
  }
  std::vector<std::future<LisResult>> futs;
  std::thread releaser;
  {
    ServiceOptions opts;
    opts.workers = 1;
    opts.solve_hook = [&] { release.wait(); };
    SolverService service(opts);
    for (const auto& r : reqs) futs.push_back(service.submit(r));
    releaser = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.count_down();
    });
    // ~SolverService: three of the four jobs are still queued (the worker
    // is held at the hook) — all must drain, none may be dropped.
  }
  releaser.join();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_TRUE(futs[i].valid());
    EXPECT_EQ(futs[i].get().lis, lis::lis_length(reqs[i].seq));
  }
}

TEST(ServiceChaos, UnrecoverableFaultDegradesThroughTheFuture) {
  Rng rng(19);
  const auto seq = random_sequence(96, 1 << 12, rng);
  ServiceOptions opts;
  opts.workers = 1;
  opts.solver.backend = SolverBackend::kMpcSim;
  opts.solver.cluster.num_machines = 4;
  opts.solver.cluster.space_words = 1 << 20;
  opts.solver.cluster.threads = 1;
  // Crash in an uncheckpointed round: recovery is impossible by design
  // (same schedule as SolverTrySolve.UnrecoverableFaultDegradesToSequential).
  opts.solver.cluster.checkpoint_interval = 2;
  opts.solver.cluster.faults.scheduled.push_back(
      {/*round=*/1, /*machine=*/0, mpc::FaultKind::kCrash});
  SolverService service(opts);

  const LisRequest req{.seq = seq};
  auto sub = service.try_submit(req);
  ASSERT_TRUE(sub.admitted());
  const auto res = sub.future.get();
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.report.degraded);
  EXPECT_EQ(res.report.backend, SolverBackend::kSequential);
  EXPECT_FALSE(res.report.cached);
  EXPECT_NE(res.report.message.find("degraded to sequential"),
            std::string::npos);
  EXPECT_EQ(res.value.lis, lis::lis_length(seq));

  // Degraded values are not cached: an identical try_submit re-solves
  // (the fresh per-worker cluster replays the same deterministic crash).
  auto again = service.try_submit(req);
  ASSERT_TRUE(again.admitted());
  const auto res2 = again.future.get();
  EXPECT_TRUE(res2.report.degraded);
  EXPECT_FALSE(res2.report.cached);
  EXPECT_EQ(res2.value.lis, res.value.lis);
  EXPECT_EQ(service.stats().solves, 2);
  EXPECT_EQ(service.stats().cache_hits, 0);

  // The throwing flavor surfaces the taxonomy through future::get().
  auto thrown = service.submit(req);
  EXPECT_THROW(thrown.get(), FaultError);
  EXPECT_EQ(service.stats().solve_errors, 1);
}

}  // namespace
}  // namespace monge
