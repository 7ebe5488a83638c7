// Schedule fuzz for the MpcSim pipeline. Each case draws a cluster
// (machines, space, strict or lenient, threads) and a schedule (split
// arity H, descent fanout, grid spacing G, LIS leaf classes) from a fixed
// seed list. Every full multiply, subunit multiply, LIS and LCS must then
// equal the sequential oracle or throw SpaceLimitError; a draw with an
// arity of 1 must throw InvalidRequestError before the cluster runs a
// round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/mpc_multiply.h"
#include "core/mpc_subperm.h"
#include "lcs/hunt_szymanski.h"
#include "lcs/mpc_lcs.h"
#include "lis/kernel.h"
#include "lis/mpc_lis.h"
#include "lis/sequential.h"
#include "monge/engine.h"
#include "monge/subperm.h"
#include "util/error.h"
#include "util/rng.h"

namespace monge::core {
namespace {

struct Draw {
  std::int64_t n = 0;
  mpc::MpcConfig cfg;
  MpcMultiplyOptions opt;
  std::int64_t leaf_classes = 0;
};

// {0} ∪ [2, 40], with an arity of 1 one draw in twenty.
std::int64_t draw_arity(Rng& rng) {
  const std::int64_t r = rng.next_in(0, 19);
  if (r == 0) return 0;
  if (r == 1) return 1;
  return rng.next_in(2, 40);
}

Draw draw(Rng& rng) {
  Draw d;
  d.n = rng.next_in(1, 400);
  d.cfg.num_machines = rng.next_in(1, 64);
  // Log-uniform in [2^6, 2^15]: the small end drives both collective
  // fanouts to their floors, the large end fits whole subproblems.
  d.cfg.space_words = std::int64_t{1} << rng.next_in(6, 14);
  d.cfg.space_words += rng.next_in(0, d.cfg.space_words);
  d.cfg.strict = rng.next_in(0, 1) == 1;
  d.cfg.threads = static_cast<unsigned>(rng.next_in(1, 3));
  d.opt.split_h = draw_arity(rng);
  d.opt.tree_fanout = draw_arity(rng);
  d.opt.box_g = rng.next_in(0, 3) == 0 ? 0 : rng.next_in(1, 900);
  d.leaf_classes = rng.next_in(0, 64);
  return d;
}

std::string describe(const Draw& d) {
  std::string s;
  s += "n=" + std::to_string(d.n);
  s += " m=" + std::to_string(d.cfg.num_machines);
  s += " s=" + std::to_string(d.cfg.space_words);
  s += d.cfg.strict ? " strict" : " lenient";
  s += " threads=" + std::to_string(d.cfg.threads);
  s += " H=" + std::to_string(d.opt.split_h);
  s += " F=" + std::to_string(d.opt.tree_fanout);
  s += " G=" + std::to_string(d.opt.box_g);
  s += " classes=" + std::to_string(d.leaf_classes);
  return s;
}

enum class Outcome { kEqual, kSpaceLimit, kInvalid };

// Runs one op on a fresh cluster (a space failure may leave messages in
// flight); an InvalidRequestError must come before the first round.
Outcome run(const Draw& d, const std::function<bool(mpc::Cluster&)>& op) {
  mpc::Cluster cluster(d.cfg);
  try {
    EXPECT_TRUE(op(cluster)) << describe(d);
    return Outcome::kEqual;
  } catch (const SpaceLimitError&) {
    return Outcome::kSpaceLimit;
  } catch (const InvalidRequestError&) {
    EXPECT_EQ(cluster.rounds(), 0) << describe(d);
    return Outcome::kInvalid;
  }
}

class MpcScheduleFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MpcScheduleFuzz, MatchesSequentialOrFailsClosed) {
  Rng rng(GetParam());
  // The LCS strings come from their own stream, so the other ops draw the
  // same cases as they would without them.
  Rng text_rng(GetParam() + 1000);
  SeaweedEngine engine;
  int tally[3] = {0, 0, 0};  // by Outcome
  for (int k = 0; k < 4; ++k) {
    const Draw d = draw(rng);
    const bool arity_one = d.opt.split_h == 1 || d.opt.tree_fanout == 1;
    const Perm a = Perm::random(d.n, rng);
    const Perm b = Perm::random(d.n, rng);
    // Subunit shapes: d.n × inner times inner × cols, any fill.
    const std::int64_t inner = rng.next_in(1, d.n);
    const std::int64_t cols = rng.next_in(1, d.n);
    const Perm sa = Perm::random_sub(
        d.n, inner, rng.next_in(0, std::min(d.n, inner)), rng);
    const Perm sb = Perm::random_sub(
        inner, cols, rng.next_in(0, std::min(inner, cols)), rng);
    std::vector<std::int64_t> seq(static_cast<std::size_t>(d.n));
    for (auto& x : seq) x = rng.next_in(0, d.n);
    // LCS strings over a 4-letter alphabet, each up to 2·sqrt(n) long, so
    // the expected match count |s|·|t|/4 stays within about n.
    std::int64_t len = 1;
    while ((len + 1) * (len + 1) <= 4 * d.n) ++len;
    std::vector<std::int64_t> s(
        static_cast<std::size_t>(text_rng.next_in(0, len)));
    std::vector<std::int64_t> t(
        static_cast<std::size_t>(text_rng.next_in(0, len)));
    for (auto& x : s) x = text_rng.next_in(0, 3);
    for (auto& x : t) x = text_rng.next_in(0, 3);
    lis::MpcLisOptions lopt;
    lopt.multiply = d.opt;
    lopt.leaf_classes = d.leaf_classes;

    const Outcome outcomes[] = {
        run(d,
            [&](mpc::Cluster& c) {
              return mpc_unit_monge_multiply(c, a, b, d.opt) ==
                     engine.multiply(a, b);
            }),
        run(d,
            [&](mpc::Cluster& c) {
              return mpc_subunit_multiply(c, sa, sb, d.opt) ==
                     subunit_multiply(sa, sb, engine);
            }),
        run(d,
            [&](mpc::Cluster& c) {
              const lis::MpcLisResult res = lis::mpc_lis(c, seq, lopt);
              return res.lis == lis::lis_length(seq) &&
                     res.kernel ==
                         lis::lis_kernel(lis::rank_reduce_strict(seq), engine);
            }),
        run(d,
            [&](mpc::Cluster& c) {
              return lcs::mpc_lcs(c, s, t, lopt).lcs == lcs::lcs_dp(s, t);
            }),
    };
    for (const Outcome o : outcomes) {
      EXPECT_EQ(o == Outcome::kInvalid, arity_one) << describe(d);
      ++tally[static_cast<int>(o)];
    }
  }
  RecordProperty("equal", tally[0]);
  RecordProperty("space_limit", tally[1]);
  RecordProperty("invalid", tally[2]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpcScheduleFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace monge::core
