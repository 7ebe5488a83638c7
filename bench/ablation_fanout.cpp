// Ablation 1: the H = n^{(1−δ)/10} schedule. Sweeping the split arity /
// descent fanout shows the tradeoff the exponent balances: larger H means
// fewer recursion levels (fewer rounds) but more pairwise descents and
// rank-query traffic per combine.
#include <cstdio>

#include "bench_common.h"
#include "core/mpc_multiply.h"
#include "monge/engine.h"
#include "util/table.h"

using namespace monge;

int main() {
  const std::int64_t n = 1 << 12;
  Rng rng(17);
  const Perm a = Perm::random(n, rng);
  const Perm b = Perm::random(n, rng);
  SeaweedEngine engine;
  const Perm expect = engine.multiply(a, b);

  std::printf("Fan-out ablation at n = %lld, delta = 0.5 (measured).\n\n",
              static_cast<long long>(n));
  Table t({"H (=fanout)", "levels", "rounds", "rank queries", "crossed boxes",
           "peak words"});
  for (std::int64_t h : {2, 4, 8, 16, 32}) {
    mpc::Cluster c(bench::scaled_cluster(n, 0.5));
    core::MpcMultiplyOptions opt;
    opt.split_h = h;
    opt.tree_fanout = h;
    core::MpcMultiplyReport rep;
    MONGE_CHECK(core::mpc_unit_monge_multiply(c, a, b, opt, &rep) == expect);
    t.add_row({std::to_string(h), std::to_string(rep.levels),
               std::to_string(rep.rounds), std::to_string(rep.rank_queries),
               std::to_string(rep.crossed_boxes),
               std::to_string(rep.max_machine_words)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Rounds shrink with H while query volume grows ~H^2 per line — the\n"
      "paper's (1-delta)/10 exponent keeps the volume inside Õ(n).\n");
  return 0;
}
