// Figure A (implied by Theorem 1.1): measured rounds of one unit-Monge
// multiplication versus n for three schedules. Shape to check: the paper's
// H-way schedule stays (near-)flat, the warmup grows like log n, and the
// CHS23-profile grows like log^2 n.
#include <cstdio>

#include "bench_common.h"
#include "core/mpc_multiply.h"
#include "monge/engine.h"
#include "util/table.h"

using namespace monge;

int main() {
  std::printf(
      "Multiply rounds vs n (measured), delta = 0.5. Series: paper H-way\n"
      "(flat-ish), warmup (log n), CHS23-profile (log^2 n).\n\n");
  Table t({"n", "H", "paper H-way", "warmup (2-way,flat)",
           "CHS23 (2-way,binary)"});
  SeaweedEngine engine;
  for (std::int64_t n : {1 << 9, 1 << 11, 1 << 13}) {
    Rng rng(static_cast<std::uint64_t>(n));
    const Perm a = Perm::random(n, rng);
    const Perm b = Perm::random(n, rng);
    const Perm expect = engine.multiply(a, b);
    const std::int64_t h = std::max<std::int64_t>(4, ipow_frac(n, 0.25));

    std::vector<std::string> row = {std::to_string(n), std::to_string(h)};
    const auto run = [&](std::int64_t split, std::int64_t fanout) {
      mpc::Cluster c(bench::scaled_cluster(n, 0.5));
      core::MpcMultiplyOptions opt;
      opt.split_h = split;
      opt.tree_fanout = fanout;
      core::MpcMultiplyReport rep;
      MONGE_CHECK(core::mpc_unit_monge_multiply(c, a, b, opt, &rep) == expect);
      return rep.rounds;
    };
    row.push_back(std::to_string(run(h, h)));
    row.push_back(std::to_string(run(2, h)));
    row.push_back(std::to_string(run(2, 2)));
    t.add_row(row);
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "(H = max(4, n^{1/4}) here; with the asymptotic n^{(1-delta)/10}\n"
      "schedule the flattening only appears at astronomically large n —\n"
      "the ablation bench sweeps this knob.)\n");
  return 0;
}
