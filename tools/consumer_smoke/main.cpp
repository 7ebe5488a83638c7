// Consumer smoke test: exercises the installed monge package exactly the
// way an external user would — find_package(monge), include the facade and
// the generated version header, run a request per family, run the engine's
// two raw batch entries against the facade's answers, self-check.
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "api/solver.h"
#include "monge/engine.h"
#include "monge/version.h"
#include "util/rng.h"

int main() {
  monge::Rng rng(1);
  monge::Solver solver;

  const std::int64_t n = 256;
  const monge::MultiplyRequest multiply{monge::Perm::random(n, rng),
                                        monge::Perm::random(n, rng)};
  const auto product = solver.solve(multiply);

  const auto lis = solver.solve(monge::LisRequest{
      .seq = {5, 1, 2, 9, 3, 4}, .want_kernel = true});  // LIS 1,2,3,4

  const auto lcs = solver.solve(monge::LcsRequest{
      .s = {1, 2, 3, 4, 5}, .t = {2, 9, 4, 5}});  // LCS 2,4,5

  const monge::MultiplyRequest subunit{
      monge::Perm::random_sub(n, n, n / 2, rng),
      monge::Perm::random_sub(n, n, n / 2, rng),
      monge::MultiplyRequest::Kind::kSubunit};
  const auto sub_product = solver.solve(subunit);

  // The same two products through the engine's raw batch entries, each a
  // batch of one.
  monge::SeaweedEngine engine;
  std::vector<std::int32_t> full_out(static_cast<std::size_t>(n));
  const monge::PermPairView full_pair{multiply.a.row_to_col(),
                                      multiply.b.row_to_col()};
  const std::span<std::int32_t> full_dst(full_out);
  engine.multiply_batch_into({&full_pair, 1}, {&full_dst, 1});
  std::vector<std::int32_t> sub_out(static_cast<std::size_t>(n));
  const monge::SubunitPairView sub_pair{
      subunit.a.row_to_col(), subunit.b.row_to_col(), subunit.b.cols()};
  const std::span<std::int32_t> sub_dst(sub_out);
  engine.subunit_multiply_batch_into({&sub_pair, 1}, {&sub_dst, 1});
  const bool engine_ok = full_out == product.c.row_to_col() &&
                         sub_out == sub_product.c.row_to_col();

  const bool ok = product.c.is_full_permutation() &&
                  product.c.rows() == n && lis.lis == 4 &&
                  lis.kernel.rows() == 6 && lcs.lcs == 3 && engine_ok;
  std::printf("monge %s consumer smoke: product %lldx%lld, lis=%lld, "
              "lcs=%lld, engine batch entries %s -> %s\n",
              monge::kVersionString, static_cast<long long>(product.c.rows()),
              static_cast<long long>(product.c.cols()),
              static_cast<long long>(lis.lis),
              static_cast<long long>(lcs.lcs),
              engine_ok ? "match" : "differ", ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
