#include "core/mpc_subperm.h"

#include "monge/subperm.h"
#include "mpc/collectives.h"
#include "mpc/dist_vector.h"
#include "util/check.h"

namespace monge::core {

namespace {

/// Executes the Lemma 2.4 prefix-sum collective over the nonzero-row
/// indicators of all pairs, which is exactly the communication the §4.1
/// padding performs; the returned ranks equal the host-side compaction.
void charge_padding_rounds(mpc::Cluster& cluster,
                           const std::vector<std::pair<Perm, Perm>>& pairs) {
  std::vector<std::int64_t> indicator;
  for (const auto& [a, b] : pairs) {
    for (std::int64_t r = 0; r < a.rows(); ++r) {
      indicator.push_back(a.row_empty(r) ? 0 : 1);
    }
    const auto ctr = b.col_to_row();
    for (std::int32_t c : ctr) indicator.push_back(c == kNone ? 0 : 1);
  }
  if (indicator.empty()) return;
  auto dv = mpc::DistVector<std::int64_t>::from_host(cluster, indicator);
  (void)mpc::dv_exclusive_prefix(cluster, dv);
}

}  // namespace

std::vector<Perm> mpc_subunit_multiply_batch(
    mpc::Cluster& cluster, const std::vector<std::pair<Perm, Perm>>& pairs,
    const MpcMultiplyOptions& options, MpcMultiplyReport* report) {
  validate_options(options);
  charge_padding_rounds(cluster, pairs);

  // §4.1 padding via the shared sequential helpers (monge/subperm.h); the
  // cluster multiply needs the padded full permutations materialized, unlike
  // the sequential direct path which keeps them in engine scratch.
  std::vector<SubunitPadding> infos(pairs.size());
  std::vector<std::pair<Perm, Perm>> padded;
  std::vector<std::size_t> padded_of;  // index into `padded`, or npos
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    auto pr = subunit_pad_pair(pairs[t].first, pairs[t].second, infos[t]);
    if (!infos[t].empty) {
      padded_of.push_back(padded.size());
      padded.push_back(std::move(pr));
    } else {
      padded_of.push_back(static_cast<std::size_t>(-1));
    }
  }

  std::vector<Perm> products;
  if (!padded.empty()) {
    products =
        mpc_unit_monge_multiply_batch(cluster, padded, options, report);
  } else if (report) {
    *report = MpcMultiplyReport{};
  }

  std::vector<Perm> out;
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    const SubunitPadding& info = infos[t];
    out.push_back(info.empty ? Perm(info.out_rows, info.out_cols)
                             : subunit_unpad(info, products[padded_of[t]]));
  }
  return out;
}

Perm mpc_subunit_multiply(mpc::Cluster& cluster, const Perm& a, const Perm& b,
                          const MpcMultiplyOptions& options,
                          MpcMultiplyReport* report) {
  std::vector<std::pair<Perm, Perm>> pairs;
  pairs.emplace_back(a, b);
  auto out = mpc_subunit_multiply_batch(cluster, pairs, options, report);
  return std::move(out[0]);
}

}  // namespace monge::core
