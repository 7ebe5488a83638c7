#include "lcs/mpc_lcs.h"

#include "lcs/hunt_szymanski.h"

namespace monge::lcs {

MpcLcsResult mpc_lcs(mpc::Cluster& cluster, std::span<const std::int64_t> s,
                     std::span<const std::int64_t> t,
                     const lis::MpcLisOptions& options) {
  return mpc_lcs_over_matches(cluster, hs_match_sequence(s, t), options);
}

MpcLcsResult mpc_lcs_over_matches(mpc::Cluster& cluster,
                                  std::span<const std::int64_t> match_seq,
                                  const lis::MpcLisOptions& options) {
  // Validate even when no match reaches mpc_lis, so a schedule fails
  // closed whatever the strings.
  core::validate_options(options.multiply);
  MpcLcsResult out;
  const std::int64_t start = cluster.rounds();
  out.matches = static_cast<std::int64_t>(match_seq.size());
  if (!match_seq.empty()) {
    const auto lis = lis::mpc_lis(cluster, match_seq, options);
    out.lcs = lis.lis;
  }
  out.rounds = cluster.rounds() - start;
  return out;
}

}  // namespace monge::lcs
