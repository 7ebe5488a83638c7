// Corollary 1.3.1 on the cluster: MPC LCS = Hunt–Szymanski match pairs +
// the Theorem 1.3 MPC LIS over the match sequence.
#pragma once

#include <cstdint>
#include <span>

#include "lis/mpc_lis.h"
#include "mpc/cluster.h"

namespace monge::lcs {

struct MpcLcsResult {
  std::int64_t lcs = 0;
  std::int64_t matches = 0;  // size of the HS match sequence (input to LIS)
  std::int64_t rounds = 0;
};

/// LCS of two sequences. The match-pair generation is the standard HS
/// product; the cluster must be provisioned for the match count (the
/// paper's m = n^{1+δ} machines / Θ̃(n²) total space regime). Throws
/// InvalidRequestError before any round when core::validate_options
/// rejects options.multiply, even if the strings share no symbol.
MpcLcsResult mpc_lcs(mpc::Cluster& cluster, std::span<const std::int64_t> s,
                     std::span<const std::int64_t> t,
                     const lis::MpcLisOptions& options = {});

/// Same, over a precomputed hs_match_sequence(s, t). For callers that
/// already needed the match sequence — e.g. to size the cluster from the
/// match count, as monge::Solver does — so the worst-case-quadratic HS
/// product is not generated twice. mpc_lcs delegates here; results and
/// round accounting are identical.
MpcLcsResult mpc_lcs_over_matches(mpc::Cluster& cluster,
                                  std::span<const std::int64_t> match_seq,
                                  const lis::MpcLisOptions& options = {});

}  // namespace monge::lcs
