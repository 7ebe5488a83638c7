// Configuration of the simulated MPC cluster (§1.1).
//
// The model: m machines with s words of memory each, input size n,
// m = O(n^δ), s = Õ(n^{1−δ}). An algorithm is *fully scalable* if it works
// for every constant 0 < δ < 1. The simulator enforces the space bound per
// round (outgoing and incoming traffic, resident data, and their sum) and
// counts rounds — the model's complexity measure.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "mpc/fault.h"
#include "util/error.h"
#include "util/math.h"

namespace monge::mpc {

struct MpcConfig {
  std::int64_t num_machines = 1;
  /// Per-machine memory budget in 64-bit words (the model's s, including
  /// the Õ(·) polylog/constant slack).
  std::int64_t space_words = 1 << 20;
  /// If true, exceeding space_words in a round throws SpaceLimitError.
  bool strict = true;
  /// Thread count for simulating machine-local work (0 = hardware).
  unsigned threads = 0;

  /// Chaos schedule (off by default — mpc/fault.h). When enabled the
  /// cluster checkpoints round state and recovers crashed machines; every
  /// recovery cost lands in ClusterStats::recovery, never in the paper's
  /// round/word statistics.
  FaultPlan faults{};
  /// Rounds between checkpoints when faults are enabled (1 = every round).
  /// A crash in a round that started without a fresh checkpoint is
  /// unrecoverable — run_round throws FaultError, the price of a sparser
  /// cadence (closures cannot be replayed once their round returns; see
  /// docs/ARCHITECTURE.md).
  std::int64_t checkpoint_interval = 1;

  friend bool operator==(const MpcConfig&, const MpcConfig&) = default;

  /// The paper's regime for input size n and exponent δ:
  ///   m = n^δ machines, s = slack · n^{1−δ} · log2(n) words.
  /// `slack` absorbs the constants hidden in Õ; the collectives keep a
  /// worst-case 2x imbalance per partition level, so the default is
  /// deliberately generous but still Õ(n^{1−δ}).
  /// Throws InvalidRequestError on n < 1, δ outside (0, 1), or a slack
  /// that is not a positive finite number (NaN never passes).
  static MpcConfig fully_scalable(std::int64_t n, double delta,
                                  double slack = 24.0, bool strict = true) {
    if (n < 1) {
      throw InvalidRequestError("fully_scalable: n must be >= 1, got " +
                                std::to_string(n));
    }
    if (!(delta > 0.0 && delta < 1.0)) {  // NaN fails both comparisons
      throw InvalidRequestError(
          "fully_scalable: delta must be in (0, 1), got " +
          std::to_string(delta));
    }
    if (!(slack > 0.0) || !std::isfinite(slack)) {
      throw InvalidRequestError(
          "fully_scalable: slack must be a positive finite number, got " +
          std::to_string(slack));
    }
    MpcConfig cfg;
    cfg.num_machines = ipow_frac(n, delta);
    const auto log_n = static_cast<double>(std::max(1, ceil_log2(
                           static_cast<std::uint64_t>(n))));
    cfg.space_words = static_cast<std::int64_t>(
        slack * static_cast<double>(ipow_frac(n, 1.0 - delta)) * log_n);
    cfg.strict = strict;
    return cfg;
  }
};

}  // namespace monge::mpc
