// Sequential O(n log n) implicit unit-Monge multiplication
// PC = PA ⊡ PB for full n×n permutation matrices.
//
// This is Tiskin's divide-and-conquer: split PA into column halves and PB
// into row halves (§3.1 with H = 2), compact empty rows/columns, recurse,
// re-expand through the M_A/M_B index maps, and combine the two colored
// subresults with the steady ant. T(n) = 2 T(n/2) + O(n) = O(n log n).
//
// It is both the sequential baseline the MPC algorithm is measured against
// and the local solver every simulated machine runs once a subproblem fits
// in its memory.
#pragma once

#include <cstdint>
#include <vector>

#include "monge/permutation.h"

namespace monge {

/// The textbook recursion (one fresh std::vector per node), kept as the
/// reference baseline the engine is fuzzed and benchmarked against.
std::vector<std::int32_t> seaweed_multiply_reference_raw(
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b);

/// PC = PA ⊡ PB for full permutations (validating wrapper): runs
/// default_seaweed_engine().multiply(a, b) on the calling thread's engine
/// (see monge/engine.h), whose arena is reused across calls.
Perm seaweed_multiply(const Perm& a, const Perm& b);

}  // namespace monge
