// Sequential O(n log n) implicit unit-Monge multiplication
// PC = PA ⊡ PB for full n×n permutation matrices.
//
// This is Tiskin's divide-and-conquer: split PA into column halves and PB
// into row halves (§3.1 with H = 2), compact empty rows/columns, recurse,
// re-expand through the M_A/M_B index maps, and combine the two colored
// subresults with the steady ant. T(n) = 2 T(n/2) + O(n) = O(n log n).
//
// This file keeps the textbook form of that recursion as the reference the
// engine is fuzzed and benchmarked against. The production form, which the
// Solver and every simulated machine's leaf solve run, is SeaweedEngine
// (monge/engine.h): PA ⊡ PB of two Perms is engine.multiply(a, b).
#pragma once

#include <cstdint>
#include <vector>

namespace monge {

/// The textbook recursion (one fresh std::vector per node), kept as the
/// reference baseline the engine is fuzzed and benchmarked against.
std::vector<std::int32_t> seaweed_multiply_reference_raw(
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b);

}  // namespace monge
