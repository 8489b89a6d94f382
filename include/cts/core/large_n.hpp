// Courcoubetis-Weber Large-N asymptotic: Psi(c,b,N) ~ exp(-N I(c,b)).
//
// Identical to Bahadur-Rao with the g1 refinement term dropped; the paper's
// Fig. 10 compares the two against simulation (B-R is roughly one order of
// magnitude tighter at the paper's operating point).

#pragma once

#include <cstddef>

#include "cts/core/br_asymptotic.hpp"
#include "cts/core/rate_function.hpp"

namespace cts::core {

/// log10 of the Large-N overflow probability (no refinement term),
/// warm-started: forwards `m_hint` to RateFunction::evaluate, which is
/// bit-identical to a cold scan whenever m_hint <= m*_b (m*_b is
/// non-decreasing in b; see RateFunction::evaluate).
BopPoint large_n_log10_bop(const RateFunction& rate, double buffer_per_source,
                           std::size_t n_sources, std::size_t m_hint);

/// Closed-form tail from an already-evaluated rate-function point.
/// Bit-identical to the RateFunction overload for the same (I, m*).
BopPoint large_n_log10_bop(const RateResult& rate_point,
                           double buffer_per_source, std::size_t n_sources);

}  // namespace cts::core
