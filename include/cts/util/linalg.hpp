// Linear algebra for the model-fitting module.
//
// DAR(p) fitting solves a p-by-p Toeplitz system built from target
// autocorrelations (p <= ~16 in practice), so a Levinson-Durbin Toeplitz
// solver covers every need without an external BLAS.

#pragma once

#include <cstddef>
#include <vector>

namespace cts::util {

/// Solves the symmetric Toeplitz system T x = b where T(i,j) = t[|i-j|],
/// via the Levinson recursion in O(p^2).  `t[0]` must be nonzero and the
/// leading minors nonsingular (throws NumericalError otherwise).  This is
/// the Yule-Walker-shaped system of the DAR(p) fit.
std::vector<double> solve_toeplitz(const std::vector<double>& t,
                                   const std::vector<double>& b);

}  // namespace cts::util
