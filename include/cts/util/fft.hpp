// Iterative radix-2 complex FFT.
//
// Used by the Davies-Harte exact Gaussian source (circulant embedding) and by
// the log-periodogram Hurst estimator.  Power-of-two lengths only; the
// callers pad accordingly.

#pragma once

#include <complex>
#include <vector>

namespace cts::util {

/// In-place forward FFT; `data.size()` must be a power of two (throws
/// InvalidArgument otherwise).
void fft(std::vector<std::complex<double>>& data);

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

}  // namespace cts::util
