// Error handling primitives for the cts library.
//
// The library reports precondition violations and numerical failures with
// exceptions derived from `cts::util::Error`, so callers can distinguish
// library failures from standard-library ones.  Hot paths (per-frame
// generation, queue recursion) never throw; validation happens at
// construction/configuration time.

#pragma once

#include <stdexcept>
#include <string>

namespace cts::util {

/// Base class of all exceptions thrown by the cts library.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A caller violated a documented precondition (bad parameter, empty input).
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// A numerical routine failed to converge or produced a non-finite result.
class NumericalError : public Error {
 public:
  using Error::Error;
};

/// Throws InvalidArgument with `message` when `condition` is false.
inline void require(bool condition, const std::string& message) {
  if (!condition) throw InvalidArgument(message);
}

/// Same, for a literal message: a passing check builds no std::string.
inline void require(bool condition, const char* message) {
  if (!condition) throw InvalidArgument(message);
}

}  // namespace cts::util
