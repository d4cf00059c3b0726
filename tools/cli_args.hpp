#pragma once

// Numeric flag parsing shared by the command-line tools.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace vcomp::cli {

/// Parses \p value, the argument of \p flag, as a decimal count in
/// [lo, hi]: digits only, so "abc", "-7" or "12x" are rejected instead of
/// aborting, wrapping around or being cut short.  A bad value prints
/// `error: <flag> expects ...` and exits 2.
inline std::size_t parse_count(
    const char* flag, const char* value, std::size_t lo = 0,
    std::size_t hi = std::numeric_limits<std::size_t>::max()) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(value, &end, 10);
  const bool digits = *value >= '0' && *value <= '9' && *end == '\0';
  if (digits && errno != ERANGE && n >= lo && n <= hi)
    return static_cast<std::size_t>(n);
  if (hi != std::numeric_limits<std::size_t>::max())
    std::fprintf(stderr, "error: %s expects an integer in [%zu, %zu], "
                 "got \"%s\"\n", flag, lo, hi, value);
  else if (lo > 1)
    std::fprintf(stderr, "error: %s expects an integer >= %zu, got \"%s\"\n",
                 flag, lo, value);
  else
    std::fprintf(stderr, "error: %s expects a %s integer, got \"%s\"\n",
                 flag, lo > 0 ? "positive" : "non-negative", value);
  std::exit(2);
}

}  // namespace vcomp::cli
