// Shared helpers for the bench/ binaries.
#pragma once

#include <cstddef>
#include <cstdlib>

namespace rmp::bench {

/// Workload knob from the environment: RMP_GENERATIONS-style size_t
/// variables, falling back when unset.
inline std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v ? static_cast<std::size_t>(std::atoll(v)) : fallback;
}

/// Fractional knob (speedup gates like RMP_KINETICS_MIN_V2_MIXED=2).
inline double env_or_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : fallback;
}

}  // namespace rmp::bench
