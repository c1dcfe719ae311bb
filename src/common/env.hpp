// Environment-variable helpers for scaling benchmark runs.
#ifndef VASIM_COMMON_ENV_HPP
#define VASIM_COMMON_ENV_HPP

#include <string>

#include "src/common/types.hpp"

namespace vasim {

/// Reads an unsigned integer from the environment; `fallback` when unset or
/// unparsable.
u64 env_u64(const std::string& name, u64 fallback);

/// Reads a *count* knob (worker counts such as VASIM_JOBS)
/// with loud validation instead of env_u64's silent fallback: a value that
/// is not a plain decimal number (including trailing junk like "4x"), or is
/// explicitly 0, warns on stderr and returns `fallback`; a value above
/// `max_value` warns and clamps.  Unset/empty stays silent and returns
/// `fallback`.
u64 env_count(const std::string& name, u64 fallback, u64 max_value);

/// Reads a string from the environment; `fallback` when unset.
std::string env_str(const std::string& name, const std::string& fallback);

}  // namespace vasim

#endif  // VASIM_COMMON_ENV_HPP
