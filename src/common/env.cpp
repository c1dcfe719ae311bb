#include "src/common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace vasim {

namespace {

/// Strict parse: the whole value must be decimal digits (strtoull alone
/// would silently accept "4x16" as 4, "2k" as 2 and "-1" as 2^64-1).
bool all_digits(const char* raw) {
  for (const char* p = raw; *p != '\0'; ++p) {
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0) return false;
  }
  return true;
}

}  // namespace

u64 env_u64(const std::string& name, u64 fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  if (!all_digits(raw)) {
    std::fprintf(stderr, "[env] ignoring %s='%s' (not a plain decimal number); using the default\n",
                 name.c_str(), raw);
    return fallback;
  }
  return static_cast<u64>(std::strtoull(raw, nullptr, 10));
}

u64 env_count(const std::string& name, u64 fallback, u64 max_value) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  if (!all_digits(raw)) {
    std::fprintf(stderr, "[env] ignoring %s='%s' (not a plain decimal count); using the default\n",
                 name.c_str(), raw);
    return fallback;
  }
  errno = 0;
  const unsigned long long v = std::strtoull(raw, nullptr, 10);
  if (errno == ERANGE || v > max_value) {
    std::fprintf(stderr, "[env] %s=%s exceeds the sane maximum %llu; clamping\n", name.c_str(),
                 raw, static_cast<unsigned long long>(max_value));
    return max_value;
  }
  if (v == 0) {
    std::fprintf(stderr, "[env] ignoring %s=0 (a zero count is meaningless); using the default\n",
                 name.c_str());
    return fallback;
  }
  return static_cast<u64>(v);
}

std::string env_str(const std::string& name, const std::string& fallback) {
  const char* raw = std::getenv(name.c_str());
  return raw == nullptr ? fallback : std::string(raw);
}

}  // namespace vasim
