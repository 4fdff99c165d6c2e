#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"

namespace deepseq {
namespace {

/// True when everything from `p` on is whitespace: a parse is only accepted
/// if it consumed the whole value (modulo trailing whitespace), so knobs
/// like DEEPSEQ_GEN_FF_RATIO=1e2abc or DEEPSEQ_SHARDS=8x fall back instead
/// of silently truncating to a number the operator never asked for.
bool only_trailing_whitespace(const char* p) {
  for (; *p != '\0'; ++p)
    if (!std::isspace(static_cast<unsigned char>(*p))) return false;
  return true;
}

/// Parse all of `v` (modulo trailing whitespace) as a base-10 integer that
/// fits in int64.
bool parse_int(const char* v, std::int64_t& out) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(v, &end, 10);
  if (end == v || errno == ERANGE || !only_trailing_whitespace(end)) return false;
  out = parsed;
  return true;
}

}  // namespace

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  std::int64_t parsed = 0;
  return v != nullptr && parse_int(v, parsed) ? parsed : fallback;
}

std::int64_t env_int_in(const char* name, std::int64_t fallback,
                        std::int64_t lo, std::int64_t hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  std::int64_t v = 0;
  if (!parse_int(raw, v) || v < lo || v > hi) {
    const std::string range =
        hi == std::numeric_limits<std::int64_t>::max()
            ? ">= " + std::to_string(lo)
            : "in " + std::to_string(lo) + ".." + std::to_string(hi);
    throw Error(std::string(name) + "='" + raw + "': expected an integer " +
                range);
  }
  return v;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || !only_trailing_whitespace(end)) return fallback;
  return parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

bool full_scale() { return env_int("DEEPSEQ_FULL", 0) != 0; }

}  // namespace deepseq
