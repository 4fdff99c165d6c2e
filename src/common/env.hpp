#pragma once

#include <cstdint>
#include <string>

namespace deepseq {

/// Read an integer environment variable, returning `fallback` when unset or
/// unparsable. Used by the bench harness to expose scale knobs
/// (DEEPSEQ_FULL, DEEPSEQ_EPOCHS, ...) without recompiling.
std::int64_t env_int(const char* name, std::int64_t fallback);

/// env_int restricted to [lo, hi] for knobs that must fail fast: unset or
/// empty returns `fallback`; a set value that does not parse or lies outside
/// the range throws deepseq::Error naming the variable, e.g.
/// "DEEPSEQ_T='0': expected an integer in 1..64" (">= lo" when hi is the
/// int64 maximum).
std::int64_t env_int_in(const char* name, std::int64_t fallback,
                        std::int64_t lo, std::int64_t hi);

/// Read a floating-point environment variable (knobs like
/// DEEPSEQ_GEN_FF_RATIO take fractions), returning `fallback` when unset or
/// unparsable.
double env_double(const char* name, double fallback);

/// Read a string environment variable.
std::string env_string(const char* name, const std::string& fallback);

/// True when DEEPSEQ_FULL=1: benches run at paper-scale parameters
/// (T=10, hidden 64, 10k-cycle workloads, paper-size test circuits).
bool full_scale();

}  // namespace deepseq
