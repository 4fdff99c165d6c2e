#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace deepseq {
namespace {

TEST(Env, FallbackWhenUnset) {
  ::unsetenv("DEEPSEQ_TEST_KNOB");
  EXPECT_EQ(env_int("DEEPSEQ_TEST_KNOB", 42), 42);
  EXPECT_EQ(env_string("DEEPSEQ_TEST_KNOB", "dflt"), "dflt");
}

TEST(Env, ReadsIntegerValue) {
  ::setenv("DEEPSEQ_TEST_KNOB", "17", 1);
  EXPECT_EQ(env_int("DEEPSEQ_TEST_KNOB", 42), 17);
  ::unsetenv("DEEPSEQ_TEST_KNOB");
}

TEST(Env, UnparsableFallsBack) {
  ::setenv("DEEPSEQ_TEST_KNOB", "abc", 1);
  EXPECT_EQ(env_int("DEEPSEQ_TEST_KNOB", 9), 9);
  ::setenv("DEEPSEQ_TEST_KNOB", "99999999999999999999", 1);  // past int64
  EXPECT_EQ(env_int("DEEPSEQ_TEST_KNOB", 9), 9);
  ::unsetenv("DEEPSEQ_TEST_KNOB");
}

TEST(Env, TrailingGarbageFallsBack) {
  // A prefix that parses must not be accepted when followed by garbage:
  // "8x" is a typo'd knob, not a request for 8.
  ::setenv("DEEPSEQ_TEST_KNOB", "8x", 1);
  EXPECT_EQ(env_int("DEEPSEQ_TEST_KNOB", 3), 3);
  ::setenv("DEEPSEQ_TEST_KNOB", "12 7", 1);
  EXPECT_EQ(env_int("DEEPSEQ_TEST_KNOB", 3), 3);
  ::setenv("DEEPSEQ_TEST_KNOB", "1e2abc", 1);
  EXPECT_DOUBLE_EQ(env_double("DEEPSEQ_TEST_KNOB", 2.5), 2.5);
  ::setenv("DEEPSEQ_TEST_KNOB", "3.5qps", 1);
  EXPECT_DOUBLE_EQ(env_double("DEEPSEQ_TEST_KNOB", 2.5), 2.5);
  ::unsetenv("DEEPSEQ_TEST_KNOB");
}

TEST(Env, TrailingWhitespaceIsAccepted) {
  ::setenv("DEEPSEQ_TEST_KNOB", "8 ", 1);
  EXPECT_EQ(env_int("DEEPSEQ_TEST_KNOB", 3), 8);
  ::setenv("DEEPSEQ_TEST_KNOB", " 1e2 \t\n", 1);
  EXPECT_DOUBLE_EQ(env_double("DEEPSEQ_TEST_KNOB", 2.5), 100.0);
  ::setenv("DEEPSEQ_TEST_KNOB", " \t ", 1);  // whitespace only: no number
  EXPECT_EQ(env_int("DEEPSEQ_TEST_KNOB", 3), 3);
  EXPECT_DOUBLE_EQ(env_double("DEEPSEQ_TEST_KNOB", 2.5), 2.5);
  ::unsetenv("DEEPSEQ_TEST_KNOB");
}

TEST(Env, NegativeAndFractionalValuesStillParse) {
  ::setenv("DEEPSEQ_TEST_KNOB", "-4", 1);
  EXPECT_EQ(env_int("DEEPSEQ_TEST_KNOB", 3), -4);
  ::setenv("DEEPSEQ_TEST_KNOB", "0.25", 1);
  EXPECT_DOUBLE_EQ(env_double("DEEPSEQ_TEST_KNOB", 1.0), 0.25);
  ::unsetenv("DEEPSEQ_TEST_KNOB");
}

TEST(Env, RangedIntReturnsInRangeValuesAndFallback) {
  ::unsetenv("DEEPSEQ_TEST_KNOB");
  EXPECT_EQ(env_int_in("DEEPSEQ_TEST_KNOB", 7, 1, 64), 7);
  ::setenv("DEEPSEQ_TEST_KNOB", "", 1);
  EXPECT_EQ(env_int_in("DEEPSEQ_TEST_KNOB", 7, 1, 64), 7);
  ::setenv("DEEPSEQ_TEST_KNOB", "1", 1);
  EXPECT_EQ(env_int_in("DEEPSEQ_TEST_KNOB", 7, 1, 64), 1);
  ::setenv("DEEPSEQ_TEST_KNOB", "64 ", 1);
  EXPECT_EQ(env_int_in("DEEPSEQ_TEST_KNOB", 7, 1, 64), 64);
  ::unsetenv("DEEPSEQ_TEST_KNOB");
}

TEST(Env, RangedIntRejectsUnparsableAndOutOfRangeNamingTheVariable) {
  // Where env_int falls back, a ranged knob fails fast: "64KiB" is not a
  // request for the default, and "4x" not one for 4.
  const auto message = [](const char* value, std::int64_t hi) {
    ::setenv("DEEPSEQ_TEST_KNOB", value, 1);
    try {
      env_int_in("DEEPSEQ_TEST_KNOB", 7, 1, hi);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  for (const char* bad : {"0", "65", "-1", "4x", "64KiB", "abc", " ",
                          "99999999999999999999"})
    EXPECT_EQ(message(bad, 64),
              std::string("DEEPSEQ_TEST_KNOB='") + bad +
                  "': expected an integer in 1..64");
  EXPECT_EQ(message("0", std::numeric_limits<std::int64_t>::max()),
            "DEEPSEQ_TEST_KNOB='0': expected an integer >= 1");
  ::unsetenv("DEEPSEQ_TEST_KNOB");
}

TEST(Env, ReadsString) {
  ::setenv("DEEPSEQ_TEST_KNOB", "value", 1);
  EXPECT_EQ(env_string("DEEPSEQ_TEST_KNOB", "d"), "value");
  ::unsetenv("DEEPSEQ_TEST_KNOB");
}

}  // namespace
}  // namespace deepseq
