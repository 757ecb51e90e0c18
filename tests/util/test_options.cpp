#include "util/options.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace bpart {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, EqualsSyntax) {
  const auto o = parse({"--parts=8"});
  EXPECT_EQ(o.get_int("parts", 0), 8);
}

TEST(Options, SpaceSyntax) {
  const auto o = parse({"--graph", "twitter"});
  EXPECT_EQ(o.get("graph", ""), "twitter");
}

TEST(Options, BareFlagIsTrue) {
  const auto o = parse({"--verbose"});
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_TRUE(o.has("verbose"));
}

TEST(Options, PositionalArgsPreserved) {
  const auto o = parse({"input.txt", "--k=4", "output.txt"});
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "input.txt");
  EXPECT_EQ(o.positional()[1], "output.txt");
}

TEST(Options, FallbacksWhenMissing) {
  const auto o = parse({});
  EXPECT_EQ(o.get("x", "def"), "def");
  EXPECT_EQ(o.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(o.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(o.get_bool("x", false));
}

TEST(Options, MalformedNumberFallsBack) {
  const auto o = parse({"--n=abc"});
  EXPECT_EQ(o.get_int("n", 3), 3);
  EXPECT_DOUBLE_EQ(o.get_double("n", 1.5), 1.5);
  // A prefix parse would read each of these as its leading number.
  for (const char* junk : {"8x", "1e6", " 64", "0.5x"}) {
    Options j;
    j.set("n", junk);
    EXPECT_EQ(j.get_int("n", 3), 3) << '"' << junk << '"';
  }
  for (const char* junk : {"8x", " 64", "0.5x"}) {
    Options j;
    j.set("n", junk);
    EXPECT_DOUBLE_EQ(j.get_double("n", 1.5), 1.5) << '"' << junk << '"';
  }
}

TEST(Options, DoubleParsing) {
  const auto o = parse({"--c=0.25"});
  EXPECT_DOUBLE_EQ(o.get_double("c", 0), 0.25);
}

TEST(Options, BoolSpellings) {
  EXPECT_TRUE(parse({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=yes"}).get_bool("a", false));
  EXPECT_TRUE(parse({"--a=on"}).get_bool("a", false));
  EXPECT_FALSE(parse({"--a=0"}).get_bool("a", true));
  EXPECT_FALSE(parse({"--a=no"}).get_bool("a", true));
}

TEST(Options, EnvironmentIsIgnored) {
  ::setenv("BPART_ENV_ONLY_KEY", "99", 1);
  const auto o = parse({});
  EXPECT_FALSE(o.has("env-only-key"));
  EXPECT_EQ(o.get_int("env-only-key", 0), 0);
  EXPECT_EQ(o.get("env-only-key", "def"), "def");
  ::unsetenv("BPART_ENV_ONLY_KEY");
}

TEST(Options, SetOverrides) {
  Options o;
  o.set("k", "5");
  EXPECT_EQ(o.get_int("k", 0), 5);
}

}  // namespace
}  // namespace bpart
