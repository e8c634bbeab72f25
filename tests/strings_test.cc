// Unit tests for string utilities: case-insensitive names and LIKE-style
// pattern matching.

#include "common/strings.h"

#include <ostream>

#include <gtest/gtest.h>

namespace sim {
namespace {

TEST(StringsTest, NameEq) {
  EXPECT_TRUE(NameEq("Student", "STUDENT"));
  EXPECT_TRUE(NameEq("soc-sec-no", "Soc-Sec-No"));
  EXPECT_FALSE(NameEq("student", "students"));
  EXPECT_TRUE(NameEq("", ""));
}

TEST(StringsTest, AsciiLower) {
  EXPECT_EQ(AsciiLower("Teaching-Assistant"), "teaching-assistant");
  EXPECT_EQ(AsciiLower("ABC123"), "abc123");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

struct LikeCase {
  const char* text;
  const char* pattern;
  bool expected;
};

// Prints a case by its values. Test discovery names each case after this
// text, so the names stay the same from build to build; gtest's default
// byte dump would print the string addresses and the struct's padding.
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.text << "' LIKE '" << c.pattern << "' is "
      << (c.expected ? "true" : "false");
}

class LikeMatchTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.text, c.pattern), c.expected)
      << "'" << c.text << "' LIKE '" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeMatchTest,
    ::testing::Values(
        LikeCase{"Calculus I", "Calculus%", true},
        LikeCase{"Calculus I", "%I", true},
        LikeCase{"Calculus I", "%calc%", true},  // case-insensitive
        LikeCase{"Calculus I", "Algebra%", false},
        LikeCase{"abc", "a_c", true},
        LikeCase{"abc", "a_d", false},
        LikeCase{"abc", "%", true},
        LikeCase{"", "%", true},
        LikeCase{"", "_", false},
        LikeCase{"abc", "abc", true},
        LikeCase{"ab", "abc", false},
        LikeCase{"aXbXc", "a%b%c", true},
        LikeCase{"mississippi", "%iss%ppi", true},
        LikeCase{"mississippi", "%isx%ppi", false},
        LikeCase{"a%b", "a%b", true},  // '%' in text matched by wildcard
        // Backslash escapes: '\%' and '\_' match the literal characters.
        LikeCase{"100%", "100\\%", true},
        LikeCase{"100x", "100\\%", false},
        LikeCase{"100", "100\\%", false},
        LikeCase{"a_b", "a\\_b", true},
        LikeCase{"axb", "a\\_b", false},
        LikeCase{"a\\b", "a\\\\b", true},   // escaped backslash
        LikeCase{"50% off", "%\\%%", true},  // literal '%' between wildcards
        LikeCase{"half off", "%\\%%", false},
        LikeCase{"a\\", "a\\", true},  // trailing lone '\' is literal
        LikeCase{"A%B", "a\\%b", true}));  // escapes stay case-insensitive

}  // namespace
}  // namespace sim
