#include "common/string_util.h"

#include <gtest/gtest.h>

namespace kf {
namespace {

TEST(SiteOfUrlTest, StripsPathAfterHost) {
  EXPECT_EQ(SiteOfUrl("https://en.wikipedia.org/wiki/Data_fusion"),
            "https://en.wikipedia.org");
  EXPECT_EQ(SiteOfUrl("en.wikipedia.org/wiki/Data_fusion"),
            "en.wikipedia.org");
}

TEST(SiteOfUrlTest, ViewsAPrefixOfItsArgument) {
  const std::string_view url = "https://a.org/p1";
  EXPECT_EQ(SiteOfUrl(url).data(), url.data());
  EXPECT_EQ(SiteOfUrl(url).size(), 13u);
}

TEST(SiteOfUrlTest, NoPathReturnsWhole) {
  EXPECT_EQ(SiteOfUrl("https://example.com"), "https://example.com");
  EXPECT_EQ(SiteOfUrl("example.com"), "example.com");
}

TEST(SiteOfUrlTest, EmptyString) { EXPECT_EQ(SiteOfUrl(""), ""); }

TEST(StrJoinTest, RoundTripsWithSplit) {
  std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(pieces, "-"), "x-y-z");
  EXPECT_EQ(StrJoin({"a", "", "c"}, ","), "a,,c");
  EXPECT_EQ(StrJoin({""}, ","), "");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(ToFixedTest, Digits) {
  EXPECT_EQ(ToFixed(0.5, 3), "0.500");
  EXPECT_EQ(ToFixed(1.23456, 2), "1.23");
  EXPECT_EQ(ToFixed(-0.1, 1), "-0.1");
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(StartsWith("hello", ""));
  EXPECT_FALSE(StartsWith("he", "hello"));
  EXPECT_FALSE(StartsWith("hello", "lo"));
}

}  // namespace
}  // namespace kf
