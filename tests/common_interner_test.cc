#include "common/interner.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace kf {
namespace {

TEST(InternerTest, AssignsDenseIds) {
  StringInterner interner;
  EXPECT_EQ(interner.Intern("a"), 0u);
  EXPECT_EQ(interner.Intern("b"), 1u);
  EXPECT_EQ(interner.Intern("a"), 0u);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternerTest, FindDoesNotIntern) {
  StringInterner interner;
  // Probing an empty interner (no table yet) neither fails nor grows it.
  EXPECT_EQ(interner.Find("missing"), StringInterner::kInvalidId);
  EXPECT_EQ(interner.Find(""), StringInterner::kInvalidId);
  EXPECT_EQ(interner.size(), 0u);
  interner.Intern("present");
  EXPECT_EQ(interner.Find("present"), 0u);
  EXPECT_EQ(interner.size(), 1u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(interner.Find(StrFormat("out-%d", i)),
              StringInterner::kInvalidId);
  }
  EXPECT_EQ(interner.size(), 1u);
  // A later Intern still assigns the next dense id.
  EXPECT_EQ(interner.Intern("out-0"), 1u);
}

TEST(InternerTest, GetRoundTrips) {
  StringInterner interner;
  uint32_t id = interner.Intern("hello world");
  EXPECT_EQ(interner.Get(id), "hello world");
}

TEST(InternerTest, StableUnderGrowth) {
  // Ids and contents survive every arena reallocation and table rehash.
  StringInterner interner;
  std::vector<uint32_t> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(interner.Intern(StrFormat("key-%d", i)));
  }
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(interner.Find(StrFormat("key-%d", i)), ids[i]);
    EXPECT_EQ(interner.Get(ids[i]), StrFormat("key-%d", i));
  }
}

TEST(InternerTest, EmptyStringIsValid) {
  StringInterner interner;
  uint32_t id = interner.Intern("");
  EXPECT_EQ(interner.Get(id), "");
  EXPECT_EQ(interner.Find(""), id);
}

TEST(InternerTest, IdsStayDenseAndFirstSeenAcrossManyRehashes) {
  constexpr uint32_t kStrings = 1u << 20;  // ~17 table doublings
  StringInterner interner;
  for (uint32_t i = 0; i < kStrings; ++i) {
    // Every id is the first-seen position, re-interning included.
    ASSERT_EQ(interner.Intern(std::to_string(i)), i);
    if (i % 3 == 0) {
      ASSERT_EQ(interner.Intern(std::to_string(i / 2)), i / 2);
    }
  }
  ASSERT_EQ(interner.size(), kStrings);
  for (uint32_t i = 0; i < kStrings; i += 7) {
    ASSERT_EQ(interner.Find(std::to_string(i)), i);
    ASSERT_EQ(interner.Get(i), std::to_string(i));
  }
  // The arena is the kStrings layout: size + 1 offsets over the bytes.
  const StringArena& arena = interner.strings();
  ASSERT_EQ(arena.offsets().size(), kStrings + 1u);
  EXPECT_EQ(arena.offsets().front(), 0u);
  EXPECT_EQ(arena.offsets().back(), arena.bytes().size());
}

TEST(InternerTest, EmbeddedNulAndLongStringsAreDistinctKeys) {
  const std::string nul_b("a\0b", 3);
  const std::string nul_c("a\0c", 3);
  const std::string long_a(1 << 20, 'x');
  std::string long_b = long_a;
  long_b.back() = 'y';

  StringInterner interner;
  const uint32_t empty = interner.Intern("");
  const uint32_t a = interner.Intern("a");
  const uint32_t b = interner.Intern(nul_b);
  const uint32_t c = interner.Intern(nul_c);
  const uint32_t la = interner.Intern(long_a);
  const uint32_t lb = interner.Intern(long_b);
  EXPECT_EQ(interner.size(), 6u);
  EXPECT_EQ(interner.Get(empty), "");
  EXPECT_EQ(interner.Get(a), "a");
  EXPECT_EQ(interner.Get(b), nul_b);
  EXPECT_EQ(interner.Get(b).size(), 3u);
  EXPECT_EQ(interner.Get(c), nul_c);
  EXPECT_EQ(interner.Get(la), long_a);
  EXPECT_EQ(interner.Get(lb), long_b);
  EXPECT_EQ(interner.Find(nul_b), b);
  EXPECT_EQ(interner.Find(std::string("a\0", 2)), StringInterner::kInvalidId);
  EXPECT_EQ(interner.Find(long_b), lb);
  EXPECT_EQ(interner.Intern(nul_c), c);
}

TEST(InternerTest, ViewsSurviveMovesButNotGrowth) {
  StringInterner interner;
  const uint32_t id = interner.Intern("kept");
  const std::string_view before = interner.Get(id);

  // A move hands the arena's heap buffer over: the old view still points
  // at the live bytes (a short std::string would have moved them).
  StringInterner moved = std::move(interner);
  EXPECT_EQ(moved.Get(id).data(), before.data());
  EXPECT_EQ(before, "kept");
  StringInterner assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Get(id).data(), before.data());
  EXPECT_EQ(assigned.Find("kept"), id);

  // Growth is what invalidates views: re-Get after interning.
  for (int i = 0; i < 1000; ++i) assigned.Intern(StrFormat("grow-%d", i));
  EXPECT_EQ(assigned.Get(id), "kept");
}

TEST(InternerTest, AssignAdoptsAStringsImageAndRejectsDuplicates) {
  StringInterner source;
  for (const char* s : {"x", "", "yy", "zzz"}) source.Intern(s);
  const StringArena& image = source.strings();

  StringInterner loaded;
  EXPECT_EQ(loaded.Assign(image.offsets().data(), image.size(),
                          image.bytes()),
            StringInterner::kInvalidId);
  ASSERT_EQ(loaded.size(), 4u);
  EXPECT_EQ(loaded.Get(2), "yy");
  EXPECT_EQ(loaded.Find("zzz"), 3u);
  EXPECT_EQ(loaded.Find(""), 1u);
  EXPECT_EQ(loaded.Intern("new"), 4u);

  // Entry 2 repeats entry 0: Assign names the first repeating id.
  StringArena dup;
  for (const char* s : {"a", "b", "a", "c"}) dup.Append(s);
  StringInterner bad;
  EXPECT_EQ(bad.Assign(dup.offsets().data(), dup.size(), dup.bytes()), 2u);
}

TEST(StringArenaTest, KeepsDuplicatesInAppendOrder) {
  StringArena arena;
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_TRUE(arena.offsets().empty());
  EXPECT_EQ(arena.Append("a"), 0u);
  EXPECT_EQ(arena.Append(""), 1u);
  EXPECT_EQ(arena.Append("a"), 2u);
  ASSERT_EQ(arena.size(), 3u);
  EXPECT_EQ(arena.Get(0), "a");
  EXPECT_EQ(arena.Get(1), "");
  EXPECT_EQ(arena.Get(2), "a");
  EXPECT_EQ(arena.offsets(), (std::vector<uint32_t>{0, 1, 1, 2}));
  EXPECT_EQ(arena.bytes(), "aa");

  StringArena moved = std::move(arena);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved.Get(2), "a");
}

}  // namespace
}  // namespace kf
