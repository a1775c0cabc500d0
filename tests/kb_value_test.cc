#include "kb/value.h"

#include <gtest/gtest.h>

#include <limits>

namespace kf::kb {
namespace {

TEST(ValueTest, EqualityByKindAndPayload) {
  EXPECT_EQ(Value::OfEntity(1), Value::OfEntity(1));
  EXPECT_FALSE(Value::OfEntity(1) == Value::OfEntity(2));
  EXPECT_FALSE(Value::OfEntity(1) == Value::OfString(1));
  EXPECT_EQ(Value::OfNumber(3.5), Value::OfNumber(3.5));
  EXPECT_FALSE(Value::OfNumber(3.5) == Value::OfNumber(3.50001));
}

TEST(ValueTest, HashConsistentWithEquality) {
  ValueHash hash;
  EXPECT_EQ(hash(Value::OfEntity(7)), hash(Value::OfEntity(7)));
  EXPECT_NE(hash(Value::OfEntity(7)), hash(Value::OfString(7)));
  EXPECT_NE(hash(Value::OfNumber(1.0)), hash(Value::OfNumber(2.0)));
}

// Numbers compare by their bits, the rule ValueHash follows: a NaN equals
// itself, and -0.0 is a different value from +0.0.
TEST(ValueTest, NumbersCompareByBits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Value::OfNumber(nan), Value::OfNumber(nan));
  EXPECT_FALSE(Value::OfNumber(0.0) == Value::OfNumber(-0.0));
  ValueHash hash;
  EXPECT_EQ(hash(Value::OfNumber(nan)), hash(Value::OfNumber(nan)));
}

TEST(ValueTableTest, NanInternsOnceAndIsFound) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ValueTable table;
  const ValueId id = table.Intern(Value::OfNumber(nan));
  EXPECT_EQ(table.Intern(Value::OfNumber(nan)), id);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Find(Value::OfNumber(nan)), id);
}

TEST(ValueTableTest, SignedZerosAreTwoValuesInEveryTable) {
  // Whatever else a table holds, +0.0 and -0.0 get one id each and are
  // found under it.
  for (int filler = 0; filler < 200; ++filler) {
    ValueTable table;
    for (int i = 0; i < filler; ++i) table.Intern(Value::OfNumber(i + 1.0));
    const ValueId plus = table.Intern(Value::OfNumber(0.0));
    const ValueId minus = table.Intern(Value::OfNumber(-0.0));
    ASSERT_NE(plus, minus) << filler;
    EXPECT_EQ(table.Intern(Value::OfNumber(0.0)), plus) << filler;
    EXPECT_EQ(table.Find(Value::OfNumber(-0.0)), minus) << filler;
  }
}

TEST(ValueTableTest, InternDedupes) {
  ValueTable table;
  ValueId a = table.Intern(Value::OfEntity(1));
  ValueId b = table.Intern(Value::OfString(1));
  ValueId c = table.Intern(Value::OfEntity(1));
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.size(), 2u);
}

TEST(ValueTableTest, GetRoundTrips) {
  ValueTable table;
  ValueId id = table.Intern(Value::OfNumber(42.0));
  EXPECT_EQ(table.Get(id).kind, ValueKind::kNumber);
  EXPECT_EQ(table.Get(id).number, 42.0);
}

TEST(ValueTableTest, FindWithoutIntern) {
  ValueTable table;
  EXPECT_EQ(table.Find(Value::OfEntity(9)), kInvalidId);
  ValueId id = table.Intern(Value::OfEntity(9));
  EXPECT_EQ(table.Find(Value::OfEntity(9)), id);
}

TEST(ValueTableTest, CountOfKind) {
  ValueTable table;
  table.Intern(Value::OfEntity(1));
  table.Intern(Value::OfEntity(2));
  table.Intern(Value::OfString(1));
  table.Intern(Value::OfNumber(1.0));
  EXPECT_EQ(table.CountOfKind(ValueKind::kEntity), 2u);
  EXPECT_EQ(table.CountOfKind(ValueKind::kString), 1u);
  EXPECT_EQ(table.CountOfKind(ValueKind::kNumber), 1u);
}

TEST(IdsTest, DataItemEqualityAndHash) {
  DataItem a{1, 2}, b{1, 2}, c{2, 1};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(DataItemHash()(a), DataItemHash()(b));
}

}  // namespace
}  // namespace kf::kb
