#include <gtest/gtest.h>

#include "core/basket.h"

namespace datacell {
namespace {

Schema UserSchema() {
  return Schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
}

std::shared_ptr<Basket> MakeBasket(const std::string& name = "r") {
  return std::make_shared<Basket>(Basket::MakeBasketTable(name, UserSchema()));
}

Row R(int a, const std::string& b) {
  return Row{Value::Int64(a), Value::String(b)};
}

TEST(BasketTest, SchemaGetsTsColumn) {
  auto b = MakeBasket();
  ASSERT_EQ(b->schema().num_fields(), 3u);
  EXPECT_EQ(b->schema().field(2).name, "ts");
  EXPECT_EQ(b->schema().field(2).type, DataType::kTimestamp);
  EXPECT_EQ(b->ts_column(), 2u);
  EXPECT_TRUE(Basket::HasTsColumn(b->schema()));
  EXPECT_FALSE(Basket::HasTsColumn(UserSchema()));
}

TEST(BasketTest, AppendStampsTs) {
  auto b = MakeBasket();
  ASSERT_TRUE(b->Append(R(1, "x"), 12345).ok());
  auto snap = b->PeekSnapshot();
  ASSERT_EQ(snap->num_rows(), 1u);
  EXPECT_EQ(snap->GetRow(0)[2], Value::TimestampVal(12345));
}

TEST(BasketTest, AppendValidatesTypes) {
  auto b = MakeBasket();
  EXPECT_FALSE(b->Append({Value::String("no"), Value::String("x")}, 1).ok());
  EXPECT_FALSE(b->Append({Value::Int64(1)}, 1).ok());  // arity
  EXPECT_EQ(b->size(), 0u);
}

TEST(BasketTest, DrainAllEmptiesAndCounts) {
  auto b = MakeBasket();
  ASSERT_TRUE(b->AppendBatch({R(1, "x"), R(2, "y")}, 7).ok());
  EXPECT_EQ(b->size(), 2u);
  auto drained = b->DrainAll();
  EXPECT_EQ(drained->num_rows(), 2u);
  EXPECT_EQ(b->size(), 0u);
  EXPECT_EQ(b->total_appended(), 2);
  EXPECT_EQ(b->total_consumed(), 2);
}

TEST(BasketTest, DrainMatchingLeavesRest) {
  auto b = MakeBasket();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(b->Append(R(i, "v"), i).ok());
  }
  // Predicate over the basket schema: a < 5.
  auto pred = Expr::Binary(BinaryOp::kLt,
                           Expr::Column(0, "a", DataType::kInt64),
                           Expr::Int(5));
  auto matched = b->DrainMatching(*pred);
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ((*matched)->num_rows(), 5u);
  EXPECT_EQ(b->size(), 5u);  // partially emptied basket (paper §2.6)
  auto snap = b->PeekSnapshot();
  EXPECT_EQ(snap->GetRow(0)[0], Value::Int64(5));
}

// Regression: an interior removal (DrainMatching keeps non-matching tuples
// but shrinks the oid range without advancing hseqbase) used to leave a
// registered reader's watermark pointing past the basket end, and the next
// ReadNewFor aborted slicing out of range. Watermarks are now clamped back
// to the end on interior removal; the reader resumes with fresh arrivals.
TEST(BasketTest, ReaderWatermarkSurvivesInteriorDrain) {
  auto b = MakeBasket();
  size_t r = b->RegisterReader();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b->Append(R(i, "v"), i).ok());
  }
  EXPECT_EQ(b->ReadNewFor(r)->num_rows(), 5u);  // watermark at oid 5
  auto pred = Expr::Binary(BinaryOp::kLt,
                           Expr::Column(0, "a", DataType::kInt64),
                           Expr::Int(3));
  auto matched = b->DrainMatching(*pred);  // removes 3 of 5; end is now oid 2
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ((*matched)->num_rows(), 3u);
  EXPECT_EQ(b->size(), 2u);
  TablePtr again = b->ReadNewFor(r);  // used to abort here
  EXPECT_EQ(again->num_rows(), 0u);
  ASSERT_TRUE(b->Append(R(9, "z"), 9).ok());
  TablePtr fresh = b->ReadNewFor(r);
  ASSERT_EQ(fresh->num_rows(), 1u);
  EXPECT_EQ(fresh->GetRow(0)[0], Value::Int64(9));
}

TEST(BasketTest, DrainSplitRoutesNonMatching) {
  auto src = MakeBasket("src");
  auto next = MakeBasket("next");
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(src->Append(R(i, "v"), i).ok());
  }
  auto pred = Expr::Binary(BinaryOp::kLt,
                           Expr::Column(0, "a", DataType::kInt64),
                           Expr::Int(2));
  auto matched = src->DrainSplit(*pred, next.get());
  ASSERT_TRUE(matched.ok());
  EXPECT_EQ((*matched)->num_rows(), 2u);
  EXPECT_EQ(src->size(), 0u);
  EXPECT_EQ(next->size(), 4u);
  // Timestamps travel with the tuples.
  EXPECT_EQ(next->PeekSnapshot()->GetRow(0)[2], Value::TimestampVal(2));
}

TEST(BasketTest, PeekDoesNotConsume) {
  auto b = MakeBasket();
  ASSERT_TRUE(b->Append(R(1, "x"), 1).ok());
  auto snap = b->PeekSnapshot();
  EXPECT_EQ(snap->num_rows(), 1u);
  EXPECT_EQ(b->size(), 1u);
  // The snapshot is independent of later appends.
  ASSERT_TRUE(b->Append(R(2, "y"), 2).ok());
  EXPECT_EQ(snap->num_rows(), 1u);
}

TEST(BasketTest, SharedReadersWatermarks) {
  auto b = MakeBasket();
  size_t r1 = b->RegisterReader();
  ASSERT_TRUE(b->AppendBatch({R(1, "a"), R(2, "b")}, 1).ok());
  size_t r2 = b->RegisterReader();  // registers at the current end
  ASSERT_TRUE(b->Append(R(3, "c"), 2).ok());

  EXPECT_EQ(b->UnseenCount(r1), 3u);
  EXPECT_EQ(b->UnseenCount(r2), 1u);

  auto s1 = b->ReadNewFor(r1);
  EXPECT_EQ(s1->num_rows(), 3u);
  EXPECT_EQ(b->UnseenCount(r1), 0u);
  // Tuples stay until everyone saw them.
  EXPECT_EQ(b->TrimConsumed(), 2u);  // r2 already saw the first two
  EXPECT_EQ(b->size(), 1u);

  auto s2 = b->ReadNewFor(r2);
  EXPECT_EQ(s2->num_rows(), 1u);
  EXPECT_EQ(s2->GetRow(0)[0], Value::Int64(3));
  EXPECT_EQ(b->TrimConsumed(), 1u);
  EXPECT_EQ(b->size(), 0u);
}

TEST(BasketTest, TrimWithoutReadersKeepsAll) {
  auto b = MakeBasket();
  ASSERT_TRUE(b->Append(R(1, "x"), 1).ok());
  EXPECT_EQ(b->TrimConsumed(), 0u);
  EXPECT_EQ(b->size(), 1u);
}

TEST(BasketTest, ReadNewTwiceReturnsNothing) {
  auto b = MakeBasket();
  size_t r = b->RegisterReader();
  ASSERT_TRUE(b->Append(R(1, "x"), 1).ok());
  EXPECT_EQ(b->ReadNewFor(r)->num_rows(), 1u);
  EXPECT_EQ(b->ReadNewFor(r)->num_rows(), 0u);
}

TEST(BasketTest, AppendWithTsPreservesStamps) {
  auto a = MakeBasket("a");
  auto b = MakeBasket("b");
  ASSERT_TRUE(a->Append(R(1, "x"), 42).ok());
  auto t = a->DrainAll();
  ASSERT_TRUE(b->AppendTable(*t, std::nullopt).ok());
  EXPECT_EQ(b->PeekSnapshot()->GetRow(0)[2], Value::TimestampVal(42));
}

TEST(BasketTest, AppendStampedAddsTs) {
  auto b = MakeBasket();
  Table results("", UserSchema());
  ASSERT_TRUE(results.AppendRow(R(5, "r")).ok());
  ASSERT_TRUE(b->AppendTable(results, 99).ok());
  auto snap = b->PeekSnapshot();
  EXPECT_EQ(snap->GetRow(0)[0], Value::Int64(5));
  EXPECT_EQ(snap->GetRow(0)[2], Value::TimestampVal(99));
}

TEST(BasketTest, AppendStampedValidates) {
  auto b = MakeBasket();
  Table wrong("", Schema({{"a", DataType::kInt64}}));
  EXPECT_FALSE(b->AppendTable(wrong, 1).ok());
  Table wrong_type(
      "", Schema({{"a", DataType::kDouble}, {"b", DataType::kString}}));
  EXPECT_FALSE(b->AppendTable(wrong_type, 1).ok());
}

TEST(BasketTest, OldestNewestTs) {
  auto b = MakeBasket();
  EXPECT_FALSE(b->OldestTs().has_value());
  // Out-of-order arrival: baskets are multisets (paper §2.2).
  ASSERT_TRUE(b->Append(R(1, "x"), 50).ok());
  ASSERT_TRUE(b->Append(R(2, "y"), 10).ok());
  ASSERT_TRUE(b->Append(R(3, "z"), 30).ok());
  EXPECT_EQ(*b->OldestTs(), 10);
  EXPECT_EQ(*b->NewestTs(), 50);
}

TEST(BasketTest, LoadSheddingDropOldest) {
  auto b = MakeBasket();
  b->SetCapacity(3, Basket::DropPolicy::kDropOldest);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b->Append(R(i, "v"), i).ok());
  }
  EXPECT_EQ(b->size(), 3u);
  EXPECT_EQ(b->total_shed(), 2);
  // The freshest tuples survive.
  auto snap = b->PeekSnapshot();
  EXPECT_EQ(snap->GetRow(0)[0], Value::Int64(2));
  EXPECT_EQ(snap->GetRow(2)[0], Value::Int64(4));
}

TEST(BasketTest, LoadSheddingDropNewest) {
  auto b = MakeBasket();
  b->SetCapacity(3, Basket::DropPolicy::kDropNewest);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b->Append(R(i, "v"), i).ok());
  }
  EXPECT_EQ(b->size(), 3u);
  EXPECT_EQ(b->total_shed(), 2);
  // The oldest tuples survive.
  auto snap = b->PeekSnapshot();
  EXPECT_EQ(snap->GetRow(0)[0], Value::Int64(0));
  EXPECT_EQ(snap->GetRow(2)[0], Value::Int64(2));
}

TEST(BasketTest, LoadSheddingBatchAppend) {
  auto b = MakeBasket();
  b->SetCapacity(4, Basket::DropPolicy::kDropOldest);
  std::vector<Row> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(R(i, "v"));
  ASSERT_TRUE(b->AppendBatch(batch, 0).ok());
  EXPECT_EQ(b->size(), 4u);
  EXPECT_EQ(b->total_shed(), 6);
  EXPECT_EQ(b->PeekSnapshot()->GetRow(0)[0], Value::Int64(6));
}

TEST(BasketTest, ShrinkingCapacitySheds) {
  auto b = MakeBasket();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(b->Append(R(i, "v"), i).ok());
  }
  b->SetCapacity(2, Basket::DropPolicy::kDropNewest);
  EXPECT_EQ(b->size(), 2u);
  EXPECT_EQ(b->total_shed(), 4);
  EXPECT_EQ(b->capacity(), 2u);
}

TEST(BasketTest, ZeroCapacityMeansUnbounded) {
  auto b = MakeBasket();
  b->SetCapacity(0, Basket::DropPolicy::kDropOldest);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(b->Append(R(i, "v"), i).ok());
  }
  EXPECT_EQ(b->size(), 100u);
  EXPECT_EQ(b->total_shed(), 0);
}

TEST(BasketTest, MakeBasketTableRejectsNothing) {
  // Memory accounting sanity.
  auto b = MakeBasket();
  size_t empty = b->memory_usage();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(b->Append(R(i, "payload"), i).ok());
  }
  EXPECT_GT(b->memory_usage(), empty);
}

}  // namespace
}  // namespace datacell
