#include <gtest/gtest.h>

#include "algebra/operators.h"

namespace datacell {
namespace {

TEST(SelectRangeTest, Int64Inclusive) {
  auto b = MakeInt64Bat({5, 1, 9, 3, 7});
  EXPECT_EQ(SelectRangeInt64(*b, 3, 7), (std::vector<size_t>{0, 3, 4}));
  EXPECT_EQ(SelectRangeInt64(*b, std::nullopt, 3), (std::vector<size_t>{1, 3}));
  EXPECT_EQ(SelectRangeInt64(*b, 8, std::nullopt), (std::vector<size_t>{2}));
  EXPECT_EQ(SelectRangeInt64(*b, std::nullopt, std::nullopt).size(), 5u);
  EXPECT_TRUE(SelectRangeInt64(*b, 100, 200).empty());
}

TEST(SelectRangeTest, SkipsNulls) {
  Bat b(DataType::kInt64);
  b.AppendInt64(1);
  b.AppendNull();
  b.AppendInt64(2);
  EXPECT_EQ(SelectRangeInt64(b, std::nullopt, std::nullopt),
            (std::vector<size_t>{0, 2}));
}

TEST(SelectRangeTest, DoubleRange) {
  auto b = MakeDoubleBat({0.1, 0.5, 0.9});
  EXPECT_EQ(SelectRangeDouble(*b, 0.2, 0.8), (std::vector<size_t>{1}));
}

TEST(SelectEqTest, Strings) {
  auto b = MakeStringBat({"x", "y", "x"});
  EXPECT_EQ(SelectEqString(*b, "x"), (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(SelectEqString(*b, "z").empty());
}

TEST(PositionSetTest, Complement) {
  std::vector<size_t> a{1, 3, 5, 7};
  EXPECT_EQ(ComplementPositions(a, 8), (std::vector<size_t>{0, 2, 4, 6}));
  EXPECT_EQ(ComplementPositions({}, 3), (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(ComplementPositions({0, 1, 2}, 3).empty());
}

TEST(HashJoinTest, BasicMatches) {
  auto l = MakeInt64Bat({1, 2, 3, 2});
  auto r = MakeInt64Bat({2, 4, 2});
  auto jr = HashJoin(*l, *r);
  ASSERT_TRUE(jr.ok());
  // left pos 1 and 3 each match right pos 0 and 2 -> 4 pairs.
  ASSERT_EQ(jr->left_positions.size(), 4u);
  for (size_t i = 0; i < jr->left_positions.size(); ++i) {
    EXPECT_EQ(l->Int64At(jr->left_positions[i]),
              r->Int64At(jr->right_positions[i]));
  }
}

TEST(HashJoinTest, NoMatches) {
  auto jr = HashJoin(*MakeInt64Bat({1}), *MakeInt64Bat({2}));
  ASSERT_TRUE(jr.ok());
  EXPECT_TRUE(jr->left_positions.empty());
}

TEST(HashJoinTest, NullsNeverJoin) {
  Bat l(DataType::kInt64);
  l.AppendNull();
  l.AppendInt64(1);
  Bat r(DataType::kInt64);
  r.AppendNull();
  r.AppendInt64(1);
  auto jr = HashJoin(l, r);
  ASSERT_TRUE(jr.ok());
  ASSERT_EQ(jr->left_positions.size(), 1u);
  EXPECT_EQ(jr->left_positions[0], 1u);
}

TEST(HashJoinTest, StringKeys) {
  auto jr = HashJoin(*MakeStringBat({"a", "b"}), *MakeStringBat({"b", "c"}));
  ASSERT_TRUE(jr.ok());
  ASSERT_EQ(jr->left_positions.size(), 1u);
  EXPECT_EQ(jr->left_positions[0], 1u);
  EXPECT_EQ(jr->right_positions[0], 0u);
}

TEST(HashJoinTest, TypeMismatchRejected) {
  EXPECT_FALSE(HashJoin(*MakeInt64Bat({1}), *MakeStringBat({"1"})).ok());
}

std::shared_ptr<Table> GroupTable() {
  auto t = std::make_shared<Table>(
      "t", Schema({{"k", DataType::kString}, {"v", DataType::kInt64}}));
  for (auto [k, v] : std::vector<std::pair<std::string, int>>{
           {"a", 1}, {"b", 2}, {"a", 3}, {"c", 4}, {"b", 5}, {"a", 6}}) {
    EXPECT_TRUE(t->AppendRow({Value::String(k), Value::Int64(v)}).ok());
  }
  return t;
}

TEST(GroupByTest, DenseIdsAndRepresentatives) {
  auto t = GroupTable();
  auto g = GroupBy(*t, {0});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_groups, 3u);
  EXPECT_EQ(g->group_ids, (std::vector<uint32_t>{0, 1, 0, 2, 1, 0}));
  EXPECT_EQ(g->representatives, (std::vector<size_t>{0, 1, 3}));
}

TEST(GroupByTest, MultiColumnKeys) {
  auto t = std::make_shared<Table>(
      "t", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  ASSERT_TRUE(t->AppendRow({Value::Int64(1), Value::Int64(1)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Int64(1), Value::Int64(2)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Int64(1), Value::Int64(1)}).ok());
  auto g = GroupBy(*t, {0, 1});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_groups, 2u);
}

TEST(GroupByTest, NullIsItsOwnGroup) {
  auto t = std::make_shared<Table>("t", Schema({{"k", DataType::kInt64}}));
  ASSERT_TRUE(t->AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Int64(0)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Null()}).ok());
  auto g = GroupBy(*t, {0});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_groups, 2u);
  EXPECT_EQ(g->group_ids[0], g->group_ids[2]);
}

TEST(GroupByTest, EmptyInput) {
  Table t("t", Schema({{"k", DataType::kInt64}}));
  auto g = GroupBy(t, {0});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_groups, 0u);
}

TEST(AggregateTest, AllFunctions) {
  auto v = MakeInt64Bat({4, 2, 8, 6});
  auto p = AggregateAll(*v, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->Finalize(AggFunc::kCount), Value::Int64(4));
  EXPECT_EQ(p->Finalize(AggFunc::kSum), Value::Double(20));
  EXPECT_EQ(p->Finalize(AggFunc::kMin), Value::Double(2));
  EXPECT_EQ(p->Finalize(AggFunc::kMax), Value::Double(8));
  EXPECT_EQ(p->Finalize(AggFunc::kAvg), Value::Double(5));
}

TEST(AggregateTest, EmptyInputNullsExceptCount) {
  Bat v(DataType::kInt64);
  auto p = AggregateAll(v, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->Finalize(AggFunc::kCount), Value::Int64(0));
  EXPECT_TRUE(p->Finalize(AggFunc::kSum).is_null());
  EXPECT_TRUE(p->Finalize(AggFunc::kAvg).is_null());
  EXPECT_TRUE(p->Finalize(AggFunc::kMin).is_null());
}

TEST(AggregateTest, NullsIgnored) {
  Bat v(DataType::kInt64);
  v.AppendInt64(10);
  v.AppendNull();
  v.AppendInt64(20);
  auto p = AggregateAll(v, nullptr);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->Finalize(AggFunc::kCount), Value::Int64(2));
  EXPECT_EQ(p->Finalize(AggFunc::kAvg), Value::Double(15));
}

TEST(AggregateTest, RestrictedToPositions) {
  auto v = MakeInt64Bat({1, 2, 3, 4});
  std::vector<size_t> pos{1, 3};
  auto p = AggregateAll(*v, &pos);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->Finalize(AggFunc::kSum), Value::Double(6));
}

TEST(AggregateTest, ByGroup) {
  auto t = GroupTable();
  auto g = GroupBy(*t, {0});
  ASSERT_TRUE(g.ok());
  Bat sums(DataType::kDouble);
  ASSERT_TRUE(AggregateByGroup(*t->column(1), AggFunc::kSum,
                               g->group_ids.data(), nullptr, t->num_rows(),
                               g->num_groups, &sums)
                  .ok());
  ASSERT_EQ(sums.size(), 3u);
  EXPECT_EQ(sums.GetValue(0), Value::Double(10));  // a
  EXPECT_EQ(sums.GetValue(1), Value::Double(7));   // b
  EXPECT_EQ(sums.GetValue(2), Value::Double(4));   // c
}

TEST(AggregateTest, StringsNotAggregatable) {
  auto s = MakeStringBat({"x"});
  EXPECT_FALSE(AggregateAll(*s, nullptr).ok());
}

TEST(SortTest, SingleKeyAscDesc) {
  auto t = std::make_shared<Table>("t", Schema({{"v", DataType::kInt64}}));
  for (int v : {3, 1, 2}) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(v)}).ok());
  }
  auto asc = SortPositions(*t, {{0, true}});
  ASSERT_TRUE(asc.ok());
  EXPECT_EQ(*asc, (std::vector<size_t>{1, 2, 0}));
  auto desc = SortPositions(*t, {{0, false}});
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(*desc, (std::vector<size_t>{0, 2, 1}));
}

TEST(SortTest, MultiKeyStable) {
  auto t = std::make_shared<Table>(
      "t", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  ASSERT_TRUE(t->AppendRow({Value::Int64(1), Value::Int64(9)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Int64(0), Value::Int64(5)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Int64(1), Value::Int64(3)}).ok());
  auto perm = SortPositions(*t, {{0, true}, {1, true}});
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (std::vector<size_t>{1, 2, 0}));
}

TEST(SortTest, NullsSortFirst) {
  auto t = std::make_shared<Table>("t", Schema({{"v", DataType::kInt64}}));
  ASSERT_TRUE(t->AppendRow({Value::Int64(1)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Null()}).ok());
  auto perm = SortPositions(*t, {{0, true}});
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (std::vector<size_t>{1, 0}));
}

TEST(DistinctTest, FirstOccurrenceKept) {
  auto t = std::make_shared<Table>("t", Schema({{"v", DataType::kInt64}}));
  for (int v : {1, 2, 1, 3, 2}) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(v)}).ok());
  }
  EXPECT_EQ(DistinctPositions(*t), (std::vector<size_t>{0, 1, 3}));
}

TEST(DistinctTest, FullRowSemantics) {
  auto t = std::make_shared<Table>(
      "t", Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  ASSERT_TRUE(t->AppendRow({Value::Int64(1), Value::Int64(1)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Int64(1), Value::Int64(2)}).ok());
  ASSERT_TRUE(t->AppendRow({Value::Int64(1), Value::Int64(1)}).ok());
  EXPECT_EQ(DistinctPositions(*t).size(), 2u);
}

TEST(TopNTest, TruncatesAfterSort) {
  auto t = std::make_shared<Table>("t", Schema({{"v", DataType::kInt64}}));
  for (int v : {5, 3, 9, 1}) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(v)}).ok());
  }
  auto top2 = TopN(*t, {{0, false}}, 2);
  ASSERT_TRUE(top2.ok());
  EXPECT_EQ(*top2, (std::vector<size_t>{2, 0}));
  auto top10 = TopN(*t, {{0, true}}, 10);
  ASSERT_TRUE(top10.ok());
  EXPECT_EQ(top10->size(), 4u);
}

}  // namespace
}  // namespace datacell
