#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/row_eval.h"
#include "baseline/tuple_engine.h"
#include "common/random.h"

namespace datacell {
namespace baseline {
namespace {

ExprPtr ColX() { return Expr::Column(0, "x", DataType::kInt64); }

// --- per-row expression evaluation ---------------------------------------

TEST(RowEvalTest, ArithmeticAndComparison) {
  Row row{Value::Int64(6)};
  auto e = Expr::Binary(BinaryOp::kMul, ColX(), Expr::Int(7));
  EXPECT_EQ(*EvaluateExprOnRow(*e, row), Value::Int64(42));
  auto cmp = Expr::Binary(BinaryOp::kGt, ColX(), Expr::Int(5));
  EXPECT_EQ(*EvaluateExprOnRow(*cmp, row), Value::Bool(true));
}

TEST(RowEvalTest, NullSemanticsMatchBulkEvaluator) {
  Row null_row{Value::Null()};
  auto add = Expr::Binary(BinaryOp::kAdd, ColX(), Expr::Int(1));
  EXPECT_TRUE(EvaluateExprOnRow(*add, null_row)->is_null());
  auto cmp = Expr::Binary(BinaryOp::kEq, ColX(), Expr::Int(0));
  EXPECT_EQ(*EvaluateExprOnRow(*cmp, null_row), Value::Bool(false));
  auto isnull = Expr::Unary(UnaryOp::kIsNull, ColX());
  EXPECT_EQ(*EvaluateExprOnRow(*isnull, null_row), Value::Bool(true));
}

TEST(RowEvalTest, DivisionByZeroNull) {
  Row row{Value::Int64(5)};
  auto div = Expr::Binary(BinaryOp::kDiv, ColX(), Expr::Int(0));
  EXPECT_TRUE(EvaluateExprOnRow(*div, row)->is_null());
}

TEST(RowEvalTest, StringComparison) {
  Row row{Value::String("banana")};
  auto e = Expr::Binary(BinaryOp::kLt,
                        Expr::Column(0, "s", DataType::kString),
                        Expr::Str("cherry"));
  EXPECT_EQ(*EvaluateExprOnRow(*e, row), Value::Bool(true));
}

TEST(RowEvalTest, PredicateHelper) {
  Row row{Value::Int64(3)};
  auto e = Expr::Binary(BinaryOp::kLt, ColX(), Expr::Int(5));
  EXPECT_TRUE(*EvaluatePredicateOnRow(*e, row));
}

// Property: per-row evaluation agrees with the bulk evaluator on random
// expressions over random data (the fairness premise of E2).
TEST(RowEvalTest, AgreesWithBulkEvaluator) {
  Rng rng(7);
  auto table = std::make_shared<Table>(
      "t", Schema({{"x", DataType::kInt64}, {"y", DataType::kDouble}}));
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(table
                    ->AppendRow({Value::Int64(rng.Uniform(-100, 100)),
                                 Value::Double(rng.UniformReal(-1, 1))})
                    .ok());
  }
  std::vector<ExprPtr> exprs = {
      Expr::Binary(BinaryOp::kAdd, ColX(), Expr::Int(3)),
      Expr::Binary(BinaryOp::kMul,
                   Expr::Column(1, "y", DataType::kDouble), Expr::Real(2.0)),
      Expr::Binary(BinaryOp::kAnd,
                   Expr::Binary(BinaryOp::kGt, ColX(), Expr::Int(0)),
                   Expr::Binary(BinaryOp::kLt,
                                Expr::Column(1, "y", DataType::kDouble),
                                Expr::Real(0.5))),
      Expr::Binary(BinaryOp::kMod, ColX(), Expr::Int(7)),
  };
  for (const ExprPtr& e : exprs) {
    auto bulk = EvaluateExpr(*e, *table);
    ASSERT_TRUE(bulk.ok());
    for (size_t i = 0; i < table->num_rows(); ++i) {
      auto row_result = EvaluateExprOnRow(*e, table->GetRow(i));
      ASSERT_TRUE(row_result.ok());
      EXPECT_EQ(*row_result, (*bulk)->GetValue(i))
          << e->ToString() << " row " << i;
    }
  }
}

// --- operators ------------------------------------------------------------

TEST(TuplePipelineTest, FilterMapSink) {
  TuplePipeline pipe;
  pipe.Add(std::make_unique<FilterOp>(
      Expr::Binary(BinaryOp::kGt, ColX(), Expr::Int(2))));
  pipe.Add(std::make_unique<MapOp>(std::vector<ExprPtr>{
      Expr::Binary(BinaryOp::kMul, ColX(), Expr::Int(10))}));
  auto* sink = static_cast<SinkOp*>(
      pipe.Add(std::make_unique<SinkOp>(/*collect=*/true)));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(pipe.Push({Value::Int64(i)}).ok());
  }
  EXPECT_EQ(sink->count(), 2);
  EXPECT_EQ(sink->rows()[0][0], Value::Int64(30));
  EXPECT_EQ(sink->rows()[1][0], Value::Int64(40));
  EXPECT_EQ(pipe.tuples_pushed(), 5);
}

TEST(TuplePipelineTest, WindowAggregateTumbling) {
  TuplePipeline pipe;
  pipe.Add(std::make_unique<WindowAggregateOp>(
      std::vector<size_t>{}, std::vector<size_t>{0},
      std::vector<AggFunc>{AggFunc::kSum}, 3, 3));
  auto* sink = static_cast<SinkOp*>(
      pipe.Add(std::make_unique<SinkOp>(/*collect=*/true)));
  for (int i = 1; i <= 7; ++i) {
    ASSERT_TRUE(pipe.Push({Value::Int64(i)}).ok());
  }
  ASSERT_EQ(sink->count(), 2);
  EXPECT_EQ(sink->rows()[0][0], Value::Double(1 + 2 + 3));
  EXPECT_EQ(sink->rows()[1][0], Value::Double(4 + 5 + 6));
}

TEST(TuplePipelineTest, WindowAggregateSlidingGrouped) {
  TuplePipeline pipe;
  // group by col 0, sum col 1, window 4 slide 2.
  pipe.Add(std::make_unique<WindowAggregateOp>(
      std::vector<size_t>{0}, std::vector<size_t>{1},
      std::vector<AggFunc>{AggFunc::kSum}, 4, 2));
  auto* sink = static_cast<SinkOp*>(
      pipe.Add(std::make_unique<SinkOp>(/*collect=*/true)));
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(pipe.Push({Value::Int64(i % 2), Value::Int64(i)}).ok());
  }
  // Windows [1..4] and [3..6]; 2 groups each -> 4 result rows.
  EXPECT_EQ(sink->count(), 4);
}

// Double group keys that agree to six significant digits are still two
// groups: the key holds the value's lossless text.
TEST(TuplePipelineTest, WindowAggregateKeepsCloseDoubleKeysApart) {
  TuplePipeline pipe;
  pipe.Add(std::make_unique<WindowAggregateOp>(
      std::vector<size_t>{0}, std::vector<size_t>{1},
      std::vector<AggFunc>{AggFunc::kSum}, 2, 2));
  auto* sink = static_cast<SinkOp*>(
      pipe.Add(std::make_unique<SinkOp>(/*collect=*/true)));
  ASSERT_TRUE(pipe.Push({Value::Double(1.0000001), Value::Int64(1)}).ok());
  ASSERT_TRUE(pipe.Push({Value::Double(1.0000002), Value::Int64(2)}).ok());
  ASSERT_EQ(sink->count(), 2);
  std::vector<double> sums = {sink->rows()[0][1].AsDouble(),
                              sink->rows()[1][1].AsDouble()};
  std::sort(sums.begin(), sums.end());
  EXPECT_EQ(sums, (std::vector<double>{1.0, 2.0}));
}

TEST(TupleEngineTest, FanOutToAllPipelines) {
  TupleEngine engine;
  auto* p1 = engine.AddPipeline();
  auto* p2 = engine.AddPipeline();
  p1->Add(std::make_unique<FilterOp>(
      Expr::Binary(BinaryOp::kLt, ColX(), Expr::Int(5))));
  auto* s1 = static_cast<SinkOp*>(p1->Add(std::make_unique<SinkOp>()));
  p2->Add(std::make_unique<FilterOp>(
      Expr::Binary(BinaryOp::kGe, ColX(), Expr::Int(5))));
  auto* s2 = static_cast<SinkOp*>(p2->Add(std::make_unique<SinkOp>()));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Push({Value::Int64(i)}).ok());
  }
  EXPECT_EQ(engine.num_pipelines(), 2u);
  EXPECT_EQ(s1->count(), 5);
  EXPECT_EQ(s2->count(), 5);
  EXPECT_TRUE(engine.Finish().ok());
}

}  // namespace
}  // namespace baseline
}  // namespace datacell
