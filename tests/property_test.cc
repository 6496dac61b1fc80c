// Randomised property tests cross-checking independent implementations of
// the same semantics: bulk vs per-row expression evaluation, hash join vs
// nested loops, grouped vs global aggregation, CSV round-trips, and plan
// execution over empty inputs.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "adapters/csv.h"
#include "algebra/plan.h"
#include "baseline/row_eval.h"
#include "common/random.h"

namespace datacell {
namespace {

// --- CSV round-trip -----------------------------------------------------

/// Any non-NaN double: a uniformly random bit pattern, or one of the edge
/// values (signed zeros, infinities, subnormals, extremes, decimals).
double ArbitraryDouble(Rng& rng) {
  static const double kEdges[] = {
      0.0, -0.0, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 0.1, 1.0000001, 1.0000002, 1e100,
      123456789.125};
  if (rng.Bernoulli(0.2)) {
    return kEdges[rng.Uniform(0, std::ssize(kEdges) - 1)];
  }
  double d;
  do {
    d = std::bit_cast<double>(rng.Uniform(std::numeric_limits<int64_t>::min(),
                                          std::numeric_limits<int64_t>::max()));
  } while (std::isnan(d));
  return d;
}

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

class CsvRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTripTest, FormatParseIdentity) {
  Rng rng(GetParam());
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"b", DataType::kBool},
                 {"t", DataType::kTimestamp}});
  const std::string nasty = ",\"'\n%_\\x";
  for (int round = 0; round < 200; ++round) {
    Row row;
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null()
                      : Value::Int64(rng.Uniform(-1000000, 1000000)));
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Double(ArbitraryDouble(rng)));
    if (rng.Bernoulli(0.1)) {
      row.push_back(Value::Null());
    } else {
      std::string s;
      int len = static_cast<int>(rng.Uniform(0, 12));
      for (int i = 0; i < len; ++i) {
        s.push_back(nasty[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(nasty.size()) - 1))]);
      }
      row.push_back(Value::String(s));
    }
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Bool(rng.Bernoulli(0.5)));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null()
                      : Value::TimestampVal(rng.Uniform(0, 1'000'000'000)));

    std::string line = FormatCsvRow(row);
    auto parsed = ParseCsvRow(line, schema);
    ASSERT_TRUE(parsed.ok()) << line << " -> " << parsed.status().ToString();
    ASSERT_EQ(parsed->size(), row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ((*parsed)[c], row[c]) << "line: " << line << " col " << c;
    }
    if (!row[1].is_null()) {
      EXPECT_EQ(Bits((*parsed)[1].double_value()), Bits(row[1].double_value()))
          << "line: " << line;
    }
  }
}

// The receptor's block parser reads every double back bit for bit, and the
// columnar formatter writes the line FormatCsvRow wrote.
TEST_P(CsvRoundTripTest, DoublesSurviveTheBlockParser) {
  Rng rng(GetParam());
  Schema schema({{"d", DataType::kDouble}});
  std::vector<double> values;
  TextBlock block;
  for (int i = 0; i < 500; ++i) {
    values.push_back(ArbitraryDouble(rng));
    block.Append(FormatCsvRow({Value::Double(values.back())}));
  }
  ColumnBatch batch(schema);
  CsvParseReport report = ParseCsvLines(block, 0, block.size(), &batch);
  ASSERT_EQ(report.rejected, 0u) << report.first_error.ToString();
  ASSERT_EQ(batch.num_rows(), values.size());
  std::string line;
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(Bits(batch.column(0).DoubleAt(i)), Bits(values[i]))
        << "line: " << block.line(i);
    FormatCsvLine(batch, i, &line);
    EXPECT_EQ(line, block.line(i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- random expressions: bulk == per-row --------------------------------

/// Random well-typed expression over (x int64, y double, s string).
ExprPtr RandomExpr(Rng& rng, int depth);

ExprPtr RandomNumeric(Rng& rng, int depth) {
  if (depth == 0 || rng.Bernoulli(0.3)) {
    switch (rng.Uniform(0, 3)) {
      case 0:
        return Expr::Column(0, "x", DataType::kInt64);
      case 1:
        return Expr::Column(1, "y", DataType::kDouble);
      case 2:
        return Expr::Int(rng.Uniform(-20, 20));
      default:
        return Expr::Real(rng.Uniform(-40, 40) / 2.0);
    }
  }
  if (rng.Bernoulli(0.15)) {
    ScalarFunc funcs[] = {ScalarFunc::kAbs, ScalarFunc::kFloor,
                          ScalarFunc::kCeil, ScalarFunc::kRound};
    return Expr::Function(funcs[rng.Uniform(0, 3)],
                          RandomNumeric(rng, depth - 1));
  }
  BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                    BinaryOp::kDiv, BinaryOp::kMod};
  return Expr::Binary(ops[rng.Uniform(0, 4)], RandomNumeric(rng, depth - 1),
                      RandomNumeric(rng, depth - 1));
}

ExprPtr RandomBool(Rng& rng, int depth) {
  if (depth == 0 || rng.Bernoulli(0.4)) {
    BinaryOp cmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                       BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
    if (rng.Bernoulli(0.2)) {
      return Expr::Binary(BinaryOp::kLike,
                          Expr::Column(2, "s", DataType::kString),
                          Expr::Str(rng.Bernoulli(0.5) ? "s%" : "%1%"));
    }
    return Expr::Binary(cmps[rng.Uniform(0, 5)], RandomNumeric(rng, depth),
                        RandomNumeric(rng, depth));
  }
  if (rng.Bernoulli(0.2)) {
    return Expr::Unary(UnaryOp::kNot, RandomBool(rng, depth - 1));
  }
  return Expr::Binary(rng.Bernoulli(0.5) ? BinaryOp::kAnd : BinaryOp::kOr,
                      RandomBool(rng, depth - 1), RandomBool(rng, depth - 1));
}

ExprPtr RandomCase(Rng& rng, int depth) {
  std::vector<ExprPtr> when_then;
  int branches = static_cast<int>(rng.Uniform(1, 3));
  for (int i = 0; i < branches; ++i) {
    when_then.push_back(RandomBool(rng, depth - 1));
    when_then.push_back(RandomNumeric(rng, depth - 1));
  }
  auto e = Expr::Case(std::move(when_then), RandomNumeric(rng, depth - 1));
  EXPECT_TRUE(e.ok());
  return *e;
}

ExprPtr RandomExpr(Rng& rng, int depth) {
  if (depth > 1 && rng.Bernoulli(0.15)) return RandomCase(rng, depth);
  return rng.Bernoulli(0.5) ? RandomNumeric(rng, depth)
                            : RandomBool(rng, depth);
}

class ExprAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExprAgreementTest, BulkMatchesPerRow) {
  Rng rng(GetParam());
  auto table = std::make_shared<Table>(
      "t", Schema({{"x", DataType::kInt64},
                   {"y", DataType::kDouble},
                   {"s", DataType::kString}}));
  for (int i = 0; i < 48; ++i) {
    Row row;
    row.push_back(rng.Bernoulli(0.1) ? Value::Null()
                                     : Value::Int64(rng.Uniform(-50, 50)));
    row.push_back(rng.Bernoulli(0.1)
                      ? Value::Null()
                      : Value::Double(rng.Uniform(-20, 20) / 2.0));
    row.push_back(Value::String("s" + std::to_string(rng.Uniform(0, 20))));
    ASSERT_TRUE(table->AppendRow(row).ok());
  }
  for (int round = 0; round < 30; ++round) {
    ExprPtr e = RandomExpr(rng, 3);
    auto bulk = EvaluateExpr(*e, *table);
    ASSERT_TRUE(bulk.ok()) << e->ToString();
    for (size_t i = 0; i < table->num_rows(); ++i) {
      auto per_row = EvaluateExprOnRow(*e, table->GetRow(i));
      ASSERT_TRUE(per_row.ok()) << e->ToString();
      EXPECT_EQ(*per_row, (*bulk)->GetValue(i))
          << e->ToString() << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprAgreementTest,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u, 16u));

// --- hash join vs nested loops --------------------------------------------

class JoinReferenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinReferenceTest, HashJoinMatchesNestedLoops) {
  Rng rng(GetParam());
  auto make = [&](size_t n, int64_t domain) {
    auto b = std::make_shared<Bat>(DataType::kInt64);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.05)) {
        b->AppendNull();
      } else {
        b->AppendInt64(rng.Uniform(0, domain));
      }
    }
    return b;
  };
  BatPtr l = make(60, 20);
  BatPtr r = make(40, 20);
  auto jr = HashJoin(*l, *r);
  ASSERT_TRUE(jr.ok());
  // Reference: nested loops.
  std::multiset<std::pair<size_t, size_t>> expected;
  for (size_t i = 0; i < l->size(); ++i) {
    if (l->IsNull(i)) continue;
    for (size_t j = 0; j < r->size(); ++j) {
      if (r->IsNull(j)) continue;
      if (l->Int64At(i) == r->Int64At(j)) expected.emplace(i, j);
    }
  }
  std::multiset<std::pair<size_t, size_t>> got;
  for (size_t k = 0; k < jr->left_positions.size(); ++k) {
    got.emplace(jr->left_positions[k], jr->right_positions[k]);
  }
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinReferenceTest,
                         ::testing::Values(21u, 22u, 23u, 24u));

// --- aggregation consistency -----------------------------------------------

class AggConsistencyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggConsistencyTest, GroupPartialsSumToGlobal) {
  Rng rng(GetParam());
  auto t = std::make_shared<Table>(
      "t", Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(t->AppendRow({Value::Int64(rng.Uniform(0, 9)),
                              rng.Bernoulli(0.05)
                                  ? Value::Null()
                                  : Value::Int64(rng.Uniform(-100, 100))})
                    .ok());
  }
  auto grouping = GroupBy(*t, {0});
  ASSERT_TRUE(grouping.ok());
  // Group ids form a dense permutation-ready partition.
  size_t id_sum = 0;
  for (size_t g : grouping->group_ids) {
    ASSERT_LT(g, grouping->num_groups);
    ++id_sum;
  }
  EXPECT_EQ(id_sum, t->num_rows());

  // Per-group count, sum, min and max, one column each.
  const AggFunc funcs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                           AggFunc::kMax};
  std::vector<Bat> per_group;
  for (AggFunc f : funcs) {
    per_group.emplace_back(f == AggFunc::kCount ? DataType::kInt64
                                                : DataType::kDouble);
    ASSERT_TRUE(AggregateByGroup(*t->column(1), f,
                                 grouping->group_ids.data(), nullptr,
                                 t->num_rows(), grouping->num_groups,
                                 &per_group.back())
                    .ok());
  }
  auto global = AggregateAll(*t->column(1), nullptr);
  ASSERT_TRUE(global.ok());
  // Fold the groups; min/max compare as AggPartial::AddValue does, and a
  // group without non-null values contributes nothing.
  AggPartial merged;
  for (size_t g = 0; g < grouping->num_groups; ++g) {
    merged.count += per_group[0].Int64At(g);
    if (per_group[1].IsNull(g)) continue;
    merged.sum += per_group[1].DoubleAt(g);
    merged.min = std::min(merged.min, per_group[2].DoubleAt(g));
    merged.max = std::max(merged.max, per_group[3].DoubleAt(g));
  }
  EXPECT_EQ(merged.count, global->count);
  EXPECT_DOUBLE_EQ(merged.sum, global->sum);
  EXPECT_DOUBLE_EQ(merged.min, global->min);
  EXPECT_DOUBLE_EQ(merged.max, global->max);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggConsistencyTest,
                         ::testing::Values(31u, 32u, 33u));

// --- sorting is a permutation ---------------------------------------------

TEST(SortPropertyTest, OutputIsSortedPermutation) {
  Rng rng(41);
  auto t = std::make_shared<Table>("t", Schema({{"v", DataType::kInt64}}));
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(t->AppendRow({rng.Bernoulli(0.05)
                                  ? Value::Null()
                                  : Value::Int64(rng.Uniform(-50, 50))})
                    .ok());
  }
  auto perm = SortPositions(*t, {{0, true}});
  ASSERT_TRUE(perm.ok());
  std::vector<bool> seen(t->num_rows(), false);
  for (size_t p : *perm) {
    ASSERT_LT(p, t->num_rows());
    ASSERT_FALSE(seen[p]) << "duplicate position";
    seen[p] = true;
  }
  const Bat& col = *t->column(0);
  for (size_t i = 1; i < perm->size(); ++i) {
    Value prev = col.GetValue((*perm)[i - 1]);
    Value cur = col.GetValue((*perm)[i]);
    EXPECT_FALSE(cur < prev) << "not sorted at " << i;
  }
}

// --- every plan node on empty input ------------------------------------------

TEST(EmptyInputTest, AllOperatorsHandleEmptyInput) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  auto empty = std::make_shared<Table>("r", schema);
  PlanBindings bindings{{"r", empty}};
  auto col_a = Expr::Column(0, "a", DataType::kInt64);
  auto scan = *MakeScan("r", schema);

  std::vector<PlanPtr> plans;
  plans.push_back(scan);
  plans.push_back(*MakeFilter(
      scan, Expr::Binary(BinaryOp::kGt, col_a, Expr::Int(0))));
  plans.push_back(*MakeProject(scan, {col_a}, {"a"}));
  plans.push_back(*MakeHashJoin(scan, scan, 0, 0));
  AggSpec cnt;
  cnt.func = AggFunc::kCount;
  cnt.count_star = true;
  plans.push_back(*MakeAggregate(scan, {0}, {cnt}));
  plans.push_back(*MakeSort(scan, {{0, true}}));
  plans.push_back(*MakeDistinct(scan));
  plans.push_back(*MakeLimit(scan, 0, 10));
  plans.push_back(*MakeUnion(scan, scan));

  for (const PlanPtr& plan : plans) {
    auto result = ExecutePlan(*plan, bindings);
    ASSERT_TRUE(result.ok()) << plan->Describe();
    EXPECT_EQ((*result)->num_rows(), 0u) << plan->Describe();
  }
  // Scalar aggregate over empty input: exactly one row.
  auto scalar = *MakeAggregate(scan, {}, {cnt});
  auto result = ExecutePlan(*scalar, bindings);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 1u);
}

}  // namespace
}  // namespace datacell
