// The static analyzer (src/analysis): pass 1 plan/type checks, pass 2
// Petri-net dataflow lints, the registration gates in Engine and Factory,
// and the interval machinery behind the chain checks.
//
// The table-driven registration cases are the PR's contract: each row is an
// error class that used to surface only when the query first fired (or
// aborted the evaluator outright) and must now be rejected at
// SubmitContinuousQuery with a positioned message.

#include <gtest/gtest.h>

#include "algebra/kernels.h"
#include "analysis/diagnostic.h"
#include "analysis/interval.h"
#include "analysis/key_set.h"
#include "analysis/net_analyzer.h"
#include "analysis/partition_analyzer.h"
#include "analysis/plan_analyzer.h"
#include "analysis/state_analyzer.h"
#include "analysis/state_bound.h"
#include "core/engine.h"
#include "core/factory.h"
#include "core/shard.h"
#include "core/state_oracle.h"
#include "differential.h"

namespace datacell {
namespace {

EngineOptions Deterministic() {
  EngineOptions opts;
  opts.use_wall_clock = false;
  return opts;
}

Schema XNameSchema() {
  return Schema({{"x", DataType::kInt64}, {"name", DataType::kString}});
}

// --- registration-time SQL rejection (the bind/bind_post gate) --------------

struct RejectionCase {
  const char* label;
  const char* sql;
  // Every listed substring must appear in the rejection message. "at 1:"
  // asserts the diagnostic carries a source position.
  std::vector<const char*> expect;
};

class RegistrationRejectionTest
    : public ::testing::TestWithParam<RejectionCase> {};

TEST_P(RegistrationRejectionTest, RejectedAtSubmitWithPositionedMessage) {
  const RejectionCase& c = GetParam();
  Engine engine(Deterministic());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket s (x int, y double, name varchar)")
          .ok());
  auto q = engine.SubmitContinuousQuery(c.label, c.sql);
  ASSERT_FALSE(q.ok()) << c.label << ": accepted " << c.sql;
  // Type faults reject as TypeError; name-resolution faults as NotFound.
  EXPECT_TRUE(q.status().IsTypeError() ||
              q.status().code() == StatusCode::kNotFound)
      << c.label << ": " << q.status().ToString();
  for (const char* want : c.expect) {
    EXPECT_NE(q.status().message().find(want), std::string::npos)
        << c.label << ": expected '" << want << "' in\n  "
        << q.status().message();
  }
  // Rejection must leave no state behind: the same name resubmits cleanly.
  auto ok = engine.SubmitContinuousQuery(
      c.label, "select x from [select * from s] as t");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    ErrorClasses, RegistrationRejectionTest,
    ::testing::Values(
        // -- plain binder classes, now carrying positions ------------------
        RejectionCase{"arith_string",
                      "select x + name from [select * from s] as t",
                      {"arithmetic", "at 1:8"}},
        RejectionCase{"cmp_string_num",
                      "select x from [select * from s] as t "
                      "where t.name > 10",
                      {"compare", "at 1:"}},
        RejectionCase{"like_non_string",
                      "select x from [select * from s] as t "
                      "where t.x like 'a%'",
                      {"LIKE", "at 1:"}},
        RejectionCase{"not_non_bool",
                      "select x from [select * from s] as t where not t.x",
                      {"NOT", "at 1:"}},
        RejectionCase{"and_non_bool",
                      "select x from [select * from s] as t "
                      "where t.x and t.y > 1.0",
                      {"boolean", "at 1:"}},
        RejectionCase{"func_arg_type",
                      "select upper(x) from [select * from s] as t",
                      {"upper", "string"}},
        RejectionCase{"unknown_column",
                      "select missing from [select * from s] as t",
                      {"unknown column", "at 1:8"}},
        RejectionCase{"case_branch_mix",
                      "select case when x > 0 then name else y end "
                      "from [select * from s] as t",
                      {"CASE branches", "at 1:"}},
        // -- the bind_post hole: expressions rebuilt after the aggregate
        //    rewrite used to skip operand checks and fail at fire time ------
        RejectionCase{"agg_plus_string",
                      "select x, count(*) + 'x' from [select * from s] as t "
                      "group by x",
                      {"arithmetic", "at 1:"}},
        RejectionCase{"agg_cmp_string",
                      "select x from [select * from s] as t group by x "
                      "having count(*) > 'abc'",
                      {"compare", "at 1:"}},
        RejectionCase{"agg_logical",
                      "select x from [select * from s] as t group by x "
                      "having count(*) and count(*)",
                      {"boolean", "at 1:"}},
        RejectionCase{"agg_like",
                      "select x from [select * from s] as t group by x "
                      "having count(*) like 'x'",
                      {"LIKE", "at 1:"}},
        RejectionCase{"agg_not",
                      "select x from [select * from s] as t group by x "
                      "having not count(*)",
                      {"NOT", "at 1:"}},
        RejectionCase{"agg_func_arg",
                      "select x, upper(count(*)) from "
                      "[select * from s] as t group by x",
                      {"upper", "string"}},
        RejectionCase{"agg_string_input",
                      "select x, count(name) from [select * from s] as t "
                      "group by x",
                      {"aggregate", "name"}},
        RejectionCase{"having_non_bool",
                      "select x, count(*) from [select * from s] as t "
                      "group by x having count(*) + 1",
                      {"HAVING", "boolean"}}),
    [](const auto& info) { return std::string(info.param.label); });

// Sanity: the analyzer gate must not make registration stricter than the
// binder on healthy SQL.
TEST(RegistrationGateTest, AcceptsHealthyQueries) {
  Engine engine(Deterministic());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket s (x int, y double, name varchar)")
          .ok());
  const char* good[] = {
      "select x, y from [select * from s] as t where t.x > 3 and t.y < 1.5",
      "select x, sum(y), count(*) from [select * from s] as t group by x "
      "having count(*) > 1",
      "select upper(name), length(name) from [select * from s] as t "
      "where t.name like 'e%'",
      "select case when x > 0 then y else 0.0 end from "
      "[select * from s] as t",
  };
  int i = 0;
  for (const char* sql : good) {
    auto q = engine.SubmitContinuousQuery("g" + std::to_string(i++), sql);
    EXPECT_TRUE(q.ok()) << sql << "\n  " << q.status().ToString();
  }
}

// --- pass 1 over hand-built plans (the C++ registration surface) ------------

TEST(PlanAnalyzerTest, ColumnOutOfRangeIsP002) {
  auto scan = MakeScan("s", XNameSchema());
  ASSERT_TRUE(scan.ok());
  auto proj = MakeProject(
      *scan, {Expr::Column(5, "ghost", DataType::kInt64)}, {"ghost"});
  ASSERT_TRUE(proj.ok());  // builders trust declared types; analysis doesn't
  analysis::AnalysisReport report = analysis::AnalyzePlan(**proj);
  EXPECT_TRUE(report.Has(analysis::DiagCode::kColumnOutOfRange));
  EXPECT_NE(report.ToString().find("[P002]"), std::string::npos)
      << report.ToString();
  EXPECT_TRUE(report.ToStatus().IsTypeError());
}

TEST(PlanAnalyzerTest, DeclaredTypeDriftSeverityTracksStorageClass) {
  Schema in = XNameSchema();
  // int declared where the input is string: wrong BAT accessor -> error.
  analysis::AnalysisReport cross;
  analysis::CheckExpr(*Expr::Column(1, "name", DataType::kInt64), in, "Test",
                      &cross);
  EXPECT_EQ(cross.num_errors(), 1u);
  EXPECT_TRUE(cross.Has(analysis::DiagCode::kDeclaredTypeMismatch));
  // double declared where the input is int: numeric family, warning only.
  analysis::AnalysisReport drift;
  auto t = analysis::CheckExpr(*Expr::Column(0, "x", DataType::kDouble), in,
                               "Test", &drift);
  EXPECT_EQ(drift.num_errors(), 0u);
  EXPECT_EQ(drift.num_warnings(), 1u);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, DataType::kInt64);  // inference trusts the schema
}

TEST(PlanAnalyzerTest, AggregateInputTypeIsP017) {
  auto scan = MakeScan("s", XNameSchema());
  ASSERT_TRUE(scan.ok());
  AggSpec sum_string;
  sum_string.func = AggFunc::kSum;
  sum_string.input_column = 1;  // the string column
  sum_string.output_name = "t";
  // The builder checks ranges but not input types: this shape used to abort
  // the aggregate kernel at fire time. The analyzer is the only gate.
  auto bad_input = MakeAggregate(*scan, {0}, {sum_string});
  ASSERT_TRUE(bad_input.ok());
  analysis::AnalysisReport report = analysis::AnalyzePlan(**bad_input);
  EXPECT_TRUE(report.Has(analysis::DiagCode::kAggregateInputType));
  EXPECT_NE(report.ToString().find("[P017]"), std::string::npos)
      << report.ToString();
}

// Join keys and union shapes are validated by the plan builders themselves;
// the analyzer re-checks them only for plans that bypassed the builders.
// Assert the first line of defense holds so the analyzer's assumption (every
// built plan has in-range, type-consistent keys) stays true.
TEST(PlanBuilderTest, JoinAndUnionMalformationsRejectedAtBuild) {
  auto a = MakeScan("a", XNameSchema());
  auto b = MakeScan("b", Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(MakeHashJoin(*a, *b, 7, 0).ok());   // key out of range
  EXPECT_FALSE(MakeHashJoin(*a, *a, 0, 1).ok());   // int key vs string key
  EXPECT_FALSE(MakeUnion(*a, *b).ok());            // arity mismatch
  auto c = MakeScan("c", Schema({{"x", DataType::kString},
                                 {"name", DataType::kString}}));
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(MakeUnion(*a, *c).ok());            // column type mismatch
}

TEST(PlanAnalyzerTest, AcceptsWellTypedPlan) {
  auto scan = MakeScan("s", XNameSchema());
  ASSERT_TRUE(scan.ok());
  auto filter = MakeFilter(
      *scan, Expr::Binary(BinaryOp::kGt,
                          Expr::Column(0, "x", DataType::kInt64),
                          Expr::Int(3)));
  ASSERT_TRUE(filter.ok());
  analysis::AnalysisReport report = analysis::AnalyzePlan(**filter);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.ToStatus().ok());
  EXPECT_NE(report.ToString().find("no issues found"), std::string::npos);
}

// --- the Factory::Create gate (C++-built CompiledQuery) ---------------------

TEST(FactoryGateTest, BadConsumePredicateIsP003) {
  Engine engine(Deterministic());
  auto in = engine.CreateStream("s", XNameSchema());
  auto out = engine.CreateStream("out", XNameSchema());
  ASSERT_TRUE(in.ok() && out.ok());

  sql::CompiledQuery q;
  auto scan = MakeScan("s", (*in)->schema());
  ASSERT_TRUE(scan.ok());
  q.plan = *scan;
  q.output_schema = (*in)->schema();
  q.continuous = true;
  sql::ContinuousInput ci;
  ci.basket = "s";
  ci.bind_name = "s";
  ci.basket_schema = (*in)->schema();
  // Not boolean: previously only detected when the first drain selected on it.
  ci.consume_predicate = Expr::Column(0, "x", DataType::kInt64);
  q.inputs.push_back(ci);

  auto f = Factory::Create("bad", std::move(q), {*in}, *out, {},
                           &engine.clock(), {});
  ASSERT_FALSE(f.ok());
  EXPECT_TRUE(f.status().IsTypeError());
  EXPECT_NE(f.status().message().find("[P003]"), std::string::npos)
      << f.status().ToString();
}

TEST(FactoryGateTest, BrokenPlanRejectedWithDiagCode) {
  Engine engine(Deterministic());
  auto in = engine.CreateStream("s", XNameSchema());
  auto out = engine.CreateStream("out", XNameSchema());
  ASSERT_TRUE(in.ok() && out.ok());

  sql::CompiledQuery q;
  auto scan = MakeScan("s", (*in)->schema());
  ASSERT_TRUE(scan.ok());
  auto proj = MakeProject(
      *scan, {Expr::Column(17, "ghost", DataType::kInt64)}, {"ghost"});
  ASSERT_TRUE(proj.ok());
  q.plan = *proj;
  q.output_schema = Schema({{"ghost", DataType::kInt64}});
  q.continuous = true;
  sql::ContinuousInput ci;
  ci.basket = "s";
  ci.bind_name = "s";
  ci.basket_schema = (*in)->schema();
  q.inputs.push_back(ci);

  auto f = Factory::Create("bad", std::move(q), {*in}, *out, {},
                           &engine.clock(), {});
  ASSERT_FALSE(f.ok());
  EXPECT_NE(f.status().message().find("[P002]"), std::string::npos)
      << f.status().ToString();
}

// --- pass 2: Engine::Analyze over live nets ---------------------------------

TEST(NetAnalysisTest, OrphanBasketFlagged) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket lonely (x int)").ok());
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kOrphanBasket))
      << report.ToString();
}

TEST(NetAnalysisTest, HealthyPipelineIsClean) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "sel", "select x from [select * from r] as s where s.x > 3");
  ASSERT_TRUE(q.ok());
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_FALSE(report.Has(analysis::DiagCode::kOrphanBasket))
      << report.ToString();
}

TEST(NetAnalysisTest, DeadTransitionAfterUpstreamRemoval) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  auto q1 = engine.SubmitContinuousQuery(
      "stage1", "select x * 2 as x2 from [select * from r] as s");
  ASSERT_TRUE(q1.ok());
  auto q2 = engine.SubmitContinuousQuery(
      "stage2", "select x2 from [select * from stage1_out] as t");
  ASSERT_TRUE(q2.ok());
  EXPECT_FALSE(engine.Analyze().Has(analysis::DiagCode::kDeadTransition));

  // Remove the producer: stage2 still reads stage1_out, which nothing
  // feeds any more.
  ASSERT_TRUE(engine.RemoveContinuousQuery(*q1).ok());
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kDeadTransition))
      << report.ToString();
}

TEST(NetAnalysisTest, MultiReaderSharedBasketWarns) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  QueryOptions shared;
  shared.strategy = ProcessingStrategy::kSharedBaskets;
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "a", "select x from [select * from r] as s", shared)
                  .ok());
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "b", "select x from [select * from r] as s", shared)
                  .ok());
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kMultiReaderStealing))
      << report.ToString();
  EXPECT_EQ(report.num_errors(), 0u) << report.ToString();  // warning only
}

TEST(NetAnalysisTest, ChainedPredicateOverlapWarns) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  QueryOptions chained;
  chained.strategy = ProcessingStrategy::kChained;
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "c1", "select x from [select * from r where r.x > 10] "
                            "as s",
                      chained)
                  .ok());
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "c2", "select x from [select * from r where r.x > 5] "
                            "as s",
                      chained)
                  .ok());
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kChainPredicateOverlap))
      << report.ToString();
}

TEST(NetAnalysisTest, ChainedCoverageGapWarns) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  QueryOptions chained;
  chained.strategy = ProcessingStrategy::kChained;
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "lo", "select x from [select * from r where r.x < 5] "
                            "as s",
                      chained)
                  .ok());
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "hi", "select x from [select * from r where r.x > 10] "
                            "as s",
                      chained)
                  .ok());
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kChainCoverageGap))
      << report.ToString();
  EXPECT_FALSE(report.Has(analysis::DiagCode::kChainPredicateOverlap))
      << report.ToString();
}

TEST(NetAnalysisTest, DisjointCoveringChainIsClean) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  QueryOptions chained;
  chained.strategy = ProcessingStrategy::kChained;
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "lo", "select x from [select * from r where r.x < 5] "
                            "as s",
                      chained)
                  .ok());
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "hi", "select x from [select * from r where r.x >= 5] "
                            "as s",
                      chained)
                  .ok());
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_FALSE(report.Has(analysis::DiagCode::kChainPredicateOverlap))
      << report.ToString();
  EXPECT_FALSE(report.Has(analysis::DiagCode::kChainCoverageGap))
      << report.ToString();
}

// --- pass 2 on hand-built topologies (shapes the engine cannot produce) -----

TEST(NetTopologyTest, IllegalCycleDetected) {
  analysis::NetTopology net;
  net.places.push_back({"a", true, 1, false});
  net.places.push_back({"b", false, 1, false});
  net.transitions.push_back(
      {"fwd", analysis::NetNodeKind::kFactory, {"a"}, {"b"}});
  net.transitions.push_back(
      {"back", analysis::NetNodeKind::kFactory, {"b"}, {"a"}});
  analysis::AnalysisReport report = analysis::AnalyzeTopology(net);
  EXPECT_TRUE(report.Has(analysis::DiagCode::kIllegalCycle))
      << report.ToString();
}

TEST(NetTopologyTest, AcyclicPipelineHasNoCycleFinding) {
  analysis::NetTopology net;
  net.places.push_back({"a", true, 1, false});
  net.places.push_back({"b", false, 1, false});
  net.places.push_back({"c", false, 1, false});
  net.transitions.push_back(
      {"t1", analysis::NetNodeKind::kFactory, {"a"}, {"b"}});
  net.transitions.push_back(
      {"t2", analysis::NetNodeKind::kFactory, {"b"}, {"c"}});
  net.transitions.push_back(
      {"sink", analysis::NetNodeKind::kEmitter, {"c"}, {}});
  analysis::AnalysisReport report = analysis::AnalyzeTopology(net);
  EXPECT_FALSE(report.Has(analysis::DiagCode::kIllegalCycle))
      << report.ToString();
}

// --- the interval machinery behind N005/N006 --------------------------------

ExprPtr Col0() { return Expr::Column(0, "x", DataType::kInt64); }

TEST(IntervalSetTest, ModelsSimpleComparisons) {
  size_t col = 9;
  auto gt = analysis::IntervalSet::FromPredicate(
      *Expr::Binary(BinaryOp::kGt, Col0(), Expr::Int(10)), &col);
  ASSERT_TRUE(gt.has_value());
  EXPECT_EQ(col, 0u);
  EXPECT_FALSE(gt->Contains(10.0));
  EXPECT_TRUE(gt->Contains(10.5));

  auto le = analysis::IntervalSet::FromPredicate(
      *Expr::Binary(BinaryOp::kLe, Col0(), Expr::Int(10)), &col);
  ASSERT_TRUE(le.has_value());
  EXPECT_TRUE(le->Contains(10.0));
  EXPECT_FALSE(le->Contains(10.5));

  // gt and le partition the domain at 10.
  EXPECT_TRUE(gt->Intersect(*le).IsEmpty());
  EXPECT_TRUE(gt->Union(*le).IsAll());
}

TEST(IntervalSetTest, AndOrComplement) {
  size_t col = 0;
  // 5 < x and x < 10
  auto band = analysis::IntervalSet::FromPredicate(
      *Expr::And(Expr::Binary(BinaryOp::kGt, Col0(), Expr::Int(5)),
                 Expr::Binary(BinaryOp::kLt, Col0(), Expr::Int(10))),
      &col);
  ASSERT_TRUE(band.has_value());
  EXPECT_TRUE(band->Contains(7.0));
  EXPECT_FALSE(band->Contains(5.0));
  EXPECT_FALSE(band->Contains(12.0));
  analysis::IntervalSet outside = band->Complement();
  EXPECT_TRUE(outside.Contains(5.0));
  EXPECT_TRUE(outside.Contains(12.0));
  EXPECT_FALSE(outside.Contains(7.0));
  EXPECT_TRUE(band->Union(outside).IsAll());
}

// NOT and desugared BETWEEN (the parser rewrites `a between x and y` into
// `a >= x and a <= y`, and `not between` wraps that in kNot) must stay inside
// the interval fragment, including negative literal bounds (kNeg-wrapped).
TEST(IntervalSetTest, NotAndBetweenShapesStayInFragment) {
  struct Sample {
    double v;
    bool in;
  };
  struct Case {
    const char* label;
    ExprPtr pred;
    std::vector<Sample> samples;
  };
  auto ge = [](int64_t v) {
    return Expr::Binary(BinaryOp::kGe, Col0(), Expr::Int(v));
  };
  auto le = [](int64_t v) {
    return Expr::Binary(BinaryOp::kLe, Col0(), Expr::Int(v));
  };
  auto neg = [](int64_t v) {
    return Expr::Unary(UnaryOp::kNeg, Expr::Int(v));
  };
  const Case cases[] = {
      {"between",  // x between -5 and 5, desugared
       Expr::And(Expr::Binary(BinaryOp::kGe, Col0(), neg(5)), le(5)),
       {{-6.0, false}, {-5.0, true}, {0.0, true}, {5.0, true}, {5.5, false}}},
      {"not_between",
       Expr::Unary(UnaryOp::kNot,
                   Expr::And(Expr::Binary(BinaryOp::kGe, Col0(), neg(5)),
                             le(5))),
       {{-6.0, true}, {-5.0, false}, {0.0, false}, {5.0, false}, {6.0, true}}},
      {"not_gt",
       Expr::Unary(UnaryOp::kNot,
                   Expr::Binary(BinaryOp::kGt, Col0(), Expr::Int(3))),
       {{2.0, true}, {3.0, true}, {3.5, false}}},
      {"gt_negative_literal",
       Expr::Binary(BinaryOp::kGt, Col0(), neg(5)),
       {{-6.0, false}, {-5.0, false}, {-4.5, true}, {0.0, true}}},
      {"not_or",  // not (x < 0 or x > 10)  ==  [0, 10]
       Expr::Unary(
           UnaryOp::kNot,
           Expr::Binary(BinaryOp::kOr,
                        Expr::Binary(BinaryOp::kLt, Col0(), Expr::Int(0)),
                        Expr::Binary(BinaryOp::kGt, Col0(), Expr::Int(10)))),
       {{-0.5, false}, {0.0, true}, {10.0, true}, {10.5, false}}},
      {"double_not",
       Expr::Unary(UnaryOp::kNot,
                   Expr::Unary(UnaryOp::kNot,
                               Expr::Binary(BinaryOp::kGt, Col0(),
                                            Expr::Int(2)))),
       {{2.0, false}, {2.5, true}}},
  };
  for (const Case& c : cases) {
    size_t col = 0;
    auto set = analysis::IntervalSet::FromPredicate(*c.pred, &col);
    ASSERT_TRUE(set.has_value()) << c.label << ": fell out of the fragment";
    for (const Sample& s : c.samples) {
      EXPECT_EQ(set->Contains(s.v), s.in)
          << c.label << ": Contains(" << s.v << ")";
    }
  }
}

// The same shapes through the SQL chain lints: a BETWEEN band and its NOT
// complement are disjoint and covering, so a chained pair is clean.
TEST(NetAnalysisTest, ChainWithBetweenAndNotIsClean) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket r (x int)").ok());
  QueryOptions chained;
  chained.strategy = ProcessingStrategy::kChained;
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "band",
                      "select x from [select * from r where r.x between -5 "
                      "and 5] as s",
                      chained)
                  .ok());
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "rest",
                      "select x from [select * from r where r.x not between "
                      "-5 and 5] as s",
                      chained)
                  .ok());
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_FALSE(report.Has(analysis::DiagCode::kChainPredicateOverlap))
      << report.ToString();
  EXPECT_FALSE(report.Has(analysis::DiagCode::kChainCoverageGap))
      << report.ToString();
}

TEST(IntervalSetTest, OutOfFragmentShapesAreRejected) {
  size_t col = 0;
  // String comparison: not a numeric interval.
  EXPECT_FALSE(analysis::IntervalSet::FromPredicate(
                   *Expr::Eq(Expr::Column(1, "name", DataType::kString),
                             Expr::Str("a")),
                   &col)
                   .has_value());
  // Two different columns cannot fold into one axis.
  EXPECT_FALSE(analysis::IntervalSet::FromPredicate(
                   *Expr::Binary(BinaryOp::kGt, Col0(),
                                 Expr::Column(2, "y", DataType::kInt64)),
                   &col)
                   .has_value());
}

// --- pass 3: the KeyFlow lattice --------------------------------------------

TEST(KeyFlowTest, RequireKeyIsIdempotentAndConflictPins) {
  analysis::KeyFlow f = analysis::KeyFlow::StreamScan(0, 3);
  EXPECT_EQ(f.req, analysis::KeyFlow::Req::kAny);
  EXPECT_TRUE(f.has_stream);
  ASSERT_EQ(f.origins.size(), 3u);
  EXPECT_TRUE(f.origins[1].has_value());
  EXPECT_EQ(f.origins[1]->column, 1u);

  EXPECT_TRUE(f.RequireKey(0, 2));
  EXPECT_EQ(f.req, analysis::KeyFlow::Req::kKeyed);
  EXPECT_TRUE(f.RequireKey(0, 2));  // same column: fine
  EXPECT_FALSE(f.RequireKey(0, 1));  // different column: lattice bottom
  EXPECT_TRUE(f.pinned());
}

TEST(KeyFlowTest, CombineConstraintsUnionsAndDetectsConflicts) {
  analysis::KeyFlow a = analysis::KeyFlow::StreamScan(0, 2);
  analysis::KeyFlow b = analysis::KeyFlow::StreamScan(1, 2);
  ASSERT_TRUE(a.RequireKey(0, 0));
  ASSERT_TRUE(b.RequireKey(1, 1));
  ASSERT_TRUE(a.CombineConstraints(b));
  EXPECT_EQ(a.required.size(), 2u);
  EXPECT_EQ(a.required.at(1), 1u);
  EXPECT_EQ(a.stream_inputs.size(), 2u);

  // Same input required at two different columns across branches: pinned.
  analysis::KeyFlow c = analysis::KeyFlow::StreamScan(0, 2);
  ASSERT_TRUE(c.RequireKey(0, 1));
  EXPECT_FALSE(a.CombineConstraints(c));
  EXPECT_TRUE(a.pinned());

  // Static relations and broadcast inputs union through combination.
  analysis::KeyFlow s = analysis::KeyFlow::StaticScan("dims", 2);
  EXPECT_FALSE(s.has_stream);
  analysis::KeyFlow d = analysis::KeyFlow::StreamScan(0, 2);
  ASSERT_TRUE(d.CombineConstraints(s));
  ASSERT_EQ(d.static_relations.size(), 1u);
  EXPECT_EQ(d.static_relations[0], "dims");
}

// --- pass 3: partition verdicts on registered queries -----------------------

// Registers `sql` against an engine where `ddl` ran first and returns the
// stored partition report (never null for a live query).
std::shared_ptr<const analysis::PartitionReport> Classify(
    Engine& engine, const std::string& name, const std::string& sql,
    const QueryOptions& opts = {}) {
  auto q = engine.SubmitContinuousQuery(name, sql, opts);
  if (!q.ok()) {
    ADD_FAILURE() << name << ": " << q.status().ToString();
    return nullptr;
  }
  auto info = engine.GetQuery(*q);
  if (!info.ok() || (*info)->partition == nullptr) {
    ADD_FAILURE() << name << ": no partition report attached";
    return nullptr;
  }
  return (*info)->partition;
}

TEST(PartitionAnalysisTest, FilterProjectPreservesDeclaredKey) {
  Engine engine(Deterministic());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket r (id int, temp double) partition by id")
          .ok());
  auto rep = Classify(engine, "hot",
                      "select id, temp from [select * from r] as s "
                      "where s.temp > 30.0");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->verdict, analysis::PartitionVerdict::kPartitionable);
  EXPECT_EQ(rep->merge, analysis::MergeKind::kNone);
  ASSERT_EQ(rep->inputs.size(), 1u);
  EXPECT_EQ(rep->inputs[0].kind, analysis::ShardKeyKind::kHash);
  EXPECT_EQ(rep->inputs[0].key_name, "id");
  EXPECT_TRUE(rep->inputs[0].declared);
  // The key survives the projection and the output stream inherits it.
  ASSERT_TRUE(rep->output_key_column.has_value());
  EXPECT_EQ(rep->output_key_name, "id");
  analysis::PartitionKeyMap keys = engine.DeclaredPartitionKeys();
  ASSERT_EQ(keys.count("hot_out"), 1u);
  EXPECT_EQ(keys["hot_out"], 0u);
}

TEST(PartitionAnalysisTest, GroupByOnDeclaredKeyNeedsNoMerge) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket t (sym varchar, qty int) "
                              "partition by sym")
                  .ok());
  auto rep = Classify(engine, "per_sym",
                      "select sym, sum(qty) as total from "
                      "[select * from t] as x group by sym");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->verdict, analysis::PartitionVerdict::kPartitionable);
  EXPECT_EQ(rep->merge, analysis::MergeKind::kNone);
  EXPECT_EQ(rep->output_key_name, "sym");
}

TEST(PartitionAnalysisTest, GroupByOffKeyPrescribesReshuffle) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket t (sym varchar, qty int) "
                              "partition by sym")
                  .ok());
  auto rep = Classify(engine, "by_qty",
                      "select qty, count(*) as n from [select * from t] as x "
                      "group by qty");
  ASSERT_NE(rep, nullptr);
  // Still partitionable -- on the grouping column, not the declared key.
  EXPECT_EQ(rep->verdict, analysis::PartitionVerdict::kPartitionable);
  ASSERT_EQ(rep->inputs.size(), 1u);
  EXPECT_EQ(rep->inputs[0].key_name, "qty");
  EXPECT_FALSE(rep->inputs[0].declared);
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kReshuffleRequired))
      << report.ToString();
  EXPECT_EQ(report.num_errors(), 0u);  // pass 3 is advisory
}

TEST(PartitionAnalysisTest, CoPartitionedJoinKeysBothInputs) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket bids (sym varchar, px double) "
                              "partition by sym")
                  .ok());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket asks (sym varchar, px double) "
                              "partition by sym")
                  .ok());
  auto rep = Classify(engine, "spread",
                      "select b.sym, b.px - a.px as gap from "
                      "[select * from bids] as b join [select * from asks] "
                      "as a on b.sym = a.sym");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->verdict, analysis::PartitionVerdict::kPartitionable);
  ASSERT_EQ(rep->inputs.size(), 2u);
  for (const analysis::ShardKey& k : rep->inputs) {
    EXPECT_EQ(k.kind, analysis::ShardKeyKind::kHash);
    EXPECT_EQ(k.key_name, "sym");
    EXPECT_TRUE(k.declared);
  }
  EXPECT_EQ(rep->output_key_name, "sym");
}

TEST(PartitionAnalysisTest, StaticJoinSideBecomesBroadcast) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket t (sym varchar, px double) "
                              "partition by sym")
                  .ok());
  ASSERT_TRUE(
      engine.ExecuteSql("create table dims (sym varchar, sector varchar)")
          .ok());
  auto rep = Classify(engine, "sectors",
                      "select t.sym, d.sector from [select * from t] as t "
                      "join dims as d on t.sym = d.sym");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->verdict, analysis::PartitionVerdict::kNeedsBroadcast);
  ASSERT_EQ(rep->broadcast_relations.size(), 1u);
  EXPECT_EQ(rep->broadcast_relations[0], "dims");
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kBroadcastJoinInput))
      << report.ToString();
}

TEST(PartitionAnalysisTest, ScalarAvgDecomposesIntoSumCountPartials) {
  Engine engine(Deterministic());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket r (id int, temp double) partition by id")
          .ok());
  auto rep = Classify(engine, "mean",
                      "select avg(temp) as mean from [select * from r] as s");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->verdict, analysis::PartitionVerdict::kNeedsFinalMerge);
  EXPECT_EQ(rep->merge, analysis::MergeKind::kReaggregate);
  ASSERT_NE(rep->partial_plan, nullptr);
  ASSERT_NE(rep->merge_plan, nullptr);
  // avg decomposes: the per-shard partial carries a sum and a count.
  EXPECT_EQ(rep->partial_plan->output_schema().num_fields(), 2u);
  // The merge plan reconstructs the query's output schema exactly.
  EXPECT_EQ(rep->merge_plan->output_schema().num_fields(), 1u);
  EXPECT_EQ(rep->merge_plan->output_schema().field(0).name, "mean");
  EXPECT_EQ(rep->merge_plan->output_schema().field(0).type,
            DataType::kDouble);
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kScalarAggMerge))
      << report.ToString();
}

TEST(PartitionAnalysisTest, OrderedEmitNeedsOrderedMerge) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket s (player varchar, pts double) "
                              "partition by player")
                  .ok());
  auto rep = Classify(engine, "ranked",
                      "select player, pts from [select * from s] as x "
                      "order by pts desc limit 10");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->verdict, analysis::PartitionVerdict::kNeedsFinalMerge);
  EXPECT_EQ(rep->merge, analysis::MergeKind::kOrderedMerge);
  ASSERT_NE(rep->partial_plan, nullptr);
  ASSERT_NE(rep->merge_plan, nullptr);
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kOrderedMergeRequired))
      << report.ToString();
}

TEST(PartitionAnalysisTest, PinnedShapes) {
  Engine engine(Deterministic());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket r (x int, y double) partition by x")
          .ok());
  // Count-based window: firing depends on global arrival order.
  auto wnd = Classify(engine, "wnd",
                      "select sum(x) as s from [select * from r] as t "
                      "window size 10");
  ASSERT_NE(wnd, nullptr);
  EXPECT_EQ(wnd->verdict, analysis::PartitionVerdict::kPinned);
  EXPECT_NE(wnd->pinned_reason.find("arrival order"), std::string::npos)
      << wnd->pinned_reason;

  // LIMIT without ORDER BY: "first n seen" is arrival-order dependent.
  Engine e2(Deterministic());
  ASSERT_TRUE(
      e2.ExecuteSql("create basket r (x int, y double) partition by x").ok());
  auto lim = Classify(e2, "lim",
                      "select x from [select * from r] as t limit 5");
  ASSERT_NE(lim, nullptr);
  EXPECT_EQ(lim->verdict, analysis::PartitionVerdict::kPinned);

  // DISTINCT over computed values: no input column witnesses the key.
  Engine e3(Deterministic());
  ASSERT_TRUE(
      e3.ExecuteSql("create basket r (x int, y double) partition by x").ok());
  auto dis = Classify(e3, "dis",
                      "select distinct x / 2 as bucket from "
                      "[select * from r] as t");
  ASSERT_NE(dis, nullptr);
  EXPECT_EQ(dis->verdict, analysis::PartitionVerdict::kPinned);
  EXPECT_NE(dis->pinned_reason.find("DISTINCT"), std::string::npos);
}

TEST(PartitionAnalysisTest, DistinctOverPlainColumnRequiresItAsKey) {
  Engine engine(Deterministic());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket r (x int, kind varchar) partition by x")
          .ok());
  auto rep = Classify(engine, "kinds",
                      "select distinct kind from [select * from r] as t");
  ASSERT_NE(rep, nullptr);
  // Splitting on `kind` co-locates duplicates, so DISTINCT decomposes.
  EXPECT_EQ(rep->verdict, analysis::PartitionVerdict::kPartitionable);
  ASSERT_EQ(rep->inputs.size(), 1u);
  EXPECT_EQ(rep->inputs[0].key_name, "kind");
  EXPECT_FALSE(rep->inputs[0].declared);
}

TEST(PartitionAnalysisTest, TimeWindowAggregateMergesPerWindow) {
  Engine engine(Deterministic());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket r (x int) partition by x").ok());
  auto rep = Classify(engine, "win",
                      "select sum(x) as s from [select * from r] as t "
                      "window range 10 seconds");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->verdict, analysis::PartitionVerdict::kNeedsFinalMerge);
  EXPECT_TRUE(rep->merge_per_window);
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kWindowMergeRequired))
      << report.ToString();
}

TEST(PartitionAnalysisTest, OneTimeQueryIsPinned) {
  auto scan = MakeScan("t", XNameSchema());
  ASSERT_TRUE(scan.ok());
  sql::CompiledQuery q;
  q.plan = *scan;
  q.output_schema = XNameSchema();
  q.continuous = false;
  analysis::AnalysisReport diags;
  auto rep = analysis::AnalyzePartitioning(q, {}, &diags);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->verdict, analysis::PartitionVerdict::kPinned);
  EXPECT_NE(rep->pinned_reason.find("one-time"), std::string::npos);
  EXPECT_EQ(diags.num_warnings(), 0u);  // not worth an A007 for one-shots
}

// --- pass 3 wiring: DDL, inheritance, live overrides, metrics ---------------

TEST(PartitionDdlTest, PartitionByParsesValidatesAndRoundTrips) {
  Engine engine(Deterministic());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket r (id int, temp double) partition by id")
          .ok());
  analysis::PartitionKeyMap keys = engine.DeclaredPartitionKeys();
  ASSERT_EQ(keys.count("r"), 1u);
  EXPECT_EQ(keys["r"], 0u);

  // Unknown column: rejected, and the stream must not be left behind.
  auto bad =
      engine.ExecuteSql("create basket b (x int) partition by missing");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("missing"), std::string::npos);
  EXPECT_TRUE(engine.ExecuteSql("create basket b (x int)").ok());

  // Tables are static: no partition clause.
  EXPECT_FALSE(
      engine.ExecuteSql("create table t (x int) partition by x").ok());

  // The catalog dump round-trips the clause.
  std::string dump = engine.DumpCatalogSql();
  EXPECT_NE(dump.find("partition by id"), std::string::npos) << dump;
  Engine replay(Deterministic());
  ASSERT_TRUE(replay.ExecuteScript(dump).ok()) << dump;
  EXPECT_EQ(replay.DeclaredPartitionKeys().count("r"), 1u);
}

TEST(PartitionAnalysisTest, MultiReaderOverridePinsEffectiveVerdict) {
  Engine engine(Deterministic());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket r (x int) partition by x").ok());
  QueryOptions shared;
  shared.strategy = ProcessingStrategy::kSharedBaskets;
  auto a = engine.SubmitContinuousQuery(
      "a", "select x from [select * from r] as s", shared);
  ASSERT_TRUE(a.ok());
  auto ia = engine.GetQuery(*a);
  ASSERT_TRUE(ia.ok());
  // Single reader: static and effective verdicts agree.
  EXPECT_EQ(engine.EffectivePartitionVerdict(**ia),
            analysis::PartitionVerdict::kPartitionable);

  auto b = engine.SubmitContinuousQuery(
      "b", "select x from [select * from r] as s", shared);
  ASSERT_TRUE(b.ok());
  // Now both queries share the basket (the N004 shape): statically still
  // partitionable, effectively pinned.
  ia = engine.GetQuery(*a);
  ASSERT_TRUE(ia.ok());
  EXPECT_EQ((*ia)->partition->verdict,
            analysis::PartitionVerdict::kPartitionable);
  std::string reason;
  EXPECT_EQ(engine.EffectivePartitionVerdict(**ia, &reason),
            analysis::PartitionVerdict::kPinned);
  EXPECT_NE(reason.find("multiple readers"), std::string::npos) << reason;
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kPinnedQuery))
      << report.ToString();
}

TEST(PartitionAnalysisTest, GaugesCountPartitionableQueries) {
  Engine engine(Deterministic());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket r (x int) partition by x").ok());
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "p", "select x from [select * from r] as s")
                  .ok());
  ASSERT_TRUE(
      engine.ExecuteSql("create basket r2 (x int) partition by x").ok());
  ASSERT_TRUE(engine
                  .SubmitContinuousQuery(
                      "pin", "select x from [select * from r2] as s limit 3")
                  .ok());
  std::string text = engine.MetricsText();
  EXPECT_NE(text.find("datacell_partitionable_queries 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("datacell_shardable_queries 1"), std::string::npos)
      << text;
}

// --- pass 3 soundness: the recipes run on a ShardedEngine -------------------

/// Runs `s` through the differential harness: each ShardedEngine
/// configuration executes the pass-3 recipe for real and must deliver the
/// single-engine reference's rows.
void ExpectShardedMatchesReference(const differential::Scenario& s) {
  differential::Report r = differential::Run(s);
  EXPECT_TRUE(r.ok()) << r.ToString();
  for (const char* c : {"shards=2", "shards=4"}) {
    EXPECT_TRUE(r.Ran(c)) << c << "\n" << r.ToString();
  }
  EXPECT_GT(r.total_rows(), 0u);
}

TEST(SplitMergeOracleTest, PartitionableFilterIsEquivalent) {
  differential::Scenario s;
  s.Setup("create basket r (id int, temp double) partition by id");
  s.AddQuery("hot", "select id, temp from [select * from r] as s "
                    "where s.temp > 25.0");
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({Value::Int64(i % 7), Value::Double(20.0 + i % 13)});
  }
  s.Ingest("r", rows);
  ExpectShardedMatchesReference(s);
}

TEST(SplitMergeOracleTest, KeyedGroupByIsEquivalent) {
  differential::Scenario s;
  s.Setup("create basket t (sym varchar, qty int) partition by sym");
  s.AddQuery("per_sym", "select sym, sum(qty) as total, count(*) as n from "
                        "[select * from t] as x group by sym");
  const char* syms[] = {"AAA", "BBB", "CCC", "DDD"};
  std::vector<Row> rows;
  for (int i = 0; i < 32; ++i) {
    rows.push_back({Value::String(syms[i % 4]), Value::Int64(i)});
  }
  s.Ingest("t", rows);
  ExpectShardedMatchesReference(s);
}

TEST(SplitMergeOracleTest, AvgReaggregationIsEquivalent) {
  differential::Scenario s;
  s.Setup("create basket r (id int, temp double) partition by id");
  s.AddQuery("mean", "select avg(temp) as mean, count(*) as n, min(temp) as "
                     "lo, max(temp) as hi from [select * from r] as s");
  std::vector<Row> rows;
  for (int i = 0; i < 25; ++i) {
    rows.push_back({Value::Int64(i), Value::Double(0.1 * i - 1.0)});
  }
  s.Ingest("r", rows);
  ExpectShardedMatchesReference(s);
}

TEST(SplitMergeOracleTest, CoPartitionedJoinWithForeignGroupBy) {
  differential::Scenario s;
  s.Setup("create basket o (sym varchar, qty int) partition by sym");
  s.Setup("create basket q (sym varchar, bid double) partition by sym");
  s.AddQuery("depth",
             "select q.bid, sum(o.qty) as vol from [select * from o] as o "
             "join [select * from q] as q on o.sym = q.sym group by q.bid");
  const char* syms[] = {"AAA", "BBB", "CCC"};
  std::vector<Row> orders, quotes;
  for (int i = 0; i < 18; ++i) {
    orders.push_back({Value::String(syms[i % 3]), Value::Int64(1 + i % 5)});
  }
  for (int i = 0; i < 9; ++i) {
    quotes.push_back({Value::String(syms[i % 3]), Value::Double(10.0 + i % 2)});
  }
  s.Ingest("o", orders);
  s.Ingest("q", quotes);
  s.inspect = [](const differential::Instance& inst, size_t) {
    if (inst.config.name != "reference") return;
    EXPECT_EQ((*inst.engine->GetQuery(inst.queries[0]))->partition->verdict,
              analysis::PartitionVerdict::kNeedsFinalMerge);
  };
  ExpectShardedMatchesReference(s);
}

TEST(SplitMergeOracleTest, BroadcastJoinIsEquivalent) {
  differential::Scenario s;
  s.Setup("create basket t (sym varchar, px double) partition by sym");
  s.Setup("create table dims (sym varchar, sector varchar)");
  s.Setup("insert into dims values ('AAA', 'tech'), ('BBB', 'energy')");
  s.AddQuery("sectors", "select t.sym, d.sector from [select * from t] as t "
                        "join dims as d on t.sym = d.sym");
  const char* syms[] = {"AAA", "BBB", "ZZZ"};  // ZZZ has no dim row
  std::vector<Row> rows;
  for (int i = 0; i < 15; ++i) {
    rows.push_back({Value::String(syms[i % 3]), Value::Double(1.0 * i)});
  }
  s.Ingest("t", rows);
  ExpectShardedMatchesReference(s);
}

TEST(SplitMergeOracleTest, OrderedMergeIsEquivalent) {
  differential::Scenario s;
  s.Setup("create basket s (player varchar, pts double) partition by player");
  s.AddQuery("ranked", "select player, pts from [select * from s] as x "
                       "order by pts desc limit 8");
  std::vector<Row> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({Value::String("p" + std::to_string(i)),
                    Value::Double(i % 11 * 1.5)});
  }
  s.Ingest("s", rows);
  ExpectShardedMatchesReference(s);
}

// --- pass 4: the state-bound lattice ----------------------------------------

TEST(StateBoundLatticeTest, SumJoinsKindsAndAddsBytes) {
  using analysis::StateBound;
  using analysis::StateBoundKind;
  StateBound c = StateBound::Constant(8, "counter");
  StateBound w = StateBound::Window(3200, false, "100 rows x 32 B");
  StateBound s = StateBound::Sum(c, w);
  EXPECT_EQ(s.kind, StateBoundKind::kWindowBounded);
  EXPECT_TRUE(s.numeric());
  EXPECT_EQ(s.bytes, 3208);

  StateBound k = StateBound::Key(1000, false, "hinted keys");
  EXPECT_EQ(StateBound::Sum(w, k).kind, StateBoundKind::kKeyBounded);
  EXPECT_EQ(StateBound::Sum(w, k).bytes, 4200);

  StateBound u = StateBound::Unbounded("join history");
  StateBound su = StateBound::Sum(k, u);
  EXPECT_EQ(su.kind, StateBoundKind::kUnbounded);
  EXPECT_FALSE(su.numeric());
}

TEST(StateBoundLatticeTest, SymbolicTaintsAndScalesDoNot) {
  using analysis::StateBound;
  using analysis::StateBoundKind;
  StateBound t = StateBound::Window(0, true, "time window");
  StateBound w = StateBound::Window(3200, false, "count window");
  StateBound s = StateBound::Sum(t, w);
  EXPECT_EQ(s.kind, StateBoundKind::kWindowBounded);
  EXPECT_TRUE(s.symbolic);
  EXPECT_FALSE(s.numeric());

  StateBound scaled = w.Scaled(4);
  EXPECT_EQ(scaled.bytes, 12800);
  EXPECT_TRUE(scaled.numeric());
  // Scaling a symbolic bound keeps it symbolic rather than inventing bytes.
  EXPECT_FALSE(t.Scaled(4).numeric());

  EXPECT_NE(w.ToString().find("window-bounded (3200 B)"), std::string::npos)
      << w.ToString();
  EXPECT_NE(StateBound::Unbounded("x").ToString().find("unbounded"),
            std::string::npos);
}

// --- pass 4: bound classes per query shape ----------------------------------

// Registers `sql` after `ddl` and checks the attached StateReport's class
// plus the S-code Engine::Analyze() re-derives.
struct BoundCase {
  const char* label;
  const char* ddl;
  const char* sql;
  analysis::StateBoundKind kind;
  bool numeric;
  // Expected S-code in Analyze() output; kStateBoundNote always fires, so
  // cases without a specific code assert just that.
  analysis::DiagCode code;
};

class StateBoundClassTest : public ::testing::TestWithParam<BoundCase> {};

TEST_P(StateBoundClassTest, BoundClassAndDiagnostics) {
  const BoundCase& c = GetParam();
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteScript(c.ddl).ok()) << c.ddl;
  auto q = engine.SubmitContinuousQuery(c.label, c.sql);
  ASSERT_TRUE(q.ok()) << c.label << ": " << q.status().ToString();
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  ASSERT_NE((*info)->state, nullptr) << c.label;
  const analysis::StateReport& state = *(*info)->state;
  EXPECT_EQ(state.total.kind, c.kind)
      << c.label << ": " << state.total.ToString();
  EXPECT_EQ(state.total.numeric(), c.numeric)
      << c.label << ": " << state.total.ToString();
  if (c.numeric) EXPECT_GT(state.total.bytes, 0) << c.label;
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(c.code)) << c.label << ":\n" << report.ToString();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kStateBoundNote))
      << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    BoundClasses, StateBoundClassTest,
    ::testing::Values(
        BoundCase{"scalar_agg",
                  "create basket s (x int, y double)",
                  "select avg(y) as m, count(*) as n from "
                  "[select * from s] as t",
                  analysis::StateBoundKind::kConstant, true,
                  analysis::DiagCode::kStateBoundNote},
        BoundCase{"limit_counter",
                  "create basket s (x int, y double)",
                  "select x from [select * from s] as t limit 5",
                  analysis::StateBoundKind::kConstant, true,
                  analysis::DiagCode::kStateBoundNote},
        BoundCase{"count_window",
                  "create basket s (x int, y double)",
                  "select sum(y) as burst from [select * from s] as t "
                  "window size 100",
                  analysis::StateBoundKind::kWindowBounded, true,
                  analysis::DiagCode::kWindowStateBound},
        BoundCase{"sliding_count_window",
                  "create basket s (x int, y double)",
                  "select sum(y) as burst from [select * from s] as t "
                  "window size 10 slide 3",
                  analysis::StateBoundKind::kWindowBounded, true,
                  analysis::DiagCode::kWindowStateBound},
        BoundCase{"time_window_symbolic",
                  "create basket s (x int, y double)",
                  "select sum(y) as burst from [select * from s] as t "
                  "window range 10 seconds",
                  analysis::StateBoundKind::kWindowBounded, false,
                  analysis::DiagCode::kWindowStateBound},
        BoundCase{"hinted_group_by",
                  "create basket s (sym varchar, qty int) "
                  "with (cardinality(sym) = 64)",
                  "select sym, sum(qty) as total from "
                  "[select * from s] as t group by sym",
                  analysis::StateBoundKind::kKeyBounded, true,
                  analysis::DiagCode::kCardinalityHintUsed},
        BoundCase{"unhinted_group_by",
                  "create basket s (sym varchar, qty int)",
                  "select sym, sum(qty) as total from "
                  "[select * from s] as t group by sym",
                  analysis::StateBoundKind::kUnbounded, false,
                  analysis::DiagCode::kUnboundedKeyState},
        BoundCase{"unhinted_distinct",
                  "create basket s (sym varchar, qty int)",
                  "select distinct sym from [select * from s] as t",
                  analysis::StateBoundKind::kUnbounded, false,
                  analysis::DiagCode::kUnboundedKeyState},
        BoundCase{"hinted_distinct",
                  "create basket s (sym varchar, qty int) "
                  "with (cardinality(sym) = 8)",
                  "select distinct sym from [select * from s] as t",
                  analysis::StateBoundKind::kKeyBounded, true,
                  analysis::DiagCode::kCardinalityHintUsed},
        BoundCase{"stream_stream_join",
                  "create basket a (k int, v double);"
                  "create basket b (k int, w double)",
                  "select x.v, y.w from [select * from a] as x join "
                  "[select * from b] as y on x.k = y.k",
                  analysis::StateBoundKind::kUnbounded, false,
                  analysis::DiagCode::kUnboundedJoinState},
        BoundCase{"static_join_build",
                  "create basket s (k int, v double);"
                  "create table dims (k int, label varchar);"
                  "insert into dims values (1, 'a'), (2, 'b')",
                  "select t.v, d.label from [select * from s] as t "
                  "join dims as d on t.k = d.k",
                  analysis::StateBoundKind::kKeyBounded, true,
                  analysis::DiagCode::kStateBoundNote}),
    [](const auto& info) { return std::string(info.param.label); });

// Windowed group-by on hinted keys stays bounded by the window even without
// a hint (per-window keys <= per-window rows).
TEST(StateAnalyzerTest, WindowedGroupByIsWindowBounded) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket s (sym varchar, qty int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "wg", "select sym, sum(qty) as total from [select * from s] as t "
            "group by sym window size 50");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->state->total.kind,
            analysis::StateBoundKind::kWindowBounded)
      << (*info)->state->total.ToString();
}

TEST(StateAnalyzerTest, ShardCopiesMultiplyNumericBounds) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int, y double)").ok());
  auto q = engine.SubmitContinuousQuery(
      "w", "select sum(y) as b from [select * from s] as t window size 100");
  ASSERT_TRUE(q.ok());
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  const sql::CompiledQuery& cq = (*info)->factory->query();

  analysis::StateAnalyzerOptions one;
  analysis::AnalysisReport r1;
  auto b1 = analysis::AnalyzeStateBounds(cq, {}, one, &r1);
  ASSERT_TRUE(b1.ok());

  analysis::StateAnalyzerOptions four = one;
  four.shard_copies = 4;
  analysis::AnalysisReport r4;
  auto b4 = analysis::AnalyzeStateBounds(cq, {}, four, &r4);
  ASSERT_TRUE(b4.ok());
  EXPECT_EQ(b4->total.bytes, 4 * b1->total.bytes);
  EXPECT_EQ(b4->shard_copies, 4u);
  EXPECT_TRUE(r4.Has(analysis::DiagCode::kShardStateMultiplied))
      << r4.ToString();
  EXPECT_FALSE(r1.Has(analysis::DiagCode::kShardStateMultiplied));
}

TEST(StateAnalyzerTest, SharedBasketRetentionIsS006) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int)").ok());
  QueryOptions shared;
  shared.strategy = ProcessingStrategy::kSharedBaskets;
  auto q1 = engine.SubmitContinuousQuery(
      "r1", "select x from [select * from s] as t where t.x > 1", shared);
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  auto q2 = engine.SubmitContinuousQuery(
      "r2", "select x from [select * from s] as t where t.x < 0", shared);
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  analysis::AnalysisReport report = engine.Analyze();
  EXPECT_TRUE(report.Has(analysis::DiagCode::kBasketRetention))
      << report.ToString();
}

// --- pass 4: the admission gate ---------------------------------------------

TEST(StateAdmissionTest, UnboundedJoinRejectedWithNoStateLeft) {
  EngineOptions opts = Deterministic();
  opts.max_query_state_bytes = 1 << 20;
  Engine engine(opts);
  ASSERT_TRUE(engine
                  .ExecuteScript("create basket a (k int, v double);"
                                 "create basket b (k int, w double);")
                  .ok());
  auto q = engine.SubmitContinuousQuery(
      "joined", "select x.v, y.w from [select * from a] as x join "
                "[select * from b] as y on x.k = y.k");
  ASSERT_FALSE(q.ok());
  EXPECT_TRUE(q.status().IsTypeError()) << q.status().ToString();
  for (const char* want : {"[S007]", "state-bound-exceeded", "unbounded",
                           "max_query_state_bytes", "at 1:"}) {
    EXPECT_NE(q.status().message().find(want), std::string::npos)
        << "expected '" << want << "' in\n" << q.status().message();
  }
  // No state left behind: the same name registers a bounded query cleanly
  // (a leaked 'joined_out' stream would collide here).
  auto ok = engine.SubmitContinuousQuery(
      "joined", "select avg(v) as m from [select * from a] as x");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(StateAdmissionTest, WarnPolicyAdmitsUnboundedQueries) {
  EngineOptions opts = Deterministic();
  opts.max_query_state_bytes = 1 << 20;
  opts.state_bound_policy = StateBoundPolicy::kWarn;
  Engine engine(opts);
  ASSERT_TRUE(engine
                  .ExecuteScript("create basket a (k int, v double);"
                                 "create basket b (k int, w double);")
                  .ok());
  auto q = engine.SubmitContinuousQuery(
      "joined", "select x.v, y.w from [select * from a] as x join "
                "[select * from b] as y on x.k = y.k");
  EXPECT_TRUE(q.ok()) << q.status().ToString();
}

TEST(StateAdmissionTest, ByteCapRejectsOversizedWindow) {
  EngineOptions opts = Deterministic();
  opts.max_query_state_bytes = 256;  // a 1000-row window cannot fit
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int, y double)").ok());
  auto q = engine.SubmitContinuousQuery(
      "big", "select sum(y) as b from [select * from s] as t "
             "window size 1000");
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("max_query_state_bytes"),
            std::string::npos)
      << q.status().message();
  // A window that fits the cap still registers.
  auto ok = engine.SubmitContinuousQuery(
      "small", "select sum(y) as b from [select * from s] as t "
               "window size 2");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(StateAdmissionTest, EngineCapSumsLiveQueries) {
  EngineOptions opts = Deterministic();
  // Each 100-row window bounds to ~4.8 KB; one fits, the second busts it.
  opts.max_engine_state_bytes = 8192;
  Engine engine(opts);
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int, y double)").ok());
  auto q1 = engine.SubmitContinuousQuery(
      "w1", "select sum(y) as b from [select * from s] as t window size 100");
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  auto q2 = engine.SubmitContinuousQuery(
      "w2", "select sum(y) as b from [select * from s] as t window size 100");
  ASSERT_FALSE(q2.ok());
  for (const char* want : {"[S008]", "max_engine_state_bytes"}) {
    EXPECT_NE(q2.status().message().find(want), std::string::npos)
        << "expected '" << want << "' in\n" << q2.status().message();
  }
}

// --- cardinality hint DDL ---------------------------------------------------

TEST(CardinalityHintTest, ParsesRegistersAndRoundTrips) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket trades (sym varchar, qty int) "
                              "partition by sym "
                              "with (cardinality(sym) = 100)")
                  .ok());
  analysis::CardinalityMap hints = engine.DeclaredCardinalities();
  ASSERT_EQ(hints.count("trades"), 1u);
  EXPECT_EQ(hints["trades"][0], 100);

  std::string dump = engine.DumpCatalogSql();
  EXPECT_NE(dump.find("with (cardinality(sym) = 100)"), std::string::npos)
      << dump;
  // The dump re-executes: the hint survives a catalog round trip.
  Engine clone(Deterministic());
  ASSERT_TRUE(clone.ExecuteScript(dump).ok()) << dump;
  EXPECT_EQ(clone.DeclaredCardinalities()["trades"][0], 100);
}

TEST(CardinalityHintTest, MultipleHintsAndLateDeclaration) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket t (a varchar, b int, c int) "
                              "with (cardinality(a) = 10, "
                              "cardinality(b) = 20)")
                  .ok());
  analysis::CardinalityMap hints = engine.DeclaredCardinalities();
  EXPECT_EQ(hints["t"][0], 10);
  EXPECT_EQ(hints["t"][1], 20);
  // The C++ surface can add hints after creation.
  ASSERT_TRUE(engine.SetStreamCardinality("t", "c", 30).ok());
  EXPECT_EQ(engine.DeclaredCardinalities()["t"][2], 30);
  EXPECT_FALSE(engine.SetStreamCardinality("t", "missing", 5).ok());
  EXPECT_FALSE(engine.SetStreamCardinality("t", "c", 0).ok());
}

TEST(CardinalityHintTest, BadHintLeavesNoStreamBehind) {
  Engine engine(Deterministic());
  auto bad = engine.ExecuteSql(
      "create basket t (a varchar) with (cardinality(missing) = 10)");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("missing"), std::string::npos);
  // The failed create left nothing: the name is free.
  EXPECT_TRUE(engine
                  .ExecuteSql("create basket t (a varchar) "
                              "with (cardinality(a) = 10)")
                  .ok());
}

TEST(CardinalityHintTest, RejectedOnTablesAndNonPositive) {
  Engine engine(Deterministic());
  EXPECT_FALSE(
      engine.ExecuteSql("create table t (a int) with (cardinality(a) = 10)")
          .ok());
  EXPECT_FALSE(
      engine.ExecuteSql("create basket b (a int) with (cardinality(a) = 0)")
          .ok());
  EXPECT_FALSE(
      engine.ExecuteSql("create basket b (a int) with (cardinality(a) = -3)")
          .ok());
}

// --- the sharded frontend's partials stream ----------------------------------

TEST(NetAnalysisTest, MergedQueryRaisesNoOrphanOnFrontend) {
  // A merged query's `<name>__partials` stream is fed by the shards and read
  // by the merge query's factory in the frontend engine's own net, so the
  // orphan lint has nothing to flag and needs no exemption.
  ShardedEngineOptions so;
  so.num_shards = 2;
  so.engine = Deterministic();
  ShardedEngine se(so);
  ASSERT_TRUE(
      se.ExecuteSql("create basket r (id int, temp double) partition by id")
          .ok());
  auto q = se.SubmitContinuousQuery(
      "mean", "select avg(temp) as mean from [select * from r] as s");
  ASSERT_TRUE(q.ok()) << q.status().message();
  auto placement = se.GetPlacement(*q);
  ASSERT_TRUE(placement.ok());
  ASSERT_TRUE((*placement)->merged);
  ASSERT_TRUE(se.frontend().GetBasket("mean__partials").ok());
  analysis::AnalysisReport report = se.frontend().Analyze();
  EXPECT_FALSE(report.Has(analysis::DiagCode::kOrphanBasket))
      << report.ToString();
}

// --- the dynamic state-bound oracle -----------------------------------------

TEST(StateOracleTest, ScalarAggregateStaysUnderConstantBound) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int, y double)").ok());
  auto q = engine.SubmitContinuousQuery(
      "m", "select avg(y) as m from [select * from s] as t");
  ASSERT_TRUE(q.ok());
  auto res = CheckStateBound(engine, *q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->sound) << res->detail;
}

TEST(StateOracleTest, CountWindowMeasuredUnderBound) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int, y double)").ok());
  auto q = engine.SubmitContinuousQuery(
      "w", "select sum(y) as b from [select * from s] as t "
           "window size 20 slide 7");
  ASSERT_TRUE(q.ok());
  StateOracleOptions oopts;
  oopts.rows = 200;
  oopts.batch = 13;  // ragged batches leave pending rows buffered
  auto res = CheckStateBound(engine, *q, oopts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->sound) << res->detail;
  EXPECT_GT(res->measured_bytes, 0u) << res->detail;  // buffering happened
  EXPECT_GT(res->bound_bytes, 0) << res->detail;
}

// An incremental count window holds one partial row per group and basic
// window; with a slide of 1 and wide partials (avg splits into sum + count)
// those rows outweigh the raw rows the window buffer bound counts.
TEST(StateOracleTest, GroupedCountWindowPartialsUnderBound) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket s (x int) "
                              "with (cardinality(x) = 7)")
                  .ok());
  auto q = engine.SubmitContinuousQuery(
      "w", "select x, count(*) as c, sum(x) as s, min(x) as lo, "
           "max(x) as hi, avg(x) as a from [select * from s] as t "
           "group by x window size 64 slide 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_STREQ((*engine.GetQuery(*q))->factory->window_mode_name(),
               "incremental");
  StateOracleOptions oopts;
  oopts.rows = 400;
  oopts.batch = 5;
  auto res = CheckStateBound(engine, *q, oopts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->sound) << res->detail;
  EXPECT_GT(res->measured_bytes, 0u) << res->detail;
}

// A windowed integer-keyed group-by keeps the group tables of the plans its
// window runs (here the incremental partial and merge plans); they are
// metered, and pass 4 prices them.
TEST(StateOracleTest, WindowedGroupByTablesMeteredUnderBound) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket s (k int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "w", "select k, count(*) as c from [select * from s] as t group by k "
           "window size 2 slide 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_STREQ((*engine.GetQuery(*q))->factory->window_mode_name(),
               "incremental");
  StateOracleOptions oopts;
  oopts.rows = 64;
  oopts.batch = 5;
  auto res = CheckStateBound(engine, *q, oopts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->sound) << res->detail;
  EXPECT_GE(res->measured_bytes, 2 * kernel::Int64GroupTable::EstimatedBytes(2))
      << res->detail;
}

TEST(StateOracleTest, HintedGroupByRespectsHintDomain) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket s (sym varchar, qty int) "
                              "with (cardinality(sym) = 16)")
                  .ok());
  auto q = engine.SubmitContinuousQuery(
      "g", "select sym, sum(qty) as total from [select * from s] as t "
           "group by sym");
  ASSERT_TRUE(q.ok());
  auto res = CheckStateBound(engine, *q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->sound) << res->detail;
}

// An integer-keyed group-by runs on the specialized stage, whose group table
// is metered: the oracle compares a real, non-zero measurement with the
// bound priced by the same Int64GroupTable::EstimatedBytes sizing.
TEST(StateOracleTest, HintedIntGroupByTableMeteredUnderBound) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteSql("create basket s (sym int, qty int) "
                              "with (cardinality(sym) = 300)")
                  .ok());
  auto q = engine.SubmitContinuousQuery(
      "g", "select sym, sum(qty) as total, max(qty) as hi "
           "from [select * from s] as t group by sym");
  ASSERT_TRUE(q.ok());
  StateOracleOptions oopts;
  oopts.rows = 1200;
  oopts.batch = 600;  // every firing sees all 300 hinted keys
  auto res = CheckStateBound(engine, *q, oopts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->sound) << res->detail;
  EXPECT_EQ(res->measured_bytes, kernel::Int64GroupTable::EstimatedBytes(300))
      << res->detail;
  EXPECT_GE(res->bound_bytes,
            static_cast<int64_t>(kernel::Int64GroupTable::EstimatedBytes(300)))
      << res->detail;

  // The same measurement against a bound below the table's size fails.
  Engine engine2(Deterministic());
  ASSERT_TRUE(engine2
                  .ExecuteSql("create basket s (sym int, qty int) "
                              "with (cardinality(sym) = 300)")
                  .ok());
  auto q2 = engine2.SubmitContinuousQuery(
      "g", "select sym, sum(qty) as total, max(qty) as hi "
           "from [select * from s] as t group by sym");
  ASSERT_TRUE(q2.ok());
  oopts.override_bound_bytes =
      static_cast<int64_t>(kernel::Int64GroupTable::EstimatedBytes(300)) - 1;
  auto low = CheckStateBound(engine2, *q2, oopts);
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  EXPECT_FALSE(low->sound) << low->detail;
  EXPECT_NE(low->detail.find("EXCEEDS"), std::string::npos) << low->detail;
}

TEST(StateOracleTest, StaticJoinIndexUnderBound) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine
                  .ExecuteScript("create basket s (k int, v double);"
                                 "create table dims (k int, label varchar);"
                                 "insert into dims values (1, 'a'), (2, 'b'), "
                                 "(3, 'c');")
                  .ok());
  auto q = engine.SubmitContinuousQuery(
      "j", "select t.v, d.label from [select * from s] as t "
           "join dims as d on t.k = d.k");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto res = CheckStateBound(engine, *q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->sound) << res->detail;
  EXPECT_GT(res->bound_bytes, 0) << res->detail;
}

TEST(StateOracleTest, DeliberatelyUnsoundOverrideIsRejected) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int, y double)").ok());
  auto q = engine.SubmitContinuousQuery(
      "w", "select sum(y) as b from [select * from s] as t "
           "window size 20 slide 7");
  ASSERT_TRUE(q.ok());
  StateOracleOptions oopts;
  oopts.rows = 200;
  oopts.batch = 13;
  oopts.override_bound_bytes = 1;  // no real window fits in one byte
  auto res = CheckStateBound(engine, *q, oopts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_FALSE(res->sound) << res->detail;
  EXPECT_NE(res->detail.find("EXCEEDS"), std::string::npos) << res->detail;
}

TEST(StateOracleTest, UnboundedVerdictIsVacuouslySound) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket s (sym varchar, qty int)").ok());
  auto q = engine.SubmitContinuousQuery(
      "g", "select sym, sum(qty) as total from [select * from s] as t "
           "group by sym");
  ASSERT_TRUE(q.ok());
  auto res = CheckStateBound(engine, *q);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->sound) << res->detail;
  EXPECT_EQ(res->bound_bytes, -1) << res->detail;  // no numeric claim made
}

// --- pass-4 observability surfaces ------------------------------------------

TEST(StateMetricsTest, GaugesExportBoundAndMeasured) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int, y double)").ok());
  auto q1 = engine.SubmitContinuousQuery(
      "w", "select sum(y) as b from [select * from s] as t window size 10");
  ASSERT_TRUE(q1.ok());
  auto q2 = engine.SubmitContinuousQuery(
      "g", "select x, sum(y) as total from [select * from s] as t group by x");
  ASSERT_TRUE(q2.ok());
  std::string text = engine.MetricsText();
  EXPECT_NE(text.find("datacell_query_state_bound_bytes{query=\"w\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("datacell_query_state_bytes{query=\"w\"}"),
            std::string::npos);
  // The unbounded group-by exports the -1 sentinel.
  size_t pos = text.find("datacell_query_state_bound_bytes{query=\"g\"}");
  ASSERT_NE(pos, std::string::npos) << text;
  EXPECT_NE(text.find("-1", pos), std::string::npos);
}

TEST(StateReportTest, DescribeAndJsonCarryVerdict) {
  Engine engine(Deterministic());
  ASSERT_TRUE(engine.ExecuteSql("create basket s (x int, y double)").ok());
  auto q = engine.SubmitContinuousQuery(
      "w", "select sum(y) as b from [select * from s] as t window size 10");
  ASSERT_TRUE(q.ok());
  auto info = engine.GetQuery(*q);
  ASSERT_TRUE(info.ok());
  const analysis::StateReport& state = *(*info)->state;
  EXPECT_NE(state.Describe().find("window-bounded"), std::string::npos)
      << state.Describe();
  std::string json = state.ToJson();
  EXPECT_NE(json.find("\"verdict\":\"window-bounded\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"operators\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"retention\":"), std::string::npos) << json;
}

}  // namespace
}  // namespace datacell
