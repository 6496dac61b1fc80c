#include <gtest/gtest.h>

#include "sql/lexer.h"
#include "sql/parser.h"

namespace datacell {
namespace sql {
namespace {

// --- Lexer -------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("select a, b from t where a >= 10;");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 10u);
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "select");
  EXPECT_EQ((*tokens)[2].type, TokenType::kComma);
  EXPECT_EQ(tokens->back().type, TokenType::kEof);
}

TEST(LexerTest, NumberLiterals) {
  auto tokens = Tokenize("1 2.5 1e3 .5 -7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kIntLiteral);
  EXPECT_EQ((*tokens)[0].int_value, 1);
  EXPECT_EQ((*tokens)[1].type, TokenType::kFloatLiteral);
  EXPECT_DOUBLE_EQ((*tokens)[1].float_value, 2.5);
  EXPECT_EQ((*tokens)[2].type, TokenType::kFloatLiteral);
  EXPECT_DOUBLE_EQ((*tokens)[2].float_value, 1000.0);
  EXPECT_EQ((*tokens)[3].type, TokenType::kFloatLiteral);
  // '-7' lexes as minus then int (unary minus handled by the parser).
  EXPECT_EQ((*tokens)[4].type, TokenType::kMinus);
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  auto tokens = Tokenize("'hello' 'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "hello");
  EXPECT_EQ((*tokens)[1].text, "it's");
  EXPECT_FALSE(Tokenize("'unterminated").ok());
}

TEST(LexerTest, OperatorsAndBrackets) {
  auto tokens = Tokenize("<> != <= >= [ ] ( ) . %");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[1].type, TokenType::kNe);
  EXPECT_EQ((*tokens)[2].type, TokenType::kLe);
  EXPECT_EQ((*tokens)[3].type, TokenType::kGe);
  EXPECT_EQ((*tokens)[4].type, TokenType::kLBracket);
  EXPECT_EQ((*tokens)[5].type, TokenType::kRBracket);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("select -- a comment\n x");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);  // select, x, eof
  EXPECT_EQ((*tokens)[1].text, "x");
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(Tokenize("select @").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
}

// --- Parser: SELECT -------------------------------------------------------

TEST(ParserTest, MinimalSelect) {
  auto stmt = ParseStatement("select * from t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kSelect);
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.items.size(), 1u);
  EXPECT_TRUE(s.items[0].star);
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].name, "t");
  EXPECT_FALSE(s.IsContinuous());
}

TEST(ParserTest, SelectItemsWithAliases) {
  auto stmt = ParseStatement("select a, b + 1 as b1, c c2 from t");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.items.size(), 3u);
  EXPECT_EQ(s.items[0].expr->column, "a");
  EXPECT_EQ(s.items[1].alias, "b1");
  EXPECT_EQ(s.items[2].alias, "c2");
}

TEST(ParserTest, WhereGroupHavingOrderLimit) {
  auto stmt = ParseStatement(
      "select k, sum(v) as s from t where v > 0 group by k "
      "having sum(v) > 10 order by s desc, k limit 5 offset 2");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *stmt->select;
  ASSERT_NE(s.where, nullptr);
  ASSERT_EQ(s.group_by.size(), 1u);
  ASSERT_NE(s.having, nullptr);
  ASSERT_EQ(s.order_by.size(), 2u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_TRUE(s.order_by[1].ascending);
  EXPECT_EQ(s.limit, 5);
  EXPECT_EQ(s.offset, 2);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto stmt = ParseStatement("select * from t where a + 2 * b > 10 and c = 1");
  ASSERT_TRUE(stmt.ok());
  // ((a + (2*b)) > 10) and (c = 1)
  const AstExpr& w = *stmt->select->where;
  EXPECT_EQ(w.ToString(), "(((a + (2 * b)) > 10) and (c = 1))");
}

TEST(ParserTest, NotAndIsNull) {
  auto stmt = ParseStatement(
      "select * from t where not a is null and b is not null");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->where->ToString(),
            "(not ((a is null)) and (b is not null))");
}

TEST(ParserTest, UnaryMinusAndParens) {
  auto stmt = ParseStatement("select * from t where (a + -1) * 2 = -4");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->where->ToString(), "(((a + -(1)) * 2) = -(4))");
}

TEST(ParserTest, BooleanAndNullLiterals) {
  auto stmt = ParseStatement("select * from t where a = true or b = null");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->where->ToString(), "((a = true) or (b = null))");
}

TEST(ParserTest, QualifiedColumns) {
  auto stmt = ParseStatement("select t.a from t where t.a > 0");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->items[0].expr->qualifier, "t");
  EXPECT_EQ(stmt->select->items[0].expr->column, "a");
}

TEST(ParserTest, JoinOn) {
  auto stmt = ParseStatement(
      "select * from a join b on a.x = b.y join c on c.z = a.x");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.from.size(), 3u);
  EXPECT_FALSE(s.from[0].is_join);
  EXPECT_TRUE(s.from[1].is_join);
  ASSERT_NE(s.from[1].join_on, nullptr);
  EXPECT_TRUE(s.from[2].is_join);
}

TEST(ParserTest, CommaJoinRejected) {
  EXPECT_FALSE(ParseStatement("select * from a, b").ok());
}

TEST(ParserTest, AggregateCalls) {
  auto stmt = ParseStatement(
      "select count(*), sum(a), min(a + b), avg(c) from t");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *stmt->select;
  EXPECT_TRUE(s.items[0].expr->star);
  EXPECT_EQ(s.items[0].expr->func_name, "count");
  EXPECT_EQ(s.items[2].expr->children[0]->ToString(), "(a + b)");
}

// --- Parser: basket expressions & windows (DataCell extensions) -------------

TEST(ParserTest, BasketExpression) {
  auto stmt = ParseStatement(
      "select * from [select * from r] as s where s.a > 1");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *stmt->select;
  ASSERT_EQ(s.from.size(), 1u);
  ASSERT_TRUE(s.from[0].is_basket_expr());
  EXPECT_EQ(s.from[0].alias, "s");
  EXPECT_EQ(s.from[0].basket_expr->from[0].name, "r");
  EXPECT_TRUE(s.IsContinuous());
}

TEST(ParserTest, BasketExpressionWithPredicate) {
  // The paper's q2: a predicate window.
  auto stmt = ParseStatement(
      "select * from [select * from r where r.b < 5] as s where s.a > 1");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE(stmt->select->from[0].basket_expr->where, nullptr);
}

TEST(ParserTest, BasketExpressionRequiresAlias) {
  EXPECT_FALSE(ParseStatement("select * from [select * from r]").ok());
}

TEST(ParserTest, CountWindow) {
  auto stmt = ParseStatement(
      "select avg(a) from [select * from r] as s window size 100 slide 10");
  ASSERT_TRUE(stmt.ok());
  const WindowClause& w = stmt->select->window;
  EXPECT_EQ(w.kind, WindowClause::Kind::kCount);
  EXPECT_EQ(w.size, 100);
  EXPECT_EQ(w.slide, 10);
}

TEST(ParserTest, CountWindowDefaultsTumbling) {
  auto stmt = ParseStatement(
      "select avg(a) from [select * from r] as s window size 50");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->window.slide, 50);
}

TEST(ParserTest, TimeWindowUnits) {
  auto stmt = ParseStatement(
      "select avg(a) from [select * from r] as s "
      "window range 5 minutes slide 30 seconds");
  ASSERT_TRUE(stmt.ok());
  const WindowClause& w = stmt->select->window;
  EXPECT_EQ(w.kind, WindowClause::Kind::kTime);
  EXPECT_EQ(w.size, int64_t{5} * 60 * 1000000);
  EXPECT_EQ(w.slide, int64_t{30} * 1000000);
}

TEST(ParserTest, Threshold) {
  auto stmt = ParseStatement(
      "select * from [select * from r] as s threshold 64");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->threshold, 64);
}

TEST(ParserTest, WindowRequiresSizeOrRange) {
  EXPECT_FALSE(
      ParseStatement("select * from [select * from r] as s window 5").ok());
}

// --- Parser: DDL / DML -------------------------------------------------

TEST(ParserTest, CreateTable) {
  auto stmt = ParseStatement("create table t (a int, b double, c varchar)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kCreate);
  EXPECT_FALSE(stmt->create->is_basket);
  EXPECT_EQ(stmt->create->name, "t");
  ASSERT_EQ(stmt->create->columns.size(), 3u);
  EXPECT_EQ(stmt->create->columns[1].type, DataType::kDouble);
}

TEST(ParserTest, CreateBasket) {
  auto stmt = ParseStatement("create basket r (x int)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->create->is_basket);
}

TEST(ParserTest, CreateRejectsBadType) {
  EXPECT_FALSE(ParseStatement("create table t (a blob)").ok());
}

TEST(ParserTest, InsertValues) {
  auto stmt = ParseStatement(
      "insert into t values (1, 'x', 2.5), (2, 'y', -1.0)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->kind, Statement::Kind::kInsert);
  EXPECT_EQ(stmt->insert->table, "t");
  ASSERT_EQ(stmt->insert->rows.size(), 2u);
  ASSERT_EQ(stmt->insert->rows[0].size(), 3u);
}

TEST(ParserTest, InsertWithColumnList) {
  auto stmt = ParseStatement("insert into t (b, a) values ('x', 1)");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->insert->columns, (std::vector<std::string>{"b", "a"}));
}

TEST(ParserTest, DropStatement) {
  auto stmt = ParseStatement("drop table t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->kind, Statement::Kind::kDrop);
  EXPECT_EQ(stmt->drop->name, "t");
  EXPECT_TRUE(ParseStatement("drop basket r").ok());
}

// --- Parser: scripts & errors -----------------------------------------

TEST(ParserTest, ScriptMultipleStatements) {
  auto script = ParseScript(
      "create basket r (a int); insert into r values (1); select * from r;");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->size(), 3u);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseStatement("select * from t garbage garbage").ok());
}

TEST(ParserTest, ReservedWordAsNameRejected) {
  EXPECT_FALSE(ParseStatement("select * from select").ok());
  EXPECT_FALSE(ParseStatement("create table where (a int)").ok());
}

TEST(ParserTest, ErrorMessagesCarryOffset) {
  auto r = ParseStatement("select from t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, EmptyStatementRejected) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("   ").ok());
}

// --- SplitScript (the shell dialect) ----------------------------------------

TEST(SplitScriptTest, SemicolonsInLiteralsAndCommentsDoNotSplit) {
  auto pieces = SplitScript(
      "-- lead; comment\n"
      "insert into t values ('a;b', 'it''s;');  -- trailing; comment\n"
      "select x -- not; the end\n"
      "  from t;");
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].text, "insert into t values ('a;b', 'it''s;')");
  EXPECT_EQ(pieces[0].line, 2u);
  EXPECT_EQ(pieces[1].text, "select x -- not; the end\n  from t");
  EXPECT_EQ(pieces[1].line, 3u);
  EXPECT_TRUE(pieces[1].terminated);
}

TEST(SplitScriptTest, LineCommandsEndAtTheirLineWatchAtSemicolon) {
  auto pieces = SplitScript(
      "\\stats\n"
      "create table t (a int);\n"
      "\\watch big select a from [select * from s] as x\n"
      "  where x.a > 1;\n"
      "\\quit");
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_TRUE(pieces[0].is_command());
  EXPECT_EQ(pieces[0].text, "\\stats");
  EXPECT_TRUE(pieces[0].terminated);
  EXPECT_EQ(pieces[1].text, "create table t (a int)");
  EXPECT_EQ(pieces[1].line, 2u);
  EXPECT_EQ(pieces[2].text,
            "\\watch big select a from [select * from s] as x\n"
            "  where x.a > 1");
  EXPECT_EQ(pieces[2].line, 3u);
  EXPECT_EQ(pieces[3].text, "\\quit");
  EXPECT_EQ(pieces[3].line, 5u);
  EXPECT_FALSE(pieces[3].terminated);  // no newline after it
}

TEST(SplitScriptTest, UnterminatedTailAndBlankPieces) {
  auto pieces = SplitScript(";; -- only a comment\n  ;select 'x;\n");
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].text, "select 'x;");
  EXPECT_EQ(pieces[0].line, 2u);
  EXPECT_FALSE(pieces[0].terminated);  // the ';' is inside the open literal
  EXPECT_TRUE(SplitScript(" \n-- nothing\n").empty());
}

}  // namespace
}  // namespace sql
}  // namespace datacell
