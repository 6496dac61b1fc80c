#include "sql/parser.h"

#include <algorithm>
#include <cctype>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace datacell {
namespace sql {

namespace {

/// Recursive-descent parser over the token stream. Keywords are
/// case-insensitive identifiers; reserved words are rejected as names.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    DC_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
    MatchToken(TokenType::kSemicolon);
    if (!AtEnd()) {
      return Err("unexpected trailing input");
    }
    return stmt;
  }

  Result<std::vector<Statement>> ParseScript() {
    std::vector<Statement> out;
    while (!AtEnd()) {
      DC_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
      out.push_back(std::move(stmt));
      if (!MatchToken(TokenType::kSemicolon)) break;
    }
    if (!AtEnd()) return Err("unexpected trailing input").status();
    return out;
  }

 private:
  // --- token helpers ---------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() {
    const Token& t = Peek();
    if (pos_ < tokens_.size() - 1) ++pos_;
    return t;
  }
  bool AtEnd() const { return Peek().type == TokenType::kEof; }

  bool PeekKeyword(std::string_view kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdentifier && EqualsIgnoreCase(t.text, kw);
  }
  bool MatchKeyword(std::string_view kw) {
    if (PeekKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!MatchKeyword(kw)) {
      return Err("expected '" + std::string(kw) + "'").status();
    }
    return Status::OK();
  }
  bool MatchToken(TokenType t) {
    if (Peek().type == t) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectToken(TokenType t) {
    if (!MatchToken(t)) {
      return Err(std::string("expected '") + TokenTypeToString(t) + "', got '" +
                 DescribeCurrent() + "'")
          .status();
    }
    return Status::OK();
  }

  std::string DescribeCurrent() const {
    const Token& t = Peek();
    if (t.type == TokenType::kIdentifier) return t.text;
    return TokenTypeToString(t.type);
  }

  Result<Statement> Err(std::string msg) const {
    const Token& t = Peek();
    // Keep the byte offset in the rendering: tools (and tests) key on it.
    return Status::ParseError(msg + " at line " + std::to_string(t.line) +
                              ", column " + std::to_string(t.col) +
                              " (offset " + std::to_string(t.offset) + ")");
  }

  static bool IsReserved(std::string_view word) {
    static const char* kReserved[] = {
        "select", "from",   "where",  "group",     "by",     "having",
        "order",  "limit",  "offset", "window",    "size",   "slide",
        "range",  "as",     "and",    "or",        "not",    "is",
        "null",   "join",   "on",     "distinct",  "create", "table",
        "basket", "insert", "into",   "values",    "drop",   "threshold",
        "asc",    "desc",   "true",   "false",     "count",  "sum",
        "min",    "max",    "avg",    "between",   "in",     "like",
        "case",   "when",   "then",   "else",      "end",
    };
    for (const char* r : kReserved) {
      if (EqualsIgnoreCase(word, r)) return true;
    }
    return false;
  }

  Result<std::string> ExpectName() {
    if (Peek().type != TokenType::kIdentifier) {
      return Err("expected identifier, got '" + DescribeCurrent() + "'")
          .status();
    }
    if (IsReserved(Peek().text)) {
      return Status::ParseError("reserved word '" + Peek().text +
                                "' cannot be used as a name");
    }
    return Advance().text;
  }

  // --- statements --------------------------------------------------------
  Result<Statement> ParseStatementInner() {
    if (PeekKeyword("select")) {
      DC_ASSIGN_OR_RETURN(auto sel, ParseSelect());
      Statement stmt;
      stmt.kind = Statement::Kind::kSelect;
      stmt.select = std::move(sel);
      return stmt;
    }
    if (PeekKeyword("create")) return ParseCreate();
    if (PeekKeyword("insert")) return ParseInsert();
    if (PeekKeyword("drop")) return ParseDrop();
    return Err("expected SELECT, CREATE, INSERT or DROP");
  }

  Result<Statement> ParseCreate() {
    DC_RETURN_NOT_OK(ExpectKeyword("create"));
    bool is_basket = false;
    if (MatchKeyword("basket")) {
      is_basket = true;
    } else {
      DC_RETURN_NOT_OK(ExpectKeyword("table"));
    }
    auto create = std::make_unique<CreateStmt>();
    create->is_basket = is_basket;
    DC_ASSIGN_OR_RETURN(create->name, ExpectName());
    DC_RETURN_NOT_OK(ExpectToken(TokenType::kLParen));
    do {
      ColumnDef def;
      DC_ASSIGN_OR_RETURN(def.name, ExpectName());
      if (Peek().type != TokenType::kIdentifier) {
        return Err("expected column type");
      }
      DC_ASSIGN_OR_RETURN(def.type, DataTypeFromString(Advance().text));
      create->columns.push_back(std::move(def));
    } while (MatchToken(TokenType::kComma));
    DC_RETURN_NOT_OK(ExpectToken(TokenType::kRParen));
    if (MatchKeyword("partition")) {
      DC_RETURN_NOT_OK(ExpectKeyword("by"));
      if (!is_basket) {
        return Err("PARTITION BY applies to baskets, not tables");
      }
      DC_ASSIGN_OR_RETURN(create->partition_by, ExpectName());
    }
    // WITH (cardinality(col) = N, ...) — pass-4 key-space hints.
    if (MatchKeyword("with")) {
      if (!is_basket) {
        return Err("WITH (cardinality(...)) applies to baskets, not tables");
      }
      DC_RETURN_NOT_OK(ExpectToken(TokenType::kLParen));
      do {
        DC_RETURN_NOT_OK(ExpectKeyword("cardinality"));
        DC_RETURN_NOT_OK(ExpectToken(TokenType::kLParen));
        DC_ASSIGN_OR_RETURN(std::string col, ExpectName());
        DC_RETURN_NOT_OK(ExpectToken(TokenType::kRParen));
        DC_RETURN_NOT_OK(ExpectToken(TokenType::kEq));
        DC_ASSIGN_OR_RETURN(int64_t n, ExpectInt());
        if (n <= 0) return Err("cardinality must be a positive row count");
        create->cardinality_hints.emplace_back(std::move(col), n);
      } while (MatchToken(TokenType::kComma));
      DC_RETURN_NOT_OK(ExpectToken(TokenType::kRParen));
    }
    Statement stmt;
    stmt.kind = Statement::Kind::kCreate;
    stmt.create = std::move(create);
    return stmt;
  }

  Result<Statement> ParseInsert() {
    DC_RETURN_NOT_OK(ExpectKeyword("insert"));
    DC_RETURN_NOT_OK(ExpectKeyword("into"));
    auto insert = std::make_unique<InsertStmt>();
    DC_ASSIGN_OR_RETURN(insert->table, ExpectName());
    if (MatchToken(TokenType::kLParen)) {
      do {
        DC_ASSIGN_OR_RETURN(std::string col, ExpectName());
        insert->columns.push_back(std::move(col));
      } while (MatchToken(TokenType::kComma));
      DC_RETURN_NOT_OK(ExpectToken(TokenType::kRParen));
    }
    DC_RETURN_NOT_OK(ExpectKeyword("values"));
    do {
      DC_RETURN_NOT_OK(ExpectToken(TokenType::kLParen));
      std::vector<AstExprPtr> row;
      do {
        DC_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
        row.push_back(std::move(e));
      } while (MatchToken(TokenType::kComma));
      DC_RETURN_NOT_OK(ExpectToken(TokenType::kRParen));
      insert->rows.push_back(std::move(row));
    } while (MatchToken(TokenType::kComma));
    Statement stmt;
    stmt.kind = Statement::Kind::kInsert;
    stmt.insert = std::move(insert);
    return stmt;
  }

  Result<Statement> ParseDrop() {
    DC_RETURN_NOT_OK(ExpectKeyword("drop"));
    if (!MatchKeyword("table")) {
      DC_RETURN_NOT_OK(ExpectKeyword("basket"));
    }
    auto drop = std::make_unique<DropStmt>();
    DC_ASSIGN_OR_RETURN(drop->name, ExpectName());
    Statement stmt;
    stmt.kind = Statement::Kind::kDrop;
    stmt.drop = std::move(drop);
    return stmt;
  }

  // --- SELECT -----------------------------------------------------------
  Result<std::unique_ptr<SelectStmt>> ParseSelect() {
    DC_RETURN_NOT_OK(ExpectKeyword("select"));
    auto sel = std::make_unique<SelectStmt>();
    sel->distinct = MatchKeyword("distinct");
    do {
      DC_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      sel->items.push_back(std::move(item));
    } while (MatchToken(TokenType::kComma));

    DC_RETURN_NOT_OK(ExpectKeyword("from"));
    DC_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
    sel->from.push_back(std::move(first));
    while (PeekKeyword("join")) {
      Advance();
      DC_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
      DC_RETURN_NOT_OK(ExpectKeyword("on"));
      DC_ASSIGN_OR_RETURN(ref.join_on, ParseExpr());
      ref.is_join = true;
      sel->from.push_back(std::move(ref));
    }
    if (Peek().type == TokenType::kComma) {
      return Status::ParseError(
          "comma joins are not supported; use JOIN ... ON");
    }

    if (MatchKeyword("where")) {
      DC_ASSIGN_OR_RETURN(sel->where, ParseExpr());
    }
    if (MatchKeyword("group")) {
      DC_RETURN_NOT_OK(ExpectKeyword("by"));
      do {
        DC_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
        sel->group_by.push_back(std::move(e));
      } while (MatchToken(TokenType::kComma));
    }
    if (MatchKeyword("having")) {
      DC_ASSIGN_OR_RETURN(sel->having, ParseExpr());
    }
    if (MatchKeyword("order")) {
      DC_RETURN_NOT_OK(ExpectKeyword("by"));
      do {
        OrderItem item;
        DC_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("desc")) {
          item.ascending = false;
        } else {
          MatchKeyword("asc");
        }
        sel->order_by.push_back(std::move(item));
      } while (MatchToken(TokenType::kComma));
    }
    if (MatchKeyword("limit")) {
      DC_ASSIGN_OR_RETURN(sel->limit, ExpectInt());
      if (MatchKeyword("offset")) {
        DC_ASSIGN_OR_RETURN(sel->offset, ExpectInt());
      }
    }
    if (MatchKeyword("window")) {
      DC_RETURN_NOT_OK(ParseWindow(&sel->window));
    }
    if (MatchKeyword("threshold")) {
      DC_ASSIGN_OR_RETURN(sel->threshold, ExpectInt());
    }
    return sel;
  }

  Result<int64_t> ExpectInt() {
    if (Peek().type != TokenType::kIntLiteral) {
      return Status::ParseError("expected integer, got '" + DescribeCurrent() +
                                "'");
    }
    return Advance().int_value;
  }

  /// Time unit multiplier to microseconds.
  Result<int64_t> ExpectTimeUnit() {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::ParseError("expected time unit");
    }
    std::string u = ToLower(Advance().text);
    if (u == "microsecond" || u == "microseconds" || u == "us") return 1;
    if (u == "millisecond" || u == "milliseconds" || u == "ms") return 1000;
    if (u == "second" || u == "seconds" || u == "s") return 1000000;
    if (u == "minute" || u == "minutes") return int64_t{60} * 1000000;
    if (u == "hour" || u == "hours") return int64_t{3600} * 1000000;
    return Status::ParseError("unknown time unit '" + u + "'");
  }

  Status ParseWindow(WindowClause* w) {
    if (MatchKeyword("size")) {
      w->kind = WindowClause::Kind::kCount;
      DC_ASSIGN_OR_RETURN(w->size, ExpectInt());
      if (MatchKeyword("slide")) {
        DC_ASSIGN_OR_RETURN(w->slide, ExpectInt());
      } else {
        w->slide = w->size;  // tumbling
      }
      return Status::OK();
    }
    if (MatchKeyword("range")) {
      w->kind = WindowClause::Kind::kTime;
      DC_ASSIGN_OR_RETURN(int64_t n, ExpectInt());
      DC_ASSIGN_OR_RETURN(int64_t unit, ExpectTimeUnit());
      w->size = n * unit;
      if (MatchKeyword("slide")) {
        DC_ASSIGN_OR_RETURN(int64_t m, ExpectInt());
        DC_ASSIGN_OR_RETURN(int64_t unit2, ExpectTimeUnit());
        w->slide = m * unit2;
      } else {
        w->slide = w->size;
      }
      return Status::OK();
    }
    return Status::ParseError("expected SIZE or RANGE after WINDOW");
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (Peek().type == TokenType::kStar) {
      Advance();
      item.star = true;
      return item;
    }
    DC_ASSIGN_OR_RETURN(item.expr, ParseExpr());
    if (MatchKeyword("as")) {
      DC_ASSIGN_OR_RETURN(item.alias, ExpectName());
    } else if (Peek().type == TokenType::kIdentifier &&
               !IsReserved(Peek().text)) {
      item.alias = Advance().text;
    }
    return item;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (MatchToken(TokenType::kLBracket)) {
      DC_ASSIGN_OR_RETURN(ref.basket_expr, ParseSelect());
      DC_RETURN_NOT_OK(ExpectToken(TokenType::kRBracket));
    } else {
      DC_ASSIGN_OR_RETURN(ref.name, ExpectName());
      // Qualified relation name (sys.baskets): the catalog keys reserved
      // system streams under their dotted name, so join the parts back into
      // one identifier. Qualified *column* references against these need a
      // plain alias (`from sys.baskets b ... b.occupancy`), since expression
      // qualifiers are single identifiers.
      if (MatchToken(TokenType::kDot)) {
        DC_ASSIGN_OR_RETURN(std::string rest, ExpectName());
        ref.name += "." + rest;
      }
    }
    if (MatchKeyword("as")) {
      DC_ASSIGN_OR_RETURN(ref.alias, ExpectName());
    } else if (Peek().type == TokenType::kIdentifier &&
               !IsReserved(Peek().text)) {
      ref.alias = Advance().text;
    }
    if (ref.is_basket_expr() && ref.alias.empty()) {
      return Status::ParseError("a basket expression requires an alias");
    }
    return ref;
  }

  // --- expressions (precedence climbing) --------------------------------
  Result<AstExprPtr> ParseExpr() { return ParseOr(); }

  Result<AstExprPtr> ParseOr() {
    DC_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAnd());
    while (MatchKeyword("or")) {
      DC_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAnd());
      lhs = MakeBinary(AstBinaryOp::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseAnd() {
    DC_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseNot());
    while (MatchKeyword("and")) {
      DC_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseNot());
      lhs = MakeBinary(AstBinaryOp::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<AstExprPtr> ParseNot() {
    if (PeekKeyword("not")) {
      const Token& tok = Advance();
      DC_ASSIGN_OR_RETURN(AstExprPtr operand, ParseNot());
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kUnary;
      e->unary_op = AstUnaryOp::kNot;
      SetPos(e.get(), tok);
      e->children.push_back(std::move(operand));
      return e;
    }
    return ParseComparison();
  }

  Result<AstExprPtr> ParseComparison() {
    DC_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseAdditive());
    // [NOT] BETWEEN / IN / LIKE — desugared at parse time.
    bool negated = false;
    if (PeekKeyword("not") &&
        (PeekKeyword("between", 1) || PeekKeyword("in", 1) ||
         PeekKeyword("like", 1))) {
      Advance();
      negated = true;
    }
    if (MatchKeyword("between")) {
      DC_ASSIGN_OR_RETURN(AstExprPtr lo, ParseAdditive());
      DC_RETURN_NOT_OK(ExpectKeyword("and"));
      DC_ASSIGN_OR_RETURN(AstExprPtr hi, ParseAdditive());
      // a BETWEEN x AND y  =>  (a >= x) and (a <= y)
      AstExprPtr ge = MakeBinary(AstBinaryOp::kGe, lhs->Clone(), std::move(lo));
      AstExprPtr le = MakeBinary(AstBinaryOp::kLe, std::move(lhs), std::move(hi));
      AstExprPtr both =
          MakeBinary(AstBinaryOp::kAnd, std::move(ge), std::move(le));
      return negated ? MakeNot(std::move(both)) : std::move(both);
    }
    if (MatchKeyword("in")) {
      DC_RETURN_NOT_OK(ExpectToken(TokenType::kLParen));
      // a IN (v1, v2, ...)  =>  (a = v1) or (a = v2) or ...
      AstExprPtr disjunction;
      do {
        DC_ASSIGN_OR_RETURN(AstExprPtr item, ParseExpr());
        AstExprPtr eq =
            MakeBinary(AstBinaryOp::kEq, lhs->Clone(), std::move(item));
        disjunction = disjunction == nullptr
                          ? std::move(eq)
                          : MakeBinary(AstBinaryOp::kOr,
                                       std::move(disjunction), std::move(eq));
      } while (MatchToken(TokenType::kComma));
      DC_RETURN_NOT_OK(ExpectToken(TokenType::kRParen));
      return negated ? MakeNot(std::move(disjunction))
                     : std::move(disjunction);
    }
    if (MatchKeyword("like")) {
      DC_ASSIGN_OR_RETURN(AstExprPtr pattern, ParseAdditive());
      AstExprPtr like =
          MakeBinary(AstBinaryOp::kLike, std::move(lhs), std::move(pattern));
      return negated ? MakeNot(std::move(like)) : std::move(like);
    }
    if (negated) {
      return Err("expected BETWEEN, IN or LIKE after NOT").status();
    }
    // IS [NOT] NULL
    if (PeekKeyword("is")) {
      Advance();
      bool negated = MatchKeyword("not");
      DC_RETURN_NOT_OK(ExpectKeyword("null"));
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kUnary;
      e->unary_op = negated ? AstUnaryOp::kIsNotNull : AstUnaryOp::kIsNull;
      e->line = lhs->line;
      e->col = lhs->col;
      e->children.push_back(std::move(lhs));
      return e;
    }
    AstBinaryOp op;
    switch (Peek().type) {
      case TokenType::kEq:
        op = AstBinaryOp::kEq;
        break;
      case TokenType::kNe:
        op = AstBinaryOp::kNe;
        break;
      case TokenType::kLt:
        op = AstBinaryOp::kLt;
        break;
      case TokenType::kLe:
        op = AstBinaryOp::kLe;
        break;
      case TokenType::kGt:
        op = AstBinaryOp::kGt;
        break;
      case TokenType::kGe:
        op = AstBinaryOp::kGe;
        break;
      default:
        return lhs;
    }
    Advance();
    DC_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAdditive());
    return MakeBinary(op, std::move(lhs), std::move(rhs));
  }

  Result<AstExprPtr> ParseAdditive() {
    DC_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseMultiplicative());
    while (true) {
      AstBinaryOp op;
      if (Peek().type == TokenType::kPlus) {
        op = AstBinaryOp::kAdd;
      } else if (Peek().type == TokenType::kMinus) {
        op = AstBinaryOp::kSub;
      } else {
        return lhs;
      }
      Advance();
      DC_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseMultiplicative());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<AstExprPtr> ParseMultiplicative() {
    DC_ASSIGN_OR_RETURN(AstExprPtr lhs, ParseUnary());
    while (true) {
      AstBinaryOp op;
      if (Peek().type == TokenType::kStar) {
        op = AstBinaryOp::kMul;
      } else if (Peek().type == TokenType::kSlash) {
        op = AstBinaryOp::kDiv;
      } else if (Peek().type == TokenType::kPercent) {
        op = AstBinaryOp::kMod;
      } else {
        return lhs;
      }
      Advance();
      DC_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseUnary());
      lhs = MakeBinary(op, std::move(lhs), std::move(rhs));
    }
  }

  Result<AstExprPtr> ParseUnary() {
    if (Peek().type == TokenType::kMinus) {
      const Token& tok = Advance();
      DC_ASSIGN_OR_RETURN(AstExprPtr operand, ParseUnary());
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kUnary;
      e->unary_op = AstUnaryOp::kNeg;
      SetPos(e.get(), tok);
      e->children.push_back(std::move(operand));
      return e;
    }
    return ParsePrimary();
  }

  static bool IsAggregateName(std::string_view name) {
    return EqualsIgnoreCase(name, "count") || EqualsIgnoreCase(name, "sum") ||
           EqualsIgnoreCase(name, "min") || EqualsIgnoreCase(name, "max") ||
           EqualsIgnoreCase(name, "avg");
  }

  static bool IsScalarFuncName(std::string_view name) {
    for (const char* f : {"abs", "floor", "ceil", "round", "sqrt", "length",
                          "lower", "upper"}) {
      if (EqualsIgnoreCase(name, f)) return true;
    }
    return false;
  }

  Result<AstExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIntLiteral: {
        Advance();
        auto e = std::make_unique<AstExpr>();
        e->kind = AstExprKind::kLiteral;
        e->literal = Value::Int64(t.int_value);
        SetPos(e.get(), t);
        return e;
      }
      case TokenType::kFloatLiteral: {
        Advance();
        auto e = std::make_unique<AstExpr>();
        e->kind = AstExprKind::kLiteral;
        e->literal = Value::Double(t.float_value);
        SetPos(e.get(), t);
        return e;
      }
      case TokenType::kStringLiteral: {
        Advance();
        auto e = std::make_unique<AstExpr>();
        e->kind = AstExprKind::kLiteral;
        e->literal = Value::String(t.text);
        SetPos(e.get(), t);
        return e;
      }
      case TokenType::kLParen: {
        Advance();
        DC_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
        DC_RETURN_NOT_OK(ExpectToken(TokenType::kRParen));
        return e;
      }
      case TokenType::kIdentifier:
        break;  // handled below
      default:
        return Err("unexpected token '" + DescribeCurrent() +
                   "' in expression")
            .status();
    }
    // true/false/null literals.
    if (MatchKeyword("true")) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kLiteral;
      e->literal = Value::Bool(true);
      SetPos(e.get(), t);
      return e;
    }
    if (MatchKeyword("false")) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kLiteral;
      e->literal = Value::Bool(false);
      SetPos(e.get(), t);
      return e;
    }
    if (MatchKeyword("null")) {
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kLiteral;
      e->literal = Value::Null();
      SetPos(e.get(), t);
      return e;
    }
    // Searched CASE expression.
    if (PeekKeyword("case")) {
      Advance();
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kCase;
      SetPos(e.get(), t);
      if (!PeekKeyword("when")) {
        return Err("only the searched CASE form (CASE WHEN ...) is supported")
            .status();
      }
      while (MatchKeyword("when")) {
        DC_ASSIGN_OR_RETURN(AstExprPtr cond, ParseExpr());
        DC_RETURN_NOT_OK(ExpectKeyword("then"));
        DC_ASSIGN_OR_RETURN(AstExprPtr val, ParseExpr());
        e->children.push_back(std::move(cond));
        e->children.push_back(std::move(val));
      }
      DC_RETURN_NOT_OK(ExpectKeyword("else"));
      DC_ASSIGN_OR_RETURN(AstExprPtr other, ParseExpr());
      e->children.push_back(std::move(other));
      DC_RETURN_NOT_OK(ExpectKeyword("end"));
      return e;
    }
    // Function call: aggregates and built-in scalar functions.
    if (Peek(1).type == TokenType::kLParen &&
        (IsAggregateName(t.text) || IsScalarFuncName(t.text))) {
      std::string fname = ToLower(Advance().text);
      Advance();  // '('
      auto e = std::make_unique<AstExpr>();
      e->kind = AstExprKind::kFuncCall;
      e->func_name = std::move(fname);
      SetPos(e.get(), t);
      if (Peek().type == TokenType::kStar) {
        Advance();
        e->star = true;
      } else {
        DC_ASSIGN_OR_RETURN(AstExprPtr arg, ParseExpr());
        e->children.push_back(std::move(arg));
      }
      DC_RETURN_NOT_OK(ExpectToken(TokenType::kRParen));
      return e;
    }
    // Column reference: name or qualifier.name.
    if (IsReserved(t.text)) {
      return Err("unexpected keyword '" + t.text + "' in expression")
          .status();
    }
    std::string first = Advance().text;
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kColumnRef;
    SetPos(e.get(), t);
    if (MatchToken(TokenType::kDot)) {
      DC_ASSIGN_OR_RETURN(e->column, ExpectName());
      e->qualifier = std::move(first);
    } else {
      e->column = std::move(first);
    }
    return e;
  }

  static void SetPos(AstExpr* e, const Token& t) {
    e->line = t.line;
    e->col = t.col;
  }

  static AstExprPtr MakeNot(AstExprPtr operand) {
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kUnary;
    e->unary_op = AstUnaryOp::kNot;
    e->line = operand->line;
    e->col = operand->col;
    e->children.push_back(std::move(operand));
    return e;
  }

  static AstExprPtr MakeBinary(AstBinaryOp op, AstExprPtr l, AstExprPtr r) {
    auto e = std::make_unique<AstExpr>();
    e->kind = AstExprKind::kBinary;
    e->binary_op = op;
    // A compound expression is pinned at its left operand — close enough
    // for diagnostics and stable under desugaring (BETWEEN/IN clones).
    e->line = l->line;
    e->col = l->col;
    e->children.push_back(std::move(l));
    e->children.push_back(std::move(r));
    return e;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(std::string_view sql) {
  DC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<std::vector<Statement>> ParseScript(std::string_view sql) {
  DC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  return parser.ParseScript();
}

namespace {
constexpr std::string_view kWatch = "\\watch ";
}  // namespace

std::vector<ScriptPiece> SplitScript(std::string_view script) {
  std::vector<ScriptPiece> out;
  const size_t n = script.size();
  size_t i = 0;
  uint32_t line = 1;
  auto at_comment = [&] {
    return script[i] == '-' && i + 1 < n && script[i + 1] == '-';
  };
  auto to_line_end = [&] { i = std::min(script.find('\n', i), n); };
  auto step = [&] { line += script[i++] == '\n' ? 1u : 0u; };
  while (true) {
    // Whitespace and comments between pieces belong to no piece.
    while (i < n && (at_comment() ||
                     std::isspace(static_cast<unsigned char>(script[i])))) {
      if (at_comment()) {
        to_line_end();
      } else {
        step();
      }
    }
    if (i == n) return out;
    const size_t start = i;
    ScriptPiece piece;
    piece.line = line;
    if (script[i] == '\\' && !StartsWith(script.substr(i), kWatch)) {
      to_line_end();
    } else {
      while (i < n && script[i] != ';') {
        if (at_comment()) {
          to_line_end();
          continue;
        }
        if (script[i] == '\'') {
          // A '' escape closes the literal and reopens it at once.
          for (step(); i < n && script[i] != '\'';) step();
        }
        if (i < n) step();
      }
    }
    piece.terminated = i < n;
    piece.text = Trim(script.substr(start, i - start));
    if (!piece.text.empty()) out.push_back(piece);  // not a bare ';'
    if (i < n && script[i] == ';') ++i;
  }
}

std::optional<std::pair<std::string, std::string>> SplitWatch(
    std::string_view text) {
  if (!StartsWith(text, kWatch)) return std::nullopt;
  const std::string_view rest = Trim(text.substr(kWatch.size()));
  const size_t name_end =
      std::min(rest.find_first_of(" \t\r\n"), rest.size());
  return std::make_pair(std::string(rest.substr(0, name_end)),
                        std::string(Trim(rest.substr(name_end))));
}

}  // namespace sql
}  // namespace datacell
