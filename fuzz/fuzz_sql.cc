// Fuzz harness for the SQL/expression parser (sql/parser.h): statements and
// scripts arrive from users and channels as untrusted text. The parser must
// either produce a statement or a ParseError — never crash, hang, or return
// a malformed AST.
//
// Contract checks on success: the statement renders back to text
// (AstExpr/statement ToString paths exercise the printer on every shape the
// parser can emit), and a rendered SELECT re-parses.
//
// Script contract: sql::SplitScript (the shell's and datacell-lint's
// splitter) agrees with ParseScript. When ParseScript accepts the input,
// the SQL pieces are exactly its statements, token for token and in order,
// and each piece parses alone with ParseStatement.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace {

void Check(bool cond, const char* what) {
  if (cond) return;
  std::fprintf(stderr, "fuzz_sql contract violated: %s\n", what);
  std::abort();
}

void ExerciseStatement(std::string_view input) {
  datacell::Result<datacell::sql::Statement> stmt =
      datacell::sql::ParseStatement(input);
  if (!stmt.ok()) {
    Check(stmt.status().code() == datacell::StatusCode::kParseError,
          "rejection must be a ParseError");
    return;
  }
  if (stmt->select != nullptr) {
    // The expression printer must handle every AST shape the parser can
    // build — walk all expressions the statement carries.
    const datacell::sql::SelectStmt& sel = *stmt->select;
    for (const auto& item : sel.items) {
      if (item.expr != nullptr) {
        Check(!item.expr->ToString().empty(), "select item renders empty");
      }
    }
    if (sel.where != nullptr) {
      Check(!sel.where->ToString().empty(), "where renders empty");
    }
    for (const auto& g : sel.group_by) {
      Check(!g->ToString().empty(), "group-by renders empty");
    }
    if (sel.having != nullptr) {
      Check(!sel.having->ToString().empty(), "having renders empty");
    }
    (void)sel.IsContinuous();  // recursive classification must terminate
  }
}

/// The token stream of `sql` without its trailing end-of-input token.
std::vector<datacell::Token> TokensOf(std::string_view sql) {
  auto tokens = datacell::Tokenize(sql);
  Check(tokens.ok(), "a piece of a parsed script must tokenize");
  tokens->pop_back();
  return std::move(*tokens);
}

/// `statements` is ParseScript's result for `input`, or null if it failed.
void ExerciseSplit(std::string_view input,
                   const std::vector<datacell::sql::Statement>* statements) {
  std::vector<datacell::sql::ScriptPiece> pieces =
      datacell::sql::SplitScript(input);
  for (size_t i = 0; i < pieces.size(); ++i) {
    const datacell::sql::ScriptPiece& p = pieces[i];
    Check(!p.text.empty(), "pieces are never empty");
    Check(p.text.data() >= input.data() &&
              p.text.data() + p.text.size() <= input.data() + input.size(),
          "a piece views the script");
    Check(p.terminated || i + 1 == pieces.size(),
          "only the last piece may be unterminated");
    if (i > 0) Check(p.line >= pieces[i - 1].line, "lines ascend");
  }
  if (statements == nullptr) return;
  Check(pieces.size() == statements->size(),
        "one SQL piece per ParseScript statement");
  // The script's statements are its token runs between top-level ';'.
  std::vector<datacell::Token> script = TokensOf(input);
  size_t at = 0;
  for (size_t i = 0; i < pieces.size(); ++i) {
    const datacell::sql::ScriptPiece& p = pieces[i];
    Check(!p.is_command(), "a parsed script holds no shell command");
    auto alone = datacell::sql::ParseStatement(p.text);
    Check(alone.ok(), "each piece parses alone");
    Check(alone->kind == (*statements)[i].kind,
          "a piece parses to its statement's kind");
    for (const datacell::Token& t : TokensOf(p.text)) {
      Check(at < script.size() && script[at].type == t.type &&
                script[at].text == t.text,
            "a piece's tokens are its statement's tokens");
      ++at;
    }
    Check(at == script.size() ||
              script[at++].type == datacell::TokenType::kSemicolon,
          "a piece ends where its statement does");
  }
  Check(at == script.size(), "the pieces cover every statement");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  // Cap pathological inputs: parsing is recursive-descent and the driver may
  // feed multi-megabyte blobs; parse time must stay bounded for the smoke.
  constexpr size_t kMaxLen = 1 << 16;
  if (size > kMaxLen) size = kMaxLen;
  std::string_view input(reinterpret_cast<const char*>(data), size);
  ExerciseStatement(input);
  // The script splitter has its own statement-boundary logic worth covering.
  auto script = datacell::sql::ParseScript(input);
  if (!script.ok()) {
    Check(script.status().code() == datacell::StatusCode::kParseError,
          "script rejection must be a ParseError");
  }
  ExerciseSplit(input, script.ok() ? &*script : nullptr);
  return 0;
}
