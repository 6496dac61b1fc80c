#ifndef DATACELL_SQL_PARSER_H_
#define DATACELL_SQL_PARSER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"

namespace datacell {
namespace sql {

/// Parses one SQL statement (a trailing ';' is allowed).
///
/// Supported statements:
///   SELECT [DISTINCT] items FROM ref [JOIN ref ON expr]...
///     [WHERE expr] [GROUP BY cols] [HAVING expr] [ORDER BY items]
///     [LIMIT n [OFFSET m]]
///     [WINDOW SIZE n [SLIDE m] | WINDOW RANGE n unit [SLIDE m unit]]
///     [THRESHOLD n]
///   CREATE TABLE|BASKET name (col type, ...)
///   INSERT INTO name [(cols)] VALUES (lits), ...
///   DROP TABLE|BASKET name
///
/// A FROM ref is a relation name or a DataCell basket expression
/// `[select ...] AS alias` (§2.6).
Result<Statement> ParseStatement(std::string_view sql);

/// Parses a script of ';'-separated statements.
Result<std::vector<Statement>> ParseScript(std::string_view sql);

/// One statement or shell command of a script, as cut by SplitScript.
struct ScriptPiece {
  /// From the piece's first non-blank, non-comment character up to its
  /// terminator (exclusive), trailing whitespace trimmed. Views the script.
  std::string_view text;
  /// 1-based script line of the first character of `text`.
  uint32_t line = 1;
  /// False for a trailing piece the script ends inside of.
  bool terminated = false;

  bool is_command() const { return text.front() == '\\'; }
};

/// Splits a script in the shell dialect into statements and commands. SQL
/// statements and `\watch <name> <sql>` end at a ';' outside '...' literals
/// ('' escapes a quote) and outside `--` comments, the lexer's rules; any
/// other `\` command ends at the end of its line. Pieces holding only
/// whitespace and comments are dropped.
std::vector<ScriptPiece> SplitScript(std::string_view script);

/// The query name and SQL text of a `\watch <name> <sql>` piece; nullopt
/// for any other piece.
std::optional<std::pair<std::string, std::string>> SplitWatch(
    std::string_view text);

}  // namespace sql
}  // namespace datacell

#endif  // DATACELL_SQL_PARSER_H_
