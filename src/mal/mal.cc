#include "mal/mal.h"

#include <cctype>

#include "algebra/operators.h"
#include "common/check.h"
#include "common/string_util.h"

namespace datacell {
namespace mal {

namespace {

Status ParseErrorAt(int line, const std::string& msg) {
  return Status::ParseError("line " + std::to_string(line) + ": " + msg);
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses one argument from `s` at `*pos`.
Result<Instruction::Arg> ParseArg(const std::string& s, size_t* pos, int line) {
  Instruction::Arg arg;
  size_t i = *pos;
  if (i >= s.size()) return ParseErrorAt(line, "missing argument");
  if (s[i] == '"') {
    ++i;
    std::string text;
    while (i < s.size() && s[i] != '"') text.push_back(s[i++]);
    if (i >= s.size()) return ParseErrorAt(line, "unterminated string");
    ++i;
    arg.kind = Instruction::Arg::Kind::kString;
    arg.text = std::move(text);
    *pos = i;
    return arg;
  }
  if (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
      s[i] == '.') {
    size_t start = i;
    if (s[i] == '-') ++i;
    bool is_float = false;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' ||
            ((s[i] == '+' || s[i] == '-') &&
             (s[i - 1] == 'e' || s[i - 1] == 'E')))) {
      if (s[i] == '.' || s[i] == 'e' || s[i] == 'E') is_float = true;
      ++i;
    }
    std::string text = s.substr(start, i - start);
    if (is_float) {
      DC_ASSIGN_OR_RETURN(arg.float_value, ParseDouble(text));
      arg.kind = Instruction::Arg::Kind::kFloat;
    } else {
      DC_ASSIGN_OR_RETURN(arg.int_value, ParseInt64(text));
      arg.kind = Instruction::Arg::Kind::kInt;
    }
    arg.text = std::move(text);
    *pos = i;
    return arg;
  }
  if (IsIdentChar(s[i])) {
    size_t start = i;
    while (i < s.size() && IsIdentChar(s[i])) ++i;
    arg.kind = Instruction::Arg::Kind::kVariable;
    arg.text = s.substr(start, i - start);
    *pos = i;
    return arg;
  }
  return ParseErrorAt(line, std::string("unexpected character '") + s[i] + "'");
}

void SkipSpace(const std::string& s, size_t* pos) {
  while (*pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[*pos]))) {
    ++*pos;
  }
}

}  // namespace

Result<ProgramPtr> Program::Parse(const std::string& text) {
  auto program = std::make_shared<Program>(Program{});
  int line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string line(raw.substr(0, raw.find('#')));  // strip comments
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    std::string stmt(trimmed);
    if (stmt.back() == ';') stmt.pop_back();

    Instruction instr;
    instr.line = line_no;
    size_t pos = 0;
    SkipSpace(stmt, &pos);

    // Optional "var :=".
    size_t assign = stmt.find(":=");
    size_t callee_start = pos;
    if (assign != std::string::npos) {
      std::string lhs(Trim(stmt.substr(0, assign)));
      if (lhs.empty()) return ParseErrorAt(line_no, "empty assignment target");
      for (char c : lhs) {
        if (!IsIdentChar(c)) {
          return ParseErrorAt(line_no, "bad variable name '" + lhs + "'");
        }
      }
      instr.result = lhs;
      callee_start = assign + 2;
    }
    std::string rest(Trim(stmt.substr(callee_start)));

    // "module.fn(args)" or "suspend()".
    size_t paren = rest.find('(');
    if (paren == std::string::npos || rest.back() != ')') {
      return ParseErrorAt(line_no, "expected call syntax 'module.fn(...)'");
    }
    std::string callee(Trim(rest.substr(0, paren)));
    size_t dot = callee.find('.');
    if (dot == std::string::npos) {
      instr.function = callee;  // e.g. suspend
    } else {
      instr.module = callee.substr(0, dot);
      instr.function = callee.substr(dot + 1);
    }
    std::string args = rest.substr(paren + 1, rest.size() - paren - 2);
    size_t apos = 0;
    SkipSpace(args, &apos);
    while (apos < args.size()) {
      DC_ASSIGN_OR_RETURN(Instruction::Arg arg, ParseArg(args, &apos, line_no));
      instr.args.push_back(std::move(arg));
      SkipSpace(args, &apos);
      if (apos < args.size()) {
        if (args[apos] != ',') {
          return ParseErrorAt(line_no, "expected ',' between arguments");
        }
        ++apos;
        SkipSpace(args, &apos);
      }
    }
    program->instrs_.push_back(std::move(instr));
  }
  return ProgramPtr(program);
}

std::string Program::ToString() const {
  std::string out;
  for (const Instruction& i : instrs_) {
    if (!i.result.empty()) out += i.result + " := ";
    if (!i.module.empty()) out += i.module + ".";
    out += i.function + "(";
    for (size_t a = 0; a < i.args.size(); ++a) {
      if (a > 0) out += ", ";
      const auto& arg = i.args[a];
      if (arg.kind == Instruction::Arg::Kind::kString) {
        out += "\"" + arg.text + "\"";
      } else {
        out += arg.text;
      }
    }
    out += ");\n";
  }
  return out;
}

namespace {

/// Runtime value of a MAL variable.
using MalValue = std::variant<BasketPtr, TablePtr>;

struct Vm {
  const Program& program;
  Context* context;
  std::map<std::string, MalValue> vars;

  Status Fail(const Instruction& i, const std::string& msg) {
    return Status::InvalidArgument("line " + std::to_string(i.line) + " (" +
                                   i.module + "." + i.function + "): " + msg);
  }

  Result<MalValue> Lookup(const Instruction& i, const Instruction::Arg& a) {
    if (a.kind != Instruction::Arg::Kind::kVariable) {
      return Fail(i, "expected a variable argument");
    }
    auto it = vars.find(a.text);
    if (it == vars.end()) {
      return Fail(i, "unknown variable '" + a.text + "'");
    }
    return it->second;
  }

  Result<BasketPtr> BasketArg(const Instruction& i, size_t idx) {
    if (idx >= i.args.size()) return Fail(i, "missing argument");
    DC_ASSIGN_OR_RETURN(MalValue v, Lookup(i, i.args[idx]));
    if (!std::holds_alternative<BasketPtr>(v)) {
      return Fail(i, "argument " + std::to_string(idx) + " is not a basket");
    }
    return std::get<BasketPtr>(v);
  }

  Result<TablePtr> TableArg(const Instruction& i, size_t idx) {
    if (idx >= i.args.size()) return Fail(i, "missing argument");
    DC_ASSIGN_OR_RETURN(MalValue v, Lookup(i, i.args[idx]));
    if (std::holds_alternative<TablePtr>(v)) return std::get<TablePtr>(v);
    // A basket in a table position reads as a snapshot (inspection).
    return std::get<BasketPtr>(v)->PeekSnapshot();
  }

  Result<std::string> StringArg(const Instruction& i, size_t idx) {
    if (idx >= i.args.size()) return Fail(i, "missing argument");
    if (i.args[idx].kind != Instruction::Arg::Kind::kString) {
      return Fail(i, "argument " + std::to_string(idx) + " must be a string");
    }
    return i.args[idx].text;
  }

  Result<size_t> ColumnIndex(const Instruction& i, const Table& t,
                             const std::string& name) {
    auto idx = t.schema().IndexOf(name);
    if (!idx.has_value()) {
      return Fail(i, "no column '" + name + "'");
    }
    return *idx;
  }

  Status Assign(const Instruction& i, MalValue v) {
    if (i.result.empty()) {
      return Fail(i, "this operation produces a result; assign it");
    }
    vars[i.result] = std::move(v);
    return Status::OK();
  }

  Result<bool> Execute(const Instruction& i);  // true = suspend reached
};

Result<bool> Vm::Execute(const Instruction& i) {
  const std::string& m = i.module;
  const std::string& f = i.function;
  if (m.empty() && f == "suspend") return true;

  if (m == "basket") {
    if (f == "bind") {
      DC_ASSIGN_OR_RETURN(std::string name, StringArg(i, 0));
      auto it = context->baskets.find(name);
      if (it == context->baskets.end()) {
        return Fail(i, "no basket '" + name + "' in the context");
      }
      DC_RETURN_NOT_OK(Assign(i, it->second));
      return false;
    }
    if (f == "peek" || f == "drain") {
      DC_ASSIGN_OR_RETURN(BasketPtr b, BasketArg(i, 0));
      DC_RETURN_NOT_OK(
          Assign(i, f == "peek" ? b->PeekSnapshot() : b->DrainAll()));
      return false;
    }
    if (f == "empty") {
      DC_ASSIGN_OR_RETURN(BasketPtr b, BasketArg(i, 0));
      b->DrainAll();
      return false;
    }
    if (f == "append") {
      DC_ASSIGN_OR_RETURN(BasketPtr b, BasketArg(i, 0));
      DC_ASSIGN_OR_RETURN(TablePtr t, TableArg(i, 1));
      DC_RETURN_NOT_OK(b->AppendTable(*t, std::nullopt));
      return false;
    }
    if (f == "lock" || f == "unlock") {
      // Accepted for Algorithm 1 fidelity; baskets are monitor-style, so
      // every operation is already atomic.
      DC_RETURN_NOT_OK(BasketArg(i, 0).status());
      return false;
    }
  }

  if (m == "algebra") {
    if (f == "select") {
      DC_ASSIGN_OR_RETURN(TablePtr t, TableArg(i, 0));
      DC_ASSIGN_OR_RETURN(std::string col, StringArg(i, 1));
      DC_ASSIGN_OR_RETURN(size_t c, ColumnIndex(i, *t, col));
      if (i.args.size() != 4) {
        return Fail(i, "algebra.select(t, \"col\", lo, hi)");
      }
      const Bat& b = *t->column(c);
      std::vector<size_t> positions;
      auto numeric = [](const Instruction::Arg& a) {
        return a.kind == Instruction::Arg::Kind::kFloat
                   ? a.float_value
                   : static_cast<double>(a.int_value);
      };
      if (b.type() == DataType::kDouble) {
        positions = SelectRangeDouble(b, numeric(i.args[2]), numeric(i.args[3]));
      } else if (IsIntegerBacked(b.type())) {
        positions = SelectRangeInt64(
            b, static_cast<int64_t>(numeric(i.args[2])),
            static_cast<int64_t>(numeric(i.args[3])));
      } else {
        return Fail(i, "select needs a numeric column");
      }
      DC_RETURN_NOT_OK(Assign(i, TablePtr(t->Take(positions))));
      return false;
    }
    if (f == "project") {
      DC_ASSIGN_OR_RETURN(TablePtr t, TableArg(i, 0));
      Schema schema;
      std::vector<size_t> cols;
      for (size_t a = 1; a < i.args.size(); ++a) {
        DC_ASSIGN_OR_RETURN(std::string col, StringArg(i, a));
        DC_ASSIGN_OR_RETURN(size_t c, ColumnIndex(i, *t, col));
        cols.push_back(c);
        schema.AddField(t->schema().field(c));
      }
      auto out = std::make_shared<Table>("", schema);
      for (size_t k = 0; k < cols.size(); ++k) {
        out->column(k)->AppendBat(*t->column(cols[k]));
      }
      DC_RETURN_NOT_OK(Assign(i, std::move(out)));
      return false;
    }
    if (f == "join") {
      DC_ASSIGN_OR_RETURN(TablePtr l, TableArg(i, 0));
      DC_ASSIGN_OR_RETURN(std::string lc, StringArg(i, 1));
      DC_ASSIGN_OR_RETURN(TablePtr r, TableArg(i, 2));
      DC_ASSIGN_OR_RETURN(std::string rc, StringArg(i, 3));
      DC_ASSIGN_OR_RETURN(size_t li, ColumnIndex(i, *l, lc));
      DC_ASSIGN_OR_RETURN(size_t ri, ColumnIndex(i, *r, rc));
      DC_ASSIGN_OR_RETURN(JoinResult jr,
                          HashJoin(*l->column(li), *r->column(ri)));
      Schema schema;
      for (const Field& fld : l->schema().fields()) schema.AddField(fld);
      for (const Field& fld : r->schema().fields()) schema.AddField(fld);
      auto out = std::make_shared<Table>("", schema);
      for (size_t c = 0; c < l->num_columns(); ++c) {
        out->column(c)->AppendPositions(*l->column(c), jr.left_positions);
      }
      for (size_t c = 0; c < r->num_columns(); ++c) {
        out->column(l->num_columns() + c)
            ->AppendPositions(*r->column(c), jr.right_positions);
      }
      DC_RETURN_NOT_OK(Assign(i, std::move(out)));
      return false;
    }
  }

  if (m == "aggr") {
    DC_ASSIGN_OR_RETURN(TablePtr t, TableArg(i, 0));
    AggFunc func;
    if (f == "count") {
      func = AggFunc::kCount;
    } else if (f == "sum") {
      func = AggFunc::kSum;
    } else if (f == "min") {
      func = AggFunc::kMin;
    } else if (f == "max") {
      func = AggFunc::kMax;
    } else if (f == "avg") {
      func = AggFunc::kAvg;
    } else {
      return Fail(i, "unknown aggregate '" + f + "'");
    }
    Value v;
    if (func == AggFunc::kCount && i.args.size() == 1) {
      v = Value::Int64(static_cast<int64_t>(t->num_rows()));
    } else {
      DC_ASSIGN_OR_RETURN(std::string col, StringArg(i, 1));
      DC_ASSIGN_OR_RETURN(size_t c, ColumnIndex(i, *t, col));
      DC_ASSIGN_OR_RETURN(AggPartial p, AggregateAll(*t->column(c), nullptr));
      v = p.Finalize(func);
    }
    Schema schema({{f, v.is_null() || v.is_double() ? DataType::kDouble
                                                    : DataType::kInt64}});
    auto out = std::make_shared<Table>("", schema);
    DC_RETURN_NOT_OK(out->AppendRow({v}));
    DC_RETURN_NOT_OK(Assign(i, std::move(out)));
    return false;
  }

  if (m == "io" && f == "print") {
    DC_ASSIGN_OR_RETURN(TablePtr t, TableArg(i, 0));
    context->printed.push_back(t->ToString());
    return false;
  }

  return Fail(i, "unknown operation");
}

}  // namespace

Status Run(const Program& program, Context* context) {
  Vm vm{program, context, {}};
  for (const Instruction& i : program.instructions()) {
    DC_ASSIGN_OR_RETURN(bool suspended, vm.Execute(i));
    if (suspended) break;
  }
  return Status::OK();
}

MalFactory::MalFactory(std::string name, ProgramPtr program, Context* context,
                       BasketPtr input, const Clock* clock)
    : Transition(std::move(name), TransitionKind::kFactory),
      program_(std::move(program)),
      context_(context),
      input_(std::move(input)),
      clock_(clock) {
  DC_CHECK(program_ != nullptr);
  DC_CHECK(context_ != nullptr);
  DC_CHECK(input_ != nullptr);
  DC_CHECK(clock_ != nullptr);
}

bool MalFactory::Ready() const { return !input_->empty(); }

int64_t MalFactory::Backlog() const {
  return static_cast<int64_t>(input_->size());
}

Result<int64_t> MalFactory::Fire() {
  Timestamp start = clock_->Now();
  int64_t waiting = static_cast<int64_t>(input_->size());
  DC_RETURN_NOT_OK(Run(*program_, context_));
  RecordRun(waiting, clock_->Now() - start);
  return waiting;
}

}  // namespace mal
}  // namespace datacell
