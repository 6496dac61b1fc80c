#!/usr/bin/env bash
# One-shot correctness gate: everything CI runs, runnable locally before a
# push. Fails on the first broken stage.
#
#   stage 1  format       clang-format --dry-run on src/ tests/ fuzz/ tools/
#   stage 2  series       every "datacell_ series name is spelled once, in
#                         src/core/engine_metrics.h (no literal elsewhere in
#                         src/, no name declared twice)
#   stage 3  werror       configure+build with -Wall -Wextra -Wconversion -Werror
#   stage 4  tidy         clang-tidy over src/ (compile_commands from stage 3;
#                         includes the clang-analyzer-* path-sensitive checks)
#   stage 5  cppcheck     cppcheck over src/ tools/ (second analyzer, different
#                         engine — catches what tidy's checks don't)
#   stage 6  sql-lint     datacell-lint over examples/sql (good corpus must
#                         pass, seeded-bad corpus must fail, partition demo
#                         shard plan (plain and on 4 live shards) and
#                         state-bound report must match their committed
#                         goldens, no bounded→unbounded drift)
#   stage 7  debug-checks full suite with DATACELL_DEBUG_CHECKS=ON
#                         (lock-order checker + DC_DCHECK invariants live)
#   stage 8  tsan         concurrency-, metrics-, executor-, observe-,
#                         shard- and differential-labelled tests under TSan
#   stage 9  asan+ubsan   full suite under address,undefined
#
# Tool-dependent stages (format, tidy, cppcheck) are SKIPPED with a notice
# when the binary is not installed — a gcc-only box still runs every compiled
# stage.
# Environment knobs:
#   JOBS=N          parallel build jobs (default: nproc)
#   SKIP_SANITIZERS=1   stop before the sanitizer stages (quick pre-commit loop)
#   BUILD_ROOT=dir  where the gate builds go (default: build-check)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD_ROOT="${BUILD_ROOT:-build-check}"
FAILED=0

note()  { printf '\n==> %s\n' "$*"; }
skip()  { printf '\n==> SKIP: %s\n' "$*"; }

# --- stage 1: formatting (check-only) --------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  note "clang-format (check only)"
  # shellcheck disable=SC2046
  clang-format --dry-run --Werror \
    $(find src tests fuzz tools -name '*.cc' -o -name '*.h' -o -name '*.cpp') \
    || { echo "clang-format: run 'clang-format -i' on the files above"; exit 1; }
else
  skip "clang-format not installed; formatting not checked"
fi

# --- stage 2: series names declared once ------------------------------------
note "series names (\"datacell_ literals only in src/core/engine_metrics.h)"
if grep -rn '"datacell_' src/ | grep -v '^src/core/engine_metrics.h:'; then
  echo "series names: declare them in src/core/engine_metrics.h"; exit 1
fi
dups=$(grep -o '"datacell_[a-z0-9_]*"' src/core/engine_metrics.h | sort | uniq -d)
if [ -n "$dups" ]; then
  echo "series names declared twice: $dups"; exit 1
fi

# --- stage 3: warnings-as-errors build -------------------------------------
note "Werror build (-Wall -Wextra -Wconversion -Werror on src/)"
cmake -B "$BUILD_ROOT/werror" -S . \
      -DCMAKE_BUILD_TYPE=Release -DDATACELL_WERROR=ON \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build "$BUILD_ROOT/werror" -j "$JOBS"

# --- stage 4: clang-tidy ----------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  note "clang-tidy (src/)"
  # shellcheck disable=SC2046
  clang-tidy -p "$BUILD_ROOT/werror" --quiet \
    $(find src -name '*.cc')
else
  skip "clang-tidy not installed; static analysis not run"
fi

# --- stage 5: cppcheck -------------------------------------------------------
if command -v cppcheck >/dev/null 2>&1; then
  note "cppcheck (src/ tools/)"
  # --error-exitcode makes findings fail the gate; the inline-suppression
  # escape hatch is `// cppcheck-suppress <id>` at the offending line.
  cppcheck --enable=warning,performance,portability --inline-suppr \
    --std=c++20 --language=c++ --error-exitcode=1 --quiet \
    --suppress=missingIncludeSystem -I src \
    src tools
else
  skip "cppcheck not installed; second static analyzer not run"
fi

# --- stage 6: datacell-lint over the SQL corpus ------------------------------
note "datacell-lint (examples/sql)"
cmake --build "$BUILD_ROOT/werror" -j "$JOBS" --target datacell-lint
"$BUILD_ROOT/werror/tools/datacell-lint" examples/sql/*.sql
if "$BUILD_ROOT/werror/tools/datacell-lint" examples/sql/bad/*.sql 2>/dev/null; then
  echo "datacell-lint: seeded-bad corpus unexpectedly passed"; exit 1
fi
# The shard plan for the partition demo is a committed artifact: regenerate
# and diff, so analyzer drift shows up as a reviewable golden change.
"$BUILD_ROOT/werror/tools/datacell-lint" \
  --partition-report "$BUILD_ROOT/partition_demo.report.json" \
  examples/sql/partition_demo.sql 2>/dev/null
diff -u examples/sql/partition_report.golden.json \
  "$BUILD_ROOT/partition_demo.report.json"
# The same demo replayed on a live 4-shard engine pins each query's placement
# (concat, frontend merge or rejection), so a change to the sharded executor
# that moves a query shows up as a golden diff.
"$BUILD_ROOT/werror/tools/datacell-lint" --shards 4 \
  --partition-report "$BUILD_ROOT/partition_demo.shards4.report.json" \
  examples/sql/partition_demo.sql >/dev/null 2>&1
diff -u examples/sql/partition_report.shards4.golden.json \
  "$BUILD_ROOT/partition_demo.shards4.report.json"
# Same contract for the pass-4 state bounds: the per-query memory-bound
# verdicts over the demo corpus are a committed artifact.
"$BUILD_ROOT/werror/tools/datacell-lint" \
  --state-report "$BUILD_ROOT/state_demo.report.json" \
  examples/sql/partition_demo.sql 2>/dev/null
diff -u examples/sql/state_report.golden.json \
  "$BUILD_ROOT/state_demo.report.json"
# Verdict-drift guard: a golden diff is reviewable, but a committed example
# silently regressing from a bounded class to unbounded is a hard failure
# even if someone regenerates the golden in the same change.
python3 - examples/sql/state_report.golden.json \
  "$BUILD_ROOT/state_demo.report.json" <<'PYEOF'
import json, sys
golden = {e["query"]: e["state"]["verdict"] for e in json.load(open(sys.argv[1]))}
fresh = {e["query"]: e["state"]["verdict"] for e in json.load(open(sys.argv[2]))}
drift = [q for q, v in golden.items()
         if v != "unbounded" and fresh.get(q, v) == "unbounded"]
if drift:
    print("state-bound drift: bounded queries became unbounded:", ", ".join(drift))
    sys.exit(1)
PYEOF

# --- stage 7: full suite with debug checks live -----------------------------
note "full test suite with DATACELL_DEBUG_CHECKS=ON"
cmake -B "$BUILD_ROOT/dbg" -S . \
      -DCMAKE_BUILD_TYPE=Debug -DDATACELL_DEBUG_CHECKS=ON >/dev/null
cmake --build "$BUILD_ROOT/dbg" -j "$JOBS"
ctest --test-dir "$BUILD_ROOT/dbg" -j "$JOBS" --output-on-failure

if [ "${SKIP_SANITIZERS:-0}" = "1" ]; then
  note "SKIP_SANITIZERS=1: stopping before sanitizer stages"
  exit 0
fi

# --- stage 8: TSan on the concurrent paths ----------------------------------
note "TSan: concurrency + metrics + executor + observe + shard + differential tests"
cmake -B "$BUILD_ROOT/tsan" -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo -DDATACELL_SANITIZE=thread >/dev/null
cmake --build "$BUILD_ROOT/tsan" -j "$JOBS"
ctest --test-dir "$BUILD_ROOT/tsan" -j "$JOBS" \
      -L 'concurrency|metrics|executor|observe|shard|differential' \
      --output-on-failure

# --- stage 9: ASan + UBSan on everything ------------------------------------
note "ASan+UBSan: full suite"
cmake -B "$BUILD_ROOT/asan" -S . \
      -DCMAKE_BUILD_TYPE=Debug -DDATACELL_SANITIZE=address,undefined >/dev/null
cmake --build "$BUILD_ROOT/asan" -j "$JOBS"
ctest --test-dir "$BUILD_ROOT/asan" -j "$JOBS" --output-on-failure

note "all gates passed"
