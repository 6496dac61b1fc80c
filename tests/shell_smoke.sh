#!/usr/bin/env bash
# Statement-splitting smoke for datacell_shell: pipes a script into the shell
# and checks that a ';' inside a string literal stays in the literal and that
# a \watch spanning two lines keeps its WHERE clause. A second run with
# --shards 2 checks that a merged query's merge runs in the frontend engine:
# its emitter shows in the `# frontend` section of \metrics.
#
#   tests/shell_smoke.sh build/examples/datacell_shell
set -euo pipefail

out=$(printf '%s\n' \
  "create table t (x int, label string);" \
  "insert into t values (1, 'a;b');" \
  "select label from t;" \
  "create basket s (x int, label string);" \
  "\\watch big select t.x, t.label from [select * from s] as t" \
  "  where t.x > 10;" \
  "insert into s values (50, 'hit'), (5, 'miss');" \
  "\\quit" | "$1")

fail() { printf '%s\n--- shell output ---\n%s\n' "$1" "$out"; exit 1; }
grep -qx 'a;b' <<<"$out" || fail "the literal 'a;b' was split"
grep -qF '[big] 50,hit' <<<"$out" || fail "the watched query delivered no hit"
! grep -qF '[big] 5,miss' <<<"$out" || fail "the WHERE line of \\watch was lost"
! grep -q 'error' <<<"$out" || fail "a statement failed"

out=$(printf '%s\n' \
  "create basket r (id int, temp double) partition by id;" \
  "\\watch mean select avg(temp) as m from [select * from r] as s;" \
  "insert into r values (1, 10.0), (2, 20.0);" \
  "\\metrics datacell_transition_fires" \
  "\\quit" | "$1" --shards 2)
grep -qF '[mean] 15,' <<<"$out" || fail "the merged avg was not delivered"
grep -qF '# frontend' <<<"$out" || fail "\\metrics printed no frontend section"
grep -qF 'transition="emitter_mean",kind="emitter"} 1' <<<"$out" \
  || fail "emitter_mean is missing from the frontend's \\metrics"
! grep -q 'error' <<<"$out" || fail "a sharded statement failed"
echo "shell smoke: ok"
