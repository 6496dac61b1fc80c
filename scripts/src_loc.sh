#!/usr/bin/env bash
# Line count of the .cc/.h files under src/ at two revisions, and the
# difference.
#
#   scripts/src_loc.sh BASE [HEAD]
#
# BASE and HEAD are any git revisions. Without HEAD the second count is the
# working tree (tracked and untracked, not ignored files), so a change can be
# measured before it is committed.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BASE [HEAD]" >&2
  exit 2
fi

# Sums git grep's per-file counts of lines matching the empty pattern, that
# is, of all lines. Arguments: a revision, or --untracked for the working
# tree.
count() {
  local where=("$1")
  local opts=()
  if [ "$1" = "--untracked" ]; then
    opts=(--untracked)
    where=()
  fi
  git grep "${opts[@]}" -c -e '' "${where[@]}" -- 'src/*.cc' 'src/*.h' |
    awk -F: '{ n += $NF } END { print n + 0 }'
}

base_rev=$(git rev-parse --short "$1^{commit}")
base=$(count "$base_rev")
if [ $# -eq 2 ]; then
  head_name=$(git rev-parse --short "$2^{commit}")
  head=$(count "$head_name")
else
  head_name="working tree"
  head=$(count --untracked)
fi

printf 'src/ .cc/.h lines at %s: %d\n' "$base_rev" "$base"
printf 'src/ .cc/.h lines at %s: %d\n' "$head_name" "$head"
printf 'difference: %+d\n' "$((head - base))"
