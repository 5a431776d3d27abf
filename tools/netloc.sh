#!/usr/bin/env bash
# Net line count of the library code against a base commit:
#   bash tools/netloc.sh BASE
# Sums `git diff --numstat BASE` over the .ml and .mli files under lib/
# (BASE against the working tree, so staged new files count) and prints
# one line per changed file, then the lines added, removed and net.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi

git diff --numstat "$1" -- 'lib/*.ml' 'lib/*.mli' |
  awk -F'\t' '
    { printf "%6s %6s  %s\n", "+" $1, "-" $2, $3; added += $1; removed += $2 }
    END { printf "lib .ml/.mli: added %d, removed %d, net %+d\n", added, removed, added - removed }'
