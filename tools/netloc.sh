#!/usr/bin/env bash
# Net line count of the OCaml code against a base commit:
#   bash tools/netloc.sh BASE
# Sums `git diff --numstat BASE` over the .ml and .mli files (BASE
# against the working tree, so staged new files count). Prints one line
# per changed file under lib/, then the lines added, removed and net for
# lib/, and one total line each for bench/, bin/ and test/. Last, four
# counts at BASE and in the working tree: the modules (the
# lib/**/*.ml files), the settable values (the `?label:` occurrences
# in lib/**/*.mli plus the fields of every `type config` record
# there), the exported values (`val` lines in lib/**/*.mli) and the
# length of tools/dead-exports.sh's report of values only tests use
# (this checkout's tool, run on both trees).
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BASE" >&2
  exit 2
fi

git diff --numstat "$1" -- 'lib/*.ml' 'lib/*.mli' |
  awk -F'\t' '
    { printf "%6s %6s  %s\n", "+" $1, "-" $2, $3; added += $1; removed += $2 }
    END { printf "lib .ml/.mli: added %d, removed %d, net %+d\n", added, removed, added - removed }'

for dir in bench bin test; do
  git diff --numstat "$1" -- "$dir/*.ml" "$dir/*.mli" |
    awk -F'\t' -v dir="$dir" '
      { added += $1; removed += $2 }
      END { printf "%s .ml/.mli: added %d, removed %d, net %+d\n", dir, added, removed, added - removed }'
done

# reads .mli text on stdin; prints "TOTAL (L labels + F config fields)"
settable() {
  awk '
    { rest = $0; while (match(rest, /\?[a-z_]+:/)) { labels++; rest = substr(rest, RSTART + RLENGTH) } }
    /^type config = \{/ { config = 1; next }
    config && /^\}/ { config = 0 }
    config && /^ *(mutable +)?[a-z_][A-Za-z0-9_]* *:/ { fields++ }
    END { printf "%d (%d labels + %d config fields)\n", labels + fields, labels, fields }'
}

base_mlis() {
  git ls-tree -r --name-only "$1" -- lib | grep '\.mli$' |
    while IFS= read -r f; do git show "$1:$f"; done
}

echo "modules: $1 $(git ls-tree -r --name-only "$1" -- lib | grep -c '\.ml$')," \
  "working tree $(find lib -name '*.ml' | wc -l)"

echo "settable values: $1 $(base_mlis "$1" | settable)," \
  "working tree $(find lib -name '*.mli' -exec cat {} + | settable)"

echo "exported values: $1 $(base_mlis "$1" | grep -c '^val ')," \
  "working tree $(find lib -name '*.mli' -exec cat {} + | grep -c '^val ')"

# the length of the test-only report of tools/dead-exports.sh, run from
# the root of a tree
test_only() {
  { bash "$tool" || true; } 2>/dev/null |
    sed -n 's/^-- report: exported values only tests use (\([0-9]*\),.*/\1/p'
}
tool=$(pwd)/tools/dead-exports.sh
base_tree=$(mktemp -d)
trap 'rm -rf "$base_tree"' EXIT
git archive "$1" | tar -x -C "$base_tree"
echo "values only tests use: $1 $(cd "$base_tree" && test_only)," \
  "working tree $(test_only)"
