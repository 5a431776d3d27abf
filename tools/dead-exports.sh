#!/usr/bin/env bash
# Lists every exported value that no other file uses, and fails if there
# is any. For each `val NAME` in lib/**/*.mli (module M, from the file
# name), a use is another .ml file under lib, bin, bench, hgbench, test
# or examples that mentions `M.NAME` or `A.NAME` for a module alias
# `module A = ....M`, or that opens or includes M and mentions NAME. A
# name used only inside its own module belongs in its .ml alone; a name
# used nowhere belongs nowhere. No name is exempt.
# Run from the root of a checkout:
#   bash tools/dead-exports.sh
set -euo pipefail

mapfile -t sources < <(find lib bin bench hgbench test examples -name '*.ml' \
  -not -path '*/_build/*' | sort)

id='[A-Z][A-Za-z0-9_]*'
dead=0
while IFS= read -r mli; do
  own="${mli%.mli}.ml"
  base=$(basename "$mli" .mli)
  m="$(printf '%s' "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  others=()
  for f in "${sources[@]}"; do
    [ "$f" = "$own" ] || others+=("$f")
  done
  # the qualifiers other files give M (M itself and its aliases), and
  # the files that name M's values unqualified
  mapfile -t quals < <({ echo "$m"; sed -nE \
    "s/.*module +($id) *= *($id\.)*$m\b.*/\1/p" "${others[@]}"; } | sort -u)
  mapfile -t openers < <(grep -lE \
    "((open!?|include) +($id\.)*$m\b|\b$m\.\()" "${others[@]}" || true)
  while IFS= read -r name; do
    used=0
    for q in "${quals[@]}"; do
      if grep -qwF "$q.$name" "${others[@]}"; then used=1; break; fi
    done
    if [ "$used" -eq 0 ] && [ "${#openers[@]}" -gt 0 ] \
      && grep -qw -- "$name" "${openers[@]}"; then
      used=1
    fi
    [ "$used" -eq 1 ] && continue
    echo "$mli: $m.$name"
    dead=$((dead + 1))
  done < <(sed -nE "s/^val ([a-z_][A-Za-z0-9_']*) *:.*/\1/p; s/^val ([a-z_][A-Za-z0-9_']*) *$/\1/p" "$mli")
done < <(find lib -name '*.mli' | sort)

if [ "$dead" -gt 0 ]; then
  echo "$dead exported value(s) with no use outside their module:" \
    "delete them, or drop them from the .mli" >&2
  exit 1
fi
