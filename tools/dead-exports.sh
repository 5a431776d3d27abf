#!/usr/bin/env bash
# Lists every exported value that no other file uses, and fails if there
# is any. For each `val NAME` in lib/**/*.mli (module M, from the file
# name), a use is another .ml file under lib, bin, bench, hgbench, test
# or examples that mentions `M.NAME` or `A.NAME` for a module alias
# `module A = ....M`, or that opens or includes M and mentions NAME. A
# mention inside an OCaml comment is not a use: the search runs over
# copies of the sources with every comment blanked. A name used only
# inside its own module belongs in its .ml alone; a name used nowhere
# belongs nowhere. No name is exempt.
# Run from the root of a checkout:
#   bash tools/dead-exports.sh
set -euo pipefail

# Blank out OCaml comments (nested, and with the string literals inside
# them lexed as OCaml does), keeping string and quoted-string literals
# and every line break.
strip_comments() {
  awk -v q="'" '
    function emit(s) { out = out (depth ? sprintf("%" length(s) "s", "") : s) }
    {
      out = ""; line = $0; n = length(line); i = 1
      while (i <= n) {
        c = substr(line, i, 1); c2 = substr(line, i, 2)
        if (quoted) {
          if (c2 == "|}") { quoted = 0; emit(c2); i += 2 } else { emit(c); i++ }
        } else if (instr) {
          if (c == "\\") { emit(c2); i += 2 }
          else { if (c == "\"") instr = 0; emit(c); i++ }
        } else if (c2 == "(*") { depth++; emit("  "); i += 2 }
        else if (depth && c2 == "*)") { emit("  "); depth--; i += 2 }
        else if (c == "\"") { instr = 1; emit(c); i++ }
        else if (!depth && c2 == "{|") { quoted = 1; emit(c2); i += 2 }
        else if (c == q && substr(line, i + 2, 1) == q && substr(line, i + 1, 1) != "\\") {
          emit(substr(line, i, 3)); i += 3
        } else if (c2 == q "\\" && substr(line, i + 3, 1) == q) { emit(substr(line, i, 4)); i += 4 }
        else { emit(c); i++ }
      }
      print out
    }'
}

stripped=$(mktemp -d)
trap 'rm -rf "$stripped"' EXIT
mapfile -t sources < <(find lib bin bench hgbench test examples -name '*.ml' \
  -not -path '*/_build/*' | sort)
for f in "${sources[@]}"; do
  mkdir -p "$stripped/$(dirname "$f")"
  strip_comments < "$f" > "$stripped/$f"
done

id='[A-Z][A-Za-z0-9_]*'
dead=0
while IFS= read -r mli; do
  own="${mli%.mli}.ml"
  base=$(basename "$mli" .mli)
  m="$(printf '%s' "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  others=()
  for f in "${sources[@]}"; do
    [ "$f" = "$own" ] || others+=("$stripped/$f")
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
