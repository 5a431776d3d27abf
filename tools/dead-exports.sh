#!/usr/bin/env bash
# Checks that lib's interfaces export only what other files use.
# Run from the root of a checkout:
#   bash tools/dead-exports.sh
#
# Fails on two kinds of exported name (module M, from the .mli's name):
# - a `val NAME` in lib/**/*.mli that no other file uses. A use is
#   another .ml file under lib, bin, bench, hgbench, test or examples
#   that mentions `M.NAME` or `A.NAME` for a module alias
#   `module A = ....M`, or that opens or includes M and mentions NAME;
# - a `type NAME` there that no other .ml or .mli file names (as
#   `M.NAME`, `A.NAME` or NAME in a file that opens M, or by one of its
#   record fields or constructors), and that no other declaration in
#   its own .mli mentions.
# A name used only inside its own module belongs in its .ml alone; a
# name used nowhere belongs nowhere.
# It also prints two reports that do not fail:
# - exported record fields and constructors (exceptions included) that
#   no other file mentions. A field cannot leave the .mli while its
#   record stays exported, so this is a worklist, not a gate;
# - exported values that only files under test/ use. "Production" is
#   lib, bin, bench, hgbench and examples. A test may still need such a
#   value to build inputs, observe state or compare against a reference.
# A mention inside an OCaml comment is not a use: the search runs over
# copies of the sources with every comment blanked. Modules are told
# apart by file name, so it also fails when two .ml files under lib/ or
# hgbench/src/ share a file name, unless all but one of them are a
# single line that includes the other (lib/bench/json.ml is
# `include Homeguard_rules.Json`); such a pair shares its uses. No name
# is exempt.
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

# Reads a comment-blanked .mli; prints one tab-separated line per
# exported type (`type NAME FIRST LAST`, its line span), record field
# (`field TYPE NAME`) and constructor (`ctor TYPE NAME`; an exception's
# TYPE is `exn`).
type_decls() {
  awk '
    function flush(   body, rest, f, c) {
      if (name == "") return
      printf "type\t%s\t%d\t%d\n", name, first, last
      body = text; sub(/^[^=]*=/, "=", body)
      rest = body
      while (match(rest, /[{;] *(mutable +)?[a-z_][A-Za-z0-9_'"'"']* *:/)) {
        f = substr(rest, RSTART + 1, RLENGTH - 2); sub(/^ *(mutable +)?/, "", f); sub(/ *$/, "", f)
        printf "field\t%s\t%s\n", name, f; rest = substr(rest, RSTART + RLENGTH)
      }
      rest = body
      while (match(rest, /[=|] *[A-Z][A-Za-z0-9_'"'"']*/)) {
        c = substr(rest, RSTART + 1, RLENGTH - 1); sub(/^ */, "", c)
        rest = substr(rest, RSTART + RLENGTH)
        if (substr(rest, 1, 1) != ".") printf "ctor\t%s\t%s\n", name, c
      }
      name = ""
    }
    /^(val|type|and|exception|module|external|include|open|class) / { flush() }
    /^(type|and) / {
      s = $0; sub(/^(type|and) +(nonrec +)?/, "", s)
      sub(/^('"'"'[a-z_]+|\([^)]*\)) +/, "", s)
      match(s, /^[a-z_][A-Za-z0-9_'"'"']*/); name = substr(s, 1, RLENGTH)
      first = NR; text = ""
    }
    /^exception / { s = $0; sub(/^exception +/, "", s); match(s, /^[A-Z][A-Za-z0-9_'"'"']*/)
      printf "ctor\texn\t%s\n", substr(s, 1, RLENGTH) }
    name != "" { text = text " " $0; if ($0 ~ /[^ ]/) last = NR }
    END { flush() }'
}

stripped=$(mktemp -d) unnamed=$(mktemp) test_only=$(mktemp)
trap 'rm -rf "$stripped" "$unnamed" "$test_only"' EXIT
mapfile -t sources < <(find lib bin bench hgbench test examples -name '*.ml' \
  -not -path '*/_build/*' | sort)
mapfile -t interfaces < <(find lib bin bench hgbench test examples -name '*.mli' \
  -not -path '*/_build/*' | sort)
for f in "${sources[@]}" "${interfaces[@]}"; do
  mkdir -p "$stripped/$(dirname "$f")"
  strip_comments < "$f" > "$stripped/$f"
done

# is M.$1 used in one of the files $2...? (reads quals and is_opener)
value_used() {
  local name=$1 q f openers=()
  shift
  for q in "${quals[@]}"; do
    if grep -qwF "$q.$name" "$@"; then return 0; fi
  done
  for f in "$@"; do [ -n "${is_opener[$f]:-}" ] && openers+=("$f"); done
  [ "${#openers[@]}" -gt 0 ] && grep -qw -- "$name" "${openers[@]}"
}

id='[A-Z][A-Za-z0-9_]*'
dead=0

# two modules of one file name, neither a one-line include of the other
while IFS= read -r file; do
  base=${file%.ml}
  m="$(printf '%s' "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  own=()
  while IFS= read -r f; do
    [ "$(grep -c '' "$f")" = 1 ] && grep -qxE "include +($id\.)*$m *" "$f" && continue
    own+=("$f")
  done < <(find lib hgbench/src -name "$file" -not -path '*/_build/*' | sort)
  if [ "${#own[@]}" -gt 1 ]; then
    echo "${own[*]}: modules of one name"
    dead=$((dead + 1))
  fi
done < <(find lib hgbench/src -name '*.ml' -not -path '*/_build/*' -printf '%f\n' |
  sort | uniq -d)
while IFS= read -r mli; do
  own="${mli%.mli}.ml"
  base=$(basename "$mli" .mli)
  m="$(printf '%s' "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  others=() prod=() all_others=()
  for f in "${sources[@]}"; do
    [ "$f" = "$own" ] && continue
    others+=("$stripped/$f") all_others+=("$stripped/$f")
    case "$f" in test/*) ;; *) prod+=("$stripped/$f") ;; esac
  done
  for f in "${interfaces[@]}"; do
    [ "$f" = "$mli" ] || all_others+=("$stripped/$f")
  done
  # the qualifiers other files give M (M itself and its aliases), and
  # the files that name M's names unqualified
  mapfile -t quals < <({ echo "$m"; sed -nE \
    "s/.*module +($id) *= *($id\.)*$m\b.*/\1/p" "${all_others[@]}"; } | sort -u)
  declare -A is_opener=()
  while IFS= read -r f; do is_opener[$f]=1; done < <(grep -lE \
    "((open!?|include) +($id\.)*$m\b|\b$m\.\()" "${all_others[@]}" || true)

  while IFS= read -r name; do
    if value_used "$name" "${others[@]}"; then
      value_used "$name" "${prod[@]}" || echo "$mli: $m.$name" >> "$test_only"
      continue
    fi
    echo "$mli: $m.$name"
    dead=$((dead + 1))
  done < <(sed -nE "s/^val ([a-z_][A-Za-z0-9_']*) *:.*/\1/p; s/^val ([a-z_][A-Za-z0-9_']*) *$/\1/p" "$mli")

  decls=$(type_decls < "$stripped/$mli")
  # the fields and constructors some other file mentions
  declare -A mentioned=()
  while IFS= read -r w; do mentioned[$w]=1; done < <(awk -F'\t' \
    '$1 == "field" || $1 == "ctor" { print $3 }' <<< "$decls" | grep -ohwF -f - "${all_others[@]}" || true)
  while IFS=$'\t' read -r kind ty name; do
    [ -n "${mentioned[$name]:-}" ] && continue
    if [ "$kind" = field ]; then echo "$mli: $m.$ty.$name"; else echo "$mli: $m.$name"; fi >> "$unnamed"
  done < <(grep -E '^(field|ctor)'$'\t' <<< "$decls" || true)
  while IFS=$'\t' read -r _ ty first last; do
    value_used "$ty" "${all_others[@]}" && continue
    for name in $(awk -F'\t' -v ty="$ty" '$1 != "type" && $2 == ty { print $3 }' <<< "$decls"); do
      [ -n "${mentioned[$name]:-}" ] && continue 2
    done
    rest=$(sed "${first},${last}d" "$stripped/$mli")
    grep -qP "(?<![.\w'~?])(?<!val )$ty(?![\w']| *:)" <<< "$rest" && continue
    echo "$mli: type $m.$ty"
    dead=$((dead + 1))
  done < <(grep $'^type\t' <<< "$decls" || true)
  unset is_opener mentioned
done < <(find lib -name '*.mli' | sort)

# a field shared by two inline records is listed once
fields=$(awk '!seen[$0]++' "$unnamed")
echo "-- report: exported fields and constructors no other file mentions" \
  "($(grep -c . <<< "$fields"), not a failure)"
[ -z "$fields" ] || echo "$fields"
echo "-- report: exported values only tests use ($(wc -l < "$test_only"), not a failure)"
cat "$test_only"
if [ "$dead" -gt 0 ]; then
  echo "$dead exported value(s) or type(s) with no use outside their module," \
    "or modules sharing a name: delete them, drop them from the .mli, or" \
    "rename one module" >&2
  exit 1
fi
