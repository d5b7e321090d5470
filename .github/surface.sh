#!/bin/sh
# Surface audit (grep/awk/find only), run by CI's lint_doc job from the
# repository root:
#
#   1. non-test lines of Rust per crate under crates/*/src (the
#      trailing `#[cfg(test)] mod tests` block of a file and the
#      oracle.rs reference implementations are not counted);
#   2. every `pub` item (fn, struct, enum, trait, type, const, static)
#      and every `pub` struct field of crates/*/src that has no reader,
#      and a non-zero exit when there is one.
#
# A reader is a mention of the item's or field's name, outside comments
# and `use` lists, in code that could not see it were it not `pub` or
# that runs in production: the non-test code of another source file of
# the workspace; anything under benchmark/, examples/, tests/ or
# crates/*/tests; the unit tests of another crate (as external to the
# defining crate as an integration test is). A type also counts as
# read when its own file names it outside its definition and impl
# headers: a `pub` signature that has a reader forces its types to be
# `pub`. A field gets no such exception: a field only its own file
# reads can be private, one only its own crate reads `pub(crate)`.
#
# What the script cannot see: matching is by name, with no notion of
# paths, types or method receivers. A short common name (`new`, `len`,
# `write`) is never reported, and neither is a method or field whose
# name another type also uses: `FaultPlan::on_read` had no caller, yet
# counted as read because `FaultFs::on_read` has one. Only `pub` items
# and `pub` fields are audited (not `pub mod`s, enum variants or
# `pub(crate)` items). So what is reported is certain, and what is not
# reported may still be unread.
set -eu

# The part of a file before its trailing test module (part=code) or
# from it on (part=tests); with strip=1, without comment lines and
# `use` lists.
part() {
  awk -v want="$1" -v strip="$2" '
    function emit(line) { if ((want == "tests") == (tests == 1)) print line }
    /^#\[cfg\(test\)\]/ { held = $0; next }
    held != "" { if ($0 ~ /^mod tests/) tests = 1; else emit(held); held = "" }
    strip && /^[[:space:]]*\/\// { next }
    strip && /^[[:space:]]*(pub(\([a-z]+\))? )?use / { in_use = 1 }
    in_use { if ($0 ~ /;/) in_use = 0; next }
    { emit($0) }
  ' "$3"
}

echo "non-test lines under crates/*/src:"
total=0
for d in crates/*; do
  n=$(find "$d/src" -name '*.rs' ! -name oracle.rs | while read -r f; do part code 0 "$f"; done | wc -l)
  echo "  $d $n"
  total=$((total + n))
done
echo "  total $total"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/code" "$tmp/tests"
find crates/*/src shims/*/src src -name '*.rs' | while read -r f; do
  flat=$(echo "$f" | tr / %)
  part code 1 "$f" > "$tmp/code/$flat"
  part tests 1 "$f" > "$tmp/tests/$flat"
done
find benchmark/src benchmark/tests examples tests crates/*/tests -name '*.rs' \
  -exec cat {} + > "$tmp/code/external"

# has_reader NAME OWN CRATE: NAME is mentioned in another file's code,
# or in the unit tests of another crate.
has_reader() {
  grep -lw -- "$1" "$tmp"/code/* | grep -qvxF "$2" ||
    grep -lw -- "$1" "$tmp"/tests/* | grep -qvF "/$3%"
}

unread=0
fields=0
for f in $(find crates/*/src -name '*.rs' ! -name oracle.rs); do
  own="$tmp/code/$(echo "$f" | tr / %)"
  crate=$(echo "$f" | cut -d/ -f1-2 | tr / %)
  for item in $(sed -nE 's/^[[:space:]]*pub (const |unsafe )*(fn|struct|enum|trait|type|const|static) ([A-Za-z_][A-Za-z0-9_]*).*/\2:\3/p' "$own"); do
    kind=${item%%:*}
    name=${item#*:}
    if has_reader "$name" "$own" "$crate"; then
      continue
    fi
    case "$kind" in struct | enum | trait | type)
      if grep -w -- "$name" "$own" |
        grep -qvE "^[[:space:]]*(pub $kind $name|impl)\b"; then
        continue
      fi
      ;;
    esac
    echo "no reader: $f: pub $kind $name"
    unread=$((unread + 1))
  done
  # `Struct:field` for every indented `pub field:` line, named after the
  # struct header above it.
  for item in $(awk '
    /^[[:space:]]*(pub(\([a-z]+\))? )?struct / {
      s = $0; sub(/.*struct /, "", s); sub(/[^A-Za-z0-9_].*/, "", s)
    }
    /^[[:space:]]+pub [a-z_][a-z0-9_]*:/ {
      n = $0; sub(/^[[:space:]]+pub /, "", n); sub(/:.*/, "", n); print s ":" n
    }' "$own"); do
    name=${item#*:}
    if has_reader "$name" "$own" "$crate"; then
      continue
    fi
    echo "no reader: $f: pub field ${item%%:*}::$name"
    fields=$((fields + 1))
  done
done
echo "pub items without a reader: $unread"
echo "pub fields without a reader: $fields"
[ "$unread" -eq 0 ] && [ "$fields" -eq 0 ]
