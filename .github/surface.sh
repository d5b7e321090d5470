#!/bin/sh
# Surface audit (grep/awk/find only), run by CI's lint_doc job from the
# repository root:
#
#   1. non-test lines of Rust per crate under crates/*/src (the
#      trailing `#[cfg(test)] mod tests` block of a file and the
#      oracle.rs reference implementations are not counted);
#   2. every `pub` item (fn, struct, enum, trait, type, const, static)
#      and every `pub` struct field of crates/*/src that has no reader;
#   3. every `pub fn` of an `impl` block of crates/*/src that no reader
#      calls on its type, with path or method syntax;
#   4. every `pub mod` of crates/*/src that no reader refers to by path
#      (`name::`, in a `use` list too — it is how a module is named),
#      as a report only: a module read only through its crate's
#      re-exports could be private;
#
# and a non-zero exit when 2 or 3 finds one.
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
# A method `Type::name` is called by a reader that says `Type::name`
# (also as `Type::f(..).name(`), or that says `.name(` (or `.name::<`)
# when no other type of the workspace has a method of that name. When
# another type does, the receiver decides: an identifier the reader
# binds to `Type` (`x: ..Type`, `x = ..Type`) makes it a call; any other
# receiver does when the reader names `Type` and none of those other
# types, or names none of them but is in `Type`'s crate or names its
# package. `FaultPlan::on_read` once had no caller, yet counted as read
# because `fs.on_read()` in a file naming only `FaultFs` has one.
#
# What the script cannot see: matching is by name and file, with no
# notion of paths or types. A short common name (`new`, `len`, `write`)
# of an item or field is never reported; a method whose name only std
# types share (`.push(`) counts as called; an untyped receiver in a
# file that names none of a method's namesakes calls each of them whose
# crate the file sees. Only `pub` items, `pub` fields, `pub` methods of
# column-0 `impl` blocks and `pub mod`s are audited (not enum variants
# or `pub(crate)` items). So what is reported has no reader, except a
# method called only on untyped receivers in files that name another
# type with a method of its name; and what is not reported may still
# be unread.
set -eu

# The part of a file before its trailing test module (part=code) or
# from it on (part=tests); with strip=1, without comment lines and
# `use` lists; with strip=2, without comment lines.
part() {
  awk -v want="$1" -v strip="$2" '
    function emit(line) { if ((want == "tests") == (tests == 1)) print line }
    /^#\[cfg\(test\)\]/ { held = $0; next }
    held != "" { if ($0 ~ /^mod tests/) tests = 1; else emit(held); held = "" }
    strip && /^[[:space:]]*\/\// { next }
    strip == 1 && /^[[:space:]]*(pub(\([a-z]+\))? )?use / { in_use = 1 }
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
# $tmp/paths holds the same copies with their `use` lists, for 4.
mkdir -p "$tmp/code" "$tmp/tests" "$tmp/paths/code" "$tmp/paths/tests"
find crates/*/src shims/*/src src -name '*.rs' | while read -r f; do
  flat=$(echo "$f" | tr / %)
  part code 1 "$f" > "$tmp/code/$flat"
  part tests 1 "$f" > "$tmp/tests/$flat"
  part code 2 "$f" > "$tmp/paths/code/$flat"
  part tests 2 "$f" > "$tmp/paths/tests/$flat"
done
find benchmark/src benchmark/tests examples tests crates/*/tests -name '*.rs' |
  while read -r f; do
    flat=ext%$(echo "$f" | tr / %)
    { part code 1 "$f"; part tests 1 "$f"; } > "$tmp/code/$flat"
    { part code 2 "$f"; part tests 2 "$f"; } > "$tmp/paths/code/$flat"
  done

# `Type method` for every fn of a column-0 `impl` block (for
# `impl Trait for Type`, the type), with `pub` as a third word on the
# `pub` ones.
impl_fns() {
  awk '
    /^impl[ <]/ {
      h = substr($0, 5)
      if (h ~ /^</) {
        d = 0
        for (i = 1; i <= length(h); i++) {
          c = substr(h, i, 1)
          if (c == "<") d++
          else if (c == ">" && --d == 0) { h = substr(h, i + 1); break }
        }
      }
      sub(/^ +/, "", h); sub(/.* for /, "", h); sub(/[<{ ].*/, "", h); sub(/.*::/, "", h)
      t = h
      next
    }
    /^}/ { t = "" }
    t != "" && /^    (pub(\([a-z]+\))? )?((const|unsafe|async) )*fn [A-Za-z_]/ {
      n = $0; sub(/.*fn /, "", n); sub(/[^A-Za-z0-9_].*/, "", n)
      print t, n, ($0 ~ /^    pub ((const|unsafe|async) )*fn /) ? "pub" : ""
    }' "$@"
}
find crates/*/src shims/*/src src benchmark/src benchmark/tests examples tests crates/*/tests \
  -name '*.rs' -exec cat {} + | impl_fns > "$tmp/methods"

# has_reader NAME OWN CRATE: NAME is mentioned in another file's code,
# or in the unit tests of another crate.
has_reader() {
  grep -lw -- "$1" "$tmp"/code/* | grep -qvxF "$2" ||
    grep -lw -- "$1" "$tmp"/tests/* | grep -qvF "/$3%"
}

# readers REGEX OWN CRATE: the files that match REGEX (extended) among
# another file's code and the unit tests of another crate.
readers() {
  {
    grep -lE -- "$1" "$tmp"/code/* | grep -vxF "$2"
    grep -lE -- "$1" "$tmp"/tests/* | grep -vF "/$3%"
  } || true
}

# bound NAME TYPE FILE: FILE binds NAME to TYPE (`NAME: …TYPE` or
# `NAME = …TYPE`, before the next `=`, `;`, `,` or `)`).
bound() {
  grep -qE "(^|[^A-Za-z0-9_.])$1(:[^=;,)]*|[[:space:]]*=[^=;,)]*)[^A-Za-z0-9_]$2([^A-Za-z0-9_]|\$)" "$3"
}

# sees FILE CRATE: FILE (a copy under $tmp) is in CRATE, or its source
# names CRATE's package.
sees() {
  case "${1##*/}" in "$2%"* | "ext%$2%"*) return 0 ;; esac
  pkg=$(sed -n 's/^name = "\(.*\)"/\1/p' "$(echo "$2" | tr % /)/Cargo.toml" | head -n 1)
  grep -qw -- "$pkg" "$(echo "${1##*/}" | sed 's/^ext%//' | tr % /)"
}

# is_called TYPE METHOD OWN CRATE: the rule for methods above. The
# receiver of `.name(` is the identifier before the dot.
is_called() {
  [ -n "$(readers "(^|[^A-Za-z0-9_])$1::($2([^A-Za-z0-9_]|\$)|[A-Za-z0-9_]+\([^;]*\)\.$2(\(|::<))" "$3" "$4")" ] &&
    return 0
  others=$(awk -v t="$1" -v m="$2" '$2 == m && $1 != t { print $1 }' "$tmp/methods" | sort -u)
  for r in $(readers "\.$2(\(|::<)" "$3" "$4"); do
    [ -z "$others" ] && return 0
    # `-` stands for a receiver that is not an identifier (`f().name(`).
    for x in $(grep -oE "[A-Za-z0-9_]*\.$2(\(|::<)" "$r" | sed -E "s/\.$2.*//; s/^\$/-/" | sort -u); do
      if [ "$x" != - ] && bound "$x" "$1" "$r"; then return 0; fi
      # Any other receiver is TYPE's when FILE names none of the other
      # types and names TYPE or sees its crate.
      theirs=0
      for o in $others; do
        if grep -qw -- "$o" "$r"; then theirs=1; fi
      done
      if [ "$theirs" -eq 0 ] && { grep -qw -- "$1" "$r" || sees "$r" "$4"; }; then return 0; fi
    done
  done
  return 1
}

unread=0
fields=0
uncalled=0
mods=0
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
  # A method whose name has no reader at all is reported above.
  for item in $(part code 0 "$f" | impl_fns | awk '$3 == "pub" { print $1 ":" $2 }'); do
    name=${item#*:}
    if ! has_reader "$name" "$own" "$crate" || is_called "${item%%:*}" "$name" "$own" "$crate"; then
      continue
    fi
    echo "no reader: $f: pub fn ${item%%:*}::$name (no call on its type)"
    uncalled=$((uncalled + 1))
  done
  paths="$tmp/paths/code/$(echo "$f" | tr / %)"
  for name in $(sed -nE 's/^[[:space:]]*pub mod ([A-Za-z_][A-Za-z0-9_]*).*/\1/p' "$own"); do
    re="(^|[^A-Za-z0-9_])$name::"
    if grep -lE -- "$re" "$tmp"/paths/code/* | grep -qvxF "$paths" ||
      grep -lE -- "$re" "$tmp"/paths/tests/* | grep -qvF "/$crate%"; then
      continue
    fi
    echo "no path reader: $f: pub mod $name"
    mods=$((mods + 1))
  done
done
echo "pub items without a reader: $unread"
echo "pub fields without a reader: $fields"
echo "pub methods without a call: $uncalled"
echo "pub mods without a path reader (report only): $mods"
[ "$unread" -eq 0 ] && [ "$fields" -eq 0 ] && [ "$uncalled" -eq 0 ]
