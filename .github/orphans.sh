#!/usr/bin/env bash
# Prints every orphaned public item, one `file: name` per line. An item is a
# `pub fn|struct|enum|trait|const|static|type` declared in the non-test part
# of a file under crates/*/src (everything before its first `#[cfg(test)]`);
# it is orphaned when its name appears once in that part (the declaration)
# and in no other tracked .rs file outside vendor/. Comment lines, `use`
# lines and `pub use` lines do not count. Run from the repository root.
set -eu
for f in $(git ls-files 'crates/*/src/*.rs' 'crates/*/src/**/*.rs'); do
  head=$(awk '/#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -vE '^[[:space:]]*//' || true)
  for name in $(printf '%s\n' "$head" |
      sed -nE 's/^[[:space:]]*pub (const fn|fn|struct|enum|trait|const|static|type) ([A-Za-z_][A-Za-z0-9_]*).*/\2/p' | sort -u); do
    [ "$(printf '%s\n' "$head" | grep -ow -- "$name" | wc -l)" -eq 1 ] || continue
    uses=$(git ls-files '*.rs' ':!vendor' | grep -vxF "$f" | xargs grep -hw -- "$name" |
      grep -vE '^[[:space:]]*(//|(pub )?use )' || true)
    [ -n "$uses" ] || echo "$f: $name"
  done
done
