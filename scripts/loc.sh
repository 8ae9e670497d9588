#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of crates/<crate>/src/**/*.rs
# except the `#[cfg(test)]` items. Each such item is skipped by bracket
# matching, from its attribute to the `}` that closes it (or, for a
# braceless field, match arm or statement, to its `,` or `;`), so a
# test helper in the middle of a file hides nothing after it. Blank and
# comment lines count. Prints one `<lines> <crate>` row per crate and a
# `<lines> total` row.
#
#   scripts/loc.sh [ROOT]    # ROOT defaults to the repo this script is in
set -euo pipefail
root=${1:-"$(dirname "$0")/.."}
cd "$root"

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    [ -d "$dir/src" ] || continue
    n=$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { skip = 0 }
        {
            line = $0
            if (!skip && line ~ /^[ \t]*#\[cfg\(test\)\]/) {
                skip = 1; depth = 0
                sub(/^[ \t]*#\[cfg\(test\)\]/, "", line)
            }
            if (!skip) { n++; next }
            # Brackets inside strings, char literals and comments do not count.
            gsub(/"([^"\\]|\\.)*"/, "", line)
            gsub(/'\''([^'\''\\]|\\.)'\''/, "", line)
            sub(/\/\/.*/, "", line)
            for (i = 1; i <= length(line); i++) {
                c = substr(line, i, 1)
                if (c == "{" || c == "(" || c == "[") depth++
                else if (c == ")" || c == "]") depth--
                else if (c == "}") { if (--depth == 0) { skip = 0; break } }
                else if (depth == 0 && (c == ";" || c == ",")) { skip = 0; break }
            }
        }
        END { print n + 0 }')
    echo "$n $crate"
    total=$((total + n))
done
echo "$total total"
