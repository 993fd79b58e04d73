#!/bin/sh
# loc.sh — the numbers every simplicity PR quotes (`make loc`), per
# package directory and in total (the last line): the non-test lines —
# lines of *.go files that are not _test.go and not under bench/ or any
# testdata/ — and, in the second column, the row iterators among them:
# types with a `Next() (types.Row, error)` method.
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' |
    while read -r f; do
        echo "$(wc -l <"$f") $(grep -c '^func (.*) Next() (types\.Row, error)' "$f" || true) $(dirname "$f")"
    done |
    awk '{ n[$3] += $1; it[$3] += $2; t += $1; i += $2 }
         END { for (d in n) printf "%7d %3d %s\n", n[d], it[d], d | "sort -k3"
               close("sort -k3"); printf "%7d %3d total\n", t, i }'
