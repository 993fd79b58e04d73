#!/bin/sh
# loc.sh — the "non-test lines" every simplicity PR quotes (`make loc`):
# lines of *.go files that are not _test.go and not under bench/ or any
# testdata/, per package directory and in total (the last line).
set -eu

cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' |
    while read -r f; do
        echo "$(wc -l <"$f") $(dirname "$f")"
    done |
    awk '{ n[$2] += $1; t += $1 }
         END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"
               close("sort -k2"); printf "%7d total\n", t }'
