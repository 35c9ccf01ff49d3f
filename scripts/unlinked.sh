#!/usr/bin/env bash
# Lists every exported function and method declared in a non-test file
# under internal/ that no binary links, and fails on any that is not in
# scripts/unlinked.allow.
#
# Every cmd/*, examples/* and bench binary is built with inlining off
# (-gcflags=all=-l), so every function a binary reaches keeps its own
# symbol; `go tool nm` then lists the realsum/ text symbols.  A declared
# name missing from every listing is reached only by tests, if at all.
#
# Usage: scripts/unlinked.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C # one collation for sort and comm

bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -gcflags=all=-l -o "$bin/" ./cmd/... ./examples/...
(cd bench && go build -gcflags=all=-l -o "$bin/bench" .)

# Linked names, normalized to pkg.Func or pkg.Type.Method: drop the
# module prefix, every balanced [...] group (generic instantiations
# nest, e.g. Pool[go.shape.[]*realsum/internal/dist.Sparse]), pointer
# receiver parentheses and the -fm suffix of method values.
for f in "$bin"/*; do go tool nm "$f"; done |
    awk '($2 == "T" || $2 == "t") && $3 ~ /^realsum\/internal\// {
        s = substr($3, length("realsum/internal/") + 1)
        out = ""; depth = 0
        for (i = 1; i <= length(s); i++) {
            c = substr(s, i, 1)
            if (c == "[") { depth++; continue }
            if (c == "]") { depth--; continue }
            if (depth == 0) out = out c
        }
        gsub(/\(\*/, "", out); gsub(/\)/, "", out); sub(/-fm$/, "", out)
        print out
    }' | sort -u > "$bin/linked"

# Declared names from the gofmt'd ^func lines of non-test files.
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
    pkg="${f#internal/}"; pkg="${pkg%/*}"
    awk -v pkg="$pkg" '/^func / {
        line = substr($0, 6)
        recv = ""
        if (substr(line, 1, 1) == "(") {
            close_at = index(line, ")")
            r = substr(line, 2, close_at - 2)
            n = split(r, parts, " ")
            recv = parts[n]; sub(/^\*/, "", recv); sub(/\[.*$/, "", recv)
            line = substr(line, close_at + 2)
        }
        name = line; sub(/[\[(].*$/, "", name)
        if (name !~ /^[A-Z]/) next
        print (recv == "" ? pkg "." name : pkg "." recv "." name)
    }' "$f"
done | sort -u > "$bin/declared"

comm -23 "$bin/declared" "$bin/linked" > "$bin/unlinked"

# The allowlist holds one name per line followed by the reason it stays;
# '#' starts a comment.
awk '!/^#/ && NF { print $1 }' scripts/unlinked.allow | sort -u > "$bin/allowed"
stranded="$(comm -23 "$bin/unlinked" "$bin/allowed")"
stale="$(comm -13 "$bin/unlinked" "$bin/allowed")"
status=0
if [ -n "$stranded" ]; then
    echo "exported functions no binary links (delete them, move them into a _test.go file, or allowlist them with a reason in scripts/unlinked.allow):"
    echo "$stranded" | sed 's/^/  /'
    status=1
fi
if [ -n "$stale" ]; then
    echo "scripts/unlinked.allow names functions that are linked or gone (drop their lines):"
    echo "$stale" | sed 's/^/  /'
    status=1
fi
[ "$status" -eq 0 ] && echo "unlinked exported functions: none outside scripts/unlinked.allow ($(wc -l < "$bin/allowed") allowlisted)"
exit "$status"
