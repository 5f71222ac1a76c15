#!/bin/sh
# reach.sh — fail on any non-test function that no binary reaches.
#
#   sh scripts/reach.sh        (make reach)
#
# Builds every main package of the module (cmd/, examples/) and the
# benchmark's bench/cmd/mpfperf with inlining off, reads the functions
# the linker kept from their symbol tables (go tool nm), and lists every
# func declared in a non-test .go file of the module that none of them
# contains. Names are compared as <import path>.<Func> or
# <import path>.<Type>.<Method>: generic brackets, pointer receivers and
# closure suffixes are stripped from the symbols, and a binary's main.*
# symbols are renamed to its own import path.
#
# scripts/reach.allow lists what may stay unreached, one entry a line:
# an import path, a type or a function, then a one-line reason. An entry
# covers the name itself and everything under it (a type covers its
# methods, a package its functions). The script fails on an unreached
# function no entry covers, on an entry without a reason, and on an
# entry that covers nothing — so the list shrinks with the code.
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# norm: the reachable function names in `go tool nm` output on stdin;
# $1 replaces the "main" package name.
norm() {
	awk -v main="$1" '
	$2 != "T" { next }
	{
		s = substr($0, index($0, " T ") + 3); out = ""; d = 0
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (c == "[") d++; else if (c == "]") d--; else if (d == 0) out = out c
		}
		sub(/-fm$/, "", out)
		sub(/\.(func|gowrap|deferwrap)[0-9]+.*$/, "", out)
		sub(/\.init\.[0-9]+$/, ".init", out)
		gsub(/\(\*/, "", out); gsub(/\)/, "", out)
		if (main != "" && out ~ /^main\./) out = main substr(out, 5)
		if (out ~ /^mpf[.\/]/) print out
	}'
}

for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -gcflags=all=-l -o "$tmp/bin" "$pkg"
	go tool nm "$tmp/bin" | norm "$pkg"
done >"$tmp/reached"
(cd bench && go build -gcflags=all=-l -o "$tmp/bin" ./cmd/mpfperf)
go tool nm "$tmp/bin" | norm "" >>"$tmp/reached"
sort -u -o "$tmp/reached" "$tmp/reached"

# Every top-level func of the module's non-test files, as "name file:line"
# (gofmt puts each at the start of a line).
go list -f '{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./... |
	while read -r pkg file; do
		awk -v pkg="$pkg" -v file="${file#"$root"/}" '
		/^func / {
			s = substr($0, 6); recv = ""
			if (s ~ /^\(/) {
				r = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2)
				n = split(r, w, " "); recv = w[n]
				sub(/^\*/, "", recv); sub(/\[.*/, "", recv); recv = recv "."
			}
			match(s, /^[A-Za-z0-9_]+/)
			print pkg "." recv substr(s, 1, RLENGTH), file ":" FNR
		}' "$file"
	done | sort >"$tmp/declared"

grep -v '^[[:space:]]*\(#\|$\)' scripts/reach.allow >"$tmp/allow" || true
awk -v reached="$tmp/reached" -v allow="$tmp/allow" '
BEGIN {
	while ((getline l < reached) > 0) seen[l] = 1
	while ((getline l < allow) > 0) {
		n++; split(l, f, /[ \t]+/); entry[n] = f[1]; used[n] = 0
		if (l !~ /^[^ \t]+[ \t]+[^ \t]/) { print "reach: allowlist entry " f[1] " has no reason"; bad = 1 }
	}
}
seen[$1] { next }
{
	for (i = 1; i <= n; i++)
		if ($1 == entry[i] || index($1, entry[i] ".") == 1) { used[i] = 1; next }
	print "reach: " $2 ": " $1 " is reached by no binary"; bad = 1
}
END {
	for (i = 1; i <= n; i++)
		if (!used[i]) { print "reach: allowlist entry " entry[i] " covers no unreached function"; bad = 1 }
	exit bad
}' "$tmp/declared"
