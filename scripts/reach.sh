#!/bin/sh
# reach.sh — fail on any non-test function that no binary reaches.
#
#   sh scripts/reach.sh        (make reach)
#
# Builds every main package of the module (cmd/, examples/) and the
# benchmark's bench/cmd/mpfperf with inlining off, reads the linker's
# reachability graph of each (-ldflags=-dumpdep: one "from -> to" line
# for the edge that first marked each symbol), and lists every func
# declared in a non-test .go file of the module that none of them
# reaches. Names are compared as <import path>.<Func> or
# <import path>.<Type>.<Method>: generic brackets, pointer receivers and
# closure suffixes are stripped from the symbols, and a binary's main.*
# symbols are renamed to its own import path.
#
# The linker keeps every method of a type converted to an interface
# whose name and signature match some reachable interface method; such
# a method's edge comes from the type (`type:T <UsedInIface> -> T.M`).
# A method held only by such edges counts as reached only when an
# interface declared in the repository, or one of the standard-library
# interfaces in stdiface below, names it. So an unused `Len() int` that
# some library interface happens to match is reported. The linker floods
# direct calls before it marks interface-matched methods, so a method
# that reached code calls shows that call's edge.
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

# stdiface: methods of standard-library interfaces that module types
# implement on purpose (error, errors.Is and Unwrap, fmt.Stringer,
# json.Marshaler and Unmarshaler, http.Handler).
stdiface="Error Is Unwrap String MarshalJSON UnmarshalJSON ServeHTTP"

# edges: the module funcs the -dumpdep graph on stdin reaches, one a
# line: "D name" when some edge into it comes from code, "I name" when
# it comes from a type's interface conversion. Edges from a symbol into
# itself (closures, method-value and pointer-receiver wrappers) are
# dropped. $1 replaces the "main" package name.
edges() {
	awk -v main="$1" '
	function norm(s,   out, d, i, c) {
		sub(/ <.*$/, "", s); out = ""; d = 0
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (c == "[") d++; else if (c == "]") d--; else if (d == 0) out = out c
		}
		sub(/-fm$/, "", out)
		sub(/\.(func|gowrap|deferwrap)[0-9]+.*$/, "", out)
		sub(/\.init\.[0-9]+$/, ".init", out)
		gsub(/\(\*/, "", out); gsub(/\)/, "", out)
		if (main != "" && out ~ /^main\./) out = main substr(out, 5)
		return out
	}
	{
		k = index($0, " -> "); if (k == 0) next
		from = substr($0, 1, k - 1); to = norm(substr($0, k + 4))
		if (to !~ /^mpf[.\/]/) next
		if (from ~ /<UsedInIface>/) print "I", to
		else if (norm(from) != to) print "D", to
	}'
}

for pkg in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -gcflags=all=-l -ldflags=-dumpdep -o "$tmp/bin" "$pkg" 2>"$tmp/dep"
	edges "$pkg" <"$tmp/dep"
done >"$tmp/edges"
(cd bench && go build -gcflags=all=-l -ldflags=-dumpdep -o "$tmp/bin" ./cmd/mpfperf) 2>"$tmp/dep"
edges "" <"$tmp/dep" >>"$tmp/edges"

# Every method name an interface of the repository's non-test files
# declares, in blocks ("type I interface {" … "}") or on one line.
for mod in . bench; do
	(cd "$mod" && go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./...)
done | xargs awk '
	/interface \{$/ { in_ = 1; next }
	in_ && /^[ \t]*\}/ { in_ = 0; next }
	in_ && match($0, /^[ \t]+[A-Za-z0-9_]+\(/) { s = substr($0, RSTART, RLENGTH - 1); gsub(/[ \t]/, "", s); print s }
	match($0, /interface ?\{ *[A-Za-z0-9_]+\(/) { s = substr($0, RSTART, RLENGTH - 1); sub(/.*\{ */, "", s); print s }
' >"$tmp/ifacemethods"
printf '%s\n' $stdiface >>"$tmp/ifacemethods"

# Reached: every func with an edge from code, and every method with an
# interface edge whose name some interface above declares.
awk -v names="$tmp/ifacemethods" '
BEGIN { while ((getline l < names) > 0) iface[l] = 1 }
$1 == "D" { print $2; next }
{ m = $2; sub(/.*\./, "", m); if (m in iface) print $2 }
' "$tmp/edges" | sort -u >"$tmp/reached"

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
