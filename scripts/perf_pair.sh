#!/usr/bin/env bash
# perf_pair.sh — the paired benchmark protocol against a base commit.
#
#   scripts/perf_pair.sh <workload> [pairs=10] [base=HEAD^]
#
# Exports the base commit into .bench_build/parent (git archive: a plain
# tree, nothing registered in .git), then for seeds 1..pairs runs
#
#   bash bench/run.sh --workload <workload> --seed k --seconds 10 --trace 0
#
# once in that tree ("parent") and once in this one ("change"), the
# parent first on odd seeds and the change first on even ones, and prints
# for every end-to-end metric of BENCHMARK.json both sides' median and
# quartiles, the pairs the change won, and a verdict:
#
#   unresolved  the parent's own IQR/median exceeds the metric's bound
#   gain        the change wins >= 9/10 of the pairs and the medians
#               differ by more than the parent's IQR
#   regression  the change's median is worse by more than the bound
#   within      none of the above
#
# Exits 1 if any run had a failed op or any metric regressed. Each tree
# builds its own binary (and Go build cache) under its own .bench_build/.
set -euo pipefail

w=${1:?usage: perf_pair.sh <workload> [pairs=10] [base=HEAD^]}
n=${2:-10}
base=${3:-HEAD^}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
command -v jq >/dev/null || { echo "perf_pair: jq is required" >&2; exit 2; }

parent="$root/.bench_build/parent"
runs="$root/.bench_build/perf/$w"
rm -rf "$parent" "$runs"
mkdir -p "$parent" "$runs"
git -C "$root" archive "$base" | tar -x -C "$parent"
echo "# parent = $(git -C "$root" rev-parse --short "$base"), change = working tree at $(git -C "$root" rev-parse --short HEAD), workload $w, $n pairs"

# one <side> <tree> <seed>: run the benchmark, keep its metric lines.
one() {
    bash "$2/bench/run.sh" --workload "$w" --seed "$3" --seconds 10 --trace 0 \
        | awk -v w="$w" -v side="$1" -v seed="$3" '$1 == w { print side, seed, $2, $3 }' >>"$runs/samples"
}
for k in $(seq 1 "$n"); do
    if [ $((k % 2)) -eq 1 ]; then
        one parent "$parent" "$k"; one change "$root" "$k"
    else
        one change "$root" "$k"; one parent "$parent" "$k"
    fi
    echo "# pair $k/$n done"
done

jq -r '.end_to_end[] | [.name, .better, .bound] | @tsv' "$root/BENCHMARK.json" >"$runs/metrics"
awk '
function isort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
}
function median(a, n) { return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2 }
# quartile i of 4 by the rule of bench/stats.go (Python statistics.quantiles, exclusive).
function cut(a, n, i,    m, j, d) {
    if (n < 2) return a[1]
    m = n + 1; j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    d = i * m - 4 * j
    return (a[j] * (4 - d) + a[j+1] * d) / 4
}
FNR == NR { v[$1, $2, $3] = $4; if ($2 > seeds) seeds = $2; next }
{
    name = $1; lower = ($2 == "lower"); bound = $3
    np = 0; nc = 0; won = 0; lost = 0
    for (k = 1; k <= seeds; k++) {
        if (!((("parent", k, name) in v) && (("change", k, name) in v))) continue
        p[++np] = v["parent", k, name]; c[++nc] = v["change", k, name]
        if (lower ? c[nc] < p[np] : c[nc] > p[np]) won++
        else if (c[nc] != p[np]) lost++
    }
    if (np == 0) { printf "%-14s no samples\n", name; bad = 1; next }
    isort(p, np); isort(c, nc)
    pm = median(p, np); cm = median(c, nc)
    pq1 = cut(p, np, 1); pq3 = cut(p, np, 3); cq1 = cut(c, nc, 1); cq3 = cut(c, nc, 3)
    iqr = pq3 - pq1
    worse = lower ? cm - pm : pm - cm
    rel = pm != 0 ? worse / (pm < 0 ? -pm : pm) : 0
    if (pm != 0 && iqr / pm > bound) verdict = "unresolved"
    else if (won >= 0.9 * np && -worse > iqr) verdict = "gain"
    else if (rel > bound) { verdict = "regression"; bad = 1 }
    else verdict = "within"
    printf "%-14s parent %10.4g [%.4g, %.4g]  change %10.4g [%.4g, %.4g]  %+6.1f%%  won %d/%d lost %d  %s\n",
        name, pm, pq1, pq3, cm, cq1, cq3, (pm != 0 ? 100 * (cm - pm) / pm : 0), won, np, lost, verdict
}
END { exit bad }
' "$runs/samples" "$runs/metrics" && ok=0 || ok=$?

if awk '$3 == "failed_frac" && $4 != 0 { found = 1 } END { exit !found }' "$runs/samples"; then
    echo "perf_pair: failed_frac > 0 on at least one run (see $runs/samples)" >&2
    ok=1
fi
exit "$ok"
