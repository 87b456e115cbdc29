#!/usr/bin/env bash
# Interleaved A/B of one bench/ workload: a base revision against HEAD.
#
#   scripts/ab.sh <base-rev> <workload> <seed> <pairs> [seconds]
#
#   scripts/ab.sh HEAD~1 perple-campaign 1 10     # 10 pairs of 25-s runs
#   scripts/ab.sh main paper-eval 2 5 4           # 5 pairs of 4-s runs
#
# Checks out <base-rev> and HEAD as detached git worktrees under
# .bench_build/ab/ and runs `bench/run.sh --workload <workload> --seed
# <seed> --seconds <seconds> --trace 0` in each, <pairs> times per side.
# Pairs alternate which side runs first (odd pairs the base, even pairs
# the change), so a drift in machine load lands on both sides alike.
# Uncommitted changes are not measured: commit them first.
#
# For every end-to-end metric (all lower-is-better) it prints the
# per-pair values, each side's median, the base's interquartile range
# (the same exclusive quartiles bench/ reports), how many pairs the
# change won, and whether the change's median gain exceeds the base's
# IQR. A run that is not correct or has failed ops stops the script.
# The worktrees are removed on exit; bench/ is only run, never changed.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    sed -n '2,7p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
base_rev=$1 workload=$2 seed=$3 pairs=$4 seconds=${5:-25}

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
cd "$root"
base=$(git rev-parse --verify "$base_rev^{commit}")
change=$(git rev-parse --verify HEAD)
ab="$root/.bench_build/ab"
metrics="setup_s wall_s alloc_mb max_rss_mb"

cleanup() {
    for side in base change; do
        git worktree remove --force "$ab/$side" 2>/dev/null || rm -rf "${ab:?}/$side"
    done
    git worktree prune
}
trap cleanup EXIT
cleanup
mkdir -p "$ab"
git worktree add --detach --quiet "$ab/base" "$base"
git worktree add --detach --quiet "$ab/change" "$change"

# run <side>: one bench/run.sh run; prints "<metric> <value>" lines.
run() {
    local out line
    if ! out=$(bash "$ab/$1/bench/run.sh" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>"$ab/$1.stderr"); then
        echo "ab: $1 run failed (see $ab/$1.stderr):" >&2
        printf '%s\n' "$out" | tail -3 >&2
        exit 1
    fi
    line=$(printf '%s\n' "$out" | tail -1)
    case $line in
    *'"correct":true'*'"failed":0,'*) ;;
    *)
        echo "ab: $1 run is not correct: $line" >&2
        exit 1
        ;;
    esac
    for m in $metrics; do
        printf '%s %s\n' "$m" "$(printf '%s' "$line" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")"
    done
}

echo "ab: $workload seed $seed, $pairs pairs of ${seconds}-s runs"
echo "ab: base   $(git log -1 --format='%h %s' "$base")"
echo "ab: change $(git log -1 --format='%h %s' "$change")"
samples="$ab/samples.txt"
: >"$samples"
for ((i = 1; i <= pairs; i++)); do
    order="base change"
    if ((i % 2 == 0)); then
        order="change base"
    fi
    for side in $order; do
        run "$side" | sed "s/^/$i $side ${order%% *} /" >>"$samples"
    done
    echo "ab: pair $i of $pairs done (${order%% *} first)" >&2
done

# samples.txt lines: pair side first metric value.
for m in $metrics; do
    awk -v m="$m" '
    function quartiles(xs, n, q,    s, i, j, k, t, c, d) {
        for (i = 1; i <= n; i++) s[i] = xs[i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && s[j-1] > s[j]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
        q[2] = n % 2 ? s[(n+1)/2] : (s[n/2] + s[n/2+1]) / 2
        if (n == 1) { q[1] = q[3] = s[1]; return }
        # Python statistics.quantiles(n=4), exclusive method, as bench/.
        for (k = 1; k <= 3; k += 2) {
            c = int(k * (n + 1) / 4)
            if (c < 1) c = 1
            if (c > n - 1) c = n - 1
            d = k * (n + 1) - c * 4
            q[k] = (s[c] * (4 - d) + s[c+1] * d) / 4
        }
    }
    $4 == m {
        v[$1, $2] = $5; first[$1] = $3
        if ($1 > np) np = $1
    }
    END {
        printf "\n== %s (lower is better)\n%-5s %-7s %14s %14s\n", m, "pair", "first", "base", "change"
        for (i = 1; i <= np; i++) {
            printf "%-5d %-7s %14.6g %14.6g\n", i, first[i], v[i, "base"], v[i, "change"]
            b[i] = v[i, "base"]; c[i] = v[i, "change"]
            if (c[i] < b[i]) wins++
        }
        quartiles(b, np, qb); quartiles(c, np, qc)
        printf "%-13s %14.6g %14.6g", "median", qb[2], qc[2]
        if (qb[2] != 0) printf "   (%+.1f%%)", 100 * (qc[2] - qb[2]) / qb[2]
        printf "\n%-13s %.6g .. %.6g (%.6g)\n", "base IQR", qb[1], qb[3], qb[3] - qb[1]
        printf "%-13s %d of %d pairs\n", "change wins", wins, np
        printf "%-13s %s\n", "gain > IQR", (qb[2] - qc[2] > qb[3] - qb[1]) ? "yes" : "no"
    }' "$samples"
done
