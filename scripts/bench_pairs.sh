#!/usr/bin/env bash
# Paired before/after runs of the repository benchmark. Builds the
# benchmark from the committed tree of REV (git archive) and from the
# working tree, then runs PAIRS pairs of untraced -record runs of
# WORKLOAD for each SEED, the two sides alternating (the side that goes
# first swaps every pair, so drift on the machine cancels). It prints
# the benchmark's own -compare verdicts and, per end-to-end metric, each
# side's quartiles and median, the change in median, whether that
# change exceeds the REV side's interquartile range, and in how many
# pairs the change beat REV.
#
#   scripts/bench_pairs.sh REV WORKLOAD PAIRS SEED...
#   scripts/bench_pairs.sh HEAD batch_pipeline 10 1
#
# Every run lasts BENCHMARK.json's run_seconds and starts in the
# repository root, where the benchmark finds BENCHMARK.json and keeps
# its scratch stores. The binaries and the two record files stay in a
# temporary directory, named at the end. Nothing in the tree changes.
# Exits with -compare's status: non-zero when a metric regressed.
set -euo pipefail
if [ $# -lt 4 ]; then
  echo "usage: $0 REV WORKLOAD PAIRS SEED..." >&2
  exit 2
fi
rev=$1 workload=$2 pairs=$3
shift 3
cd "$(dirname "$0")/.."

out=$(mktemp -d)
mkdir "$out/src"
git archive "$rev" | tar -x -C "$out/src"
(cd "$out/src" && go build -o "$out/base" ./benchmark)
rm -rf "$out/src"
go build -o "$out/change" ./benchmark

for seed in "$@"; do
  for ((i = 0; i < pairs; i++)); do
    order="base change"
    if ((i % 2)); then order="change base"; fi
    for side in $order; do
      echo "bench_pairs: seed $seed, pair $((i + 1))/$pairs: $side" >&2
      "$out/$side" -workload "$workload" -seed "$seed" -trace 0 -record "$out/$side.jsonl" >/dev/null
    done
  done
done

status=0
"$out/change" -compare "$out/base.jsonl" "$out/change.jsonl" || status=$?
echo

# The end-to-end metrics and their better direction, from BENCHMARK.json.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' BENCHMARK.json |
while read -r metric better; do
  awk -v m="$metric" -v better="$better" -v rev="$rev" '
    # q is the benchmark'"'"'s quantile: nearest rank of an ascending array.
    function q(a, n, p,   i) { i = int(p * n); if (i < p * n) i++; if (i < 1) i = 1; return a[i] }
    function sort(a, n,   i, j, t) {
      for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
    }
    FNR == 1 { side++ }
    match($0, "\"" m "\":[^,}]+") {
      v = substr($0, RSTART + length(m) + 3, RLENGTH - length(m) - 3) + 0
      if (side == 1) b[++nb] = v; else c[++nc] = v
    }
    END {
      if (nb == 0 || nc == 0) exit
      n = nb < nc ? nb : nc
      for (i = 1; i <= n; i++) if ((better == "lower" && c[i] < b[i]) || (better == "higher" && c[i] > b[i])) wins++
      sort(b, nb); sort(c, nc)
      mb = q(b, nb, 0.5); mc = q(c, nc, 0.5); iqr = q(b, nb, 0.75) - q(b, nb, 0.25)
      gap = mc - mb; if (gap < 0) gap = -gap
      rel = 0; if (mb != 0) rel = 100 * (mc - mb) / mb
      cmp = "<="; if (gap > iqr) cmp = ">"
      printf "%-24s %-6s %s p25/p50/p75 %.5g / %.5g / %.5g   change %.5g / %.5g / %.5g   %+.1f%%   |gap| %s IQR   wins %d/%d\n",
        m, better, rev, q(b, nb, 0.25), mb, q(b, nb, 0.75), q(c, nc, 0.25), mc, q(c, nc, 0.75), rel, cmp, wins, n
    }' "$out/base.jsonl" "$out/change.jsonl"
done
echo
echo "bench_pairs: records and binaries in $out" >&2
exit "$status"
