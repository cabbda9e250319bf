#!/bin/sh
# bench-pairs.sh <parent-ref> [pairs=10] — the measurement a performance claim
# rests on (choosing-metrics §8), as one command.
#
# Checks <parent-ref> out beside the working tree (git archive, under
# .bench_build/pairs/parent), then for every workload runs N pairs of
# benchmark/run.sh — seeds 1..N, one untraced run per side per seed,
# alternating which side goes first — appending each side's runs to its own
# -out file. It prints every pair as it finishes, then the per-metric win
# counts, then `ferret-benchmark -compare parent.json change.json` (medians,
# spreads, bounds, verdicts). The change side is the working tree as it
# stands, committed or not.
#
#   BENCH_WORKLOADS   workloads to run (default: all four)
#   BENCH_SECONDS     timed window, must match BENCHMARK.json run_seconds (15)
#   BENCH_TRACED=1    also one traced run per side and workload on seed 1
#                     (parent-traced.json / change-traced.json, per-layer metrics)
#   BENCH_PAIRS_DIR   where everything goes (default .bench_build/pairs)
set -eu

cd "$(dirname "$0")/.."
root=$PWD
ref=${1:?usage: scripts/bench-pairs.sh <parent-ref> [pairs=10]}
pairs=${2:-10}
seconds=${BENCH_SECONDS:-15}
workloads=${BENCH_WORKLOADS:-image_engine shape_wire_cold shape_wire_hot shape_rw}
work=$root/${BENCH_PAIRS_DIR:-.bench_build/pairs}
metrics="setup_s heap_mb qps query_p50_ms ok_frac recall_at_20 write_p50_ms write_ok_ops_s"

rm -rf "$work"
mkdir -p "$work/parent"
git archive "$ref" | tar -x -C "$work/parent"

# run <side> <checkout> <workload> <seed> <trace>: one benchmark/run.sh
# invocation; its printed metrics land in a log the pair table is read from.
run() {
	out=$work/$1.json
	[ "$5" = 1 ] && out=$work/$1-traced.json
	(cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace "$5" -out "$out") \
		>"$work/$1-$3-$4-$5.log" 2>&1 || echo "  $1 $3 seed $4 trace $5: exit $? (see $work/$1-$3-$4-$5.log)"
}

value() { awk -v m="$2" '$1 == m { print $2; exit }' "$1"; }

for w in $workloads; do
	seed=1
	while [ "$seed" -le "$pairs" ]; do
		if [ $((seed % 2)) -eq 1 ]; then
			run parent "$work/parent" "$w" "$seed" 0
			run change "$root" "$w" "$seed" 0
		else
			run change "$root" "$w" "$seed" 0
			run parent "$work/parent" "$w" "$seed" 0
		fi
		for m in $metrics; do
			printf '%s\t%d\t%s\t%s\t%s\n' "$w" "$seed" "$m" \
				"$(value "$work/parent-$w-$seed-0.log" "$m")" "$(value "$work/change-$w-$seed-0.log" "$m")"
		done | tee -a "$work/pairs.tsv" | awk -F'\t' '{ printf "%-16s seed %2d  %-15s parent %12s  change %12s\n", $1, $2, $3, $4, $5 }'
		seed=$((seed + 1))
	done
	if [ "${BENCH_TRACED:-0}" = 1 ]; then
		run parent "$work/parent" "$w" 1 1
		run change "$root" "$w" 1 1
	fi
done

echo
echo "pairs the change wins (ties count for neither):"
awk -F'\t' '
	BEGIN { lower["setup_s"]; lower["heap_mb"]; lower["query_p50_ms"]; lower["write_p50_ms"] }
	$4 != "" && $5 != "" {
		k = sprintf("%-16s %-15s", $1, $3)
		if (!(k in n)) order[++keys] = k
		n[k]++
		if ($3 in lower ? $5 + 0 < $4 + 0 : $5 + 0 > $4 + 0) win[k]++
	}
	END { for (i = 1; i <= keys; i++) printf "%s %2d of %d\n", order[i], win[order[i]], n[order[i]] }
' "$work/pairs.tsv"
echo
"$root/.bench_build/ferret-benchmark" -compare "$work/parent.json" "$work/change.json"
