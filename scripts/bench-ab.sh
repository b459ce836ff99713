#!/usr/bin/env bash
# Paired A/B comparison of the end-to-end benchmark: this checkout (the
# change, uncommitted edits included) against <rev> (the parent).
#
#   bash scripts/bench-ab.sh <rev> [pairs] [workload ...]
#
# <rev> is checked out as a git worktree under .bench_build/ab/ and
# removed again on exit. For each workload (default: every workload in
# BENCHMARK.json) the script runs `bash bench/run.sh --workload W --seed 1`
# in both trees, [pairs] times (default 10), alternating which side runs
# first, and reads the JSON result each run prints as its last line. It
# then prints, per workload and metric:
#
#   change/parent   median over the pairs of the change's value divided by
#                   the parent's value from the same pair
#   wins            pairs in which the change read better than the parent,
#                   in the direction BENCHMARK.json gives the metric
#   parent IQR/med  the parent's own run-to-run spread: the distance
#                   between its quartiles over its median
#   failed          each side's share of failed operations, pooled
#
# A ratio is only meaningful against the parent's spread. The script gates
# nothing; run logs and JSON lines stay under .bench_build/ab/.
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: bash scripts/bench-ab.sh <rev> [pairs] [workload ...]" >&2
	exit 2
fi
rev=$(git rev-parse --verify "$1^{commit}")
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
root=$(git rev-parse --show-toplevel)
cd "$root"
if [ $# -gt 0 ]; then
	workloads=("$@")
else
	mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
fi

ab="$root/.bench_build/ab"
tree="$ab/parent-${rev:0:12}"
out="$ab/runs-$(date +%Y%m%dT%H%M%S)"
mkdir -p "$ab" "$out"
git worktree add --force --detach "$tree" "$rev" >/dev/null
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

# run SIDE DIR W I writes the run's JSON line to $out/SIDE-W-I.json.
run() {
	local side=$1 dir=$2 w=$3 i=$4 line
	line=$( (cd "$dir" && bash bench/run.sh --workload "$w" --seed 1 2>"$out/$side-$w-$i.log") | tail -n 1 || true)
	if ! jq -e .metrics >/dev/null 2>&1 <<<"$line"; then
		echo "bench-ab: $side run $i of $w printed no result; see $out/$side-$w-$i.log" >&2
		exit 1
	fi
	printf '%s\n' "$line" >"$out/$side-$w-$i.json"
}

# quantile Q reads numbers from stdin and prints their Q-quantile,
# interpolating linearly between order statistics.
quantile() {
	sort -g | awk -v q="$1" '{ a[NR] = $1 }
		END { if (NR == 0) { print "nan"; exit }
		      h = (NR - 1) * q; l = int(h)
		      print (l + 1 < NR) ? a[l+1] + (h - l) * (a[l+2] - a[l+1]) : a[NR] }'
}

# failed SIDE W prints the side's pooled share of failed operations.
failed() {
	cat "$out/$1-$2-"*.json | jq -s -r '(map(.failed) | add) / ([(map(.attempted) | add), 1] | max)'
}

for w in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		echo "bench-ab: $w pair $i/$pairs" >&2
		if [ $((i % 2)) -eq 1 ]; then
			run parent "$tree" "$w" "$i"
			run change "$root" "$w" "$i"
		else
			run change "$root" "$w" "$i"
			run parent "$tree" "$w" "$i"
		fi
	done
done

printf '%-16s %-20s %14s %14s %14s %6s %15s %14s %14s\n' workload metric parent-median change-median change/parent wins "parent-IQR/med" failed-parent failed-change
for w in "${workloads[@]}"; do
	fp=$(failed parent "$w")
	fc=$(failed change "$w")
	for m in $(jq -r '.metrics | keys[]' "$out/parent-$w-1.json"); do
		pv=$(for i in $(seq 1 "$pairs"); do jq ".metrics[\"$m\"].value" "$out/parent-$w-$i.json"; done)
		cv=$(for i in $(seq 1 "$pairs"); do jq ".metrics[\"$m\"].value" "$out/change-$w-$i.json"; done)
		pmed=$(quantile 0.5 <<<"$pv")
		cmed=$(quantile 0.5 <<<"$cv")
		ratio=$(paste <(echo "$cv") <(echo "$pv") | awk '$2 != 0 { print $1 / $2 }' | quantile 0.5)
		better=$(jq -r --arg m "$m" '[(.end_to_end + .per_layer)[] | select(.name == $m) | .better][0] // ""' BENCHMARK.json)
		wins=$(paste <(echo "$cv") <(echo "$pv") | awk -v b="$better" \
			'{ n++ } (b == "lower" && $1 < $2) || (b == "higher" && $1 > $2) { w++ }
			END { print (b == "") ? "-" : (w + 0) "/" n }')
		spread=$(awk -v q1="$(quantile 0.25 <<<"$pv")" -v q3="$(quantile 0.75 <<<"$pv")" -v m="$pmed" \
			'BEGIN { print (m != 0) ? (q3 - q1) / m : "nan" }')
		printf '%-16s %-20s %14.4g %14.4g %14.4f %6s %15.4f %14.4f %14.4f\n' "$w" "$m" "$pmed" "$cmed" "$ratio" "$wins" "$spread" "$fp" "$fc"
	done
done
echo "bench-ab: results in $out" >&2
