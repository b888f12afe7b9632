#!/usr/bin/env bash
# Measures two sets side by side: every workload once per seed and side,
# untraced, each run a fresh process, the sides taking turns (a b, b a,
# a b, …) so that both sample the same minutes of the box. Side a is this
# checkout, seeds 1..10; side b is this checkout again or, given a third
# argument, another one, seeds 11..20. Two sets of one commit compared with
# -compare are the benchmark's own acceptance check; a set of the parent
# and a set of a change are a later PR's regression table.
#
#   bash bench/set.sh a.json b.json                # this commit twice
#   bash bench/set.sh a.json b.json ../parent      # this commit and another checkout
#   bash bench/run.sh -compare a.json b.json
set -euo pipefail
out_a="$(realpath "$1")" out_b="$(realpath "$2")"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root_a="$(dirname "$here")"
root_b="$(realpath "${3:-$root_a}")"
runs=10
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root_a/BENCHMARK.json")"

one() { # checkout, results file, workload, seed
	(cd "$1" && bash bench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 --json "$2" >/dev/null)
}
for workload in build_pipeline regen_full regen_parallel regen_selective serve_hot serve_cold; do
	for ((i = 1; i <= runs; i++)); do
		if ((i % 2)); then
			one "$root_a" "$out_a" "$workload" "$i"
			one "$root_b" "$out_b" "$workload" "$((runs + i))"
		else
			one "$root_b" "$out_b" "$workload" "$((runs + i))"
			one "$root_a" "$out_a" "$workload" "$i"
		fi
	done
done
