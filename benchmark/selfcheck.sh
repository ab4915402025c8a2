#!/usr/bin/env bash
# The benchmark judged by its own bounds: the full set of runs (seed 1, end
# to end and per layer) twice on the same tree, then `--compare`. Fails
# unless every gated metric of every workload is `within bound` (or
# `better`): a benchmark that cannot tell a tree from itself gates nothing.
# About eleven minutes. With `--record`, the two sets replace the recorded
# baseline in benchmark/baseline/ that README.md's table is generated from.
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out/selfcheck
[ "${1:-}" = "--record" ] && out=benchmark/baseline
run() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
for set in a b; do
  run --workload all --seed 1 --out "$out/$set"
  run --workload all --seed 1 --trace --out "$out/$set"
  rm -f "$out/$set"/trace-*.json
done
run --compare "$out/a" "$out/b" | tee "$out/compare.txt"
if grep -Eq '  (worse|unresolved)$' "$out/compare.txt"; then
  echo "selfcheck: FAILED, the lines above ending in worse or unresolved" >&2
  exit 1
fi
# A third run on another seed must be free of failures.
run --workload all --seed 2 --out "$out/seed2" | grep -E '^(==|  attempted)'
echo "selfcheck: ok"
