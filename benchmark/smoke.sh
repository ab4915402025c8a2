#!/usr/bin/env bash
# Smoke test of the benchmark: every workload, one short round, a 64-request
# correctness pass, end to end and per layer. Under a minute; wire it into CI
# as is. Run from anywhere; it works in the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out/smoke
run() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
run --workload all --quick --out "$out"
run --workload all --quick --trace --out "$out"
# Reads the records back and judges them; exits non-zero on `worse`, on a
# record without a counterpart and on a gated metric that is missing.
run --compare "$out" "$out"
echo "smoke: ok"
