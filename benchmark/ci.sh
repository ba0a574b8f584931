#!/usr/bin/env bash
# Gate for the benchmark package: build, unit tests, a smoke run of every
# workload and probe, and the printed names held against BENCHMARK.json.
# Offline like the rest of the repository; about half a minute once built.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
manifest=benchmark/Cargo.toml
out=benchmark/out/smoke
mkdir -p "$out"

echo "==> cargo build --release --locked"
cargo build --release --locked --offline --manifest-path "$manifest"

echo "==> cargo test (release: the smoke children run whole replications)"
cargo test -q --release --locked --offline --manifest-path "$manifest"

echo "==> run --smoke"
"$CARGO_TARGET_DIR/release/rmac-benchmark" run --smoke --out "$out" >"$out/stdout.txt"

echo "==> printed names == names declared in BENCHMARK.json"
python3 - "$out/stdout.txt" BENCHMARK.json <<'EOF'
import json, re, sys

printed_workloads, printed_metrics = set(), set()
for line in open(sys.argv[1]):
    if line.startswith("== "):
        name = line[3:].split(":")[0].strip()
        if name != "probes":
            printed_workloads.add(name)
    elif line.strip() and not line.startswith("{"):
        printed_metrics.add(line.split()[0])
printed_metrics.discard("ops_attempted")  # printed with ops_failed beside every workload

declared = json.load(open(sys.argv[2]))
workloads = {w["name"] for w in declared["workloads"]}
metrics = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}

ok = True
for what, printed, wanted in [("workload", printed_workloads, workloads), ("metric", printed_metrics, metrics)]:
    for name in sorted(printed | wanted):
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", name):
            print(f"bad {what} name: {name!r}"); ok = False
    for name in sorted(wanted - printed):
        print(f"{what} declared but not printed: {name}"); ok = False
    for name in sorted(printed - wanted):
        print(f"{what} printed but not declared: {name}"); ok = False
if not ok:
    sys.exit(1)
print(f"{len(workloads)} workloads, {len(metrics)} metrics: printed and declared sets are equal")
EOF

echo "benchmark CI green."
