#!/usr/bin/env bash
# The CI gate: .github/workflows/ci.yml runs this script and nothing else.
# All dependencies are vendored (vendor/*), so this works fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

# benchmark/Cargo.lock pins every path crate's dependency list, so a new edge between workspace crates
# breaks the benchmark's --locked build until a benchmark change re-locks it: fail here, in seconds.
echo "==> the benchmark's lock still resolves the workspace's crate graph"
cargo metadata --locked --offline --manifest-path benchmark/Cargo.toml --format-version 1 >/dev/null || {
    echo "benchmark/Cargo.lock no longer matches the crate graph: a new dependency edge between workspace" \
        "crates waits for a benchmark change to re-lock it (CHANGES.md, the FOUND line on benchmark/Cargo.lock)"
    exit 1
}

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Intra-doc links name items by path, so a moved or privatised item breaks one silently.
echo "==> cargo doc --workspace --no-deps, warnings denied"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# A debug build on purpose: rmac-live's hostile-clock proptest (crates/live/src/node.rs) and the hub's
# send-order check hold invariants whose checks are debug_asserts. tests/architecture.rs runs here too:
# the structural rules (DESIGN.md §1, §2, §4–§11) are tests of the root package.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> one CRC spelling, two kernels: table and carry-less against the bitwise oracle, and the pinned soak reports, optimised"
cargo test -q --release -p rmac-wire
cargo test -q --release -p rmac-live --test live_determinism

echo "==> obs_report --smoke (instrumented run: bit-identity + trace schema + renders)"
cargo run -q --release -p rmac-experiments --bin obs_report -- --smoke

echo "==> check-fuzz (conformance fuzz smoke: 1000 seeded scenarios under C1-C5)"
cargo run -q --release -p rmac-experiments --bin fuzz_scenarios -- --smoke

echo "==> soak_live --smoke (live loopback soak: 100% delivery under 20% GE loss)"
cargo run -q --release -p rmac-experiments --bin soak_live -- --smoke

echo "==> shard stage: component packing and stack ownership, then sharded-engine equivalence"
cargo test -q --release -p rmac-engine --lib shard::
cargo test -q --release --test shard_equivalence

echo "==> queue stage: calendar/heap differential proptests and the window-advance pin"
cargo test -q --release --test queue_equivalence
cargo test -q --release -p rmac-engine --lib the_calendar_advances_at_most_once_per_event

echo "==> memory stage: retained calendar capacity, report folds, seen ids, beacon timetable, memory budget, soak allocations (<= 3.85 a step)"
cargo test -q --release -p rmac-sim --lib retained_capacity_tracks_the_pending_depth
cargo test -q --release -p rmac-engine --lib report_folds
cargo test -q --release -p rmac-net --lib seen::
cargo test -q --release -p rmac-engine --lib timetable
cargo test -q --release --test memory_budget

echo "==> grid stage: grid/brute differential proptests, optimised"
cargo test -q --release --test grid_equivalence

echo "==> event budget: countdown timers, tone edges and onsets per event, CarrierOff entries per fall, NAV pops per frame, geometry and link budgets"
cargo test -q --release --test event_budget
cargo test -q --release -p rmac-engine --lib link_arithmetic_is_done_only_where_it_can_decide

echo "==> benchmark stage: the benchmark package builds --locked against the crates"
benchmark/ci.sh

# Every catalog entry's --quick store is tracked: tracked_stores re-runs each and re-renders its CSVs.
echo "==> campaign stage: resume law, the tracked stores and their CSVs, one run and one report by CLI"
cargo test -q --release --test campaign_resume
cargo test -q --release --test tracked_stores
cargo run -q --release -p rmac-experiments --bin campaign -- run unicast --quick
cargo run -q --release -p rmac-experiments --bin campaign_report -- results/campaigns/unicast-quick

echo "==> CLI stage: rmac compare on a campaign scenario label"
cargo run -q --release -- compare --scenario chain3 --packets 20

echo "CI green."
