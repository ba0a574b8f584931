#!/usr/bin/env bash
# The CI gate: .github/workflows/ci.yml runs this script and nothing else.
# All dependencies are vendored (vendor/*), so this works fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# A debug build on purpose: rmac-live's hostile-clock proptest (crates/live/src/node.rs) holds an
# invariant whose checks are debug_asserts — the event queue's "scheduled in the past" among them.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> retired names stay retired (no A/B knobs on the run surface, one grid runner, no sub-queue layer,"
echo "    no per-slot backoff re-arm, no sharded trace merge, no per-edge tone counter or pool, no"
echo "    edge-fed tone mirror in the checker, no second engine beside the shard groups, no mirror"
echo "    types around the balance table or the fuzzer, no second way to hand the channel the dispatch"
echo "    key, no received power riding on a frame-onset event, no per-reader hook beside the"
echo "    observation stream, no told flag or record tally outside the one edge type, no timing"
echo "    wheel beside the event queue, no re-bucketing quantum beside the reuse horizon and no second"
echo "    in-process coordinator or per-destination queue beside the loopback runner and the hub's queue,"
echo "    no x-stripe beside the radio component, no second record of a campaign beside its store —"
echo "    no gate baseline, summary file or dashboard — no JSON writer beside rmac_wire::json, and no"
echo "    full-width node stacks filtered down to a group's own after the run, no scale knob a bin"
echo "    reads from the environment, and no sample kept per MRTS, per delay or per seen id: DESIGN.md"
echo "    §13, §11, §10, §12, §8, §7, §9, §6, §2)"
if git grep -nE 'QueueKind|with_heap_queue|with_brute_force_phy|RMAC_GATE_PERF_TOL|RMAC_PREOBS_S|SweepSpec|SweepResults|run_sweep|try_replications|RMAC_QUICK|RMAC_RATES|RMAC_NODES|ShardedQueue|SeqQueue|push_with_seq|home_slot|EngineTransport|EngineMedium|schedule\(SLOT, TimerKind::BackoffSlot|merge_traces|DispatchLog|DispatchRec|seed_slots|TraceCapture|popped_seq|ManualClock|BenchDocs|tone_count|pooled_tone_buf|sensed_since|rbt_runs|execute_sharded|into_runner|sched_rng|ShardGroupRow|balance_rows|FuzzProtocol|FuzzChurn|handle_at|set_cursor|FrameArriveStart \{ rx, tx, power|on_tx_start|on_node_down|observe_indication|trace_indication|fn describe\(r: &TraceRecord|on_told|off_told|sync_tone_interest|DEFAULT_QUANTUM|level_for|higher_candidate|level0_candidate|SLOT_BITS|const QUANTUM|SimEndpoint|pop_due_for|next_arrival_for|ArrivalQueue|impl Transport for|fn stripes|coupled_groups|stripe_w|GateConfig|run_gate|gate_spec|summarize_json|render_html|render_ascii|metric_tol_pct|inject-mutant|parse_flat|push_obj|push_list|keep_owned|env_u64|RMAC_SEEDS?\b|RMAC_PACKETS|RMAC_LIVE_(PUBS|SUBS|PACKETS|PAYLOAD|SEED)\b|mrts_lengths:|\.mrts_lengths|delays_s|seen: DetHashSet' \
    -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!ci.sh'; then
    echo "a retired knob name reappeared (see above)" >&2
    exit 1
fi

# The six tally fields PR 22 folded into two `EdgeTally`s may not come back as fields; the
# `"phy.*"` obs counter names are strings and stay.
tallies='tone_records|tone_edges_scheduled|tone_catchups|frame_onsets|frame_starts_scheduled|frame_start_catchups'
if git grep -nE "\\b($tallies)\\b" -- '*.rs' | sed -E "s/\"phy\.($tallies)\"//g" | grep -E "\\b($tallies)\\b"; then
    echo "a retired record tally field reappeared (see above)" >&2
    exit 1
fi

echo "==> one observation stream (DESIGN.md §7): the vocabulary is spelled in one source file, and in"
echo "    world.rs one function feeds the checker, the tracer and the per-node protocol tallies"
spelled=$(git grep -l '"tx_done"' -- 'crates/*/src/*' ':!*tests*')
if [ "$spelled" != crates/phy/src/trace.rs ]; then
    echo "the trace vocabulary is spelled in: $spelled" >&2
    exit 1
fi
# The world.rs functions with a line matching $1, in file order.
fns_touching() {
    awk -v pat="$1" '
        /^ *(pub(\(crate\))? )?fn [a-z_]+/ { match($0, /fn [a-z_]+/); f = substr($0, RSTART + 3, RLENGTH - 3) }
        $0 !~ /^ *\/\// && $0 ~ pat && f != last { printf "%s ", f; last = f }
    ' crates/engine/src/world.rs
}
touched() {
    if [ "$(fns_touching "$2")" != "$3" ]; then
        echo "world.rs touches $1 in: $(fns_touching "$2")(want: $3)" >&2
        exit 1
    fi
}
touched "the checker's events" 'chk\.' 'report '
touched "the checker" '(core|self)\.check[^a-z_(]' 'report attach finish_check '
touched "the tracer" '(core|self)\.tracer|tracer\(' 'report attach '
touched "the protocol tallies" 'nodes\[[a-z.()]*\]\.(tx|rx_ok|rx_corrupt|tx_aborted|submitted|delivered)[^a-z_]' 'report '
touched "a MAC's context" 'Ctx \{' 'enter '

echo "==> one JSON writer (DESIGN.md §11): every document is written through rmac_wire::json, so outside"
echo "    crates/wire/src/json.rs no source (tests excluded) spells a \"key\": template or escapes by hand"
templates=$(git ls-files 'crates/*/src/*.rs' | grep -v -e tests -e '^crates/wire/src/json.rs$' | while read -r f; do
    awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /\\"[A-Za-z_][A-Za-z0-9_.]*\\":|"[A-Za-z_][A-Za-z0-9_.]*":|(^|[^_A-Za-z0-9])(escape|fmt_f64)\(/ { print f ":" FNR ": " $0 }
    ' "$f"
done)
if [ -n "$templates" ]; then
    echo "$templates" >&2
    echo "JSON is written by hand outside rmac_wire::json (see above)" >&2
    exit 1
fi

echo "==> one path-gain site (DESIGN.md §2, §6): a received power is worked out in one function of"
echo "    crates/phy/src/channel.rs, called where capture can read it — no fill computes one per receiver"
sites=$(git ls-files 'crates/phy/src/*.rs' | grep -v tests | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } /powf\(-PATH_LOSS_EXP\)/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ "$(printf '%s' "$sites" | grep -c .)" -ne 1 ]; then
    echo "${sites:-no path-gain site found}" >&2
    echo "want exactly one powf(-PATH_LOSS_EXP) in crates/phy/src outside tests (see above)" >&2
    exit 1
fi

echo "==> one value, one constant (DESIGN.md §2): a value no caller sets to a second one is a constant of the"
echo "    module that reads it, so the six config structs keep 30 public fields and production code reads one"
echo "    environment variable, RMAC_LIVE_SCALE (a deployment setting)"
fields=0
for spec in crates/engine/src/config.rs:ScenarioConfig crates/core/src/config.rs:MacConfig \
            crates/phy/src/channel.rs:ChannelConfig crates/check/src/checker.rs:CheckConfig \
            crates/live/src/soak.rs:SoakConfig crates/live/src/node.rs:LiveConfig; do
    n=$(awk -v s="${spec#*:}" '
        $0 ~ "^pub struct " s " [{]" { on = 1; next }
        on && /^}/ { exit }
        on && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }
    ' "${spec%%:*}")
    if [ "$n" -eq 0 ]; then
        echo "no public field of ${spec#*:} found in ${spec%%:*}" >&2
        exit 1
    fi
    fields=$((fields + n))
done
if [ "$fields" -gt 30 ]; then
    echo "the six config structs hold $fields public fields (want <= 30)" >&2
    exit 1
fi
reads=$(git grep -nE 'env::var(_os)?\(' -- 'crates/*/src/*' 'src/*' 'examples/*' || true)
if [ "$(printf '%s' "$reads" | grep -c .)" -gt 1 ] || printf '%s' "$reads" | grep -v RMAC_LIVE_SCALE; then
    echo "$reads" >&2
    echo "production code reads an environment variable besides RMAC_LIVE_SCALE (see above)" >&2
    exit 1
fi

echo "==> one claimed key (DESIGN.md §12): outside rmac-sim nothing claims or fills a key but through"
echo "    rmac_sim::Edge, and each queue file defines every fn once (no inherent twin of a trait method)"
if git grep -n 'push_claimed(\|\.claim(' -- 'crates/*/src/*' ':!*tests*' ':!crates/sim/*'; then
    echo "a key is claimed or filled outside rmac_sim::Edge (see above)" >&2
    exit 1
fi
for f in crates/sim/src/queue.rs crates/sim/src/calendar.rs; do
    # A `fn` counts as defined where its signature ends in `{` (a trait's `;` declarations do not).
    twice=$(awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^ *(pub(\(crate\))? )?fn [a-z_]+/ { match($0, /fn [a-z_]+/); pending = substr($0, RSTART + 3, RLENGTH - 3) }
        pending != "" && /[{;]$/ { if ($0 ~ /\{$/ && seen[pending]++) printf "%s ", pending; pending = "" }
    ' "$f")
    if [ -n "$twice" ]; then
        echo "$f defines twice: $twice" >&2
        exit 1
    fi
done

echo "==> one queue per live node, one for the hub (DESIGN.md §9): a live node keeps time and the hub"
echo "    keeps its datagrams in flight on rmac_sim::EventQueue — nothing names the pinned TimerWheel"
echo "    shim, the shim stays a shim, and rmac-live builds no heap of its own"
if git grep -n 'TimerWheel' -- 'crates/*/src/*' ':!crates/live/src/wheel.rs' ':!crates/live/src/lib.rs'; then
    echo "the pinned TimerWheel shim has a caller (see above)" >&2
    exit 1
fi
if [ "$(wc -l <crates/live/src/wheel.rs)" -gt 30 ]; then
    echo "crates/live/src/wheel.rs is more than a shim: $(wc -l <crates/live/src/wheel.rs) lines (want <= 30)" >&2
    exit 1
fi
if git grep -n 'BinaryHeap' -- crates/live/src; then
    echo "rmac-live builds a heap of its own (see above)" >&2
    exit 1
fi

echo "==> one CRC kernel (DESIGN.md §9): the frame FCS and the datagram trailer share crates/wire/src/crc.rs,"
echo "    the one source (tests included) that spells the polynomial or a CRC table; the wire tests check it"
echo "    against a bitwise oracle, and the pinned soak report holds every checksummed byte"
if git grep -nIiE 'edb8_?8320|04c1_?1db7|u32; *256\]' -- '*.rs' ':!vendor' ':!crates/wire/src/crc.rs'; then
    echo "a CRC polynomial or table is spelled outside crates/wire/src/crc.rs (see above)" >&2
    exit 1
fi
cargo test -q --release -p rmac-wire
cargo test -q --release -p rmac-live --test live_determinism

echo "==> one worker pool (DESIGN.md §10, §11): shard groups and campaign cases run on rmac_sim::try_tasks,"
echo "    and nothing imports rayon (its one Cargo edge stays until the benchmark refresh)"
if git grep -n 'rayon::' -- 'crates/*/src/*'; then
    echo "a crate imports rayon again (see above)" >&2
    exit 1
fi

echo "==> the host is read by the worker pool alone (DESIGN.md §10): how a replication is cut into shard"
echo "    groups depends on its geometry and cfg.shards, never on the core count"
readers=$(git grep -l 'available_parallelism' -- '*.rs' ':!vendor' ':!benchmark')
if [ "$readers" != crates/sim/src/pool.rs ]; then
    echo "available_parallelism is read in: $readers (want: crates/sim/src/pool.rs)" >&2
    exit 1
fi

echo "==> one engine (DESIGN.md §10): the run surface does not choose a path by shard count"
if git grep -n 'shards > 1' -- crates/engine/src/run.rs; then
    echo "crates/engine/src/run.rs reads cfg.shards again (see above)" >&2
    exit 1
fi

echo "==> one send queue, one 802.11 station (DESIGN.md §14): no second request queue or destination"
echo "    expansion, and no station plumbing in the four exchange files"
if git grep -nE 'VecDeque<TxRequest>|fn load_job' -- crates \
       ':!crates/core/src/sendq.rs' ':!crates/core/src/rmac.rs' \
   || git grep -nE 'fn response_timeout|fn respond\b|TimerKind::RespIfs' \
       -- crates/baselines/src/bmmm.rs crates/baselines/src/bmw.rs crates/baselines/src/lbp.rs crates/baselines/src/mx.rs; then
    echo "a copy of the shared send queue or 802.11 station grew back (see above)" >&2
    exit 1
fi

echo "==> obs_report --smoke (instrumented run: bit-identity + trace schema + renders)"
cargo run -q --release -p rmac-experiments --bin obs_report -- --smoke

echo "==> check-fuzz (conformance fuzz smoke: 1000 seeded scenarios under C1-C5)"
cargo run -q --release -p rmac-experiments --bin fuzz_scenarios -- --smoke

echo "==> soak_live --smoke (live loopback soak: 100% delivery under 20% GE loss)"
cargo run -q --release -p rmac-experiments --bin soak_live -- --smoke

echo "==> shard stage (radio-component decomposition and packing; the ownership count — every group of the"
echo "    eight-cell layout builds stacks for its own nodes, 2 000 in all, not 8 × 2 000; then sharded-engine"
echo "    equivalence proptests, a stackless jammer group, a restart outside the first group, the eight cells)"
cargo test -q --release -p rmac-engine --lib shard::
cargo test -q --release --test shard_equivalence

echo "==> queue stage (calendar/heap differential proptests, sparse and top-of-clock schedules, then the"
echo "    window-advance pin: a replication advances its calendar at most once per event popped; buffer"
echo "    recycling moves only where an entry's bytes sit, never the pop order, and queue_equivalence holds it)"
cargo test -q --release --test queue_equivalence
cargo test -q --release -p rmac-engine --lib the_calendar_advances_at_most_once_per_event

echo "==> memory follows what is live (the calendar keeps buffers only for windows that hold events, so"
echo "    retained capacity tracks the pending depth; the run report folds its MRTS counts bit for bit as"
echo "    the flattened lengths did, and its delay mean is the exact nanosecond sum's, within (n/2 + 2)·ε of"
echo "    the per-sample seconds summed in node order)"
cargo test -q --release -p rmac-sim --lib retained_capacity_tracks_the_pending_depth
cargo test -q --release -p rmac-engine --lib report_folds

echo "==> memory does not grow with the run (a replication's peak live heap bytes stay under budget, and"
echo "    four times the packets hold at most 32 KiB more: seen ids are a low-water mark plus a bitset"
echo "    window that answers as a hash set, delays one nanosecond sum, and the beacon timetable one"
echo "    jitter per fire that fires as the absolute table did; a live soak takes every node's deliveries"
echo "    and counts MRTSs per receiver count, so four times the packets hold no more at the peak; the"
echo "    pinned soak reports do not move)"
cargo test -q --release -p rmac-net --lib seen::
cargo test -q --release -p rmac-engine --lib timetable
cargo test -q --release --test memory_budget
cargo test -q --release -p rmac-live --test live_determinism

echo "==> grid stage (grid/brute differential proptests, optimised: the neighbour-list walk that ships,"
echo "    hundreds of fills per reuse horizon included)"
cargo test -q --release --test grid_equivalence

echo "==> event budget (countdown timers per transmitted frame; dispatched tone edges and frame onsets"
echo "    each a small share of events; reports pinned to the per-slot, event-per-edge engine's),"
echo "    geometry budget (bucket refreshes and list rebuilds per reuse horizon, position evaluations per fill)"
echo "    and link budget (path gains at most a quarter of frame onsets and frame-end position reads at most"
echo "    1 % of frame ends under mobility; one gain per kept link and no frame-end read where nothing moves)"
cargo test -q --release --test event_budget
cargo test -q --release -p rmac-engine --lib link_arithmetic_is_done_only_where_it_can_decide

echo "==> benchmark stage (builds the benchmark package --locked against the crates: a broken"
echo "    pinned signature or a changed dependency edge fails here, not in the benchmark pipeline)"
benchmark/ci.sh

echo "==> campaign stage (resume law + every catalog figure at quick scale: run under C1-C5,"
echo "    non-zero on an unclean case, summary + figures rendered from the store + the tracked stores,"
echo "    re-run from their manifests, clean and byte-equal to the committed ones)"
cargo test -q --release --test campaign_resume
for c in paper-figures shootout rbt-ablation goodput faults tone-jam; do
    cargo run -q --release -p rmac-experiments --bin campaign -- run "$c" --quick
    cargo run -q --release -p rmac-experiments --bin campaign_report -- "results/campaigns/$c-quick"
done
cargo test -q --release --test tracked_stores

echo "CI green."
