//! The structural rules that keep this workspace to one engine, one codec
//! and one queue, checked against the source tree.
//!
//! Each test reads files under the repository root and fails naming the file
//! and line that break its rule. The tree is every file the root
//! `.gitignore` does not ignore, `.git` aside; this file is left out, since
//! it spells every name it forbids. Each rule cites the DESIGN.md section
//! that gives its reason.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

use rmac_wire::json::Json;

/// One file of the tree: its path from the root, `/`-separated, and its text.
struct Source {
    path: String,
    text: String,
}

impl Source {
    /// `(line number, line)` pairs, numbered from 1.
    fn lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.text.lines().enumerate().map(|(i, l)| (i + 1, l))
    }

    /// The lines before the file's unit-test module (a line that starts
    /// with `#[cfg(test)]`).
    fn code(&self) -> impl Iterator<Item = (usize, &str)> {
        self.lines()
            .take_while(|(_, l)| !l.starts_with("#[cfg(test)]"))
    }

    fn is_rs(&self) -> bool {
        self.path.ends_with(".rs")
    }

    /// Under `crates/<crate>/src/`.
    fn in_crate_src(&self) -> bool {
        let mut parts = self.path.split('/');
        parts.next() == Some("crates") && parts.nth(1) == Some("src")
    }

    /// Under `crates/<crate>/src/`, and no test module by its path.
    fn in_crate_code(&self) -> bool {
        self.in_crate_src() && !self.path.contains("tests")
    }

    fn under(&self, dir: &str) -> bool {
        self.path.starts_with(dir) && self.path[dir.len()..].starts_with('/')
    }
}

const SELF: &str = "tests/architecture.rs";

/// Every file of the tree but this one, sorted by path.
fn tree() -> &'static [Source] {
    static TREE: OnceLock<Vec<Source>> = OnceLock::new();
    TREE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let ignored = fs::read_to_string(root.join(".gitignore")).expect("read .gitignore");
        let ignored: Vec<&str> = ignored
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        let mut files = Vec::new();
        walk(root, "", &ignored, &mut files);
        files.sort_by(|a, b| a.path.cmp(&b.path));
        files
    })
}

fn walk(dir: &Path, rel: &str, ignored: &[&str], files: &mut Vec<Source>) {
    for entry in fs::read_dir(dir).expect("read a source directory") {
        let entry = entry.expect("read a directory entry");
        let name = entry.file_name().into_string().expect("a UTF-8 file name");
        let path = if rel.is_empty() {
            name.clone()
        } else {
            format!("{rel}/{name}")
        };
        let is_dir = entry.file_type().expect("stat a directory entry").is_dir();
        if name == ".git" || path == SELF || ignored.iter().any(|p| gitignores(p, &path, is_dir)) {
            continue;
        }
        if is_dir {
            walk(&entry.path(), &path, ignored, files);
        } else {
            let bytes = fs::read(entry.path()).expect("read a source file");
            let text = String::from_utf8_lossy(&bytes).into_owned();
            files.push(Source { path, text });
        }
    }
}

/// Does the `.gitignore` line `pattern` name `path`? Patterns are read as
/// anchored at the root (a leading `/` is optional), `*` matching within
/// one path segment and a trailing `/` naming a directory.
fn gitignores(pattern: &str, path: &str, is_dir: bool) -> bool {
    let pattern = pattern.strip_prefix('/').unwrap_or(pattern);
    let (pattern, dir_only) = match pattern.strip_suffix('/') {
        Some(p) => (p, true),
        None => (pattern, false),
    };
    let (want, have): (Vec<&str>, Vec<&str>) =
        (pattern.split('/').collect(), path.split('/').collect());
    want.len() == have.len()
        && (is_dir || !dir_only)
        && want.iter().zip(&have).all(|(w, h)| glob(w, h))
}

/// `*`-only glob match of one path segment.
fn glob(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head) && (head.len()..=name.len()).any(|i| glob(tail, &name[i..]))
        }
    }
}

fn source(path: &str) -> &'static Source {
    tree()
        .iter()
        .find(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path} is missing"))
}

/// `path:line: text` for each of `lines` that `hit` matches.
fn hits<'a>(
    path: &str,
    lines: impl Iterator<Item = (usize, &'a str)>,
    hit: &impl Fn(&str) -> bool,
) -> Vec<String> {
    lines
        .filter(|(_, l)| hit(l))
        .map(|(n, l)| format!("{path}:{n}: {l}"))
        .collect()
}

/// Every line of `files` that `hit` matches.
fn grep<'a>(
    files: impl IntoIterator<Item = &'a Source>,
    hit: impl Fn(&str) -> bool,
) -> Vec<String> {
    files
        .into_iter()
        .flat_map(|f| hits(&f.path, f.lines(), &hit))
        .collect()
}

/// Every line of `files` before their test modules that `hit` matches.
fn grep_code<'a>(
    files: impl IntoIterator<Item = &'a Source>,
    hit: impl Fn(&str) -> bool,
) -> Vec<String> {
    files
        .into_iter()
        .flat_map(|f| hits(&f.path, f.code(), &hit))
        .collect()
}

/// Fails listing `found` under `why` unless it is empty.
fn assert_none(found: &[String], why: &str) {
    assert!(found.is_empty(), "{why}:\n{}", found.join("\n"));
}

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Each byte offset at which `pat` occurs in `line`.
fn offsets<'a>(line: &'a str, pat: &'a str) -> impl Iterator<Item = usize> + 'a {
    line.match_indices(pat).map(|(i, _)| i)
}

/// `pat` occurs followed by a byte `next` accepts (not at the end of the line).
fn followed_by(line: &str, pat: &str, next: impl Fn(u8) -> bool) -> bool {
    offsets(line, pat).any(|i| line.as_bytes().get(i + pat.len()).is_some_and(|&b| next(b)))
}

/// `pat` occurs with no word byte right after it (regex `pat\b`).
fn ends_word(line: &str, pat: &str) -> bool {
    offsets(line, pat).any(|i| {
        !line
            .as_bytes()
            .get(i + pat.len())
            .is_some_and(|&b| is_word(b))
    })
}

/// `word` occurs as a whole word (regex `\bword\b`).
fn whole_word(line: &str, word: &str) -> bool {
    let b = line.as_bytes();
    offsets(line, word).any(|i| {
        (i == 0 || !is_word(b[i - 1])) && b.get(i + word.len()).is_none_or(|&c| !is_word(c))
    })
}

/// Names that were retired with the mechanisms they named: A/B knobs on the
/// run surface, a second grid runner, the sub-queue layer, the per-slot
/// backoff re-arm, the sharded trace merge, the per-edge tone counter and
/// pool, the edge-fed tone mirror in the checker, a second engine beside
/// the shard groups, mirror types around the balance table and the fuzzer,
/// a second way to hand the channel the dispatch key, received power riding
/// on a frame-onset event, per-reader hooks beside the observation stream,
/// told flags and record tallies outside the one edge type, the timing
/// wheel beside the event queue, a re-bucketing quantum beside the reuse
/// horizon, a second in-process coordinator or per-destination queue beside
/// the loopback runner and the hub's queue, the x-stripe beside the radio
/// component, a second record of a campaign beside its store (gate
/// baseline, summary file, dashboard), JSON writers beside
/// `rmac_wire::json`, full-width node stacks filtered after the run, scale
/// knobs read from the environment, and a sample kept per MRTS, per delay
/// or per seen id.
const RETIRED: &[&str] = &[
    "QueueKind",
    "with_heap_queue",
    "with_brute_force_phy",
    "RMAC_GATE_PERF_TOL",
    "RMAC_PREOBS_S",
    "SweepSpec",
    "SweepResults",
    "run_sweep",
    "try_replications",
    "RMAC_QUICK",
    "RMAC_RATES",
    "RMAC_NODES",
    "ShardedQueue",
    "SeqQueue",
    "push_with_seq",
    "home_slot",
    "EngineTransport",
    "EngineMedium",
    "schedule(SLOT, TimerKind::BackoffSlot",
    "merge_traces",
    "DispatchLog",
    "DispatchRec",
    "seed_slots",
    "TraceCapture",
    "popped_seq",
    "ManualClock",
    "BenchDocs",
    "tone_count",
    "pooled_tone_buf",
    "sensed_since",
    "rbt_runs",
    "execute_sharded",
    "into_runner",
    "sched_rng",
    "ShardGroupRow",
    "balance_rows",
    "FuzzProtocol",
    "FuzzChurn",
    "handle_at",
    "set_cursor",
    "FrameArriveStart { rx, tx, power",
    "on_tx_start",
    "on_node_down",
    "observe_indication",
    "trace_indication",
    "fn describe(r: &TraceRecord",
    "on_told",
    "off_told",
    "sync_tone_interest",
    "DEFAULT_QUANTUM",
    "level_for",
    "higher_candidate",
    "level0_candidate",
    "SLOT_BITS",
    "const QUANTUM",
    "SimEndpoint",
    "pop_due_for",
    "next_arrival_for",
    "ArrivalQueue",
    "impl Transport for",
    "fn stripes",
    "coupled_groups",
    "stripe_w",
    "GateConfig",
    "run_gate",
    "gate_spec",
    "summarize_json",
    "render_html",
    "render_ascii",
    "metric_tol_pct",
    "inject-mutant",
    "parse_flat",
    "push_obj",
    "push_list",
    "keep_owned",
    "env_u64",
    "RMAC_PACKETS",
    "mrts_lengths:",
    ".mrts_lengths",
    "delays_s",
    "seen: DetHashSet",
];

/// Retired names that only count with no word byte after them, so that a
/// longer name that starts with one stays free.
const RETIRED_WORDS: &[&str] = &[
    "RMAC_SEED",
    "RMAC_SEEDS",
    "RMAC_LIVE_PUBS",
    "RMAC_LIVE_SUBS",
    "RMAC_LIVE_PACKETS",
    "RMAC_LIVE_PAYLOAD",
    "RMAC_LIVE_SEED",
];

/// No retired knob, type or function name reappears anywhere in the tree
/// but the change logs (DESIGN.md §2, §4–§11).
#[test]
fn retired_names_stay_retired() {
    let logs = ["CHANGES.md", "ROADMAP.md"];
    let found = grep(
        tree().iter().filter(|f| !logs.contains(&f.path.as_str())),
        |l| {
            RETIRED.iter().any(|name| l.contains(name))
                || RETIRED_WORDS.iter().any(|name| ends_word(l, name))
        },
    );
    assert_none(&found, "a retired name reappeared");
}

/// The six record tallies folded into two `EdgeTally`s stay folded: no Rust
/// file names one as a word, except inside a `"phy.*"` obs counter name
/// (DESIGN.md §4).
#[test]
fn retired_record_tallies_stay_folded() {
    const TALLIES: [&str; 6] = [
        "tone_records",
        "tone_edges_scheduled",
        "tone_catchups",
        "frame_onsets",
        "frame_starts_scheduled",
        "frame_start_catchups",
    ];
    let found = grep(tree().iter().filter(|f| f.is_rs()), |l| {
        let bare = TALLIES
            .iter()
            .fold(l.to_string(), |l, t| l.replace(&format!("\"phy.{t}\""), ""));
        TALLIES.iter().any(|t| whole_word(&bare, t))
    });
    assert_none(&found, "a retired record tally field reappeared");
}

/// The trace vocabulary is spelled in one source file, `rmac_phy::trace`
/// (DESIGN.md §9).
#[test]
fn the_trace_vocabulary_is_spelled_in_one_file() {
    let spelled: Vec<&str> = tree()
        .iter()
        .filter(|f| f.in_crate_code() && f.text.contains("\"tx_done\""))
        .map(|f| f.path.as_str())
        .collect();
    assert_eq!(
        spelled,
        ["crates/phy/src/trace.rs"],
        "the trace vocabulary is spelled in these files"
    );
}

const WORLD: &str = "crates/engine/src/world.rs";

/// The name of the function a line of `world.rs` opens (`fn`, `pub fn` or
/// `pub(crate) fn` after spaces), if it opens one.
fn opened_fn(line: &str) -> Option<&str> {
    let s = line.trim_start_matches(' ');
    let s = s
        .strip_prefix("pub(crate) ")
        .or_else(|| s.strip_prefix("pub "))
        .unwrap_or(s);
    let name = s.strip_prefix("fn ")?;
    let len = name
        .bytes()
        .take_while(|&b| b.is_ascii_lowercase() || b == b'_')
        .count();
    (len > 0).then(|| &name[..len])
}

/// The `world.rs` functions with a non-comment line that `hit` matches, in
/// file order (a run of matches in one function counted once).
fn world_fns_touching(hit: impl Fn(&str) -> bool) -> Vec<String> {
    let (mut current, mut touched) = ("", Vec::<String>::new());
    for (_, line) in source(WORLD).lines() {
        if let Some(name) = opened_fn(line) {
            current = name;
        }
        let comment = line.trim_start_matches(' ').starts_with("//");
        if !comment
            && hit(line)
            && touched
                .last()
                .map_or(!current.is_empty(), |last| last != current)
        {
            touched.push(current.to_string());
        }
    }
    touched
}

fn assert_world_touches(what: &str, hit: impl Fn(&str) -> bool, want: &[&str]) {
    let got = world_fns_touching(hit);
    assert_eq!(got, want, "{WORLD} touches {what} in these functions");
}

/// Does `line` name a reader of the observation stream: a reader type, or
/// the `Attached` variant that holds one?
fn names_a_reader_type(line: &str) -> bool {
    ["Checker", "Tracer", "EngineObs", "NodeObs"]
        .iter()
        .any(|t| whole_word(line, t))
        || line.contains("Attached::")
}

/// `WorldCore::report` feeds every reader through the one interface,
/// `Reader::on_event`, and nothing else in `world.rs` calls it; `report`
/// names no reader type, field or accessor (DESIGN.md §9).
#[test]
fn report_feeds_the_readers_only_through_the_interface() {
    assert_world_touches(
        "the reader interface",
        |l| l.contains("on_event("),
        &["report"],
    );
    let names = |l: &str| {
        names_a_reader_type(l)
            || [".obs", ".check", ".tracer", "nodes["]
                .iter()
                .any(|f| ends_word(l, f))
    };
    let naming = world_fns_touching(names);
    assert!(
        !naming.contains(&"report".to_string()),
        "report names a reader; {WORLD} names one in {naming:?}"
    );
}

/// `world.rs` names a reader type only to attach and to finish it, and in
/// the one accessor through which the event loop keeps the obs books
/// (kernel profile, sampler, timer tallies) (DESIGN.md §9).
#[test]
fn world_names_a_reader_only_to_attach_and_finish() {
    let want = ["obs", "attach", "finish", "finish_check", "finish_obs"];
    assert_world_touches("a reader type", names_a_reader_type, &want);
}

/// The checker is reached from `report` through `Reader::on_event`, and
/// otherwise named only to attach and finish it (DESIGN.md §9).
#[test]
fn world_reaches_the_checker_only_to_report_attach_and_finish() {
    let hit = |l: &str| {
        l.contains("on_event(") || whole_word(l, "Checker") || l.contains("Attached::Check")
    };
    let want = ["report", "attach", "finish", "finish_check"];
    assert_world_touches("the checker", hit, &want);
}

/// The tracer is reached from `report` through `Reader::on_event`, and
/// otherwise named only to attach it (DESIGN.md §9).
#[test]
fn world_reaches_the_tracer_only_to_report_and_attach() {
    let hit = |l: &str| l.contains("on_event(") || whole_word(l, "Tracer");
    assert_world_touches("the tracer", hit, &["report", "attach"]);
}

/// The per-node protocol tallies are a reader's fold, in `crates/engine/src/obs.rs`
/// beside the obs books: no other crate source counts one (DESIGN.md §9).
#[test]
fn the_tally_fold_lives_beside_the_obs_books() {
    const TALLIES: [&str; 6] = [
        "tx",
        "rx_ok",
        "rx_corrupt",
        "tx_aborted",
        "submitted",
        "delivered",
    ];
    let counts = |l: &str| {
        l.contains("+=")
            && offsets(l, "].").any(|i| {
                let field = &l[i + "].".len()..];
                TALLIES.iter().any(|t| {
                    field.starts_with(t)
                        && field
                            .as_bytes()
                            .get(t.len())
                            .is_some_and(|&b| !(b.is_ascii_lowercase() || b == b'_'))
                })
            })
    };
    let mut folds: Vec<&str> = tree()
        .iter()
        .filter(|f| f.is_rs() && f.in_crate_code())
        .filter(|f| f.code().any(|(_, l)| counts(l)))
        .map(|f| f.path.as_str())
        .collect();
    folds.dedup();
    assert_eq!(
        folds,
        ["crates/engine/src/obs.rs"],
        "the tallies are counted in these files"
    );
}

/// A MAC's context is built in `Runner::enter`, the one way into a MAC
/// (DESIGN.md §9).
#[test]
fn world_builds_a_mac_context_only_in_enter() {
    assert_world_touches("a MAC's context", |l| l.contains("Ctx {"), &["enter"]);
}

/// Is there a `"key":` (or escaped `\"key\":`) template in `line`, a key
/// being an identifier that may hold dots?
fn json_key_template(line: &str) -> bool {
    let b = line.as_bytes();
    offsets(line, "\"").any(|i| {
        let key = &b[i + 1..];
        let starts = key
            .first()
            .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_');
        let len = key.iter().take_while(|&&c| is_word(c) || c == b'.').count();
        let rest = &key[len..];
        starts
            && (rest.starts_with(b"\":")
                || (i > 0 && b[i - 1] == b'\\' && rest.starts_with(b"\\\":")))
    })
}

/// Every JSON document is written through `rmac_wire::json`: outside
/// `crates/wire/src/json.rs`, no crate source before its test module spells
/// a `"key":` template or escapes by hand (DESIGN.md §10).
#[test]
fn json_is_written_through_one_codec() {
    let files = tree()
        .iter()
        .filter(|f| f.in_crate_code() && f.is_rs() && f.path != "crates/wire/src/json.rs");
    let found = grep_code(files, |l| {
        let b = l.as_bytes();
        let by_hand = |call| offsets(l, call).any(|i| i == 0 || !is_word(b[i - 1]));
        json_key_template(l) || by_hand("escape(") || by_hand("fmt_f64(")
    });
    assert_none(&found, "JSON is written by hand outside rmac_wire::json");
}

/// A received power is worked out in one function of
/// `crates/phy/src/channel.rs`, called where capture can read it — no fill
/// computes one per receiver (DESIGN.md §5).
#[test]
fn a_received_power_is_worked_out_at_one_site() {
    let files = tree()
        .iter()
        .filter(|f| f.under("crates/phy/src") && f.is_rs() && !f.path.contains("tests"));
    let sites = grep_code(files, |l| l.contains("powf(-PATH_LOSS_EXP)"));
    assert_eq!(
        sites.len(),
        1,
        "want one powf(-PATH_LOSS_EXP) in crates/phy/src outside tests:\n{}",
        sites.join("\n")
    );
}

/// The number of `    pub name:` lines of `pub struct name {` in `path`.
fn public_fields(path: &str, name: &str) -> usize {
    let open = format!("pub struct {name} {{");
    let mut lines = source(path)
        .text
        .lines()
        .skip_while(|l| !l.starts_with(&open));
    assert!(lines.next().is_some(), "{path} defines no `{open}`");
    lines
        .take_while(|l| !l.starts_with('}'))
        .filter(|l| {
            l.strip_prefix("    pub ").is_some_and(|f| {
                let len = f
                    .bytes()
                    .take_while(|&b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
                    .count();
                len > 0 && f[len..].starts_with(':')
            })
        })
        .count()
}

/// A value no caller sets to a second one is a constant of the module that
/// reads it, so the seven config structs keep at most 32 public fields
/// (DESIGN.md §2).
#[test]
fn config_structs_keep_at_most_32_public_fields() {
    const CONFIGS: [(&str, &str); 7] = [
        ("crates/engine/src/config.rs", "ScenarioConfig"),
        ("crates/core/src/config.rs", "MacConfig"),
        ("crates/phy/src/channel.rs", "ChannelConfig"),
        ("crates/check/src/checker.rs", "CheckConfig"),
        ("crates/live/src/soak.rs", "SoakConfig"),
        ("crates/live/src/node.rs", "LiveConfig"),
        ("crates/live/src/hub.rs", "HubConfig"),
    ];
    let counts: Vec<(&str, usize)> = CONFIGS
        .iter()
        .map(|&(path, name)| (name, public_fields(path, name)))
        .collect();
    for &(name, n) in &counts {
        assert!(n > 0, "no public field of {name} found");
    }
    let total: usize = counts.iter().map(|&(_, n)| n).sum();
    assert!(
        total <= 32,
        "the seven config structs hold {total} public fields (want <= 32): {counts:?}"
    );
}

/// Production code reads one environment variable, the deployment setting
/// `RMAC_LIVE_SCALE` (DESIGN.md §2).
#[test]
fn production_code_reads_one_environment_variable() {
    let files = tree()
        .iter()
        .filter(|f| f.in_crate_src() || f.under("src") || f.under("examples"));
    let reads = grep(files, |l| {
        l.contains("env::var(") || l.contains("env::var_os(")
    });
    assert!(
        reads.len() <= 1 && reads.iter().all(|r| r.contains("RMAC_LIVE_SCALE")),
        "production code reads an environment variable besides RMAC_LIVE_SCALE:\n{}",
        reads.join("\n")
    );
}

/// Outside `rmac-sim` nothing claims or fills a queue key but through
/// `rmac_sim::Edge` (DESIGN.md §4).
#[test]
fn no_key_is_claimed_outside_rmac_sim() {
    let files = tree()
        .iter()
        .filter(|f| f.in_crate_code() && !f.under("crates/sim"));
    let found = grep(files, |l| {
        l.contains("push_claimed(") || l.contains(".claim(")
    });
    assert_none(&found, "a key is claimed or filled outside rmac_sim::Edge");
}

/// Each queue file defines every `fn` once, so no inherent method twins a
/// `SimQueue` method (DESIGN.md §4). A `fn` counts as defined where its
/// signature ends in `{`; a trait's `;` declarations do not.
#[test]
fn a_queue_file_defines_each_fn_once() {
    for path in ["crates/sim/src/queue.rs", "crates/sim/src/calendar.rs"] {
        let (mut pending, mut defined, mut twice) = (None, BTreeSet::new(), Vec::new());
        for (n, line) in source(path).code() {
            if let Some(name) = opened_fn(line) {
                pending = Some(name);
            }
            let Some(name) = pending else { continue };
            if line.ends_with('{') || line.ends_with(';') {
                if line.ends_with('{') && !defined.insert(name) {
                    twice.push(format!("{path}:{n}: {name}"));
                }
                pending = None;
            }
        }
        assert_none(&twice, &format!("{path} defines a fn twice"));
    }
}

/// A live node keeps time on `rmac_sim::EventQueue` and the hub keeps its
/// copies in send order: nothing names the pinned `TimerWheel` shim kept
/// for the benchmark (DESIGN.md §11).
#[test]
fn nothing_names_the_timer_wheel_shim() {
    let shim = ["crates/live/src/wheel.rs", "crates/live/src/lib.rs"];
    let files = tree()
        .iter()
        .filter(|f| f.in_crate_src() && !shim.contains(&f.path.as_str()));
    let found = grep(files, |l| l.contains("TimerWheel"));
    assert_none(&found, "the pinned TimerWheel shim has a caller");
}

/// The `TimerWheel` shim stays a shim of at most 30 lines (DESIGN.md §11).
#[test]
fn the_timer_wheel_shim_stays_a_shim() {
    let lines = source("crates/live/src/wheel.rs")
        .text
        .matches('\n')
        .count();
    assert!(
        lines <= 30,
        "crates/live/src/wheel.rs is more than a shim: {lines} lines (want <= 30)"
    );
}

/// `rmac-live` builds no heap of its own: node timers are an `EventQueue`
/// and the hub's copies a FIFO (DESIGN.md §11).
#[test]
fn rmac_live_builds_no_heap_of_its_own() {
    let found = grep(tree().iter().filter(|f| f.under("crates/live/src")), |l| {
        l.contains("BinaryHeap")
    });
    assert_none(&found, "rmac-live builds a heap of its own");
}

/// The frame FCS and the datagram trailer share `crates/wire/src/crc.rs`,
/// the one Rust source outside `vendor/` that spells the CRC-32 polynomial
/// or a CRC table (DESIGN.md §11).
#[test]
fn one_crc_kernel_spells_the_polynomial() {
    let files = tree()
        .iter()
        .filter(|f| f.is_rs() && !f.under("vendor") && f.path != "crates/wire/src/crc.rs");
    let found = grep(files, |l| {
        let l = l.to_ascii_lowercase();
        let table = offsets(&l, "u32;").any(|i| {
            l[i + "u32;".len()..]
                .trim_start_matches(' ')
                .starts_with("256]")
        });
        ["edb88320", "edb8_8320", "04c11db7", "04c1_1db7"]
            .iter()
            .any(|p| l.contains(p))
            || table
    });
    assert_none(
        &found,
        "a CRC polynomial or table is spelled outside crates/wire/src/crc.rs",
    );
}

/// `unsafe` is spelled, outside comments, in the CRC kernel's call behind
/// its CPU-feature check and in the benchmark's CPU-clock read, and every
/// such line there sits under a comment block with a `// SAFETY:` line
/// (DESIGN.md §11). `vendor/`, test directories and unit-test modules are
/// exempt.
#[test]
fn unsafe_stays_in_the_crc_kernel() {
    const ALLOWED: [&str; 2] = ["crates/wire/src/crc.rs", "benchmark/src/host.rs"];
    let mut found = Vec::new();
    for f in tree().iter().filter(|f| {
        f.is_rs() && !f.under("vendor") && !f.path.split('/').any(|part| part == "tests")
    }) {
        let code: Vec<(usize, &str)> = f.code().collect();
        for (i, &(n, line)) in code.iter().enumerate() {
            if line.trim_start().starts_with("//") || !whole_word(line, "unsafe") {
                continue;
            }
            let justified = code[..i]
                .iter()
                .rev()
                .map(|(_, l)| l.trim_start())
                .take_while(|l| l.starts_with("//"))
                .any(|l| l.starts_with("// SAFETY:"));
            if !ALLOWED.contains(&f.path.as_str()) {
                found.push(format!("{}:{n}: {line}", f.path));
            } else if !justified {
                found.push(format!("{}:{n}: no // SAFETY: above: {line}", f.path));
            }
        }
    }
    assert_none(
        &found,
        "unsafe outside the CRC kernel's feature-checked call, or without its SAFETY comment",
    );
}

/// Shard groups and campaign cases run on the one worker pool,
/// `rmac_sim::try_tasks`; no crate imports rayon (DESIGN.md §4).
#[test]
fn nothing_imports_rayon() {
    let found = grep(tree().iter().filter(|f| f.in_crate_src()), |l| {
        l.contains("rayon::")
    });
    assert_none(&found, "a crate imports rayon again");
}

/// The host is read by the worker pool alone: how a replication is cut into
/// shard groups depends on its geometry and `cfg.shards`, never on the
/// core count (DESIGN.md §4, §8).
#[test]
fn only_the_worker_pool_reads_the_core_count() {
    let readers: Vec<&str> = tree()
        .iter()
        .filter(|f| f.is_rs() && !f.under("vendor") && !f.under("benchmark"))
        .filter(|f| f.text.contains("available_parallelism"))
        .map(|f| f.path.as_str())
        .collect();
    assert_eq!(
        readers,
        ["crates/sim/src/pool.rs"],
        "available_parallelism is read in these files"
    );
}

/// There is one engine: the run surface does not choose a path by shard
/// count (DESIGN.md §8).
#[test]
fn the_run_surface_does_not_branch_on_shard_count() {
    let found = grep([source("crates/engine/src/run.rs")], |l| {
        l.contains("shards > 1")
    });
    assert_none(&found, "crates/engine/src/run.rs reads cfg.shards again");
}

/// All five MACs share one send queue and the four 802.11 exchanges one
/// station: no second request queue or destination expansion, and no
/// station plumbing in the exchange files (DESIGN.md §6).
#[test]
fn one_send_queue_and_one_station() {
    let queue_home = ["crates/core/src/sendq.rs", "crates/core/src/rmac.rs"];
    let files = tree()
        .iter()
        .filter(|f| f.under("crates") && !queue_home.contains(&f.path.as_str()));
    let mut found = grep(files, |l| {
        l.contains("VecDeque<TxRequest>") || l.contains("fn load_job")
    });
    let exchanges = ["bmmm", "bmw", "lbp", "mx"].map(|x| format!("crates/baselines/src/{x}.rs"));
    found.extend(grep(exchanges.iter().map(|path| source(path)), |l| {
        l.contains("fn response_timeout")
            || ends_word(l, "fn respond")
            || l.contains("TimerKind::RespIfs")
    }));
    assert_none(
        &found,
        "a copy of the shared send queue or 802.11 station grew back",
    );
}

/// A `results/*.csv` comes from a campaign store through
/// `figures::render`, or from one of the two bins whose table no store
/// holds: no other production code turns a table into CSV or names a
/// `.csv` file (DESIGN.md §10).
#[test]
fn only_the_renderer_and_two_bins_write_a_csv() {
    const RENDERER: &str = "crates/experiments/src/figures.rs";
    const BINS: [&str; 2] = [
        "crates/experiments/src/bin/table1_transitions.rs",
        "crates/experiments/src/bin/table_overhead.rs",
    ];
    let writes = |l: &str| l.contains("to_csv(") || l.contains(".csv\"");
    let files = tree().iter().filter(|f| {
        let exempt = BINS.contains(&f.path.as_str()) || f.path == "crates/metrics/src/table.rs";
        f.is_rs() && !f.under("vendor") && !f.path.contains("tests") && !exempt
    });
    let mut found = Vec::new();
    for f in files {
        let mut current = "";
        for (n, line) in f.code() {
            current = opened_fn(line).unwrap_or(current);
            if writes(line) && (f.path != RENDERER || current != "render") {
                found.push(format!("{}:{n}: {line}", f.path));
            }
        }
    }
    assert_none(
        &found,
        "a CSV is written outside figures::render and the two table bins",
    );
}

/// A network of fewer than the paper's 75 nodes keeps the paper's density
/// through `ScenarioConfig::with_nodes`, the one place the √(n/75) plane
/// scale is spelled, so the CLI, the bins, the tests and every campaign
/// shrink a network alike (DESIGN.md §2). `tests/shard_equivalence.rs`
/// sizes 250-node cells past 75 the way the benchmark's multicell layout
/// does, which `with_nodes` never does.
#[test]
fn the_density_rule_is_spelled_once() {
    let files = tree()
        .iter()
        .filter(|f| f.is_rs() && !f.under("vendor") && !f.under("benchmark"));
    let found = grep(files, |l| l.contains("/ 75.0).sqrt()"));
    let copies: Vec<&String> = (found.iter())
        .filter(|h| !(h.starts_with("tests/shard_equivalence.rs:") && h.contains("per_cell")))
        .collect();
    assert!(
        copies.len() == 1 && copies[0].starts_with("crates/engine/src/config.rs:"),
        "the density rule is spelled outside ScenarioConfig::with_nodes:\n{}",
        found.join("\n")
    );
}

/// A protocol's label is spelled in `Protocol::label` alone: the manifest
/// reader, the CLI, the fuzzer and the figures reach it through
/// `Protocol::{ALL, from_label, label}`, so no production file outside
/// `crates/engine/src/config.rs` spells one as a string (DESIGN.md §10).
#[test]
fn a_protocol_label_is_spelled_once() {
    const HOME: &str = "crates/engine/src/config.rs";
    let labels: Vec<&str> = (source(HOME).code())
        .skip_while(|(_, l)| !l.contains("fn label(self)"))
        .take_while(|(_, l)| *l != "    }")
        .filter_map(|(_, l)| l.split_once("=> ").map(|(_, label)| label))
        .map(|label| label.trim_end_matches(','))
        .collect();
    assert!(labels.contains(&"\"RMAC\""), "{HOME}: labels not found");
    let files = tree().iter().filter(|f| {
        let production = f.in_crate_code() || f.under("src") || f.under("examples");
        f.is_rs() && production && f.path != HOME
    });
    let found = grep_code(files, |l| labels.iter().any(|label| l.contains(label)));
    assert_none(
        &found,
        "a protocol label is spelled outside Protocol::label",
    );
}

/// A store key is named once in `store.rs`'s code: by its row in the one
/// list that writes the line, parses it and maps it to and from a report
/// (DESIGN.md §10), so no key drifts back into a parallel list. The keys are
/// a tracked store line's and `obs_counters`.
#[test]
fn a_store_key_is_named_once() {
    const HOME: &str = "crates/campaign/src/store.rs";
    let store = &source("results/campaigns/gate/store.jsonl").text;
    let line = store.lines().next().expect("a tracked store line");
    let Ok(Json::Obj(fields)) = Json::parse(line) else {
        panic!("a store line is a JSON object");
    };
    let named = |key: &str| -> usize {
        let quoted = format!("\"{key}\"");
        source(HOME)
            .code()
            .map(|(_, l)| l.matches(&quoted).count())
            .sum()
    };
    let found: Vec<String> = (fields.iter().map(|(key, _)| key.as_str()))
        .chain(["obs_counters"])
        .filter_map(|key| {
            let n = named(key);
            (n != 1).then(|| format!("{HOME}: \"{key}\" is named {n} times"))
        })
        .collect();
    assert_none(&found, "a store key is not named exactly once");
}

/// `Run` is the one way in (DESIGN.md §8): no Rust file names the shims
/// `benchmark/README.md` pins but `run.rs`, the crate root that re-exports
/// them and `tests/run_surface.rs`, which holds them to `Run`'s output, so
/// retiring them is a deletion.
#[test]
fn nothing_names_the_pinned_run_shims() {
    const SHIMS: [&str; 8] = [
        "Runner::new",
        "Runner::run",
        "set_obs",
        "run_obs",
        "ShardedRunner",
        "run_replication_checked",
        "run_replication_sharded_checked",
        "run_replication_instrumented",
    ];
    const HOMES: [&str; 3] = [
        "crates/engine/src/run.rs",
        "crates/engine/src/lib.rs",
        "tests/run_surface.rs",
    ];
    let files = tree().iter().filter(|f| {
        f.is_rs()
            && !f.under("vendor")
            && !f.under("benchmark")
            && !HOMES.contains(&f.path.as_str())
    });
    let found = grep(files, |l| SHIMS.iter().any(|shim| whole_word(l, shim)));
    assert_none(&found, "a pinned run shim has a caller outside its home");
}

/// `rmac-obs` is data and JSON: it prints nothing and aligns no column, so
/// no source of it imports `std::fmt::Write`; every printed table is an
/// `rmac_metrics::Table` built by the code that prints it (DESIGN.md §9).
#[test]
fn rmac_obs_keeps_data_and_json_only() {
    let files = tree().iter().filter(|f| f.under("crates/obs/src"));
    let found = grep(files, |l| l.contains("fmt::Write"));
    assert_none(&found, "rmac-obs renders text");
}

/// Rust sources the line budget counts: the root package's, every
/// crate's and the examples'.
fn counted_rs(f: &Source) -> bool {
    f.is_rs() && (f.under("src") || f.in_crate_src() || f.under("examples"))
}

/// The text after a `#[cfg(test)]` attribute that opens `lines[i]`: the
/// rest of that line, or the next line when the attribute stands alone.
fn after_cfg_test<'a>(lines: &[&'a str], i: usize) -> Option<&'a str> {
    let rest = lines[i].trim_start().strip_prefix("#[cfg(test)]")?.trim();
    Some(match rest {
        "" => lines.get(i + 1).map_or("", |l| l.trim_start()),
        rest => rest,
    })
}

/// The name of the module a line declares (`mod name;` or `mod name {`,
/// after any visibility).
fn declared_mod(line: &str) -> Option<&str> {
    let line = ["pub ", "pub(crate) "]
        .iter()
        .find_map(|v| line.strip_prefix(v))
        .unwrap_or(line);
    let name = line.strip_prefix("mod ")?;
    Some(name.trim_end_matches([';', '{', ' ']))
}

/// In every counted source, `#[cfg(test)]` gates a module and nothing else:
/// a test-only helper lives in the test module, so a file's production code
/// is every line above its first `#[cfg(test)]` (DESIGN.md §1).
#[test]
fn cfg_test_gates_only_a_module() {
    let mut found = Vec::new();
    for f in tree().iter().filter(|f| counted_rs(f)) {
        let lines: Vec<&str> = f.text.lines().collect();
        for i in 0..lines.len() {
            if after_cfg_test(&lines, i).is_some_and(|next| declared_mod(next).is_none()) {
                found.push(format!("{}:{}: {}", f.path, i + 1, lines[i]));
            }
        }
    }
    assert_none(&found, "a #[cfg(test)] gates something other than a module");
}

/// The files that `#[cfg(test)] mod name;` lines declare: compiled only
/// under `cfg(test)`.
fn test_only_files() -> BTreeSet<String> {
    let mut files = BTreeSet::new();
    for f in tree().iter().filter(|f| counted_rs(f)) {
        let (dir, stem) = f.path.rsplit_once('/').expect("a file in a directory");
        let stem = stem.trim_end_matches(".rs");
        let dir = match stem {
            "lib" | "main" | "mod" => dir.to_string(),
            _ => format!("{dir}/{stem}"),
        };
        let lines: Vec<&str> = f.text.lines().collect();
        for i in 0..lines.len() {
            let declared = after_cfg_test(&lines, i).filter(|l| l.ends_with(';'));
            if let Some(name) = declared.and_then(declared_mod) {
                files.insert(format!("{dir}/{name}.rs"));
                files.insert(format!("{dir}/{name}/mod.rs"));
            }
        }
    }
    files
}

/// Non-test Rust lines the workspace may hold: every line of each counted
/// source above its first `#[cfg(test)]`, files compiled only under
/// `cfg(test)` skipped. Set at the count it holds, so a change that adds
/// code raises it in its own diff (DESIGN.md §1).
const CODE_LINES: usize = 20_834;

/// The workspace keeps to its non-test line budget (DESIGN.md §1).
#[test]
fn non_test_code_keeps_its_line_budget() {
    let test_only = test_only_files();
    let lines: usize = tree()
        .iter()
        .filter(|f| counted_rs(f) && !test_only.contains(&f.path))
        .map(|f| f.code().count())
        .sum();
    assert!(
        lines <= CODE_LINES,
        "{lines} non-test Rust lines (want <= {CODE_LINES}): a change that adds code \
         raises the budget in its own diff"
    );
}

/// The description files other files cite by section, each with its byte
/// budget.
const DOCS: [(&str, usize); 2] = [("DESIGN.md", 45_000), ("EXPERIMENTS.md", 35_000)];

/// The text of each heading of a markdown file outside code fences, its
/// `#`s and spaces stripped.
fn headings(path: &str) -> Vec<&'static str> {
    let mut fenced = false;
    source(path)
        .text
        .lines()
        .filter(|l| {
            fenced ^= l.starts_with("```");
            !fenced && l.starts_with('#')
        })
        .map(|l| l.trim_start_matches('#').trim())
        .collect()
}

/// The sections that `rest`, the text right after a cited file name, names:
/// `§N` (more after `, ` or `–`), then a quoted title, or a quoted title
/// alone.
fn cited_sections(rest: &str) -> Vec<String> {
    let mut rest = rest.trim_start_matches(['`', ' ', '(']);
    let mut cited = Vec::new();
    while let Some(r) = rest.strip_prefix('§') {
        let digits = r.bytes().take_while(u8::is_ascii_digit).count();
        if digits == 0 {
            break;
        }
        cited.push(format!("§{}", &r[..digits]));
        rest = &r[digits..];
        rest = [", ", "–"]
            .iter()
            .find_map(|sep| rest.strip_prefix(sep))
            .unwrap_or(rest);
    }
    if let Some((title, _)) = rest.strip_prefix('"').and_then(|r| r.split_once('"')) {
        cited.push(title.to_string());
    }
    cited
}

/// Is `cited` among `headings`: a `§N` whose number begins a heading as
/// `N.`, or a title that begins a heading, after the heading's number if it
/// has one?
fn has_section(headings: &[&str], cited: &str) -> bool {
    match cited.strip_prefix('§') {
        Some(n) => headings
            .iter()
            .any(|h| h.strip_prefix(n).is_some_and(|t| t.starts_with(". "))),
        None => headings.iter().any(|h| {
            let numbered = h
                .split_once(". ")
                .filter(|(n, _)| n.bytes().all(|b| b.is_ascii_digit()));
            numbered.map_or(*h, |(_, title)| title).starts_with(cited)
        }),
    }
}

/// Every `DESIGN.md §N`, `DESIGN.md "Title"` and `EXPERIMENTS.md "Title"` in
/// the tree names a heading that exists, a title the start of one, also
/// where a line break splits the citation. CHANGES.md records what the
/// files said at the time, and other top-level notes may quote citations as
/// they stood, so of the top-level markdown files only README.md, ROADMAP.md
/// and the two docs are held (DESIGN.md §1).
#[test]
fn doc_citations_name_headings_that_exist() {
    let docs: Vec<(&str, Vec<&str>)> = DOCS.iter().map(|&(d, _)| (d, headings(d))).collect();
    let held = |p: &str| {
        p.contains('/')
            || !p.ends_with(".md")
            || ["README.md", "ROADMAP.md"].contains(&p)
            || DOCS.iter().any(|&(d, _)| d == p)
    };
    let mut found = Vec::new();
    for f in tree().iter().filter(|f| held(&f.path)) {
        let lines: Vec<&str> = f.text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let next = lines.get(i + 1).map_or("", |l| {
                l.trim_start()
                    .trim_start_matches(['/', '!', '#', '>'])
                    .trim_start()
            });
            let joined = format!("{line} {next}");
            for (doc, heads) in &docs {
                for at in offsets(&joined, doc).filter(|&at| at < line.len()) {
                    for cited in cited_sections(&joined[at + doc.len()..]) {
                        if !has_section(heads, &cited) {
                            found.push(format!("{}:{}: {doc} {cited}", f.path, i + 1));
                        }
                    }
                }
            }
        }
    }
    assert_none(&found, "a citation names no heading of its file");
}

/// DESIGN.md and EXPERIMENTS.md describe what is: each keeps to its byte
/// budget, and no heading names a PR, whose story is CHANGES.md's
/// (DESIGN.md §1).
#[test]
fn the_description_files_keep_their_budgets() {
    let mut found = Vec::new();
    for (doc, budget) in DOCS {
        let bytes = source(doc).text.len();
        if bytes > budget {
            found.push(format!("{doc}: {bytes} bytes (want <= {budget})"));
        }
        found.extend(
            headings(doc)
                .into_iter()
                .filter(|h| followed_by(h, "PR ", |b| b.is_ascii_digit()))
                .map(|h| format!("{doc}: a heading names a PR: {h}")),
        );
    }
    assert_none(
        &found,
        "a description file outgrew its budget or dates itself",
    );
}
