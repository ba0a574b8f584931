//! The tracked campaign stores are their own regression baselines.
//!
//! Each directory in [`TRACKED`] holds a committed `manifest.json` and
//! `store.jsonl`. A store is a pure function of its manifest (DESIGN.md
//! §10), so re-running the manifest must reproduce it byte for byte, with
//! every case clean under the C1–C5 checker. A behaviour change of any
//! size fails here, naming the first case that moved and each field with
//! both values. A catalog store also holds the CSVs `campaign_report`
//! renders beside it, and rendering the committed store must reproduce
//! them byte for byte.
//!
//! To re-record a store after an intended change, delete its `store.jsonl`,
//! run its manifest (`campaign run <dir>/manifest.json`), render it
//! (`campaign_report <dir>`) and review the diff.

use std::path::{Path, PathBuf};

use rmac::campaign::{campaign_dir, load_store, run_campaign, CampaignSpec, RunOptions};
use rmac::obs::json::Json;
use rmac_experiments::figures;

/// The 24-case conformance grid (RMAC vs BMMM on a clean and a bursty
/// channel), then every catalog entry at smoke scale.
const TRACKED: [&str; 12] = [
    "results/campaigns/gate",
    "results/campaigns/paper-figures-quick",
    "results/campaigns/topology-quick",
    "results/campaigns/shootout-quick",
    "results/campaigns/rbt-ablation-quick",
    "results/campaigns/goodput-quick",
    "results/campaigns/faults-quick",
    "results/campaigns/tone-jam-quick",
    "results/campaigns/rx-limit-quick",
    "results/campaigns/ber-quick",
    "results/campaigns/unicast-quick",
    "results/campaigns/motivation-quick",
];

/// A manifest run afresh.
struct Fresh {
    manifest: String,
    store: String,
    /// `key: N violation(s): first` for each case the checker flagged.
    unclean: Vec<String>,
}

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rmac-tracked-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A file of a store directory (relative to the repository root, or
/// absolute).
fn read(dir: &Path, file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn quiet() -> RunOptions {
    RunOptions {
        quiet: true,
        ..Default::default()
    }
}

fn rerun(manifest: &str, tag: &str) -> Fresh {
    let spec = CampaignSpec::from_json(manifest).expect("manifest parses");
    let dir = scratch(tag);
    let out = run_campaign(&spec, &dir, &quiet()).expect("campaign runs");
    let fresh = Fresh {
        manifest: read(&dir, "manifest.json"),
        store: read(&dir, "store.jsonl"),
        unclean: (out.records.iter().filter(|r| !r.check_clean))
            .map(|r| {
                format!(
                    "{}: {} violation(s): {}",
                    r.key, r.violations, r.first_violation
                )
            })
            .collect(),
    };
    let _ = std::fs::remove_dir_all(&dir);
    fresh
}

/// Whether `fresh` reproduces the store committed in `dir`. `Err` lists
/// every unclean case, a manifest its spec does not write back, and how
/// the stores differ, then says how to re-record.
fn check(dir: &Path, fresh: &Fresh) -> Result<(), String> {
    let mut found: Vec<String> = (fresh.unclean.iter())
        .map(|u| format!("unclean case {u}"))
        .collect();
    if read(dir, "manifest.json") != fresh.manifest {
        found.push("manifest.json is not the JSON its spec writes".into());
    }
    found.extend(store_diff(&read(dir, "store.jsonl"), &fresh.store));
    if found.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{d}: the committed store does not reproduce\n{}\n\
         to re-record after an intended change: delete {d}/store.jsonl, run \
         `cargo run --release -p rmac-experiments --bin campaign -- run {d}/manifest.json` \
         and review the diff",
        found.join("\n"),
        d = dir.display(),
    ))
}

/// How a fresh `store.jsonl` differs from the committed one: the first
/// case whose record differs, each differing field with both values, then
/// every case the committed store is missing and every extra one it holds.
fn store_diff(committed: &str, fresh: &str) -> Vec<String> {
    if committed == fresh {
        return Vec::new();
    }
    fn find<'a>(set: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
        set.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
    let (old, new) = (cases(committed), cases(fresh));
    let mut out = Vec::new();
    let moved = old.iter().find_map(|(key, was)| {
        let now = find(&new, key)?;
        (now != was).then_some((key, was, now))
    });
    if let Some((key, was, now)) = moved {
        out.push(format!("first differing case {key}:"));
        field_diffs("", was, now, &mut out);
    }
    for (key, _) in &new {
        if find(&old, key).is_none() {
            out.push(format!(
                "missing case {key}: the run produces it, the store lacks it"
            ));
        }
    }
    for (key, _) in &old {
        if find(&new, key).is_none() {
            out.push(format!(
                "extra case {key}: the store holds it, the run does not produce it"
            ));
        }
    }
    if out.is_empty() {
        out.push("the same records in other bytes or another order".into());
    }
    out
}

/// A store's lines as (case key, record); a line that is not a keyed
/// record keys as `line N`.
fn cases(store: &str) -> Vec<(String, Json)> {
    (store.lines().enumerate())
        .map(|(i, line)| {
            let v = Json::parse(line).unwrap_or_else(|_| Json::Str(line.into()));
            let key = v
                .str("key")
                .map_or_else(|_| format!("line {}", i + 1), str::to_string);
            (key, v)
        })
        .collect()
}

/// One `  field: committed A, fresh B` line per differing field of two
/// records; nested objects (the obs counters) field by field.
fn field_diffs(path: &str, was: &Json, now: &Json, out: &mut Vec<String>) {
    let shown = |v: Option<&Json>| v.map_or_else(|| "(absent)".into(), Json::render);
    let (Json::Obj(a), Json::Obj(b)) = (was, now) else {
        let path = if path.is_empty() { "line" } else { path };
        return out.push(format!(
            "  {path}: committed {}, fresh {}",
            shown(Some(was)),
            shown(Some(now))
        ));
    };
    let mut names: Vec<&str> = Vec::new();
    for (name, _) in a.iter().chain(b) {
        if !names.contains(&name.as_str()) {
            names.push(name);
        }
    }
    for name in names {
        let sub = if path.is_empty() {
            name.to_string()
        } else {
            format!("{path}.{name}")
        };
        match (was.get(name), now.get(name)) {
            (Some(x), Some(y)) if x == y => {}
            (Some(x), Some(y)) => field_diffs(&sub, x, y, out),
            (x, y) => out.push(format!(
                "  {sub}: committed {}, fresh {}",
                shown(x),
                shown(y)
            )),
        }
    }
}

#[test]
fn tracked_stores_reproduce_byte_for_byte() {
    let mut failures = Vec::new();
    for (i, dir) in TRACKED.iter().enumerate() {
        let dir = Path::new(dir);
        let spec = CampaignSpec::from_json(&read(dir, "manifest.json")).expect("manifest parses");
        // The re-record command writes where the manifest's name says.
        assert_eq!(campaign_dir(&spec.name), dir, "{}", spec.name);
        let fresh = rerun(&read(dir, "manifest.json"), &format!("fresh{i}"));
        if let Err(e) = check(dir, &fresh) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The `*.csv` files of a directory, by name, with their text.
fn csvs(dir: &Path) -> Vec<(String, String)> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("list {}: {e}", dir.display()));
    let mut out: Vec<(String, String)> = (entries.map(|e| e.expect("a directory entry").path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("read a CSV");
            (p.file_name().unwrap().to_string_lossy().into_owned(), text)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn committed_csvs_are_the_render_of_their_store() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for (i, dir) in TRACKED.iter().enumerate() {
        let dir = root.join(dir);
        let name = CampaignSpec::from_json(&read(&dir, "manifest.json"))
            .expect("manifest parses")
            .name;
        // A catalog entry at full scale would publish to results/.
        assert!(!figures::CATALOG.contains(&name.as_str()), "{name}");
        let scratch = scratch(&format!("render{i}"));
        std::fs::create_dir_all(&scratch).expect("create scratch dir");
        let records = load_store(&dir).expect("store loads");
        let rendered = figures::render(&name, &scratch, &records).expect("renders");
        let (want, got) = (csvs(&dir), csvs(&scratch));
        let _ = std::fs::remove_dir_all(&scratch);
        if !rendered {
            assert_eq!(want, [], "{name}: CSVs beside a store with no figure set");
            continue;
        }
        let names = |v: &[(String, String)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&want),
            names(&got),
            "{name}: the CSV files beside the store"
        );
        for ((file, want), (_, got)) in want.iter().zip(&got) {
            assert_eq!(want, got, "{name}/{file}: committed vs rendered");
        }
        checked += 1;
    }
    assert_eq!(
        checked,
        TRACKED.len() - 1,
        "every tracked store but the gate renders"
    );
}

/// A scratch copy of the gate store, its `store.jsonl` passed through `edit`.
fn gate_copy(tag: &str, edit: impl FnOnce(&str) -> String) -> PathBuf {
    let (gate, dir) = (Path::new(TRACKED[0]), scratch(tag));
    std::fs::create_dir_all(&dir).expect("create scratch store");
    std::fs::write(dir.join("manifest.json"), read(gate, "manifest.json")).expect("copy manifest");
    std::fs::write(dir.join("store.jsonl"), edit(&read(gate, "store.jsonl"))).expect("copy store");
    dir
}

/// The gate store as committed, standing in for a run that reproduces it:
/// the helper's verdict on an edited copy then does not hang on whether
/// today's code still reproduces the gate (the test above says that).
fn committed_gate() -> Fresh {
    let gate = Path::new(TRACKED[0]);
    Fresh {
        manifest: read(gate, "manifest.json"),
        store: read(gate, "store.jsonl"),
        unclean: Vec::new(),
    }
}

#[test]
fn a_one_field_edit_fails_naming_its_case_and_field() {
    let mut key = String::new();
    let dir = gate_copy("edit", |store| {
        let line = store.lines().nth(2).expect("a third case");
        key = Json::parse(line)
            .and_then(|v| v.str("key").map(str::to_string))
            .expect("key");
        store.replacen(line, &line.replacen("\"events\":", "\"events\":9", 1), 1)
    });
    let err = check(&dir, &committed_gate()).expect_err("an edited field fails");
    assert!(
        err.contains(&format!(
            "first differing case {key}:\n  events: committed 9"
        )),
        "{err}"
    );
    assert!(
        !err.contains("missing case") && !err.contains("extra case"),
        "{err}"
    );

    // Re-recording as the message says makes it pass again.
    assert!(
        err.contains("delete") && err.contains("campaign -- run"),
        "{err}"
    );
    std::fs::remove_file(dir.join("store.jsonl")).expect("delete the store");
    let manifest = read(&dir, "manifest.json");
    let spec = CampaignSpec::from_json(&manifest).expect("manifest parses");
    run_campaign(&spec, &dir, &quiet()).expect("re-record");
    check(&dir, &rerun(&manifest, "edit-fresh")).expect("a re-recorded store reproduces");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_removed_last_line_is_a_missing_case() {
    let mut key = String::new();
    let dir = gate_copy("missing", |store| {
        let last = store.lines().last().expect("a case");
        key = Json::parse(last)
            .and_then(|v| v.str("key").map(str::to_string))
            .expect("key");
        store
            .strip_suffix(&format!("{last}\n"))
            .expect("last line")
            .to_string()
    });
    let err = check(&dir, &committed_gate()).expect_err("a dropped case fails");
    assert!(err.contains(&format!("\nmissing case {key}:")), "{err}");
    assert!(!err.contains("first differing case"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every bursty case trips the mutant, and at the paper's density most
/// clean-channel ones do too: a 30-node gate is one connected network, so
/// a sender that skips the RBT sense meets a busy receiver.
#[test]
fn the_skip_rbt_sense_mutant_is_unclean_on_its_bursty_cases() {
    let manifest = read(Path::new(TRACKED[0]), "manifest.json").replacen(
        "\"RMAC\"",
        "\"RMAC-skipRbtSense\"",
        1,
    );
    let dir = gate_copy("mutant", str::to_string);
    std::fs::write(dir.join("manifest.json"), &manifest).expect("write mutant manifest");
    let err = check(&dir, &rerun(&manifest, "mutant-run")).expect_err("the mutant trips");
    let unclean: Vec<&str> = (err.lines())
        .filter_map(|l| l.strip_prefix("unclean case ")?.split(':').next())
        .collect();
    let want: Vec<String> = [
        "r20/none/s0",
        "r20/none/s2",
        "r20/bursty/s0",
        "r20/bursty/s1",
        "r20/bursty/s2",
        "r60/none/s0",
        "r60/none/s1",
        "r60/none/s2",
        "r60/bursty/s0",
        "r60/bursty/s1",
        "r60/bursty/s2",
    ]
    .map(|case| format!("RMAC-skipRbtSense/stationary/{case}"))
    .to_vec();
    assert_eq!(unclean, want, "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
