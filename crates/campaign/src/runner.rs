//! Campaign execution: fan the case grid out across cores with resumable
//! per-case checkpointing.
//!
//! Cases run in parallel **within a chunk** (via [`rmac_sim::try_tasks`])
//! but chunks are appended to `store.jsonl` strictly in canonical case
//! order and flushed after each chunk. A killed campaign therefore leaves
//! a valid canonical prefix (plus at most one torn trailing line, which
//! resume truncates), and restarting produces a store byte-identical to
//! an uninterrupted run — property-tested in `tests/campaign_resume.rs`.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::spec::{CampaignSpec, CaseSpec};
use crate::store::CaseRecord;
use rmac_engine::{ObsConfig, Run};
use rmac_sim::try_tasks;

/// Knobs for one `run_campaign` invocation.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Stop after executing this many *new* cases (the checkpoint/kill
    /// hook for tests); `None` runs to completion.
    pub max_cases: Option<usize>,
    /// Cases per parallel batch (and per checkpoint flush).
    pub chunk: usize,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            max_cases: None,
            chunk: 8,
            quiet: false,
        }
    }
}

/// What one `run_campaign` invocation did.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Cases executed by this invocation.
    pub executed: usize,
    /// Cases already checkpointed by earlier invocations.
    pub resumed: usize,
    /// Grid size.
    pub total: usize,
    /// All cases of the grid are in the store.
    pub complete: bool,
    /// Every completed case passed conformance.
    pub clean: bool,
    /// All completed case records, in canonical order, as the store holds
    /// them (equal to [`crate::load_store`] of the directory).
    pub records: Vec<CaseRecord>,
}

/// The default store directory for a campaign name.
pub fn campaign_dir(name: &str) -> PathBuf {
    PathBuf::from("results/campaigns").join(name)
}

/// Execute one case through [`Run`], checker always attached. The spec
/// picks the engine (`shards`) and whether obs counters are ingested;
/// [`CampaignSpec::validate`] has already refused the one combination
/// that would quietly run every case serially (obs on a sharded case).
pub fn run_case(case: &CaseSpec) -> CaseRecord {
    let obs = case.obs.then_some(ObsConfig {
        snapshot_period: None,
        // Wall readings are machine-dependent; the store must stay a
        // pure function of the spec.
        kernel_wall: false,
    });
    let out = Run::new(&case.config(), case.protocol, case.seed)
        .faults(&case.plan)
        .obs(obs)
        .check()
        .execute();
    let check = out.check.expect("checker was attached");
    CaseRecord::from_run(case, &out.report, out.obs.as_ref(), &check)
}

/// Load the valid canonical prefix of an existing `store.jsonl`: complete
/// lines that parse and whose keys match the canonical case order. Returns
/// the records plus the byte length of the valid prefix.
fn load_prefix(text: &str, cases: &[CaseSpec]) -> (Vec<CaseRecord>, usize) {
    let mut records = Vec::new();
    let mut valid_bytes = 0usize;
    for line in text.split_inclusive('\n') {
        if !line.ends_with('\n') {
            break; // torn trailing write
        }
        match CaseRecord::from_jsonl(line.trim_end_matches('\n')) {
            Ok(r) if records.len() < cases.len() && r.key == cases[records.len()].key() => {
                records.push(r);
                valid_bytes += line.len();
            }
            _ => break,
        }
    }
    (records, valid_bytes)
}

/// Run (or resume) a campaign into `dir`. See the module docs for the
/// checkpoint format and resume contract.
pub fn run_campaign(
    spec: &CampaignSpec,
    dir: &Path,
    opts: &RunOptions,
) -> Result<CampaignOutcome, String> {
    spec.validate()?;
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let spec_json = spec.to_json();
    let manifest = dir.join("manifest.json");
    match fs::read_to_string(&manifest) {
        Ok(existing) if existing != spec_json => {
            return Err(format!(
                "{} holds a different campaign; refusing to mix stores",
                manifest.display()
            ));
        }
        Ok(_) => {}
        Err(_) => {
            fs::write(&manifest, &spec_json).map_err(|e| format!("write manifest: {e}"))?;
        }
    }

    let cases = spec.cases();
    let store_path = dir.join("store.jsonl");
    let mut records: Vec<CaseRecord> = Vec::new();
    if let Ok(text) = fs::read_to_string(&store_path) {
        let (prefix, valid_bytes) = load_prefix(&text, &cases);
        records = prefix;
        if valid_bytes != text.len() {
            // Drop the torn/alien tail so appends continue the canonical
            // prefix exactly.
            fs::write(&store_path, &text.as_bytes()[..valid_bytes])
                .map_err(|e| format!("truncate store: {e}"))?;
        }
    }
    let resumed = records.len();

    let mut file = fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&store_path)
        .map_err(|e| format!("open store: {e}"))?;
    let mut executed = 0usize;
    while records.len() < cases.len() {
        if opts.max_cases.is_some_and(|m| executed >= m) {
            break;
        }
        let budget = opts.max_cases.map_or(usize::MAX, |m| m - executed);
        let n = opts.chunk.min(cases.len() - records.len()).min(budget);
        let chunk = &cases[records.len()..records.len() + n];
        let recs = try_tasks(chunk, run_case, |c| format!("case {}", c.key()))?;
        let mut block = String::new();
        for r in &recs {
            // Keep what the store holds, not what the engine returned: the
            // six-decimal text is the record, so a fresh run and a resumed
            // one report the same numbers.
            let line = r.to_jsonl();
            records.push(CaseRecord::from_jsonl(&line)?);
            block.push_str(&line);
            block.push('\n');
        }
        file.write_all(block.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| format!("append store: {e}"))?;
        executed += n;
        if !opts.quiet {
            eprintln!(
                "campaign {}: {}/{} cases",
                spec.name,
                records.len(),
                cases.len()
            );
        }
    }

    Ok(CampaignOutcome {
        executed,
        resumed,
        total: cases.len(),
        complete: records.len() == cases.len(),
        clean: records.iter().all(|r| r.check_clean),
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultAxis;
    use crate::spec::ScenarioKind;
    use rmac_engine::Protocol;

    fn tiny_spec(name: &str) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            protocols: vec![Protocol::Rmac],
            scenarios: vec![ScenarioKind::Stationary],
            rates: vec![20.0],
            seeds: vec![0, 1],
            faults: vec![FaultAxis::none()],
            packets: 6,
            nodes: 8,
            shards: 0,
            obs: true,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rmac-campaign-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn tiny_campaign_runs_and_resumes_to_what_the_store_holds() {
        let dir = tmp_dir("tiny");
        let spec = tiny_spec("tiny");
        let quiet = RunOptions {
            quiet: true,
            ..Default::default()
        };
        let out = run_campaign(&spec, &dir, &quiet).expect("campaign runs");
        assert!(out.complete && out.clean);
        assert_eq!(out.executed, 2);
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.records[0].packets_sent, 6, "all offered packets sent");
        assert!(out.records[0].events > 0);
        assert!(
            !out.records[0].obs_counters.is_empty(),
            "obs counters ingested"
        );
        // A fresh run reports what the store holds, so a second invocation
        // — a resume to a no-op that re-reads the store — reports the same
        // records and leaves the store's bytes alone.
        assert_eq!(out.records, crate::load_store(&dir).expect("store loads"));
        let store = fs::read(dir.join("store.jsonl")).expect("store written");
        let again = run_campaign(&spec, &dir, &quiet).expect("resume");
        assert_eq!(again.executed, 0);
        assert_eq!(again.resumed, 2);
        assert_eq!(again.records, out.records);
        assert_eq!(
            fs::read(dir.join("store.jsonl")).expect("store kept"),
            store
        );
        let mut beside: Vec<_> = fs::read_dir(&dir)
            .expect("list the store directory")
            .map(|e| e.expect("entry").file_name())
            .collect();
        beside.sort();
        assert_eq!(beside, ["manifest.json", "store.jsonl"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_campaign_resumes_bit_identically() {
        let spec = tiny_spec("resume");
        let full = tmp_dir("full");
        let part = tmp_dir("part");
        let quiet = RunOptions {
            quiet: true,
            ..Default::default()
        };
        run_campaign(&spec, &full, &quiet).expect("full run");
        // "Kill" after one case, then also tear the tail of the store.
        run_campaign(
            &spec,
            &part,
            &RunOptions {
                max_cases: Some(1),
                chunk: 1,
                quiet: true,
            },
        )
        .expect("partial run");
        let store = part.join("store.jsonl");
        let mut text = fs::read(&store).expect("read partial store");
        text.extend_from_slice(b"{\"key\":\"torn");
        fs::write(&store, &text).expect("tear store");
        let out = run_campaign(&spec, &part, &quiet).expect("resume");
        assert!(out.complete);
        assert_eq!(out.resumed, 1);
        assert_eq!(
            fs::read(full.join("store.jsonl")).expect("full store"),
            fs::read(part.join("store.jsonl")).expect("resumed store"),
            "resumed store bytes diverge from the uninterrupted run"
        );
        let _ = fs::remove_dir_all(&full);
        let _ = fs::remove_dir_all(&part);
    }

    #[test]
    fn conflicting_manifest_is_refused() {
        let dir = tmp_dir("conflict");
        let quiet = RunOptions {
            quiet: true,
            max_cases: Some(0),
            ..Default::default()
        };
        run_campaign(&tiny_spec("a"), &dir, &quiet).expect("first spec claims dir");
        let err = run_campaign(&tiny_spec("b"), &dir, &quiet).expect_err("second spec refused");
        assert!(err.contains("different campaign"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
