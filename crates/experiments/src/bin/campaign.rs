//! `campaign`: run (or resume) declarative sweep campaigns and the CI
//! regression gate.
//!
//! ```text
//! campaign run [NAME|MANIFEST.json] [--quick]
//!     Run a campaign into results/campaigns/<name>/. NAME is an entry of
//!     the figure catalog (paper-figures — the default —, shootout,
//!     rbt-ablation, goodput, faults, tone-jam), shrunk to a smoke scale
//!     named <NAME>-quick by --quick; anything else is read as a manifest
//!     file (the JSON a store's manifest.json holds). Resumable: a killed
//!     run restarts where it stopped and produces a store byte-identical
//!     to an uninterrupted one. `campaign_report <dir>` renders the
//!     store's figures.
//!
//! campaign gate [--record] [--inject-mutant]
//!     Run the CI gate: fixed conformance campaign + deterministic-metric
//!     comparison against the committed baseline
//!     (results/campaigns/gate/baseline.json). Exits nonzero on any
//!     violation or >5% metric drift. --record rewrites the baseline;
//!     --inject-mutant seeds a deliberate defect to prove the gate trips.
//! ```

use std::process::exit;

use rmac_campaign::{campaign_dir, run_campaign, run_gate, CampaignSpec, GateConfig, RunOptions};
use rmac_experiments::figures;

fn usage() -> ! {
    eprintln!(
        "usage: campaign run [NAME|MANIFEST.json] [--quick]\n       \
         campaign gate [--record] [--inject-mutant]"
    );
    exit(2);
}

/// The campaign `campaign run` was asked for: a catalog entry by name, or
/// a manifest file.
fn requested(target: &str, quick: bool) -> Result<CampaignSpec, String> {
    if let Some(spec) = figures::spec(target, quick) {
        return Ok(spec);
    }
    let catalog = figures::CATALOG.join(", ");
    if quick {
        return Err(format!(
            "--quick shrinks a catalog campaign ({catalog}); {target} is not one"
        ));
    }
    let text = std::fs::read_to_string(target).map_err(|e| {
        format!("{target} is neither a catalog campaign ({catalog}) nor a readable manifest: {e}")
    })?;
    CampaignSpec::from_json(&text).map_err(|e| format!("{target}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional): (Vec<&str>, Vec<&str>) = args
        .iter()
        .skip(1)
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    let flag = |name: &str| flags.contains(&name);
    // Only what the subcommand takes: a stray flag or argument is a usage
    // error, not something to run without.
    let takes = |known: &[&str], positionals: usize| {
        if flags.iter().any(|f| !known.contains(f)) || positional.len() > positionals {
            usage();
        }
    };
    match args.first().map(String::as_str) {
        Some("run") => {
            takes(&["--quick"], 1);
            let target = positional.first().copied().unwrap_or(figures::CATALOG[0]);
            let spec = requested(target, flag("--quick")).unwrap_or_else(|e| {
                eprintln!("campaign run: {e}");
                exit(2);
            });
            let dir = campaign_dir(&spec.name);
            match run_campaign(&spec, &dir, &RunOptions::default()) {
                Ok(out) => {
                    println!(
                        "campaign {}: {} cases ({} resumed, {} executed), {}",
                        spec.name,
                        out.total,
                        out.resumed,
                        out.executed,
                        if out.clean {
                            "all clean"
                        } else {
                            "VIOLATIONS recorded"
                        }
                    );
                    println!("store: {}", dir.join("store.jsonl").display());
                    if !out.clean {
                        exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("campaign run: FAIL: {e}");
                    exit(1);
                }
            }
        }
        Some("gate") => {
            takes(&["--record", "--inject-mutant"], 0);
            let cfg = GateConfig {
                record: flag("--record"),
                inject_mutant: flag("--inject-mutant"),
                ..GateConfig::default()
            };
            match run_gate(&cfg) {
                Ok(report) => {
                    for line in &report.lines {
                        println!("{line}");
                    }
                    if report.pass() {
                        println!("gate: PASS");
                    } else {
                        println!("gate: FAIL ({} check(s) failed)", report.failures.len());
                        exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("campaign gate: FAIL: {e}");
                    exit(1);
                }
            }
        }
        _ => usage(),
    }
}
