//! `campaign`: run (or resume) declarative sweep campaigns and the CI
//! regression gate.
//!
//! ```text
//! campaign run [--quick]
//!     Run the paper-figures campaign into results/campaigns/<name>/.
//!     Resumable: a killed run restarts where it stopped and produces a
//!     store byte-identical to an uninterrupted one.
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

fn usage() -> ! {
    eprintln!(
        "usage: campaign run [--quick]\n       \
         campaign gate [--record] [--inject-mutant]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let known = ["--quick", "--record", "--inject-mutant"];
    if args.iter().skip(1).any(|a| !known.contains(&a.as_str())) {
        usage();
    }
    match args.first().map(String::as_str) {
        Some("run") => {
            let spec = CampaignSpec::paper_figures(flag("--quick"));
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
