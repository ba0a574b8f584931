//! `campaign`: run (or resume) a declarative sweep campaign.
//!
//! ```text
//! campaign run [NAME|MANIFEST.json] [--quick]
//!     Run a campaign into results/campaigns/<name>/. NAME is an entry of
//!     the figure catalog (paper-figures — the default —, shootout,
//!     rbt-ablation, goodput, faults, tone-jam, rx-limit, ber, unicast,
//!     motivation), shrunk to a smoke scale named <NAME>-quick by --quick;
//!     anything else is read as a manifest file (the JSON a store's
//!     manifest.json holds). Resumable: a killed run restarts where it
//!     stopped and produces a store byte-identical to an uninterrupted
//!     one. `campaign_report <dir>` renders the store's summary and
//!     figures. Exits 1 when a case records a conformance violation.
//! ```
//!
//! A tracked store (`results/campaigns/gate/` and every `<NAME>-quick/`)
//! is re-recorded by deleting its `store.jsonl` and running its manifest:
//! `campaign run results/campaigns/gate/manifest.json`.

use std::process::exit;

use rmac_campaign::{campaign_dir, run_campaign, CampaignSpec, RunOptions};
use rmac_experiments::figures;

fn usage() -> ! {
    eprintln!("usage: campaign run [NAME|MANIFEST.json] [--quick]");
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
    if args.first().map(String::as_str) != Some("run") {
        usage();
    }
    let (flags, positional): (Vec<&str>, Vec<&str>) = args
        .iter()
        .skip(1)
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    // Only what `run` takes: a stray flag or argument is a usage error, not
    // something to run without.
    if flags.iter().any(|f| *f != "--quick") || positional.len() > 1 {
        usage();
    }
    let target = positional.first().copied().unwrap_or(figures::CATALOG[0]);
    let spec = requested(target, !flags.is_empty()).unwrap_or_else(|e| {
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
