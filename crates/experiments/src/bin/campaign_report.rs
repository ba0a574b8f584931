//! `campaign_report`: render a campaign store — how many of its cases are
//! clean, the seed-pooled summary of every grid point and, when the store
//! belongs to an entry of the figure catalog, that entry's tables and CSVs.
//!
//! ```text
//! campaign_report [store-dir]
//! campaign_report --diff store-dir-a store-dir-b
//! ```
//!
//! With no argument, picks the first existing default campaign directory
//! (`results/campaigns/paper-figures`, then `paper-figures-quick`, then
//! `gate`). Exits 1 when the store cannot be read or a figure file cannot
//! be written. `--diff` names every record, by case key, and every key of
//! it that differs between two stores, with both values, then how many
//! records differ; it writes nothing, and exits 1 when a store cannot be
//! read.

use std::path::{Path, PathBuf};
use std::process::exit;

use rmac_campaign::{diff_stores, load_store, summarize, CampaignSpec, SummaryRow};
use rmac_experiments::figures;
use rmac_metrics::table::fmt;
use rmac_metrics::Table;

/// The mean over seeds of each grid point's headline metrics.
fn summary_table(rows: &[SummaryRow]) -> Table {
    let mut t = Table::new(
        "summary (mean over seeds)",
        &[
            "protocol", "scenario", "rate", "fault", "delivery", "delay_ms", "retx", "clean",
        ],
    );
    for r in rows {
        t.row(vec![
            r.protocol.clone(),
            r.scenario.clone(),
            r.rate.to_string(),
            r.fault.clone(),
            fmt(r.delivery.mean, 4),
            fmt(r.delay_s.mean * 1e3, 2),
            fmt(r.retx_ratio.mean, 4),
            if r.clean { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

fn report(dir: &Path) -> Result<(), String> {
    let records = load_store(dir)?;
    let manifest = dir.join("manifest.json");
    let name = std::fs::read_to_string(&manifest)
        .map_err(|e| e.to_string())
        .and_then(|text| CampaignSpec::from_json(&text))
        .map_err(|e| format!("{}: {e}", manifest.display()))?
        .name;
    let clean = records.iter().filter(|r| r.check_clean).count();
    println!("{name}: {clean} of {} cases clean\n", records.len());
    println!("{}", summary_table(&summarize(&records)).render());
    if !figures::render(&name, dir, &records)? {
        println!("no figure set for {name}");
    }
    Ok(())
}

/// Print what differs between the stores in directories `a` and `b`.
fn diff(a: &Path, b: &Path) -> Result<(), String> {
    let read = |dir: &Path| {
        let path = dir.join("store.jsonl");
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a_text, b_text) = (read(a)?, read(b)?);
    let lines = diff_stores(&a_text, &b_text)
        .map_err(|e| format!("{} against {}: {e}", a.display(), b.display()))?;
    for line in &lines {
        println!("{line}");
    }
    let records = a_text.lines().count();
    println!("{} of {records} records differ", lines.len());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        let [_, a, b] = &args[..] else {
            eprintln!("usage: campaign_report --diff store-dir-a store-dir-b");
            exit(2);
        };
        if let Err(e) = diff(Path::new(a), Path::new(b)) {
            eprintln!("campaign_report: FAIL: {e}");
            exit(1);
        }
        return;
    }
    let dir = args.first().map(PathBuf::from).or_else(|| {
        [
            "results/campaigns/paper-figures",
            "results/campaigns/paper-figures-quick",
            "results/campaigns/gate",
        ]
        .iter()
        .map(PathBuf::from)
        .find(|d| d.join("store.jsonl").exists())
    });
    let Some(dir) = dir else {
        eprintln!(
            "campaign_report: no campaign store found; run `campaign run --quick` first \
             or pass a store directory"
        );
        exit(2);
    };
    if let Err(e) = report(&dir) {
        eprintln!("campaign_report: FAIL: {e}");
        exit(1);
    }
}
