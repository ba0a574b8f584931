//! `campaign_report`: render a campaign store — the regression dashboard
//! (ASCII to stdout, plus a self-contained `dashboard.html` next to the
//! store for artifact upload) and, when the store belongs to an entry of
//! the figure catalog, that entry's tables and CSVs.
//!
//! ```text
//! campaign_report [store-dir]
//! ```
//!
//! With no argument, picks the first existing default campaign directory
//! (`results/campaigns/paper-figures`, then `paper-figures-quick`, then
//! `gate/scratch`). Exits 1 when the store cannot be read or a dashboard
//! or figure file cannot be written.

use std::path::{Path, PathBuf};
use std::process::exit;

use rmac_campaign::{load_store, render_ascii, render_html, summarize, CampaignSpec};
use rmac_experiments::figures;

fn report(dir: &Path) -> Result<(), String> {
    let records = load_store(dir)?;
    let manifest = dir.join("manifest.json");
    let name = std::fs::read_to_string(&manifest)
        .map_err(|e| e.to_string())
        .and_then(|text| CampaignSpec::from_json(&text))
        .map_err(|e| format!("{}: {e}", manifest.display()))?
        .name;
    let rows = summarize(&records);

    print!("{}", render_ascii(&rows));
    let html_path = dir.join("dashboard.html");
    std::fs::write(&html_path, render_html(&name, &rows))
        .map_err(|e| format!("write {}: {e}", html_path.display()))?;
    println!(
        "\n{} records, {} grid points; dashboard: {}\n",
        records.len(),
        rows.len(),
        html_path.display()
    );
    if !figures::render(&name, dir, &records)? {
        println!("no figure set for {name}");
    }
    Ok(())
}

fn main() {
    let dir = std::env::args().nth(1).map(PathBuf::from).or_else(|| {
        [
            "results/campaigns/paper-figures",
            "results/campaigns/paper-figures-quick",
            "results/campaigns/gate/scratch",
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
