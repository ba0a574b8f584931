//! `campaign_report`: render the regression dashboard for a campaign
//! store — ASCII to stdout, plus a self-contained `dashboard.html` next
//! to the store for artifact upload.
//!
//! ```text
//! campaign_report [store-dir]
//! ```
//!
//! With no argument, picks the first existing default campaign directory
//! (`results/campaigns/paper-figures`, then `paper-figures-quick`, then
//! `gate/scratch`). The live-soak tile is read from
//! `results/BENCH_live.json`.

use std::path::PathBuf;
use std::process::exit;

use rmac_campaign::{load_store, render_ascii, render_html, summarize, BenchDocs};

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
    let records = match load_store(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign_report: FAIL: {e}");
            exit(1);
        }
    };
    let rows = summarize(&records);
    let benches = BenchDocs::load(&PathBuf::from("results"));
    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "campaign".into());

    print!("{}", render_ascii(&rows, &benches));
    let html_path = dir.join("dashboard.html");
    if let Err(e) = std::fs::write(&html_path, render_html(&name, &rows, &benches)) {
        eprintln!("campaign_report: FAIL: write {}: {e}", html_path.display());
        exit(1);
    }
    println!(
        "\n{} records, {} grid points; dashboard: {}",
        records.len(),
        rows.len(),
        html_path.display()
    );
}
