//! The evaluation harness: the figure pipeline, the scenario fuzzer and
//! the experiment binaries.
//!
//! Every sweep is a named `CampaignSpec` in the [`figures`] catalog — the
//! paper's §4 grid, its extensions, and the sweeps behind single claims,
//! whose varied setting is a named `ScenarioKind`. `campaign run <name>
//! [--quick]` executes it through `rmac_campaign::run_campaign` (the one
//! function that fans a grid out over cores) into a checked, resumable
//! store, and `campaign_report <dir>` renders that store into the tables
//! and CSVs behind each figure. Another scale is a manifest file
//! (`campaign run my-grid.json`), not an environment variable.
//!
//! Two bins write a table no store holds: `table_overhead` (§2
//! arithmetic) and `table1_transitions` (state-machine probing). Fig. 6
//! is the catalog entry `topology`; `examples/tree_multicast.rs` draws one
//! of its trees.

use std::path::Path;

pub mod figures;
pub mod fuzz;

pub use fuzz::{materialize, run_case, shrink, CaseOutcome};

/// Write `contents` to `results/<file>`, creating the directory, or exit 1
/// naming the path: a table that was not written must not pass for one
/// that was.
pub fn publish(file: &str, contents: &str) {
    let path = Path::new("results").join(file);
    let written = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = written {
        eprintln!("FAIL: write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The options of a bin whose one flag is `--smoke`: true for `--smoke`,
/// false for no argument, and an error for anything else, so that a typo
/// never starts the full-scale run.
pub fn parse_smoke(args: &[String]) -> Result<bool, String> {
    match args {
        [] => Ok(false),
        [flag] if flag == "--smoke" => Ok(true),
        _ => Err(format!("unexpected arguments {args:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_smoke_or_nothing_parses() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_smoke(&args(&[])), Ok(false));
        assert_eq!(parse_smoke(&args(&["--smoke"])), Ok(true));
        for bad in [
            &["--smok"][..],
            &["smoke"],
            &["--smoke", "--smoke"],
            &["--smoke", "x"],
        ] {
            let err = parse_smoke(&args(bad)).unwrap_err();
            assert!(err.contains(bad[bad.len() - 1]), "{err}");
        }
    }
}
