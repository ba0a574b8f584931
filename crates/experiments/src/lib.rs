//! The evaluation harness: the figure pipeline, the scenario fuzzer and
//! the experiment binaries.
//!
//! The paper's §4 grid is 3 scenarios × 8 source rates × 10 random
//! placements × {RMAC, BMMM}. Every experiment over such a grid is a named
//! `CampaignSpec` in the [`figures`] catalog: `campaign run <name>
//! [--quick]` executes it through `rmac_campaign::run_campaign` (the one
//! function that fans a grid out over cores) into a checked, resumable
//! store, and `campaign_report <dir>` renders that store into the tables
//! and CSVs behind each figure. A grid at another scale is a manifest file
//! (`campaign run my-grid.json`), not an environment variable.
//!
//! The experiments that vary something a grid axis cannot express (tree
//! parents, `MacConfig`, BER, positions, forwarding mode) stay as small
//! binaries calling `rmac_engine::Run` directly: `fig6_topology`,
//! `ablation_rxlimit`, `ablation_ber`, `ext_unicast`, `ext_motivation`.

pub mod figures;
pub mod fuzz;

pub use fuzz::{materialize, run_case, shrink, CaseOutcome};

/// A `u64` scale knob of a binary that is not a campaign (`RMAC_SEEDS`,
/// `RMAC_PACKETS`, `RMAC_SEED`, `RMAC_LIVE_*`): the variable's value, or
/// `default` when it is unset or not a number.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
