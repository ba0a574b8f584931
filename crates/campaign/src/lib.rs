//! # rmac-campaign — fleet-scale sweep orchestration
//!
//! The campaign layer turns the engine's single-replication entry point
//! (`rmac_engine::Run`) into declarative, resumable, queryable experiment fleets:
//!
//! * [`spec`] — [`CampaignSpec`], the serializable protocol × scenario ×
//!   rate × fault-plan × seed grid, fanned out in canonical case order.
//! * [`runner`] — [`run_campaign`], chunked parallel execution with
//!   per-case checkpointing into the store; a killed campaign resumes
//!   where it stopped and reproduces the uninterrupted store **byte for
//!   byte** (`tests/campaign_resume.rs`).
//! * [`store`] — [`CaseRecord`], the unified metrics store line:
//!   `RunReport` metrics, `rmac-obs` counter snapshots, and the
//!   conformance verdict in one deterministic JSONL record.
//! * [`query`] — seed-pooled mean/p50/p95 aggregation per grid point.
//!
//! The store is the one record of a campaign. A committed store is its
//! own regression baseline: `tests/tracked_stores.rs` re-runs each tracked
//! store's manifest and requires every case clean and the fresh
//! `store.jsonl` byte-equal to the committed one.
//!
//! Cases run on the workspace's one worker pool, [`rmac_sim::try_tasks`],
//! re-exported here as [`try_tasks`].
//!
//! Binaries: `campaign` (run/resume) and `campaign_report` (the seed-pooled
//! summary, and the figures of `rmac_experiments::figures`) in
//! `rmac-experiments`.

pub mod query;
pub mod runner;
pub mod spec;
pub mod store;

pub use query::{aggregate, diff_stores, grid_points, load_store, summarize, Agg, SummaryRow};
pub use rmac_sim::try_tasks;
pub use runner::{campaign_dir, run_campaign, run_case, CampaignOutcome, RunOptions};
pub use spec::{CampaignSpec, CaseSpec, FaultAxis, ScenarioKind};
pub use store::CaseRecord;
