//! Full-stack simulation engine.
//!
//! Assembles the substrates into a runnable node stack — mobility → PHY
//! channel → MAC protocol → BLESS-lite network layer → multicast app — and
//! drives one replication of the paper's experiment from a single seed:
//!
//! ```
//! use rmac_engine::{run_replication, Protocol, ScenarioConfig};
//!
//! let cfg = ScenarioConfig::paper_stationary(5.0).with_packets(20);
//! let report = run_replication(&cfg, Protocol::Rmac, 1);
//! assert!(report.delivery_ratio() > 0.9);
//! ```
//!
//! [`ScenarioConfig`] defaults to the paper's §4.1 setup: 75 nodes on a
//! 500 m × 300 m plane, 75 m radio range, 2 Mb/s, 500-byte packets, node 0
//! as the multicast source, with the three mobility scenarios available as
//! constructors.
//!
//! There is one engine. [`run`] is the front door ([`Run`] → [`RunOutput`]);
//! [`shard`] runs every replication as its causally closed shard groups —
//! the whole-world run being the one-group case — each group a
//! [`world::Runner`], the event loop over the slots it owns.

pub mod config;
pub mod obs;
pub mod run;
pub mod shard;
pub mod trace;
pub mod world;

pub use config::{Protocol, ScenarioConfig};
pub use obs::ObsConfig;
pub use rmac_check::{CheckReport, Invariant, Violation};
pub use rmac_faults::FaultPlan;
pub use rmac_obs::ObsReport;
pub use run::{
    run_replication, run_replication_checked, run_replication_instrumented,
    run_replication_sharded_checked, Reference, Run, RunOutput, ShardedRunner,
};
pub use shard::{GroupStats, ShardStats};
pub use trace::{
    filter_tracer, render_timeline, FaultKind, FrameHead, JsonlSink, SinkSummary, TraceEvent,
    TraceLevel, TraceWhat, Tracer,
};
pub use world::Runner;
