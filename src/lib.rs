//! # rmac — Reliable Multicast MAC for Wireless Ad Hoc Networks
//!
//! A from-scratch Rust reproduction of *Si & Li, "RMAC: A Reliable Multicast
//! MAC Protocol for Wireless Ad Hoc Networks", ICPP 2004*, including every
//! substrate the paper depends on: a deterministic discrete-event simulation
//! kernel, a wireless PHY with data-channel collisions and narrow-band busy
//! tones, random-waypoint mobility, the RMAC protocol itself, the BMMM / BMW
//! / LBP baselines, a BLESS-lite multicast tree network layer, and the full
//! evaluation harness regenerating the paper's figures.
//!
//! This facade crate re-exports the workspace's public API under one roof:
//!
//! ```
//! use rmac::prelude::*;
//!
//! let cfg = ScenarioConfig::paper_stationary(5.0).with_packets(20);
//! let report = run_replication(&cfg, Protocol::Rmac, 42);
//! assert!(report.delivery_ratio() > 0.9);
//! ```

pub use rmac_baselines as baselines;
pub use rmac_campaign as campaign;
pub use rmac_check as check;
pub use rmac_core as mac;
pub use rmac_engine as engine;
pub use rmac_faults as faults;
pub use rmac_live as live;
pub use rmac_metrics as metrics;
pub use rmac_mobility as mobility;
pub use rmac_net as net;
pub use rmac_obs as obs;
pub use rmac_phy as phy;
pub use rmac_sim as sim;
pub use rmac_wire as wire;

/// Commonly used items for driving simulations.
pub mod prelude {
    pub use rmac_check::{CheckReport, Invariant};
    pub use rmac_engine::{
        run_replication, ObsConfig, Protocol, Run, RunOutput, ScenarioConfig, TraceLevel,
    };
    pub use rmac_faults::FaultPlan;
    pub use rmac_metrics::report::RunReport;
    pub use rmac_obs::ObsReport;
    pub use rmac_sim::{SimRng, SimTime};
    pub use rmac_wire::addr::NodeId;
}
