//! Deterministic fault injection for the RMAC stack.
//!
//! The paper evaluates RMAC under a benign unit-disk channel; this crate
//! makes the channel misbehave — reproducibly. A [`FaultPlan`] is a pure
//! data description of four fault classes:
//!
//! * **Bursty loss** ([`BurstySpec`]): a per-link Gilbert–Elliott
//!   two-state chain layered over the PHY's own corruption decision, the
//!   standard model for correlated radio erasures.
//! * **Node churn** ([`ChurnSpec`]): scheduled crash/restart windows plus
//!   the partial variants — a *deaf* radio (hears nothing) and a *mute*
//!   radio (is heard by no one).
//! * **Jammers** ([`JammerSpec`]): extra non-protocol transceivers that
//!   emit periodic noise bursts on the data channel or hold down the
//!   RBT/ABT busy-tone channels, stressing the paper's §3.2 assumption
//!   that busy tones never collide.
//! * **Clock skew** ([`SkewSpec`]): per-node ppm scaling of MAC timer
//!   delays.
//!
//! The PHY-side classes (bursty loss and churn silencing) are applied by
//! a [`FaultInjector`], which implements `rmac_phy::FaultHook` and is
//! attached to the channel by the engine; the engine-side classes (crash
//! scheduling, jammer emissions, skew) are interpreted by
//! `rmac-engine` directly from the plan. Two laws hold by construction
//! and are enforced by property tests at the workspace root:
//!
//! 1. **Identity**: attaching [`FaultPlan::none`] yields bit-identical
//!    metrics to attaching nothing — the injector owns its RNG and never
//!    touches the channel's.
//! 2. **Reproducibility**: the same seed and the same plan yield
//!    bit-identical metrics across runs.
//!
//! Plans serialize to JSON through the workspace codec, `rmac_wire::json`
//! ([`FaultPlan::to_json`] / [`FaultPlan::from_json`]); integers such as
//! the salt are written and read exactly.

pub mod gilbert;
pub mod injector;
pub mod plan;

pub use gilbert::GeChain;
pub use injector::FaultInjector;
pub use plan::{BurstySpec, ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec, SkewSpec};
