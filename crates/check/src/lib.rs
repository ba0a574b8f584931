//! # rmac-check — streaming protocol-conformance checking
//!
//! A zero-cost-when-off conformance layer: a fold of the engine's
//! observation stream (`rmac_phy::trace`, DESIGN.md §9) that machine-checks
//! the paper's invariants on every run (DESIGN.md §9):
//!
//! * **C1** busy-tone discipline — no transmission against a sensed RBT,
//!   and reliable data only after a ≥ λ RBT detection (§3.3).
//! * **C2** governed responses — tones and control frames only from the
//!   nodes the governing request named, inside the protocol's alphabet.
//! * **C3** air-time conformance — channel occupancy matches the
//!   `rmac-wire` air-time math to the nanosecond.
//! * **C4** Table-1 state machine — transitions only along legal edges.
//! * **C5** half-duplex discipline — no clean reception overlapping an
//!   own transmission.
//!
//! The [`Checker`] is a [`Reader`](rmac_phy::Reader) fed the events its
//! tracer sees, each before the node's MAC reacts: detached, that costs the
//! stream's one branch per observable; attached, the checker never touches
//! RNG or schedules events, so results stay bit-identical either way.

pub mod checker;
pub mod edges;
pub mod report;

pub use checker::{CheckConfig, Checker, ProtocolClass, C1_WINDOW};
pub use report::{CheckReport, Invariant, Violation};
