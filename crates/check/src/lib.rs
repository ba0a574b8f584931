//! # rmac-check — streaming protocol-conformance checking
//!
//! A zero-cost-when-off conformance layer that consumes the engine's
//! event stream and machine-checks the paper's invariants on every
//! trace (DESIGN.md §8):
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
//! The checker attaches to the engine the same way the observability
//! layer does (`Option<Box<Checker>>`): detached it costs one pointer
//! check per hook, attached it never touches RNG or schedules events, so
//! results stay bit-identical either way.

pub mod checker;
pub mod edges;
pub mod report;

pub use checker::{CheckConfig, Checker, ProtocolClass, C1_WINDOW};
pub use report::{CheckReport, Invariant, Violation};
