//! The RMAC protocol — the paper's primary contribution.
//!
//! RMAC (§3) is a comprehensive MAC protocol providing a **Reliable Send**
//! and an **Unreliable Send** service, each covering unicast, multicast and
//! broadcast. Reliability is implemented with three mechanisms:
//!
//! 1. a variable-length **MRTS** control frame that lists the intended
//!    receivers in order, fixing the order in which they acknowledge;
//! 2. the **Receiver Busy Tone (RBT)**: every receiver raises it from MRTS
//!    reception until the end of the data frame, simultaneously answering
//!    the MRTS and protecting the reception from hidden terminals;
//! 3. the **Acknowledgment Busy Tone (ABT)**: each receiver replies a 17 µs
//!    tone in its MRTS-assigned slot, replacing ACK frames entirely.
//!
//! The implementation follows the paper's eight-state machine (appendix
//! Fig. 14 / Table 1) exactly; see [`rmac::Rmac`] and the transition tests
//! in `rmac::tests`.
//!
//! The crate also defines the [`api`] layer (the [`api::MacService`] /
//! [`api::MacContext`] traits) shared by the baseline protocols in
//! `rmac-baselines`, so every MAC runs on the same PHY substrate and the
//! same engine.

pub mod api;
pub mod backoff;
pub mod clock;
pub mod config;
pub mod rmac;
pub mod sendq;
pub mod testkit;

pub use api::{MacContext, MacCounters, MacService, TimerKind, TxOutcome, TxRequest};
pub use clock::WallClock;
pub use config::MacConfig;
pub use rmac::{Rmac, State};
