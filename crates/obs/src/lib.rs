//! # rmac-obs — zero-cost-when-off instrumentation
//!
//! A structured observability layer for the RMAC simulator, designed
//! around two hard rules:
//!
//! 1. **~Zero cost when off.** Disabled instrumentation is an `Option`
//!    check (or nothing at all) on the hot path; no allocation, no
//!    hashing, no I/O. `benchmark/` tracks this: its end-to-end numbers
//!    come from detached runs and `obs.trace_overhead_frac` is the
//!    attached cost beside them.
//! 2. **Never perturbs results when on.** Instrumentation only *observes*
//!    deterministic simulation state; it draws from no RNG stream and
//!    schedules no events. Wall-clock readings (the kernel profiler) are
//!    collected outside the simulation's determinism domain. A fully
//!    instrumented run's `RunReport` is bit-identical to an
//!    uninstrumented one — property-tested in `tests/obs_determinism.rs`.
//!
//! The pieces:
//!
//! * [`hist`] — [`LogHistogram`], power-of-two-bucketed latency
//!   histograms.
//! * [`kernel`] — [`KernelProfiler`], wall-clock-per-event-class
//!   self-profiling of the event loop.
//! * [`node`] — [`NodeObs`], per-node protocol counters: per-`FrameKind`
//!   tx/rx/corrupt, timer arm/fire/stale, busy-tone occupancy, and the
//!   state-machine transition matrix (the paper's Table 1 edges, as
//!   executed).
//! * [`snapshot`] — [`Sampler`]/[`Snapshot`], the deterministic
//!   sim-time-driven time series.
//! * [`report`] — [`ObsReport`], everything assembled — the above plus the
//!   engine's end-of-run scalars (queue traffic, PHY pool, grid, fault
//!   plane) as plain name→value lists — and its one JSON document.
//!
//! The crate is data and JSON: it prints nothing. The `obs_report` bin
//! builds its tables from these fields as `rmac_metrics::Table`s.
//!
//! [`json`] is `rmac-wire`'s codec, re-exported for `rmac-campaign`. Trace
//! lines and the Fig. 4-style timeline belong to the observation stream's
//! vocabulary, `rmac_phy::trace`.

pub mod hist;
pub mod kernel;
pub mod node;
pub mod report;
pub mod snapshot;

pub use hist::LogHistogram;
pub use kernel::KernelProfiler;
pub use node::{NodeObs, TONES, TONE_LABELS};
pub use report::ObsReport;
pub use rmac_wire::json;
pub use snapshot::{Sampler, Snapshot};
