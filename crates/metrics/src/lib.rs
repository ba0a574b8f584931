//! Statistics and reporting for the evaluation harness.
//!
//! * [`stats`] — exact percentiles over sample vectors, matching the
//!   paper's "average / 99 percentile / maximum" presentation.
//! * [`report`] — [`report::RunReport`], the record one simulation
//!   replication produces, with the paper's derived metrics (R_deliv,
//!   R_drop, R_retx, R_txoh, R_abort, MRTS lengths, end-to-end delay) and
//!   cross-replication averaging.
//! * [`table`] — plain-text table rendering and CSV output for the
//!   experiment binaries.

pub mod report;
pub mod stats;
pub mod table;

pub use report::{RunReport, FRAME_KINDS, FRAME_KIND_LABELS};
pub use stats::{percentile, percentile_counted};
pub use table::{frame_kind_table, Table};
