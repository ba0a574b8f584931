//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate replacing GloMoSim's simulation core in the
//! RMAC reproduction. It provides:
//!
//! * [`SimTime`] — a nanosecond-resolution virtual clock,
//! * [`key`] — the claimed-key contract, written once: every event has a
//!   unique `(time, seq)` key ([`Cursor`]), a key can be claimed without an
//!   event and filled later, and an [`Edge`] is such a key plus whether an
//!   event carries it — with [`LiveTimer`], the only caller of
//!   [`SimQueue::claim`] and [`SimQueue::push_claimed`] outside the queues,
//! * [`EventQueue`] — a time-ordered event heap with deterministic FIFO
//!   tie-breaking for simultaneous events (the differential-testing
//!   oracle, and the queue of the beacon timetable and of every `rmac-live`
//!   node's timers), and [`CalendarQueue`] — a calendar/ladder queue with the
//!   identical pop order at O(1) amortized cost, tuned to the 15 µs
//!   tone-window cadence (the engine's queue); both embed the one key
//!   discipline and are driven through the [`SimQueue`] trait, the only
//!   spelling of the queue API,
//! * [`timer`] — [`LiveTimer`], one per node and timer kind: a backend
//!   arms, supersedes and cancels a MAC's timer through it, and only the
//!   live instance's firing reaches the MAC,
//! * [`pool`] — [`try_tasks`], the one worker pool: a campaign's cases and
//!   a replication's shard groups run on it,
//! * [`rng`] — seedable, splittable random number generation so that every
//!   replication is reproducible from a single `u64` seed.
//!
//! The kernel dispatches each causally-coupled region single-threaded:
//! wireless MAC simulations are dominated by fine-grained causally-ordered
//! events, so parallelism is applied across independent replications (a
//! campaign's cases) and across radio-isolated shard groups (each its own
//! [`CalendarQueue`]), both through [`try_tasks`], never within one coupled
//! region.

pub mod calendar;
pub mod hash;
pub mod key;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod time;
pub mod timer;

pub use calendar::CalendarQueue;
pub use hash::{DetHashMap, DetHashSet, DetHasher, DetState};
pub use key::{Cursor, Edge, EdgeTally};
pub use pool::try_tasks;
pub use queue::{EventQueue, SimQueue};
pub use rng::SimRng;
pub use time::SimTime;
pub use timer::LiveTimer;
