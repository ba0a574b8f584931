//! Wireless PHY substrate: data channel, collisions and busy tones.
//!
//! This crate replaces GloMoSim's radio model. It simulates:
//!
//! * a shared **data channel**: unit-disk propagation (default range 75 m),
//!   real per-link propagation delays, half-duplex transceivers, and
//!   overlap-based collision corruption;
//! * two narrow-band **busy-tone channels** (§3.1–§3.2 of the paper): the
//!   Receiver Busy Tone (RBT) and the Acknowledgment Busy Tone (ABT). Tones
//!   carry no bits — a node only senses *presence* — and therefore never
//!   collide; multiple simultaneous emitters are indistinguishable, which
//!   is exactly the "mixed-up ABT" ambiguity of the paper's §3.4;
//! * optional per-bit error injection for high-BER experiments.
//!
//! # Architecture
//!
//! [`Channel`] is a passive state machine driven by the simulation's event
//! loop. MAC-layer actions ([`Channel::start_tx`], [`Channel::start_tone`],
//! …) schedule [`PhyEvent`]s into the caller's event queue; the caller feeds
//! each popped `PhyEvent` back through [`Channel::handle`], which updates
//! radio state and emits [`Indication`]s (frame receptions, carrier and tone
//! edges, transmit completions) for the engine to route to the per-node MAC
//! entities.
//!
//! On the data channel every frame end and every transmit completion is an
//! event. Tone edges and frame onsets work by **records**, and every edge of
//! a record is one [`rmac_sim::Edge`] (DESIGN.md §4, "Claimed keys"): as it
//! is written it claims the key its event would get, the event is pushed
//! only for a receiver whose MAC has declared — through [`Channel::listen`]
//! — that it can act on the change, and [`Channel::listen`] catches up the
//! edges still in flight when interest opens. Readers take the
//! [`rmac_sim::Cursor`] of the event being dispatched and see the edges
//! keyed at or before it.
//!
//! Raising or lowering a **tone** writes, at every in-range receiver, a
//! record with a rising and a falling edge; [`Channel::tone_present`], the
//! [`ToneLog`] of a watch ([`Channel::open_watch`]/[`Channel::close_watch`])
//! and [`Channel::tone_busy_ns`] (on a channel told to
//! [`keep_tone_busy_time`](Channel::keep_tone_busy_time)) are readings of
//! those records, and a `PhyEvent::ToneEdge` ends in an
//! `Indication::ToneChanged` if it flips presence; see the [`tone`] module.
//!
//! A frame's **first bit** is a record in the same way: [`Channel::start_tx`]
//! writes, at every in-range receiver, the onset's edge and its link (who
//! sent it, how far); a `PhyEvent::FrameArriveStart` — scheduled for a MAC
//! that declared [`ToneInterest::CARRIER`] — ends in an
//! `Indication::CarrierOn` if it takes the node from idle to busy. Whatever next touches that
//! receiver's radio (a frame end there, its own transmission starting or
//! completing, a dispatched onset) first accounts, in key order, the onsets
//! keyed at or before the event being dispatched, exactly as their events
//! would have; [`Channel::data_busy`] reads them at the caller's cursor.
//! That is why [`Channel::handle`] takes the popped event's key
//! ([`rmac_sim::SimQueue::cursor`]) and not just its time: a frame end and
//! another frame's onset can share a nanosecond at one receiver.
//!
//! A frame end's verdict is [`Channel::end_frame`], which lends the
//! transmission's frame handle rather than cloning it;
//! [`Channel::handle`] turns it into a `FrameRx` (and a `CarrierOff`).
//!
//! Aborted transmissions (RMAC aborts an in-flight MRTS when it senses an
//! RBT) are modelled by truncating the transmission record; stale
//! frame-end events are recognised by timestamp mismatch and ignored.
//!
//! Range queries ("who hears this transmission/tone?") go through a
//! uniform-grid spatial index by default ([`grid::SpatialGrid`]), which is
//! bit-identical to the brute-force O(N) scan but only inspects the
//! source's neighbour list, rebuilt from the cells around it once per reuse
//! horizon; see the [`grid`] module docs for the determinism contract and
//! the one inequality the reuse rests on.
//!
//! The [`trace`] module is the vocabulary of the **observation stream**: what
//! an engine driving this channel reports of the protocol, one typed event
//! per observable, for tracers, checkers and tallies to fold (DESIGN.md §9).

pub mod channel;
pub mod event;
pub mod grid;
pub mod slab;
pub mod tone;
pub mod trace;

pub use channel::{
    Channel, ChannelConfig, FaultHook, FrameEnd, FrameTallies, PhyObs, TxId, TONE_HISTORY,
};
pub use event::{Indication, PhyEvent};
pub use grid::{reuse_horizon, GridStats, IndexMode, SpatialGrid};
pub use tone::{Tone, ToneInterest, ToneLog};
pub use trace::{FaultKind, Reader, Sensing, TraceEvent, TraceWhat};
