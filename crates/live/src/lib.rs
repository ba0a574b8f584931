//! # rmac-live — RMAC semantics over real datagrams
//!
//! Everything below the MAC in this workspace was, until this crate, the
//! discrete-event simulator. `rmac-live` runs the *unmodified* RMAC state
//! machine ([`rmac_core::Rmac`]) over a second, independent I/O path:
//! datagrams. The PDXostc reliable_multicast protocol is the architectural
//! exemplar — a data channel to every subscriber, a per-subscriber control
//! channel for acknowledgment traffic — and the busy tones become short
//! out-of-band control datagrams ([`rmac_wire::datagram`]).
//!
//! The pieces:
//!
//! * [`transport`] — the datagram vocabulary both backends share:
//!   [`DgramChannel`] (data: wire-encoded frames to everyone; control:
//!   tone stand-ins and abort markers to one peer), [`Incoming`],
//!   [`OutDgram`] and [`TransportError`].
//! * [`node`] — [`LiveNode`]: the sans-I/O adapter that feeds datagram
//!   arrivals and its due timers to the MAC as PHY indications, and turns
//!   the MAC's context calls (`start_tx`, `start_tone`, …) back into
//!   outbound datagrams. One `LiveNode` per endpoint; its driver pumps it
//!   off the backend's clock. Its timers are an
//!   [`rmac_sim::EventQueue`]: the simulator's `(time, seq)` FIFO order
//!   and 1 ns deadlines, so both halves of the workspace keep time on one
//!   kernel.
//! * [`wheel`] — the pinned shim that keeps the retired timing wheel's
//!   three names alive for the frozen benchmark, over the same queue.
//! * [`hub`] — [`LoopbackHub`]: the deterministic in-process network —
//!   every datagram copy in flight on one FIFO in send order, which one
//!   fixed latency on both channels makes arrival order; seeded per-link
//!   Gilbert–Elliott fades on the data channel via `rmac-faults`.
//!   The control channel is lossless by design, mirroring RMC's reliable
//!   (TCP) control connection.
//! * [`runner`] — [`LoopbackRunner`]: the hub's one driver, stepping N
//!   [`LiveNode`]s in exact virtual-time order (same seed + same loss
//!   plan ⇒ identical behavior).
//! * [`udp`] — [`UdpTransport`]: real sockets (`std::net` unicast: data
//!   fanned out to every known peer, control to one; std + threads only),
//!   a reader thread, and a scaled [`WallClock`](rmac_core::WallClock) so
//!   host jitter stays far inside the paper's ±2 µs tone-window margins.
//! * [`driver`] — [`Driver`]: one [`LiveNode`] pumped over one
//!   [`UdpTransport`], one per endpoint thread.
//! * [`soak`] — the `rmc_test`-style soak harness: N publishers × M
//!   subscribers, closed-loop reliable multicast with application-level
//!   resends, goodput/latency/retransmission stats.
//!
//! ## Timing model
//!
//! RMAC's reliability hinges on λ = 15 µs tone detection inside 17 µs
//! windows — ±2 µs of slack. The adapter therefore treats a datagram's
//! arrival as the *first bit* of the corresponding frame (CarrierOn),
//! synthesizes FrameRx/CarrierOff one airtime later, and the sender its
//! own TxDone one airtime after sending: both ends reconstruct the
//! paper's timeline from the same constants, so their windows stay
//! aligned to within the transport's one-way latency. The loopback hub
//! keeps that latency at 0.5 µs of *virtual* time, within τ ≤ 1 µs; the UDP backend runs
//! MAC time `scale`× slower than wall time so localhost jitter shrinks
//! below the margin in MAC units.

pub mod driver;
pub mod hub;
pub mod node;
pub mod runner;
pub mod soak;
pub mod transport;
pub mod udp;
pub mod wheel;

pub use driver::Driver;
pub use hub::{HubConfig, HubStats, LoopbackHub};
pub use node::{LiveConfig, LiveNode, LiveStats};
pub use runner::LoopbackRunner;
pub use soak::{run_loopback_soak, SoakConfig, SoakReport};
pub use transport::{DgramChannel, Incoming, OutDgram, TransportError};
pub use udp::{UdpConfig, UdpTransport};
pub use wheel::TimerWheel;
