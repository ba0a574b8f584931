//! Baseline MAC protocols the paper compares against (or builds on).
//!
//! * [`bmmm`] — **Batch Mode Multicast MAC** (Sun et al., ICPP 2002), the
//!   paper's main comparison target (§2, Fig. 1b): n RTS/CTS pairs, one
//!   DATA, n RAK/ACK pairs per reliable multicast, with 802.11-style NAV
//!   virtual carrier sense.
//! * [`bmw`] — **Broadcast Medium Window** (Tang & Gerla, MILCOM 2001):
//!   reliable broadcast as a round-robin of RTS/CTS/DATA/ACK unicasts with
//!   overhearing (§2, Fig. 1a). Extension: the paper cites BMW but only
//!   evaluates BMMM.
//! * [`lbp`] — **Leader Based Protocol** (Kuri & Kasera, 2001): one leader
//!   answers CTS/ACK for the group; non-leaders jam a NAK over the leader's
//!   ACK on failure. Extension, same caveat.
//! * [`mx`] — **802.11MX** (Gupta et al., ICC 2003): the receiver-initiated
//!   busy-tone multicast MAC developed in parallel with RMAC; negative
//!   feedback via a NAK tone. Extension.
//! * [`station`] — the one IEEE 802.11 station all four run on; each of the
//!   above is its frame exchange ([`station::Exchange`]) and nothing else.
//! * [`dcf`] — the station's contention machinery (DIFS + slotted backoff
//!   + NAV).
//!
//! Every protocol is a [`station::Station`], which implements
//! `rmac_core::api::MacService`, so the engine can swap MACs per scenario
//! while reusing the same PHY and network layer.

pub mod bmmm;
pub mod bmw;
pub mod dcf;
pub mod lbp;
pub mod mx;
pub mod station;

pub use bmmm::Bmmm;
pub use bmw::Bmw;
pub use lbp::Lbp;
pub use mx::Mx;
