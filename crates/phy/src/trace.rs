//! The observation stream's vocabulary: what a run reports of the protocol.
//!
//! The engine reports each observable once, as a [`TraceEvent`], in dispatch
//! order and before the node's MAC reacts to it, to every attached
//! [`Reader`]: a tracer, the conformance checker (`rmac-check`) and the
//! engine's per-node obs tallies are folds of that one stream. The RBT a
//! node sensed, which only the checker reads, is asked of the backend's
//! [`Sensing`]. On a live stream a frame-bearing event carries the frame
//! whole (the `Arc<Frame>` the channel's [`Indication`] holds); a stream
//! read back from its lines carries the [`FrameHead`] a line prints. The
//! kinds, their [`Display`](fmt::Display), their JSON line
//! ([`TraceEvent::to_json`]) and its strict inverse
//! ([`TraceEvent::from_json`]) are spelled here and nowhere else.
//!
//! # JSONL schema
//!
//! One flat JSON object per line: `"t_ns"` (simulation time, integer ns),
//! `"node"` (node id), an `"ev"` discriminator and exactly its payload:
//!
//! | `ev`        | level    | payload fields                                    |
//! |-------------|----------|---------------------------------------------------|
//! | `submit`    | Protocol | `reliable` (bool), `bytes` (int)                  |
//! | `deliver`   | Protocol | `kind` (string), `src` (int)                      |
//! | `fault`     | Protocol | `label` (a [`FaultKind::label`])                  |
//! | `tx_done`   | Frames   | `kind` (string), `bytes` (int), `aborted` (bool)  |
//! | `rx`        | Frames   | `kind` (string), `src` (int), `ok` (bool)         |
//! | `tx_start`  | Signal   | `kind` (string), `bytes` (int)                    |
//! | `tone_emit` | Signal   | `tone` (`"Rbt"`/`"Abt"`), `on` (bool)             |
//! | `tone`      | Signal   | `tone` (`"Rbt"`/`"Abt"`), `present` (bool)        |
//! | `carrier`   | Signal   | `busy` (bool)                                     |
//!
//! `kind` is the `Debug` name of `rmac_wire::FrameKind` (`"Mrts"`,
//! `"DataReliable"`, …). A [`TraceLevel`] keeps its own rows and the ones
//! above them; an unfiltered tracer sees every row.
//!
//! `tx_start` and `tone_emit` are what a node *does*: its MAC hands a frame
//! to the radio, raises or lowers its own tone (the RBT and the ordered ABTs
//! of the paper's Fig. 4). Jammers are environment and have neither; a crash
//! silences the radio without a `tx_done` or a lowering `tone_emit` — its
//! `fault` line says so.
//!
//! `tone` and `carrier` are what a node was *told*. A `tone` line is a
//! presence flip a MAC had asked to hear of (DESIGN.md §5): a sender waiting
//! in WF_RBT reads the tone through a watch and has no line for the RBT it
//! detects; what every node heard is the obs report's `tone_busy_ns`. A
//! `carrier` line with `busy: true` is likewise a rise a MAC was told of —
//! its backoff was counting, or it was waiting for the first bit of its data
//! frame — while every fall has its line, so most come unpaired. When the
//! channel turned busy at a node that was not told is the start of the frame
//! whose `rx` line follows (its `t_ns` less the frame's air time).

use std::fmt;
use std::sync::Arc;

use rmac_sim::SimTime;
use rmac_wire::json::{self, Json};
use rmac_wire::{Frame, FrameKind, NodeId};

use crate::event::Indication;
use crate::tone::{Tone, ToneLog};

/// One observed event. `F` is how it carries a frame: whole on a live
/// stream (borrowed, `&Arc<Frame>`, while the engine reports it), a
/// [`FrameHead`] once read back from a line.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent<F = Arc<Frame>> {
    /// When it happened.
    pub t: SimTime,
    /// The node it happened at.
    pub node: NodeId,
    /// What happened.
    pub what: TraceWhat<F>,
}

/// The kinds of observable events.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceWhat<F = Arc<Frame>> {
    /// The node's MAC handed `frame` to its radio. What the node sensed of
    /// the RBT before it is not part of the event: a reader that holds the
    /// sender to it asks the backend ([`Sensing`]).
    TxStart { frame: F },
    /// The node's own transmission of `frame` left the antenna, whole or
    /// `aborted` mid-air (RMAC's RBT rule).
    TxDone { frame: F, aborted: bool },
    /// `frame` finished arriving; `ok` if it survived collisions, capture
    /// and bit errors.
    Rx { frame: F, ok: bool },
    /// Presence of `tone` changed at this node, and its MAC had asked to be
    /// told.
    Tone { tone: Tone, present: bool },
    /// Data-channel carrier sense changed at this node: every fall, and the
    /// rises its MAC was told of (see the module docs).
    Carrier { busy: bool },
    /// The node's MAC raised (`on`) or lowered its own busy tone.
    ToneEmit { tone: Tone, on: bool },
    /// The network layer handed the MAC a request: a Reliable or an
    /// Unreliable Send of `bytes` of payload.
    Submit { reliable: bool, bytes: usize },
    /// The MAC delivered data `frame` up to the network layer.
    Deliver { frame: F },
    /// The fault plane acted on this node (a jammer's channel slot included).
    Fault(FaultKind),
}

/// What the fault plane did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The node went down: radio silenced, MAC and network state lost.
    Crash,
    /// The node came back with fresh MAC and network entities.
    Restart,
    /// A jammer began a noise frame on the data channel.
    JamData,
    /// A jammer began a false RBT burst.
    JamRbt,
    /// A jammer began a false ABT burst.
    JamAbt,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; 5] = {
        use FaultKind::*;
        [Crash, Restart, JamData, JamRbt, JamAbt]
    };

    /// The `label` of the kind's `fault` line.
    pub fn label(self) -> &'static str {
        ["crash", "restart", "jam-data", "jam-rbt", "jam-abt"][self as usize]
    }
}

/// What a trace line keeps of a frame. A `tx_*` line prints `kind` and
/// `bytes` (its frame is the event node's own), an `rx` or `deliver` line
/// `kind` and `src`; read back, the field a line did not print is `src` =
/// the event's node, `bytes` = 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHead {
    /// Frame type.
    pub kind: FrameKind,
    /// Transmitter.
    pub src: NodeId,
    /// On-the-wire length.
    pub bytes: usize,
}

/// How a [`TraceEvent`] carries a frame.
pub trait Carried {
    /// The part of the frame a line prints.
    fn head(&self) -> FrameHead;
}

impl Carried for Arc<Frame> {
    fn head(&self) -> FrameHead {
        let (kind, src, bytes) = (self.kind, self.src, self.length_bytes());
        FrameHead { kind, src, bytes }
    }
}

impl Carried for FrameHead {
    fn head(&self) -> FrameHead {
        *self
    }
}

/// The image of a PHY indication in the stream, its frame borrowed.
impl<'a> From<&'a Indication> for TraceWhat<&'a Arc<Frame>> {
    fn from(ind: &'a Indication) -> Self {
        match *ind {
            Indication::TxDone {
                ref frame, aborted, ..
            } => TraceWhat::TxDone { frame, aborted },
            Indication::FrameRx { ref frame, ok, .. } => TraceWhat::Rx { frame, ok },
            Indication::ToneChanged { tone, present, .. } => TraceWhat::Tone { tone, present },
            Indication::CarrierOn { .. } => TraceWhat::Carrier { busy: true },
            Indication::CarrierOff { .. } => TraceWhat::Carrier { busy: false },
        }
    }
}

impl<F> TraceEvent<F> {
    /// The same event, its frame carried as `f` makes of it: an engine's
    /// borrowed event shared to keep (`Arc::clone`), or cut down to what
    /// its line says ([`Carried::head`]).
    pub fn map<G>(self, f: impl FnOnce(F) -> G) -> TraceEvent<G> {
        use TraceWhat::*;
        let what = match self.what {
            TxStart { frame } => TxStart { frame: f(frame) },
            TxDone { frame, aborted } => TxDone {
                frame: f(frame),
                aborted,
            },
            Rx { frame, ok } => Rx {
                frame: f(frame),
                ok,
            },
            Deliver { frame } => Deliver { frame: f(frame) },
            Tone { tone, present } => Tone { tone, present },
            Carrier { busy } => Carrier { busy },
            ToneEmit { tone, on } => ToneEmit { tone, on },
            Submit { reliable, bytes } => Submit { reliable, bytes },
            Fault(kind) => Fault(kind),
        };
        let (t, node) = (self.t, self.node);
        TraceEvent { t, node, what }
    }
}

impl<F: Carried> fmt::Display for TraceEvent<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (t, node) = (self.t.to_string(), self.node.0);
        write!(f, "{t:>14}  n{node:<3} {}", self.what)
    }
}

impl<F: Carried> fmt::Display for TraceWhat<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceWhat::TxStart { frame } => {
                let h = frame.head();
                write!(f, "TX-START {:?} ({} B)", h.kind, h.bytes)
            }
            TraceWhat::TxDone { frame, aborted } => {
                let (h, cut) = (frame.head(), if *aborted { " ABORTED" } else { "" });
                write!(f, "TX {:?} ({} B){cut}", h.kind, h.bytes)
            }
            TraceWhat::Rx { frame, ok } => {
                let (h, bad) = (frame.head(), if *ok { "" } else { " (corrupt)" });
                write!(f, "RX {:?} from n{}{bad}", h.kind, h.src.0)
            }
            TraceWhat::Tone { tone, present } => {
                write!(f, "{tone:?} {}", if *present { "on" } else { "off" })
            }
            TraceWhat::Carrier { busy } => {
                write!(f, "carrier {}", if *busy { "busy" } else { "idle" })
            }
            TraceWhat::ToneEmit { tone, on } => {
                write!(f, "{tone:?} {}", if *on { "raised" } else { "lowered" })
            }
            TraceWhat::Submit { reliable, bytes } => {
                let service = if *reliable { "reliable" } else { "unreliable" };
                write!(f, "SUBMIT {service} ({bytes} B)")
            }
            TraceWhat::Deliver { frame } => {
                let h = frame.head();
                write!(f, "DELIVER {:?} from n{}", h.kind, h.src.0)
            }
            TraceWhat::Fault(kind) => write!(f, "FAULT {}", kind.label()),
        }
    }
}

impl<F: Carried> TraceEvent<F> {
    /// The event's JSON line (see the module docs for the schema).
    pub fn to_json(&self) -> String {
        use TraceWhat::*;
        json::object(|o| {
            o.u64("t_ns", self.t.nanos())
                .u64("node", self.node.0.into());
            match &self.what {
                TxStart { frame } => sent(o, "tx_start", frame.head()),
                TxDone { frame, aborted } => {
                    sent(o, "tx_done", frame.head()).bool("aborted", *aborted)
                }
                Rx { frame, ok } => heard(o, "rx", frame.head()).bool("ok", *ok),
                Tone { tone, present } => told(o, "tone", *tone).bool("present", *present),
                Carrier { busy } => o.str("ev", "carrier").bool("busy", *busy),
                ToneEmit { tone, on } => told(o, "tone_emit", *tone).bool("on", *on),
                Submit { reliable, bytes } => (o.str("ev", "submit"))
                    .bool("reliable", *reliable)
                    .u64("bytes", *bytes as u64),
                Deliver { frame } => heard(o, "deliver", frame.head()),
                Fault(kind) => o.str("ev", "fault").str("label", kind.label()),
            };
        })
    }
}

// A node's own frame prints its length, one it heard its sender.
fn sent<'o, 'a>(o: &'o mut json::Obj<'a>, ev: &str, h: FrameHead) -> &'o mut json::Obj<'a> {
    let kind = FrameKind::LABELS[h.kind.index()];
    o.str("ev", ev)
        .str("kind", kind)
        .u64("bytes", h.bytes as u64)
}

fn heard<'o, 'a>(o: &'o mut json::Obj<'a>, ev: &str, h: FrameHead) -> &'o mut json::Obj<'a> {
    let kind = FrameKind::LABELS[h.kind.index()];
    o.str("ev", ev).str("kind", kind).u64("src", h.src.0.into())
}

fn told<'o, 'a>(o: &'o mut json::Obj<'a>, ev: &str, tone: Tone) -> &'o mut json::Obj<'a> {
    o.str("ev", ev).str("tone", &format!("{tone:?}"))
}

impl TraceEvent<FrameHead> {
    /// The strict inverse of [`to_json`](TraceEvent::to_json): `line` is
    /// `t_ns`, `node`, a known `ev` and that kind's payload, each field of
    /// its type — and, byte for byte, what `to_json` writes for the event it
    /// says (no foreign field, no other order or spelling). Anything else
    /// is an error.
    pub fn from_json(line: &str) -> Result<TraceEvent<FrameHead>, String> {
        let obj = Json::parse(line)?;
        let id = |key: &str| {
            let n = obj.uint(key)?;
            let id = u16::try_from(n).map_err(|_| format!("{key} {n} is no node id"))?;
            Ok::<_, String>(NodeId(id))
        };
        let (t, node) = (SimTime::from_nanos(obj.uint("t_ns")?), id("node")?);
        let kind = || named(&obj, "kind", &FrameKind::ALL, |k| format!("{k:?}"));
        let tone = || named(&obj, "tone", &Tone::ALL, |t| format!("{t:?}"));
        let flag = |key: &str| obj.bool(key);
        // A node's own frame (its length printed) and one it heard (its sender).
        let sent = || {
            let (kind, src, bytes) = (kind()?, node, obj.uint("bytes")? as usize);
            Ok::<_, String>(FrameHead { kind, src, bytes })
        };
        let heard = || {
            let (kind, src, bytes) = (kind()?, id("src")?, 0);
            Ok::<_, String>(FrameHead { kind, src, bytes })
        };
        let what = match obj.str("ev")? {
            "tx_start" => TraceWhat::TxStart { frame: sent()? },
            "tx_done" => {
                let (frame, aborted) = (sent()?, flag("aborted")?);
                TraceWhat::TxDone { frame, aborted }
            }
            "rx" => {
                let (frame, ok) = (heard()?, flag("ok")?);
                TraceWhat::Rx { frame, ok }
            }
            "tone" => {
                let (tone, present) = (tone()?, flag("present")?);
                TraceWhat::Tone { tone, present }
            }
            "carrier" => {
                let busy = flag("busy")?;
                TraceWhat::Carrier { busy }
            }
            "tone_emit" => {
                let (tone, on) = (tone()?, flag("on")?);
                TraceWhat::ToneEmit { tone, on }
            }
            "submit" => {
                let (reliable, bytes) = (flag("reliable")?, obj.uint("bytes")? as usize);
                TraceWhat::Submit { reliable, bytes }
            }
            "deliver" => {
                let frame = heard()?;
                TraceWhat::Deliver { frame }
            }
            "fault" => {
                let label = |k: FaultKind| k.label().to_string();
                TraceWhat::Fault(named(&obj, "label", &FaultKind::ALL, label)?)
            }
            other => return Err(format!("unknown ev {other:?}")),
        };
        let ev = TraceEvent { t, node, what };
        let written = ev.to_json();
        if written == line {
            Ok(ev)
        } else {
            Err(format!("not the line its event writes, {written}"))
        }
    }
}

/// The `key` string of `obj`, as the one of `all` that `name`s itself so.
fn named<T: Copy>(
    obj: &Json,
    key: &str,
    all: &[T],
    name: impl Fn(T) -> String,
) -> Result<T, String> {
    let want = obj.str(key)?;
    let found = all.iter().copied().find(|&v| name(v) == want);
    found.ok_or_else(|| format!("unknown {key} {want:?}"))
}

/// A reader of the observation stream: a fold of the events a run reports,
/// each handed over before the node's MAC reacts to it.
pub trait Reader {
    /// `ev` just happened; `sensed` answers for what its node could sense.
    fn on_event(&mut self, ev: &TraceEvent<&Arc<Frame>>, sensed: &mut Sensing<'_>);
}

/// How the backend answers a [`Reader`] beyond the event: called as
/// `(node, over)`, the RBT `node` sensed over the span `over` that ends at
/// the event, read as its MAC reads the channel.
pub type Sensing<'a> = dyn FnMut(NodeId, SimTime) -> ToneLog + 'a;

/// The observer callback type: a reader that keeps what it is shown.
pub type Tracer = Box<dyn FnMut(&TraceEvent) + Send>;

impl Reader for Tracer {
    fn on_event(&mut self, ev: &TraceEvent<&Arc<Frame>>, _: &mut Sensing<'_>) {
        self(&ev.clone().map(Arc::clone));
    }
}

/// How much of the event stream a trace keeps. Each level includes the
/// ones above it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Protocol milestones only: submissions, deliveries, faults.
    Protocol,
    /// Plus every frame on the air: transmit completions and receptions.
    Frames,
    /// Plus what each radio did and was told: transmission starts, own tone
    /// raises and lowerings, carrier changes and the tone flips a MAC was
    /// told of (see the module docs). This is the full stream — what an
    /// unfiltered tracer sees.
    Signal,
}

impl TraceLevel {
    /// Does this level keep `what`?
    pub fn admits<F>(self, what: &TraceWhat<F>) -> bool {
        use TraceWhat::*;
        let needs = match what {
            Submit { .. } | Deliver { .. } | Fault(_) => TraceLevel::Protocol,
            TxDone { .. } | Rx { .. } => TraceLevel::Frames,
            TxStart { .. } | ToneEmit { .. } | Tone { .. } | Carrier { .. } => TraceLevel::Signal,
        };
        self >= needs
    }
}

/// Wrap `inner` so it only sees events admitted by `level`.
pub fn filter_tracer(level: TraceLevel, mut inner: Tracer) -> Tracer {
    Box::new(move |ev: &TraceEvent| {
        if level.admits(&ev.what) {
            inner(ev);
        }
    })
}

/// Render a Fig. 4-style timeline: starting at the first reliable
/// submission (or the first event when none exists), show up to
/// `max_lines` events within `window_ns` of the anchor. Times are printed
/// relative to the anchor, in microseconds. Each event is rendered on its
/// own: a trace has a `tone` or `carrier busy` line only for a change some
/// MAC was told of, so nothing here pairs a fall with a rise.
pub fn render_timeline<F: Carried>(
    events: &[TraceEvent<F>],
    window_ns: u64,
    max_lines: usize,
) -> String {
    use std::fmt::Write as _;
    if events.is_empty() {
        return "timeline: no trace records\n".to_string();
    }
    let reliable = |e: &TraceEvent<F>| matches!(e.what, TraceWhat::Submit { reliable: true, .. });
    let shown = &events[events.iter().position(reliable).unwrap_or(0)..];
    let t0 = shown[0].t.nanos();
    let (t0_ms, window_ms) = (t0 as f64 / 1e6, window_ns as f64 / 1e6);
    let mut out = format!("## Timeline (t0 = {t0_ms:.3} ms, window {window_ms:.1} ms)\n");
    let within = |e: &&TraceEvent<F>| e.t.nanos() <= t0 + window_ns;
    let in_window = shown.iter().take_while(within).count();
    for e in &shown[..in_window.min(max_lines)] {
        let at = (e.t.nanos() - t0) as f64 / 1e3;
        let _ = writeln!(out, "{at:>12.1} µs  n{:<4} {}", e.node.0, e.what);
    }
    if in_window > max_lines {
        let _ = writeln!(out, "… {} more events in window", in_window - max_lines);
    }
    out
}

#[cfg(test)]
mod tests;
