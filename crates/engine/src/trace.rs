//! Execution tracing.
//!
//! A [`Tracer`] attached to a [`Runner`](crate::Runner) observes every
//! PHY indication, upper-layer submission and delivery as it is dispatched
//! — the raw material for protocol timelines like the paper's Fig. 4
//! (MRTS → RBT → DATA → ordered ABTs), reproduced executable in
//! `examples/fig4_timeline.rs`.
//!
//! # JSONL schema
//!
//! [`JsonlSink`] writes one JSON object per line. Every line carries `"t_ns"` (simulation time
//! in nanoseconds, integer) and `"node"` (node id, integer), plus an
//! `"ev"` discriminator and its payload:
//!
//! | `ev`        | payload fields                                          |
//! |-------------|---------------------------------------------------------|
//! | `tx_done`   | `kind` (string), `bytes` (int), `aborted` (bool)        |
//! | `rx`        | `kind` (string), `src` (int), `ok` (bool)               |
//! | `tone`      | `tone` (`"Rbt"`/`"Abt"`), `present` (bool)              |
//! | `carrier`   | `busy` (bool)                                           |
//! | `submit`    | `reliable` (bool), `bytes` (int)                        |
//! | `deliver`   | `kind` (string), `src` (int)                            |
//! | `fault`     | `label` (string)                                        |
//!
//! `kind` is the `Debug` name of `rmac_wire::FrameKind` (`"Mrts"`,
//! `"DataReliable"`, …). `rmac_obs::parse_trace_line` parses this schema.
//!
//! A `tone` line is a presence flip a MAC was *told* of: the channel
//! dispatches a tone edge only to a node whose MAC declared it could act on
//! it (DESIGN.md §12), so a sender waiting in WF_RBT, which reads the tone
//! through a watch, has no line for the RBT it detects. What every node
//! *heard* is in the obs report's per-node `tone_busy_ns`.
//!
//! A `carrier` line with `busy: true` is likewise a rise a MAC was told of —
//! the node's backoff was counting, or it was a receiver waiting for the
//! first bit of its data frame — while every fall (`busy: false`) has its
//! line: most `carrier` lines of a node come unpaired, an idle after no
//! busy. When the channel turned busy at a node that was not told is the
//! start of the frame whose `rx` line follows (`t_ns` of the `rx` less the
//! frame's air time).
//!
//! # Volume control
//!
//! Full traces are dominated by per-node carrier/tone edges. A
//! [`TraceLevel`] passed to [`filter_tracer`] keeps only the layers you
//! care about: [`TraceLevel::Protocol`] ⊂ [`TraceLevel::Frames`] ⊂
//! [`TraceLevel::Signal`] (everything).

use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rmac_phy::Tone;
use rmac_sim::SimTime;
use rmac_wire::{FrameKind, NodeId};

/// One observed event.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// When it happened.
    pub t: SimTime,
    /// The node it happened at.
    pub node: NodeId,
    /// What happened.
    pub what: TraceWhat,
}

/// The kinds of observable events.
#[derive(Clone, Debug)]
pub enum TraceWhat {
    /// The node's own transmission left the antenna.
    TxDone {
        /// Frame type transmitted.
        kind: FrameKind,
        /// On-the-wire length.
        bytes: usize,
        /// Whether it was aborted mid-air (RMAC's RBT rule).
        aborted: bool,
    },
    /// A frame finished arriving.
    Rx {
        /// Frame type received.
        kind: FrameKind,
        /// Transmitter.
        src: NodeId,
        /// Whether it survived collisions/capture/BER.
        ok: bool,
    },
    /// Busy-tone presence changed at this node, and its MAC had asked to be
    /// told.
    Tone {
        /// Which tone channel.
        tone: Tone,
        /// Present or gone.
        present: bool,
    },
    /// Data-channel carrier sense changed at this node: every fall, and the
    /// rises its MAC was told of (see the module docs).
    Carrier {
        /// Busy or idle.
        busy: bool,
    },
    /// The network layer handed a transmit request to the MAC.
    Submit {
        /// Reliable Send?
        reliable: bool,
        /// Payload length.
        bytes: usize,
    },
    /// The MAC delivered a data frame up to the network layer.
    Deliver {
        /// Transmitter of the delivered frame.
        src: NodeId,
        /// Reliable or unreliable data.
        kind: FrameKind,
    },
    /// A fault-plane event fired at this node (crash, restart, jam burst).
    Fault {
        /// What the fault plane did, e.g. `"crash"`, `"restart"`, `"jam-rbt"`.
        label: &'static str,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>14}  n{:<3} ", format!("{}", self.t), self.node.0)?;
        match &self.what {
            TraceWhat::TxDone {
                kind,
                bytes,
                aborted,
            } => write!(
                f,
                "TX {kind:?} ({bytes} B){}",
                if *aborted { " ABORTED" } else { "" }
            ),
            TraceWhat::Rx { kind, src, ok } => write!(
                f,
                "RX {kind:?} from n{}{}",
                src.0,
                if *ok { "" } else { " (corrupt)" }
            ),
            TraceWhat::Tone { tone, present } => {
                write!(f, "{tone:?} {}", if *present { "on" } else { "off" })
            }
            TraceWhat::Carrier { busy } => {
                write!(f, "carrier {}", if *busy { "busy" } else { "idle" })
            }
            TraceWhat::Submit { reliable, bytes } => write!(
                f,
                "SUBMIT {} ({bytes} B)",
                if *reliable { "reliable" } else { "unreliable" }
            ),
            TraceWhat::Deliver { src, kind } => {
                write!(f, "DELIVER {kind:?} from n{}", src.0)
            }
            TraceWhat::Fault { label } => write!(f, "FAULT {label}"),
        }
    }
}

impl TraceEvent {
    /// One-line JSON encoding (hand-rolled; the workspace carries no JSON
    /// dependency). All fields are numbers, fixed strings, or booleans, so
    /// no escaping is needed.
    pub fn to_json(&self) -> String {
        let head = format!("\"t_ns\":{},\"node\":{}", self.t.nanos(), self.node.0);
        let what = match &self.what {
            TraceWhat::TxDone {
                kind,
                bytes,
                aborted,
            } => format!(
                "\"ev\":\"tx_done\",\"kind\":\"{kind:?}\",\"bytes\":{bytes},\"aborted\":{aborted}"
            ),
            TraceWhat::Rx { kind, src, ok } => {
                format!(
                    "\"ev\":\"rx\",\"kind\":\"{kind:?}\",\"src\":{},\"ok\":{ok}",
                    src.0
                )
            }
            TraceWhat::Tone { tone, present } => {
                format!("\"ev\":\"tone\",\"tone\":\"{tone:?}\",\"present\":{present}")
            }
            TraceWhat::Carrier { busy } => format!("\"ev\":\"carrier\",\"busy\":{busy}"),
            TraceWhat::Submit { reliable, bytes } => {
                format!("\"ev\":\"submit\",\"reliable\":{reliable},\"bytes\":{bytes}")
            }
            TraceWhat::Deliver { src, kind } => {
                format!("\"ev\":\"deliver\",\"kind\":\"{kind:?}\",\"src\":{}", src.0)
            }
            TraceWhat::Fault { label } => format!("\"ev\":\"fault\",\"label\":\"{label}\""),
        };
        format!("{{{head},{what}}}")
    }
}

/// The observer callback type.
pub type Tracer = Box<dyn FnMut(&TraceEvent) + Send>;

/// How much of the event stream a trace keeps. Each level includes the
/// ones above it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Protocol milestones only: submissions, deliveries, faults.
    Protocol,
    /// Plus every frame on the air: transmit completions and receptions.
    Frames,
    /// Plus the physical signal edges: carrier changes, and the tone flips
    /// a MAC was told of (see the module docs). This is the full stream —
    /// what an unfiltered tracer sees.
    Signal,
}

impl TraceLevel {
    /// Does this level keep `what`?
    pub fn admits(self, what: &TraceWhat) -> bool {
        match what {
            TraceWhat::Submit { .. } | TraceWhat::Deliver { .. } | TraceWhat::Fault { .. } => true,
            TraceWhat::TxDone { .. } | TraceWhat::Rx { .. } => self >= TraceLevel::Frames,
            TraceWhat::Tone { .. } | TraceWhat::Carrier { .. } => self >= TraceLevel::Signal,
        }
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

/// What a [`JsonlSink`] did over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkSummary {
    /// Lines successfully handed to the (buffered) writer.
    pub written: u64,
    /// Events dropped because a write failed.
    pub dropped: u64,
}

struct SinkShared {
    out: Mutex<Option<BufWriter<File>>>,
    written: AtomicU64,
    dropped: AtomicU64,
}

/// A JSON-lines trace file that *accounts for* I/O failures instead of
/// swallowing them: every failed write bumps a drop counter, and
/// [`JsonlSink::finish`] flushes and reports the totals so a run can
/// refuse to trust an incomplete trace.
pub struct JsonlSink {
    shared: Arc<SinkShared>,
}

impl JsonlSink {
    /// Create (truncate) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let out = BufWriter::new(File::create(path)?);
        Ok(JsonlSink {
            shared: Arc::new(SinkShared {
                out: Mutex::new(Some(out)),
                written: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        })
    }

    /// A [`Tracer`] writing into this sink. May be called more than once;
    /// all tracers share the file and the counters.
    pub fn tracer(&self) -> Tracer {
        let shared = Arc::clone(&self.shared);
        Box::new(move |ev: &TraceEvent| {
            let mut guard = shared.out.lock().expect("sink lock poisoned");
            let ok = match guard.as_mut() {
                Some(out) => writeln!(out, "{}", ev.to_json()).is_ok(),
                // finish() already ran: the event has nowhere to go.
                None => false,
            };
            drop(guard);
            if ok {
                shared.written.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.dropped.fetch_add(1, Ordering::Relaxed);
            }
        })
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.shared.written.load(Ordering::Relaxed)
    }

    /// Events dropped on write failure so far.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Flush and close the file, returning the totals. A flush failure is
    /// an error — buffered lines may not have reached disk.
    pub fn finish(self) -> io::Result<SinkSummary> {
        let mut guard = self.shared.out.lock().expect("sink lock poisoned");
        if let Some(mut out) = guard.take() {
            out.flush()?;
        }
        drop(guard);
        Ok(SinkSummary {
            written: self.written(),
            dropped: self.dropped(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(what: TraceWhat) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_micros(5),
            node: NodeId(3),
            what,
        }
    }

    #[test]
    fn levels_nest() {
        let submit = TraceWhat::Submit {
            reliable: true,
            bytes: 64,
        };
        let rx = TraceWhat::Rx {
            kind: FrameKind::Mrts,
            src: NodeId(1),
            ok: true,
        };
        let tone = TraceWhat::Tone {
            tone: Tone::Rbt,
            present: true,
        };
        assert!(TraceLevel::Protocol.admits(&submit));
        assert!(!TraceLevel::Protocol.admits(&rx));
        assert!(!TraceLevel::Protocol.admits(&tone));
        assert!(TraceLevel::Frames.admits(&rx));
        assert!(!TraceLevel::Frames.admits(&tone));
        assert!(TraceLevel::Signal.admits(&tone));
    }

    #[test]
    fn filter_tracer_drops_below_level() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let inner: Tracer = Box::new(move |e| sink.lock().unwrap().push(e.to_json()));
        let mut t = filter_tracer(TraceLevel::Frames, inner);
        t(&ev(TraceWhat::Carrier { busy: true }));
        t(&ev(TraceWhat::TxDone {
            kind: FrameKind::Mrts,
            bytes: 40,
            aborted: false,
        }));
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        assert!(seen[0].contains("tx_done"));
    }

    #[test]
    fn sink_counts_writes_and_finishes_clean() {
        let dir = std::env::temp_dir().join("rmac_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        let mut t = sink.tracer();
        t(&ev(TraceWhat::Fault { label: "crash" }));
        t(&ev(TraceWhat::Carrier { busy: false }));
        assert_eq!(sink.written(), 2);
        assert_eq!(sink.dropped(), 0);
        let summary = sink.finish().unwrap();
        assert_eq!(
            summary,
            SinkSummary {
                written: 2,
                dropped: 0
            }
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn writes_after_finish_count_as_dropped() {
        let dir = std::env::temp_dir().join("rmac_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let sink = JsonlSink::create(dir.join("late.jsonl")).unwrap();
        let mut t = sink.tracer();
        let shared = Arc::clone(&sink.shared);
        sink.finish().unwrap();
        t(&ev(TraceWhat::Carrier { busy: true }));
        assert_eq!(shared.dropped.load(Ordering::Relaxed), 1);
    }
}
