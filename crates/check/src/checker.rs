//! The streaming conformance checker.
//!
//! The checker is a fold of the observation stream ([`rmac_phy::trace`]):
//! the engine hands it the very events its tracer sees, in dispatch order
//! and before the node's MAC reacts, and it asserts the paper's invariants
//! online. Everything is formulated against *sensed* state (what the node's
//! radio could know: the frames delivered to it and, for the RBT, the
//! channel's tone records read at the same cursor its MAC reads them, asked
//! of the backend ([`Sensing`]) at each `tx_start`), never against global
//! geometry: physical-layer
//! capture can fool a fully conformant sender into transmitting data
//! against a foreign RBT, so a geometric "no overlap" rule would flag
//! correct runs (DESIGN.md §9).
//!
//! The checker is purely observational: it draws no randomness, schedules
//! no events and touches no channel state, so an attached checker leaves
//! every `RunReport` bit-identical (enforced by `tests/conformance.rs`).

use std::sync::Arc;

use rmac_phy::{FaultKind, Reader, Sensing, Tone, ToneLog, TraceEvent, TraceWhat, TONE_HISTORY};
use rmac_sim::SimTime;
use rmac_wire::consts::{LAMBDA, L_ABT, T_WF};
use rmac_wire::{Frame, FrameKind, NodeId};

use crate::edges::{is_legal, EXPECTED_LABELS, STATES};
use crate::report::{CheckReport, Invariant, Violation};

/// Which invariant family the run's MAC belongs to. Physics checks
/// (C3/C5) are universal; the tone and frame-alphabet rules are
/// per-protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolClass {
    /// RMAC and its ablations/mutants: MRTS/RBT/ABT semantics apply.
    Rmac,
    /// The BMMM baseline: RTS/CTS/RAK/ACK governance applies.
    Bmmm,
    /// Other baselines (BMW, LBP, 802.11MX): only C3/C5.
    Other,
}

/// Violations a report stores; the ones past it are counted through
/// `CheckReport::truncated` only.
const MAX_VIOLATIONS: usize = 64;

/// Checker parameters.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// Protocol population (channel slots at or past this index are
    /// jammers — environment, not protocol entities).
    pub nodes: usize,
    /// The run's invariant family.
    pub class: ProtocolClass,
}

impl CheckConfig {
    /// The checker of a `nodes`-node run of `class`.
    pub fn new(nodes: usize, class: ProtocolClass) -> CheckConfig {
        CheckConfig { nodes, class }
    }
}

/// Tolerance on response timing (ABT slot alignment, RBT raise): covers
/// propagation (τ ≤ 1 µs) plus clock-skew stretch on short timers.
const TOL_NS: u64 = 2_000;
/// C1's look-back window: the WF_RBT watch is T_WF long; the slack covers
/// skew-stretched timers. At a `tx_start` the checker asks for the sender's
/// sensed RBT over this much past.
pub const C1_WINDOW: SimTime = SimTime::from_nanos(T_WF.nanos() + 2_000);
const _: () = assert!(C1_WINDOW.nanos() <= TONE_HISTORY.nanos());
/// How long an unused ABT permission is kept.
const ABT_DUE_RETAIN_NS: u64 = 200_000;
/// How long a received MRTS can govern a data frame / ABT reply.
const MRTS_TTL_NS: u64 = 100_000_000;
/// BMMM response governance window (loose on purpose: the invariant is
/// *who* may respond, not exact SIFS timing).
const RESP_WINDOW_NS: u64 = 50_000_000;

/// An MRTS received cleanly at a node that named it.
#[derive(Clone, Copy, Debug)]
struct MrtsGrant {
    sender: NodeId,
    slot: usize,
    rx_end_ns: u64,
}

#[derive(Clone, Debug, Default)]
struct NodeState {
    /// Own tone emissions in progress ([Rbt, Abt]), by start time.
    emitting: [Option<u64>; 2],
    /// Transmission in flight: (start, kind, expected airtime ns).
    cur_tx: Option<(u64, FrameKind, u64)>,
    /// Most recent completed transmission interval.
    last_tx: Option<(u64, u64)>,
    /// MRTSes that named this node (latest per sender).
    mrts: Vec<MrtsGrant>,
    /// Outstanding ABT permissions: tone-raise due times granted by a
    /// cleanly received data frame from an MRTS that named this node.
    abt_due: Vec<u64>,
    /// BMMM: end time of the last clean RTS / RAK addressed to this node.
    resp_permit: [Option<u64>; 2],
    /// BMMM: end time of this node's last completed reliable-data tx.
    last_data_tx_end: Option<u64>,
}

/// The streaming checker. See the module docs for the event contract.
pub struct Checker {
    cfg: CheckConfig,
    nodes: Vec<NodeState>,
    report: CheckReport,
}

/// The checker's fold of the stream, fed each event *before* the node's MAC
/// reacts to it. What it lives on: a protocol node's transmission starts
/// (with the RBT it sensed over the last [`C1_WINDOW`], asked of the
/// backend) and completions, its own tone raises and lowerings, the frames
/// it receives clean, and its crashes. Jammers are environment — they have
/// no `tx_start` or `tone_emit` — and the tone flips a node is told of
/// depend on what its MAC asked for, so neither is followed here.
impl Reader for Checker {
    fn on_event(&mut self, ev: &TraceEvent<&Arc<Frame>>, sensed: &mut Sensing<'_>) {
        let (t, node) = (ev.t, ev.node);
        match &ev.what {
            TraceWhat::TxStart { frame } => {
                let rbt = sensed(node, C1_WINDOW);
                self.tx_start(t, node, frame.as_ref(), &rbt);
            }
            TraceWhat::TxDone { frame, aborted } => self.tx_done(t, node, frame.as_ref(), *aborted),
            TraceWhat::Rx { frame, ok: true } => {
                let frame = frame.as_ref();
                self.report.rx_ok_checked += 1;
                self.check_half_duplex(t, node, frame);
                match self.cfg.class {
                    ProtocolClass::Rmac => self.track_rmac_rx(t.nanos(), node, frame),
                    ProtocolClass::Bmmm => self.track_bmmm_rx(t.nanos(), node, frame),
                    ProtocolClass::Other => {}
                }
            }
            TraceWhat::ToneEmit { tone, on } => self.tone_emit(t, node, *tone, *on),
            TraceWhat::Fault(FaultKind::Crash) => self.node_down(node),
            _ => {}
        }
    }
}

impl Checker {
    /// A fresh checker for one replication.
    pub fn new(cfg: CheckConfig) -> Checker {
        Checker {
            nodes: vec![NodeState::default(); cfg.nodes],
            cfg,
            report: CheckReport::default(),
        }
    }

    fn violate(&mut self, inv: Invariant, t: SimTime, node: NodeId, detail: String) {
        if self.report.violations.len() >= MAX_VIOLATIONS {
            self.report.truncated = true;
            return;
        }
        self.report.violations.push(Violation {
            invariant: inv,
            t,
            node,
            detail,
        });
    }

    /// A C2 (governed response) breach.
    fn c2(&mut self, t: SimTime, node: NodeId, detail: impl Into<String>) {
        self.violate(Invariant::C2GovernedResponse, t, node, detail.into());
    }

    /// Is this a protocol node (not a jammer slot)?
    fn is_protocol(&self, node: NodeId) -> bool {
        node.idx() < self.cfg.nodes
    }

    fn tx_start(&mut self, t: SimTime, node: NodeId, frame: &Frame, rbt: &ToneLog) {
        debug_assert!(self.is_protocol(node), "jammer frames are environment");
        self.report.tx_checked += 1;
        let now = t.nanos();
        let kind = frame.kind;

        // C2 — frame alphabet: each protocol only ever emits its own
        // frame kinds (RMAC replaced the 802.11 control plane with tones).
        let in_alphabet = match self.cfg.class {
            ProtocolClass::Rmac => matches!(
                kind,
                FrameKind::Mrts | FrameKind::DataReliable | FrameKind::DataUnreliable
            ),
            ProtocolClass::Bmmm => {
                !matches!(kind, FrameKind::Mrts | FrameKind::Ncts | FrameKind::Nak)
            }
            ProtocolClass::Other => true,
        };
        if !in_alphabet {
            self.c2(
                t,
                node,
                format!("{kind:?} is outside the protocol's frame alphabet"),
            );
        }

        match self.cfg.class {
            ProtocolClass::Rmac => self.check_rmac_tx(t, node, frame, rbt),
            ProtocolClass::Bmmm => self.check_bmmm_tx(t, node, frame),
            ProtocolClass::Other => {}
        }

        // C3 bookkeeping — and a missed TxDone is itself an accounting
        // breach (the channel owes every started tx a completion).
        let ns = &mut self.nodes[node.idx()];
        if let Some((s, k, _)) = ns.cur_tx.replace((now, kind, frame.airtime().nanos())) {
            let detail =
                format!("tx of {kind:?} starts but the {k:?} started at {s} ns never completed");
            self.violate(Invariant::C3Airtime, t, node, detail);
        }
    }

    /// C1 plus the RMAC side of C2 at a transmission start.
    fn check_rmac_tx(&mut self, t: SimTime, node: NodeId, frame: &Frame, rbt: &ToneLog) {
        let (kind, dwell) = (frame.kind, rbt.max_on().nanos());
        let breach = match kind {
            // C1a — carrier/tone discipline: MRTS and unreliable data only
            // start on a clear RBT channel (Table 1's "channels idle").
            FrameKind::Mrts | FrameKind::DataUnreliable if rbt.on_at_end() => {
                let since = rbt
                    .edges
                    .last()
                    .map_or(rbt.start, |&(rise, _)| rise)
                    .nanos();
                let emitters = self.rbt_emitters(frame);
                format!("{kind:?} tx starts against an RBT sensed since {since} ns ({emitters})")
            }
            // C1b — data justification: reliable data is transmitted only
            // after a ≥ λ continuous RBT detection inside the WF_RBT
            // window that just closed (§3.3.2 step 4 / Table 1 C18).
            FrameKind::DataReliable if dwell < LAMBDA.nanos() => format!(
                "reliable DATA tx without RBT detection: max dwell {dwell} ns < λ = {} ns \
                 in the preceding {} ns",
                LAMBDA.nanos(),
                C1_WINDOW.nanos()
            ),
            _ => return,
        };
        self.violate(Invariant::C1RbtProtection, t, node, breach);
    }

    /// Attribution string for a C1a breach: which protocol nodes are
    /// currently asserting an RBT, and whether the frame addresses them.
    /// (A sensed tone is in range by definition of tone audibility; jam
    /// tones have no protocol emitter and show up as "environment".)
    fn rbt_emitters(&self, frame: &Frame) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, ns) in self.nodes.iter().enumerate() {
            if ns.emitting[0].is_some() {
                let id = NodeId(i as u16);
                parts.push(if frame.addressed_to(id) {
                    format!("n{i} (addressed)")
                } else {
                    format!("n{i} (non-addressed)")
                });
            }
        }
        if parts.is_empty() {
            "emitters: environment only".to_string()
        } else {
            format!("emitters: {}", parts.join(", "))
        }
    }

    /// The BMMM side of C2: responses only from nodes the governing
    /// request named, and RAKs only from the round's data sender.
    fn check_bmmm_tx(&mut self, t: SimTime, node: NodeId, frame: &Frame) {
        let now = t.nanos();
        let ns = &self.nodes[node.idx()];
        let recent = |end: Option<u64>| end.is_some_and(|e| now >= e && now - e <= RESP_WINDOW_NS);
        let (permit, breach) = match frame.kind {
            FrameKind::Cts => (
                ns.resp_permit[0],
                "CTS without a recent RTS naming this node",
            ),
            FrameKind::Ack => (
                ns.resp_permit[1],
                "ACK without a recent RAK naming this node",
            ),
            FrameKind::Rak => (
                ns.last_data_tx_end,
                "RAK from a node that did not just send reliable data",
            ),
            _ => return,
        };
        if !recent(permit) {
            self.c2(t, node, breach);
        }
    }

    /// A protocol node raises or lowers its own busy tone.
    fn tone_emit(&mut self, t: SimTime, node: NodeId, tone: Tone, on: bool) {
        debug_assert!(self.is_protocol(node), "jammer tones are environment");
        let (now, rmac) = (t.nanos(), self.cfg.class == ProtocolClass::Rmac);
        let ns = &mut self.nodes[node.idx()];
        if !on {
            // C2 — the ABT burst is exactly one L_ABT slot long.
            let held = ns.emitting[tone.idx()].take().map(|since| now - since);
            let want = L_ABT.nanos();
            match held.filter(|_| rmac && tone == Tone::Abt) {
                Some(held) if held.abs_diff(want) > TOL_NS => {
                    self.c2(t, node, format!("ABT held {held} ns, expected {want} ns"));
                }
                _ => {}
            }
            return;
        }
        self.report.tone_emissions += 1;
        ns.emitting[tone.idx()] = Some(now);
        let (governed, breach) = match tone {
            // C2 — an RBT answers an MRTS that named this node, raised
            // immediately on reception (§3.3.2 step 2).
            Tone::Rbt => {
                let fresh = |g: &MrtsGrant| now >= g.rx_end_ns && now - g.rx_end_ns <= TOL_NS;
                let breach = "RBT raised with no just-received MRTS naming this node";
                (ns.mrts.iter().any(fresh), breach)
            }
            // C2 — an ABT may only occupy the slot granted by the governing
            // MRTS, counted from the data frame's end (§3.3.2 step 5).
            Tone::Abt => {
                let due = ns.abt_due.iter().position(|&d| now.abs_diff(d) <= TOL_NS);
                let breach = "ABT raised outside any slot granted by a received MRTS+DATA";
                (due.map(|i| ns.abt_due.swap_remove(i)).is_some(), breach)
            }
        };
        if rmac && !governed {
            self.c2(t, node, breach);
        }
    }

    /// C3 — a transmission's on-air duration matches the wire math exactly;
    /// an abort must cut the frame short.
    fn tx_done(&mut self, t: SimTime, node: NodeId, frame: &Frame, aborted: bool) {
        let now = t.nanos();
        let Some((s, _, airtime)) = self.nodes[node.idx()].cur_tx.take() else {
            let detail = format!("{:?} completion with no tracked start", frame.kind);
            return self.violate(Invariant::C3Airtime, t, node, detail);
        };
        let (held, kind) = (now - s, frame.kind);
        let breach = if !aborted && held != airtime {
            Some(format!(
                "{kind:?} occupied the channel {held} ns, air-time math says {airtime} ns"
            ))
        } else if aborted && held >= airtime {
            Some(format!(
                "aborted {kind:?} still occupied {held} ns ≥ full air time {airtime} ns"
            ))
        } else {
            None
        };
        if let Some(detail) = breach {
            self.violate(Invariant::C3Airtime, t, node, detail);
        }
        let ns = &mut self.nodes[node.idx()];
        ns.last_tx = Some((s, now));
        let data = frame.kind == FrameKind::DataReliable && !aborted;
        if self.cfg.class == ProtocolClass::Bmmm && data {
            ns.last_data_tx_end = Some(now);
        }
    }

    /// C5 — a clean reception's arrival interval must not overlap any own
    /// transmission (the radio is half-duplex on the data channel).
    fn check_half_duplex(&mut self, t: SimTime, node: NodeId, frame: &Frame) {
        let now = t.nanos();
        let arrive_start = now.saturating_sub(frame.airtime().nanos());
        let ns = &self.nodes[node.idx()];
        if let Some((s, k, _)) = ns.cur_tx {
            if s < now {
                self.violate(
                    Invariant::C5HalfDuplex,
                    t,
                    node,
                    format!(
                        "clean rx of {:?} from n{} while transmitting {k:?} (since {s} ns)",
                        frame.kind, frame.src.0
                    ),
                );
                return;
            }
        }
        if let Some((s, e)) = ns.last_tx {
            if e > arrive_start && s < now {
                self.violate(
                    Invariant::C5HalfDuplex,
                    t,
                    node,
                    format!(
                        "clean rx of {:?} from n{} overlaps own tx [{s}, {e}] ns \
                         (arrival began {arrive_start} ns)",
                        frame.kind, frame.src.0
                    ),
                );
            }
        }
    }

    /// Track the MRTS→DATA→ABT grant chain at a receiver.
    fn track_rmac_rx(&mut self, now: u64, node: NodeId, frame: &Frame) {
        let ns = &mut self.nodes[node.idx()];
        match frame.kind {
            FrameKind::Mrts => {
                if let Some(slot) = frame.mrts_slot_of(node) {
                    ns.mrts
                        .retain(|g| g.sender != frame.src && now - g.rx_end_ns <= MRTS_TTL_NS);
                    ns.mrts.push(MrtsGrant {
                        sender: frame.src,
                        slot,
                        rx_end_ns: now,
                    });
                }
            }
            FrameKind::DataReliable if frame.addressed_to(node) => {
                if let Some(g) = ns.mrts.iter().find(|g| g.sender == frame.src) {
                    ns.abt_due.push(now + L_ABT.nanos() * g.slot as u64);
                }
                ns.abt_due.retain(|&d| d + ABT_DUE_RETAIN_NS > now);
            }
            _ => {}
        }
    }

    /// Track who BMMM's RTS/RAK requests authorize to respond.
    fn track_bmmm_rx(&mut self, now: u64, node: NodeId, frame: &Frame) {
        if !frame.addressed_to(node) {
            return;
        }
        let ns = &mut self.nodes[node.idx()];
        match frame.kind {
            FrameKind::Rts => ns.resp_permit[0] = Some(now),
            FrameKind::Rak => ns.resp_permit[1] = Some(now),
            _ => {}
        }
    }

    /// A node crashed: its radio is silenced by the engine (tones
    /// dropped, tx aborted) and its indications stop — the crash, not the
    /// protocol, cut short whatever was in flight — so the per-node
    /// protocol state is wiped.
    fn node_down(&mut self, node: NodeId) {
        let ns = &mut self.nodes[node.idx()];
        ns.cur_tx = None;
        ns.emitting = [None; 2];
        ns.mrts.clear();
        ns.abt_due.clear();
        ns.resp_permit = [None; 2];
        ns.last_data_tx_end = None;
    }

    /// C4 — validate one node's end-of-run transition matrix (row-major
    /// `from × STATES + to`, as produced by the MAC's transition counter).
    pub fn check_transitions(&mut self, node: NodeId, labels: &[&str], matrix: &[u64]) {
        if labels != EXPECTED_LABELS || matrix.len() != STATES * STATES {
            return;
        }
        self.report.transition_nodes += 1;
        for from in 0..STATES {
            for to in 0..STATES {
                let count = matrix[from * STATES + to];
                if count > 0 && !is_legal(from, to) {
                    self.violate(
                        Invariant::C4LegalTransition,
                        SimTime::ZERO,
                        node,
                        format!(
                            "{} illegal transition(s) {} → {}",
                            count, labels[from], labels[to]
                        ),
                    );
                }
            }
        }
    }

    /// Close out the run and produce the report. Emissions and
    /// transmissions still open at `_t` are cut short by the end of the
    /// simulation, not by the protocol — they are not judged.
    pub fn finish(self, _t: SimTime) -> CheckReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rmac_wire::Dest;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    fn checker(class: ProtocolClass) -> Checker {
        Checker::new(CheckConfig::new(4, class))
    }

    fn mrts() -> Frame {
        Frame::mrts(NodeId(0), vec![NodeId(1), NodeId(2)])
    }

    fn data() -> Frame {
        Frame::data_reliable(
            NodeId(0),
            Dest::Group(vec![NodeId(1), NodeId(2)]),
            Bytes::from_static(&[0u8; 50]),
            1,
        )
    }

    /// An event as the engine's live stream carries it, its frame borrowed
    /// (from a handle the test leaks).
    type Live = TraceEvent<&'static Arc<Frame>>;

    fn at(t: SimTime, node: u16, what: TraceWhat<&'static Arc<Frame>>) -> Live {
        TraceEvent {
            t,
            node: NodeId(node),
            what,
        }
    }

    fn live(frame: &Frame) -> &'static Arc<Frame> {
        Box::leak(Box::new(Arc::new(frame.clone())))
    }

    fn tx_start(t: SimTime, node: u16, frame: &Frame) -> Live {
        let frame = live(frame);
        at(t, node, TraceWhat::TxStart { frame })
    }

    fn tx_done(t: SimTime, node: u16, frame: &Frame, aborted: bool) -> Live {
        let frame = live(frame);
        at(t, node, TraceWhat::TxDone { frame, aborted })
    }

    fn rx(t: SimTime, node: u16, frame: &Frame) -> Live {
        let frame = live(frame);
        at(t, node, TraceWhat::Rx { frame, ok: true })
    }

    fn tone(t: SimTime, node: u16, tone: Tone, on: bool) -> Live {
        at(t, node, TraceWhat::ToneEmit { tone, on })
    }

    /// The backend of an event no reader asks about.
    fn unasked(node: NodeId, _: SimTime) -> ToneLog {
        panic!("only a tx_start asks for n{}'s RBT", node.0)
    }

    /// The RBT as sensed over the C1 window before a transmission start at
    /// `t` µs, as the backend answers a `tx_start`: silent but for the
    /// `(rise, fall)` intervals given in µs (a fall at `t` or later is still
    /// to come).
    fn rbt(t: u64, on: &[(u64, u64)]) -> impl FnMut(NodeId, SimTime) -> ToneLog {
        let end = us(t);
        let start = end.saturating_sub(C1_WINDOW);
        let mut log = ToneLog {
            start,
            end,
            initial_on: false,
            edges: Vec::new(),
        };
        for &(rise, fall) in on {
            if us(rise) <= start {
                log.initial_on = true;
            } else {
                log.edges.push((us(rise), true));
            }
            if fall < t {
                log.edges.push((us(fall), false));
            }
        }
        move |_, over| {
            assert_eq!(over, C1_WINDOW);
            log.clone()
        }
    }

    #[test]
    fn clean_exchange_passes_every_checker() {
        let mut c = checker(ProtocolClass::Rmac);
        let m = mrts();
        // MRTS goes out on a silent RBT channel…
        c.on_event(&tx_start(us(100), 0, &m), &mut rbt(100, &[]));
        c.on_event(&tx_done(us(292), 0, &m, false), &mut unasked);
        // …receivers hear it and answer with the RBT…
        c.on_event(&rx(us(292), 1, &m), &mut unasked);
        c.on_event(&tone(us(292), 1, Tone::Rbt, true), &mut unasked);
        // …the sender detects ≥ λ of tone across its T_WF window and
        // transmits the data frame.
        let d = data();
        c.on_event(&tx_start(us(310), 0, &d), &mut rbt(310, &[(293, 9999)]));
        let report = c.finish(us(1000));
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.tx_checked, 2);
    }

    #[test]
    fn c1_flags_data_without_rbt_detection() {
        let mut c = checker(ProtocolClass::Rmac);
        // No tone ever sensed: a conformant sender would have failed the
        // attempt (Table 1 C12); transmitting anyway is the mutation.
        c.on_event(&tx_start(us(300), 0, &data()), &mut rbt(300, &[]));
        // So is transmitting on a dwell shorter than λ.
        c.on_event(&tx_start(us(400), 1, &data()), &mut rbt(400, &[(380, 390)]));
        let report = c.finish(us(1000));
        assert_eq!(report.count(Invariant::C1RbtProtection), 2);
    }

    #[test]
    fn c1_flags_mrts_against_sensed_rbt() {
        let mut c = checker(ProtocolClass::Rmac);
        c.on_event(
            &tx_start(us(120), 0, &mrts()),
            &mut rbt(120, &[(110, 9999)]),
        );
        let report = c.finish(us(1000));
        assert_eq!(report.count(Invariant::C1RbtProtection), 1);
        assert!(report.violations[0].detail.contains("Mrts"));
        assert!(report.violations[0].detail.contains("since 110000 ns"));
    }

    #[test]
    fn c1_accepts_mrts_after_tone_clears() {
        let mut c = checker(ProtocolClass::Rmac);
        c.on_event(&tx_start(us(140), 0, &mrts()), &mut rbt(140, &[(100, 130)]));
        assert!(c.finish(us(1000)).is_clean());
    }

    #[test]
    fn c2_flags_ungoverned_rbt_and_abt() {
        let mut c = checker(ProtocolClass::Rmac);
        c.on_event(&tone(us(100), 1, Tone::Rbt, true), &mut unasked);
        c.on_event(&tone(us(200), 2, Tone::Abt, true), &mut unasked);
        let report = c.finish(us(1000));
        assert_eq!(report.count(Invariant::C2GovernedResponse), 2);
    }

    #[test]
    fn c2_accepts_the_granted_abt_slot() {
        let mut c = checker(ProtocolClass::Rmac);
        let m = mrts();
        c.on_event(&rx(us(100), 2, &m), &mut unasked); // n2 is slot 1
        c.on_event(&tone(us(100), 2, Tone::Rbt, true), &mut unasked);
        c.on_event(&rx(us(500), 2, &data()), &mut unasked);
        c.on_event(&tone(us(400), 2, Tone::Rbt, false), &mut unasked);
        // Slot 1 opens L_ABT after the data frame's end.
        let due = us(500 + 17);
        c.on_event(&tone(due, 2, Tone::Abt, true), &mut unasked);
        c.on_event(&tone(due + L_ABT, 2, Tone::Abt, false), &mut unasked);
        let report = c.finish(us(1000));
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn c2_flags_abt_in_the_wrong_slot() {
        let mut c = checker(ProtocolClass::Rmac);
        let m = mrts();
        c.on_event(&rx(us(100), 2, &m), &mut unasked); // granted slot 1 (17 µs)
        c.on_event(&tone(us(100), 2, Tone::Rbt, true), &mut unasked);
        c.on_event(&rx(us(500), 2, &data()), &mut unasked);
        c.on_event(&tone(us(500), 2, Tone::Abt, true), &mut unasked); // slot 0 is n1's
        let report = c.finish(us(1000));
        assert_eq!(report.count(Invariant::C2GovernedResponse), 1);
    }

    #[test]
    fn c2_flags_foreign_frame_kinds() {
        let mut c = checker(ProtocolClass::Rmac);
        let ack = Frame::control(FrameKind::Ack, NodeId(1), NodeId(0), SimTime::ZERO);
        c.on_event(&tx_start(us(100), 1, &ack), &mut rbt(100, &[]));
        let report = c.finish(us(1000));
        // Outside RMAC's alphabet (C2); half-duplex/airtime untouched.
        assert_eq!(report.count(Invariant::C2GovernedResponse), 1);
    }

    #[test]
    fn c3_flags_wrong_airtime() {
        let mut c = checker(ProtocolClass::Rmac);
        let m = mrts();
        c.on_event(&tx_start(us(100), 0, &m), &mut rbt(100, &[]));
        // MRTS with 2 receivers = 24 bytes → 96 + 4·24 = 192 µs, but the
        // completion arrives 10 µs late.
        c.on_event(&tx_done(us(302), 0, &m, false), &mut unasked);
        let report = c.finish(us(1000));
        assert_eq!(report.count(Invariant::C3Airtime), 1);
    }

    #[test]
    fn c3_accepts_exact_airtime_and_short_aborts() {
        let mut c = checker(ProtocolClass::Rmac);
        let m = mrts();
        let air = m.airtime();
        c.on_event(&tx_start(us(100), 0, &m), &mut rbt(100, &[]));
        c.on_event(&tx_done(us(100) + air, 0, &m, false), &mut unasked);
        c.on_event(&tx_start(us(1000), 0, &m), &mut rbt(1000, &[]));
        c.on_event(&tx_done(us(1040), 0, &m, true), &mut unasked);
        assert!(c.finish(us(2000)).is_clean());
    }

    #[test]
    fn c5_flags_reception_overlapping_own_tx() {
        let mut c = checker(ProtocolClass::Rmac);
        let m = mrts();
        c.on_event(&tx_start(us(100), 0, &m), &mut rbt(100, &[]));
        // A clean reception lands mid-transmission: impossible on a
        // half-duplex radio.
        c.on_event(&rx(us(200), 0, &m), &mut unasked);
        let report = c.finish(us(1000));
        assert_eq!(report.count(Invariant::C5HalfDuplex), 1);
    }

    #[test]
    fn c5_accepts_reception_after_tx_ends() {
        let mut c = checker(ProtocolClass::Rmac);
        let m = mrts();
        let air = m.airtime();
        c.on_event(&tx_start(us(100), 0, &m), &mut rbt(100, &[]));
        c.on_event(&tx_done(us(100) + air, 0, &m, false), &mut unasked);
        // Arrival strictly after the tx interval.
        c.on_event(
            &rx(us(100) + air + air + SimTime::from_micros(5), 0, &m),
            &mut unasked,
        );
        assert!(c.finish(us(5000)).is_clean());
    }

    #[test]
    fn c4_flags_illegal_edges_only() {
        let mut c = checker(ProtocolClass::Rmac);
        let labels = EXPECTED_LABELS;
        let mut matrix = vec![0u64; STATES * STATES];
        matrix[2 * STATES + 3] = 5; // TX_MRTS → WF_RBT: legal
        c.check_transitions(NodeId(0), &labels, &matrix);
        matrix[STATES * 6 + 4] = 1; // WF_RDATA → TX_RDATA: illegal
        c.check_transitions(NodeId(1), &labels, &matrix);
        let report = c.finish(us(0));
        assert_eq!(report.transition_nodes, 2);
        assert_eq!(report.count(Invariant::C4LegalTransition), 1);
        assert!(report.violations[0].detail.contains("WF_RDATA"));
    }

    #[test]
    fn bmmm_responses_are_governed() {
        let mut c = checker(ProtocolClass::Bmmm);
        let rts = Frame::control(FrameKind::Rts, NodeId(0), NodeId(1), SimTime::ZERO);
        let cts = Frame::control(FrameKind::Cts, NodeId(1), NodeId(0), SimTime::ZERO);
        // Ungoverned CTS first…
        c.on_event(&tx_start(us(50), 2, &cts), &mut rbt(50, &[]));
        // …then a proper RTS → CTS handshake.
        c.on_event(&rx(us(100), 1, &rts), &mut unasked);
        c.on_event(&tx_start(us(110), 1, &cts), &mut rbt(110, &[]));
        let report = c.finish(us(1000));
        assert_eq!(report.count(Invariant::C2GovernedResponse), 1);
    }

    #[test]
    fn violation_cap_truncates() {
        let mut c = checker(ProtocolClass::Rmac);
        // Every ungoverned RBT rise is a violation: one more than are stored.
        for i in 0..=MAX_VIOLATIONS as u64 {
            c.on_event(&tone(us(10 + 20 * i), 0, Tone::Rbt, true), &mut unasked);
            c.on_event(&tone(us(20 + 20 * i), 0, Tone::Rbt, false), &mut unasked);
        }
        let report = c.finish(us(100_000));
        assert_eq!(report.violations.len(), MAX_VIOLATIONS);
        assert!(report.truncated);
        assert!(!report.is_clean());
    }
}
