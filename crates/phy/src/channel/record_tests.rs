//! The tone records against the loop they replaced.
//!
//! [`Eager`] is that loop, kept literally: one `ToneEdge` event per receiver
//! per edge, a presence counter stepped by each, a watch that appends the
//! flips it is fed. The proptest runs one random script — emissions of
//! every length from nothing to hundreds of microseconds, on and off a 1 µs
//! grid, over fixed and moving layouts, with probes and interest changes
//! placed in the very instant an edge lands — through the reference and
//! through the channel, and asks for the same answers.

use proptest::prelude::*;
use rmac_mobility::{Motion, Pos};
use rmac_sim::{CalendarQueue, Cursor, EventQueue, SimQueue, SimRng, SimTime};
use rmac_wire::NodeId;

use super::{Channel, ChannelConfig, TONE_HISTORY};
use crate::event::{Indication, PhyEvent};
use crate::tone::{Tone, ToneInterest, ToneLog};

#[derive(Clone, Debug)]
enum Ev {
    Phy(PhyEvent),
    Step(usize),
}

impl From<PhyEvent> for Ev {
    fn from(pe: PhyEvent) -> Ev {
        Ev::Phy(pe)
    }
}

/// Something a script does at one node in one instant.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Raise `tone`; lower it `hold` later. `echo` aims a second step at one
    /// receiver of each edge.
    Start {
        tone: Tone,
        hold: SimTime,
        echo: Option<Echo>,
    },
    Stop {
        tone: Tone,
        echo: Option<Echo>,
    },
    /// Read presence and the last 30 µs of flips.
    Probe(Tone),
    Open(Tone),
    Close(Tone),
    Listen(ToneInterest),
}

/// A step aimed at the `pick`-th receiver of an edge, `lead` before the
/// edge lands there (0: in the landing instant; more: mid-flight), pushed
/// before or after the edge itself is.
#[derive(Clone, Copy, Debug)]
struct Echo {
    pick: usize,
    lead: SimTime,
    first: bool,
    what: EchoStep,
}

#[derive(Clone, Copy, Debug)]
enum EchoStep {
    Probe,
    Listen(ToneInterest),
}

/// What a run of a script answered, in dispatch order.
#[derive(Debug, Default, PartialEq)]
struct Answers {
    /// `(step, present, recent flips)` per probe.
    probes: Vec<(usize, bool, ToneLog)>,
    /// `(step, log)` per closed watch.
    logs: Vec<(usize, ToneLog)>,
    /// `(time, node, tone, present)` per flip dispatched, and whether it was
    /// owed: the node had declared interest in it before that instant.
    told: Vec<((SimTime, NodeId, Tone, bool), bool)>,
    /// Busy time per node per tone at the end of the script.
    busy_ns: Vec<[u64; 2]>,
}

const PROBE_REACH: SimTime = SimTime::from_micros(30);

/// The operations a script is made of, as the reference and the channel
/// each offer them.
trait Tones {
    fn start(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId, tone: Tone);
    fn stop(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId, tone: Tone);
    fn listen(&mut self, q: &mut impl SimQueue<Ev>, node: NodeId, want: ToneInterest);
    fn present(&self, node: NodeId, tone: Tone, at: Cursor) -> bool;
    fn recent(&self, node: NodeId, tone: Tone, at: Cursor) -> ToneLog;
    fn open(&mut self, node: NodeId, tone: Tone, at: Cursor);
    /// `None` if no watch is open.
    fn close(&mut self, node: NodeId, tone: Tone, at: Cursor) -> Option<ToneLog>;
    /// The flip a dispatched edge amounts to, if any.
    fn edge(&mut self, now: SimTime, ev: &PhyEvent) -> Option<(NodeId, Tone, bool)>;
    fn busy_ns(&self, node: NodeId, tone: Tone, upto: SimTime) -> u64;
}

impl Tones for Channel {
    fn start(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId, tone: Tone) {
        self.start_tone(q, src, tone);
    }
    fn stop(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId, tone: Tone) {
        self.stop_tone(q, src, tone);
    }
    fn listen(&mut self, q: &mut impl SimQueue<Ev>, node: NodeId, want: ToneInterest) {
        Channel::listen(self, q, node, want);
    }
    fn present(&self, node: NodeId, tone: Tone, at: Cursor) -> bool {
        self.tone_present(node, tone, at)
    }
    fn recent(&self, node: NodeId, tone: Tone, at: Cursor) -> ToneLog {
        let from = Cursor::end_of(at.time.saturating_sub(PROBE_REACH));
        self.tone_log(node, tone, from, at)
    }
    fn open(&mut self, node: NodeId, tone: Tone, at: Cursor) {
        self.open_watch(node, tone, at);
    }
    fn close(&mut self, node: NodeId, tone: Tone, at: Cursor) -> Option<ToneLog> {
        self.radios[node.idx()].watch[tone.idx()]?;
        Some(self.close_watch(node, tone, at))
    }
    fn edge(&mut self, now: SimTime, ev: &PhyEvent) -> Option<(NodeId, Tone, bool)> {
        let mut out = Vec::new();
        self.handle(now, &mut SimRng::new(0), ev, &mut out);
        out.pop().map(|ind| match ind {
            Indication::ToneChanged {
                node,
                tone,
                present,
            } => (node, tone, present),
            other => panic!("a tone edge indicated {other:?}"),
        })
    }
    fn busy_ns(&self, node: NodeId, tone: Tone, upto: SimTime) -> u64 {
        self.tone_busy_ns(node, tone, upto)
    }
}

/// An emission in progress: its id and who hears it, how late.
type Emitting = (u64, Vec<(NodeId, SimTime)>);

/// The eager loop: every receiver is sent every edge, and presence is a
/// counter the edges step.
struct Eager {
    /// Asked only who hears an emission, and how late.
    geometry: Channel,
    count: Vec<[u32; 2]>,
    emitting: Vec<[Option<Emitting>; 2]>,
    /// Open watches: `(start, initial_on, flips so far)`.
    watch: Vec<[Option<ToneLog>; 2]>,
    /// Every flip so far, per node per tone.
    flips: Vec<[Vec<(SimTime, bool)>; 2]>,
    next_emit: u64,
}

impl Eager {
    fn new(geometry: Channel) -> Eager {
        let n = geometry.radios.len();
        Eager {
            geometry,
            count: vec![[0; 2]; n],
            emitting: (0..n).map(|_| [None, None]).collect(),
            watch: (0..n).map(|_| [None, None]).collect(),
            flips: (0..n).map(|_| Default::default()).collect(),
            next_emit: 0,
        }
    }
}

impl Tones for Eager {
    fn start(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId, tone: Tone) {
        if self.emitting[src.idx()][tone.idx()].is_some() {
            return;
        }
        let now = q.now();
        let emit = self.next_emit;
        self.next_emit += 1;
        let receivers = receivers_of(&mut self.geometry, src, now);
        for &(rx, prop) in &receivers {
            let on = true;
            q.push(now + prop, PhyEvent::ToneEdge { rx, tone, on, emit }.into());
        }
        self.emitting[src.idx()][tone.idx()] = Some((emit, receivers));
    }

    fn stop(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId, tone: Tone) {
        let Some((emit, receivers)) = self.emitting[src.idx()][tone.idx()].take() else {
            return;
        };
        let now = q.now();
        for (rx, prop) in receivers {
            let on = false;
            q.push(now + prop, PhyEvent::ToneEdge { rx, tone, on, emit }.into());
        }
    }

    fn listen(&mut self, _: &mut impl SimQueue<Ev>, _: NodeId, _: ToneInterest) {}

    fn present(&self, node: NodeId, tone: Tone, _: Cursor) -> bool {
        self.count[node.idx()][tone.idx()] > 0
    }

    fn recent(&self, node: NodeId, tone: Tone, at: Cursor) -> ToneLog {
        let start = at.time.saturating_sub(PROBE_REACH);
        let flips = &self.flips[node.idx()][tone.idx()];
        let before = flips.iter().take_while(|&&(t, _)| t <= start).count();
        ToneLog {
            start,
            end: at.time,
            initial_on: before.checked_sub(1).is_some_and(|i| flips[i].1),
            edges: flips[before..].to_vec(),
        }
    }

    fn open(&mut self, node: NodeId, tone: Tone, at: Cursor) {
        self.watch[node.idx()][tone.idx()] = Some(ToneLog {
            start: at.time,
            end: SimTime::MAX,
            initial_on: self.present(node, tone, at),
            edges: Vec::new(),
        });
    }

    fn close(&mut self, node: NodeId, tone: Tone, at: Cursor) -> Option<ToneLog> {
        let mut log = self.watch[node.idx()][tone.idx()].take()?;
        log.end = at.time;
        Some(log)
    }

    fn edge(&mut self, now: SimTime, ev: &PhyEvent) -> Option<(NodeId, Tone, bool)> {
        let &PhyEvent::ToneEdge { rx, tone, on, .. } = ev else {
            panic!("the reference schedules tone edges only");
        };
        let count = &mut self.count[rx.idx()][tone.idx()];
        let was_present = *count > 0;
        if on {
            *count += 1;
        } else {
            *count -= 1;
        }
        let present = *count > 0;
        if present == was_present {
            return None;
        }
        if let Some(w) = &mut self.watch[rx.idx()][tone.idx()] {
            w.edges.push((now, present));
        }
        self.flips[rx.idx()][tone.idx()].push((now, present));
        Some((rx, tone, present))
    }

    fn busy_ns(&self, node: NodeId, tone: Tone, upto: SimTime) -> u64 {
        let mut busy = 0;
        let mut since = None;
        for &(t, on) in &self.flips[node.idx()][tone.idx()] {
            if on {
                since = Some(t);
            } else if let Some(rise) = since.take() {
                busy += (t - rise).nanos();
            }
        }
        busy + since.map_or(0, |rise| upto.saturating_sub(rise).nanos())
    }
}

fn receivers_of(ch: &mut Channel, src: NodeId, now: SimTime) -> Vec<(NodeId, SimTime)> {
    let mut links = Vec::new();
    ch.fill_receivers(src, now, &mut links);
    links.iter().map(|l| (l.rx, l.prop())).collect()
}

const EVERYTHING: [ToneInterest; 4] = [
    ToneInterest::flip(Tone::Rbt, true),
    ToneInterest::flip(Tone::Rbt, false),
    ToneInterest::flip(Tone::Abt, true),
    ToneInterest::flip(Tone::Abt, false),
];

fn everything() -> ToneInterest {
    EVERYTHING
        .into_iter()
        .fold(ToneInterest::NONE, |a, b| a | b)
}

/// One random script over one random layout. Nodes 0 and 1 listen for
/// everything throughout; the last node is a jammer slot — it emits and is
/// never asked anything; the rest change their minds as they go.
struct Script {
    motions: Vec<Motion>,
    steps: Vec<(SimTime, NodeId, Step)>,
    end: SimTime,
}

fn script(seed: u64) -> Script {
    let mut rng = SimRng::new(seed);
    let n = rng.range_inclusive(4, 8) as usize;
    let moving = rng.chance(0.5);
    let place =
        |rng: &mut SimRng| Pos::new(rng.uniform_f64(0.0, 110.0), rng.uniform_f64(0.0, 110.0));
    let motions = (0..n)
        .map(|_| {
            let from = place(&mut rng);
            if moving && rng.chance(0.5) {
                // 20–60 km/s: a node crosses a radio range inside the few
                // milliseconds a script lasts.
                let speed = rng.uniform_f64(2e4, 6e4);
                Motion::linear(from, place(&mut rng), SimTime::ZERO, speed)
            } else {
                Motion::stationary(from)
            }
        })
        .collect();
    let any_tone = |rng: &mut SimRng| Tone::ALL[rng.below(2) as usize];
    let some_interest = |rng: &mut SimRng| {
        EVERYTHING
            .into_iter()
            .filter(|_| rng.chance(0.5))
            .fold(ToneInterest::NONE, |a, b| a | b)
    };
    let span_us = rng.range_inclusive(300, 3000);
    let mut steps = Vec::new();
    for _ in 0..rng.range_inclusive(20, 80) {
        // On the 1 µs grid more often than off it, so that edges, probes
        // and interest changes share instants.
        let mut at = SimTime::from_micros(rng.below(span_us));
        if rng.chance(0.3) {
            at += SimTime::from_nanos(rng.below(1000));
        }
        let listener = NodeId(rng.below(n as u64 - 1) as u16);
        let undecided = NodeId(rng.range_inclusive(2, n as u64 - 2) as u16);
        let tone = any_tone(&mut rng);
        let step = match rng.below(10) {
            0..=3 => {
                let hold = match rng.below(6) {
                    0 => SimTime::ZERO,
                    1 => SimTime::from_nanos(rng.range_inclusive(1, 400)),
                    2 => SimTime::from_micros(rng.range_inclusive(1, 14)),
                    3 => SimTime::from_micros(17),
                    _ => SimTime::from_micros(rng.range_inclusive(15, 600)),
                };
                // (Nothing is aimed into an emission of no length: the
                // channel drops one nobody was told of, see `same`.)
                let echo = (hold > SimTime::ZERO && rng.chance(0.7)).then(|| Echo {
                    pick: rng.below(8) as usize,
                    lead: match rng.below(3) {
                        0 => SimTime::ZERO,
                        1 => SimTime::NANO,
                        _ => SimTime::from_nanos(rng.below(300)),
                    },
                    first: rng.chance(0.5),
                    what: if rng.chance(0.5) {
                        EchoStep::Probe
                    } else {
                        EchoStep::Listen(some_interest(&mut rng))
                    },
                });
                let src = NodeId(rng.below(n as u64) as u16);
                steps.push((at, src, Step::Start { tone, hold, echo }));
                continue;
            }
            4..=5 => Step::Probe(tone),
            6 => Step::Open(tone),
            7 => Step::Close(tone),
            _ => {
                steps.push((at, undecided, Step::Listen(some_interest(&mut rng))));
                continue;
            }
        };
        steps.push((at, listener, step));
    }
    // A jammer slot: bursts on a period, heard by whoever is near.
    let jammer = NodeId(n as u16 - 1);
    let period = SimTime::from_micros(rng.range_inclusive(40, 400));
    let hold = SimTime::from_micros(rng.range_inclusive(5, 39));
    let tone = any_tone(&mut rng);
    let mut at = SimTime::ZERO;
    while at < SimTime::from_micros(span_us) {
        steps.push((
            at,
            jammer,
            Step::Start {
                tone,
                hold,
                echo: None,
            },
        ));
        at += period;
    }
    Script {
        motions,
        steps,
        end: SimTime::from_micros(span_us + 700),
    }
}

/// Run `script` on `tones`. Both sides push the same steps in the same
/// order around the same edges, so whatever order the queue gives two
/// things in one instant, it gives it to both.
fn run<Q: SimQueue<Ev>>(script: &Script, tones: &mut impl Tones, q: &mut Q) -> Answers {
    let mut steps = script.steps.clone();
    let n = script.motions.len();
    let mut answers = Answers::default();
    // What each node last declared, and when (`None`: before the script).
    let mut declared = vec![(ToneInterest::NONE, None); n];
    for node in [NodeId(0), NodeId(1)] {
        tones.listen(q, node, everything());
        declared[node.idx()].0 = everything();
    }
    for (i, &(at, ..)) in steps.iter().enumerate() {
        q.push(at, Ev::Step(i));
    }
    // Receivers come from a channel of the script's own, so that looking
    // them up for an echo does not touch the side under test.
    let mut geometry = Channel::new(ChannelConfig::default(), script.motions.clone());
    while let Some((now, ev)) = q.pop() {
        let at = q.cursor();
        let i = match ev {
            Ev::Phy(pe) => {
                if let Some((node, tone, present)) = tones.edge(now, &pe) {
                    let (want, since) = declared[node.idx()];
                    let owed = want.wants(tone, present) && since < Some(now);
                    answers.told.push(((now, node, tone, present), owed));
                }
                continue;
            }
            Ev::Step(i) => i,
        };
        let (_, node, step) = steps[i];
        // Aim an edge's echo at one of its receivers, before (`first`) or
        // after the edge itself is pushed.
        let mut aim =
            |echo: Option<Echo>, first: bool, tone: Tone, steps: &mut Vec<_>, q: &mut Q| {
                let Some(echo) = echo.filter(|e| e.first == first) else {
                    return;
                };
                let receivers = receivers_of(&mut geometry, node, now);
                if receivers.is_empty() {
                    return;
                }
                let (rx, prop) = receivers[echo.pick % receivers.len()];
                let step = match echo.what {
                    // The jammer slot is never asked anything.
                    _ if rx.idx() == n - 1 => return,
                    // Nodes 0 and 1 keep listening for everything.
                    EchoStep::Listen(want) if rx.idx() >= 2 => Step::Listen(want),
                    _ => Step::Probe(tone),
                };
                let at = now + prop.saturating_sub(echo.lead);
                steps.push((at, rx, step));
                q.push(at, Ev::Step(steps.len() - 1));
            };
        match step {
            Step::Start { tone, hold, echo } => {
                aim(echo, true, tone, &mut steps, q);
                tones.start(q, node, tone);
                aim(echo, false, tone, &mut steps, q);
                steps.push((now + hold, node, Step::Stop { tone, echo }));
                q.push(now + hold, Ev::Step(steps.len() - 1));
            }
            Step::Stop { tone, echo } => {
                aim(echo, true, tone, &mut steps, q);
                tones.stop(q, node, tone);
                aim(echo, false, tone, &mut steps, q);
            }
            Step::Probe(tone) => {
                let present = tones.present(node, tone, at);
                answers
                    .probes
                    .push((i, present, tones.recent(node, tone, at)));
            }
            Step::Open(tone) => tones.open(node, tone, at),
            Step::Close(tone) => answers
                .logs
                .extend(tones.close(node, tone, at).map(|log| (i, log))),
            Step::Listen(want) => {
                tones.listen(q, node, want);
                declared[node.idx()] = (want, Some(now));
            }
        }
    }
    answers.busy_ns = (0..n as u16)
        .map(|i| Tone::ALL.map(|tone| tones.busy_ns(NodeId(i), tone, script.end)))
        .collect();
    answers
}

/// `log` without the flips undone in their own instant. The one place the
/// channel does not keep what the reference does: an emission lowered in the
/// instant it was raised, with nobody told of it, leaves no record, where
/// the reference logs a rise and a fall at one timestamp. No reading of a
/// log (they are all durations) can tell the two apart.
fn same(mut log: ToneLog) -> ToneLog {
    let mut i = 0;
    while i + 1 < log.edges.len() {
        let ((rise, on), (fall, _)) = (log.edges[i], log.edges[i + 1]);
        if on && rise == fall {
            log.edges.drain(i..i + 2);
        } else {
            i += 1;
        }
    }
    log
}

impl Answers {
    fn same(mut self) -> Answers {
        self.probes = self
            .probes
            .into_iter()
            .map(|(i, on, log)| (i, on, same(log)))
            .collect();
        self.logs = self
            .logs
            .into_iter()
            .map(|(i, log)| (i, same(log)))
            .collect();
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn records_answer_as_the_eager_loop_did(seed in any::<u64>()) {
        let script = script(seed);
        let new_channel = || {
            let mut ch = Channel::new(ChannelConfig::default(), script.motions.clone());
            ch.keep_tone_busy_time();
            ch
        };
        let reference = run(&script, &mut Eager::new(new_channel()), &mut EventQueue::new()).same();
        let mut ch = new_channel();
        let records = run(&script, &mut ch, &mut CalendarQueue::new()).same();
        prop_assert_eq!(&records.probes, &reference.probes);
        prop_assert_eq!(&records.logs, &reference.logs);
        // The reference dispatches every flip; the channel must dispatch the
        // owed ones — to nodes 0 and 1, all of them and in order — and none
        // that did not happen.
        let to_listeners = |a: &Answers| -> Vec<_> {
            a.told.iter().filter(|(flip, _)| flip.1.idx() < 2).copied().collect()
        };
        prop_assert_eq!(to_listeners(&records), to_listeners(&reference));
        let owed: Vec<_> = reference.told.iter().filter(|&&(_, owed)| owed).collect();
        for flip in &owed {
            prop_assert!(records.told.contains(flip), "{:?} was owed and not told", flip);
        }
        for (flip, _) in &records.told {
            prop_assert!(reference.told.iter().any(|(f, _)| f == flip), "{:?} never happened", flip);
        }
        prop_assert_eq!(&records.busy_ns, &reference.busy_ns);
        // The script exercised something, and left little behind.
        let stats = ch.obs_stats();
        prop_assert!(stats.tones.scheduled + stats.tones.catchups <= 2 * stats.tones.records);
    }
}

fn still(x: f64) -> Motion {
    Motion::stationary(Pos::new(x, 0.0))
}

type Q = EventQueue<Ev>;

/// Advance `q`'s clock to `at`.
fn skip_to(q: &mut Q, at: SimTime) {
    q.push(at, Ev::Step(0));
    while q.now() < at {
        q.pop();
    }
}

#[test]
fn an_emission_lowered_as_it_is_raised_leaves_nothing_behind() {
    // `benchmark`'s tone probe: the clock never moves, nobody listens.
    let mut ch = Channel::new(ChannelConfig::default(), vec![still(0.0), still(40.0)]);
    let mut q = Q::new();
    for _ in 0..1000 {
        ch.start_tone(&mut q, NodeId(0), Tone::Rbt);
        ch.stop_tone(&mut q, NodeId(0), Tone::Rbt);
    }
    assert!(q.is_empty());
    assert_eq!(ch.tone_records_held(NodeId(1)), 0);
    assert_eq!(ch.obs_stats().tones.records, 1000);
}

#[test]
fn records_are_forgotten_once_nobody_can_ask_and_their_busy_time_is_kept() {
    let mut ch = Channel::new(ChannelConfig::default(), vec![still(0.0), still(40.0)]);
    ch.keep_tone_busy_time();
    let mut q = Q::new();
    // 2 000 pulses of 17 µs every 50 µs.
    for k in 0..2000 {
        skip_to(&mut q, SimTime::from_micros(50 * k));
        ch.start_tone(&mut q, NodeId(0), Tone::Abt);
        skip_to(&mut q, SimTime::from_micros(50 * k + 17));
        ch.stop_tone(&mut q, NodeId(0), Tone::Abt);
        let held = ch.tone_records_held(NodeId(1));
        assert!(held <= 8, "{held} records held after {k} pulses");
    }
    let end = SimTime::from_micros(50 * 2000);
    assert_eq!(ch.tone_busy_ns(NodeId(1), Tone::Abt, end), 2000 * 17_000);
    // The last TONE_HISTORY is still there to be read.
    let from = Cursor::end_of(end.saturating_sub(TONE_HISTORY));
    let log = ch.tone_log(NodeId(1), Tone::Abt, from, Cursor::end_of(end));
    assert_eq!(log.edges.len(), 8, "{log:?}");
}

#[test]
fn an_open_watch_holds_its_records_and_a_deafened_node_lets_them_go() {
    let mut ch = Channel::new(ChannelConfig::default(), vec![still(0.0), still(40.0)]);
    ch.keep_tone_busy_time();
    let mut q = Q::new();
    ch.open_watch(NodeId(1), Tone::Abt, q.cursor());
    let pulses = |ch: &mut Channel, q: &mut Q, from: u64, to: u64| {
        for k in from..to {
            skip_to(q, SimTime::from_micros(50 * k));
            ch.start_tone(q, NodeId(0), Tone::Abt);
            skip_to(q, SimTime::from_micros(50 * k + 17));
            ch.stop_tone(q, NodeId(0), Tone::Abt);
        }
    };
    pulses(&mut ch, &mut q, 0, 100);
    assert_eq!(
        ch.tone_records_held(NodeId(1)),
        100,
        "the watch may still be closed"
    );
    // The watcher crashes without closing it.
    ch.deafen(NodeId(1));
    pulses(&mut ch, &mut q, 100, 300);
    assert!(ch.tone_records_held(NodeId(1)) <= 8);
    assert_eq!(
        ch.tone_busy_ns(NodeId(1), Tone::Abt, SimTime::from_micros(50 * 300)),
        300 * 17_000
    );
}

/// Busy time is kept only on request: a channel not told to keep it
/// forgets its records without folding them, and will not answer a sum it
/// no longer has.
#[test]
#[should_panic(expected = "tone_busy_ns on a channel that does not keep busy time")]
fn busy_time_is_not_read_from_a_channel_that_does_not_keep_it() {
    let mut ch = Channel::new(ChannelConfig::default(), vec![still(0.0), still(40.0)]);
    let mut q = Q::new();
    for k in 0..100 {
        skip_to(&mut q, SimTime::from_micros(50 * k));
        ch.start_tone(&mut q, NodeId(0), Tone::Abt);
        skip_to(&mut q, SimTime::from_micros(50 * k + 17));
        ch.stop_tone(&mut q, NodeId(0), Tone::Abt);
    }
    assert!(
        ch.tone_records_held(NodeId(1)) <= 8,
        "forgotten all the same"
    );
    assert_eq!(ch.obs_stats().busy_folds, 0);
    ch.tone_busy_ns(NodeId(1), Tone::Abt, SimTime::from_micros(50 * 100));
}

#[test]
#[should_panic(expected = "busy time must be kept from the first tone record on")]
fn busy_time_cannot_be_kept_from_the_middle_of_a_run() {
    let mut ch = Channel::new(ChannelConfig::default(), vec![still(0.0), still(40.0)]);
    ch.start_tone(&mut Q::new(), NodeId(0), Tone::Abt);
    ch.keep_tone_busy_time();
}

#[test]
fn interest_that_opens_with_an_edge_in_flight_is_told_of_it() {
    // B is 60 m from A: 200 ns.
    let mut ch = Channel::new(ChannelConfig::default(), vec![still(0.0), still(60.0)]);
    let mut q = Q::new();
    let rise = ToneInterest::flip(Tone::Rbt, true);
    let fall = ToneInterest::flip(Tone::Rbt, false);
    ch.start_tone(&mut q, NodeId(0), Tone::Rbt);
    assert!(q.is_empty(), "nobody listening, nothing scheduled");
    skip_to(&mut q, SimTime::from_nanos(100));
    ch.listen(&mut q, NodeId(1), rise);
    let (at, Ev::Phy(edge)) = q.pop().expect("the catch-up") else {
        panic!("a step")
    };
    assert_eq!(at, SimTime::from_nanos(200));
    assert!(!ch.tone_present(
        NodeId(1),
        Tone::Rbt,
        Cursor::end_of(SimTime::from_nanos(199))
    ));
    assert_eq!(
        ch.edge(at, &edge),
        Some((NodeId(1), Tone::Rbt, true)),
        "told in the instant it lands"
    );
    assert!(ch.tone_present(NodeId(1), Tone::Rbt, q.cursor()));
    // An edge that has landed is not told again, whoever asks.
    ch.listen(&mut q, NodeId(1), ToneInterest::NONE);
    ch.listen(&mut q, NodeId(1), rise | fall);
    assert!(q.is_empty());
    // Interested as the edge is written: scheduled there and then.
    ch.stop_tone(&mut q, NodeId(0), Tone::Rbt);
    assert_eq!(q.len(), 1);
    let stats = ch.obs_stats();
    assert_eq!(
        (
            stats.tones.records,
            stats.tones.scheduled,
            stats.tones.catchups
        ),
        (1, 1, 1)
    );
}

#[test]
fn a_second_emitter_joining_or_leaving_is_not_a_flip() {
    // What a MAC is told is presence, 0 ↔ 1; a second RBT rise inside one
    // TX_MRTS would otherwise count a second abort.
    let mut ch = Channel::new(
        ChannelConfig::default(),
        vec![still(0.0), still(50.0), still(100.0)],
    );
    let mut q = Q::new();
    ch.listen(&mut q, NodeId(1), everything());
    for (us, src, raise) in [(0, 0, true), (5, 2, true), (10, 0, false), (15, 2, false)] {
        q.push(
            SimTime::from_micros(us),
            Ev::Step(src << 1 | raise as usize),
        );
    }
    let (mut edges, mut told) = (0, Vec::new());
    while let Some((now, ev)) = q.pop() {
        match ev {
            Ev::Step(s) if s & 1 == 1 => ch.start_tone(&mut q, NodeId((s >> 1) as u16), Tone::Rbt),
            Ev::Step(s) => ch.stop_tone(&mut q, NodeId((s >> 1) as u16), Tone::Rbt),
            Ev::Phy(pe) => {
                edges += 1;
                told.extend(ch.edge(now, &pe).map(|(_, _, present)| present));
            }
        }
    }
    assert_eq!(edges, 4);
    assert_eq!(told, vec![true, false]);
}

/// The frame onsets against the loop they replaced.
///
/// [`Eager`](onsets::Eager) is that loop, kept literally: one
/// `FrameArriveStart` event per receiver per frame, stepping the receiver's
/// list of arriving signals as it is dispatched; no key is ever compared.
/// The proptest runs one random script — frames of 0.2–1 ms from overlapping
/// transmitters near and far, aborted at their start instant and mid-frame,
/// followed back to back by the same node, tailed by a neighbour's frame
/// timed to land in the nanosecond they end, with probes, interest changes
/// and a receiver's own transmission placed around the instant an onset
/// lands — through the reference and through the channel, where most nodes
/// listen only now and then, and asks for the same answers.
mod onsets {
    use std::collections::HashMap;
    use std::sync::Arc;

    use bytes::Bytes;
    use rmac_wire::consts::RANGE_M;
    use rmac_wire::{Dest, Frame};

    use super::*;
    use crate::channel::{FrameTallies, CAPTURE_THRESHOLD, PATH_LOSS_EXP};

    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Transmit `len` bytes unless already transmitting. `cut` aborts
        /// the frame that long in (zero: in its start instant); `again`
        /// starts another the instant this one is done.
        Tx {
            len: usize,
            cut: Option<SimTime>,
            again: bool,
            echo: Option<Echo>,
        },
        Abort,
        /// Read the carrier sense.
        Probe,
        /// Open or close the carrier interest.
        Listen(bool),
    }

    /// A step aimed at the `pick`-th receiver of a frame, `lead` before its
    /// first bit lands there (0: in the landing instant; more: mid-flight, or
    /// with the frame's start), pushed before or after the onset's key is
    /// claimed.
    #[derive(Clone, Copy, Debug)]
    struct Echo {
        pick: usize,
        lead: SimTime,
        first: bool,
        what: EchoStep,
    }

    #[derive(Clone, Copy, Debug)]
    enum EchoStep {
        Probe,
        Listen(bool),
        /// The receiver turns transmitter.
        Tx,
        /// A neighbour of the receiver — or, for `pick` one past the last
        /// receiver, of the transmitter itself — starts a frame whose first
        /// bit lands there in the nanosecond this frame ends there.
        Tail,
    }

    #[derive(Debug, PartialEq)]
    enum Heard {
        Rx {
            node: NodeId,
            src: NodeId,
            seq: u32,
            ok: bool,
        },
        Off(NodeId),
        Done {
            node: NodeId,
            aborted: bool,
        },
    }

    /// What a run of a script answered, in dispatch order.
    #[derive(Debug, Default, PartialEq)]
    struct Answers {
        /// Every indication but the carrier rises.
        heard: Vec<(SimTime, Heard)>,
        /// `(time, node)` per carrier rise dispatched, and whether it was
        /// owed: the node had declared interest before that instant.
        rises: Vec<((SimTime, NodeId), bool)>,
        /// `(step, busy)` per probe.
        probes: Vec<(usize, bool)>,
        tallies: FrameTallies,
    }

    /// The operations a script is made of, as the reference and the channel
    /// each offer them.
    trait Frames {
        fn start(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId, frame: Frame);
        fn abort(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId);
        fn listen(&mut self, q: &mut impl SimQueue<Ev>, node: NodeId, want: bool);
        fn transmitting(&self, node: NodeId) -> bool;
        fn busy(&self, node: NodeId, at: Cursor) -> bool;
        fn dispatch(&mut self, at: Cursor, ev: &PhyEvent, out: &mut Vec<Indication>);
        fn tallies(&self) -> FrameTallies;
        /// Whether nothing is in flight or half accounted any more.
        fn settled(&self) -> bool;
    }

    impl Frames for Channel {
        fn start(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId, frame: Frame) {
            self.start_tx(q, src, frame);
        }
        fn abort(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId) {
            self.abort_tx(q, src);
        }
        fn listen(&mut self, q: &mut impl SimQueue<Ev>, node: NodeId, want: bool) {
            let want = if want {
                ToneInterest::CARRIER
            } else {
                ToneInterest::NONE
            };
            Channel::listen(self, q, node, want);
        }
        fn transmitting(&self, node: NodeId) -> bool {
            self.is_transmitting(node)
        }
        fn busy(&self, node: NodeId, at: Cursor) -> bool {
            self.data_busy(node, at)
        }
        fn dispatch(&mut self, at: Cursor, ev: &PhyEvent, out: &mut Vec<Indication>) {
            self.handle(at, &mut SimRng::new(0), ev, out);
        }
        fn tallies(&self) -> FrameTallies {
            self.frame_tallies()
        }
        fn settled(&self) -> bool {
            self.radios.iter().all(|r| r.arriving.is_empty()) && self.txs.is_empty()
        }
    }

    /// A signal on a receiver's antenna, as the reference keeps it.
    #[derive(Clone)]
    struct Signal {
        tx: u64,
        power: f64,
        max_interference: f64,
        forced_bad: bool,
    }

    /// A transmission on the air, as the reference keeps it.
    struct Flight {
        src: NodeId,
        frame: Arc<Frame>,
        end: SimTime,
        aborted: bool,
        done: bool,
        /// `(receiver, delay, received power)`.
        receivers: Vec<(NodeId, SimTime, f64)>,
        pending_ends: usize,
    }

    /// The eager loop: every receiver is sent every first bit, and what
    /// arrives at a node is a list the events step. Every receiver's power
    /// is worked out as the frame starts, and every frame end reads where
    /// both nodes are.
    pub(super) struct Eager {
        /// Asked only who hears a frame, how late and how far, and where a
        /// node is.
        geometry: Channel,
        transmitting: Vec<Option<u64>>,
        arriving: Vec<Vec<Signal>>,
        txs: HashMap<u64, Flight>,
        next_tx: u64,
        tallies: FrameTallies,
    }

    impl Eager {
        fn new(geometry: Channel) -> Eager {
            let n = geometry.radios.len();
            Eager {
                geometry,
                transmitting: vec![None; n],
                arriving: vec![Vec::new(); n],
                txs: HashMap::new(),
                next_tx: 0,
                tallies: FrameTallies::default(),
            }
        }

        fn frame_start(&mut self, rx: NodeId, tx: u64, out: &mut Vec<Indication>) {
            let Some(flight) = self.txs.get(&tx) else {
                return;
            };
            let power = flight.receivers.iter().find(|r| r.0 == rx).unwrap().2;
            let arriving = &mut self.arriving[rx.idx()];
            let transmitting = self.transmitting[rx.idx()].is_some();
            let was_idle = arriving.is_empty();
            let others_sum: f64 = arriving.iter().map(|a| a.power).sum();
            let total = others_sum + power;
            for a in arriving.iter_mut() {
                let intf = total - a.power;
                if intf > a.max_interference {
                    a.max_interference = intf;
                }
            }
            arriving.push(Signal {
                tx,
                power,
                max_interference: others_sum,
                forced_bad: transmitting,
            });
            if was_idle && !transmitting {
                out.push(Indication::CarrierOn { node: rx });
            }
        }

        fn frame_end(
            &mut self,
            now: SimTime,
            rx: NodeId,
            tx: u64,
            prop: SimTime,
            out: &mut Vec<Indication>,
        ) {
            let Some(flight) = self.txs.get_mut(&tx) else {
                return;
            };
            if flight.end + prop != now {
                return;
            }
            let arriving = &mut self.arriving[rx.idx()];
            let Some(pos) = arriving.iter().position(|a| a.tx == tx) else {
                return;
            };
            let sig = arriving.swap_remove(pos);
            let still_tx = self.transmitting[rx.idx()].is_some();
            let now_idle = arriving.is_empty();
            let captured_through = sig.max_interference == 0.0
                || sig.power >= CAPTURE_THRESHOLD * sig.max_interference;
            let mut corrupted = sig.forced_bad || !captured_through || flight.aborted || still_tx;
            if !corrupted {
                let range_sq = RANGE_M * RANGE_M;
                let ps = self.geometry.position(flight.src, now);
                let pr = self.geometry.position(rx, now);
                corrupted = ps.dist_sq(pr) > range_sq;
            }
            let tally = if corrupted {
                &mut self.tallies.rx_corrupt
            } else {
                &mut self.tallies.rx_ok
            };
            tally[flight.frame.kind.index()] += 1;
            out.push(Indication::FrameRx {
                node: rx,
                frame: Arc::clone(&flight.frame),
                ok: !corrupted,
            });
            if now_idle && !still_tx {
                out.push(Indication::CarrierOff { node: rx });
            }
            flight.pending_ends -= 1;
            if flight.done && flight.pending_ends == 0 {
                self.txs.remove(&tx);
            }
        }

        fn tx_complete(&mut self, now: SimTime, node: NodeId, tx: u64, out: &mut Vec<Indication>) {
            let Some(flight) = self.txs.get_mut(&tx) else {
                return;
            };
            if flight.done || flight.end != now {
                return;
            }
            flight.done = true;
            let (frame, aborted) = (Arc::clone(&flight.frame), flight.aborted);
            if flight.pending_ends == 0 {
                self.txs.remove(&tx);
            }
            assert_eq!(self.transmitting[node.idx()].take(), Some(tx));
            self.tallies.tx_frames[frame.kind.index()] += 1;
            self.tallies.tx_aborted += aborted as u64;
            out.push(Indication::TxDone {
                node,
                frame,
                aborted,
            });
        }
    }

    impl Frames for Eager {
        fn start(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId, frame: Frame) {
            let now = q.now();
            assert!(self.transmitting[src.idx()].is_none());
            let tx = self.next_tx;
            self.next_tx += 1;
            let mut links = Vec::new();
            self.geometry.fill_receivers(src, now, &mut links);
            let receivers: Vec<_> = links
                .iter()
                .map(|l| (l.rx, l.prop(), l.dist.max(1.0).powf(-PATH_LOSS_EXP)))
                .collect();
            let end = now + frame.airtime();
            for &(rx, prop, _) in &receivers {
                q.push(now + prop, PhyEvent::FrameArriveStart { rx, tx }.into());
                q.push(end + prop, PhyEvent::FrameArriveEnd { rx, tx, prop }.into());
            }
            q.push(end, PhyEvent::TxComplete { node: src, tx }.into());
            for a in &mut self.arriving[src.idx()] {
                a.forced_bad = true;
            }
            let flight = Flight {
                src,
                frame: Arc::new(frame),
                end,
                aborted: false,
                done: false,
                pending_ends: receivers.len(),
                receivers,
            };
            self.txs.insert(tx, flight);
            self.transmitting[src.idx()] = Some(tx);
        }

        fn abort(&mut self, q: &mut impl SimQueue<Ev>, src: NodeId) {
            let now = q.now();
            let tx = self.transmitting[src.idx()].unwrap();
            let flight = self.txs.get_mut(&tx).unwrap();
            if flight.aborted {
                return;
            }
            flight.aborted = true;
            flight.end = now;
            q.push(now, PhyEvent::TxComplete { node: src, tx }.into());
            for &(rx, prop, _) in &flight.receivers {
                q.push(now + prop, PhyEvent::FrameArriveEnd { rx, tx, prop }.into());
            }
        }

        fn listen(&mut self, _: &mut impl SimQueue<Ev>, _: NodeId, _: bool) {}

        fn transmitting(&self, node: NodeId) -> bool {
            self.transmitting[node.idx()].is_some()
        }

        fn busy(&self, node: NodeId, _: Cursor) -> bool {
            self.transmitting[node.idx()].is_some() || !self.arriving[node.idx()].is_empty()
        }

        fn dispatch(&mut self, at: Cursor, ev: &PhyEvent, out: &mut Vec<Indication>) {
            match *ev {
                PhyEvent::FrameArriveStart { rx, tx } => self.frame_start(rx, tx, out),
                PhyEvent::FrameArriveEnd { rx, tx, prop } => {
                    self.frame_end(at.time, rx, tx, prop, out)
                }
                PhyEvent::TxComplete { node, tx } => self.tx_complete(at.time, node, tx, out),
                PhyEvent::ToneEdge { .. } => panic!("a script raises no tone"),
            }
        }

        fn tallies(&self) -> FrameTallies {
            self.tallies
        }

        fn settled(&self) -> bool {
            self.arriving.iter().all(|a| a.is_empty()) && self.txs.is_empty()
        }
    }

    /// One random script over one random layout. Nodes 0 and 1 listen
    /// throughout; the last node is a jammer slot — it transmits on a period
    /// and never listens; the rest change their minds as they go.
    struct Script {
        motions: Vec<Motion>,
        steps: Vec<(SimTime, NodeId, Step)>,
    }

    fn script(seed: u64) -> Script {
        let mut rng = SimRng::new(seed);
        let n = rng.range_inclusive(4, 8) as usize;
        let moving = rng.chance(0.5);
        // Fast movers cross a radio range inside a frame, so frame ends read
        // the geometry; ones at the grid tests' speeds are what a frame end
        // mostly trusts its drift bound for.
        let speeds = if rng.chance(0.5) {
            (2e4, 6e4)
        } else {
            (1.0, 50.0)
        };
        let place =
            |rng: &mut SimRng| Pos::new(rng.uniform_f64(0.0, 110.0), rng.uniform_f64(0.0, 110.0));
        let mut motions: Vec<Motion> = (0..n)
            .map(|_| {
                let from = place(&mut rng);
                if moving && rng.chance(0.5) {
                    let speed = rng.uniform_f64(speeds.0, speeds.1);
                    Motion::linear(from, place(&mut rng), SimTime::ZERO, speed)
                } else {
                    Motion::stationary(from)
                }
            })
            .collect();
        if rng.chance(0.2) {
            // No propagation delay between two of them: an onset lands in
            // the instant its frame starts.
            motions[1] = motions[0].clone();
        }
        let span_us = rng.range_inclusive(1000, 6000);
        let mut steps = Vec::new();
        for _ in 0..rng.range_inclusive(15, 50) {
            let mut at = SimTime::from_micros(rng.below(span_us));
            if rng.chance(0.3) {
                at += SimTime::from_nanos(rng.below(1000));
            }
            let anyone = NodeId(rng.below(n as u64) as u16);
            let undecided = NodeId(rng.range_inclusive(2, n as u64 - 2) as u16);
            let step = match rng.below(12) {
                0..=4 => {
                    let len = rng.below(200) as usize;
                    let air = data_frame(anyone, len, 0).airtime().nanos();
                    let cut = match rng.below(6) {
                        0 => Some(SimTime::ZERO),
                        1 => Some(SimTime::from_nanos(rng.below(400))),
                        2 => Some(SimTime::from_nanos(rng.below(air))),
                        _ => None,
                    };
                    let echo = rng.chance(0.8).then(|| Echo {
                        pick: rng.below(9) as usize,
                        lead: match rng.below(3) {
                            0 => SimTime::ZERO,
                            1 => SimTime::NANO,
                            _ => SimTime::from_nanos(rng.below(300)),
                        },
                        first: rng.chance(0.5),
                        what: match rng.below(6) {
                            0 => EchoStep::Probe,
                            1 | 2 => EchoStep::Listen(rng.chance(0.6)),
                            3 => EchoStep::Tx,
                            _ => EchoStep::Tail,
                        },
                    });
                    Step::Tx {
                        len,
                        cut,
                        again: rng.chance(0.3),
                        echo,
                    }
                }
                5..=6 => Step::Probe,
                7 => Step::Abort,
                8..=9 => {
                    steps.push((at, undecided, Step::Listen(rng.chance(0.5))));
                    continue;
                }
                _ => {
                    // A chorus: three or more nodes start frames within a
                    // microsecond, and pile up at whoever hears them all.
                    for j in 0..rng.range_inclusive(3, n as u64) {
                        let who = NodeId(((anyone.idx() as u64 + j) % n as u64) as u16);
                        let at = at + SimTime::from_nanos(rng.below(1000));
                        let len = rng.range_inclusive(20, 200) as usize;
                        let sing = Step::Tx {
                            len,
                            cut: None,
                            again: false,
                            echo: None,
                        };
                        steps.push((at, who, sing));
                    }
                    continue;
                }
            };
            steps.push((at, anyone, step));
        }
        let jammer = NodeId(n as u16 - 1);
        let period = SimTime::from_micros(rng.range_inclusive(300, 2000));
        let len = rng.below(100) as usize;
        let mut at = SimTime::ZERO;
        while at < SimTime::from_micros(span_us) {
            let burst = Step::Tx {
                len,
                cut: None,
                again: false,
                echo: None,
            };
            steps.push((at, jammer, burst));
            at += period;
        }
        Script { motions, steps }
    }

    fn data_frame(src: NodeId, len: usize, seq: u32) -> Frame {
        Frame::data_unreliable(src, Dest::Broadcast, Bytes::from(vec![0u8; len]), seq)
    }

    /// Run `script` on `frames`. Both sides push the same steps in the same
    /// order around the same claims, so every key but an unpushed onset's is
    /// the same event on both.
    fn run<Q: SimQueue<Ev>>(script: &Script, frames: &mut impl Frames, q: &mut Q) -> Answers {
        let mut steps = script.steps.clone();
        let n = script.motions.len();
        let mut answers = Answers::default();
        // What each node last declared, and when (`None`: before the script).
        let mut declared = vec![(false, None); n];
        for node in [NodeId(0), NodeId(1)] {
            frames.listen(q, node, true);
            declared[node.idx()].0 = true;
        }
        for (i, &(at, ..)) in steps.iter().enumerate() {
            q.push(at, Ev::Step(i));
        }
        // Receivers come from a channel of the script's own.
        let mut geometry = Channel::new(ChannelConfig::default(), script.motions.clone());
        let mut next_seq = 0;
        let mut numbered = |src: NodeId, len: usize| {
            next_seq += 1;
            data_frame(src, len, next_seq)
        };
        // The length of the frame each node sends next, once done with this.
        let mut again: Vec<Option<usize>> = vec![None; n];
        let mut out = Vec::new();
        while let Some((now, ev)) = q.pop() {
            let at = q.cursor();
            let i = match ev {
                Ev::Phy(pe) => {
                    frames.dispatch(at, &pe, &mut out);
                    for ind in out.drain(..) {
                        let heard = match ind {
                            Indication::CarrierOn { node } => {
                                let (want, since) = declared[node.idx()];
                                let owed = want && since < Some(now);
                                answers.rises.push(((now, node), owed));
                                continue;
                            }
                            Indication::CarrierOff { node } => Heard::Off(node),
                            Indication::FrameRx { node, frame, ok } => Heard::Rx {
                                node,
                                src: frame.src,
                                seq: frame.seq,
                                ok,
                            },
                            Indication::TxDone { node, aborted, .. } => {
                                if let Some(len) = again[node.idx()].take() {
                                    frames.start(q, node, numbered(node, len));
                                }
                                Heard::Done { node, aborted }
                            }
                            other => panic!("a frame event indicated {other:?}"),
                        };
                        answers.heard.push((now, heard));
                    }
                    continue;
                }
                Ev::Step(i) => i,
            };
            let (_, node, step) = steps[i];
            match step {
                Step::Tx {
                    len,
                    cut,
                    again: then,
                    echo,
                } => {
                    if frames.transmitting(node) {
                        continue;
                    }
                    let sent = numbered(node, len);
                    let end = now + sent.airtime();
                    let mut aim = |first: bool, steps: &mut Vec<_>, q: &mut Q| {
                        let Some(echo) = echo.filter(|e| e.first == first) else {
                            return;
                        };
                        let receivers = receivers_of(&mut geometry, node, now);
                        // One past the receivers: the transmitter itself.
                        let (rx, prop) = receivers
                            .iter()
                            .chain([&(node, SimTime::ZERO)])
                            .nth(echo.pick % (receivers.len() + 1))
                            .copied()
                            .unwrap();
                        let landing = now + prop.saturating_sub(echo.lead);
                        let short = Step::Tx {
                            len: 0,
                            cut: None,
                            again: false,
                            echo: None,
                        };
                        let (at, who, step) = match echo.what {
                            EchoStep::Tail => {
                                let near = receivers_of(&mut geometry, rx, now);
                                let Some(&(tail, flight)) = near.iter().find(|&&(x, _)| x != node)
                                else {
                                    return;
                                };
                                ((end + prop).saturating_sub(flight).max(now), tail, short)
                            }
                            _ if rx == node => return,
                            EchoStep::Tx => (landing, rx, short),
                            // Nodes 0 and 1 keep listening; the jammer slot
                            // never does.
                            EchoStep::Listen(want) if (2..n - 1).contains(&rx.idx()) => {
                                (landing, rx, Step::Listen(want))
                            }
                            _ => (landing, rx, Step::Probe),
                        };
                        steps.push((at, who, step));
                        q.push(at, Ev::Step(steps.len() - 1));
                    };
                    aim(true, &mut steps, q);
                    frames.start(q, node, sent);
                    aim(false, &mut steps, q);
                    again[node.idx()] = then.then_some(len);
                    match cut {
                        Some(SimTime::ZERO) => frames.abort(q, node),
                        Some(cut) => {
                            steps.push((now + cut, node, Step::Abort));
                            q.push(now + cut, Ev::Step(steps.len() - 1));
                        }
                        None => {}
                    }
                }
                Step::Abort => {
                    if frames.transmitting(node) {
                        frames.abort(q, node);
                    }
                }
                Step::Probe => answers.probes.push((i, frames.busy(node, at))),
                Step::Listen(want) => {
                    frames.listen(q, node, want);
                    declared[node.idx()] = (want, Some(now));
                }
            }
        }
        assert!(frames.settled(), "something was left behind");
        answers.tallies = frames.tallies();
        answers
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn onsets_answer_as_the_eager_loop_did(seed in any::<u64>()) {
            let script = script(seed);
            let new_channel = || Channel::new(ChannelConfig::default(), script.motions.clone());
            let mut eager = Eager::new(new_channel());
            let mut ch = new_channel();
            // Either queue on either side.
            let (reference, records) = if seed & 1 == 0 {
                (run(&script, &mut eager, &mut EventQueue::new()), run(&script, &mut ch, &mut CalendarQueue::new()))
            } else {
                (run(&script, &mut eager, &mut CalendarQueue::new()), run(&script, &mut ch, &mut EventQueue::new()))
            };
            prop_assert_eq!(&records.heard, &reference.heard);
            prop_assert_eq!(&records.probes, &reference.probes);
            prop_assert_eq!(&records.tallies, &reference.tallies);
            // The reference dispatches every rise; the channel must dispatch
            // the owed ones — to nodes 0 and 1, all of them and in order —
            // and none that did not happen.
            let to_listeners = |a: &Answers| -> Vec<_> {
                a.rises.iter().filter(|(rise, _)| rise.1.idx() < 2).copied().collect()
            };
            prop_assert_eq!(to_listeners(&records), to_listeners(&reference));
            for rise in reference.rises.iter().filter(|&&(_, owed)| owed) {
                prop_assert!(records.rises.contains(rise), "{:?} was owed and not told", rise);
            }
            for (rise, _) in &records.rises {
                prop_assert!(reference.rises.iter().any(|(r, _)| r == rise), "{:?} never happened", rise);
            }
            // Fewer events carried it.
            let stats = ch.obs_stats();
            prop_assert!(stats.onsets.scheduled + stats.onsets.catchups <= stats.onsets.records);
        }
    }

    /// Three frames pile up at B, the strongest from a source walking away
    /// as it sends. Each power is worked out as a second signal lands, and
    /// capture comes out as the eager loop's: the near frame survives, the
    /// far two do not. E hears the walker alone and works out nothing.
    #[test]
    fn a_chorus_at_one_receiver_is_decided_as_the_eager_loop_did() {
        let (b, a, c, d, e) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4));
        let walker = Motion::linear(
            Pos::new(55.0, 50.0),
            Pos::new(70.0, 50.0),
            SimTime::ZERO,
            40.0,
        );
        let script = Script {
            motions: vec![
                Motion::stationary(Pos::new(50.0, 50.0)),
                walker,
                Motion::stationary(Pos::new(50.0, 10.0)),
                Motion::stationary(Pos::new(90.0, 50.0)),
                Motion::stationary(Pos::new(55.0, 120.0)),
            ],
            steps: [(0, a), (300, c), (700, d)]
                .map(|(ns, who)| {
                    let sing = Step::Tx {
                        len: 100,
                        cut: None,
                        again: false,
                        echo: None,
                    };
                    (SimTime::from_nanos(ns), who, sing)
                })
                .to_vec(),
        };
        let new_channel = || Channel::new(ChannelConfig::default(), script.motions.clone());
        let reference = run(
            &script,
            &mut Eager::new(new_channel()),
            &mut EventQueue::new(),
        );
        let mut ch = new_channel();
        let records = run(&script, &mut ch, &mut EventQueue::new());
        assert_eq!(records.heard, reference.heard);
        let at_b: Vec<_> = records
            .heard
            .iter()
            .filter_map(|(_, h)| match *h {
                Heard::Rx { node, src, ok, .. } if node == b => Some((src, ok)),
                _ => None,
            })
            .collect();
        assert_eq!(at_b, vec![(a, true), (c, false), (d, false)]);
        assert!(records.heard.iter().any(|(_, h)| *h
            == Heard::Rx {
                node: e,
                src: a,
                seq: 1,
                ok: true
            }));
        let stats = ch.obs_stats();
        assert_eq!(stats.onsets.records, 10);
        assert_eq!(stats.path_gains, 9, "every onset but E's shared an antenna");
    }
}
