use std::sync::Mutex;

use bytes::Bytes;
use proptest::prelude::*;
use rmac_wire::Dest;

use super::*;

fn ev<F>(what: TraceWhat<F>) -> TraceEvent<F> {
    TraceEvent {
        t: SimTime::from_micros(5),
        node: NodeId(3),
        what,
    }
}

fn line(s: &str) -> TraceEvent<FrameHead> {
    TraceEvent::from_json(s).unwrap_or_else(|e| panic!("{s}: {e}"))
}

fn mrts() -> Arc<Frame> {
    Arc::new(Frame::mrts(NodeId(3), vec![NodeId(1), NodeId(2)]))
}

#[test]
fn levels_nest() {
    let submit = TraceWhat::<Arc<Frame>>::Submit {
        reliable: true,
        bytes: 64,
    };
    let rx = TraceWhat::Rx {
        frame: mrts(),
        ok: true,
    };
    let tone = TraceWhat::<Arc<Frame>>::Tone {
        tone: Tone::Rbt,
        present: true,
    };
    assert!(TraceLevel::Protocol.admits(&submit));
    assert!(!TraceLevel::Protocol.admits(&rx));
    assert!(!TraceLevel::Protocol.admits(&tone));
    assert!(TraceLevel::Frames.admits(&rx));
    assert!(!TraceLevel::Frames.admits(&tone));
    assert!(TraceLevel::Signal.admits(&tone));
    // What a node does with its radio is signal-level too: the committed
    // frame-level traces have no line for it.
    let started = TraceWhat::TxStart { frame: mrts() };
    let raised = TraceWhat::ToneEmit {
        tone: Tone::Abt,
        on: true,
    };
    for signal in [started, raised] {
        assert!(!TraceLevel::Frames.admits(&signal));
        assert!(TraceLevel::Signal.admits(&signal));
    }
}

#[test]
fn filter_tracer_drops_below_level() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let inner: Tracer = Box::new(move |e| sink.lock().unwrap().push(e.to_json()));
    let mut t = filter_tracer(TraceLevel::Frames, inner);
    t(&ev(TraceWhat::Carrier { busy: true }));
    t(&ev(TraceWhat::TxDone {
        frame: mrts(),
        aborted: false,
    }));
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 1);
    assert!(seen[0].contains("tx_done"));
}

#[test]
fn an_indication_is_reported_as_its_image() {
    let node = NodeId(3);
    let rx = Indication::FrameRx {
        node,
        frame: mrts(),
        ok: false,
    };
    // Borrowed while the engine reports it, shared to keep.
    let image = ev(TraceWhat::from(&rx)).map(Arc::clone);
    assert_eq!(image.what.to_string(), "RX Mrts from n3 (corrupt)");
    assert!(image
        .to_string()
        .ends_with("  n3   RX Mrts from n3 (corrupt)"));
    assert_eq!(Arc::strong_count(&mrts()), 1);
    let Indication::FrameRx { frame, .. } = &rx else {
        unreachable!()
    };
    assert_eq!(Arc::strong_count(frame), 2, "one for the kept event");
    let fall = Indication::CarrierOff { node };
    assert!(matches!(
        TraceWhat::from(&fall),
        TraceWhat::Carrier { busy: false }
    ));
}

#[test]
fn parses_engine_schema_lines() {
    let r = line(r#"{"t_ns":5000,"node":3,"ev":"rx","kind":"Mrts","src":0,"ok":true}"#);
    assert_eq!(r.t, SimTime::from_nanos(5000));
    assert_eq!(r.node, NodeId(3));
    assert_eq!(r.what.to_string(), "RX Mrts from n0");
}

#[test]
fn every_kind_has_its_line_and_its_words() {
    let cases = [
        (
            r#"{"t_ns":1,"node":0,"ev":"tx_start","kind":"Mrts","bytes":30}"#,
            "TX-START Mrts (30 B)",
        ),
        (
            r#"{"t_ns":1,"node":0,"ev":"tx_done","kind":"Mrts","bytes":30,"aborted":true}"#,
            "TX Mrts (30 B) ABORTED",
        ),
        (
            r#"{"t_ns":1,"node":0,"ev":"rx","kind":"Ack","src":7,"ok":false}"#,
            "RX Ack from n7 (corrupt)",
        ),
        (
            r#"{"t_ns":1,"node":0,"ev":"tone","tone":"Rbt","present":true}"#,
            "Rbt on",
        ),
        (
            r#"{"t_ns":1,"node":0,"ev":"carrier","busy":false}"#,
            "carrier idle",
        ),
        (
            r#"{"t_ns":1,"node":0,"ev":"tone_emit","tone":"Abt","on":true}"#,
            "Abt raised",
        ),
        (
            r#"{"t_ns":1,"node":0,"ev":"submit","reliable":true,"bytes":500}"#,
            "SUBMIT reliable (500 B)",
        ),
        (
            r#"{"t_ns":1,"node":0,"ev":"deliver","kind":"DataReliable","src":2}"#,
            "DELIVER DataReliable from n2",
        ),
        (
            r#"{"t_ns":1,"node":0,"ev":"fault","label":"crash"}"#,
            "FAULT crash",
        ),
    ];
    for (json, words) in cases {
        let e = line(json);
        assert_eq!(e.what.to_string(), words);
        assert_eq!(e.to_json(), json);
    }
}

#[test]
fn the_parser_is_strict_per_kind() {
    for bad in [
        // The envelope.
        r#"{"node":3,"ev":"carrier","busy":true}"#,
        r#"{"t_ns":1,"node":3}"#,
        r#"{"t_ns":1.5,"node":3,"ev":"carrier","busy":true}"#,
        r#"{"t_ns":1,"node":70000,"ev":"carrier","busy":true}"#,
        "garbage",
        "[1]",
        // An unknown kind, label or name.
        r#"{"t_ns":1,"node":0,"ev":"bogus"}"#,
        r#"{"t_ns":1,"node":0,"ev":"fault","label":"meteor"}"#,
        r#"{"t_ns":1,"node":0,"ev":"rx","kind":"Beacon","src":0,"ok":true}"#,
        r#"{"t_ns":1,"node":0,"ev":"tone","tone":"Cbt","present":true}"#,
        // A missing, mistyped or foreign field.
        r#"{"t_ns":1,"node":0,"ev":"rx","kind":"Mrts","src":0}"#,
        r#"{"t_ns":1,"node":0,"ev":"rx","kind":"Mrts","src":0,"ok":"yes"}"#,
        r#"{"t_ns":1,"node":0,"ev":"tx_done","kind":"Mrts","bytes":-4,"aborted":false}"#,
        r#"{"t_ns":1,"node":0,"ev":"carrier","busy":true,"ok":true}"#,
        r#"{"t_ns":1,"node":0,"ev":"submit","reliable":true,"bytes":[5]}"#,
        // Not what `to_json` writes: another order, a repeat, a space.
        r#"{"node":0,"t_ns":1,"ev":"carrier","busy":true}"#,
        r#"{"t_ns":1,"node":0,"ev":"carrier","busy":true,"busy":true}"#,
        r#"{"t_ns":1, "node":0,"ev":"carrier","busy":true}"#,
        r#"{"t_ns":1e0,"node":0,"ev":"carrier","busy":true}"#,
    ] {
        assert!(TraceEvent::from_json(bad).is_err(), "accepted {bad}");
    }
}

#[test]
fn timeline_anchors_on_reliable_submit() {
    let records = vec![
        line(r#"{"t_ns":100,"node":0,"ev":"carrier","busy":true}"#),
        line(r#"{"t_ns":5000,"node":0,"ev":"submit","reliable":true,"bytes":500}"#),
        line(r#"{"t_ns":6000,"node":0,"ev":"tx_done","kind":"Mrts","bytes":30,"aborted":false}"#),
    ];
    let s = render_timeline(&records, 10_000, 50);
    assert!(s.contains("SUBMIT reliable"));
    assert!(s.contains("TX Mrts"));
    // The pre-anchor carrier edge is not shown.
    assert!(!s.contains("carrier"));
    // Times are anchor-relative: the MRTS prints at +1.0 µs.
    assert!(s.contains("1.0 µs"), "{s}");
}

#[test]
fn timeline_shows_a_carrier_fall_that_follows_no_rise() {
    // A node is told of a rise only while its MAC can act on one, so a
    // trace has `carrier idle` lines with no `carrier busy` before them.
    let records = vec![
        line(r#"{"t_ns":0,"node":1,"ev":"submit","reliable":true,"bytes":500}"#),
        line(r#"{"t_ns":2000,"node":2,"ev":"rx","kind":"Mrts","src":1,"ok":true}"#),
        line(r#"{"t_ns":2000,"node":2,"ev":"carrier","busy":false}"#),
        line(r#"{"t_ns":9000,"node":2,"ev":"carrier","busy":false}"#),
    ];
    let s = render_timeline(&records, 10_000, 50);
    assert_eq!(s.matches("carrier idle").count(), 2, "{s}");
    assert!(!s.contains("carrier busy"));
}

#[test]
fn timeline_truncates_to_window_and_line_budget() {
    let records: Vec<_> = (0..20)
        .map(|i| ev(TraceWhat::<FrameHead>::Carrier { busy: true }).at(i * 100))
        .collect();
    let s = render_timeline(&records, 10_000, 5);
    assert!(s.contains("… 15 more events in window"), "{s}");
    let s = render_timeline(&records, 1_000, 50);
    assert_eq!(s.matches("carrier busy").count(), 11, "{s}");
    assert!(!s.contains("more events"));
    let none: [TraceEvent<FrameHead>; 0] = [];
    assert!(render_timeline(&none, 1000, 5).contains("no trace records"));
}

impl<F> TraceEvent<F> {
    fn at(mut self, ns: u64) -> Self {
        self.t = SimTime::from_nanos(ns);
        self
    }
}

/// Any frame a MAC can put on the air.
fn frames() -> impl Strategy<Value = Arc<Frame>> {
    let id = || (0u16..300).prop_map(NodeId);
    let group = || proptest::collection::vec(id(), 1..6);
    let dest = || {
        prop_oneof![
            Just(Dest::Broadcast),
            id().prop_map(Dest::Node),
            group().prop_map(Dest::Group)
        ]
    };
    let data = move || (id(), dest(), 0usize..1500, any::<u32>());
    let control = prop_oneof![
        Just(FrameKind::Rts),
        Just(FrameKind::Cts),
        Just(FrameKind::Rak),
        Just(FrameKind::Ack),
        Just(FrameKind::Ncts),
        Just(FrameKind::Nak),
    ];
    prop_oneof![
        (id(), group()).prop_map(|(src, order)| Frame::mrts(src, order)),
        data().prop_map(|(src, dest, len, seq)| {
            Frame::data_reliable(src, dest, Bytes::from(vec![0; len]), seq)
        }),
        data().prop_map(|(src, dest, len, seq)| {
            Frame::data_unreliable(src, dest, Bytes::from(vec![0; len]), seq)
        }),
        (control, id(), id(), 0u64..1_000_000).prop_map(|(kind, src, to, nav)| Frame::control(
            kind,
            src,
            to,
            SimTime::from_nanos(nav)
        )),
    ]
    .prop_map(Arc::new)
}

/// Every event the vocabulary can express, as a live stream carries it.
fn events() -> impl Strategy<Value = TraceEvent> {
    let tone = || prop_oneof![Just(Tone::Rbt), Just(Tone::Abt)];
    let what = prop_oneof![
        frames().prop_map(|frame| TraceWhat::TxStart { frame }),
        (frames(), any::<bool>()).prop_map(|(frame, aborted)| TraceWhat::TxDone { frame, aborted }),
        (frames(), any::<bool>()).prop_map(|(frame, ok)| TraceWhat::Rx { frame, ok }),
        (tone(), any::<bool>()).prop_map(|(tone, present)| TraceWhat::Tone { tone, present }),
        any::<bool>().prop_map(|busy| TraceWhat::Carrier { busy }),
        (tone(), any::<bool>()).prop_map(|(tone, on)| TraceWhat::ToneEmit { tone, on }),
        (any::<bool>(), 0usize..1500)
            .prop_map(|(reliable, bytes)| TraceWhat::Submit { reliable, bytes }),
        frames().prop_map(|frame| TraceWhat::Deliver { frame }),
        (0..FaultKind::ALL.len()).prop_map(|i| TraceWhat::Fault(FaultKind::ALL[i])),
    ];
    (any::<u64>(), 0u16..=u16::MAX, what).prop_map(|(ns, node, what)| TraceEvent {
        t: SimTime::from_nanos(ns),
        node: NodeId(node),
        what,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `to_json` → `from_json` gives the event back as far as a line says
    /// it — the same line, the same words — and reading that back is exact.
    #[test]
    fn every_event_round_trips_through_its_line(e in events()) {
        let json = e.to_json();
        let back = TraceEvent::from_json(&json).map_err(TestCaseError::fail)?;
        prop_assert_eq!((back.t, back.node), (e.t, e.node));
        prop_assert_eq!(back.to_json(), json.clone());
        prop_assert_eq!(back.to_string(), e.to_string());
        for level in [TraceLevel::Protocol, TraceLevel::Frames, TraceLevel::Signal] {
            prop_assert_eq!(level.admits(&back.what), level.admits(&e.what));
        }
        prop_assert_eq!(TraceEvent::from_json(&back.to_json()), Ok(back.clone()));
        // Structurally too, but for what no line prints: the source of a
        // node's own frame, the length of one it heard.
        let mut head = e.clone().map(|f| f.head());
        match &mut head.what {
            TraceWhat::TxStart { frame } | TraceWhat::TxDone { frame, .. } => frame.src = e.node,
            TraceWhat::Rx { frame, .. } | TraceWhat::Deliver { frame } => frame.bytes = 0,
            _ => {}
        }
        prop_assert_eq!(back, head);
        // One byte off the end is not a line.
        prop_assert!(TraceEvent::from_json(&json[..json.len() - 1]).is_err());
    }
}
