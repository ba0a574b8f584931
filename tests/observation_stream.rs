//! One observation stream (DESIGN.md §9): the engine reports each protocol
//! observable once, and the tracer, the conformance checker and the per-node
//! obs tallies are folds of that report. So attaching any subset of the
//! three changes nothing any of them — or the run — sees.

use std::sync::{Arc, Mutex};

use rmac::engine::{TraceEvent, TraceWhat};
use rmac::faults::{BurstySpec, ChurnKind, ChurnSpec, JamTarget, JammerSpec};
use rmac::mobility::Bounds;
use rmac::phy::Tone;
use rmac::prelude::*;
use rmac::wire::FrameKind;

fn cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_nodes(10)
        .with_packets(12);
    cfg.bounds = Bounds::new(120.0, 100.0);
    cfg
}

/// Corruption, a crash with its restart, and a false RBT: every kind of
/// event the stream has shows up.
fn plan() -> FaultPlan {
    FaultPlan::none()
        .with_bursty(BurstySpec::moderate())
        .with_churn(ChurnSpec {
            node: 3,
            kind: ChurnKind::Crash,
            at_ms: 5_200,
            for_ms: 300,
        })
        .with_jammer(JammerSpec {
            x: 60.0,
            y: 50.0,
            target: JamTarget::Rbt,
            start_ms: 5_100,
            period_ms: 40,
            burst_ms: 5,
        })
}

struct Seen {
    out: RunOutput,
    /// The unfiltered stream, as lines, when a tracer was attached.
    lines: Option<Vec<String>>,
}

fn run(tracer: bool, check: bool, obs: bool) -> Seen {
    let mut run = Run::new(&cfg(), Protocol::Rmac, 9).faults(&plan());
    let lines: Arc<Mutex<Vec<String>>> = Arc::default();
    if tracer {
        let sink = Arc::clone(&lines);
        run = run.tracer(Box::new(move |e| sink.lock().unwrap().push(e.to_json())));
    }
    if check {
        run = run.check();
    }
    if obs {
        run = run.obs(ObsConfig::default());
    }
    let out = run.execute();
    let lines = tracer.then(|| std::mem::take(&mut *lines.lock().unwrap()));
    Seen { out, lines }
}

#[test]
fn every_subset_of_readers_sees_the_same_run() {
    let detached = run(false, false, false);
    let all = run(true, true, true);
    assert!(detached.out.check.is_none() && detached.out.obs.is_none());
    assert_eq!(all.out.report, detached.out.report);
    let (lines, check, obs) = (
        all.lines.as_ref().expect("traced"),
        format!("{:?}", all.out.check.as_ref().expect("checked")),
        all.out.obs.as_ref().expect("observed").to_json(),
    );
    for kind in [
        "tx_start",
        "tx_done",
        "rx",
        "tone",
        "carrier",
        "tone_emit",
        "submit",
        "deliver",
        "fault",
    ] {
        let tag = format!("\"ev\":\"{kind}\"");
        assert!(lines.iter().any(|l| l.contains(&tag)), "no {kind} line");
    }
    for (tracer, checked, observed) in [
        (true, false, false),
        (false, true, false),
        (false, false, true),
        (true, true, false),
        (false, true, true),
    ] {
        let one = run(tracer, checked, observed);
        let which = format!("tracer {tracer}, checker {checked}, obs {observed}");
        assert_eq!(one.out.report, detached.out.report, "{which}");
        if let Some(seen) = &one.lines {
            assert!(seen == lines, "{which}: the tracer saw another stream");
        }
        if let Some(c) = &one.out.check {
            assert_eq!(format!("{c:?}"), check, "{which}");
        }
        if let Some(o) = &one.out.obs {
            assert_eq!(o.to_json(), obs, "{which}");
        }
        assert_eq!(
            (one.out.check.is_some(), one.out.obs.is_some()),
            (checked, observed)
        );
    }
    // The folds agree with each other: what the obs tallies count is what
    // the tracer was shown.
    let count = |tag: &str| lines.iter().filter(|l| l.contains(tag)).count() as u64;
    let nodes = &all.out.obs.as_ref().expect("observed").nodes;
    let tally = |f: fn(&rmac::obs::NodeObs) -> u64| nodes.iter().map(f).sum::<u64>();
    assert_eq!(tally(|n| n.submitted), count("\"ev\":\"submit\""));
    assert_eq!(tally(|n| n.delivered), count("\"ev\":\"deliver\""));
    assert_eq!(tally(|n| n.tx.iter().sum()), count("\"ev\":\"tx_done\""));
    assert_eq!(tally(|n| n.tx_aborted), count("\"aborted\":true"));
    assert_eq!(tally(|n| n.rx_ok.iter().sum()), count("\"ok\":true"));
    assert_eq!(tally(|n| n.rx_corrupt.iter().sum()), count("\"ok\":false"));
    let checked = all.out.check.as_ref().expect("checked");
    assert_eq!(checked.tx_checked, count("\"ev\":\"tx_start\""));
    assert_eq!(checked.rx_ok_checked, count("\"ok\":true"));
    assert_eq!(checked.tone_emissions, count("\"on\":true"));
}

/// An observable is reported before the node's MAC reacts to it: the
/// receiver's RBT raise follows the `rx` of the MRTS that asked for it, in
/// the same instant.
#[test]
fn an_event_is_reported_before_the_mac_reacts_to_it() {
    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::default();
    let sink = Arc::clone(&events);
    Run::new(&cfg(), Protocol::Rmac, 9)
        .tracer(Box::new(move |e| sink.lock().unwrap().push(e.clone())))
        .execute();
    let events = events.lock().unwrap();
    let heard = |upto: usize, kind: FrameKind| {
        let (t, node) = (events[upto].t, events[upto].node);
        events[..upto]
            .iter()
            .rev()
            .take_while(|e| e.t == t)
            .any(|e| matches!(&e.what, TraceWhat::Rx { frame, ok: true } if e.node == node && frame.kind == kind))
    };
    let mut raises = [0, 0];
    for (i, e) in events.iter().enumerate() {
        match e.what {
            TraceWhat::ToneEmit {
                tone: Tone::Rbt,
                on: true,
            } => {
                assert!(heard(i, FrameKind::Mrts), "{e}: no MRTS before the raise");
                raises[0] += 1;
            }
            TraceWhat::ToneEmit {
                tone: Tone::Abt,
                on: true,
            } => raises[1] += 1,
            _ => {}
        }
    }
    assert!(raises[0] > 10 && raises[1] > 10, "{raises:?} tone raises");
}
