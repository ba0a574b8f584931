//! The observability layer's determinism laws (property-based).
//!
//! 1. **Bit-identity**: a fully instrumented run — snapshot sampler,
//!    wall-clock kernel profiling, and a JSONL trace streaming through the
//!    level filter — produces a `RunReport` bit-identical to the plain
//!    `Run` of the same seed. Instrumentation observes the
//!    simulation; it must never steer it.
//! 2. **Schema**: every trace line the sink writes parses back through the
//!    documented JSONL schema, none are silently dropped, and the parsed
//!    line count matches the sink's own tally.
//! 3. **Reproducibility**: with wall clocks off, the rendered `ObsReport`
//!    JSON itself is a pure function of the seed.

use proptest::prelude::*;
use rmac::engine::{filter_tracer, JsonlSink, TraceEvent};
use rmac::prelude::*;

/// Small but connected: the paper's node density on a shrunken plane, so
/// reliable multicast traffic (not just beacons) flows in every case.
fn cfg() -> ScenarioConfig {
    ScenarioConfig::paper_stationary(10.0)
        .with_nodes(15)
        .with_packets(8)
}

/// Every run here also carries the conformance checker, asserted clean.
fn run(seed: u64) -> Run {
    Run::new(&cfg(), Protocol::Rmac, seed).check()
}

/// One fully instrumented run: returns the report plus the sink's summary
/// and the written trace text.
fn instrumented(seed: u64) -> (RunReport, ObsReport, u64, String) {
    let path = std::env::temp_dir().join(format!("rmac_obs_determinism_{seed}.jsonl"));
    let sink = JsonlSink::create(&path).expect("create trace sink");
    let out = run(seed)
        .tracer(filter_tracer(TraceLevel::Signal, sink.tracer()))
        .obs(ObsConfig::full(SimTime::from_millis(250)))
        .execute()
        .assert_clean();
    let (report, obs) = (out.report, out.obs);
    let summary = sink.finish().expect("flush trace sink");
    assert_eq!(summary.dropped, 0, "trace lines dropped on write");
    let text = std::fs::read_to_string(&path).expect("read trace back");
    let _ = std::fs::remove_file(&path);
    (report, obs.expect("obs attached"), summary.written, text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn full_instrumentation_is_bit_identical(seed in 0u64..256) {
        let base = run(seed).execute().assert_clean().report;
        let (report, obs, written, text) = instrumented(seed);
        prop_assert_eq!(&base, &report);

        // The run actually produced protocol traffic worth observing.
        prop_assert!(report.packets_sent > 0, "scenario generated no packets");
        prop_assert!(written > 0, "tracer saw no events");
        prop_assert!(!obs.snapshots.is_empty(), "sampler took no snapshots");

        // Every written line obeys the documented schema.
        let mut parsed = 0u64;
        for (i, line) in text.lines().enumerate() {
            let read = TraceEvent::from_json(line);
            prop_assert!(read.is_ok(), "trace line {} is off the schema: {} ({:?})", i + 1, line, read);
            parsed += 1;
        }
        prop_assert_eq!(parsed, written);
    }

    #[test]
    fn counting_obs_report_is_reproducible(seed in 0u64..256) {
        // Wall clocks off (ObsConfig::default()): the whole ObsReport,
        // rendered to JSON, must be a pure function of the seed.
        let counting = |seed| run(seed).obs(ObsConfig::default()).execute().assert_clean();
        let (a, b) = (counting(seed), counting(seed));
        prop_assert_eq!(&a.report, &b.report);
        prop_assert_eq!(a.obs.expect("obs a").to_json(), b.obs.expect("obs b").to_json());
        // And counting-only obs is as bit-identical as the full stack.
        prop_assert_eq!(&a.report, &Run::new(&cfg(), Protocol::Rmac, seed).execute().report);
    }
}

/// The trace level filter composes with the sink: a Protocol-level trace is
/// a strict subset of the Signal-level trace for the same seed.
#[test]
fn protocol_level_is_subset_of_signal_level() {
    let trace_at = |level| {
        let path = std::env::temp_dir().join(format!("rmac_obs_level_{level:?}.jsonl"));
        let sink = JsonlSink::create(&path).expect("create sink");
        run(11)
            .tracer(filter_tracer(level, sink.tracer()))
            .execute()
            .assert_clean();
        let n = sink.finish().expect("flush").written;
        let _ = std::fs::remove_file(&path);
        n
    };
    let protocol = trace_at(TraceLevel::Protocol);
    let frames = trace_at(TraceLevel::Frames);
    let signal = trace_at(TraceLevel::Signal);
    assert!(protocol > 0);
    assert!(protocol < frames, "Frames must add tx/rx events");
    assert!(frames < signal, "Signal must add tone/carrier events");
}
