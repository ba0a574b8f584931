//! Execution tracing: the engine's name for the observation stream.
//!
//! A [`Tracer`] attached to a run ([`Run::tracer`](crate::Run::tracer)) sees
//! every [`TraceEvent`] the event loop reports, in dispatch order — the raw
//! material for protocol timelines like the paper's Fig. 4 (MRTS → RBT →
//! DATA → ordered ABTs), reproduced executable in `examples/fig4_timeline.rs`.
//! The vocabulary, its JSONL schema and the [`TraceLevel`]s that thin it are
//! [`rmac_phy::trace`]'s, re-exported here; this module adds the file sink.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

pub use rmac_phy::trace::{
    filter_tracer, render_timeline, Carried, FaultKind, FrameHead, TraceEvent, TraceLevel,
    TraceWhat, Tracer,
};

/// What a [`JsonlSink`] did over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkSummary {
    /// Lines successfully handed to the (buffered) writer.
    pub written: u64,
    /// Events dropped because a write failed.
    pub dropped: u64,
}

/// The file (until [`JsonlSink::finish`] takes it) and the totals so far.
struct SinkState {
    out: Option<BufWriter<File>>,
    totals: SinkSummary,
}

/// A JSON-lines trace file that *accounts for* I/O failures instead of
/// swallowing them: every failed write bumps a drop counter, and
/// [`JsonlSink::finish`] flushes and reports the totals so a run can
/// refuse to trust an incomplete trace.
pub struct JsonlSink {
    shared: Arc<Mutex<SinkState>>,
}

impl JsonlSink {
    /// Create (truncate) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let (out, totals) = (
            Some(BufWriter::new(File::create(path)?)),
            SinkSummary::default(),
        );
        let shared = Arc::new(Mutex::new(SinkState { out, totals }));
        Ok(JsonlSink { shared })
    }

    /// A [`Tracer`] writing into this sink. May be called more than once;
    /// all tracers share the file and the counters.
    pub fn tracer(&self) -> Tracer {
        let shared = Arc::clone(&self.shared);
        Box::new(move |ev: &TraceEvent| {
            let mut sink = shared.lock().expect("sink lock poisoned");
            // After finish() the event has nowhere to go.
            let wrote = sink
                .out
                .as_mut()
                .map(|out| writeln!(out, "{}", ev.to_json()));
            if matches!(wrote, Some(Ok(()))) {
                sink.totals.written += 1;
            } else {
                sink.totals.dropped += 1;
            }
        })
    }

    /// Lines written and events dropped on write failure so far.
    pub fn totals(&self) -> SinkSummary {
        self.shared.lock().expect("sink lock poisoned").totals
    }

    /// Flush and close the file, returning the totals. A flush failure is
    /// an error — buffered lines may not have reached disk.
    pub fn finish(self) -> io::Result<SinkSummary> {
        if let Some(mut out) = self.shared.lock().expect("sink lock poisoned").out.take() {
            out.flush()?;
        }
        Ok(self.totals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmac_sim::SimTime;
    use rmac_wire::NodeId;

    fn ev(what: TraceWhat) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_micros(5),
            node: NodeId(3),
            what,
        }
    }

    #[test]
    fn sink_counts_writes_and_finishes_clean() {
        let dir = std::env::temp_dir().join("rmac_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sink.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        let mut t = sink.tracer();
        t(&ev(TraceWhat::Fault(FaultKind::Crash)));
        t(&ev(TraceWhat::Carrier { busy: false }));
        assert_eq!((sink.totals().written, sink.totals().dropped), (2, 0));
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
        assert_eq!(shared.lock().unwrap().totals.dropped, 1);
    }
}
