//! Event-loop self-profiling.
//!
//! A [`KernelProfiler`] classifies every dispatched simulation event into
//! an embedder-defined class (PHY frame end, MAC timer, beacon, …) and
//! accumulates a per-class count plus, when wall-clock timing is enabled,
//! a log-bucketed histogram of the dispatch's wall time. Wall-clock
//! readings live entirely outside the simulation's determinism domain —
//! they are taken around the dispatch, never fed back into it.

use rmac_wire::json;

use crate::hist::LogHistogram;

/// Per-event-class dispatch profile.
#[derive(Clone, Debug)]
pub struct KernelProfiler {
    labels: &'static [&'static str],
    wall: bool,
    counts: Vec<u64>,
    wall_ns: Vec<LogHistogram>,
}

impl KernelProfiler {
    /// A profiler over the given event classes. `wall` enables wall-clock
    /// histograms (the embedder takes the actual readings).
    pub fn new(labels: &'static [&'static str], wall: bool) -> KernelProfiler {
        KernelProfiler {
            labels,
            wall,
            counts: vec![0; labels.len()],
            wall_ns: vec![LogHistogram::new(); labels.len()],
        }
    }

    /// Whether the embedder should take wall-clock readings.
    #[inline]
    pub fn wall_enabled(&self) -> bool {
        self.wall
    }

    /// Count one dispatch of `class` without a timing.
    #[inline]
    pub fn count(&mut self, class: usize) {
        self.counts[class] += 1;
    }

    /// Count one dispatch of `class` that took `ns` wall-clock nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, class: usize, ns: u64) {
        self.counts[class] += 1;
        self.wall_ns[class].record(ns);
    }

    /// The class labels.
    pub fn labels(&self) -> &'static [&'static str] {
        self.labels
    }

    /// Dispatch count for one class.
    pub fn class_count(&self, class: usize) -> u64 {
        self.counts[class]
    }

    /// Wall-time histogram for one class.
    pub fn class_wall(&self, class: usize) -> &LogHistogram {
        &self.wall_ns[class]
    }

    /// The profile written into an object: whether wall clocks ran, then
    /// each class's count and wall-time histogram, keyed by label.
    pub fn write_json(&self, o: &mut json::Obj<'_>) {
        o.bool("wall_clock", self.wall).obj("classes", |o| {
            for (i, label) in self.labels.iter().enumerate() {
                o.obj(label, |o| {
                    o.u64("count", self.counts[i])
                        .obj("wall_ns", |o| self.wall_ns[i].write_json(o));
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LABELS: [&str; 3] = ["phy", "timer", "beacon"];

    #[test]
    fn counts_without_wall_clock() {
        let mut k = KernelProfiler::new(&LABELS, false);
        assert!(!k.wall_enabled());
        k.count(0);
        k.count(0);
        k.count(2);
        assert_eq!(k.class_count(0), 2);
        assert_eq!(k.class_count(1), 0);
        assert!(k.class_wall(0).is_empty());
    }

    #[test]
    fn wall_records_feed_histograms() {
        let mut k = KernelProfiler::new(&LABELS, true);
        k.record_ns(1, 500);
        k.record_ns(1, 700);
        assert_eq!(k.class_count(1), 2);
        assert_eq!(k.class_wall(1).sum(), 1200);
    }

    #[test]
    fn json_keys_every_class() {
        let k = KernelProfiler::new(&LABELS, true);
        let j = json::object(|o| k.write_json(o));
        for l in LABELS {
            assert!(j.contains(l));
        }
        assert!(j.contains("\"wall_clock\":true"));
    }
}
