//! The periodic snapshot sampler.
//!
//! A [`Sampler`] turns one run into a deterministic time series: at every
//! multiple of its sim-time period it records a [`Snapshot`] of cumulative
//! run state. Sampling is driven by the *simulation clock* and implemented
//! outside the event queue — the engine checks, before dispatching each
//! event, whether the event's timestamp crosses the next sample boundary —
//! so enabling it schedules nothing, draws from no RNG stream, and leaves
//! the popped-event count untouched. Every field is derived from
//! deterministic simulation state; a sampled run's `RunReport` is
//! bit-identical to an unsampled one.

use rmac_wire::json;

/// One point of the sampled time series. All counters are cumulative
/// since the start of the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Sample boundary this snapshot belongs to (sim time, ns).
    pub t_ns: u64,
    /// Events popped from the queue so far.
    pub events: u64,
    /// Pending events in the queue.
    pub queue_len: u64,
    /// Queue depth high-water mark so far.
    pub queue_high_water: u64,
    /// Frames transmitted by protocol nodes (all kinds).
    pub tx_frames: u64,
    /// Clean frame receptions.
    pub rx_ok: u64,
    /// Corrupted frame receptions.
    pub rx_corrupt: u64,
    /// Application-level packet receptions (network layer).
    pub receptions: u64,
    /// Node crashes executed by the fault plane.
    pub crashes: u64,
    /// Jamming bursts emitted by the fault plane.
    pub jam_bursts: u64,
}

impl Snapshot {
    /// One flat JSON line (the snapshot schema).
    pub fn to_json(&self) -> String {
        json::object(|o| self.write_json(o))
    }

    /// The snapshot's members, written into an object.
    pub fn write_json(&self, o: &mut json::Obj<'_>) {
        o.u64("t_ns", self.t_ns)
            .u64("events", self.events)
            .u64("queue_len", self.queue_len)
            .u64("queue_high_water", self.queue_high_water)
            .u64("tx_frames", self.tx_frames)
            .u64("rx_ok", self.rx_ok)
            .u64("rx_corrupt", self.rx_corrupt)
            .u64("receptions", self.receptions)
            .u64("crashes", self.crashes)
            .u64("jam_bursts", self.jam_bursts);
    }
}

/// Fixed-period snapshot collection over one run.
#[derive(Clone, Debug)]
pub struct Sampler {
    period_ns: u64,
    next_ns: u64,
    /// The collected series, ascending in `t_ns`.
    pub series: Vec<Snapshot>,
}

impl Sampler {
    /// A sampler firing every `period_ns` of sim time, starting at 0.
    pub fn new(period_ns: u64) -> Sampler {
        Sampler {
            period_ns: period_ns.max(1),
            next_ns: 0,
            series: Vec::new(),
        }
    }

    /// Whether a sample boundary lies at or before `t_ns`. The embedder
    /// calls this with the next event's timestamp before dispatching it.
    #[inline]
    pub fn due(&self, t_ns: u64) -> bool {
        t_ns >= self.next_ns
    }

    /// The boundary the next snapshot belongs to (its `t_ns`).
    pub fn next_boundary_ns(&self) -> u64 {
        self.next_ns
    }

    /// Append a snapshot for the current boundary and advance to the next.
    pub fn record(&mut self, snap: Snapshot) {
        self.series.push(snap);
        self.next_ns += self.period_ns;
    }

    /// The configured period (ns).
    pub fn period_ns(&self) -> u64 {
        self.period_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_line_reads_back_with_the_workspace_json_reader() {
        let s = Snapshot {
            t_ns: 1_000_000,
            events: 42,
            queue_len: 7,
            queue_high_water: 19,
            tx_frames: 5,
            rx_ok: 9,
            rx_corrupt: 1,
            receptions: 3,
            crashes: 0,
            jam_bursts: 2,
        };
        let v = rmac_wire::json::Json::parse(&s.to_json()).expect("a JSON object");
        let num = |key| v.uint(key).expect(key);
        let back = Snapshot {
            t_ns: num("t_ns"),
            events: num("events"),
            queue_len: num("queue_len"),
            queue_high_water: num("queue_high_water"),
            tx_frames: num("tx_frames"),
            rx_ok: num("rx_ok"),
            rx_corrupt: num("rx_corrupt"),
            receptions: num("receptions"),
            crashes: num("crashes"),
            jam_bursts: num("jam_bursts"),
        };
        assert_eq!(back, s);
    }

    #[test]
    fn sampler_walks_fixed_boundaries() {
        let mut s = Sampler::new(100);
        assert!(s.due(0));
        s.record(Snapshot::default());
        assert_eq!(s.next_boundary_ns(), 100);
        assert!(!s.due(99));
        assert!(s.due(100));
        assert!(s.due(250));
        s.record(Snapshot::default());
        s.record(Snapshot::default());
        assert_eq!(s.next_boundary_ns(), 300);
        assert_eq!(s.series.len(), 3);
    }

    #[test]
    fn zero_period_is_clamped() {
        let s = Sampler::new(0);
        assert_eq!(s.period_ns(), 1);
    }
}
