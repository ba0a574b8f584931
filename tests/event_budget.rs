//! The event budget of the backoff countdown, of the busy tones and of
//! frame onsets, the frame-handle budget of a fan-out, and the geometry
//! budget of a mobile run, by count.
//!
//! A countdown is a hop, a look at its expiry and one look per busy edge
//! (`rmac_core::backoff`), where it used to be one `BackoffSlot` event per
//! 20 µs slot — 30–64 % of all events. A tone edge is a record at each
//! receiver and an event only for a receiver whose MAC can act on it
//! (`rmac_phy::tone`), where it used to be one `ToneEdge` event per receiver
//! — 46–52 % of the events the countdown left. A frame's first bit is a
//! record at each receiver too, and an event only for a receiver whose MAC
//! is counting slots or waiting for that bit (`rmac_phy::channel`), where it
//! used to be one `FrameArriveStart` event per receiver — 32–39 % of the
//! events the tones left. Wall clock cannot hold any of them on a 1-core CI
//! container; the dispatch counts are exact, so they can:
//!
//! * `BackoffSlot` dispatches stay at or under 2 per transmitted frame (4.5
//!   for RMAC: 1.3 and 3.0 today, where a tick per slot is 15 and more — a
//!   draw from CW ≥ 31 per frame), so a return to per-slot ticking fails
//!   here. Per frame and not per event: every cut in `events` would
//!   otherwise tighten a budget it has nothing to do with;
//! * `ToneEdge` dispatches stay at or under 15 % of RMAC's `events`, so a
//!   return to one event per receiver per edge fails here;
//! * `FrameArriveStart` dispatches stay at or under 15 % of `events` (8 %
//!   for RMAC, 2 % for BMMM today, where one per receiver per frame was
//!   32 % and 39 %), so a return to one event per onset fails here;
//! * the frame handles the engine clones for `FrameRx` (the obs gauge
//!   `engine.frame_rx_clones`) stay at or under 1.05 per transmitted frame
//!   (1.008 for RMAC, 1.009 under motion, 1.011 for BMMM today: a
//!   transmission's ends are re-addressed while they follow each other, and
//!   only an end of another frame in between costs a second clone), where a
//!   clone per frame end was 7.3 and 7.5, so a return to a clone per
//!   receiver fails here;
//! * every protocol-visible `RunReport` field equals the value the per-slot,
//!   event-per-edge engine produced (pinned from the commit before the
//!   countdown slept; the mobile RMAC report from the commit before tone
//!   presence became a record), so a drifted tie rule — which boundary
//!   counts when an edge lands on it, what a query sees of an edge in its
//!   own instant — fails here too. BMW, LBP and 802.11MX are pinned the same
//!   way (from the commit before they moved onto the shared 802.11 station),
//!   so all five MACs have a bit-level pin. One digit string is re-pinned:
//!   `e2e_delay_avg_s` moved in its last bits when the mean became one
//!   exact nanosecond sum divided once, where it had summed each reception's
//!   seconds in node order (by at most 8·10⁻¹⁵ relative here).
//!
//! The same goes for the work behind a receiver set. Under motion a fill
//! walks the source's neighbour list, and list and buckets are rebuilt once
//! per reuse horizon (`rmac_phy::grid`: 0.59 s at 8 m/s), where every fill
//! used to re-bucket all 75 movers and then scan the cells around the
//! source — more position evaluations than the brute-force scan it replaced:
//!
//! * bucket refreshes stay at or under one per horizon of simulated time and
//!   list rebuilds at or under one per node per horizon;
//! * position evaluations per fill stay at or under twice the receivers a
//!   fill finds plus 4 (15.6 for 9.3 receivers today; a pass over 75 movers
//!   and a scan of ~24 candidates per fill before), so a return to per-fill
//!   rescans fails here.
//!
//! `events` and `sim_secs` are the two fields that describe the event
//! population rather than the protocol (`sim_secs` is the timestamp of the
//! last event dispatched before the end time: with per-slot ticks that was
//! usually a tick); both are blanked before the comparison.

use rmac::prelude::*;

/// What one replication is held to: the report with the two
/// event-population fields blanked, the countdown timers dispatched per
/// transmitted frame, and the shares of all dispatched events that are tone
/// edges and frame onsets.
struct Budget {
    report: String,
    countdown: f64,
    tone_edges: f64,
    frame_starts: f64,
    /// Frame handles the engine cloned for `FrameRx`, per transmitted frame.
    frame_clones: f64,
}

/// One 75-node stationary replication under the obs layer.
fn replicate(protocol: Protocol) -> Budget {
    replicate_in(ScenarioConfig::paper_stationary(20.0), protocol)
}

fn replicate_in(cfg: ScenarioConfig, protocol: Protocol) -> Budget {
    let cfg = cfg.with_packets(100);
    let out = Run::new(&cfg, protocol, 7)
        .obs(ObsConfig::default())
        .execute();
    let obs = out.obs.expect("obs attached");
    assert_eq!(obs.timer_labels[0], "backoff_slot");
    let countdown: u64 = obs
        .nodes
        .iter()
        .map(|n| n.timer_fire[0] + n.timer_stale[0])
        .sum();
    assert_eq!(obs.kernel.labels()[0], "phy.frame_start");
    assert_eq!(obs.kernel.labels()[3], "phy.tone_edge");
    let events = out.report.events as f64;
    let frames: u64 = out.report.tx_frames.iter().sum();
    let clones = obs
        .gauges
        .iter()
        .find(|(n, _)| *n == "engine.frame_rx_clones");
    let clones = clones.expect("the frame-handle gauge").1;
    let report = RunReport {
        events: 0,
        sim_secs: 0.0,
        ..out.report
    };
    Budget {
        report: format!("{report:?}"),
        countdown: countdown as f64 / frames as f64,
        tone_edges: obs.kernel.class_count(3) as f64 / events,
        frame_starts: obs.kernel.class_count(0) as f64 / events,
        frame_clones: clones as f64 / frames as f64,
    }
}

impl Budget {
    /// Tone edges and frame onsets reach the event loop for the few
    /// receivers that can act on them, not for every receiver in range, and
    /// a transmission's frame ends share about one frame handle.
    fn signals_within_budget(&self) {
        let (tone_edges, frame_starts) = (self.tone_edges, self.frame_starts);
        let frame_clones = self.frame_clones;
        assert!(
            frame_clones <= 1.05,
            "{frame_clones:.3} FrameRx frame clones per transmitted frame"
        );
        assert!(
            tone_edges <= 0.15,
            "ToneEdge is {tone_edges:.3} of all events"
        );
        assert!(
            frame_starts <= 0.15,
            "FrameArriveStart is {frame_starts:.3} of all events"
        );
    }
}

#[test]
fn rmac_countdown_sleeps_and_reports_as_the_slot_loop_did() {
    let run = replicate(Protocol::Rmac);
    let countdown = run.countdown;
    assert!(
        countdown <= 4.5,
        "{countdown:.3} BackoffSlot timers per transmitted frame"
    );
    run.signals_within_budget();
    assert_eq!(run.report, RMAC_PINNED);
}

/// Under motion a tone's audibility is fixed at its onset and the spatial
/// grid is re-bucketed as the run goes: the records must say what the
/// per-receiver events said there too.
#[test]
fn mobile_rmac_keeps_the_tone_budget_and_reports_as_the_edge_events_did() {
    let run = replicate_in(ScenarioConfig::paper_speed2(20.0), Protocol::Rmac);
    run.signals_within_budget();
    assert_eq!(run.report, RMAC_SPEED2_PINNED);
}

/// The geometry budget (module doc): what the spatial index evaluates per
/// fill on the paper's fastest scenario, from the obs registry's counters.
#[test]
fn mobile_geometry_is_reused_for_a_horizon() {
    let cfg = ScenarioConfig::paper_speed2(10.0).with_packets(100);
    let out = Run::new(&cfg, Protocol::Rmac, 7)
        .obs(ObsConfig::default())
        .execute();
    let obs = out.obs.expect("obs attached");
    let counter = |name: &str| {
        let found = obs.counters.iter().find(|(n, _)| *n == name);
        found.unwrap_or_else(|| panic!("no counter {name}")).1 as f64
    };
    let nodes = cfg.nodes as f64;
    let horizon = rmac::phy::reuse_horizon(rmac::wire::consts::RANGE_M, 8.0).as_secs_f64();
    let horizons = out.report.sim_secs / horizon + 1.0;
    let (refreshes, rebuilds) = (counter("grid.refreshes"), counter("grid.list_rebuilds"));
    assert!(
        refreshes <= horizons,
        "{refreshes} refreshes in {horizons:.1} horizons"
    );
    assert!(
        rebuilds <= nodes * horizons,
        "{rebuilds} list rebuilds in {horizons:.1} horizons"
    );

    let fills = counter("grid.queries");
    // A refresh evaluates every node, a rebuild and a fill their source, and
    // `grid.list_candidates` counts the rest.
    let evaluations =
        (refreshes + 1.0) * nodes + rebuilds + fills + counter("grid.list_candidates");
    let receivers = counter("phy.tone_records") + counter("phy.frame_onsets");
    let (per_fill, found) = (evaluations / fills, receivers / fills);
    assert!(
        fills > 10_000.0 && found > 5.0,
        "{fills} fills finding {found:.1} receivers"
    );
    assert!(
        per_fill <= 2.0 * found + 4.0,
        "{per_fill:.1} position evaluations per fill finding {found:.1} receivers"
    );
}

#[test]
fn bmmm_countdown_sleeps_and_reports_as_the_slot_loop_did() {
    let run = replicate(Protocol::Bmmm);
    let countdown = run.countdown;
    assert!(
        countdown <= 2.0,
        "{countdown:.3} BackoffSlot timers per transmitted frame"
    );
    run.signals_within_budget();
    assert_eq!(run.report, BMMM_PINNED);
}

/// BMW, LBP and 802.11MX run the same DCF countdown on the same 802.11
/// station as BMMM (`rmac_baselines::station`); they dispatch a little more
/// than its budget of countdown timers (2.2–2.7 per transmitted frame: fewer
/// frames per packet than BMMM, the same contention), so only their reports
/// are held. Recorded at the commit before the station was shared. The session-guard
/// fix (DESIGN.md §6) moves these three protocols and no other; it did
/// not happen to move this replication (its entry in CHANGES.md).
#[test]
fn bmw_lbp_and_mx_report_as_pinned() {
    for (protocol, pinned) in [
        (Protocol::Bmw, BMW_PINNED),
        (Protocol::Lbp, LBP_PINNED),
        (Protocol::Mx80211, MX_PINNED),
    ] {
        assert_eq!(replicate(protocol).report, pinned);
    }
}

const RMAC_PINNED: &str = "\
    RunReport { protocol: \"RMAC\", scenario: \"stationary\", rate_pps: 20.0, seed: 7, \
    packets_sent: 100, expected_receptions: 7400, receptions: 7400, nonleaf_nodes: 35, \
    drop_ratio_avg: 0.0, retx_ratio_avg: 0.19577577751368885, \
    txoh_ratio_avg: 0.22095451144031253, abort_avg: 0.004102246959389817, \
    abort_p99: 0.09595959595959595, abort_max: 0.09595959595959595, \
    mrts_len_avg: 24.96294363256785, mrts_len_p99: 78.0, mrts_len_max: 78.0, \
    e2e_delay_avg_s: 0.017564133354729727, delay_samples: 7400, \
    hops_avg: 4.405405405405405, hops_p99: 8.0, children_avg: 2.3125, children_p99: 11.0, \
    events: 0, tx_frames: [3832, 0, 0, 0, 0, 0, 0, 3428, 2973], tx_aborted: 22, \
    rx_frames_ok: [24532, 0, 0, 0, 0, 0, 0, 21369, 19284], rx_frames_corrupt: [4518, 0, 0, \
    0, 0, 0, 0, 4609, 354], sim_secs: 0.0, faults_injected: 0, fault_crashes: 0, \
    fault_jam_bursts: 0 }";

const RMAC_SPEED2_PINNED: &str = "\
    RunReport { protocol: \"RMAC\", scenario: \"speed2\", rate_pps: 20.0, seed: 7, \
    packets_sent: 100, expected_receptions: 7400, receptions: 5426, nonleaf_nodes: 48, \
    drop_ratio_avg: 0.14665729251255566, retx_ratio_avg: 1.2569488686551349, \
    txoh_ratio_avg: 0.4005456442974165, abort_avg: 0.0010636892177589851, \
    abort_p99: 0.046511627906976744, abort_max: 0.046511627906976744, \
    mrts_len_avg: 22.498032602585724, mrts_len_p99: 90.0, mrts_len_max: 102.0, \
    e2e_delay_avg_s: 0.06473610559601917, delay_samples: 5426, \
    hops_avg: 3.136986301369863, hops_p99: 9.0, children_avg: 3.0416666666666665, \
    children_p99: 9.0, events: 0, tx_frames: [5337, 0, 0, 0, 0, 0, 0, 2300, 2973], \
    tx_aborted: 5, rx_frames_ok: [41089, 0, 0, 0, 0, 0, 0, 16064, 24699], \
    rx_frames_corrupt: [7376, 0, 0, 0, 0, 0, 0, 5268, 465], sim_secs: 0.0, \
    faults_injected: 0, fault_crashes: 0, fault_jam_bursts: 0 }";

const BMMM_PINNED: &str = "\
    RunReport { protocol: \"BMMM\", scenario: \"stationary\", rate_pps: 20.0, seed: 7, \
    packets_sent: 100, expected_receptions: 7400, receptions: 6869, nonleaf_nodes: 36, \
    drop_ratio_avg: 0.0005912842190016102, retx_ratio_avg: 0.3647993830011748, \
    txoh_ratio_avg: 0.9134949224167621, abort_avg: 0.0, abort_p99: 0.0, abort_max: 0.0, \
    mrts_len_avg: 0.0, mrts_len_p99: 0.0, mrts_len_max: 0.0, \
    e2e_delay_avg_s: 0.03411856743135828, delay_samples: 6869, \
    hops_avg: 4.405405405405405, hops_p99: 8.0, children_avg: 2.3125, children_p99: 11.0, \
    events: 0, tx_frames: [0, 9195, 3144, 7101, 7042, 0, 0, 3114, 2973], tx_aborted: 0, \
    rx_frames_ok: [0, 65136, 18326, 55460, 44603, 0, 0, 19093, 18969], \
    rx_frames_corrupt: [0, 10940, 1778, 3858, 1707, 0, 0, 4419, 669], sim_secs: 0.0, \
    faults_injected: 0, fault_crashes: 0, fault_jam_bursts: 0 }";

const BMW_PINNED: &str = "\
    RunReport { protocol: \"BMW\", scenario: \"stationary\", rate_pps: 20.0, seed: 7, \
    packets_sent: 100, expected_receptions: 7400, receptions: 7281, nonleaf_nodes: 35, \
    drop_ratio_avg: 0.004002886002886003, retx_ratio_avg: 3.0170613286306587, \
    txoh_ratio_avg: 0.9118718111830917, abort_avg: 0.0, abort_p99: 0.0, abort_max: 0.0, \
    mrts_len_avg: 0.0, mrts_len_p99: 0.0, mrts_len_max: 0.0, e2e_delay_avg_s: \
    1.9384218616096691, delay_samples: 7281, hops_avg: 4.405405405405405, hops_p99: 8.0, \
    children_avg: 2.3125, children_p99: 11.0, events: 0, tx_frames: [0, 17340, 7758, 0, \
    3534, 0, 0, 3349, 2973], tx_aborted: 0, rx_frames_ok: [0, 138135, 48426, 0, 20099, 0, \
    0, 20007, 18909], rx_frames_corrupt: [0, 12804, 2399, 0, 2273, 0, 0, 5292, 729], \
    sim_secs: 0.0, faults_injected: 0, fault_crashes: 0, fault_jam_bursts: 0 }";

const LBP_PINNED: &str = "\
    RunReport { protocol: \"LBP\", scenario: \"stationary\", rate_pps: 20.0, seed: 7, \
    packets_sent: 100, expected_receptions: 7400, receptions: 7033, nonleaf_nodes: 34, \
    drop_ratio_avg: 0.0, retx_ratio_avg: 0.5228194550862018, txoh_ratio_avg: \
    0.38325432755211664, abort_avg: 0.0, abort_p99: 0.0, abort_max: 0.0, mrts_len_avg: 0.0, \
    mrts_len_p99: 0.0, mrts_len_max: 0.0, e2e_delay_avg_s: 0.02129681044120574, \
    delay_samples: 7033, hops_avg: 4.405405405405405, hops_p99: 8.0, children_avg: 2.3125, \
    children_p99: 11.0, events: 0, tx_frames: [0, 4496, 3592, 0, 3361, 0, 468, 3467, 2973], \
    tx_aborted: 0, rx_frames_ok: [0, 27058, 20468, 0, 19019, 0, 984, 21078, 19148], \
    rx_frames_corrupt: [0, 7613, 2031, 0, 1927, 0, 2503, 5454, 490], sim_secs: 0.0, \
    faults_injected: 0, fault_crashes: 0, fault_jam_bursts: 0 }";

const MX_PINNED: &str = "\
    RunReport { protocol: \"802.11MX\", scenario: \"stationary\", rate_pps: 20.0, seed: 7, \
    packets_sent: 100, expected_receptions: 7400, receptions: 6991, nonleaf_nodes: 37, \
    drop_ratio_avg: 0.0, retx_ratio_avg: 0.3571157906653724, txoh_ratio_avg: \
    0.3341652117594053, abort_avg: 0.0, abort_p99: 0.0, abort_max: 0.0, mrts_len_avg: 0.0, \
    mrts_len_p99: 0.0, mrts_len_max: 0.0, e2e_delay_avg_s: 0.019306132781862394, \
    delay_samples: 6991, hops_avg: 4.405405405405405, hops_p99: 8.0, children_avg: 2.3125, \
    children_p99: 11.0, events: 0, tx_frames: [0, 3962, 3108, 0, 0, 0, 0, 3088, 2973], \
    tx_aborted: 0, rx_frames_ok: [0, 25199, 18223, 0, 0, 0, 0, 19321, 19197], \
    rx_frames_corrupt: [0, 4845, 1372, 0, 0, 0, 0, 3979, 441], sim_secs: 0.0, \
    faults_injected: 0, fault_crashes: 0, fault_jam_bursts: 0 }";
