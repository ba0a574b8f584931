//! The six workloads and what one child process does for each.
//!
//! A child is one fresh process that generates its inputs from the seed,
//! sets the program up, makes exactly one measured call into it, checks the
//! output and prints a [`ChildReport`] as one JSON line. Peak memory and
//! CPU time are therefore per run. Every call into the program goes
//! through a public function and is wrapped in a span. The measured call is
//! bracketed by the reference kernel, and every host time in the report is
//! scaled to reference speed (see [`crate::reference`]); spans stay raw.

use std::path::Path;
use std::time::Instant;

use rmac_campaign::{load_store, run_campaign, summarize, RunOptions};
use rmac_engine::{
    run_replication_checked, run_replication_sharded_checked, FaultPlan, ObsConfig, ObsReport,
    Runner, ShardedRunner,
};
use rmac_live::{run_loopback_soak, LiveConfig, LoopbackRunner, SoakConfig};
use rmac_metrics::RunReport;
use rmac_wire::NodeId;

use crate::host;
use crate::inputs::{self, Scale, SimInput};
use crate::json::Json;
use crate::layers;
use crate::reference::{self, Bracket};
use crate::span::{span_from_json, span_to_json, Span, Spans};
use crate::stats::median;

/// How often a child repeats its set-up; `setup_s` is the median.
const SETUPS: usize = 25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Dense200Static,
    Paper75Mobile,
    Paper75Bmmm,
    Multicell2000Shard2,
    LiveSoakGe20,
    CampaignGrid,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Dense200Static,
        Workload::Paper75Mobile,
        Workload::Paper75Bmmm,
        Workload::Multicell2000Shard2,
        Workload::LiveSoakGe20,
        Workload::CampaignGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Dense200Static => "dense200_static",
            Workload::Paper75Mobile => "paper75_mobile",
            Workload::Paper75Bmmm => "paper75_bmmm",
            Workload::Multicell2000Shard2 => "multicell2000_shard2",
            Workload::LiveSoakGe20 => "live_soak_ge20",
            Workload::CampaignGrid => "campaign_grid",
        }
    }

    /// Why the workload exists, on one line (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Dense200Static => {
                "RMAC, 200 static nodes at paper density: backoff-slot timers and tone edges dominate, so queue, phy and core do the work while mobility, faults, campaign and live do none"
            }
            Workload::Paper75Mobile => {
                "RMAC, the paper's 75 nodes under speed-2 waypoint mobility: position evaluation, grid re-bucketing and tree repair are hot here and idle in dense200_static"
            }
            Workload::Paper75Bmmm => {
                "BMMM past its saturation knee: the same sim and phy.channel layers driven by RTS/CTS/RAK/ACK frames and NAV timers instead of tones, so a tone or RMAC-timer change predicts no move"
            }
            Workload::Multicell2000Shard2 => {
                "2000 nodes in 8 radio-isolated cells on the sharded engine with 2 shards: the only workload where engine::shard, sim::shard, threads and memory scale matter (host has 2 cores)"
            }
            Workload::LiveSoakGe20 => {
                "rmac-live loopback soak, 2 publishers x 3 subscribers under 20% Gilbert-Elliott loss, closed loop: the same core state machine without engine, phy or the sim queue"
            }
            Workload::CampaignGrid => {
                "48 short cases through run_campaign with obs and checker on: Runner::new, warm-up, drain, faults, store and file I/O dominate instead of the steady event loop"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The four workloads that run one replication of the simulator.
    pub fn is_sim(self) -> bool {
        !matches!(self, Workload::LiveSoakGe20 | Workload::CampaignGrid)
    }

    fn sim_input(self, seed: u64, scale: Scale) -> SimInput {
        match self {
            Workload::Dense200Static => inputs::dense200_static(seed, scale),
            Workload::Paper75Mobile => inputs::paper75_mobile(seed, scale),
            Workload::Paper75Bmmm => inputs::paper75_bmmm(seed, scale),
            Workload::Multicell2000Shard2 => inputs::multicell2000_shard2(seed, scale),
            Workload::LiveSoakGe20 | Workload::CampaignGrid => {
                unreachable!("{} is not a simulator workload", self.name())
            }
        }
    }
}

/// What a child does with the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The end-to-end call, untraced: the only source of end-to-end numbers.
    Timed,
    /// The same replication under the conformance checker (C1 to C5).
    Checked,
    /// The same replication with the kernel profiler attached (serial
    /// engine); for the campaign, the timed call plus resume and query.
    Traced,
    /// `multicell2000_shard2` on the serial engine: the oracle its sharded
    /// report must equal, and the base of its speed-up.
    Serial,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Checked => "checked",
            Mode::Traced => "traced",
            Mode::Serial => "serial",
        }
    }

    pub fn from_name(name: &str) -> Option<Mode> {
        [Mode::Timed, Mode::Checked, Mode::Traced, Mode::Serial]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// What one child measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildReport {
    /// Raw host seconds of the reference kernel: the mean of its run right
    /// before the measured call and its run right after. Every other host
    /// time here has been multiplied by `reference::factor(ref_s)`.
    pub ref_s: f64,
    /// Host seconds of the one measured call.
    pub wall_s: f64,
    /// User + system CPU seconds of the process over the measured call.
    pub cpu_s: f64,
    /// `VmHWM` of the process after the measured call.
    pub peak_rss_mb: f64,
    /// Input generation plus constructors: median of [`SETUPS`] set-ups.
    pub setup_s: f64,
    /// Operations attempted: 1 replication, the packets offered to the
    /// soak, or the campaign's cases.
    pub ops: u64,
    /// Of those, failed: checker violations, undelivered soak packets,
    /// unclean or missing cases.
    pub ops_failed: u64,
    /// Application packets offered.
    pub packets: u64,
    /// Simulated / virtual statistics: deterministic for a seed.
    pub delivery_ratio: f64,
    pub delay_avg_ms: f64,
    /// Hash of the whole output: `RunReport`, `SoakReport` or `store.jsonl`.
    pub fingerprint: u64,
    /// Per-layer numbers this child could read.
    pub layers: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl ChildReport {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ref_s", Json::Num(self.ref_s)),
            ("wall_s", Json::Num(self.wall_s)),
            ("cpu_s", Json::Num(self.cpu_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("setup_s", Json::Num(self.setup_s)),
            ("ops", Json::Num(self.ops as f64)),
            ("ops_failed", Json::Num(self.ops_failed as f64)),
            ("packets", Json::Num(self.packets as f64)),
            ("delivery_ratio", Json::Num(self.delivery_ratio)),
            ("delay_avg_ms", Json::Num(self.delay_avg_ms)),
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(self.spans.iter().map(span_to_json).collect()),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<ChildReport> {
        Some(ChildReport {
            ref_s: doc.f64("ref_s")?,
            wall_s: doc.f64("wall_s")?,
            cpu_s: doc.f64("cpu_s")?,
            peak_rss_mb: doc.f64("peak_rss_mb")?,
            setup_s: doc.f64("setup_s")?,
            ops: doc.f64("ops")? as u64,
            ops_failed: doc.f64("ops_failed")? as u64,
            packets: doc.f64("packets")? as u64,
            delivery_ratio: doc.f64("delivery_ratio")?,
            delay_avg_ms: doc.f64("delay_avg_ms")?,
            fingerprint: u64::from_str_radix(doc.str_of("fingerprint")?, 16).ok()?,
            layers: doc
                .get("layers")?
                .fields()
                .iter()
                .filter_map(|(k, v)| match v {
                    Json::Num(n) => Some((k.clone(), *n)),
                    _ => None,
                })
                .collect(),
            spans: doc.arr("spans").iter().filter_map(span_from_json).collect(),
        })
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Scale every host time measured so far to reference speed: seconds
    /// and nanoseconds are multiplied by `reference::factor(ref_s)`, rates
    /// divided by it; counts, ratios and simulated statistics stay.
    fn scale_to_reference_speed(&mut self) {
        let factor = reference::factor(self.ref_s);
        self.wall_s *= factor;
        self.cpu_s *= factor;
        self.setup_s *= factor;
        for (name, value) in &mut self.layers {
            let unit = match layers::find(name) {
                Some(def) if !def.exact => def.unit,
                // The traced child's raw busy total is not a declared metric.
                None => "s",
                Some(_) => continue,
            };
            match unit {
                "s" | "ns" => *value *= factor,
                "1/s" => *value /= factor,
                _ => {}
            }
        }
    }
}

/// FNV-1a, 64 bits.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// What [`measured`] read around one call.
struct Measured {
    /// The span of the call, for the counts that crossed it.
    span: usize,
    /// Host seconds and process CPU seconds of the call, still at the
    /// host's speed.
    wall_s: f64,
    cpu_s: f64,
    /// Mean host seconds of the reference kernel before and after.
    ref_s: f64,
}

/// One measured call inside a span of the given name, with the reference
/// kernel run right before it and right after.
fn measured<T>(spans: &mut Spans, name: &str, call: impl FnOnce() -> T) -> (T, Measured) {
    let bracket = Bracket::open();
    let cpu_before = host::cpu_seconds();
    let span = spans.begin(name);
    let start = Instant::now();
    let out = call();
    let wall_s = start.elapsed().as_secs_f64();
    spans.end(span);
    let cpu_s = host::cpu_seconds() - cpu_before;
    let m = Measured {
        span,
        wall_s,
        cpu_s,
        ref_s: bracket.close(),
    };
    (out, m)
}

/// Run one child to completion. `scratch` is a directory inside the
/// checkout the child may write to (the campaign store).
pub fn run_child(
    workload: Workload,
    mode: Mode,
    seed: u64,
    scale: Scale,
    scratch: &Path,
) -> ChildReport {
    let mut spans = Spans::new();
    let root = spans.begin(&format!("child.{}", mode.name()));
    let mut report = match workload {
        Workload::LiveSoakGe20 => live_child(&mut spans, seed, scale),
        Workload::CampaignGrid => campaign_child(&mut spans, mode, seed, scale, scratch),
        sim => sim_child(&mut spans, sim, mode, seed, scale),
    };
    report.peak_rss_mb = host::peak_rss_mb();
    report.scale_to_reference_speed();
    report.layers.push(("bench.ref_s".into(), report.ref_s));
    spans.end(root);
    report.spans = spans.all().to_vec();
    report
}

/// The exact reliability and waste numbers of one replication.
fn report_layers(r: &RunReport, layers: &mut Vec<(String, f64)>) {
    let rx_ok: u64 = r.rx_frames_ok.iter().sum();
    let rx_corrupt: u64 = r.rx_frames_corrupt.iter().sum();
    let all_rx = (rx_ok + rx_corrupt).max(1);
    for (name, value) in [
        ("engine.world.events", r.events as f64),
        ("core.rmac.retx_ratio", r.retx_ratio_avg),
        ("core.rmac.drop_ratio", r.drop_ratio_avg),
        ("core.rmac.mrts_abort_avg", r.abort_avg),
        ("core.rmac.txoh_ratio", r.txoh_ratio_avg),
        (
            "phy.channel.tx_frames",
            r.tx_frames.iter().sum::<u64>() as f64,
        ),
        ("phy.channel.tx_aborted", r.tx_aborted as f64),
        (
            "phy.channel.rx_corrupt_frac",
            rx_corrupt as f64 / all_rx as f64,
        ),
    ] {
        layers.push((name.to_string(), value));
    }
}

/// Per-event-class counts and busy seconds from the kernel profiler, and
/// the timer tallies of the per-node counters. Busy seconds have one clock
/// pair per dispatch subtracted (`timer_ns`).
fn obs_layers(obs: &ObsReport, is_rmac: bool, timer_ns: f64, layers: &mut Vec<(String, f64)>) {
    let timer = if is_rmac {
        "core.timer"
    } else {
        "baselines.timer"
    };
    // Indexed like `rmac_engine::obs::EVENT_CLASS_LABELS`.
    let classes = [
        "phy.channel.frame_start",
        "phy.channel.frame_end",
        "phy.channel.tx_complete",
        "phy.tone.edge",
        timer,
        "net.bless.beacon",
        "net.app.source",
        "faults.event",
    ];
    assert_eq!(
        obs.kernel.labels().len(),
        classes.len(),
        "the engine's event classes changed: {:?}",
        obs.kernel.labels()
    );
    let mut raw_busy_ns = 0.0;
    for (i, class) in classes.iter().enumerate() {
        let count = obs.kernel.class_count(i) as f64;
        let raw_ns = obs.kernel.class_wall(i).sum() as f64;
        raw_busy_ns += raw_ns;
        layers.push((format!("{class}.count"), count));
        layers.push((
            format!("{class}.busy_s"),
            (raw_ns - count * timer_ns).max(0.0) * 1e-9,
        ));
    }
    layers.push(("trace.raw_busy_s".into(), raw_busy_ns * 1e-9));
    if is_rmac {
        // Indexed like `rmac_engine::obs::TIMER_LABELS`: 0 is backoff_slot.
        assert_eq!(obs.timer_labels.first(), Some(&"backoff_slot"));
        let slots: u64 = obs
            .nodes
            .iter()
            .map(|n| n.timer_fire[0] + n.timer_stale[0])
            .sum();
        let stale: u64 = obs.nodes.iter().map(|n| n.timer_stale_total()).sum();
        layers.push(("core.timer.backoff_slot.count".into(), slots as f64));
        layers.push(("core.timer.stale.count".into(), stale as f64));
    }
}

fn sim_child(
    spans: &mut Spans,
    workload: Workload,
    mode: Mode,
    seed: u64,
    scale: Scale,
) -> ChildReport {
    let sharded = workload == Workload::Multicell2000Shard2;
    enum Built {
        Serial(Box<Runner>),
        Sharded(Box<ShardedRunner>),
        /// The checked entry points construct their own runner.
        Inside,
    }
    // Set-up, several times in the child that reports it: generate the
    // inputs and construct what the measured call consumes. The last
    // set-up is the one that runs.
    let setups = if mode == Mode::Timed { SETUPS } else { 1 };
    let mut setup = Vec::with_capacity(setups);
    let mut construct = Vec::with_capacity(setups);
    let mut prepared = None;
    for _ in 0..setups {
        let (input, inputs_s) = spans.time("inputs.generate", || workload.sim_input(seed, scale));
        let (built, new_s) = match mode {
            Mode::Checked => (Built::Inside, 0.0),
            Mode::Timed if sharded => spans.time("engine.sharded_runner.new", || {
                Built::Sharded(Box::new(ShardedRunner::new(
                    &input.cfg,
                    input.protocol,
                    input.seed,
                )))
            }),
            _ => spans.time("engine.runner.new", || {
                Built::Serial(Box::new(Runner::new(
                    &input.cfg,
                    input.protocol,
                    input.seed,
                )))
            }),
        };
        setup.push(inputs_s + new_s);
        construct.push(new_s);
        prepared = Some((input, built));
    }
    let (input, built) = prepared.expect("at least one set-up");
    let is_rmac = input.protocol == rmac_engine::Protocol::Rmac;
    let mut layers = Vec::new();
    if matches!(built, Built::Serial(_)) {
        layers.push(("engine.runner.new_s".to_string(), median(&construct)));
    }
    let mut violations = 0u64;
    let (report, m) = match (mode, built) {
        (Mode::Timed | Mode::Serial, Built::Serial(runner)) => {
            measured(spans, "engine.runner.run", || runner.run(input.seed))
        }
        (Mode::Timed, Built::Sharded(runner)) => {
            let ((report, stats), m) = measured(spans, "engine.sharded_runner.run", || {
                runner.run_with_stats()
            });
            layers.push(("engine.shard.groups".into(), stats.groups as f64));
            layers.push(("sim.shard.cross_pushes".into(), stats.cross_pushes as f64));
            (report, m)
        }
        (Mode::Traced, Built::Serial(mut runner)) => {
            let timer_ns = host::timer_ns();
            runner.set_obs(ObsConfig {
                snapshot_period: None,
                kernel_wall: true,
            });
            let ((report, obs), m) = measured(spans, "engine.runner.run_obs", || {
                runner.run_obs(input.seed)
            });
            let obs = obs.expect("set_obs was called");
            obs_layers(&obs, is_rmac, timer_ns, &mut layers);
            layers.push(("bench.timer_ns".into(), timer_ns));
            (report, m)
        }
        (Mode::Checked, Built::Inside) => {
            let plan = FaultPlan::none();
            let ((report, check), m) = if sharded {
                let name = "engine.run_replication_sharded_checked";
                measured(spans, name, || {
                    run_replication_sharded_checked(&input.cfg, input.protocol, input.seed, &plan)
                })
            } else {
                measured(spans, "engine.run_replication_checked", || {
                    run_replication_checked(&input.cfg, input.protocol, input.seed, &plan)
                })
            };
            violations = check.violations.len() as u64;
            for v in check.violations.iter().take(5) {
                eprintln!("{}: violation: {v}", workload.name());
            }
            (report, m)
        }
        (mode, _) => unreachable!("{} has no {} mode", workload.name(), mode.name()),
    };
    report_layers(&report, &mut layers);
    spans.count(m.span, "events", report.events as f64);
    spans.count(m.span, "packets", report.packets_sent as f64);
    ChildReport {
        ref_s: m.ref_s,
        wall_s: m.wall_s,
        cpu_s: m.cpu_s,
        setup_s: median(&setup),
        ops: 1,
        ops_failed: violations.min(1),
        packets: report.packets_sent,
        delivery_ratio: report.delivery_ratio(),
        delay_avg_ms: report.e2e_delay_avg_s * 1e3,
        fingerprint: fingerprint(format!("{report:?}").as_bytes()),
        layers,
        ..ChildReport::default()
    }
}

/// A mesh of the shape `run_loopback_soak` builds from a [`SoakConfig`] (the
/// same node ids, neighbour sets and hub), which the program constructs
/// inside the soak call: built here so that its cost can be read as set-up.
fn soak_mesh(cfg: &SoakConfig) -> LoopbackRunner {
    let all: Vec<NodeId> = (1..=(cfg.publishers + cfg.subscribers) as u16)
        .map(NodeId)
        .collect();
    let configs = all
        .iter()
        .map(|&id| {
            let config = LiveConfig {
                neighbors: all.iter().copied().filter(|&n| n != id).collect(),
                seed: cfg.seed.wrapping_add(u64::from(id.0)),
                ..LiveConfig::default()
            };
            (id, config)
        })
        .collect();
    LoopbackRunner::new(configs, cfg.hub.clone())
}

fn live_child(spans: &mut Spans, seed: u64, scale: Scale) -> ChildReport {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut cfg = None;
    for _ in 0..SETUPS {
        let (input, inputs_s) =
            spans.time("inputs.generate", || inputs::live_soak_ge20(seed, scale));
        let (mesh, new_s) = spans.time("live.loopback_runner.new", || soak_mesh(&input));
        drop(mesh);
        setup.push(inputs_s + new_s);
        cfg = Some(input);
    }
    let cfg = cfg.expect("SETUPS is at least 1");
    let (r, m) = measured(spans, "live.run_loopback_soak", || run_loopback_soak(&cfg));
    let wall_s = m.wall_s;
    spans.count(m.span, "steps", r.steps as f64);
    spans.count(m.span, "packets", r.packets_offered as f64);
    let deliveries = r.deliveries.max(1) as f64;
    let per_subscriber = r.subscribers.max(1) as u64;
    // A packet is undelivered when any subscriber misses it.
    let undelivered = (r.expected_deliveries - r.deliveries).div_ceil(per_subscriber);
    let layers = vec![
        ("live.node.steps".into(), r.steps as f64),
        (
            "live.node.ns_per_step".into(),
            wall_s * 1e9 / r.steps.max(1) as f64,
        ),
        (
            "live.node.retx_per_pkt".into(),
            r.mac_retransmissions as f64 / r.packets_offered.max(1) as f64,
        ),
        (
            "live.node.dup_per_delivery".into(),
            r.duplicates as f64 / deliveries,
        ),
        ("live.soak.app_resends".into(), r.app_resends as f64),
        (
            "live.hub.data_corrupt_frac".into(),
            r.hub.data_corrupted as f64 / r.hub.data_delivered.max(1) as f64,
        ),
    ];
    ChildReport {
        ref_s: m.ref_s,
        wall_s,
        cpu_s: m.cpu_s,
        setup_s: median(&setup),
        ops: r.packets_offered,
        ops_failed: if r.complete() { 0 } else { undelivered.max(1) },
        packets: r.packets_offered,
        delivery_ratio: r.deliveries as f64 / r.expected_deliveries.max(1) as f64,
        delay_avg_ms: r.latency_mean_ns as f64 * 1e-6,
        fingerprint: fingerprint(format!("{r:?}").as_bytes()),
        layers,
        ..ChildReport::default()
    }
}

/// The geometric mean of the positive values: how the campaign's delays
/// are averaged. Its cases span 10 ms (5 pkt/s) to most of a second (BMMM
/// at 120 pkt/s under bursty loss), so their arithmetic mean is the mean of
/// the three or four saturated cases and moved by 25 % over ten salts of the
/// fault plan, where this moves by 4 %. A case that delivered nothing has
/// no delay and is left out.
fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let logs: Vec<f64> = values.filter(|&v| v > 0.0).map(f64::ln).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

fn campaign_child(
    spans: &mut Spans,
    mode: Mode,
    seed: u64,
    scale: Scale,
    scratch: &Path,
) -> ChildReport {
    let dir = scratch.join(format!("campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Set-up: expand the grid and render the manifest `run_campaign` will
    // write. The directory and the file are claimed inside the measured
    // call: a file write on this host was seen to slow down by 55 % where
    // the processor slowed down by 25 %, which the reference kernel cannot
    // follow, and the set-ups of two sets of runs then stood 27 % apart.
    let mut setup = Vec::with_capacity(SETUPS);
    let mut spec = None;
    for _ in 0..SETUPS {
        let (input, inputs_s) = spans.time("inputs.generate", || {
            let spec = inputs::campaign_grid(seed, scale);
            let cases = spec.cases();
            (spec, cases)
        });
        let (manifest, render_s) = spans.time("campaign.manifest.render", || input.0.to_json());
        std::hint::black_box(manifest);
        setup.push(inputs_s + render_s);
        spec = Some(input);
    }
    let (spec, cases) = spec.expect("SETUPS is at least 1");
    let opts = RunOptions {
        quiet: true,
        ..RunOptions::default()
    };
    // The campaign's pool has as many workers as the host has cores.
    let workers = host::parallelism().min(opts.chunk);
    let (outcome, m) = measured(spans, "campaign.run_campaign", || {
        run_campaign(&spec, &dir, &opts)
    });
    let (wall_s, cpu_s) = (m.wall_s, m.cpu_s);
    let outcome = outcome.expect("the campaign runs");
    spans.count(m.span, "cases", outcome.total as f64);
    let store = std::fs::read(dir.join("store.jsonl")).unwrap_or_default();
    let records = &outcome.records;
    let n = records.len().max(1) as f64;
    let unclean = records.iter().filter(|r| !r.check_clean).count();
    let missing = outcome.total - records.len();
    let events: u64 = records.iter().map(|r| r.events).sum();
    let mut layers = vec![
        ("engine.world.events".to_string(), events as f64),
        (
            "faults.event.count".to_string(),
            records.iter().map(|r| r.faults_injected).sum::<u64>() as f64,
        ),
    ];
    if mode == Mode::Traced {
        let workers = workers as f64;
        let (resumed, resume_s) = spans.time("campaign.run_campaign.resume", || {
            run_campaign(&spec, &dir, &opts)
        });
        let resumed = resumed.expect("the complete store resumes");
        assert_eq!(resumed.executed, 0, "a complete store re-ran cases");
        let (rows, summarize_s) = spans.time("campaign.query.summarize", || {
            load_store(&dir).map(|records| summarize(&records).len())
        });
        rows.expect("the store loads");
        let first = cases[0].config();
        let (_, new_s) = spans.time("engine.runner.new", || {
            Runner::new(&first, cases[0].protocol, cases[0].seed)
        });
        layers.extend([
            ("campaign.pool.cases_per_s".to_string(), n / wall_s),
            (
                "campaign.pool.parallel_eff".to_string(),
                cpu_s / (wall_s * workers),
            ),
            (
                "campaign.store.bytes_per_case".to_string(),
                store.len() as f64 / n,
            ),
            ("campaign.runner.resume_s".to_string(), resume_s),
            ("campaign.query.summarize_s".to_string(), summarize_s),
            ("engine.runner.new_s".to_string(), new_s),
        ]);
    }
    let _ = std::fs::remove_dir_all(&dir);
    ChildReport {
        ref_s: m.ref_s,
        wall_s,
        cpu_s,
        setup_s: median(&setup),
        ops: outcome.total as u64,
        ops_failed: (unclean + missing) as u64,
        packets: records.iter().map(|r| r.packets_sent).sum(),
        delivery_ratio: records.iter().map(|r| r.delivery).sum::<f64>() / n,
        delay_avg_ms: geometric_mean(records.iter().map(|r| r.delay_s * 1e3)),
        fingerprint: fingerprint(&store),
        layers,
        ..ChildReport::default()
    }
}

/// Child entry point: run and print the report as the last line of stdout.
pub fn child_main(workload: Workload, mode: Mode, seed: u64, scale: Scale, scratch: &Path) {
    let started = Instant::now();
    let report = run_child(workload, mode, seed, scale, scratch);
    eprintln!(
        "  child {} {} seed {seed}: call {:.3} s, process {:.3} s",
        workload.name(),
        mode.name(),
        report.wall_s,
        started.elapsed().as_secs_f64()
    );
    println!("{}", report.to_json().render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_fit_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: {}", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
        for m in [Mode::Timed, Mode::Checked, Mode::Traced, Mode::Serial] {
            assert_eq!(Mode::from_name(m.name()), Some(m));
        }
    }

    #[test]
    fn fingerprint_separates_inputs() {
        assert_eq!(fingerprint(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fingerprint(b"a"), fingerprint(b"b"));
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
    }

    #[test]
    fn the_geometric_mean_skips_cases_without_a_delay() {
        let mean = geometric_mean([10.0, 0.0, 1000.0].into_iter());
        assert!((mean - 100.0).abs() < 1e-9, "{mean}");
        assert_eq!(geometric_mean([0.0].into_iter()), 0.0);
    }

    #[test]
    fn child_reports_survive_the_pipe() {
        let report = ChildReport {
            ref_s: 0.11,
            wall_s: 1.25,
            cpu_s: 2.5,
            peak_rss_mb: 12.0,
            setup_s: 0.001,
            ops: 96,
            ops_failed: 1,
            packets: 9600,
            delivery_ratio: 0.5,
            delay_avg_ms: 12.5,
            fingerprint: 0xFFFF_0000_1234_5678,
            layers: vec![("engine.world.events".into(), 1e7)],
            spans: vec![],
        };
        let line = report.to_json().render();
        let back = ChildReport::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.layer("engine.world.events"), Some(1e7));
        assert_eq!(back.layer("missing"), None);
    }

    #[test]
    fn smoke_children_run_check_and_agree() {
        let scratch = std::env::temp_dir().join(format!("rmac-benchmark-{}", std::process::id()));
        for w in [Workload::Dense200Static, Workload::Paper75Bmmm] {
            let timed = run_child(w, Mode::Timed, 1, Scale::Smoke, &scratch);
            let checked = run_child(w, Mode::Checked, 1, Scale::Smoke, &scratch);
            let traced = run_child(w, Mode::Traced, 1, Scale::Smoke, &scratch);
            assert_eq!(timed.ops_failed + checked.ops_failed, 0);
            assert_eq!(timed.fingerprint, checked.fingerprint);
            assert_eq!(timed.fingerprint, traced.fingerprint);
            assert_ne!(
                timed.fingerprint,
                run_child(w, Mode::Timed, 2, Scale::Smoke, &scratch).fingerprint
            );
            let events = traced.layer("engine.world.events").unwrap();
            let classes: f64 = traced
                .layers
                .iter()
                .filter(|(k, _)| k.ends_with(".count") && !k.starts_with("core.timer."))
                .map(|(_, v)| v)
                .sum::<f64>()
                + traced.layer("core.timer.count").unwrap_or(0.0);
            assert_eq!(classes, events, "event classes must add up to the events");
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
