//! The run surface: one builder in, one output struct out (DESIGN.md §8).
//!
//! ```
//! use rmac_engine::{Protocol, Run, ScenarioConfig};
//!
//! let cfg = ScenarioConfig::paper_stationary(5.0).with_packets(20);
//! let out = Run::new(&cfg, Protocol::Rmac, 1).check().execute().assert_clean();
//! assert!(out.report.delivery_ratio() > 0.9);
//! ```
//!
//! Everything else in this module — [`run_replication`] and the nine names
//! `benchmark/README.md` pins — is a shim of at most three lines over
//! [`Run`], or, for a [`Runner`] that [`Runner::new`] has already
//! assembled, over the one-group run [`Run::execute`] itself makes
//! ([`crate::shard`]).

use std::sync::Arc;

use rmac_check::CheckReport;
use rmac_faults::FaultPlan;
use rmac_metrics::RunReport;
use rmac_obs::ObsReport;
use rmac_sim::{CalendarQueue, EventQueue};
use rmac_wire::NodeId;

use crate::config::{Protocol, ScenarioConfig};
use crate::obs::ObsConfig;
use crate::shard::{self, ShardStats};
use crate::trace::Tracer;
use crate::world::Runner;

/// One (scenario, protocol, seed) replication, described and then
/// executed. Attachments are opt-in and never perturb the simulation: the
/// [`RunOutput::report`] is bit-identical with or without them, at any
/// shard count.
pub struct Run {
    spec: Spec,
    tracer: Option<Tracer>,
    heap_queue: bool,
}

/// What [`Runner::assemble`] builds a world from: the part of a [`Run`]
/// every shard group shares (the tracer is not `Sync` and goes to the one
/// runner that carries it).
pub(crate) struct Spec {
    /// Shared, not copied, into every runner assembled from this spec.
    pub(crate) cfg: Arc<ScenarioConfig>,
    pub(crate) protocol: Protocol,
    pub(crate) seed: u64,
    pub(crate) plan: FaultPlan,
    pub(crate) obs: Option<ObsConfig>,
    pub(crate) check: bool,
    pub(crate) brute_phy: bool,
}

/// A retained reference implementation, selectable only for differential
/// tests (see [`Run::reference`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reference {
    /// The binary-heap event queue ([`rmac_sim::EventQueue`]) in place of
    /// the calendar queue, under every shard group. A reference only in
    /// this role: the beacon timetable and every `rmac-live` node's timers
    /// run on it in production.
    HeapQueue,
    /// The brute-force O(N) PHY neighbour scan
    /// ([`rmac_phy::IndexMode::BruteForce`]) in place of the spatial grid.
    BrutePhy,
}

/// Everything one replication produces.
pub struct RunOutput {
    /// The replication's metrics.
    pub report: RunReport,
    /// The observability report, when [`Run::obs`] attached the layer.
    pub obs: Option<ObsReport>,
    /// The conformance verdict, when [`Run::check`] attached the checker.
    /// A run of several shard groups lists violations group by group (event
    /// order within each group).
    pub check: Option<CheckReport>,
    /// Each node's BLESS-lite parent at end of run (the multicast tree of
    /// the paper's Fig. 6).
    pub parents: Vec<Option<NodeId>>,
    /// Scheduling statistics: the shard groups the replication ran as
    /// (`groups == 1` for a whole-world run).
    pub shard: ShardStats,
}

impl Run {
    /// Describe a fault-free, uninstrumented replication.
    ///
    /// # Panics
    ///
    /// When [`ScenarioConfig::validate`] refuses `cfg` (a source rate that
    /// is not finite and positive, an end of run past the clock, or a node
    /// count outside `1..=65535`), with its message.
    pub fn new(cfg: &ScenarioConfig, protocol: Protocol, seed: u64) -> Run {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        Run {
            spec: Spec {
                cfg: Arc::new(cfg.clone()),
                protocol,
                seed,
                plan: FaultPlan::none(),
                obs: None,
                check: false,
                brute_phy: false,
            },
            tracer: None,
            heap_queue: false,
        }
    }

    /// Run under a fault plan. `FaultPlan::none()` is bit-identical to no
    /// plan (enforced by `tests/faults_determinism.rs`).
    pub fn faults(mut self, plan: &FaultPlan) -> Run {
        self.spec.plan = plan.clone();
        self
    }

    /// Attach the deep instrumentation layer ([`crate::obs`]); `None`
    /// leaves it detached. It observes global event order, so the run
    /// carries it on the single all-shards group (like mobility and BER,
    /// it forgoes the parallel decomposition).
    pub fn obs(mut self, cfg: impl Into<Option<ObsConfig>>) -> Run {
        self.spec.obs = cfg.into();
        self
    }

    /// Attach the protocol-conformance checker; the verdict comes back in
    /// [`RunOutput::check`] (see [`RunOutput::assert_clean`]).
    pub fn check(mut self) -> Run {
        self.spec.check = true;
        self
    }

    /// Attach an observer of the observation stream ([`crate::trace`]):
    /// every event the run reports, in dispatch order. Like [`Run::obs`] it observes global
    /// event order, so the run carries it on the single all-shards group,
    /// which makes traces byte-identical at any shard count by
    /// construction.
    pub fn tracer(mut self, tracer: Tracer) -> Run {
        self.tracer = Some(tracer);
        self
    }

    /// Swap in a reference implementation. For differential tests only:
    /// results are bit-identical by contract, which is what those tests
    /// check.
    #[doc(hidden)]
    pub fn reference(mut self, which: Reference) -> Run {
        match which {
            Reference::HeapQueue => self.heap_queue = true,
            Reference::BrutePhy => self.spec.brute_phy = true,
        }
        self
    }

    /// Run to completion, as the replication's shard groups
    /// ([`crate::shard`]): at more than one shard its radio components,
    /// packed into at most `4 · cfg.shards` causally closed groups; one
    /// shard is one group, the whole world.
    pub fn execute(self) -> RunOutput {
        if self.heap_queue {
            shard::execute(&self.spec, self.tracer, EventQueue::with_capacity)
        } else {
            shard::execute(&self.spec, self.tracer, CalendarQueue::with_capacity)
        }
    }
}

impl RunOutput {
    /// Panic with the full violation listing unless the attached checker
    /// found the run clean; hands the output back for chaining.
    pub fn assert_clean(self) -> RunOutput {
        let check = self
            .check
            .as_ref()
            .expect("assert_clean on a run without .check()");
        assert!(
            check.is_clean(),
            "protocol-conformance check failed ({}, scenario '{}'):\n{}",
            self.report.protocol,
            self.report.scenario,
            check.summary()
        );
        self
    }
}

/// Run one replication and return its report.
pub fn run_replication(cfg: &ScenarioConfig, protocol: Protocol, seed: u64) -> RunReport {
    Run::new(cfg, protocol, seed).execute().report
}

// ---------------------------------------------------------------------
// Pinned shims: the names `benchmark/README.md` § Pinned API links. Their
// signatures cannot change without a benchmark issue; new code calls `Run`.
// ---------------------------------------------------------------------

/// [`Run`] with `.faults(plan).check()`: the report and the verdict.
pub fn run_replication_checked(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
) -> (RunReport, CheckReport) {
    let out = Run::new(cfg, protocol, seed).faults(plan).check();
    checked(out.execute())
}

/// [`run_replication_checked`]; every replication runs as its shard groups.
pub fn run_replication_sharded_checked(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
) -> (RunReport, CheckReport) {
    let out = Run::new(cfg, protocol, seed).faults(plan).check();
    checked(out.execute())
}

/// [`Run`] with `.faults(plan).obs(obs).check()`: report, obs report (if
/// requested) and verdict.
pub fn run_replication_instrumented(
    cfg: &ScenarioConfig,
    protocol: Protocol,
    seed: u64,
    plan: &FaultPlan,
    obs: Option<ObsConfig>,
) -> (RunReport, Option<ObsReport>, CheckReport) {
    let run = Run::new(cfg, protocol, seed).faults(plan).obs(obs).check();
    let out = run.execute();
    (
        out.report,
        out.obs,
        out.check.expect("checker was attached"),
    )
}

fn checked(out: RunOutput) -> (RunReport, CheckReport) {
    (out.report, out.check.expect("checker was attached"))
}

impl Runner {
    /// `Run::new(cfg, protocol, seed)` assembled as its one all-shards group.
    pub fn new(cfg: &ScenarioConfig, protocol: Protocol, seed: u64) -> Runner {
        let spec = Run::new(cfg, protocol, seed).spec;
        Runner::assemble(&spec, CalendarQueue::with_capacity, |_| true)
    }

    /// [`Run::obs`] on an assembled runner.
    pub fn set_obs(&mut self, cfg: ObsConfig) {
        self.attach(Some(cfg), false, None)
    }

    /// [`Run::execute`]'s report.
    pub fn run(self, seed: u64) -> RunReport {
        shard::run_whole(self, seed).report
    }

    /// [`Run::execute`]'s report and obs report.
    pub fn run_obs(self, seed: u64) -> (RunReport, Option<ObsReport>) {
        let out = shard::run_whole(self, seed);
        (out.report, out.obs)
    }
}

/// [`Run`] under its older name.
pub struct ShardedRunner(Run);

impl ShardedRunner {
    /// `Run::new(cfg, protocol, seed)`.
    pub fn new(cfg: &ScenarioConfig, protocol: Protocol, seed: u64) -> ShardedRunner {
        ShardedRunner(Run::new(cfg, protocol, seed))
    }

    /// [`Run::execute`]'s report and scheduling statistics.
    pub fn run_with_stats(self) -> (RunReport, ShardStats) {
        let out = self.0.execute();
        (out.report, out.shard)
    }
}
