//! The parent side of `run`: spawn children, check what they return, reduce
//! it to the named metrics and write the result and trace files.
//!
//! Protocol for one workload, end to end: one untimed child first (the
//! conformance-checked pass for simulator workloads, a plain run otherwise)
//! that doubles as the discarded warm-up, then fresh timed children until
//! `--seconds` of measuring is used up (at least two). Every child scales
//! its host times to reference speed (see [`crate::reference`]), and every
//! end-to-end metric is the median over the timed children (see
//! [`Summary`]). End-to-end numbers come only from untraced children; the
//! traced child feeds the per-layer numbers.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host;
use crate::inputs::Scale;
use crate::json::Json;
use crate::layers::{fingerprint_number, END_TO_END, PER_LAYER};
use crate::probes::run_probes;
use crate::span::{self, Spans};
use crate::stats::Summary;
use crate::workloads::{ChildReport, Mode, Workload};

pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// Seconds of timed children per workload.
    pub seconds: f64,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only (the two halves of the driver's contract). `None`: both,
    /// for every workload, into `result.json`.
    pub trace: Option<bool>,
    pub scale: Scale,
    /// Run every layer probe once (always on under `--smoke`).
    pub probes: bool,
    pub out: PathBuf,
}

/// What was measured for one workload.
pub struct WorkloadResult {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub fingerprint: u64,
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Raw seconds of the reference kernel around each timed child's call:
    /// what the host times above were scaled by (`reference::factor`).
    pub ref_s: Option<Summary>,
    pub per_layer: Vec<(&'static str, f64)>,
}

impl WorkloadResult {
    fn new(workload: Workload) -> WorkloadResult {
        WorkloadResult {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            fingerprint: 0,
            end_to_end: Vec::new(),
            ref_s: None,
            per_layer: Vec::new(),
        }
    }

    fn fail(&mut self, ops: u64, why: String) {
        eprintln!("FAILED {}: {why}", self.workload.name());
        self.failed += ops.max(1);
        self.failures.push(why);
    }

    /// Count a child's operations, and hold its output against the first
    /// child's: one seed, one output, whatever the mode.
    fn account(&mut self, mode: Mode, child: &ChildReport) {
        self.attempted += child.ops;
        if child.ops_failed > 0 {
            self.fail(
                child.ops_failed,
                format!(
                    "{} child: {} operation(s) failed",
                    mode.name(),
                    child.ops_failed
                ),
            );
        }
        if self.fingerprint == 0 {
            self.fingerprint = child.fingerprint;
        } else if child.fingerprint != self.fingerprint {
            self.fail(
                1,
                format!(
                    "{} child: fingerprint {:016x} differs from {:016x}",
                    mode.name(),
                    child.fingerprint,
                    self.fingerprint
                ),
            );
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.workload.name())),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "end_to_end",
                Json::Obj(
                    self.end_to_end
                        .iter()
                        .map(|(k, s)| (k.to_string(), s.to_json()))
                        .collect(),
                ),
            ),
            (
                "ref_s",
                self.ref_s.as_ref().map_or(Json::Null, Summary::to_json),
            ),
            (
                "per_layer",
                Json::Obj(
                    self.per_layer
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One run's shared state: where children come from and where files go.
struct Session<'a> {
    opts: &'a Options,
    exe: PathBuf,
    scratch: PathBuf,
}

impl Session<'_> {
    /// Spawn one child, wait for it and parse the report on its last line.
    /// The child's spans are adopted under a span of the parent.
    fn child(
        &self,
        spans: &mut Spans,
        workload: Workload,
        mode: Mode,
    ) -> Result<ChildReport, String> {
        let span = spans.begin(&format!("spawn.{}", mode.name()));
        let output = Command::new(&self.exe)
            .arg("child")
            .args(["--workload", workload.name()])
            .args(["--mode", mode.name()])
            .args(["--seed", &self.opts.seed.to_string()])
            .args(["--scale", scale_name(self.opts.scale)])
            .arg("--scratch")
            .arg(&self.scratch)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        spans.end(span);
        let output = output.map_err(|e| format!("{} child did not start: {e}", mode.name()))?;
        if !output.status.success() {
            return Err(format!(
                "{} child panicked or was killed ({})",
                mode.name(),
                output.status
            ));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        let report = text
            .lines()
            .next_back()
            .and_then(|line| Json::parse(line).ok())
            .and_then(|doc| ChildReport::from_json(&doc))
            .ok_or_else(|| format!("{} child printed no report", mode.name()))?;
        spans.adopt(span, &report.spans);
        Ok(report)
    }

    /// [`Session::child`], with the failure counted and the output held
    /// against the other children's.
    fn checked_child(
        &self,
        spans: &mut Spans,
        result: &mut WorkloadResult,
        mode: Mode,
    ) -> Option<ChildReport> {
        match self.child(spans, result.workload, mode) {
            Ok(report) => {
                result.account(mode, &report);
                Some(report)
            }
            Err(why) => {
                result.attempted += 1;
                result.fail(1, why);
                None
            }
        }
    }

    fn write_trace(&self, workload: Workload, spans: &Spans) {
        let path = self
            .opts
            .out
            .join(format!("trace-{}.jsonl", workload.name()));
        if let Err(e) = std::fs::write(&path, span::to_jsonl(workload.name(), spans.all())) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }

    /// The end-to-end half: untraced children only.
    fn end_to_end(&self, spans: &mut Spans, result: &mut WorkloadResult) {
        let workload = result.workload;
        let root = spans.begin(&format!("{}.end_to_end", workload.name()));
        let first = if workload.is_sim() {
            Mode::Checked
        } else {
            Mode::Timed
        };
        self.checked_child(spans, result, first);

        let window = Instant::now();
        let mut timed: Vec<ChildReport> = Vec::new();
        let mut spawned = 0u32;
        loop {
            spawned += 1;
            timed.extend(self.checked_child(spans, result, Mode::Timed));
            let elapsed = window.elapsed().as_secs_f64();
            let next_ends = elapsed + elapsed / f64::from(spawned);
            let enough = match self.opts.scale {
                Scale::Smoke => true,
                Scale::Full => spawned >= 2 && next_ends > self.opts.seconds,
            };
            // A workload whose children all die must not spin forever.
            if enough || (timed.is_empty() && spawned >= 2) {
                break;
            }
        }
        spans.end(root);

        let columns: [&dyn Fn(&ChildReport) -> f64; 7] = [
            &|c| c.wall_s,
            &|c| c.cpu_s,
            &|c| c.peak_rss_mb,
            &|c| c.setup_s,
            &|c| c.packets as f64 / c.wall_s,
            &|c| c.delivery_ratio,
            &|c| c.delay_avg_ms,
        ];
        result.end_to_end = END_TO_END
            .iter()
            .zip(columns)
            .map(|(def, column)| {
                let values: Vec<f64> = timed.iter().map(column).collect();
                (def.name, Summary::of(&values))
            })
            .collect();
        let reference: Vec<f64> = timed.iter().map(|c| c.ref_s).collect();
        result.ref_s = Some(Summary::of(&reference));
    }

    /// The per-layer half: one untraced reference child, the traced child,
    /// the checked child, the serial oracle where there is one, and the
    /// probes matched to the workload.
    fn per_layer(&self, spans: &mut Spans, result: &mut WorkloadResult, with_probes: bool) {
        let workload = result.workload;
        let root = spans.begin(&format!("{}.per_layer", workload.name()));
        let mut values: Vec<(String, f64)> = Vec::new();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        if workload.is_sim() {
            let timed = self.checked_child(spans, result, Mode::Timed);
            let traced = self.checked_child(spans, result, Mode::Traced);
            let checked = self.checked_child(spans, result, Mode::Checked);
            let serial = (workload == Workload::Multicell2000Shard2)
                .then(|| self.checked_child(spans, result, Mode::Serial))
                .flatten();
            // Whatever several children report (the exact counts, the
            // constructor's time) is taken from the last of these: the
            // serial oracle, the traced child, then the timed child, whose
            // constructor time is a median.
            for child in [&serial, &traced, &timed].into_iter().flatten() {
                values.extend(child.layers.iter().cloned());
            }
            if let Some(timed) = &timed {
                let events = timed.layer("engine.world.events").unwrap_or(0.0);
                values.push((
                    "engine.world.ns_per_event".into(),
                    ratio(timed.wall_s * 1e9, events),
                ));
                if let Some(checked) = &checked {
                    values.push((
                        "check.overhead_frac".into(),
                        ratio(checked.wall_s, timed.wall_s) - 1.0,
                    ));
                }
                if let Some(serial) = &serial {
                    values.push((
                        "engine.shard.speedup_vs_serial".into(),
                        ratio(serial.wall_s, timed.wall_s),
                    ));
                    values.push((
                        "engine.shard.cpu_over_wall".into(),
                        ratio(timed.cpu_s, timed.wall_s),
                    ));
                }
            }
            if let Some(traced) = &traced {
                // The traced child runs the serial engine, so its untraced
                // twin is the serial oracle where the timed child is sharded.
                let untraced = serial.as_ref().or(timed.as_ref());
                let raw_busy_s = traced.layer("trace.raw_busy_s").unwrap_or(0.0);
                values.push(("engine.loop.residual_s".into(), traced.wall_s - raw_busy_s));
                if let Some(untraced) = untraced {
                    values.push((
                        "obs.trace_overhead_frac".into(),
                        ratio(traced.wall_s, untraced.wall_s) - 1.0,
                    ));
                }
            }
        } else {
            let mode = if workload == Workload::CampaignGrid {
                Mode::Traced
            } else {
                Mode::Timed
            };
            if let Some(child) = self.checked_child(spans, result, mode) {
                values.extend(child.layers.iter().cloned());
            }
        }
        // The traced child calibrates the clock it subtracts; elsewhere
        // the number is reported for the record.
        if !values.iter().any(|(k, _)| k == "bench.timer_ns") {
            values.push(("bench.timer_ns".into(), host::timer_ns()));
        }
        values.push((
            "metrics.report.fingerprint".into(),
            fingerprint_number(result.fingerprint),
        ));
        if with_probes {
            let probes = spans.begin("probes");
            values.extend(run_probes(Some(workload), self.opts.scale));
            spans.end(probes);
        }
        spans.end(root);

        // Every declared name, in declared order; a layer this workload
        // does not drive reads 0. Later writers win over earlier ones.
        result.per_layer = PER_LAYER
            .iter()
            .map(|def| {
                let value = values
                    .iter()
                    .rev()
                    .find(|(k, _)| k == def.name)
                    .map_or(0.0, |(_, v)| *v);
                (def.name, value)
            })
            .collect();
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
    }
}

fn print_result(result: &WorkloadResult) {
    println!("== {}: {}", result.workload.name(), result.workload.why());
    println!(
        "{:<40} {:>16} {:<6} ops_failed {}",
        "ops_attempted", result.attempted, "count", result.failed
    );
    for ((name, s), def) in result.end_to_end.iter().zip(END_TO_END) {
        println!(
            "{name:<40} {:>16.6} {:<6} median of {} ({} is better); q1 {:.6} q3 {:.6}",
            s.median,
            def.unit,
            s.n,
            def.better.name(),
            s.q1,
            s.q3
        );
    }
    for ((name, value), def) in result.per_layer.iter().zip(PER_LAYER) {
        println!("{name:<40} {value:>16.6} {:<6}", def.unit);
    }
}

/// The driver's contract: the last line of stdout, one JSON object.
fn contract_line(result: &WorkloadResult, trace: bool) -> String {
    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics: Vec<(String, Json)> = if trace {
        result
            .per_layer
            .iter()
            .zip(PER_LAYER)
            .map(|((name, value), def)| (name.to_string(), metric(*value, def.unit)))
            .collect()
    } else {
        result
            .end_to_end
            .iter()
            .zip(END_TO_END)
            .map(|((name, s), def)| (name.to_string(), metric(s.median, def.unit)))
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(result.failed == 0)),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// Run the benchmark; the process exit code.
pub fn run(opts: &Options) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable to re-execute it: {e}");
            return 2;
        }
    };
    let scratch = opts.out.join("scratch");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return 2;
    }
    let session = Session {
        opts,
        exe,
        scratch: scratch.clone(),
    };
    let with_probes = opts.probes || opts.scale == Scale::Smoke;
    let mut results = Vec::new();
    for &workload in &opts.workloads {
        let mut spans = Spans::new();
        let mut result = WorkloadResult::new(workload);
        if opts.trace != Some(true) {
            session.end_to_end(&mut spans, &mut result);
        }
        if opts.trace != Some(false) {
            // The driver's traced run carries the probes matched to its
            // workload; a full run carries all of them once, below.
            session.per_layer(&mut spans, &mut result, opts.trace == Some(true));
        }
        session.write_trace(workload, &spans);
        print_result(&result);
        results.push(result);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let timer_ns = host::timer_ns();
    let mut doc = vec![
        ("stamp".to_string(), host::stamp(opts.seed, timer_ns)),
        ("smoke".to_string(), Json::Bool(opts.scale == Scale::Smoke)),
        ("seconds".to_string(), Json::Num(opts.seconds)),
        (
            "workloads".to_string(),
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ];
    if opts.trace.is_none() && with_probes {
        println!("== probes");
        let probes = run_probes(None, opts.scale);
        for (name, value) in &probes {
            let unit = crate::layers::find(name).map_or("", |m| m.unit);
            println!("{name:<40} {value:>16.6} {unit}");
        }
        doc.push((
            "probes".to_string(),
            Json::Obj(probes.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        ));
    }
    write_result(&opts.out, &Json::Obj(doc));

    let failed: u64 = results.iter().map(|r| r.failed).sum();
    if let (Some(trace), [only]) = (opts.trace, results.as_slice()) {
        println!("{}", contract_line(only, trace));
    }
    if failed > 0 {
        eprintln!("{failed} operation(s) failed");
        1
    } else {
        0
    }
}

fn write_result(out: &Path, doc: &Json) {
    let path = out.join("result.json");
    match std::fs::write(&path, doc.render() + "\n") {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(fingerprint: u64, ops: u64, ops_failed: u64) -> ChildReport {
        ChildReport {
            fingerprint,
            ops,
            ops_failed,
            ..ChildReport::default()
        }
    }

    #[test]
    fn failures_are_counted_not_hidden() {
        let mut r = WorkloadResult::new(Workload::LiveSoakGe20);
        r.account(Mode::Timed, &child(7, 100, 0));
        r.account(Mode::Timed, &child(7, 100, 0));
        assert_eq!((r.attempted, r.failed), (200, 0));
        r.account(Mode::Timed, &child(8, 100, 0));
        assert_eq!(r.failed, 1, "a fingerprint mismatch is a failed operation");
        r.account(Mode::Checked, &child(7, 100, 3));
        assert_eq!((r.attempted, r.failed), (400, 4));
        assert_eq!(r.failures.len(), 2);
    }

    #[test]
    fn the_contract_line_has_exactly_the_contract_keys() {
        let mut r = WorkloadResult::new(Workload::Dense200Static);
        r.attempted = 3;
        r.end_to_end = END_TO_END
            .iter()
            .map(|m| (m.name, Summary::of(&[1.5, 2.5])))
            .collect();
        r.per_layer = PER_LAYER.iter().map(|m| (m.name, 4.0)).collect();
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let doc = Json::parse(&contract_line(&r, trace)).unwrap();
            let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            let metrics = doc.get("metrics").unwrap().fields();
            assert_eq!(metrics.len(), table.len());
            for ((name, value), def) in metrics.iter().zip(table) {
                assert_eq!(name, def.name);
                assert_eq!(value.str_of("unit"), Some(def.unit));
                assert!(value.f64("value").is_some());
            }
        }
        r.failed = 1;
        let doc = Json::parse(&contract_line(&r, false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    }
}
