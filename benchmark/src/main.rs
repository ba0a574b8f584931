//! The benchmark of this repository: one command, six named workloads,
//! end-to-end and per-layer metrics for the simulator, the live backend
//! and the campaign runner. See `benchmark/README.md`.

mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod probes;
mod reference;
mod run;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;

use inputs::Scale;
use json::Json;
use workloads::{Mode, Workload};

const USAGE: &str = "\
usage (from the repository root):
  rmac-benchmark run [--workload W]... [--seed S] [--seconds T] [--trace 0|1]
                     [--smoke] [--probes] [--reverse] [--out DIR]
      Measure the workloads (all six by default), print every metric by
      name with its unit, write DIR/result.json and DIR/trace-<W>.jsonl
      (DIR defaults to benchmark/out). With --trace 0 only the end-to-end
      metrics are measured, with --trace 1 only the per-layer metrics; for
      a single workload the last line of stdout is then one JSON object
      {correct, attempted, failed, metrics}. Exits 1 if any operation failed.
  rmac-benchmark compare A.json B.json [--bounds BENCHMARK.json]
      Compare two result files; A is the base. Exits 1 on a `worse` verdict
      or a deterministic difference.
workloads: dense200_static paper75_mobile paper75_bmmm multicell2000_shard2
           live_soak_ge20 campaign_grid";

fn fail(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

/// `--flag value` pairs and bare flags, in order.
struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value(&mut self, flag: &str) -> String {
        self.0
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let text = self.value(flag);
        text.parse()
            .unwrap_or_else(|_| fail(&format!("{flag}: cannot read {text:?}")))
    }

    fn workload(&mut self, flag: &str) -> Workload {
        let name = self.value(flag);
        Workload::from_name(&name).unwrap_or_else(|| fail(&format!("unknown workload {name:?}")))
    }
}

fn run_command(mut args: Args) -> i32 {
    let mut opts = run::Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 18.0,
        trace: None,
        scale: Scale::Full,
        probes: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut reverse = false;
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--workload" => opts.workloads.push(args.workload(&flag)),
            "--seed" => opts.seed = args.parsed(&flag),
            "--seconds" => opts.seconds = args.parsed(&flag),
            "--trace" => {
                opts.trace = Some(match args.value(&flag).as_str() {
                    "0" => false,
                    "1" => true,
                    other => fail(&format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => opts.scale = Scale::Smoke,
            "--probes" => opts.probes = true,
            "--reverse" => reverse = true,
            "--out" => opts.out = PathBuf::from(args.value(&flag)),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    if reverse {
        opts.workloads.reverse();
    }
    run::run(&opts)
}

fn child_command(mut args: Args) -> i32 {
    let (mut workload, mut mode, mut seed, mut scale) = (None, None, 1u64, Scale::Full);
    let mut scratch = PathBuf::from("benchmark/out/scratch");
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--workload" => workload = Some(args.workload(&flag)),
            "--mode" => mode = Mode::from_name(&args.value(&flag)),
            "--seed" => seed = args.parsed(&flag),
            "--scale" => {
                scale = match args.value(&flag).as_str() {
                    "smoke" => Scale::Smoke,
                    _ => Scale::Full,
                }
            }
            "--scratch" => scratch = PathBuf::from(args.value(&flag)),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    let (Some(workload), Some(mode)) = (workload, mode) else {
        fail("child needs --workload and --mode");
    };
    workloads::child_main(workload, mode, seed, scale, &scratch);
    0
}

fn read_json(path: &str) -> Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn compare_command(mut args: Args) -> i32 {
    let mut files = Vec::new();
    let mut bounds = "BENCHMARK.json".to_string();
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "--bounds" => bounds = args.value(&arg),
            _ => files.push(arg),
        }
    }
    let [a, b] = files.as_slice() else {
        fail("compare takes exactly two result files");
    };
    let (report, bad) = compare::compare(&read_json(a), &read_json(b), &read_json(&bounds));
    print!("{report}");
    i32::from(bad)
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        fail("no command given");
    }
    let command = argv.remove(0);
    let args = Args(argv.into_iter());
    let code = match command.as_str() {
        "run" => run_command(args),
        "child" => child_command(args),
        "compare" => compare_command(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            0
        }
        other => fail(&format!("unknown command {other:?}")),
    };
    std::process::exit(code);
}
