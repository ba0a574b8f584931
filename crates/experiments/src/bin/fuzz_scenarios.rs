//! Seeded scenario fuzzer: draw randomized topologies/traffic/fault
//! plans, run RMAC and BMMM under the conformance checker, and shrink any
//! violation to a minimal reproducer in `results/repros/`.
//!
//! Cases are drawn deterministically (the proptest shim's per-case RNG),
//! so `fuzz_scenarios --cases N --offset K` always replays the same
//! scenarios; a failing case number is itself the reproducer seed.
//!
//! ```text
//! fuzz_scenarios                  # default budget (2000 cases, ~2 s)
//! fuzz_scenarios --smoke          # CI smoke: 1000 fixed cases
//! fuzz_scenarios --cases 50000    # bigger sweep
//! fuzz_scenarios --offset 100000  # explore a different fixed region
//! ```
//!
//! Exit status is nonzero iff any case violated an invariant (or the
//! stack panicked), after all cases have run.

use std::path::Path;
use std::time::Instant;

use proptest::prelude::Strategy;
use proptest::test_runner::TestRng;
use rmac_experiments::fuzz::{run_case, scenario_strategy, shrink, write_repro, CaseOutcome};

/// Replication budget for shrinking one failing case.
const SHRINK_BUDGET: usize = 60;

/// How many cases to run, from which case number, and whether to print
/// each.
fn parse_args(args: &[String]) -> Result<(u32, u32, bool), String> {
    let (mut cases, mut offset, mut verbose) = (2000u32, 0u32, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut number = |name: &str| {
            let v = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{name} takes a whole number, got {v:?}"))
        };
        match arg.as_str() {
            "--smoke" => cases = 1000,
            "--cases" => cases = number("--cases")?,
            "--offset" => offset = number("--offset")?,
            "--verbose" => verbose = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    match offset.checked_add(cases) {
        Some(_) => Ok((cases, offset, verbose)),
        None => Err(format!(
            "--offset {offset} plus --cases {cases} passes the last case number"
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cases, offset, verbose) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!(
            "fuzz_scenarios: {e}\nusage: fuzz_scenarios [--smoke] [--cases N] [--offset K] [--verbose]"
        );
        std::process::exit(2);
    });

    // Panics inside a case are caught and reported as findings; silence
    // the default hook's backtrace spew so the fuzzer's own log stays
    // readable.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let strat = scenario_strategy();
    let repro_dir = Path::new("results/repros");
    let started = Instant::now();
    let mut failures = 0u32;
    for case in offset..offset + cases {
        let fs = strat.generate(&mut TestRng::for_case("fuzz_scenarios", case));
        let seed = u64::from(case);
        let outcome = run_case(&fs, seed);
        match outcome.signature() {
            None => {
                if verbose {
                    println!("case {case:4}  ok    {}", fs.label());
                }
            }
            Some(sig) => {
                failures += 1;
                println!("case {case:4}  FAIL  {}  [{sig}]", fs.label());
                let (minimal, spent) = shrink(&fs, seed, &sig, SHRINK_BUDGET);
                let detail = match run_case(&minimal, seed) {
                    CaseOutcome::Clean => "shrunk case no longer reproduces".to_string(),
                    o => o.describe(),
                };
                match write_repro(repro_dir, case, &minimal, seed, &sig, &detail) {
                    Ok(path) => println!(
                        "           shrunk to {} nodes in {spent} runs -> {}",
                        minimal.nodes(),
                        path.display()
                    ),
                    Err(e) => eprintln!("           could not write reproducer: {e}"),
                }
            }
        }
    }
    std::panic::set_hook(default_hook);

    println!(
        "{} case(s), {} failure(s), {:.1} s",
        cases,
        failures,
        started.elapsed().as_secs_f64()
    );
    if failures > 0 {
        eprintln!("reproducers in {}", repro_dir.display());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(u32, u32, bool), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_parse_and_malformed_ones_are_errors() {
        assert_eq!(parse(&[]), Ok((2000, 0, false)));
        assert_eq!(parse(&["--smoke", "--verbose"]), Ok((1000, 0, true)));
        assert_eq!(
            parse(&["--cases", "50", "--offset", "7"]),
            Ok((50, 7, false))
        );
        for (bad, says) in [
            (&["--cases"][..], "--cases needs a value"),
            (&["--cases", "x"], "\"x\""),
            (&["--offset", "-1"], "\"-1\""),
            (&["--smok"], "unknown argument: --smok"),
            (&["--offset", "4294967295"], "passes the last case number"),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(says), "{err}");
        }
    }
}
