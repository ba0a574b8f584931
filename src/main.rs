//! `rmac` — command-line front end for the simulator.
//!
//! ```text
//! rmac run [--protocol LABEL] [--scenario LABEL] [--rate PPS] [--nodes N]
//!          [--packets P] [--seed S]
//! rmac compare [--scenario LABEL] [--rate PPS] [--nodes N] [--packets P] [--seed S]
//! rmac help
//! ```
//!
//! A protocol is named by its report label (`Protocol::label`, any case), a
//! scenario by its campaign label (`ScenarioKind::label`). For the paper's
//! figure grid use the `campaign` bin of `rmac-experiments`
//! (EXPERIMENTS.md "Reproducing").

use std::process::ExitCode;

use rmac::campaign::ScenarioKind;
use rmac::metrics::table::fmt;
use rmac::metrics::Table;
use rmac::prelude::*;

struct Args {
    protocol: Protocol,
    scenario: ScenarioKind,
    rate: f64,
    nodes: usize,
    packets: u64,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            protocol: Protocol::Rmac,
            scenario: ScenarioKind::Stationary,
            rate: 20.0,
            nodes: 75,
            packets: 500,
            seed: 0,
        }
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--protocol" | "-p" => {
                let name = val()?;
                args.protocol = (Protocol::ALL.into_iter())
                    .find(|p| p.label().eq_ignore_ascii_case(&name))
                    .ok_or_else(|| format!("unknown protocol '{name}'"))?;
            }
            "--scenario" | "-s" => {
                let name = val()?;
                args.scenario = ScenarioKind::from_label(&name)
                    .ok_or_else(|| format!("unknown scenario '{name}'"))?;
            }
            "--rate" | "-r" => args.rate = val()?.parse().map_err(|e| format!("--rate: {e}"))?,
            "--nodes" | "-n" => args.nodes = val()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--packets" => args.packets = val()?.parse().map_err(|e| format!("--packets: {e}"))?,
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn config_for(args: &Args) -> Result<ScenarioConfig, String> {
    let cfg = (args.scenario).config(args.rate, args.nodes, args.packets);
    cfg.validate()?;
    Ok(cfg)
}

/// The protocols `compare` runs: every one but the deliberately broken mutant.
fn compared() -> impl Iterator<Item = Protocol> {
    Protocol::ALL
        .into_iter()
        .filter(|&p| p != Protocol::RmacSkipRbtSense)
}

fn print_report(r: &rmac::metrics::RunReport) {
    println!(
        "{} on {} @ {} pkt/s (seed {})",
        r.protocol, r.scenario, r.rate_pps, r.seed
    );
    println!("  delivery ratio : {:.4}", r.delivery_ratio());
    println!("  drop ratio     : {:.4}", r.drop_ratio_avg);
    println!("  retransmission : {:.4}", r.retx_ratio_avg);
    println!("  overhead ratio : {:.4}", r.txoh_ratio_avg);
    println!("  e2e delay      : {:.2} ms", r.e2e_delay_avg_s * 1e3);
    println!(
        "  tree           : hops {:.2}, children {:.2}",
        r.hops_avg, r.children_avg
    );
    println!(
        "  simulated      : {:.1} s, {} events",
        r.sim_secs, r.events
    );
}

fn cmd_run(rest: &[String]) -> Result<(), String> {
    let args = parse_args(rest)?;
    let cfg = config_for(&args)?;
    let report = Run::new(&cfg, args.protocol, args.seed).execute().report;
    print_report(&report);
    Ok(())
}

fn cmd_compare(rest: &[String]) -> Result<(), String> {
    let args = parse_args(rest)?;
    let cfg = config_for(&args)?;
    let mut t = Table::new(
        "",
        &["protocol", "delivery", "drop", "retx", "txoh", "delay(ms)"],
    );
    for p in compared() {
        let r = Run::new(&cfg, p, args.seed).execute().report;
        t.row(vec![
            r.protocol.clone(),
            fmt(r.delivery_ratio(), 4),
            fmt(r.drop_ratio_avg, 4),
            fmt(r.retx_ratio_avg, 3),
            fmt(r.txoh_ratio_avg, 3),
            fmt(r.e2e_delay_avg_s * 1e3, 1),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

const HELP: &str = "\
rmac — busy-tone reliable multicast MAC simulator (ICPP 2004 reproduction)

USAGE:
    rmac run      [OPTIONS]   run one replication and print its report
    rmac compare  [OPTIONS]   run all six protocols on one placement
    rmac help                 show this message

OPTIONS:
    -p, --protocol  RMAC | RMAC-noRBT | BMMM | BMW | LBP |      [RMAC]
                    802.11MX, in any case (RMAC-skipRbtSense is
                    the deliberately broken mutant)
    -s, --scenario  stationary | speed1 | speed2, or another    [stationary]
                    campaign scenario (chain3, star41-limit5, ...);
                    a star or a chain keeps its own node count
    -r, --rate      source rate in packets/second               [20]
    -n, --nodes     network size                                [75]
        --packets   packets generated by the source             [500]
        --seed      replication seed (placement + all RNG)      [0]

The paper's full evaluation grid is a campaign of the rmac-experiments crate:
    cargo run --release -p rmac-experiments --bin campaign -- run paper-figures
    cargo run --release -p rmac-experiments --bin campaign_report -- results/campaigns/paper-figures
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => cmd_run(&argv[1..]),
        Some("compare") => cmd_compare(&argv[1..]),
        None | Some("help") | Some("--help") | Some("-h") => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'\n\n{HELP}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
        parse_args(&argv)
    }

    fn config(flags: &[&str]) -> Result<ScenarioConfig, String> {
        config_for(&args(flags)?)
    }

    #[test]
    fn every_protocol_label_parses_in_any_case() {
        for p in Protocol::ALL {
            let label = p.label();
            for spelled in [
                label.to_string(),
                label.to_lowercase(),
                label.to_uppercase(),
            ] {
                let parsed = args(&["--protocol", &spelled]).expect(&spelled).protocol;
                assert_eq!(parsed, p, "{spelled}");
            }
        }
    }

    #[test]
    fn a_star_or_a_chain_ignores_the_node_count_as_a_campaign_case_does() {
        for (scenario, nodes) in [("chain3", 4), ("star41-limit5", 41), ("stationary", 30)] {
            let cfg = config(&["--scenario", scenario, "--nodes", "30"]).expect(scenario);
            assert_eq!((cfg.name.as_str(), cfg.nodes), (scenario, nodes));
        }
    }

    #[test]
    fn compare_runs_six_protocols_and_never_the_mutant() {
        let list: Vec<Protocol> = compared().collect();
        assert_eq!(list.len(), 6);
        assert!(!list.contains(&Protocol::RmacSkipRbtSense));
    }

    #[test]
    fn a_rate_that_is_not_finite_and_positive_is_an_error() {
        for rate in ["0", "-5", "nan", "inf", "-inf"] {
            let err = config(&["--rate", rate]).expect_err(rate);
            assert!(
                err.contains("rate_pps must be finite and positive"),
                "{err}"
            );
        }
        assert!(config(&["--rate", "0.5"]).is_ok());
    }

    #[test]
    fn a_node_count_outside_the_id_space_is_an_error() {
        for nodes in ["0", "65536", "100000"] {
            let err = config(&["--nodes", nodes]).expect_err(nodes);
            assert!(err.contains("nodes must be in 1..=65535"), "{err}");
        }
        for nodes in ["1", "65535"] {
            assert_eq!(
                config(&["--nodes", nodes]).expect(nodes).nodes.to_string(),
                nodes
            );
        }
    }

    #[test]
    fn a_run_past_the_clock_is_an_error() {
        let err = config(&["--packets", "18446744073709551615"]).expect_err("past the clock");
        assert!(err.contains("end time must fit the clock"), "{err}");
    }

    #[test]
    fn unknown_names_and_flags_are_errors() {
        assert!(config(&["--scenario", "lunar"]).is_err());
        assert!(config(&["--protocol", "aloha"]).is_err());
        assert!(config(&["--rate"]).is_err());
        assert!(config(&["--frobnicate", "1"]).is_err());
    }
}
