//! `rmac` — command-line front end for the simulator.
//!
//! ```text
//! rmac run [--protocol rmac|bmmm|bmw|lbp|mx|rmac-norbt] [--scenario stationary|speed1|speed2]
//!          [--rate PPS] [--nodes N] [--packets P] [--seed S]
//! rmac compare [--rate PPS] [--nodes N] [--packets P] [--seed S]
//! rmac help
//! ```
//!
//! For the paper's figure grid use the `campaign` bin of `rmac-experiments`
//! (EXPERIMENTS.md "Reproducing").

use std::process::ExitCode;

use rmac::prelude::*;

struct Args {
    protocol: Protocol,
    scenario: String,
    rate: f64,
    nodes: usize,
    packets: u64,
    seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            protocol: Protocol::Rmac,
            scenario: "stationary".into(),
            rate: 20.0,
            nodes: 75,
            packets: 500,
            seed: 0,
        }
    }
}

fn parse_protocol(s: &str) -> Result<Protocol, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "rmac" => Protocol::Rmac,
        "rmac-norbt" | "norbt" => Protocol::RmacNoRbt,
        "bmmm" => Protocol::Bmmm,
        "bmw" => Protocol::Bmw,
        "lbp" => Protocol::Lbp,
        "mx" | "802.11mx" | "80211mx" => Protocol::Mx80211,
        other => return Err(format!("unknown protocol '{other}'")),
    })
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
            "--protocol" | "-p" => args.protocol = parse_protocol(&val()?)?,
            "--scenario" | "-s" => args.scenario = val()?,
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
    let cfg = match args.scenario.as_str() {
        "stationary" => ScenarioConfig::paper_stationary(args.rate),
        "speed1" => ScenarioConfig::paper_speed1(args.rate),
        "speed2" => ScenarioConfig::paper_speed2(args.rate),
        other => return Err(format!("unknown scenario '{other}'")),
    };
    let cfg = cfg.with_nodes(args.nodes).with_packets(args.packets);
    cfg.validate()?;
    Ok(cfg)
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
    let report = run_replication(&cfg, args.protocol, args.seed);
    print_report(&report);
    Ok(())
}

fn cmd_compare(rest: &[String]) -> Result<(), String> {
    let args = parse_args(rest)?;
    let cfg = config_for(&args)?;
    println!(
        "{:<12} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "protocol", "delivery", "drop", "retx", "txoh", "delay(ms)"
    );
    for p in [
        Protocol::Rmac,
        Protocol::RmacNoRbt,
        Protocol::Bmmm,
        Protocol::Bmw,
        Protocol::Lbp,
        Protocol::Mx80211,
    ] {
        let r = run_replication(&cfg, p, args.seed);
        println!(
            "{:<12} {:>9.4} {:>8.4} {:>8.3} {:>8.3} {:>10.1}",
            r.protocol,
            r.delivery_ratio(),
            r.drop_ratio_avg,
            r.retx_ratio_avg,
            r.txoh_ratio_avg,
            r.e2e_delay_avg_s * 1e3
        );
    }
    Ok(())
}

const HELP: &str = "\
rmac — busy-tone reliable multicast MAC simulator (ICPP 2004 reproduction)

USAGE:
    rmac run      [OPTIONS]   run one replication and print its report
    rmac compare  [OPTIONS]   run all six protocols on one placement
    rmac help                 show this message

OPTIONS:
    -p, --protocol  rmac | rmac-norbt | bmmm | bmw | lbp | mx   [rmac]
    -s, --scenario  stationary | speed1 | speed2                [stationary]
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

    fn config(flags: &[&str]) -> Result<ScenarioConfig, String> {
        let argv: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
        config_for(&parse_args(&argv)?)
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
