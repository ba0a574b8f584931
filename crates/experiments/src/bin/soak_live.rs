//! `rmc_test`-style soak of the live stack: N publishers × M subscribers
//! of closed-loop reliable multicast over the loopback transport, with the
//! 20% Gilbert–Elliott loss plan on the data channel, reporting goodput,
//! latency quantiles, retransmission and resend counts on stderr (the tracked
//! numbers are `benchmark/`'s `live_soak_ge20` row and EXPERIMENTS.md
//! "Live soak").
//!
//! The acceptance bar is 100% application-layer delivery: every offered
//! packet reaches every subscriber exactly once (MAC retries plus
//! app-level resends recover whatever the loss plan erases), or the run
//! exits nonzero.
//!
//! The run offers 1 000 000 packets in all from 2 publishers to 3
//! subscribers, 500 bytes each (the paper's packet size), seed 1; `--smoke`
//! runs a seconds-scale configuration for CI.

use std::time::Instant;

use rmac_experiments::parse_smoke;
use rmac_live::soak::{ge20, run_loopback_soak, SoakConfig};
use rmac_live::HubConfig;

fn config(smoke: bool) -> SoakConfig {
    let (subscribers, packets_per_publisher, payload_len) = if smoke {
        (2, 2_000, 200)
    } else {
        (3, 500_000, 500)
    };
    SoakConfig {
        publishers: 2,
        subscribers,
        packets_per_publisher,
        payload_len,
        hub: HubConfig {
            loss: Some(ge20()),
            ..HubConfig::default()
        },
        seed: 1,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = parse_smoke(&args).unwrap_or_else(|e| {
        eprintln!("soak_live: {e}\nusage: soak_live [--smoke]");
        std::process::exit(2);
    });
    let cfg = config(smoke);
    let offered = cfg.packets_per_publisher * cfg.publishers as u64;
    eprintln!(
        "soak_live: {} publishers × {} subscribers, {} packets of {} B, 20% GE loss{}",
        cfg.publishers,
        cfg.subscribers,
        offered,
        cfg.payload_len,
        if smoke { " (smoke)" } else { "" },
    );

    let start = Instant::now();
    let report = run_loopback_soak(&cfg);
    let wall_s = start.elapsed().as_secs_f64();

    eprintln!(
        "  {} deliveries ({} duplicates suppressed), {} MAC retransmissions, \
         {} app resends, {} hub fades",
        report.deliveries,
        report.duplicates,
        report.mac_retransmissions,
        report.app_resends,
        report.hub.data_corrupted,
    );
    eprintln!(
        "  virtual {} ({} steps), goodput {:.2} Mb/s, latency p50 {} µs / p99 {} µs, \
         wall {:.2} s ({:.0} packets/s)",
        report.virtual_time,
        report.steps,
        report.goodput_mbps,
        report.latency_p50_ns / 1_000,
        report.latency_p99_ns / 1_000,
        wall_s,
        f64::from(u32::try_from(offered).unwrap_or(u32::MAX)) / wall_s,
    );

    if !report.complete() {
        eprintln!(
            "soak_live: INCOMPLETE — {} of {} expected deliveries",
            report.deliveries, report.expected_deliveries
        );
        std::process::exit(1);
    }
    eprintln!("soak_live: 100% application-layer delivery.");
}
