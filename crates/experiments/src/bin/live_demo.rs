//! Two-terminal live RMAC demo over real UDP sockets.
//!
//! Terminal 1 (subscriber — start it first and note the printed
//! control-socket port):
//!
//! ```text
//! live_demo --id 2 --bind 127.0.0.1:7002
//! ```
//!
//! Terminal 2 (publisher, pointing at the subscriber's control address):
//!
//! ```text
//! live_demo --id 1 --bind 127.0.0.1:7001 --peer 2=127.0.0.1:7002 --publish 20
//! ```
//!
//! The publisher runs 20 reliable multicast exchanges — MRTS, RBT, DATA,
//! ABT, each leg a real datagram — and prints per-packet outcomes; the
//! subscriber prints each delivery. Without `--publish` the node just
//! listens. MAC time runs `RMAC_LIVE_SCALE`× slower than wall time
//! (default 200), which turns the paper's microsecond tone windows into
//! comfortable wall-clock margins; both ends must use the same scale, and a
//! value that is not a positive integer exits 2.
//!
//! Multiple peers can be given (`--peer 2=… --peer 3=…`); a reliable
//! publish is addressed to all of them. Peer ids double as the tone
//! fan-out set, so every node must list every other node it shares the
//! "channel" with.

use std::net::SocketAddr;
use std::process::exit;
use std::time::Instant;

use bytes::Bytes;
use rmac_core::{TxOutcome, TxRequest};
use rmac_live::{Driver, LiveConfig, LiveNode, UdpConfig, UdpTransport};
use rmac_wire::{Dest, NodeId};

/// Wall nanoseconds per MAC nanosecond when `RMAC_LIVE_SCALE` is unset.
const DEFAULT_SCALE: u32 = 200;

struct Args {
    id: NodeId,
    bind: SocketAddr,
    peers: Vec<(NodeId, SocketAddr)>,
    publish: u64,
    payload_len: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: live_demo --id <n> --bind <ip:port> [--peer <n>=<ip:port>]... \
         [--publish <count>] [--payload <bytes>]\n\
         env: RMAC_LIVE_SCALE (wall ns per MAC ns, default 200)"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut id = None;
    let mut bind = None;
    let mut peers = Vec::new();
    let mut publish = 0u64;
    let mut payload_len = 120usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("live_demo: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--id" => id = value("--id").parse().ok().map(NodeId),
            "--bind" | "--listen" => bind = value("--bind").parse().ok(),
            "--peer" => {
                let v = value("--peer");
                let Some((n, addr)) = v.split_once('=') else {
                    usage();
                };
                match (n.parse(), addr.parse()) {
                    (Ok(n), Ok(addr)) => peers.push((NodeId(n), addr)),
                    _ => usage(),
                }
            }
            "--publish" => publish = value("--publish").parse().unwrap_or_else(|_| usage()),
            "--payload" => payload_len = value("--payload").parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let (Some(id), Some(bind)) = (id, bind) else {
        usage();
    };
    Args {
        id,
        bind,
        peers,
        publish,
        payload_len,
    }
}

/// The time scale `RMAC_LIVE_SCALE` holds: a positive integer. Anything
/// else is refused, not run at some other scale: 0 would run in real time
/// (the wall clock clamps it to 1), where host jitter breaks the 2 µs tone
/// windows.
fn parse_scale(value: Option<&str>) -> Result<u32, String> {
    let Some(v) = value else {
        return Ok(DEFAULT_SCALE);
    };
    match v.parse() {
        Ok(scale) if scale > 0 => Ok(scale),
        _ => Err(format!(
            "RMAC_LIVE_SCALE must be a positive integer (wall ns per MAC ns), got {v:?}"
        )),
    }
}

fn main() {
    let args = parse_args();
    let value = std::env::var_os("RMAC_LIVE_SCALE").map(|v| v.to_string_lossy().into_owned());
    let scale = parse_scale(value.as_deref()).unwrap_or_else(|e| {
        eprintln!("live_demo: {e}");
        exit(2);
    });
    let transport = UdpTransport::new(
        args.id,
        UdpConfig {
            scale,
            ctrl_bind: args.bind,
            peers: args.peers.clone(),
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("live_demo: cannot bind {}: {e}", args.bind);
        exit(1);
    });
    println!(
        "live_demo: node {} on {} (scale {scale}×), peers: {:?}",
        args.id.0,
        transport.ctrl_addr(),
        args.peers,
    );

    let cfg = LiveConfig {
        neighbors: args.peers.iter().map(|&(n, _)| n).collect(),
        seed: u64::from(args.id.0),
    };
    let mut driver = Driver::new(LiveNode::new(args.id, cfg), transport);

    if args.publish == 0 {
        println!("live_demo: listening (ctrl-c to stop)…");
        loop {
            driver.pump().expect("transport failed");
            for (at, frame) in driver.node_mut().take_delivered() {
                println!(
                    "  [{:>12}ns] delivered {} B from node {}",
                    at.nanos(),
                    frame.payload.len(),
                    frame.src.0,
                );
            }
        }
    }

    let group: Vec<NodeId> = args.peers.iter().map(|&(n, _)| n).collect();
    if group.is_empty() {
        eprintln!("live_demo: --publish needs at least one --peer");
        exit(2);
    }
    let started = Instant::now();
    let mut delivered = 0u64;
    // Frames delivered up at this node (another publisher's DATA): taken
    // on every pump, so that they do not pile up in the node.
    let mut heard = 0usize;
    for seq in 0..args.publish {
        let payload = vec![seq as u8; args.payload_len.max(1)];
        driver
            .submit(TxRequest {
                reliable: true,
                dest: Dest::Group(group.clone()),
                payload: Bytes::from(payload),
                token: seq,
            })
            .expect("transport failed");
        // One packet in flight at a time: pump until its outcome lands.
        let mut outcomes = Vec::new();
        while outcomes.is_empty() {
            driver.pump().expect("transport failed");
            heard += driver.node_mut().take_delivered().len();
            outcomes = driver.node_mut().take_outcomes();
        }
        for (token, outcome) in outcomes {
            match outcome {
                TxOutcome::Reliable {
                    delivered: d,
                    failed,
                } => {
                    println!(
                        "  packet {token}: delivered to {:?}, failed {:?}",
                        d.iter().map(|n| n.0).collect::<Vec<_>>(),
                        failed.iter().map(|n| n.0).collect::<Vec<_>>(),
                    );
                    if failed.is_empty() {
                        delivered += 1;
                    }
                }
                other => println!("  packet {token}: {other:?}"),
            }
        }
    }
    let c = driver.node().counters();
    println!(
        "live_demo: {delivered}/{} packets fully delivered in {:.2} s \
         ({} MAC retransmissions, {} MRTS sent, {heard} frames delivered here)",
        args.publish,
        started.elapsed().as_secs_f64(),
        c.retransmissions,
        c.mrts_tx,
    );
    exit(i32::from(delivered != args.publish));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_is_a_positive_integer_or_the_default() {
        assert_eq!(parse_scale(None), Ok(DEFAULT_SCALE));
        assert_eq!(parse_scale(Some("1000")), Ok(1000));
        for bad in ["0", "", "fast", "-5", "2.5", " 200", "4294967296"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(
                err.contains("RMAC_LIVE_SCALE") && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }
}
