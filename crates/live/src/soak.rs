//! The `rmc_test`-style soak harness: N publishers × M subscribers of
//! closed-loop reliable multicast over the loopback hub.
//!
//! Each publisher drives one packet at a time: submit to the full
//! subscriber group, wait for the MAC's Reliable-Send outcome, then —
//! RMC's resend logic, one layer up — re-offer the packet to just the
//! receivers the MAC gave up on, until everyone has it. Only then does the
//! packet counter advance. Under a 20 % Gilbert–Elliott erasure plan
//! ([`ge20`]) this must still deliver 100 % of the application payload;
//! what loss costs is *time* (MAC retransmissions, app resends, latency
//! tails), and those are exactly the numbers the [`SoakReport`] captures.
//!
//! Subscribers deduplicate by `(publisher, sequence)` with an
//! expected-next counter per pair — O(1) state however long the run, which
//! is what lets the 1M-packet soak (`soak_live` bin) run in constant
//! memory. Latency is recorded in an `rmac-obs` log-scale histogram from
//! first submission to each subscriber's delivery, in virtual nanoseconds.
//!
//! Everything is deterministic: the report deliberately excludes wall
//! time, so two runs with equal seeds produce `==` reports
//! (`tests/live_determinism.rs` relies on this; the bin measures wall time
//! around the call instead).

use bytes::Bytes;
use rmac_core::{TxOutcome, TxRequest};
use rmac_faults::BurstySpec;
use rmac_obs::LogHistogram;
use rmac_sim::SimTime;
use rmac_wire::{Dest, NodeId};

use crate::hub::{HubConfig, HubStats};
use crate::node::LiveConfig;
use crate::runner::LoopbackRunner;

/// The benchmark loss plan: a Gilbert–Elliott channel with 20 % long-run
/// erasure (80 % of a 50 ms cycle good at 5 % loss, 20 % bad at 80 %
/// loss: 0.8·0.05 + 0.2·0.8 = 0.20).
pub fn ge20() -> BurstySpec {
    BurstySpec {
        mean_good_ms: 40.0,
        mean_bad_ms: 10.0,
        loss_good: 0.05,
        loss_bad: 0.8,
    }
}

/// Application-level resend attempts per packet before the harness declares
/// the mesh wedged and panics: a liveness tripwire — the control channel is
/// lossless, so progress is always eventually made.
const MAX_APP_ATTEMPTS: u32 = 1_000;

/// Soak parameters.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Publisher count (node ids 1..=P).
    pub publishers: usize,
    /// Subscriber count (node ids P+1..=P+M).
    pub subscribers: usize,
    /// Packets each publisher must deliver to every subscriber.
    pub packets_per_publisher: u64,
    /// Application payload length (≥ 10; the first 10 bytes carry the
    /// publisher id and sequence number).
    pub payload_len: usize,
    /// The loopback network, including the loss plan.
    pub hub: HubConfig,
    /// Base seed for the nodes' MAC RNGs.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            publishers: 2,
            subscribers: 3,
            packets_per_publisher: 100,
            payload_len: 100,
            hub: HubConfig {
                loss: Some(ge20()),
                ..HubConfig::default()
            },
            seed: 1,
        }
    }
}

/// What a soak run measured. Excludes wall time by design — equal seeds
/// must give `==` reports.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakReport {
    /// Publisher count.
    pub publishers: usize,
    /// Subscriber count.
    pub subscribers: usize,
    /// Packets offered (publishers × packets_per_publisher).
    pub packets_offered: u64,
    /// Unique application deliveries required (offered × subscribers).
    pub expected_deliveries: u64,
    /// Unique application deliveries achieved.
    pub deliveries: u64,
    /// Duplicate deliveries discarded by the app-level dedupe.
    pub duplicates: u64,
    /// MAC-level retransmissions summed over publishers.
    pub mac_retransmissions: u64,
    /// MAC-level drops (retry limit exhausted) summed over publishers.
    pub mac_drops: u64,
    /// Application-level resends (packets re-offered to failed receivers).
    pub app_resends: u64,
    /// Hub traffic totals (sent/delivered/dropped per channel).
    pub hub: HubStats,
    /// Virtual time the run took.
    pub virtual_time: SimTime,
    /// Runner steps executed.
    pub steps: u64,
    /// Delivery latency, first submission → subscriber delivery (ns).
    pub latency_p50_ns: u64,
    /// 99th-percentile latency (ns).
    pub latency_p99_ns: u64,
    /// Worst-case latency (ns).
    pub latency_max_ns: u64,
    /// Mean latency (ns).
    pub latency_mean_ns: u64,
    /// Application goodput over virtual time, in Mbit/s (unique payload
    /// bits delivered / virtual seconds).
    pub goodput_mbps: f64,
}

impl SoakReport {
    /// Did every packet reach every subscriber?
    pub fn complete(&self) -> bool {
        self.deliveries == self.expected_deliveries
    }
}

/// Per-publisher closed-loop state.
struct PubState {
    id: NodeId,
    /// Next sequence number to offer once the current packet completes.
    next_seq: u64,
    /// The in-flight packet: `(seq, first_submit_time, app_attempts)`.
    pending: Option<(u64, SimTime, u32)>,
}

/// First 10 payload bytes: publisher id (BE u16) + sequence (BE u64).
fn make_payload(publisher: NodeId, seq: u64, len: usize) -> Bytes {
    let len = len.max(10);
    let mut v = vec![0u8; len];
    v[..2].copy_from_slice(&publisher.0.to_be_bytes());
    v[2..10].copy_from_slice(&seq.to_be_bytes());
    // Deterministic filler so payloads differ between packets.
    for (i, b) in v[10..].iter_mut().enumerate() {
        *b = (seq as u8).wrapping_add(i as u8);
    }
    Bytes::from(v)
}

fn parse_payload(payload: &[u8]) -> Option<(NodeId, u64)> {
    if payload.len() < 10 {
        return None;
    }
    let publisher = NodeId(u16::from_be_bytes([payload[0], payload[1]]));
    let seq = u64::from_be_bytes(payload[2..10].try_into().expect("8 bytes"));
    Some((publisher, seq))
}

/// Run the soak to completion and report. Panics if a packet cannot be
/// completed within `MAX_APP_ATTEMPTS` resends (the mesh wedged) — by
/// construction of the lossless control channel this indicates a protocol
/// bug, which is exactly what a soak is for.
pub fn run_loopback_soak(cfg: &SoakConfig) -> SoakReport {
    assert!(cfg.publishers >= 1 && cfg.subscribers >= 1);
    let pub_ids: Vec<NodeId> = (1..=cfg.publishers as u16).map(NodeId).collect();
    let sub_ids: Vec<NodeId> = (0..cfg.subscribers as u16)
        .map(|i| NodeId(cfg.publishers as u16 + 1 + i))
        .collect();
    let all: Vec<NodeId> = pub_ids.iter().chain(sub_ids.iter()).copied().collect();

    let configs = all
        .iter()
        .map(|&id| {
            (
                id,
                LiveConfig {
                    neighbors: all.iter().copied().filter(|&n| n != id).collect(),
                    seed: cfg
                        .seed
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(u64::from(id.0)),
                },
            )
        })
        .collect();
    let mut runner = LoopbackRunner::new(configs, cfg.hub.clone());

    let mut pubs: Vec<PubState> = pub_ids
        .iter()
        .map(|&id| PubState {
            id,
            next_seq: 0,
            pending: None,
        })
        .collect();
    // First submission time of each publisher's in-flight packet, kept in
    // PubState; subscribers need it when the delivery lands, so keep a
    // per-publisher copy indexed by id as well.
    let mut submit_time: Vec<SimTime> = vec![SimTime::ZERO; cfg.publishers + 1];
    // expected_next[sub][pub]: O(1) dedupe however long the run.
    let mut expected: Vec<Vec<u64>> = vec![vec![0; cfg.publishers + 1]; cfg.subscribers];

    let mut latency = LogHistogram::new();
    let mut deliveries = 0u64;
    let mut duplicates = 0u64;
    let mut app_resends = 0u64;

    // Kick off: every publisher offers its first packet.
    for p in &mut pubs {
        let payload = make_payload(p.id, 0, cfg.payload_len);
        runner.submit(
            p.id,
            TxRequest {
                reliable: true,
                dest: Dest::Group(sub_ids.clone()),
                payload,
                token: 0,
            },
        );
        p.pending = Some((0, runner.now(), 0));
        submit_time[p.id.0 as usize] = runner.now();
        p.next_seq = 1;
    }

    let mut stalls = 0u32;
    loop {
        let progressed = runner.step();

        // Take every node's deliveries, so that none piles up. Those of a
        // subscriber feed the dedupe and the latency histogram; any other
        // node's are discarded (the live wire decodes group DATA as
        // broadcast, so a publisher in Idle/Backoff accepts the other's
        // late DATA).
        for node in runner.nodes_mut() {
            let delivered = node.take_delivered();
            let Some(si) = usize::from(node.id().0).checked_sub(cfg.publishers + 1) else {
                continue;
            };
            for (t, frame) in delivered {
                let Some((publisher, seq)) = parse_payload(&frame.payload) else {
                    continue; // not soak traffic
                };
                let slot = &mut expected[si][publisher.0 as usize];
                if seq == *slot {
                    *slot += 1;
                    deliveries += 1;
                    latency.record((t.saturating_sub(submit_time[publisher.0 as usize])).nanos());
                } else {
                    duplicates += 1;
                }
            }
        }

        // Harvest publisher outcomes and keep the loop closed.
        for p in pubs.iter_mut() {
            let id = p.id;
            for (token, outcome) in runner.node_mut(id).take_outcomes() {
                let Some((seq, first, attempts)) = p.pending else {
                    panic!("outcome {token} with no packet in flight at {id:?}");
                };
                debug_assert_eq!(token, seq, "outcomes arrive in order");
                let (delivered_to, failed) = match outcome {
                    TxOutcome::Reliable { delivered, failed } => (delivered, failed),
                    TxOutcome::Sent => panic!("soak submits reliable traffic only"),
                    TxOutcome::Rejected => panic!("queue rejection in closed loop"),
                };
                // A claimed delivery must be real: the subscriber's
                // in-order counter has already passed `seq` (deliveries
                // are harvested before outcomes, and in virtual time the
                // delivery strictly precedes the ABT that reports it). A
                // violation is a protocol false-positive — the publisher
                // will advance and the subscriber will never get this
                // packet — which no amount of app-level resending can
                // repair, so fail loudly right here.
                for &s in &delivered_to {
                    let si = s.0 as usize - cfg.publishers - 1;
                    assert!(
                        expected[si][id.0 as usize] > seq,
                        "false ABT: {id:?} believes {s:?} delivered packet {seq}, \
                         but its in-order counter is only at {}",
                        expected[si][id.0 as usize],
                    );
                }
                if !failed.is_empty() {
                    // RMC-style application resend to just the stragglers.
                    if attempts >= MAX_APP_ATTEMPTS {
                        for n in runner.nodes() {
                            eprintln!(
                                "  {:?}: state {:?}, stats {:?}",
                                n.id(),
                                n.state(),
                                n.stats()
                            );
                        }
                        panic!(
                            "packet {seq} from {id:?} wedged after {attempts} app resends \
                             (failed receivers: {failed:?})"
                        );
                    }
                    app_resends += 1;
                    let payload = make_payload(id, seq, cfg.payload_len);
                    runner.submit(
                        id,
                        TxRequest {
                            reliable: true,
                            dest: Dest::Group(failed),
                            payload,
                            token: seq,
                        },
                    );
                    p.pending = Some((seq, first, attempts + 1));
                } else if p.next_seq < cfg.packets_per_publisher {
                    let seq = p.next_seq;
                    p.next_seq += 1;
                    let payload = make_payload(id, seq, cfg.payload_len);
                    runner.submit(
                        id,
                        TxRequest {
                            reliable: true,
                            dest: Dest::Group(sub_ids.clone()),
                            payload,
                            token: seq,
                        },
                    );
                    p.pending = Some((seq, runner.now(), 0));
                    submit_time[id.0 as usize] = runner.now();
                } else {
                    p.pending = None;
                }
            }
        }

        if !progressed {
            if pubs.iter().all(|p| p.pending.is_none()) {
                break;
            }
            // The harvest above may have just submitted fresh work (the
            // step that drained the mesh also completed an outcome); give
            // the runner one more pass before declaring a wedge.
            stalls += 1;
            assert!(stalls < 2, "mesh idle with packets still in flight");
        } else {
            stalls = 0;
        }
    }

    let packets_offered = cfg.publishers as u64 * cfg.packets_per_publisher;
    let expected_deliveries = packets_offered * cfg.subscribers as u64;
    let (mut retx, mut drops) = (0u64, 0u64);
    for &id in &pub_ids {
        let c = runner.node(id).counters();
        retx += c.retransmissions;
        drops += c.drops;
    }
    let virtual_time = runner.now();
    let payload_bits = deliveries.saturating_mul(cfg.payload_len.max(10) as u64 * 8);
    let secs = virtual_time.as_secs_f64();
    let goodput_mbps = if secs > 0.0 {
        payload_bits as f64 / secs / 1e6
    } else {
        0.0
    };

    SoakReport {
        publishers: cfg.publishers,
        subscribers: cfg.subscribers,
        packets_offered,
        expected_deliveries,
        deliveries,
        duplicates,
        mac_retransmissions: retx,
        mac_drops: drops,
        app_resends,
        hub: runner.hub().stats().clone(),
        virtual_time,
        steps: runner.steps(),
        latency_p50_ns: latency.quantile(0.5),
        latency_p99_ns: latency.quantile(0.99),
        latency_max_ns: latency.max(),
        latency_mean_ns: latency.mean() as u64,
        goodput_mbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lossless smoke: everything delivers exactly once, no resends.
    #[test]
    fn lossless_soak_delivers_everything_once() {
        let cfg = SoakConfig {
            publishers: 1,
            subscribers: 2,
            packets_per_publisher: 25,
            hub: HubConfig::default(), // no loss
            ..SoakConfig::default()
        };
        let r = run_loopback_soak(&cfg);
        assert!(r.complete(), "{r:?}");
        assert_eq!(r.deliveries, 50);
        assert_eq!(r.app_resends, 0);
        assert_eq!(r.mac_drops, 0);
        assert_eq!(r.hub.data_corrupted, 0);
        assert!(r.latency_p50_ns > 0);
        assert!(r.goodput_mbps > 0.0);
    }

    /// The acceptance-criteria shape in miniature: 20 % GE loss, 100 %
    /// application-layer delivery, loss paid for in retransmissions.
    #[test]
    fn ge20_soak_still_delivers_everything() {
        let cfg = SoakConfig {
            publishers: 2,
            subscribers: 2,
            packets_per_publisher: 50,
            ..SoakConfig::default() // hub carries ge20()
        };
        let r = run_loopback_soak(&cfg);
        assert!(r.complete(), "{r:?}");
        assert_eq!(r.deliveries, 200);
        assert!(
            r.mac_retransmissions > 0,
            "a 20% plan must force MAC retries: {r:?}"
        );
        assert!(r.hub.data_corrupted > 0);
        assert!(r.latency_p99_ns >= r.latency_p50_ns);
    }

    /// Equal seeds ⇒ equal reports (the determinism contract the proptest
    /// in tests/live_determinism.rs fuzzes more broadly).
    #[test]
    fn reports_are_deterministic() {
        let cfg = SoakConfig {
            packets_per_publisher: 20,
            ..SoakConfig::default()
        };
        assert_eq!(run_loopback_soak(&cfg), run_loopback_soak(&cfg));
    }
}
