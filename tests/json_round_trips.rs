//! Every document the workspace writes reads back as what was written:
//! integers over all of `u64`, floats bit for bit (or, in a store line, to
//! its six decimals), and names that need escaping — quotes, backslashes,
//! control characters, non-ASCII. Trace lines have the same property in
//! `rmac-phy` (`every_event_round_trips_through_its_line`).

use proptest::collection::vec;
use proptest::prelude::*;
use rmac::campaign::{CampaignSpec, CaseRecord, FaultAxis, ScenarioKind};
use rmac::engine::Protocol;
use rmac::faults::{BurstySpec, ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec, SkewSpec};

/// Text drawn from characters that each need care in JSON.
fn text() -> impl Strategy<Value = String> {
    const CHARS: [char; 14] = [
        'a', 'Z', ' ', '/', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}', 'é', '😀',
    ];
    vec(0..CHARS.len(), 0..12).prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

/// Any finite float, from every exponent (a non-finite draw becomes -0).
fn float() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        Some(f64::from_bits(bits))
            .filter(|v| v.is_finite())
            .unwrap_or(-0.0)
    })
}

fn plans() -> impl Strategy<Value = FaultPlan> {
    let bursty = (any::<bool>(), float(), float(), float(), float()).prop_map(
        |(some, mean_good_ms, mean_bad_ms, loss_good, loss_bad)| {
            some.then_some(BurstySpec {
                mean_good_ms,
                mean_bad_ms,
                loss_good,
                loss_bad,
            })
        },
    );
    let kinds = [ChurnKind::Crash, ChurnKind::Deaf, ChurnKind::Mute];
    let churn = (any::<u16>(), 0..kinds.len(), any::<u64>(), any::<u64>()).prop_map(
        move |(node, k, at_ms, for_ms)| ChurnSpec {
            node,
            kind: kinds[k],
            at_ms,
            for_ms,
        },
    );
    let targets = [JamTarget::Data, JamTarget::Rbt, JamTarget::Abt];
    let jammer = (
        (float(), float()),
        0..targets.len(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            move |((x, y), t, start_ms, period_ms, burst_ms)| JammerSpec {
                x,
                y,
                target: targets[t],
                start_ms,
                period_ms,
                burst_ms,
            },
        );
    let skew = (any::<u16>(), float()).prop_map(|(node, ppm)| SkewSpec { node, ppm });
    (
        any::<u64>(),
        bursty,
        vec(churn, 0..3),
        vec(jammer, 0..3),
        vec(skew, 0..3),
    )
        .prop_map(|(salt, bursty, churn, jammers, skew)| FaultPlan {
            salt,
            bursty,
            churn,
            jammers,
            skew,
        })
}

fn specs() -> impl Strategy<Value = CampaignSpec> {
    let protocols = [Protocol::Rmac, Protocol::Bmmm, Protocol::Lbp];
    // `validate` admits finite positive rates only.
    let rate = float().prop_map(|r| {
        Some(r.abs())
            .filter(|r| *r > 0.0)
            .unwrap_or(f64::MIN_POSITIVE)
    });
    let axis = (text(), plans()).prop_map(|(name, plan)| FaultAxis { name, plan });
    // `validate` also refuses a case whose end time overflows the clock or
    // whose node count leaves 1..=65535: draw mostly grids it admits, and
    // now and then one it refuses.
    let mostly = |admitted: fn(u64) -> u64| {
        (0u8..5, any::<u64>()).prop_map(move |(pick, x)| if pick > 0 { admitted(x) } else { x })
    };
    let packets = mostly(|x| x % 10_000);
    let nodes = mostly(|x| 1 + x % 65_535);
    let sizes = (packets, nodes, any::<u64>(), any::<bool>());
    let axes = (text(), vec(0..protocols.len(), 0..4), vec(0..3usize, 0..4));
    (
        axes,
        vec(rate, 0..4),
        vec(any::<u64>(), 0..4),
        vec(axis, 0..3),
        sizes,
    )
        .prop_map(
            move |((name, ps, ss), rates, seeds, faults, (packets, nodes, shards, obs))| {
                CampaignSpec {
                    name,
                    protocols: ps.into_iter().map(|i| protocols[i]).collect(),
                    scenarios: ss.into_iter().map(|i| ScenarioKind::ALL[i]).collect(),
                    rates,
                    seeds,
                    faults,
                    packets,
                    nodes: nodes as usize,
                    shards: shards as usize,
                    // `validate` refuses obs on sharded cases.
                    obs: obs && shards <= 1,
                }
            },
        )
}

fn records() -> impl Strategy<Value = CaseRecord> {
    // A metric the store keeps to six decimals, drawn on that grid so it
    // reads back exactly.
    let six = || {
        (any::<bool>(), 0u64..1 << 40)
            .prop_map(|(neg, k)| (1 - 2 * neg as i64) as f64 * k as f64 / 1e6)
    };
    let eight = (six(), six(), six(), six(), (six(), six(), six(), six()));
    let names = (text(), text(), text(), text(), text());
    let counts = (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    );
    let verdict = (
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        (any::<u64>(), float()),
    );
    let tails = ((six(), six(), six(), six()), (six(), six(), six()));
    let counters = vec((text(), any::<u64>()), 0..5).prop_map(|cs| {
        // Keys of one object are distinct.
        let named = cs.into_iter().enumerate();
        named
            .map(|(i, (name, v))| (format!("{i}{name}"), v))
            .collect()
    });
    (names, eight, counts, verdict, (tails, counters)).prop_map(
        |(
            (key, protocol, scenario, fault, first_violation),
            (
                delivery,
                drop_ratio,
                retx_ratio,
                txoh_ratio,
                (abort_avg, mrts_len_avg, delay_s, hops_avg),
            ),
            (packets_sent, receptions, expected_receptions, events, faults_injected),
            (check_clean, violations, fault_crashes, fault_jam_bursts, (seed, rate)),
            (
                (
                    (abort_p99, abort_max, mrts_len_p99, mrts_len_max),
                    (hops_p99, children_avg, children_p99),
                ),
                obs_counters,
            ),
        )| CaseRecord {
            key,
            protocol,
            scenario,
            rate,
            seed,
            fault,
            delivery,
            drop_ratio,
            retx_ratio,
            txoh_ratio,
            abort_avg,
            mrts_len_avg,
            delay_s,
            hops_avg,
            packets_sent,
            receptions,
            expected_receptions,
            events,
            faults_injected,
            check_clean,
            violations,
            first_violation,
            abort_p99,
            abort_max,
            mrts_len_p99,
            mrts_len_max,
            fault_crashes,
            fault_jam_bursts,
            hops_p99,
            children_avg,
            children_p99,
            obs_counters,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_manifest_reads_back_as_its_spec_and_writes_the_same_bytes(spec in specs()) {
        let json = spec.to_json();
        if let Err(refused) = spec.validate() {
            // A grid the engine would refuse is refused on the way in.
            prop_assert_eq!(CampaignSpec::from_json(&json).err(), Some(refused));
            return Ok(());
        }
        let back = CampaignSpec::from_json(&json).map_err(TestCaseError::fail)?;
        prop_assert_eq!(format!("{back:?}"), format!("{spec:?}"));
        prop_assert_eq!(back.to_json(), json);
    }

    #[test]
    fn a_fault_plan_reads_back_exactly(plan in plans()) {
        let json = plan.to_json();
        let back = FaultPlan::from_json(&json).map_err(TestCaseError::fail)?;
        prop_assert_eq!(format!("{back:?}"), format!("{plan:?}"));
        prop_assert_eq!(back.to_json(), json);
    }

    #[test]
    fn a_store_line_reads_back_exactly(record in records()) {
        let line = record.to_jsonl();
        prop_assert!(!line.contains('\n'), "{}", line);
        let back = CaseRecord::from_jsonl(&line).map_err(TestCaseError::fail)?;
        prop_assert_eq!(format!("{back:?}"), format!("{record:?}"));
        prop_assert_eq!(back.to_jsonl(), line);
    }
}
