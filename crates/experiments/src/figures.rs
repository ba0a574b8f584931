//! The figure pipeline: every sweep is a named [`CampaignSpec`] ([`spec`])
//! whose store a table-driven renderer ([`render`]) turns into the tables
//! and `results/*.csv` files behind the paper's figures and claims.
//!
//! `campaign run <name> [--quick]` executes a catalog entry under the
//! C1–C5 checker into `results/campaigns/<name>[-quick]/`;
//! `campaign_report <dir>` pools the stored [`CaseRecord`]s over seeds
//! exactly as [`RunReport::average`] does and lays them out per
//! [`Figure`].

use std::fs;
use std::path::Path;

use rmac_campaign::{grid_points, CampaignSpec, CaseRecord, FaultAxis, ScenarioKind};
use rmac_engine::Protocol;
use rmac_faults::{BurstySpec, ChurnKind, ChurnSpec, FaultPlan, JamTarget, JammerSpec, SkewSpec};
use rmac_metrics::table::fmt;
use rmac_metrics::{RunReport, Table};

/// The sweeps, by campaign name. A store belongs to the entry its
/// manifest name starts with, so `paper-figures-quick` or a hand-written
/// `paper-figures-10k` manifest render as `paper-figures`.
pub const CATALOG: [&str; 11] = [
    "paper-figures",
    "topology",
    "shootout",
    "rbt-ablation",
    "goodput",
    "faults",
    "tone-jam",
    "rx-limit",
    "ber",
    "unicast",
    "motivation",
];

/// The catalog entry `name` as a campaign; `quick` shrinks it to a smoke
/// scale and renames it `<name>-quick`, so the two scales can never share
/// a store directory.
pub fn spec(name: &str, quick: bool) -> Option<CampaignSpec> {
    use Protocol::{Bmmm, Bmw, Lbp, Mx80211, Rmac, RmacNoRbt};
    use ScenarioKind::*;
    let paper = CampaignSpec::paper_figures(quick);
    // X1/X2 are the stationary slice of the paper grid with other protocols.
    let stationary = |protocols: &[Protocol]| CampaignSpec {
        name: format!("{name}{}", if quick { "-quick" } else { "" }),
        protocols: protocols.to_vec(),
        scenarios: vec![ScenarioKind::Stationary],
        ..paper.clone()
    };
    // X3–X9 scale seeds × packets only, at paper density but where a star
    // or a chain fixes its own.
    let at_density = |seeds: u64, packets: u64| CampaignSpec {
        seeds: (0..if quick { 2 } else { seeds }).collect(),
        packets: if quick { 60 } else { packets },
        nodes: 75,
        ..stationary(&[Rmac, Bmmm])
    };
    Some(match name {
        "paper-figures" => paper,
        // Fig. 6: the tree BLESS-lite forms on each of ten placements.
        "topology" => CampaignSpec {
            protocols: vec![Rmac],
            rates: vec![5.0],
            ..at_density(10, 50)
        },
        "shootout" => stationary(&[Rmac, Bmmm, Bmw, Lbp, Mx80211]),
        "rbt-ablation" => stationary(&[Rmac, RmacNoRbt]),
        "goodput" => CampaignSpec {
            rates: vec![10.0, 20.0, 30.0, 40.0, 60.0, 80.0, 120.0, 160.0, 200.0],
            ..at_density(3, 500)
        },
        "faults" => CampaignSpec {
            rates: vec![5.0],
            faults: fault_classes(),
            ..at_density(5, 200)
        },
        "tone-jam" => CampaignSpec {
            protocols: vec![Rmac, RmacNoRbt],
            rates: vec![5.0],
            faults: tone_jam_conditions(),
            ..at_density(5, 200)
        },
        "rx-limit" => CampaignSpec {
            protocols: vec![Rmac],
            scenarios: vec![Star41Limit5, Star41Limit10, Star41Limit20, Star41Limit40],
            rates: vec![20.0],
            nodes: 41,
            ..at_density(5, 300)
        },
        "ber" => CampaignSpec {
            scenarios: vec![
                Stationary,
                StationaryBer1e6,
                StationaryBer1e5,
                StationaryBer5e5,
                StationaryBer1e4,
            ],
            rates: vec![20.0],
            ..at_density(3, 300)
        },
        "unicast" => CampaignSpec {
            scenarios: vec![Chain1, Chain3],
            rates: vec![20.0, 80.0, 160.0],
            nodes: 4,
            ..at_density(3, 500)
        },
        "motivation" => CampaignSpec {
            protocols: vec![Rmac],
            scenarios: vec![Stationary, StationaryUnreliable, Speed1, Speed1Unreliable],
            rates: vec![5.0, 20.0, 60.0],
            ..at_density(3, 300)
        },
        _ => return None,
    })
}

fn axis(name: &str, plan: FaultPlan) -> FaultAxis {
    FaultAxis {
        name: name.into(),
        plan,
    }
}

fn jammer(x: f64, y: f64, target: JamTarget, period_ms: u64, burst_ms: u64) -> JammerSpec {
    JammerSpec {
        x,
        y,
        target,
        start_ms: 1_000,
        period_ms,
        burst_ms,
    }
}

/// X8: one plan per fault class, against the `none` control row.
fn fault_classes() -> Vec<FaultAxis> {
    let churn = [
        (5, ChurnKind::Crash, 5_000, 5_000),
        (10, ChurnKind::Crash, 12_000, 5_000),
        (15, ChurnKind::Deaf, 8_000, 10_000),
        (20, ChurnKind::Mute, 8_000, 10_000),
    ]
    .into_iter()
    .fold(FaultPlan::none(), |plan, (node, kind, at_ms, for_ms)| {
        plan.with_churn(ChurnSpec {
            node,
            kind,
            at_ms,
            for_ms,
        })
    });
    // Two tone jammers at mid-field: one filling the RBT channel with a
    // false "receiver busy", one polluting the ABT reply slots (stressing
    // §3.2's "tones never collide" design assumption).
    let tone_jam = FaultPlan::none()
        .with_jammer(jammer(250.0, 150.0, JamTarget::Rbt, 50, 10))
        .with_jammer(jammer(200.0, 120.0, JamTarget::Abt, 50, 10));
    let data_jam = FaultPlan::none().with_jammer(jammer(250.0, 150.0, JamTarget::Data, 40, 4));
    // ±200 ppm on a third of the nodes.
    let skew = (0..75u16).step_by(3).fold(FaultPlan::none(), |plan, node| {
        let ppm = if node % 2 == 0 { 200.0 } else { -200.0 };
        plan.with_skew(SkewSpec { node, ppm })
    });
    vec![
        FaultAxis::none(),
        axis("bursty", FaultPlan::none().with_bursty(BurstySpec::harsh())),
        axis("churn", churn),
        axis("tone-jam", tone_jam),
        axis("data-jam", data_jam),
        axis("skew", skew),
    ]
}

/// X9: a constant false RBT makes every sender that honors the tone defer
/// or abort its MRTS; `RMAC-noRBT` does not listen for it. Comparing the
/// two separates the tone's protection value (`no-jam`) from its
/// denial-of-service exposure (`rbt-jam`).
fn tone_jam_conditions() -> Vec<FaultAxis> {
    let rbt_jam = FaultPlan::none().with_jammer(jammer(250.0, 150.0, JamTarget::Rbt, 40, 8));
    vec![axis("no-jam", FaultPlan::none()), axis("rbt-jam", rbt_jam)]
}

/// One value column: its CSV header and how a pooled point fills it. A
/// per-protocol table heads a lone column with the protocol's label and
/// several with `<protocol> <header>`.
pub struct Col {
    header: &'static str,
    cell: fn(&RunReport) -> String,
}

/// What a table's rows and column groups are.
enum Rows {
    /// A row per rate, the columns repeated per protocol in the store.
    PerProtocol,
    /// A row per rate, RMAC's points only.
    RmacOnly,
    /// A row per (fault plan, protocol).
    PerFault,
    /// One table for the whole store, a row per (scenario, rate), the
    /// columns repeated per protocol.
    PerScenario,
    /// One table for the whole store, a row per seed, unpooled: one
    /// protocol, scenario, rate and fault plan.
    PerSeed,
}

/// One figure: a table per scenario, written to `<stem>_<scenario>.csv`,
/// or, a row per scenario or per seed, one table written to `<stem>.csv`.
pub struct Figure {
    stem: &'static str,
    title: &'static str,
    /// Header of the leading (row key) column.
    key: &'static str,
    rows: Rows,
    cols: &'static [Col],
}

const fn col(header: &'static str, cell: fn(&RunReport) -> String) -> Col {
    Col { header, cell }
}

const DELIVERY: Col = col("delivery", |r| fmt(r.delivery_ratio(), 4));
const RETX: Col = col("retx_avg", |r| fmt(r.retx_ratio_avg, 4));
const RETX_3: Col = col("retx", |r| fmt(r.retx_ratio_avg, 3));
const DROP: Col = col("drop", |r| fmt(r.drop_ratio_avg, 4));
const DELAY_S: Col = col("delay_s", |r| fmt(r.e2e_delay_avg_s, 4));
const DELAY_MS: Col = col("delay_ms", |r| fmt(r.e2e_delay_avg_s * 1e3, 2));
const TXOH_3: Col = col("txoh", |r| fmt(r.txoh_ratio_avg, 3));
const JAM_BURSTS: Col = col("jam_bursts", |r| r.fault_jam_bursts.to_string());

// Fig. 6 / §4.1.1: each placement's tree, not a pooled point.
static TOPOLOGY: [Figure; 1] = [Figure {
    stem: "fig6_topology",
    title: "Fig.6 — tree topology statistics (paper: hops 3.87/10, children 3.54/9)",
    key: "seed",
    rows: Rows::PerSeed,
    cols: &[
        col("hops_avg", |r| fmt(r.hops_avg, 2)),
        col("hops_p99", |r| fmt(r.hops_p99, 0)),
        col("children_avg", |r| fmt(r.children_avg, 2)),
        col("children_p99", |r| fmt(r.children_p99, 0)),
    ],
}];

static PAPER_FIGURES: [Figure; 7] = [
    Figure {
        stem: "fig7_delivery",
        title: "Fig.7 — packet delivery ratio",
        key: "rate_pps",
        rows: Rows::PerProtocol,
        cols: &[DELIVERY],
    },
    Figure {
        stem: "fig8_drop",
        title: "Fig.8 — avg packet drop ratio",
        key: "rate_pps",
        rows: Rows::PerProtocol,
        cols: &[DROP],
    },
    Figure {
        stem: "fig9_delay",
        title: "Fig.9 — avg end-to-end delay (s)",
        key: "rate_pps",
        rows: Rows::PerProtocol,
        cols: &[DELAY_S],
    },
    Figure {
        stem: "fig10_retx",
        title: "Fig.10 — avg retransmission ratio",
        key: "rate_pps",
        rows: Rows::PerProtocol,
        cols: &[RETX],
    },
    Figure {
        stem: "fig11_overhead",
        title: "Fig.11 — avg transmission overhead ratio",
        key: "rate_pps",
        rows: Rows::PerProtocol,
        cols: &[col("txoh", |r| fmt(r.txoh_ratio_avg, 4))],
    },
    Figure {
        stem: "fig12_mrts_len",
        title: "Fig.12 — MRTS length (bytes)",
        key: "rate_pps",
        rows: Rows::RmacOnly,
        cols: &[
            col("average", |r| fmt(r.mrts_len_avg, 1)),
            col("p99", |r| fmt(r.mrts_len_p99, 1)),
            col("max", |r| fmt(r.mrts_len_max, 1)),
        ],
    },
    Figure {
        stem: "fig13_abort",
        title: "Fig.13 — MRTS abortion ratio",
        key: "rate_pps",
        rows: Rows::RmacOnly,
        cols: &[
            col("average", |r| fmt(r.abort_avg, 5)),
            col("p99", |r| fmt(r.abort_p99, 5)),
            col("max", |r| fmt(r.abort_max, 5)),
        ],
    },
];

static SHOOTOUT: [Figure; 3] = [
    Figure {
        stem: "ext_shootout_delivery",
        title: "X1 — packet delivery ratio",
        key: "rate_pps",
        rows: Rows::PerProtocol,
        cols: &[DELIVERY],
    },
    Figure {
        stem: "ext_shootout_delay",
        title: "X1 — avg end-to-end delay (s)",
        key: "rate_pps",
        rows: Rows::PerProtocol,
        cols: &[DELAY_S],
    },
    Figure {
        stem: "ext_shootout_overhead",
        title: "X1 — avg transmission overhead ratio",
        key: "rate_pps",
        rows: Rows::PerProtocol,
        cols: &[TXOH_3],
    },
];

static RBT_ABLATION: [Figure; 2] = [
    Figure {
        stem: "ablation_rbt_delivery",
        title: "X2 — packet delivery ratio",
        key: "rate_pps",
        rows: Rows::PerProtocol,
        cols: &[DELIVERY],
    },
    Figure {
        stem: "ablation_rbt_retx",
        title: "X2 — avg retransmission ratio",
        key: "rate_pps",
        rows: Rows::PerProtocol,
        cols: &[RETX],
    },
];

// Delivered packets per second per receiver = delivery ratio × offered
// rate (each receiver should see every packet).
static GOODPUT: [Figure; 1] = [Figure {
    stem: "ext_goodput",
    title: "X5 — per-receiver goodput vs offered rate",
    key: "offered_pps",
    rows: Rows::PerProtocol,
    cols: &[
        col("goodput", |r| fmt(r.delivery_ratio() * r.rate_pps, 1)),
        col("delay_s", |r| fmt(r.e2e_delay_avg_s, 3)),
    ],
}];

static FAULTS: [Figure; 1] = [Figure {
    stem: "ext_faults",
    title: "X8 — degradation per fault class",
    key: "fault",
    rows: Rows::PerFault,
    cols: &[
        DELIVERY,
        RETX,
        DELAY_MS,
        col("injected", |r| r.faults_injected.to_string()),
        col("crashes", |r| r.fault_crashes.to_string()),
        JAM_BURSTS,
    ],
}];

static TONE_JAM: [Figure; 1] = [Figure {
    stem: "ablation_tone_jam",
    title: "X9 — RBT value under tone jamming",
    key: "condition",
    rows: Rows::PerFault,
    cols: &[
        DELIVERY,
        RETX,
        col("abort_avg", |r| fmt(r.abort_avg, 4)),
        JAM_BURSTS,
    ],
}];

// X3: small limits cost MRTS invocations, large ones long MRTSes.
static RX_LIMIT: [Figure; 1] = [Figure {
    stem: "ablation_rxlimit",
    title: "X3 — §3.4 receiver limit on a one-hop star",
    key: "scenario",
    rows: Rows::PerScenario,
    cols: &[
        DELIVERY,
        RETX_3,
        TXOH_3,
        DELAY_S,
        col("mrts_max_B", |r| fmt(r.mrts_len_max, 0)),
    ],
}];

// X4: tones carry no bits to corrupt; BMMM's 2n control frames do.
static BER: [Figure; 1] = [Figure {
    stem: "ablation_ber",
    title: "X4 — bit-error-rate sweep",
    key: "scenario",
    rows: Rows::PerScenario,
    cols: &[DELIVERY, RETX_3, DROP],
}];

// X6: for n = 1, one 18-byte MRTS and one ABT window (≈ 185 µs) against
// RTS/CTS/…/ACK (≈ 632 µs).
static UNICAST: [Figure; 1] = [Figure {
    stem: "ext_unicast",
    title: "X6 — reliable unicast along a chain of 70 m hops",
    key: "scenario",
    rows: Rows::PerScenario,
    cols: &[DELIVERY, DELAY_MS, TXOH_3],
}];

// X7: the same tree, forwarded by Reliable Send or by one broadcast per hop.
static MOTIVATION: [Figure; 1] = [Figure {
    stem: "ext_motivation",
    title: "X7 — per-hop MAC reliability vs plain broadcast forwarding",
    key: "scenario",
    rows: Rows::PerScenario,
    cols: &[DELIVERY],
}];

/// The figures of the catalog entry a store named `store_name` belongs to.
pub fn figure_set(store_name: &str) -> Option<&'static [Figure]> {
    let sets: [&'static [Figure]; 11] = [
        &PAPER_FIGURES,
        &TOPOLOGY,
        &SHOOTOUT,
        &RBT_ABLATION,
        &GOODPUT,
        &FAULTS,
        &TONE_JAM,
        &RX_LIMIT,
        &BER,
        &UNICAST,
        &MOTIVATION,
    ];
    CATALOG.iter().zip(sets).find_map(|(entry, set)| {
        let scale = store_name.strip_prefix(entry)?;
        (scale.is_empty() || scale.starts_with('-')).then_some(set)
    })
}

/// One grid point pooled over its seeds: the fault plan's name and the
/// averaged report (which carries protocol, scenario and rate).
type Point = (String, RunReport);

/// Pool a store over seeds, grid points in canonical order.
fn pool(records: &[CaseRecord]) -> Vec<Point> {
    grid_points(records)
        .iter()
        .map(|seeds| {
            let reports: Vec<RunReport> = seeds.iter().map(|r| r.report()).collect();
            (seeds[0].fault.clone(), RunReport::average(&reports))
        })
        .collect()
}

/// A store's replications, one point each, unpooled.
fn replications(records: &[CaseRecord]) -> Vec<Point> {
    (records.iter())
        .map(|r| (r.fault.clone(), r.report()))
        .collect()
}

fn distinct<T: PartialEq>(values: impl Iterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for v in values {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

impl Figure {
    /// This figure's tables among `points`, each with the file stem it is
    /// written under: one per scenario, or one for the store.
    fn tables(&self, points: &[Point]) -> Result<Vec<(String, Table)>, String> {
        if let Rows::PerSeed = self.rows {
            return self.per_seed(points);
        }
        let rmac_only = matches!(self.rows, Rows::RmacOnly);
        let per_scenario = matches!(self.rows, Rows::PerScenario);
        let points: Vec<&Point> = (points.iter())
            .filter(|(_, r)| !rmac_only || r.protocol == Protocol::Rmac.label())
            .collect();
        let scenarios = distinct(points.iter().map(|(_, r)| r.scenario.as_str()));
        let groups = if per_scenario {
            vec![scenarios]
        } else {
            scenarios.into_iter().map(|s| vec![s]).collect()
        };
        let mut out = Vec::new();
        for group in groups.into_iter().filter(|g| !g.is_empty()) {
            let points: Vec<&Point> = (points.iter().copied())
                .filter(|(_, r)| group.contains(&r.scenario.as_str()))
                .collect();
            let protocols = distinct(points.iter().map(|(_, r)| r.protocol.as_str()));
            let rates = distinct(points.iter().map(|(_, r)| r.rate_pps));
            let faults = distinct(points.iter().map(|(f, _)| f.as_str()));
            let scenario = group.join(", ");
            let file = if per_scenario {
                self.stem.to_string()
            } else {
                format!("{}_{scenario}", self.stem)
            };
            // A table has one free axis besides the protocol (and, a row per
            // scenario, the scenario); a store that varies the other too
            // would be silently cut down to a slice.
            let (pinned, what) = match self.rows {
                Rows::PerFault => (rates.len(), "rate"),
                _ => (faults.len(), "fault plan"),
            };
            if pinned > 1 {
                return Err(format!(
                    "{}: the table holds one {what}, the store has {pinned} ({scenario})",
                    self.stem
                ));
            }
            let cells = |scenario: &str, fault: &str, protocol: &str, rate: f64| {
                let point = points.iter().find(|(f, r)| {
                    r.scenario == scenario
                        && f == fault
                        && r.protocol == protocol
                        && r.rate_pps == rate
                });
                self.cols
                    .iter()
                    .map(move |c| point.map(|(_, r)| (c.cell)(r)).unwrap_or_default())
            };
            let mut headers = vec![self.key.to_string()];
            let table = if let Rows::PerFault = self.rows {
                headers.push("protocol".into());
                headers.extend(self.cols.iter().map(|c| c.header.to_string()));
                let mut t = self.titled(&format!("{scenario}, {} pkt/s", rates[0]), &headers);
                for fault in &faults {
                    for protocol in &protocols {
                        let mut row = vec![fault.to_string(), protocol.to_string()];
                        row.extend(cells(&scenario, fault, protocol, rates[0]));
                        t.row(row);
                    }
                }
                t
            } else {
                if per_scenario {
                    headers.push("rate_pps".into());
                }
                for protocol in &protocols {
                    headers.extend(self.cols.iter().map(|c| match self.cols.len() {
                        _ if rmac_only => c.header.to_string(),
                        1 => protocol.to_string(),
                        _ => format!("{protocol} {}", c.header),
                    }));
                }
                let qualifier = if per_scenario {
                    protocols.join(" vs ")
                } else {
                    scenario.clone()
                };
                let mut t = self.titled(&qualifier, &headers);
                for scenario in &group {
                    for &rate in &rates {
                        let mut row = vec![fmt(rate, 0)];
                        if per_scenario {
                            row.insert(0, scenario.to_string());
                        }
                        for protocol in &protocols {
                            row.extend(cells(scenario, faults[0], protocol, rate));
                        }
                        t.row(row);
                    }
                }
                t
            };
            out.push((file, table));
        }
        Ok(out)
    }

    /// A row per replication among `points`, which must all be one grid
    /// point's (one protocol, scenario, rate and fault plan).
    fn per_seed(&self, points: &[Point]) -> Result<Vec<(String, Table)>, String> {
        let grid = distinct((points.iter()).map(|(f, r)| {
            (
                f.as_str(),
                r.protocol.as_str(),
                r.scenario.as_str(),
                r.rate_pps,
            )
        }));
        let Some(&(_, protocol, scenario, rate)) = grid.first() else {
            return Ok(Vec::new());
        };
        if grid.len() > 1 {
            return Err(format!(
                "{}: the table holds one grid point, the store has {}",
                self.stem,
                grid.len()
            ));
        }
        let mut headers = vec![self.key.to_string()];
        headers.extend(self.cols.iter().map(|c| c.header.to_string()));
        let mut t = self.titled(&format!("{protocol}, {scenario}, {rate} pkt/s"), &headers);
        for (_, r) in points {
            let mut row = vec![r.seed.to_string()];
            row.extend(self.cols.iter().map(|c| (c.cell)(r)));
            t.row(row);
        }
        Ok(vec![(self.stem.to_string(), t)])
    }

    fn titled(&self, qualifier: &str, headers: &[String]) -> Table {
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        Table::new(format!("{} ({qualifier})", self.title), &headers)
    }
}

/// Print every figure of the store's catalog entry and write its CSVs.
/// `Ok(false)` when `store_name` belongs to no entry. An entry at its
/// pinned full scale (`store_name` is the catalog name) publishes to
/// `results/`; any other scale keeps its CSVs beside its store, so a
/// smoke run never overwrites the published figures.
pub fn render(store_name: &str, store_dir: &Path, records: &[CaseRecord]) -> Result<bool, String> {
    let Some(figures) = figure_set(store_name) else {
        return Ok(false);
    };
    let dir = if CATALOG.contains(&store_name) {
        Path::new("results")
    } else {
        store_dir
    };
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let (pooled, replications) = (pool(records), replications(records));
    for figure in figures {
        let points = match figure.rows {
            Rows::PerSeed => &replications,
            _ => &pooled,
        };
        for (file, table) in figure.tables(points)? {
            println!("{}", table.render());
            let path = dir.join(format!("{file}.csv"));
            fs::write(&path, table.to_csv())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("[csv] {}\n", path.display());
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmac_campaign::{run_campaign, RunOptions};
    use rmac_engine::Run;

    /// CSV equality, except that a numeric cell may sit one unit of its last
    /// printed digit away: the store rounds every float to six decimals
    /// before the renderer rounds again.
    fn assert_close(stem: &str, got: &str, want: &str) {
        let cells = |csv: &str| -> Vec<String> {
            let lines = csv.lines().map(|l| l.split(',').map(str::to_string));
            lines.flatten().collect()
        };
        assert_eq!(got.lines().count(), want.lines().count(), "{stem}: rows");
        assert_eq!(cells(got).len(), cells(want).len(), "{stem}: cells");
        for (g, w) in cells(got).iter().zip(&cells(want)) {
            if g != w {
                let decimals = w.split_once('.').map_or(0, |(_, frac)| frac.len());
                let delta = g.parse::<f64>().expect("number") - w.parse::<f64>().expect("number");
                assert!(
                    g.len() == w.len() && delta.abs() <= 1.001 * 10f64.powi(-(decimals as i32)),
                    "{stem}: rendered {g}, oracle {w}"
                );
            }
        }
    }

    #[test]
    fn rendered_cells_match_the_direct_run_oracle() {
        use Protocol::{Bmmm, Rmac};
        // One plan exercising every fault tally the X8 layout prints.
        let plan = FaultPlan::none()
            .with_bursty(BurstySpec::harsh())
            .with_churn(ChurnSpec {
                node: 3,
                kind: ChurnKind::Crash,
                at_ms: 200,
                for_ms: 300,
            })
            .with_jammer(JammerSpec {
                start_ms: 0,
                ..jammer(20.0, 20.0, JamTarget::Rbt, 40, 8)
            });
        let spec = CampaignSpec {
            name: "oracle".into(),
            protocols: vec![Rmac, Bmmm],
            scenarios: vec![ScenarioKind::Stationary],
            rates: vec![20.0, 120.0],
            seeds: vec![0, 1],
            faults: vec![axis("mixed", plan)],
            packets: 60,
            nodes: 30,
            shards: 0,
            obs: false,
        };
        let dir = std::env::temp_dir().join(format!("rmac-figures-oracle-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let quiet = RunOptions {
            quiet: true,
            ..RunOptions::default()
        };
        let out = run_campaign(&spec, &dir, &quiet).expect("campaign runs");
        let _ = fs::remove_dir_all(&dir);
        assert!(out.complete && out.clean);
        let points = pool(&out.records);
        let rendered = |figure: &Figure, points: &[Point]| {
            let tables = figure.tables(points).expect("lays out");
            assert_eq!(tables.len(), 1, "{}: one scenario", figure.stem);
            assert_eq!(tables[0].0, format!("{}_stationary", figure.stem));
            tables[0].1.to_csv()
        };

        // The oracle: the same cases run directly, pooled unrounded.
        let avg = |protocol: Protocol, rate: f64| {
            let cases = spec.cases();
            let of_point = cases
                .iter()
                .filter(|c| c.protocol == protocol && c.rate == rate);
            let reports: Vec<RunReport> = of_point
                .map(|c| {
                    Run::new(&c.config(), protocol, c.seed)
                        .faults(&c.plan)
                        .execute()
                        .report
                })
                .collect();
            assert_eq!(reports.len(), 2, "two seeds per point");
            RunReport::average(&reports)
        };
        let both = |metric: fn(&RunReport) -> f64, rate: f64| -> Vec<String> {
            vec![
                fmt(metric(&avg(Rmac, rate)), 4),
                fmt(metric(&avg(Bmmm, rate)), 4),
            ]
        };
        let [fig7, _, fig9, _, _, fig12, fig13] = &PAPER_FIGURES;
        type Cells<'a> = &'a dyn Fn(f64) -> Vec<String>;
        let by_rate: [(&Figure, &str, Cells); 4] = [
            (fig7, "rate_pps,RMAC,BMMM", &|rate| {
                both(|r| r.delivery_ratio(), rate)
            }),
            (fig9, "rate_pps,RMAC,BMMM", &|rate| {
                both(|r| r.e2e_delay_avg_s, rate)
            }),
            (fig12, "rate_pps,average,p99,max", &|rate| {
                let r = avg(Rmac, rate);
                [r.mrts_len_avg, r.mrts_len_p99, r.mrts_len_max]
                    .map(|v| fmt(v, 1))
                    .to_vec()
            }),
            (fig13, "rate_pps,average,p99,max", &|rate| {
                let r = avg(Rmac, rate);
                let tails_differ = 0.0 < r.abort_avg && r.abort_avg < r.abort_p99;
                assert!(
                    rate < 120.0 || (tails_differ && r.abort_p99 < r.abort_max),
                    "the grid must exercise Fig. 13's three columns"
                );
                [r.abort_avg, r.abort_p99, r.abort_max]
                    .map(|v| fmt(v, 5))
                    .to_vec()
            }),
        ];
        for (figure, header, cells) in by_rate {
            let rows = spec
                .rates
                .iter()
                .map(|&rate| [vec![fmt(rate, 0)], cells(rate)].concat().join(","));
            let want: Vec<String> = std::iter::once(header.to_string()).chain(rows).collect();
            assert_close(figure.stem, &rendered(figure, &points), &want.join("\n"));
        }

        // X8 lays out one rate: the store's 20 pkt/s slice.
        let x8 = &FAULTS[0];
        let err = x8.tables(&points).expect_err("two rates do not fit");
        assert!(err.contains("one rate"), "{err}");
        let slice: Vec<Point> = points
            .iter()
            .filter(|(_, r)| r.rate_pps == 20.0)
            .cloned()
            .collect();
        let mut want = vec![
            "fault,protocol,delivery,retx_avg,delay_ms,injected,crashes,jam_bursts".to_string(),
        ];
        for protocol in [Rmac, Bmmm] {
            let r = avg(protocol, 20.0);
            assert!(
                r.faults_injected > 0 && r.fault_crashes > 0 && r.fault_jam_bursts > 0,
                "the plan must exercise every tally"
            );
            want.push(format!(
                "mixed,{},{:.4},{:.4},{:.2},{},{},{}",
                protocol.label(),
                r.delivery_ratio(),
                r.retx_ratio_avg,
                r.e2e_delay_avg_s * 1e3,
                r.faults_injected,
                r.fault_crashes,
                r.fault_jam_bursts
            ));
        }
        assert_close(x8.stem, &rendered(x8, &slice), &want.join("\n"));
    }

    #[test]
    fn catalog_specs_round_trip_and_scales_never_share_a_store() {
        let mut names = Vec::new();
        for entry in CATALOG {
            for quick in [false, true] {
                let spec = spec(entry, quick).expect("catalog entry");
                let json = spec.to_json();
                let back = CampaignSpec::from_json(&json).expect("manifest parses back");
                assert_eq!(back.to_json(), json, "{}", spec.name);
                assert!(figure_set(&spec.name).is_some(), "{}", spec.name);
                names.push(spec.name);
            }
        }
        assert_eq!(distinct(names.iter()).len(), 2 * CATALOG.len());
        assert!(spec("gate", false).is_none());
        for uncatalogued in ["gate", "scratch", "faultsy", "paper"] {
            assert!(figure_set(uncatalogued).is_none(), "{uncatalogued}");
        }
        assert!(figure_set("paper-figures-10k").is_some());
    }

    #[test]
    fn fig6_is_a_row_per_placement() {
        let full = spec("topology", false).expect("catalog entry");
        assert_eq!(full.protocols, [Protocol::Rmac]);
        assert_eq!(full.scenarios, [ScenarioKind::Stationary]);
        assert_eq!(
            (full.rates.as_slice(), full.packets, full.nodes),
            (&[5.0][..], 50, 75)
        );
        assert_eq!(full.seeds, (0..10).collect::<Vec<u64>>());
        let record = |seed, rate| CaseRecord {
            protocol: "RMAC".into(),
            scenario: "stationary".into(),
            rate,
            seed,
            fault: "none".into(),
            hops_avg: 3.5,
            hops_p99: 7.0,
            children_avg: 2.25,
            children_p99: 9.0,
            ..CaseRecord::default()
        };
        let fig6 = &TOPOLOGY[0];
        let two_seeds = replications(&[record(0, 5.0), record(1, 5.0)]);
        let tables = fig6.tables(&two_seeds).expect("lays out");
        assert_eq!(
            (tables[0].0.as_str(), tables[0].1.to_csv()),
            (
                "fig6_topology",
                "seed,hops_avg,hops_p99,children_avg,children_p99\n\
                 0,3.50,7,2.25,9\n1,3.50,7,2.25,9\n"
                    .to_string()
            )
        );
        let two_rates = replications(&[record(0, 5.0), record(0, 20.0)]);
        let err = fig6.tables(&two_rates).expect_err("two grid points");
        assert!(err.contains("one grid point, the store has 2"), "{err}");
    }

    #[test]
    fn an_unwritable_figure_is_an_error() {
        // A file where the CSV directory should be.
        let blocker =
            std::env::temp_dir().join(format!("rmac-figures-blocker-{}", std::process::id()));
        fs::write(&blocker, "").expect("create blocker");
        let err = render("faults-quick", &blocker, &[]).expect_err("cannot create the directory");
        assert!(err.contains("create"), "{err}");
        let _ = fs::remove_file(&blocker);
        assert_eq!(render("gate", Path::new("unused"), &[]), Ok(false));
    }
}
