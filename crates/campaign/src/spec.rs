//! Declarative sweep specifications.
//!
//! A [`CampaignSpec`] is the serializable description of a campaign: the
//! protocol × scenario × rate × fault-plan × seed grid plus the scenario
//! scale knobs. [`CampaignSpec::cases`] fans it out into the canonical
//! ordered case list; the runner executes cases in exactly that order so
//! the metrics store's bytes are a pure function of the spec.

use rmac_engine::{Protocol, ScenarioConfig};
use rmac_faults::FaultPlan;
use rmac_obs::json::{self, Json};

/// The scenario a case runs: the paper's three mobility scenarios
/// (§4.1.2), then the named variants of single-claim sweeps. A variant's
/// label is its case-key text and the scenario name its records carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// No node is moving.
    Stationary,
    /// Random waypoint, 0–4 m/s, 10 s pauses.
    Speed1,
    /// Random waypoint, 0–8 m/s, 5 s pauses.
    Speed2,
    /// X3 (§3.4): 41 nodes on a 50 m square, every node in range of the
    /// root, under a receiver limit per MRTS.
    Star41Limit5,
    Star41Limit10,
    Star41Limit20,
    Star41Limit40,
    /// X4 (§3.4's high-BER remark): `Stationary` at a per-bit error rate.
    StationaryBer1e6,
    StationaryBer1e5,
    StationaryBer5e5,
    StationaryBer1e4,
    /// X6 (§3.3.2): a unicast flow along a chain of 70 m hops.
    Chain1,
    Chain3,
    /// X7 (§1): the tree forwards by Unreliable Send, one broadcast per hop.
    StationaryUnreliable,
    Speed1Unreliable,
}

impl ScenarioKind {
    /// The paper's three, in the paper's order.
    pub const ALL: [ScenarioKind; 3] = [
        ScenarioKind::Stationary,
        ScenarioKind::Speed1,
        ScenarioKind::Speed2,
    ];

    /// Every kind with its label: the paper's three, then the variants.
    const LABELS: [(ScenarioKind, &'static str); 15] = {
        use ScenarioKind::*;
        [
            (Stationary, "stationary"),
            (Speed1, "speed1"),
            (Speed2, "speed2"),
            (Star41Limit5, "star41-limit5"),
            (Star41Limit10, "star41-limit10"),
            (Star41Limit20, "star41-limit20"),
            (Star41Limit40, "star41-limit40"),
            (StationaryBer1e6, "stationary-ber1e-6"),
            (StationaryBer1e5, "stationary-ber1e-5"),
            (StationaryBer5e5, "stationary-ber5e-5"),
            (StationaryBer1e4, "stationary-ber1e-4"),
            (Chain1, "chain1"),
            (Chain3, "chain3"),
            (StationaryUnreliable, "stationary-unreliable"),
            (Speed1Unreliable, "speed1-unreliable"),
        ]
    };

    /// Label used in case keys, reports and file names.
    pub fn label(self) -> &'static str {
        let labelled = Self::LABELS.iter().find(|(k, _)| *k == self);
        labelled.expect("every kind is labelled").1
    }

    /// Inverse of [`ScenarioKind::label`].
    pub fn from_label(s: &str) -> Option<ScenarioKind> {
        Self::LABELS.iter().find(|(_, l)| *l == s).map(|&(k, _)| k)
    }

    /// Whether the kind fixes its own node count (the star, the chains)
    /// rather than take the one asked for.
    fn fixes_its_size(self) -> bool {
        use ScenarioKind::*;
        matches!(
            self,
            Star41Limit5 | Star41Limit10 | Star41Limit20 | Star41Limit40 | Chain1 | Chain3
        )
    }

    /// The paper-parameterised scenario config at one source rate, network
    /// size and packet count, named by the kind's label: the one place a
    /// scenario is built at a size, for a campaign case and the `rmac` CLI
    /// alike. A star or chain keeps its own node count.
    pub fn config(self, rate: f64, nodes: usize, packets: u64) -> ScenarioConfig {
        use ScenarioKind::*;
        let cfg = match self {
            Speed1 | Speed1Unreliable => ScenarioConfig::paper_speed1(rate),
            Speed2 => ScenarioConfig::paper_speed2(rate),
            _ => ScenarioConfig::paper_stationary(rate),
        };
        let star = |mut cfg: ScenarioConfig, limit| {
            cfg.nodes = 41;
            (cfg.bounds.width, cfg.bounds.height) = (50.0, 50.0);
            cfg.mac.max_receivers = limit;
            cfg
        };
        let mut cfg = match self {
            Star41Limit5 => star(cfg, 5),
            Star41Limit10 => star(cfg, 10),
            Star41Limit20 => star(cfg, 20),
            Star41Limit40 => star(cfg, 40),
            StationaryBer1e6 => cfg.with_ber(1e-6),
            StationaryBer1e5 => cfg.with_ber(1e-5),
            StationaryBer5e5 => cfg.with_ber(5e-5),
            StationaryBer1e4 => cfg.with_ber(1e-4),
            Chain1 => cfg.with_chain(1, 70.0),
            Chain3 => cfg.with_chain(3, 70.0),
            StationaryUnreliable | Speed1Unreliable => cfg.with_unreliable_forwarding(),
            _ => cfg,
        };
        if !self.fixes_its_size() {
            cfg = cfg.with_nodes(nodes);
        }
        cfg.name = self.label().into();
        cfg.with_packets(packets)
    }
}

/// One named fault-plan axis value ("none", "moderate-bursty", …).
#[derive(Clone, Debug)]
pub struct FaultAxis {
    pub name: String,
    pub plan: FaultPlan,
}

impl FaultAxis {
    /// The trivial axis every campaign has by default.
    pub fn none() -> FaultAxis {
        FaultAxis {
            name: "none".into(),
            plan: FaultPlan::none(),
        }
    }

    /// A harsh bursty-corruption axis: long deep-loss phases corrupt
    /// control frames, so protocol mutants that transmit without sensing
    /// (e.g. a skipped WF_RBT λ-detection) actually reach their broken
    /// path and surface as C1 violations. The real protocols stay clean
    /// under it (pinned by `tests/conformance.rs`).
    pub fn bursty() -> FaultAxis {
        FaultAxis {
            name: "bursty".into(),
            plan: FaultPlan {
                bursty: Some(rmac_faults::BurstySpec {
                    mean_good_ms: 300.0,
                    mean_bad_ms: 300.0,
                    loss_good: 0.05,
                    loss_bad: 0.9,
                }),
                ..FaultPlan::none()
            },
        }
    }
}

/// A declarative campaign: the full grid plus scenario scale knobs.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign name; also the directory name under `results/campaigns/`.
    pub name: String,
    /// Protocols to compare.
    pub protocols: Vec<Protocol>,
    /// Mobility scenarios.
    pub scenarios: Vec<ScenarioKind>,
    /// Source rates in packets/second.
    pub rates: Vec<f64>,
    /// Replication seeds (one random placement each).
    pub seeds: Vec<u64>,
    /// Fault-plan axis (always at least [`FaultAxis::none`]).
    pub faults: Vec<FaultAxis>,
    /// Packets per replication.
    pub packets: u64,
    /// Network size (a star or chain scenario keeps its own).
    pub nodes: usize,
    /// Shard count (`ScenarioConfig::shards`); 0 or 1 is one group, the
    /// whole world.
    pub shards: usize,
    /// Attach the obs layer and ingest counter snapshots per case.
    pub obs: bool,
}

impl CampaignSpec {
    /// The campaign behind the paper's Figs. 7–13: RMAC vs BMMM over the
    /// three mobility scenarios and the full rate axis, ten placements
    /// each. `quick` shrinks every axis for CI smoke runs.
    pub fn paper_figures(quick: bool) -> CampaignSpec {
        let full = CampaignSpec {
            name: "paper-figures".into(),
            protocols: vec![Protocol::Rmac, Protocol::Bmmm],
            scenarios: ScenarioKind::ALL.to_vec(),
            rates: vec![5.0, 10.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0],
            seeds: (0..10).collect(),
            faults: vec![FaultAxis::none()],
            packets: 1000,
            nodes: 75,
            shards: 0,
            obs: false,
        };
        if !quick {
            return full;
        }
        CampaignSpec {
            name: "paper-figures-quick".into(),
            rates: vec![5.0, 40.0, 120.0],
            seeds: vec![0, 1],
            packets: 60,
            nodes: 30,
            ..full
        }
    }

    /// Total number of cases the grid fans out to.
    pub fn case_count(&self) -> usize {
        self.protocols.len()
            * self.scenarios.len()
            * self.rates.len()
            * self.faults.len()
            * self.seeds.len()
    }

    /// Fan the grid out into the canonical ordered case list: protocols ×
    /// scenarios × rates × faults × seeds, seeds innermost. This order is
    /// the store's append order — never reorder it, or resumed campaigns
    /// stop being bit-identical to uninterrupted ones.
    pub fn cases(&self) -> Vec<CaseSpec> {
        let mut out = Vec::with_capacity(self.case_count());
        for &protocol in &self.protocols {
            for &scenario in &self.scenarios {
                for &rate in &self.rates {
                    for fault in &self.faults {
                        for &seed in &self.seeds {
                            out.push(CaseSpec {
                                protocol,
                                scenario,
                                rate,
                                seed,
                                fault: fault.name.clone(),
                                plan: fault.plan.clone(),
                                packets: self.packets,
                                nodes: self.nodes,
                                shards: self.shards,
                                obs: self.obs,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// The spec as a JSON document (the campaign manifest).
    pub fn to_json(&self) -> String {
        json::document(|o| {
            o.str("name", &self.name)
                .strs("protocols", self.protocols.iter().map(|p| p.label()))
                .strs("scenarios", self.scenarios.iter().map(|s| s.label()))
                .f64s("rates", &self.rates)
                .u64s("seeds", &self.seeds)
                .u64("packets", self.packets)
                .u64("nodes", self.nodes as u64)
                .u64("shards", self.shards as u64)
                .bool("obs", self.obs)
                .objs("faults", &self.faults, |o, f| {
                    o.str("name", &f.name).obj("plan", |o| f.plan.write_json(o));
                });
        })
    }

    /// Parse a spec back from its manifest JSON.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        let v = Json::parse(text).map_err(|e| format!("campaign spec: {e}"))?;
        // Every element must have the axis's type: a skipped element would
        // quietly run a smaller grid than the manifest describes.
        fn list<T>(
            v: &Json,
            key: &str,
            what: &str,
            elem: impl Fn(&Json) -> Option<T>,
        ) -> Result<Vec<T>, String> {
            v.arr(key)?
                .iter()
                .map(|x| elem(x).ok_or_else(|| format!("{key}: {} is not {what}", x.render())))
                .collect()
        }
        let protocols = list(&v, "protocols", "a known protocol label", |x| {
            Protocol::from_label(x.as_str()?)
        })?;
        let scenarios = list(&v, "scenarios", "a known scenario label", |x| {
            ScenarioKind::from_label(x.as_str()?)
        })?;
        let rates = list(&v, "rates", "a number", Json::as_f64)?;
        let seeds = list(&v, "seeds", "a non-negative integer", Json::as_u64)?;
        let faults = v
            .arr("faults")?
            .iter()
            .map(|f| -> Result<FaultAxis, String> {
                Ok(FaultAxis {
                    name: f.str("name")?.to_string(),
                    plan: FaultPlan::from_json(&f.req("plan")?.render())?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let spec = CampaignSpec {
            name: v.str("name")?.to_string(),
            protocols,
            scenarios,
            rates,
            seeds,
            faults,
            packets: v.uint("packets")?,
            nodes: v.uint("nodes")? as usize,
            shards: v.uint("shards")? as usize,
            obs: v.bool("obs")?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Refuse a grid [`rmac_engine::Run`] would refuse: every case's config
    /// must pass [`ScenarioConfig::validate`] (a finite positive rate, an
    /// end of run that fits the clock, 1..=65535 nodes), so a bad manifest
    /// fails before its `manifest.json` is written instead of in every
    /// case. Also refuse obs ingestion on sharded cases: the sharded merge
    /// carries no engine obs, so every case would fall back to one serial
    /// group.
    pub fn validate(&self) -> Result<(), String> {
        for case in self.cases() {
            case.config()
                .validate()
                .map_err(|e| format!("case {}: {e}", case.key()))?;
        }
        if self.obs && self.shards > 1 {
            return Err(format!(
                "obs cannot be ingested with shards = {}: the sharded merge carries no engine obs",
                self.shards
            ));
        }
        Ok(())
    }
}

/// One fully materialized grid point: everything needed to run and key a
/// single replication.
#[derive(Clone, Debug)]
pub struct CaseSpec {
    pub protocol: Protocol,
    pub scenario: ScenarioKind,
    pub rate: f64,
    pub seed: u64,
    /// The fault axis name ("none" for the trivial plan).
    pub fault: String,
    pub plan: FaultPlan,
    pub packets: u64,
    pub nodes: usize,
    pub shards: usize,
    pub obs: bool,
}

impl CaseSpec {
    /// The case's unique store key, e.g. `RMAC/stationary/r20/none/s3`.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/r{}/{}/s{}",
            self.protocol.label(),
            self.scenario.label(),
            self.rate,
            self.fault,
            self.seed
        )
    }

    /// The scenario config this case runs ([`ScenarioKind::config`] at the
    /// case's shard count).
    pub fn config(&self) -> ScenarioConfig {
        let cfg = self.scenario.config(self.rate, self.nodes, self.packets);
        cfg.with_shards(self.shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_enumerate_seeds_innermost() {
        let mut spec = CampaignSpec::paper_figures(true);
        spec.seeds = vec![0, 1];
        let cases = spec.cases();
        assert_eq!(cases.len(), spec.case_count());
        assert_eq!(cases[0].seed, 0);
        assert_eq!(cases[1].seed, 1);
        assert_eq!(cases[0].key(), "RMAC/stationary/r5/none/s0");
        // Keys are unique.
        let mut keys: Vec<String> = cases.iter().map(CaseSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cases.len());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = CampaignSpec::paper_figures(false);
        spec.faults.push(FaultAxis {
            name: "moderate-bursty".into(),
            plan: FaultPlan {
                salt: 16_045_690_984_503_111_693,
                bursty: Some(rmac_faults::BurstySpec::moderate()),
                ..FaultPlan::none()
            },
        });
        // Read through an f64, seed 2^53 + 1 came back as ...992 and the
        // salt above as ...111680: other placements, another loss trajectory.
        spec.seeds.extend([9_007_199_254_740_993, u64::MAX]);
        // Past u32, still inside the clock at 5 pkt/s (u64::MAX is refused).
        spec.packets = 4_000_000_001;
        let json = spec.to_json();
        assert!(
            json.contains("9007199254740993,18446744073709551615]"),
            "{json}"
        );
        let back = CampaignSpec::from_json(&json).expect("round trip");
        assert_eq!(back.name, spec.name);
        assert_eq!(back.protocols, spec.protocols);
        assert_eq!(back.scenarios, spec.scenarios);
        assert_eq!(back.rates, spec.rates);
        assert_eq!(back.seeds, spec.seeds);
        assert_eq!(back.packets, spec.packets);
        assert_eq!(back.nodes, spec.nodes);
        assert_eq!(back.faults.len(), 2);
        assert_eq!(back.faults[1].name, "moderate-bursty");
        assert_eq!(back.faults[1].plan, spec.faults[1].plan);
        // The regenerated manifest is byte-identical (the resume contract).
        assert_eq!(back.to_json(), json);
    }

    /// The quick paper-figures manifest with one `"key": value` replaced.
    fn manifest_with(key: &str, value: &str) -> String {
        let json = CampaignSpec::paper_figures(true).to_json();
        let start = json.find(&format!("\"{key}\": ")).expect("key present") + key.len() + 4;
        let end = start + json[start..].find(",\n").expect("value ends the line");
        format!("{}{value}{}", &json[..start], &json[end..])
    }

    #[test]
    fn wrongly_typed_axis_elements_are_errors() {
        for (key, value, needle) in [
            ("rates", "[5,\"40\"]", "rates: \"40\""),
            ("seeds", "[0,1.5]", "seeds: 1.5"),
            ("seeds", "[0,-1]", "seeds: -1"),
            ("protocols", "[\"RMAC\",7]", "protocols: 7"),
            ("protocols", "[\"RMAC\",\"TCP\"]", "protocols: \"TCP\""),
            ("scenarios", "[\"stationary\",null]", "scenarios: null"),
        ] {
            let err = CampaignSpec::from_json(&manifest_with(key, value))
                .expect_err("a wrongly-typed element must not shrink the grid");
            assert!(err.contains(needle), "{key}={value}: {err}");
        }
    }

    #[test]
    fn unusable_rates_are_errors() {
        // A case the engine would refuse is refused before any case runs,
        // naming the first such case.
        for (key, value, needle) in [
            (
                "rates",
                "[5,0]",
                "r0/none/s0: ScenarioConfig::rate_pps must be finite and positive",
            ),
            (
                "rates",
                "[5,-5]",
                "r-5/none/s0: ScenarioConfig::rate_pps must be finite and positive",
            ),
            ("rates", "[5,1e999]", "rates: number 1e999 at byte"),
            (
                "nodes",
                "0",
                "r5/none/s0: ScenarioConfig::nodes must be in 1..=65535, got 0",
            ),
            (
                "nodes",
                "65536",
                "r5/none/s0: ScenarioConfig::nodes must be in 1..=65535, got 65536",
            ),
            (
                "packets",
                "18446744073709551615",
                "r5/none/s0: ScenarioConfig's end time must fit the clock",
            ),
        ] {
            let err = CampaignSpec::from_json(&manifest_with(key, value))
                .expect_err("the case must be refused");
            assert!(err.contains(needle), "{key}={value}: {err}");
        }
        let mut spec = CampaignSpec::paper_figures(true);
        spec.rates.push(f64::NAN);
        assert!(spec.validate().is_err());
    }

    #[test]
    fn obs_on_sharded_cases_is_an_error() {
        let json = manifest_with("obs", "true");
        CampaignSpec::from_json(&json).expect("obs alone is fine");
        let json = json.replace("\"shards\": 0", "\"shards\": 2");
        let err = CampaignSpec::from_json(&json).expect_err("obs x shards refused");
        assert!(err.contains("carries no engine obs"), "{err}");
    }

    #[test]
    fn scenario_labels_match_configs() {
        for (s, _) in ScenarioKind::LABELS {
            assert_eq!(s.config(5.0, 75, 100).name, s.label());
            assert_eq!(ScenarioKind::from_label(s.label()), Some(s));
        }
    }

    #[test]
    fn a_star_or_chain_keeps_its_own_size() {
        use ScenarioKind::*;
        let spec = CampaignSpec {
            scenarios: vec![StationaryUnreliable, Star41Limit10, Chain3],
            rates: vec![20.0],
            seeds: vec![0],
            ..CampaignSpec::paper_figures(true)
        };
        let nodes: Vec<usize> = (spec.cases().iter().take(3))
            .map(|c| c.config().nodes)
            .collect();
        assert_eq!(nodes, [spec.nodes, 41, 4]);
    }
}
