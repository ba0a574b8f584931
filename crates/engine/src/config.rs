//! Scenario configuration and protocol selection.

use rmac_baselines::{Bmmm, Bmw, Lbp, Mx};
use rmac_core::api::MacService;
use rmac_core::{MacConfig, Rmac};
use rmac_mobility::{Bounds, MobilityKind, Pos};
use rmac_sim::SimTime;
use rmac_wire::consts::PAPER_PAYLOAD;
use rmac_wire::NodeId;

/// Which MAC protocol a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// RMAC (the paper's contribution).
    Rmac,
    /// Ablation X2: RMAC with the RBT lowered at the first data bit, so
    /// data receptions lose hidden-terminal protection.
    RmacNoRbt,
    /// Deliberately broken mutant: the sender skips the WF_RBT λ-detection
    /// and transmits reliable data even when no receiver answered. Exists
    /// to prove the conformance checker catches the breach (invariant C1);
    /// never used in experiments.
    RmacSkipRbtSense,
    /// BMMM (the paper's comparison baseline).
    Bmmm,
    /// BMW (extension baseline).
    Bmw,
    /// LBP (extension baseline).
    Lbp,
    /// 802.11MX (extension baseline): receiver-initiated NAK busy tone.
    Mx80211,
}

impl Protocol {
    /// Every protocol, in declaration order.
    pub const ALL: [Protocol; 7] = [
        Protocol::Rmac,
        Protocol::RmacNoRbt,
        Protocol::RmacSkipRbtSense,
        Protocol::Bmmm,
        Protocol::Bmw,
        Protocol::Lbp,
        Protocol::Mx80211,
    ];

    /// Human-readable label used in reports, stores and on the command line.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Rmac => "RMAC",
            Protocol::RmacNoRbt => "RMAC-noRBT",
            Protocol::RmacSkipRbtSense => "RMAC-skipRbtSense",
            Protocol::Bmmm => "BMMM",
            Protocol::Bmw => "BMW",
            Protocol::Lbp => "LBP",
            Protocol::Mx80211 => "802.11MX",
        }
    }

    /// Inverse of [`Protocol::label`]: the protocol whose label is exactly `s`.
    pub fn from_label(s: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.label() == s)
    }

    /// Which conformance invariant family ([`rmac_check::ProtocolClass`])
    /// this protocol is checked against. The RMAC mutants stay in the RMAC
    /// class on purpose: the checker is what exposes their breach.
    pub fn conformance_class(self) -> rmac_check::ProtocolClass {
        match self {
            Protocol::Rmac | Protocol::RmacNoRbt | Protocol::RmacSkipRbtSense => {
                rmac_check::ProtocolClass::Rmac
            }
            Protocol::Bmmm => rmac_check::ProtocolClass::Bmmm,
            Protocol::Bmw | Protocol::Lbp | Protocol::Mx80211 => rmac_check::ProtocolClass::Other,
        }
    }

    /// Instantiate the MAC entity for one node.
    pub fn make_mac(self, id: NodeId, cfg: MacConfig) -> Box<dyn MacService> {
        match self {
            Protocol::Rmac => Box::new(Rmac::new(id, cfg)),
            Protocol::RmacNoRbt => Box::new(Rmac::new(
                id,
                MacConfig {
                    rbt_data_protection: false,
                    ..cfg
                },
            )),
            Protocol::RmacSkipRbtSense => Box::new(Rmac::new(
                id,
                MacConfig {
                    skip_rbt_sense: true,
                    ..cfg
                },
            )),
            Protocol::Bmmm => Box::new(Bmmm::new(id, cfg)),
            Protocol::Bmw => Box::new(Bmw::new(id, cfg)),
            Protocol::Lbp => Box::new(Lbp::new(id, cfg)),
            Protocol::Mx80211 => Box::new(Mx::new(id, cfg)),
        }
    }
}

/// One experiment's parameters. Defaults are the paper's §4.1 environment;
/// the radio range ([`rmac_wire::consts::RANGE_M`]) and the BLESS-lite
/// cadence (`rmac_net::BlessConfig::default()`) are the same for every run.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Scenario label used in reports.
    pub name: String,
    /// Number of nodes (paper: 75).
    pub nodes: usize,
    /// Plane dimensions (paper: 500 m × 300 m).
    pub bounds: Bounds,
    /// Per-bit error probability (0 = clean channel).
    pub ber_per_bit: f64,
    /// Mobility model.
    pub mobility: MobilityKind,
    /// Source packet rate in packets/second (paper sweeps 5–120).
    pub rate_pps: f64,
    /// Packets the source generates (paper: 10 000; default here 1 000 to
    /// keep the full grid laptop-tractable — record the value used).
    pub packets: u64,
    /// Application payload size (paper: 500 bytes).
    pub payload: usize,
    /// Tree formation time before the source starts.
    pub warmup: SimTime,
    /// Extra simulated time after the last packet for deliveries to drain.
    pub drain: SimTime,
    /// MAC parameters.
    pub mac: MacConfig,
    /// Explicit node positions (overrides random placement; the node count
    /// becomes the vector's length). Used by crafted-topology examples and
    /// tests.
    pub positions: Option<Vec<Pos>>,
    /// When false, the network layer forwards application packets with the
    /// Unreliable Send service (one broadcast per hop, no recovery) — the
    /// paper's §1 motivation strawman.
    pub reliable_forwarding: bool,
    /// Shard count: at `n > 1`, [`crate::Run`] runs the replication as
    /// about `4n` groups of whole radio components (slots linked by
    /// in-range chains), which never exchange events; `1` (the default) is
    /// one group, the whole world. Any value produces bit-identical reports
    /// (DESIGN.md §8, enforced by `tests/shard_equivalence.rs`).
    pub shards: usize,
}

impl ScenarioConfig {
    fn base(name: &str, mobility: MobilityKind, rate_pps: f64) -> ScenarioConfig {
        ScenarioConfig {
            name: name.to_string(),
            nodes: 75,
            bounds: Bounds::PAPER,
            ber_per_bit: 0.0,
            mobility,
            rate_pps,
            packets: 1_000,
            payload: PAPER_PAYLOAD,
            warmup: SimTime::from_secs(5),
            drain: SimTime::from_secs(10),
            mac: MacConfig::default(),
            positions: None,
            reliable_forwarding: true,
            shards: 1,
        }
    }

    /// The paper's "Stationary" scenario at the given source rate.
    pub fn paper_stationary(rate_pps: f64) -> ScenarioConfig {
        Self::base("stationary", MobilityKind::Stationary, rate_pps)
    }

    /// The paper's "Moving at speed 1" scenario (0–4 m/s, 10 s pauses).
    pub fn paper_speed1(rate_pps: f64) -> ScenarioConfig {
        Self::base("speed1", MobilityKind::paper_speed1(), rate_pps)
    }

    /// The paper's "Moving at speed 2" scenario (0–8 m/s, 5 s pauses).
    pub fn paper_speed2(rate_pps: f64) -> ScenarioConfig {
        Self::base("speed2", MobilityKind::paper_speed2(), rate_pps)
    }

    /// Override the packet count.
    pub fn with_packets(mut self, packets: u64) -> Self {
        self.packets = packets;
        self
    }

    /// Override the node count. Below the paper's 75 nodes both sides of
    /// the paper's plane shrink by √(n/75), so a small network keeps the
    /// paper's node density (and stays connected) instead of scattering a
    /// handful of nodes over 500 m × 300 m; at 75 or more `bounds` is left
    /// as it is. A test that wants few nodes on the full plane sets
    /// `bounds` after this call.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        if nodes < 75 {
            let scale = (nodes as f64 / 75.0).sqrt();
            let paper = Bounds::PAPER;
            self.bounds = Bounds::new(paper.width * scale, paper.height * scale);
        }
        self
    }

    /// Override the bit error rate.
    pub fn with_ber(mut self, ber: f64) -> Self {
        self.ber_per_bit = ber;
        self
    }

    /// Pin every node to an explicit position (crafted topologies).
    pub fn with_positions(mut self, positions: Vec<Pos>) -> Self {
        self.nodes = positions.len();
        self.positions = Some(positions);
        self
    }

    /// Pin the nodes to a chain of `hops` hops `spacing_m` apart along the
    /// x axis, the source at one end.
    pub fn with_chain(self, hops: usize, spacing_m: f64) -> Self {
        self.with_positions(
            (0..=hops)
                .map(|i| Pos::new(i as f64 * spacing_m, 0.0))
                .collect(),
        )
    }

    /// Forward application packets unreliably (the §1 strawman).
    pub fn with_unreliable_forwarding(mut self) -> Self {
        self.reliable_forwarding = false;
        self
    }

    /// Run at `shards` shards: above 1, the radio components are packed
    /// into at most `4 · shards` groups that run concurrently. Reports
    /// stay bit-identical for every value.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The interval between source packets.
    pub fn source_interval(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.rate_pps)
    }

    /// Total simulated time: warmup + send window + drain, or `None` when
    /// that does not fit the clock ([`ScenarioConfig::validate`] refuses
    /// such a config).
    pub fn checked_end_time(&self) -> Option<SimTime> {
        let send = self.source_interval().checked_mul(self.packets)?;
        self.warmup.checked_add(send)?.checked_add(self.drain)
    }

    /// Whether [`crate::Run`] can run this config: the source rate is a
    /// finite positive number (the source interval `1 / rate_pps` would
    /// otherwise saturate the clock), the end of the run fits the clock
    /// ([`ScenarioConfig::checked_end_time`]), and `nodes` is in
    /// `1..=65535` (node 0 is the source, and a [`NodeId`] is 16 bits
    /// wide). `Err` says which condition fails.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rate_pps.is_finite() && self.rate_pps > 0.0) {
            return Err(format!(
                "ScenarioConfig::rate_pps must be finite and positive, got {}",
                self.rate_pps
            ));
        }
        if self.checked_end_time().is_none() {
            return Err(format!(
                "ScenarioConfig's end time must fit the clock, got {} packets at {} pkt/s",
                self.packets, self.rate_pps
            ));
        }
        if !(1..=usize::from(u16::MAX)).contains(&self.nodes) {
            return Err(format!(
                "ScenarioConfig::nodes must be in 1..=65535, got {}",
                self.nodes
            ));
        }
        Ok(())
    }

    /// Total simulated time: warmup + send window + drain.
    ///
    /// Panics if that does not fit the clock (see
    /// [`ScenarioConfig::checked_end_time`]).
    pub fn end_time(&self) -> SimTime {
        self.checked_end_time()
            .expect("the end of the run does not fit the clock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ScenarioConfig::paper_stationary(40.0);
        assert_eq!(c.nodes, 75);
        assert_eq!(c.bounds, Bounds::PAPER);
        assert_eq!(c.payload, 500);
        assert_eq!(c.rate_pps, 40.0);
        assert_eq!(c.source_interval(), SimTime::from_millis(25));
    }

    #[test]
    fn end_time_accounts_for_all_phases() {
        let c = ScenarioConfig::paper_stationary(10.0).with_packets(100);
        // 5 s warmup + 10 s sending + 10 s drain.
        assert_eq!(c.end_time(), SimTime::from_secs(25));
    }

    #[test]
    fn an_end_time_past_the_clock_is_none() {
        // 10⁹ s between packets: the send window alone is 10²⁰ ns, past
        // the 1.8 · 10¹⁹ a u64 clock holds.
        let c = ScenarioConfig::paper_stationary(1e-9).with_packets(100);
        assert_eq!(c.checked_end_time(), None);
        let fits = ScenarioConfig::paper_stationary(1e-9).with_packets(18);
        let send = fits.source_interval().mul(18);
        assert_eq!(
            fits.checked_end_time(),
            Some(fits.warmup + send + fits.drain)
        );
    }

    #[test]
    fn a_small_network_keeps_the_paper_density() {
        for nodes in [75, 76, 200, 2000] {
            let c = ScenarioConfig::paper_stationary(5.0).with_nodes(nodes);
            assert_eq!(c.bounds.width.to_bits(), Bounds::PAPER.width.to_bits());
            assert_eq!(c.bounds.height.to_bits(), Bounds::PAPER.height.to_bits());
        }
        let mut custom = ScenarioConfig::paper_stationary(5.0);
        custom.bounds = Bounds::new(50.0, 50.0);
        assert_eq!(custom.with_nodes(100).bounds, Bounds::new(50.0, 50.0));
        // 30 nodes on 0.4 of the paper's area: 75 / (500 · 300) per m².
        let c = ScenarioConfig::paper_stationary(5.0).with_nodes(30);
        let area = c.bounds.width * c.bounds.height;
        assert!((30.0 / area - 75.0 / 150_000.0).abs() < 1e-12, "{area}");
        assert!((c.bounds.width / c.bounds.height - 5.0 / 3.0).abs() < 1e-12);
        // Scaled from the paper's plane, not compounded.
        let twice = ScenarioConfig::paper_stationary(5.0)
            .with_nodes(15)
            .with_nodes(30);
        assert_eq!(twice.bounds, c.bounds);
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(Protocol::Rmac.label(), "RMAC");
        assert_eq!(Protocol::Bmmm.label(), "BMMM");
        assert_eq!(Protocol::RmacNoRbt.label(), "RMAC-noRBT");
        for p in Protocol::ALL {
            assert_eq!(Protocol::from_label(p.label()), Some(p));
        }
        assert_eq!(Protocol::from_label("rmac"), None);
    }

    #[test]
    fn mobility_constructors() {
        assert_eq!(
            ScenarioConfig::paper_stationary(5.0).mobility,
            MobilityKind::Stationary
        );
        assert!(matches!(
            ScenarioConfig::paper_speed1(5.0).mobility,
            MobilityKind::RandomWaypoint { max_speed, .. } if max_speed == 4.0
        ));
        assert!(matches!(
            ScenarioConfig::paper_speed2(5.0).mobility,
            MobilityKind::RandomWaypoint { max_speed, .. } if max_speed == 8.0
        ));
    }
}
