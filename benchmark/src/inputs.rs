//! Input generators: everything the program is handed, made from `--seed`.
//!
//! One replication cannot average over placements the way the paper's ten
//! placements per data point do: resampling the whole topology per seed
//! moves delivery by ±0.1 and BMMM's delay by ±50 %, which would drown
//! every bound. So each workload owns one fixed base layout, and the seed
//! *perturbs* the inputs: every node is displaced by up to [`JITTER_M`]
//! metres, and the program's replication / MAC / loss seeds are derived
//! from it. Two seeds give different positions, different event orders and
//! different reports, but statistically the same workload. Where even that
//! moves a workload's simulated statistics too far for a bound to mean
//! anything, one of the two is pinned; each generator says which and why.
//!
//! The program never sees a workload's name: configurations keep the
//! library's own scenario labels.

use rmac_campaign::{CampaignSpec, FaultAxis, ScenarioKind};
use rmac_engine::{Protocol, ScenarioConfig};
use rmac_live::soak::ge20;
use rmac_live::{HubConfig, SoakConfig};
use rmac_mobility::{Bounds, Pos};

/// Largest displacement, per axis, the seed applies to a base position: 4 %
/// of the 75 m radio range, so only marginal links change.
pub const JITTER_M: f64 = 3.0;

/// `--smoke` divides every packet count by this.
pub const SMOKE_DIVISOR: u64 = 50;

/// Radio-silent gap between the cells of the multicell layout (m); wider
/// than the 75 m range, so cells never couple.
const CELL_GAP_M: f64 = 120.0;
const CELLS: usize = 8;

/// SplitMix64: the benchmark's own generator, so that inputs do not change
/// when the program's RNG does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// A seed for the program derived from the benchmark's, so that adjacent
/// `--seed` values do not hand the program adjacent streams.
fn derived(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// Full size or the `--smoke` size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn packets(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / SMOKE_DIVISOR).max(2),
        }
    }
}

/// One simulated replication: what `Runner::new` is given.
#[derive(Clone, Debug)]
pub struct SimInput {
    pub cfg: ScenarioConfig,
    pub protocol: Protocol,
    pub seed: u64,
}

/// A workload's fixed base layout: `n` uniform positions in the rectangle
/// at `(x0, 0)` of size `w × h`, drawn from the workload's own stream.
fn base_layout(stream: u64, n: usize, x0: f64, w: f64, h: f64, out: &mut Vec<Pos>) {
    let mut rng = Rng::new(stream);
    for _ in 0..n {
        out.push(Pos::new(rng.range(x0, x0 + w), rng.range(0.0, h)));
    }
}

/// Displace every position by up to [`JITTER_M`] per axis, staying inside
/// the rectangle at `(x0, 0)` of size `w × h`.
fn jitter(positions: &mut [Pos], stream: u64, x0: f64, w: f64, h: f64) {
    let mut rng = Rng::new(stream);
    for p in positions {
        p.x = (p.x + rng.range(-JITTER_M, JITTER_M)).clamp(x0, x0 + w);
        p.y = (p.y + rng.range(-JITTER_M, JITTER_M)).clamp(0.0, h);
    }
}

/// `n` nodes at the paper's density (75 nodes per 500 m × 300 m) on one
/// plane: the base layout of `stream`, perturbed by `seed` if there is one.
fn paper_density_plane(stream: u64, n: usize, seed: Option<u64>) -> (Vec<Pos>, Bounds) {
    let scale = (n as f64 / 75.0).sqrt();
    let (w, h) = (500.0 * scale, 300.0 * scale);
    let mut positions = Vec::with_capacity(n);
    base_layout(stream, n, 0.0, w, h, &mut positions);
    if let Some(seed) = seed {
        jitter(&mut positions, derived(seed, 1), 0.0, w, h);
    }
    (positions, Bounds::new(w, h))
}

/// RMAC, 200 stationary nodes at paper density, 20 pkt/s.
pub fn dense200_static(seed: u64, scale: Scale) -> SimInput {
    let (positions, bounds) = paper_density_plane(0xD200, 200, Some(seed));
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_packets(scale.packets(600))
        .with_positions(positions);
    cfg.bounds = bounds;
    SimInput {
        cfg,
        protocol: Protocol::Rmac,
        seed: derived(seed, 2),
    }
}

/// RMAC, the paper's 75 nodes, speed-2 random waypoint, 10 pkt/s. The
/// replication seed is pinned: the program draws the waypoint trajectories
/// from it, and a different set of trajectories is a different workload
/// (delivery 0.54 to 0.76 over ten of them). The seed moves where every
/// node starts.
pub fn paper75_mobile(seed: u64, scale: Scale) -> SimInput {
    let (positions, _) = paper_density_plane(0x75AA, 75, Some(seed));
    SimInput {
        cfg: ScenarioConfig::paper_speed2(10.0)
            .with_packets(scale.packets(650))
            .with_positions(positions),
        protocol: Protocol::Rmac,
        seed: 0x75AA,
    }
}

/// BMMM, 75 stationary nodes, 40 pkt/s: past its saturation knee, where the
/// backlog grows at the offered rate minus the service rate and the mean
/// delay with it, so a few percent of service rate are three times as much
/// delay. The positions are pinned: displacing them moves marginal links
/// and with them the service rate (quartile distance of the delay over 40
/// seeds 12 % with the displacement, 8 % without; of delivery 6 % and 2 %).
/// The seed moves the replication and MAC seeds.
pub fn paper75_bmmm(seed: u64, scale: Scale) -> SimInput {
    let (positions, _) = paper_density_plane(0x75BB, 75, None);
    SimInput {
        cfg: ScenarioConfig::paper_stationary(40.0)
            .with_packets(scale.packets(2600))
            .with_positions(positions),
        protocol: Protocol::Bmmm,
        seed: derived(seed, 3),
    }
}

/// RMAC, 2000 nodes in 8 radio-isolated paper-density cells along x, the
/// source in cell 0, run by the sharded engine on 2 shards (the layout of
/// the repository's `bench_shard`).
pub fn multicell2000_shard2(seed: u64, scale: Scale) -> SimInput {
    let nodes = 2000;
    let per_cell = nodes / CELLS;
    let cell_scale = (per_cell as f64 / 75.0).sqrt();
    let (cell_w, cell_h) = (500.0 * cell_scale, 300.0 * cell_scale);
    let pitch = cell_w + CELL_GAP_M;
    let width = CELLS as f64 * pitch - CELL_GAP_M;
    let mut positions = Vec::with_capacity(nodes);
    for cell in 0..CELLS {
        let x0 = cell as f64 * pitch;
        let start = positions.len();
        base_layout(
            0x2000 + cell as u64,
            per_cell,
            x0,
            cell_w,
            cell_h,
            &mut positions,
        );
        // Jitter inside the cell, so that no node drifts into a gap.
        let stream = derived(seed, 10 + cell as u64);
        jitter(&mut positions[start..], stream, x0, cell_w, cell_h);
    }
    let mut cfg = ScenarioConfig::paper_stationary(20.0)
        .with_packets(scale.packets(300))
        .with_positions(positions)
        .with_shards(2);
    cfg.bounds = Bounds::new(width, cell_h);
    SimInput {
        cfg,
        protocol: Protocol::Rmac,
        seed: derived(seed, 4),
    }
}

/// The live backend's loopback soak: 2 publishers × 3 subscribers, 500 B,
/// 20 % Gilbert–Elliott loss; a closed loop with one packet outstanding
/// per publisher.
pub fn live_soak_ge20(seed: u64, scale: Scale) -> SoakConfig {
    SoakConfig {
        publishers: 2,
        subscribers: 3,
        packets_per_publisher: scale.packets(5000),
        payload_len: 500,
        hub: HubConfig {
            loss: Some(ge20()),
            seed: derived(seed, 5),
            ..HubConfig::default()
        },
        seed: derived(seed, 6),
        ..SoakConfig::default()
    }
}

/// The figure-campaign grid: {RMAC, BMMM} × 3 mobility scenarios × 4 rates
/// × {no faults, bursty loss} on one placement = 48 short cases with the
/// obs layer on. The placement is pinned (the program draws it from the
/// case seed, see the module docs); the seed salts the bursty plan's loss
/// draws.
pub fn campaign_grid(seed: u64, scale: Scale) -> CampaignSpec {
    let mut bursty = FaultAxis::bursty();
    // 52 bits: the manifest stores the salt as a JSON number.
    bursty.plan.salt = derived(seed, 7) >> 12;
    CampaignSpec {
        name: "grid".into(),
        protocols: vec![Protocol::Rmac, Protocol::Bmmm],
        scenarios: ScenarioKind::ALL.to_vec(),
        rates: vec![5.0, 20.0, 40.0, 120.0],
        seeds: vec![1],
        faults: vec![FaultAxis::none(), bursty],
        packets: scale.packets(20),
        nodes: 75,
        shards: 0,
        obs: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn sims(seed: u64) -> Vec<SimInput> {
        vec![
            dense200_static(seed, Scale::Full),
            paper75_mobile(seed, Scale::Full),
            paper75_bmmm(seed, Scale::Full),
            multicell2000_shard2(seed, Scale::Full),
        ]
    }

    fn bits(positions: &[Pos]) -> Vec<(u64, u64)> {
        positions
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect()
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for (a, b) in sims(7).iter().zip(sims(7).iter()) {
            let (pa, pb) = (a.cfg.positions.as_ref(), b.cfg.positions.as_ref());
            assert_eq!(bits(pa.unwrap()), bits(pb.unwrap()));
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.cfg.packets, b.cfg.packets);
        }
        assert_eq!(
            campaign_grid(7, Scale::Full).to_json(),
            campaign_grid(7, Scale::Full).to_json()
        );
        let (a, b) = (
            live_soak_ge20(7, Scale::Full),
            live_soak_ge20(7, Scale::Full),
        );
        assert_eq!((a.seed, a.hub.seed), (b.seed, b.hub.seed));
    }

    #[test]
    fn adjacent_seeds_give_different_inputs() {
        for (a, b) in sims(1).iter().zip(sims(2).iter()) {
            let (pa, pb) = (a.cfg.positions.as_ref(), b.cfg.positions.as_ref());
            assert_ne!(
                (bits(pa.unwrap()), a.seed),
                (bits(pb.unwrap()), b.seed),
                "{}",
                a.cfg.name
            );
        }
        assert_ne!(
            campaign_grid(1, Scale::Full).to_json(),
            campaign_grid(2, Scale::Full).to_json()
        );
        let (a, b) = (
            live_soak_ge20(1, Scale::Full),
            live_soak_ge20(2, Scale::Full),
        );
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.hub.seed, b.hub.seed);
    }

    #[test]
    fn the_seed_perturbs_positions_by_at_most_the_jitter() {
        let (a, b) = (
            dense200_static(1, Scale::Full),
            dense200_static(9, Scale::Full),
        );
        let (pa, pb) = (a.cfg.positions.unwrap(), b.cfg.positions.unwrap());
        assert_eq!(pa.len(), 200);
        for (p, q) in pa.iter().zip(pb.iter()) {
            assert!((p.x - q.x).abs() <= 2.0 * JITTER_M);
            assert!((p.y - q.y).abs() <= 2.0 * JITTER_M);
        }
    }

    #[test]
    fn positions_stay_on_the_plane_and_cells_stay_isolated() {
        for input in sims(3) {
            let b = input.cfg.bounds;
            for p in input.cfg.positions.as_ref().unwrap() {
                assert!(p.x >= 0.0 && p.x <= b.width && p.y >= 0.0 && p.y <= b.height);
            }
        }
        let multi = multicell2000_shard2(3, Scale::Full);
        let positions = multi.cfg.positions.unwrap();
        assert_eq!(positions.len(), 2000);
        let per_cell = 2000 / CELLS;
        for cell in 1..CELLS {
            let left_max = positions[(cell - 1) * per_cell..cell * per_cell]
                .iter()
                .map(|p| p.x)
                .fold(f64::MIN, f64::max);
            let right_min = positions[cell * per_cell..(cell + 1) * per_cell]
                .iter()
                .map(|p| p.x)
                .fold(f64::MAX, f64::min);
            assert!(right_min - left_max >= CELL_GAP_M, "cells {cell} couple");
        }
    }

    #[test]
    fn the_program_never_sees_a_workload_name() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        for input in sims(1) {
            assert!(
                !names.contains(&input.cfg.name.as_str()),
                "{}",
                input.cfg.name
            );
        }
        let spec = campaign_grid(1, Scale::Full);
        assert!(names.iter().all(|n| !spec.to_json().contains(n)));
    }

    #[test]
    fn smoke_divides_packet_counts() {
        assert_eq!(Scale::Smoke.packets(800), 16);
        assert_eq!(Scale::Full.packets(800), 800);
        assert_eq!(Scale::Smoke.packets(20), 2);
        assert_eq!(
            dense200_static(1, Scale::Smoke).cfg.packets * SMOKE_DIVISOR,
            dense200_static(1, Scale::Full).cfg.packets
        );
    }

    #[test]
    fn rng_is_uniform_enough_and_in_range() {
        let mut rng = Rng::new(1);
        let mean = (0..10_000).map(|_| rng.unit()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
        assert!((0..1000).all(|_| (2.0..3.0).contains(&rng.range(2.0, 3.0))));
    }
}
