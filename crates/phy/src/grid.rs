//! Uniform-grid spatial index over node positions.
//!
//! Every transmission and tone start needs "who is within radio range of
//! this node right now?". The brute-force answer walks all N trajectories
//! per query — O(N) per event and O(N²) per contention round, which is
//! exactly the regime (dense busy-tone neighborhoods) the paper's
//! evaluation stresses. [`SpatialGrid`] buckets nodes into square cells of
//! side `cell_m` (the radio range) so a range query only inspects the few
//! cells overlapping the query disk.
//!
//! # Determinism contract
//!
//! The grid is a *candidate filter only*: callers re-check every candidate
//! against the node's exact trajectory position at the query instant and
//! sort accepted receivers into ascending `NodeId` order. Query results —
//! and therefore every event schedule, RNG draw, and `RunReport` — are
//! bit-identical to the brute-force scan. Unit tests and the workspace
//! proptests (`tests/grid_equivalence.rs`) enforce this.
//!
//! # Mobility
//!
//! Fixed nodes ([`Motion::is_fixed`]) are bucketed once. Moving nodes are
//! re-bucketed lazily, at most once per `QUANTUM` of simulated time
//! (λ = 15 µs, far below any protocol-visible timescale). Between
//! refreshes a mover's bucket is stale by at most `speed_bound × QUANTUM`
//! meters; queries widen their search radius by that worst-case drift so
//! the candidate set always covers the true in-range set.

use rmac_mobility::Motion;
use rmac_mobility::Pos;
use rmac_sim::{DetHashMap, SimTime};

/// How the channel answers range queries.
#[derive(Clone, Copy, Debug)]
pub enum IndexMode {
    /// Walk every trajectory per query (the O(N) reference path).
    BruteForce,
    /// Uniform-grid candidate filtering; see [`SpatialGrid`].
    Grid,
}

impl IndexMode {
    /// Grid indexing.
    pub const fn grid() -> IndexMode {
        IndexMode::Grid
    }
}

/// Moving nodes are re-bucketed at most once per this much simulated time:
/// the paper's λ = 15 µs tone-detection window, small enough that `max node
/// speed × QUANTUM` is negligible against the cell size.
const QUANTUM: SimTime = SimTime::from_micros(15);

impl Default for IndexMode {
    fn default() -> Self {
        IndexMode::grid()
    }
}

/// A uniform grid over node positions. Cells are addressed by integer
/// coordinates (floor-divided meters), held in a map so the plane needs no
/// a-priori bounds — crafted test topologies place nodes anywhere.
pub struct SpatialGrid {
    cell_m: f64,
    /// Worst-case distance any mover can drift between refreshes (m).
    drift_m: f64,
    buckets: DetHashMap<(i32, i32), Vec<u16>>,
    /// Each node's current cell.
    cells: Vec<(i32, i32)>,
    /// Indices of nodes with a nonzero speed bound.
    movers: Vec<u16>,
    built: bool,
    next_refresh: SimTime,
    /// Refresh passes over the mover list (observability).
    refreshes: u64,
    /// Movers actually moved between buckets (observability).
    rebuckets: u64,
}

/// Cumulative grid maintenance counters, exposed for the observability
/// layer. Pure observation: reading them never changes query results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Refresh passes over the mover list.
    pub refreshes: u64,
    /// Mover re-bucket operations (cell actually changed).
    pub rebuckets: u64,
}

impl SpatialGrid {
    /// An empty grid with `cell_m`-sized cells (use the radio range). The
    /// grid populates itself on first [`SpatialGrid::ensure`].
    pub fn new(cell_m: f64) -> SpatialGrid {
        SpatialGrid {
            cell_m: cell_m.max(1.0),
            drift_m: 0.0,
            buckets: DetHashMap::default(),
            cells: Vec::new(),
            movers: Vec::new(),
            built: false,
            next_refresh: SimTime::ZERO,
            refreshes: 0,
            rebuckets: 0,
        }
    }

    /// Cumulative maintenance counters.
    pub fn stats(&self) -> GridStats {
        GridStats {
            refreshes: self.refreshes,
            rebuckets: self.rebuckets,
        }
    }

    #[inline]
    fn cell_of(&self, p: Pos) -> (i32, i32) {
        (
            (p.x / self.cell_m).floor() as i32,
            (p.y / self.cell_m).floor() as i32,
        )
    }

    /// Bring the index up to date for queries at time `t`. Fixed nodes are
    /// bucketed once on the first call; movers are re-bucketed when the
    /// refresh quantum has elapsed.
    pub fn ensure(&mut self, t: SimTime, motions: &mut [Motion]) {
        if !self.built {
            self.cells.clear();
            self.cells.reserve(motions.len());
            let mut max_mover_speed = 0.0f64;
            for (i, m) in motions.iter_mut().enumerate() {
                let cell = {
                    let p = m.position_at(t);
                    self.cell_of(p)
                };
                self.buckets.entry(cell).or_default().push(i as u16);
                self.cells.push(cell);
                let sb = m.speed_bound();
                if sb > 0.0 {
                    self.movers.push(i as u16);
                    max_mover_speed = max_mover_speed.max(sb);
                }
            }
            self.drift_m = max_mover_speed * QUANTUM.as_secs_f64();
            self.built = true;
            self.next_refresh = t + QUANTUM;
            return;
        }
        if self.movers.is_empty() || t < self.next_refresh {
            return;
        }
        self.refreshes += 1;
        for &i in &self.movers {
            let p = motions[i as usize].position_at(t);
            let cell = self.cell_of(p);
            let old = self.cells[i as usize];
            if cell == old {
                continue;
            }
            let bucket = self
                .buckets
                .get_mut(&old)
                .expect("mover bucketed in a vanished cell");
            let pos = bucket
                .iter()
                .position(|&n| n == i)
                .expect("mover missing from its cell");
            bucket.swap_remove(pos);
            self.buckets.entry(cell).or_default().push(i);
            self.cells[i as usize] = cell;
            self.rebuckets += 1;
        }
        self.next_refresh = t + QUANTUM;
    }

    /// Append to `out` every node index whose *bucketed* position could be
    /// within `radius` of `p` (widened by the worst-case mover drift).
    /// Candidates come in no particular order and include false positives;
    /// the caller must re-check exact positions and sort.
    pub fn candidates(&self, p: Pos, radius: f64, out: &mut Vec<u16>) {
        debug_assert!(self.built, "query before ensure");
        let reach = radius + self.drift_m;
        let (x0, y0) = self.cell_of(Pos::new(p.x - reach, p.y - reach));
        let (x1, y1) = self.cell_of(Pos::new(p.x + reach, p.y + reach));
        for cx in x0..=x1 {
            for cy in y0..=y1 {
                if let Some(bucket) = self.buckets.get(&(cx, cy)) {
                    out.extend_from_slice(bucket);
                }
            }
        }
    }

    /// Whether every indexed node is fixed (no movers), making receiver
    /// sets time-invariant.
    pub fn all_fixed(&self) -> bool {
        self.built && self.movers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmac_mobility::{Bounds, MobilityKind};
    use rmac_sim::SimRng;

    fn brute(motions: &mut [Motion], p: Pos, radius: f64, t: SimTime) -> Vec<u16> {
        let r2 = radius * radius;
        (0..motions.len())
            .filter(|&i| motions[i].position_at(t).dist_sq(p) <= r2)
            .map(|i| i as u16)
            .collect()
    }

    fn filter_exact(
        motions: &mut [Motion],
        mut cand: Vec<u16>,
        p: Pos,
        radius: f64,
        t: SimTime,
    ) -> Vec<u16> {
        let r2 = radius * radius;
        cand.retain(|&i| motions[i as usize].position_at(t).dist_sq(p) <= r2);
        cand.sort_unstable();
        cand
    }

    #[test]
    fn stationary_grid_matches_brute_force() {
        let mut rng = SimRng::new(7);
        let mut motions: Vec<Motion> = (0..200)
            .map(|_| {
                Motion::stationary(Pos::new(
                    rng.uniform_f64(-50.0, 550.0),
                    rng.uniform_f64(-50.0, 350.0),
                ))
            })
            .collect();
        let mut grid = SpatialGrid::new(75.0);
        grid.ensure(SimTime::ZERO, &mut motions);
        assert!(grid.all_fixed());
        for i in (0..200).step_by(7) {
            let p = motions[i].position_at(SimTime::ZERO);
            let mut cand = Vec::new();
            grid.candidates(p, 75.0, &mut cand);
            let got = filter_exact(&mut motions, cand, p, 75.0, SimTime::ZERO);
            let want = brute(&mut motions, p, 75.0, SimTime::ZERO);
            assert_eq!(got, want, "query around node {i}");
        }
    }

    #[test]
    fn moving_nodes_rebucket_within_quantum_drift() {
        // Waypoint nodes queried over minutes of simulated time: candidate
        // sets must always cover the true in-range sets.
        let mut motions: Vec<Motion> = (0..60)
            .map(|i| {
                Motion::new(
                    Pos::new((i % 10) as f64 * 50.0, (i / 10) as f64 * 50.0),
                    MobilityKind::paper_speed2(),
                    Bounds::PAPER,
                    SimRng::new(100 + i as u64),
                )
            })
            .collect();
        let mut grid = SpatialGrid::new(75.0);
        assert!(!Motion::new(
            Pos::new(0.0, 0.0),
            MobilityKind::paper_speed2(),
            Bounds::PAPER,
            SimRng::new(1)
        )
        .is_fixed());
        for step in 0..500u64 {
            // Uneven stride so refreshes and queries interleave.
            let t = SimTime::from_micros(step * 11) + SimTime::from_millis(step * 97);
            grid.ensure(t, &mut motions);
            // Query *between* refreshes: buckets are stale by up to the
            // quantum, which the drift widening must absorb.
            let tq = t + SimTime::from_micros(step % 15);
            let src = (step % 60) as usize;
            let p = motions[src].position_at(tq);
            let mut cand = Vec::new();
            grid.candidates(p, 75.0, &mut cand);
            let got = filter_exact(&mut motions, cand, p, 75.0, tq);
            let want = brute(&mut motions, p, 75.0, tq);
            assert_eq!(got, want, "step {step}");
        }
        assert!(!grid.all_fixed());
    }

    #[test]
    fn negative_coordinates_are_bucketed() {
        let mut motions = vec![
            Motion::stationary(Pos::new(-10.0, -10.0)),
            Motion::stationary(Pos::new(-80.0, -10.0)),
            Motion::stationary(Pos::new(200.0, 200.0)),
        ];
        let mut grid = SpatialGrid::new(75.0);
        grid.ensure(SimTime::ZERO, &mut motions);
        let p = Pos::new(-10.0, -10.0);
        let mut cand = Vec::new();
        grid.candidates(p, 75.0, &mut cand);
        let got = filter_exact(&mut motions, cand, p, 75.0, SimTime::ZERO);
        assert_eq!(got, vec![0, 1]);
    }
}
