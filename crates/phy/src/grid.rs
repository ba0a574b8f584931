//! Uniform-grid spatial index over node positions, and the per-source
//! neighbour lists built from it.
//!
//! Every transmission and tone start needs "who is within radio range of
//! this node right now?". The brute-force answer walks all N trajectories
//! per query — O(N) per event and O(N²) per contention round, which is
//! exactly the regime (dense busy-tone neighborhoods) the paper's
//! evaluation stresses. [`SpatialGrid`] buckets nodes into square cells of
//! side `range_m` so a range query only inspects the few cells overlapping
//! the query disk, and keeps per source the ids that query found
//! ([`SpatialGrid::near`]) so that the next query from that source
//! inspects no cell at all.
//!
//! # Determinism contract
//!
//! The index is a *candidate filter only*: it hands the caller ids in
//! ascending order, a superset of the nodes in range, and the caller
//! decides membership from each one's exact trajectory position at the
//! query instant. Query results — and therefore every event schedule, RNG
//! draw, and `RunReport` — are bit-identical to the brute-force scan. Unit
//! tests and the workspace proptests (`tests/grid_equivalence.rs`) enforce
//! this.
//!
//! # Mobility: a geometric fact is reused until drift could make it false
//!
//! No node outruns `v_max`, the largest [`Motion::speed_bound`] in the
//! world, so over a span `h` two nodes close on each other by at most
//! `2 · v_max · h`. The index fixes a **skin** — [`SKIN_PER_RANGE`] of the
//! radio range — and takes the span over which that closing distance is
//! one skin as its **horizon** ([`reuse_horizon`]):
//!
//! ```text
//! pair drift  ≤  2 · v_max · horizon  =  skin
//! ```
//!
//! Two facts are kept, each for one horizon:
//!
//! * a source's **neighbour list** — the ids within `range + skin` of it
//!   when the list was built (the Verlet list of molecular dynamics).
//!   Whoever is in range of the source before `built + horizon` is on it;
//! * a mover's **bucket**. One refresh pass per horizon re-buckets the
//!   movers; in between a bucket is stale by at most `v_max · horizon`,
//!   half a skin, and a list build widens its cell search by that much.
//!
//! When every node is fixed `v_max` is zero, the horizon never ends and no
//! bucket is touched again — and the channel keeps the exact links it
//! worked out from a list, powers included, the one more fact that zero
//! drift keeps true, so the index is asked once per source and keeps no list
//! but the last.

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

impl Default for IndexMode {
    fn default() -> Self {
        IndexMode::grid()
    }
}

/// The skin as a fraction of the radio range. Horizon and list length both
/// grow with it: at an eighth a list is (1 + 1/8)² ≈ 1.27 receiver sets long
/// and the paper's fastest scenario (8 m/s) rebuilds it every 0.59 s.
pub const SKIN_PER_RANGE: f64 = 1.0 / 8.0;

/// Legs are quantised to nanoseconds and positions to `f64`, so a node can
/// outrun its speed bound by nanometres: lists reach this much past the skin,
/// and a frame end trusts its drift bound only this far inside the range.
pub(crate) const ROUNDING_M: f64 = 1e-6;

/// How long a neighbour list or a bucket stays true when no node outruns
/// `v_max` m/s: the span over which two nodes close by one skin. Never ends
/// when nothing moves.
pub fn reuse_horizon(range_m: f64, v_max: f64) -> SimTime {
    if v_max > 0.0 {
        SimTime::from_secs_f64(range_m * SKIN_PER_RANGE / (2.0 * v_max))
    } else {
        SimTime::MAX
    }
}

/// The ids within `range + skin` of `src` at `built`, ascending.
struct NeighborList {
    src: usize,
    built: SimTime,
    ids: Vec<u16>,
}

/// A uniform grid over node positions. Cells are addressed by integer
/// coordinates (floor-divided meters), held in a map so the plane needs no
/// a-priori bounds — crafted test topologies place nodes anywhere.
pub struct SpatialGrid {
    range_m: f64,
    cell_m: f64,
    /// See [`reuse_horizon`]; set when the first query buckets everyone.
    horizon: SimTime,
    buckets: DetHashMap<(i32, i32), Vec<u16>>,
    /// Each node's current cell.
    cells: Vec<(i32, i32)>,
    /// Indices of nodes with a nonzero speed bound.
    movers: Vec<u16>,
    /// When the movers were last bucketed (`None` before the first query).
    refreshed: Option<SimTime>,
    /// One slot per source, filled by the first query from it — or, when
    /// every node is fixed, one slot for all: a list never expires there, so
    /// the caller keeps what it derives from one (`Channel::static_rx`) and
    /// asks once per source. Sized by the first query.
    lists: Vec<Option<NeighborList>>,
    stats: GridStats,
}

/// Cumulative index counters, exposed for the observability layer. Pure
/// observation: reading them never changes query results. Together they
/// count every position the index evaluates: `list_candidates`, one source
/// per query and per rebuild, and every mover per refresh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Refresh passes over the mover list.
    pub refreshes: u64,
    /// Mover re-bucket operations (cell actually changed).
    pub rebuckets: u64,
    /// Range queries answered ([`SpatialGrid::near`]).
    pub queries: u64,
    /// Neighbour lists built, the first one of each source included.
    pub list_rebuilds: u64,
    /// Ids checked against an exact position: the bucket candidates each
    /// rebuild sifted plus the listed ids each query handed out.
    pub list_candidates: u64,
}

impl SpatialGrid {
    /// An empty grid for radios of range `range_m`. It populates itself on
    /// the first [`SpatialGrid::near`].
    pub fn new(range_m: f64) -> SpatialGrid {
        SpatialGrid {
            range_m,
            cell_m: range_m.max(1.0),
            horizon: SimTime::MAX,
            buckets: DetHashMap::default(),
            cells: Vec::new(),
            movers: Vec::new(),
            refreshed: None,
            lists: Vec::new(),
            stats: GridStats::default(),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> GridStats {
        self.stats
    }

    #[inline]
    fn cell_of(&self, p: Pos) -> (i32, i32) {
        (
            (p.x / self.cell_m).floor() as i32,
            (p.y / self.cell_m).floor() as i32,
        )
    }

    /// Whether what was worked out at `since` may still be used at `t`.
    fn holds(&self, since: SimTime, t: SimTime) -> bool {
        t.checked_sub(since).is_some_and(|age| age <= self.horizon)
    }

    /// Every node that can be within radio range of `src` at `t`, `src`
    /// excluded, in ascending id order: the caller checks each against its
    /// exact position. Served from `src`'s neighbour list, which is rebuilt
    /// first if `t` lies outside its `[built, built + horizon]`.
    pub fn near(&mut self, src: usize, t: SimTime, motions: &mut [Motion]) -> &[u16] {
        if self.lists.is_empty() {
            self.refresh(t, motions);
        }
        // The source's own slot, or the one slot there is.
        let slot = src.min(self.lists.len() - 1);
        let fresh = matches!(&self.lists[slot],
            Some(list) if list.src == src && self.holds(list.built, t));
        if !fresh {
            self.rebuild(slot, src, t, motions);
        }
        let ids = &self.lists[slot].as_ref().expect("just built").ids;
        self.stats.queries += 1;
        self.stats.list_candidates += ids.len() as u64;
        ids
    }

    fn rebuild(&mut self, slot: usize, src: usize, t: SimTime, motions: &mut [Motion]) {
        self.refresh(t, motions);
        let skin = self.range_m * SKIN_PER_RANGE;
        let reach = self.range_m + skin + ROUNDING_M;
        let p = motions[src].position_at(t);
        let mut ids = self.lists[slot]
            .take()
            .map_or_else(Vec::new, |list| list.ids);
        ids.clear();
        // Buckets are stale by up to half a skin.
        self.candidates(p, reach + skin / 2.0, &mut ids);
        self.stats.list_rebuilds += 1;
        self.stats.list_candidates += ids.len() as u64;
        ids.retain(|&i| {
            i as usize != src && motions[i as usize].position_at(t).dist_sq(p) <= reach * reach
        });
        ids.sort_unstable();
        self.lists[slot] = Some(NeighborList { src, built: t, ids });
    }

    /// Bring the buckets up to date for a list build at `t`. The first call
    /// buckets every node, finds the movers and sizes the list table; later
    /// ones re-bucket the movers when the buckets are a horizon old.
    fn refresh(&mut self, t: SimTime, motions: &mut [Motion]) {
        let Some(refreshed) = self.refreshed else {
            self.cells.reserve(motions.len());
            let mut v_max = 0.0f64;
            for (i, m) in motions.iter_mut().enumerate() {
                let cell = self.cell_of(m.position_at(t));
                self.buckets.entry(cell).or_default().push(i as u16);
                self.cells.push(cell);
                let sb = m.speed_bound();
                if sb > 0.0 {
                    self.movers.push(i as u16);
                    v_max = v_max.max(sb);
                }
            }
            self.horizon = reuse_horizon(self.range_m, v_max);
            self.refreshed = Some(t);
            let slots = if v_max > 0.0 { motions.len() } else { 1 };
            self.lists.resize_with(slots, || None);
            return;
        };
        if self.movers.is_empty() || self.holds(refreshed, t) {
            return;
        }
        self.stats.refreshes += 1;
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
            self.stats.rebuckets += 1;
        }
        self.refreshed = Some(t);
    }

    /// Append to `out` every node bucketed in a cell that the square of
    /// half-side `reach` around `p` overlaps, in no particular order.
    fn candidates(&self, p: Pos, reach: f64, out: &mut Vec<u16>) {
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
        self.refreshed.is_some() && self.movers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmac_mobility::{Bounds, MobilityKind};
    use rmac_sim::SimRng;

    const RANGE: f64 = 75.0;

    fn brute(motions: &mut [Motion], src: usize, t: SimTime) -> Vec<u16> {
        let p = motions[src].position_at(t);
        (0..motions.len())
            .filter(|&i| i != src && motions[i].position_at(t).dist_sq(p) <= RANGE * RANGE)
            .map(|i| i as u16)
            .collect()
    }

    /// What a caller makes of [`SpatialGrid::near`]: the exact check, and
    /// nothing else — the ids must already be in order.
    fn in_range(
        grid: &mut SpatialGrid,
        motions: &mut [Motion],
        src: usize,
        t: SimTime,
    ) -> Vec<u16> {
        let p = motions[src].position_at(t);
        let near = grid.near(src, t, motions).to_vec();
        near.into_iter()
            .filter(|&i| motions[i as usize].position_at(t).dist_sq(p) <= RANGE * RANGE)
            .collect()
    }

    fn waypoint_nodes(n: usize) -> Vec<Motion> {
        (0..n)
            .map(|i| {
                Motion::new(
                    Pos::new((i % 10) as f64 * 50.0, (i / 10) as f64 * 50.0),
                    MobilityKind::paper_speed2(),
                    Bounds::PAPER,
                    SimRng::new(100 + i as u64),
                )
            })
            .collect()
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
        let mut grid = SpatialGrid::new(RANGE);
        for round in 0..2u64 {
            let t = SimTime::from_secs(round * 1000);
            for i in (0..200).step_by(7) {
                let got = in_range(&mut grid, &mut motions, i, t);
                assert_eq!(got, brute(&mut motions, i, t), "query around node {i}");
            }
        }
        assert!(grid.all_fixed());
        assert_eq!(grid.horizon, SimTime::MAX);
        // Nothing moves: no bucket is revisited, and one slot serves every
        // source (a caller keeps what it derives from a list that cannot
        // expire, so only a repeated query is served without a rebuild).
        in_range(&mut grid, &mut motions, 196, SimTime::from_secs(2000));
        let stats = grid.stats();
        assert_eq!(
            (stats.queries, stats.list_rebuilds, stats.refreshes),
            (59, 58, 0)
        );
        assert_eq!(grid.lists.len(), 1);
    }

    #[test]
    fn moving_nodes_stay_covered_between_rebuilds() {
        // Waypoint nodes queried over a minute of simulated time, a few
        // hundred times per horizon: a list must cover the true in-range set
        // at every instant it is served, its last included.
        let mut motions = waypoint_nodes(60);
        let mut grid = SpatialGrid::new(RANGE);
        let mut t = SimTime::ZERO;
        for step in 0..20_000u64 {
            // Uneven stride, so queries land all over each list's life.
            t += SimTime::from_micros(2_000 + step % 1_700);
            let src = (step % 7) as usize * 8;
            let got = in_range(&mut grid, &mut motions, src, t);
            assert_eq!(got, brute(&mut motions, src, t), "step {step}");
        }
        assert!(!grid.all_fixed());
        assert_eq!(grid.horizon, reuse_horizon(RANGE, 8.0));
        let stats = grid.stats();
        let horizons = t.nanos() / grid.horizon.nanos() + 1;
        assert!(stats.refreshes <= horizons, "{stats:?}");
        assert!(stats.list_rebuilds <= 7 * horizons, "{stats:?}");
        assert!(stats.list_rebuilds >= horizons, "{stats:?}");
    }

    #[test]
    fn a_query_outside_a_lists_life_rebuilds_it() {
        let mut motions = waypoint_nodes(30);
        let mut grid = SpatialGrid::new(RANGE);
        let h = reuse_horizon(RANGE, 8.0);
        let t0 = SimTime::from_secs(3);
        grid.near(4, t0, &mut motions);
        grid.near(4, t0 + h, &mut motions);
        assert_eq!(
            grid.stats().list_rebuilds,
            1,
            "the horizon's last instant is inside"
        );
        grid.near(4, t0 + h + SimTime::NANO, &mut motions);
        assert_eq!(grid.stats().list_rebuilds, 2);
        // `near` is public and takes any time: one before the list was built
        // is not served from it either.
        grid.near(4, t0 + h, &mut motions);
        assert_eq!(grid.stats().list_rebuilds, 3);
    }

    #[test]
    fn negative_coordinates_are_bucketed() {
        let mut motions = vec![
            Motion::stationary(Pos::new(-10.0, -10.0)),
            Motion::stationary(Pos::new(-80.0, -10.0)),
            Motion::stationary(Pos::new(200.0, 200.0)),
        ];
        let mut grid = SpatialGrid::new(RANGE);
        assert_eq!(in_range(&mut grid, &mut motions, 0, SimTime::ZERO), vec![1]);
        assert_eq!(in_range(&mut grid, &mut motions, 1, SimTime::ZERO), vec![0]);
    }
}
