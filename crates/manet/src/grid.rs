//! A uniform spatial grid over the simulation [`Field`] used to answer
//! "which nodes can possibly hear this transmission?" without scanning all
//! `n` nodes.
//!
//! The grid buckets node positions into square cells whose edge is half
//! the **maximum radio range** (the distance at which a frame sent at the
//! default/maximum power fades to the receiver sensitivity; see
//! `GRID_CELL_DIVISOR` in [`crate::sim`]). A delivery query for a
//! transmission at power `tx_dbm` then only visits the cells overlapping
//! a disc of radius `range(tx_dbm)` around the sender — a block about
//! five cells across, minus the corner cells the disc misses — instead
//! of the whole field. Shadowed scenarios query a larger disc (the
//! bounded-tail decode range, see [`crate::radio::SHADOW_TAIL_SIGMAS`])
//! spanning more cells, but still a constant-area neighbourhood.
//!
//! # The slot store
//!
//! [`SpatialGrid`] keeps every node's [`PackedSegment`] record in one
//! array sorted by cell in row-major order, with `n_cells + 1` start
//! offsets. The cells of a query disc that share a row are adjacent in
//! that order, so each row of the disc is one contiguous slot range
//! ([`CellGeometry::for_each_row_in_disc`]) and the delivery filter
//! streams records instead of gathering them ([`crate::sweep`]).
//!
//! # Two maintenance disciplines
//!
//! The grid supports both of the simulator's delivery paths (see
//! [`crate::sim::DeliveryMode`]):
//!
//! 1. **Horizon rebuild** (the historical scheme): [`rebuild`](SpatialGrid::rebuild)
//!    re-sorts all `n` nodes on a coarse time horizon, and queries add a
//!    *staleness margin* `v_max · (t_query − t_build)` to the radius
//!    because node positions drift between rebuilds. O(n) per horizon
//!    lapse regardless of how little anything moved.
//! 2. **Incremental** (event-driven): [`update_node`](SpatialGrid::update_node)
//!    moves one node between cells by a swap chain across the cells
//!    between its old and new index — O(|Δcell|), at most a row's worth
//!    of steps for a move to a neighbouring cell — and
//!    [`set_segment`](SpatialGrid::set_segment) overwrites its record in
//!    place. The simulator drives moves from per-node *cell-crossing
//!    events*: a node at distance `d` from its cell boundary moving at
//!    speed `s` cannot change cell before `d / s`, so a refresh scheduled
//!    then keeps every cell exact (up to a tiny Zeno floor, compensated
//!    in the query radius) at a total cost proportional to the number of
//!    actual cell crossings — O(active set), not O(n · horizons).
//!
//! Both disciplines are *conservative pre-filters*: candidates still
//! undergo the precise received-power test, so extra candidates cost a
//! little time but can never change the outcome, and the query radius is
//! inflated by a small epsilon so floating-point rounding at the range
//! boundary cannot exclude a node the exact test would accept. This is
//! what makes all delivery paths bit-identical (asserted by
//! `tests/determinism.rs` and the property suite).

use crate::geometry::{Field, Vec2};
use crate::mobility::{KinematicSegment, SegmentKind};
use crate::snapshot::{KinematicSnapshot, PackedSegment};

/// The uniform cell decomposition of a [`Field`]: edge length plus the
/// column/row counts it induces. Shared by the node-position
/// [`SpatialGrid`] and the spatialised in-flight-frame window
/// ([`crate::events::SpatialActiveWindow`]), which bucket different things
/// (nodes vs transmissions) over the same kind of geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellGeometry {
    /// Cell edge length (m).
    cell: f64,
    /// Number of cell columns.
    cols: usize,
    /// Number of cell rows.
    rows: usize,
}

impl CellGeometry {
    /// Decomposes `field` into square cells of the given edge (m).
    pub fn new(field: Field, cell: f64) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell edge must be positive");
        Self {
            cell,
            cols: (field.width / cell).ceil().max(1.0) as usize,
            rows: (field.height / cell).ceil().max(1.0) as usize,
        }
    }

    /// Cell edge length (m).
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Total number of cells.
    pub fn n_cells(&self) -> usize {
        self.cols * self.rows
    }

    /// Index of the cell containing `p`. Positions are expected inside the
    /// field; boundary values (x == width) clamp to the last column/row.
    pub fn cell_of(&self, p: Vec2) -> usize {
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1);
        let cy = ((p.y / self.cell) as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    /// Number of cell columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Which of `shards` contiguous column stripes owns the cell column
    /// containing `p`.
    ///
    /// Stripes partition the columns `0..cols` into `shards` contiguous,
    /// monotone ranges (`col * shards / cols`, clamped), so every position
    /// has exactly one owner and neighbouring columns land in the same or
    /// adjacent stripes. The sharded delivery path
    /// ([`crate::sim::Simulator::set_delivery_shards`]) assigns each queued
    /// transmission to the stripe of its *sender*; the query itself reads
    /// whatever cells its disc overlaps (the stripe's halo), so stripe
    /// boundaries never constrain which receivers a query can reach.
    pub fn stripe_of(&self, p: Vec2, shards: usize) -> usize {
        debug_assert!(shards >= 1, "stripe_of requires at least one shard");
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1);
        (cx * shards / self.cols).min(shards - 1)
    }

    /// Distance (m) from `p` to the nearest boundary of the cell that
    /// contains it — the incremental refresh scheduler divides this by the
    /// node's speed bound to find the earliest possible cell crossing.
    pub fn boundary_distance(&self, p: Vec2) -> f64 {
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1) as f64;
        let cy = ((p.y / self.cell) as usize).min(self.rows - 1) as f64;
        let dx = (p.x - cx * self.cell).min((cx + 1.0) * self.cell - p.x);
        let dy = (p.y - cy * self.cell).min((cy + 1.0) * self.cell - p.y);
        dx.min(dy).max(0.0)
    }

    /// The column and row spans `(cx0, cx1, cy0, cy1)` (inclusive) of the
    /// disc's bounding box, clamped to the grid.
    #[inline]
    fn disc_box(&self, center: Vec2, radius: f64) -> (usize, usize, usize, usize) {
        let inv = 1.0 / self.cell;
        let cx0 = (((center.x - radius) * inv).floor().max(0.0)) as usize;
        let cy0 = (((center.y - radius) * inv).floor().max(0.0)) as usize;
        let cx1 = (((center.x + radius) * inv).floor())
            .min(self.cols as f64 - 1.0)
            .max(0.0) as usize;
        let cy1 = (((center.y + radius) * inv).floor())
            .min(self.rows as f64 - 1.0)
            .max(0.0) as usize;
        (cx0, cx1, cy0, cy1)
    }

    /// Closest approach (m) of cell row `cy` to `center`, along y.
    #[inline]
    fn row_gap(&self, center: Vec2, cy: usize) -> f64 {
        let row_lo = cy as f64 * self.cell;
        (center.y - (center.y.clamp(row_lo, row_lo + self.cell))).abs()
    }

    /// Whether cell column `cx` of a row `dy` away from `center` lies
    /// entirely outside the disc of squared radius `r2`.
    #[inline]
    fn outside(&self, center: Vec2, cx: usize, dy: f64, r2: f64) -> bool {
        let col_lo = cx as f64 * self.cell;
        let dx = (center.x - (center.x.clamp(col_lo, col_lo + self.cell))).abs();
        dx * dx + dy * dy > r2
    }

    /// Calls `visit(cell_index)` for every cell overlapping the disc of
    /// `radius` around `center` (cells whose closest point to `center`
    /// exceeds the radius are skipped), row by row in ascending index.
    #[inline]
    pub fn for_each_cell_in_disc<F: FnMut(usize)>(&self, center: Vec2, radius: f64, mut visit: F) {
        let r2 = radius * radius;
        let (cx0, cx1, cy0, cy1) = self.disc_box(center, radius);
        for cy in cy0..=cy1 {
            let dy = self.row_gap(center, cy);
            for cx in cx0..=cx1 {
                if !self.outside(center, cx, dy, r2) {
                    visit(cy * self.cols + cx);
                }
            }
        }
    }

    /// Calls `visit(first, last)` once per cell row the disc of `radius`
    /// around `center` overlaps, with the first and last cell index of
    /// that row that [`for_each_cell_in_disc`](Self::for_each_cell_in_disc)
    /// visits — and it visits every cell between them too.
    ///
    /// Why the row's cells are contiguous: with `lo = cx · cell` and
    /// `hi = lo + cell`, a cell's x gap is `max(0, x − hi, lo − x)`. The
    /// rounded `lo` and `hi` are both monotone in `cx`, so `x − hi` never
    /// grows and `lo − x` never shrinks as `cx` rises: the gap falls, then
    /// rises. Squaring a non-negative gap and adding the row's fixed `dy²`
    /// keep that shape, so the cells passing `dx² + dy² ≤ r²` form one
    /// interval, found by trimming failing cells off both ends of the
    /// bounding box.
    #[inline]
    pub fn for_each_row_in_disc<F: FnMut(usize, usize)>(
        &self,
        center: Vec2,
        radius: f64,
        mut visit: F,
    ) {
        let r2 = radius * radius;
        let (cx0, cx1, cy0, cy1) = self.disc_box(center, radius);
        for cy in cy0..=cy1 {
            let dy = self.row_gap(center, cy);
            let mut first = cx0;
            while first <= cx1 && self.outside(center, first, dy, r2) {
                first += 1;
            }
            if first > cx1 {
                continue;
            }
            let mut last = cx1;
            while self.outside(center, last, dy, r2) {
                last -= 1;
            }
            visit(cy * self.cols + first, cy * self.cols + last);
        }
    }
}

/// Maintenance-cost counters of a [`SpatialGrid`] — the measurable half of
/// the "incremental beats horizon-rebuild" claim. A bucket *op* is one
/// cell-membership change: a node entering or leaving a cell. A rebuild
/// costs `n` ops (every node enters a cell); an incremental node move
/// costs 2 (it leaves one cell and enters another). The swap chain that
/// carries a move across the intermediate cells' slot ranges shifts
/// those ranges without changing their members, so it adds no ops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Cell-membership changes performed so far.
    pub bucket_ops: u64,
    /// Full [`SpatialGrid::rebuild`] passes performed so far.
    pub rebuilds: u64,
    /// Incremental cell transitions applied by [`SpatialGrid::update_node`].
    pub node_moves: u64,
}

/// Node records stored in **cell order**: one slot array holding every
/// node's [`PackedSegment`] (which carries the node id), sorted row-major
/// by cell, plus `n_cells + 1` start offsets and each node's slot.
///
/// Cell `c` owns the slots `start[c]..start[c + 1]`. Because cells are
/// numbered row-major, a run of adjacent cells in one row owns one
/// contiguous slot range, so the delivery query reads each row of its
/// decode disc as a single run of records ([`crate::sweep`]) — the
/// particle-sorting layout of molecular-dynamics cell lists. Neither
/// queries nor updates allocate; rebuilds reuse every buffer.
///
/// Within-cell slot order is **unspecified** (moves perturb it): every
/// consumer either sorts the gathered candidates or — like the delivery
/// filter — produces output whose order is independent of visit order, so
/// this is not observable in any delivery outcome.
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    /// Cell decomposition of the field.
    geom: CellGeometry,
    /// Every node's record, grouped by cell in row-major cell order.
    recs: Vec<PackedSegment>,
    /// Slot range of each cell: `start[c]..start[c + 1]` (`n_cells + 1`
    /// entries, the last equal to the node count).
    start: Vec<u32>,
    /// Slot of each node: `recs[slot[i]].id == i`.
    slot: Vec<u32>,
    /// Cell each node is currently bucketed in.
    cell_idx: Vec<u32>,
    /// Node positions captured at the last rebuild/update.
    pos: Vec<Vec2>,
    /// Simulation time of the last rebuild.
    built_at: f64,
    /// Maintenance counters.
    stats: GridStats,
}

impl SpatialGrid {
    /// Creates a grid for `field` with the given cell edge (m). Buffers
    /// start empty; call [`rebuild`](Self::rebuild) before querying.
    pub fn new(field: Field, cell: f64) -> Self {
        let geom = CellGeometry::new(field, cell);
        Self {
            geom,
            recs: Vec::new(),
            start: vec![0; geom.n_cells() + 1],
            slot: Vec::new(),
            cell_idx: Vec::new(),
            pos: Vec::new(),
            built_at: f64::NEG_INFINITY,
            stats: GridStats::default(),
        }
    }

    /// Cell edge length (m).
    pub fn cell_size(&self) -> f64 {
        self.geom.cell_size()
    }

    /// The grid's cell decomposition of the field.
    pub fn geometry(&self) -> CellGeometry {
        self.geom
    }

    /// Simulation time of the last rebuild (`-inf` before the first).
    pub fn built_at(&self) -> f64 {
        self.built_at
    }

    /// Maintenance counters accumulated since the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> GridStats {
        self.stats
    }

    /// Zeroes the maintenance counters.
    pub fn reset_stats(&mut self) {
        self.stats = GridStats::default();
    }

    /// Distance (m) from `p` to the nearest boundary of the cell that
    /// contains it (see [`CellGeometry::boundary_distance`]).
    pub fn boundary_distance(&self, p: Vec2) -> f64 {
        self.geom.boundary_distance(p)
    }

    /// Re-buckets every node of `snap` at its exact position at time `t`
    /// and copies its record: a counting sort by cell. Reuses every
    /// internal buffer; O(cells + n).
    pub fn rebuild(&mut self, snap: &KinematicSnapshot, t: f64) {
        let n = snap.len();
        assert!(n < u32::MAX as usize, "node ids must fit a u32 slot");
        self.start.clear();
        self.start.resize(self.geom.n_cells() + 1, 0);
        self.cell_idx.clear();
        self.pos.clear();
        for i in 0..n {
            let p = snap.position(i, t);
            let c = self.geom.cell_of(p);
            self.pos.push(p);
            self.cell_idx.push(c as u32);
            self.start[c] += 1;
        }
        // Inclusive prefix sums turn the counts into cell *ends*; placing
        // the nodes in reverse then decrements each cell's entry down to
        // its start (and leaves every cell's members in ascending id
        // order).
        let mut end = 0;
        for s in &mut self.start {
            end += *s;
            *s = end;
        }
        self.slot.clear();
        self.slot.resize(n, 0);
        self.recs.clear();
        self.recs.resize(n, VACANT);
        for i in (0..n).rev() {
            let c = self.cell_idx[i] as usize;
            self.start[c] -= 1;
            let s = self.start[c];
            self.slot[i] = s;
            self.recs[s as usize] = PackedSegment::new(i as u32, &snap.segment(i));
        }
        self.built_at = t;
        self.stats.bucket_ops += n as u64;
        self.stats.rebuilds += 1;
    }

    /// Overwrites node `i`'s record after its mobility segment changed;
    /// the node keeps its slot (a cell change is
    /// [`update_node`](Self::update_node)'s job).
    pub fn set_segment(&mut self, i: usize, s: &KinematicSegment) {
        self.recs[self.slot[i] as usize] = PackedSegment::new(i as u32, s);
    }

    /// Moves node `i` (already placed by a previous
    /// [`rebuild`](Self::rebuild)) to the cell containing `p` and records
    /// `p` as its latest known position. Returns whether the node changed
    /// cell.
    ///
    /// A move from cell `a` to cell `b` is a swap chain across the cells
    /// between them: at each step the hole left by the node swaps with
    /// the edge slot of the current cell, and that edge slot passes to
    /// the next cell by shifting one start offset. O(|b − a|) ≤ `cols`
    /// steps for a move to a neighbouring cell; an empty intermediate
    /// cell costs only its offset shift.
    pub fn update_node(&mut self, i: usize, p: Vec2) -> bool {
        self.pos[i] = p;
        let to = self.geom.cell_of(p);
        let from = self.cell_idx[i] as usize;
        if to == from {
            return false;
        }
        let rec = self.recs[self.slot[i] as usize];
        let mut hole = self.slot[i] as usize;
        if to > from {
            // The hole sits in cell `c`: fill it with `c`'s last record
            // and hand the freed last slot to cell `c + 1` as its first.
            for c in from..to {
                let edge = self.start[c + 1] as usize - 1;
                self.fill(hole, edge);
                hole = edge;
                self.start[c + 1] -= 1;
            }
        } else {
            // Mirror image: fill the hole with `c`'s first record and
            // hand the freed first slot to cell `c - 1` as its last.
            for c in (to + 1..=from).rev() {
                let edge = self.start[c] as usize;
                self.fill(hole, edge);
                hole = edge;
                self.start[c] += 1;
            }
        }
        self.recs[hole] = rec;
        self.slot[i] = hole as u32;
        self.cell_idx[i] = to as u32;
        self.stats.bucket_ops += 2;
        self.stats.node_moves += 1;
        true
    }

    /// Moves the record in slot `from` into slot `hole` (a no-op when
    /// they coincide, i.e. the current cell holds no other node).
    #[inline]
    fn fill(&mut self, hole: usize, from: usize) {
        if from != hole {
            let r = self.recs[from];
            self.recs[hole] = r;
            self.slot[r.id as usize] = hole as u32;
        }
    }

    /// Pushes into `out` every node whose **bucketed** position lies within
    /// `radius` of `center` (conservative: callers must re-check candidates
    /// against exact, current positions). `out` is appended to, unsorted.
    pub fn candidates_within(&self, center: Vec2, radius: f64, out: &mut Vec<usize>) {
        let r2 = radius * radius;
        self.for_each_in_cells(center, radius, |i| {
            if self.pos[i].distance_sq(center) <= r2 {
                out.push(i);
            }
        });
    }

    /// Calls `f(node)` for every node bucketed in a cell overlapping the
    /// disc of `radius` around `center`, with **no** per-node distance
    /// filter, cell by cell — the scalar reference the streaming delivery
    /// filter ([`crate::sweep`]) is pinned against.
    #[inline]
    pub fn for_each_in_cells<F: FnMut(usize)>(&self, center: Vec2, radius: f64, mut f: F) {
        self.geom.for_each_cell_in_disc(center, radius, |cell| {
            for r in self.cell_records(cell, cell) {
                f(r.id as usize);
            }
        });
    }

    /// The records of cells `first..=last` — one contiguous slot range,
    /// since cells are stored in index order.
    #[inline]
    pub(crate) fn cell_records(&self, first: usize, last: usize) -> &[PackedSegment] {
        &self.recs[self.start[first] as usize..self.start[last + 1] as usize]
    }

    /// Node `i`'s record.
    #[inline]
    pub(crate) fn record(&self, i: usize) -> &PackedSegment {
        &self.recs[self.slot[i] as usize]
    }

    /// Number of nodes placed by the last [`rebuild`](Self::rebuild) —
    /// every record's id is below this.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.recs.len()
    }
}

/// Filler for freshly sized slots; [`SpatialGrid::rebuild`] overwrites
/// every one before returning.
const VACANT: PackedSegment = PackedSegment {
    origin: Vec2::ZERO,
    velocity: Vec2::ZERO,
    t0: 0.0,
    arrival: f64::INFINITY,
    id: u32::MAX,
    kind: SegmentKind::Still,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_partition_columns_contiguously() {
        let geom = CellGeometry::new(Field::new(2300.0, 900.0), 100.0);
        for shards in [1usize, 2, 3, 7, 23, 64] {
            let mut last = 0usize;
            let mut seen_cols = 0usize;
            for cx in 0..geom.cols() {
                let p = Vec2::new((cx as f64 + 0.5) * geom.cell_size(), 10.0);
                let s = geom.stripe_of(p, shards);
                assert!(s < shards, "stripe index within range");
                assert!(s >= last, "stripes are monotone in the column index");
                if shards <= geom.cols() {
                    // With at most one shard per column, owned stripes
                    // are contiguous; more shards than columns leaves
                    // some shards column-less (indices may skip).
                    assert!(s - last <= 1, "stripes are contiguous (no gaps)");
                }
                last = s;
                seen_cols += 1;
            }
            assert_eq!(seen_cols, geom.cols());
            // More shards than columns still covers every column with a
            // single unambiguous owner.
            if shards <= geom.cols() {
                assert_eq!(last, shards - 1, "every stripe owns at least a column");
            }
        }
        // Boundary clamp: x == width lands in the last column's stripe.
        let p = Vec2::new(2300.0, 0.0);
        assert_eq!(geom.stripe_of(p, 4), 3);
    }

    fn brute_force(pts: &[Vec2], center: Vec2, radius: f64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..pts.len())
            .filter(|&i| pts[i].distance_sq(center) <= radius * radius)
            .collect();
        v.sort_unstable();
        v
    }

    fn pseudo_points(n: usize, side: f64) -> Vec<Vec2> {
        let mut x: u64 = 0x1234_5678_9ABC_DEF0;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Vec2::new(step() * side, step() * side))
            .collect()
    }

    fn still(p: Vec2) -> KinematicSegment {
        KinematicSegment {
            kind: SegmentKind::Still,
            origin: p,
            velocity: Vec2::ZERO,
            t0: 0.0,
            arrival: f64::INFINITY,
            dest: p,
        }
    }

    /// A snapshot of stationary nodes at `pts`.
    fn still_snapshot(field: Field, pts: &[Vec2]) -> KinematicSnapshot {
        let mut snap = KinematicSnapshot::new(field);
        snap.rebuild(field, pts.iter().map(|&p| still(p)));
        snap
    }

    /// A grid over `field` holding stationary nodes at `pts`.
    fn grid_of(field: Field, cell: f64, pts: &[Vec2]) -> SpatialGrid {
        let mut grid = SpatialGrid::new(field, cell);
        grid.rebuild(&still_snapshot(field, pts), 0.0);
        grid
    }

    #[test]
    fn matches_brute_force_scan() {
        let field = Field::new(500.0, 500.0);
        let pts = pseudo_points(200, 500.0);
        let grid = grid_of(field, 140.0, &pts);
        for &(cx, cy, r) in &[
            (250.0, 250.0, 139.0),
            (0.0, 0.0, 100.0),
            (499.0, 10.0, 139.9),
            (250.0, 0.0, 50.0),
        ] {
            let center = Vec2::new(cx, cy);
            let mut got = Vec::new();
            grid.candidates_within(center, r, &mut got);
            got.sort_unstable();
            assert_eq!(got, brute_force(&pts, center, r), "query ({cx},{cy}) r={r}");
            // the unfiltered cell walk must be a superset
            let mut cells = Vec::new();
            grid.for_each_in_cells(center, r, |i| cells.push(i));
            for hit in brute_force(&pts, center, r) {
                assert!(cells.contains(&hit), "for_each_in_cells missed {hit}");
            }
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_updates_positions() {
        let field = Field::new(100.0, 100.0);
        let mut grid = grid_of(field, 50.0, &[Vec2::new(10.0, 10.0), Vec2::new(11.0, 10.0)]);
        let mut out = Vec::new();
        grid.candidates_within(Vec2::new(10.0, 10.0), 5.0, &mut out);
        assert_eq!(out.len(), 2);
        // Move both nodes far away; the grid must reflect the new state.
        let far = [Vec2::new(90.0, 90.0); 2];
        grid.rebuild(&still_snapshot(field, &far), 1.0);
        out.clear();
        grid.candidates_within(Vec2::new(10.0, 10.0), 5.0, &mut out);
        assert!(out.is_empty());
        assert_eq!(grid.built_at(), 1.0);
        out.clear();
        grid.candidates_within(Vec2::new(90.0, 90.0), 5.0, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn incremental_updates_match_rebuild() {
        // Random walks applied via update_node must leave the grid in the
        // same queryable state as a from-scratch rebuild at every step.
        let field = Field::new(300.0, 300.0);
        let mut pts = pseudo_points(120, 300.0);
        let mut inc = grid_of(field, 70.0, &pts);
        let mut x: u64 = 0xDEAD_BEEF_1234_5678;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for round in 0..20 {
            for (i, p) in pts.iter_mut().enumerate() {
                p.x = (p.x + step() * 120.0).clamp(0.0, 300.0);
                p.y = (p.y + step() * 120.0).clamp(0.0, 300.0);
                inc.update_node(i, *p);
            }
            let reference = grid_of(field, 70.0, &pts);
            for &(cx, cy, r) in &[(150.0, 150.0, 69.0), (10.0, 290.0, 50.0)] {
                let center = Vec2::new(cx, cy);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                inc.candidates_within(center, r, &mut a);
                reference.candidates_within(center, r, &mut b);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "round {round} query ({cx},{cy})");
            }
        }
        let stats = inc.stats();
        assert!(stats.node_moves > 0, "walks this large must cross cells");
        assert_eq!(stats.rebuilds, 1, "only the initial placement rebuilds");
    }

    #[test]
    fn update_node_within_cell_is_free() {
        let field = Field::new(100.0, 100.0);
        let mut grid = grid_of(field, 50.0, &[Vec2::new(10.0, 10.0)]);
        let ops0 = grid.stats().bucket_ops;
        assert!(!grid.update_node(0, Vec2::new(12.0, 11.0)));
        assert_eq!(grid.stats().bucket_ops, ops0, "same-cell move costs 0 ops");
        assert!(grid.update_node(0, Vec2::new(80.0, 10.0)));
        assert_eq!(grid.stats().bucket_ops, ops0 + 2, "move = leave + enter");
        assert_eq!(grid.stats().node_moves, 1);
    }

    /// Checks the slot store's invariants, then compares every cell's
    /// membership (as a set) and every record against a fresh
    /// counting-sort rebuild of the same positions and segments.
    fn assert_store_matches_rebuild(
        grid: &SpatialGrid,
        field: Field,
        pts: &[Vec2],
        segs: &[KinematicSegment],
        ctx: &str,
    ) {
        let n = pts.len();
        let nc = grid.geom.n_cells();
        assert_eq!(grid.start.len(), nc + 1, "{ctx}");
        assert_eq!(grid.start[0], 0, "{ctx}");
        assert_eq!(grid.start[nc] as usize, n, "{ctx}");
        assert!(
            grid.start.windows(2).all(|w| w[0] <= w[1]),
            "{ctx}: offsets"
        );
        for (i, seg) in segs.iter().enumerate() {
            let s = grid.slot[i] as usize;
            assert_eq!(grid.recs[s].id as usize, i, "{ctx}: ids[slot[{i}]]");
            let c = grid.cell_idx[i] as usize;
            assert!(
                (grid.start[c] as usize..grid.start[c + 1] as usize).contains(&s),
                "{ctx}: node {i} outside its cell's range"
            );
            let (r, want) = (grid.record(i), PackedSegment::new(i as u32, seg));
            assert!(
                r.origin == want.origin
                    && r.velocity == want.velocity
                    && r.t0.to_bits() == want.t0.to_bits()
                    && r.arrival.to_bits() == want.arrival.to_bits()
                    && r.kind == want.kind,
                "{ctx}: node {i} record {r:?} != {want:?}"
            );
        }
        let reference = grid_of(field, grid.cell_size(), pts);
        for c in 0..nc {
            let members = |g: &SpatialGrid| {
                let mut v: Vec<u32> = g.cell_records(c, c).iter().map(|r| r.id).collect();
                v.sort_unstable();
                v
            };
            assert_eq!(members(grid), members(&reference), "{ctx}: cell {c}");
        }
    }

    #[test]
    fn slot_store_moves_match_a_fresh_rebuild() {
        // Random move sequences: single steps in all four directions,
        // jumps across many cells both ways (through empty cells in the
        // sparse worlds), moves into and out of the first and last cells,
        // same-cell moves, and record overwrites — after every operation
        // the store must equal a counting-sort rebuild of the same state.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rnd = move |k: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % k as u64) as usize
        };
        for (case, (w, h, cell, n)) in [
            (400.0, 300.0, 50.0, 40usize), // 8 × 6 cells, about one node a cell
            (400.0, 300.0, 50.0, 3),       // sparse: chains cross empty cells
            (1000.0, 50.0, 50.0, 12),      // single row
            (50.0, 500.0, 60.0, 9),        // single column
            (330.0, 330.0, 100.0, 25),     // ragged last row/column
        ]
        .into_iter()
        .enumerate()
        {
            let field = Field::new(w, h);
            let geom = CellGeometry::new(field, cell);
            let (cols, nc) = (geom.cols(), geom.n_cells());
            // A point inside cell `c`, away from its edges.
            let in_cell = |c: usize, a: usize, b: usize| {
                let (cx, cy) = ((c % cols) as f64, (c / cols) as f64);
                let fx = 0.1 + 0.8 * a as f64 / 97.0;
                let fy = 0.1 + 0.8 * b as f64 / 97.0;
                Vec2::new(
                    ((cx + fx) * cell).min(w - 1e-3),
                    ((cy + fy) * cell).min(h - 1e-3),
                )
            };
            let mut pts: Vec<Vec2> = (0..n).map(|_| in_cell(rnd(nc), rnd(97), rnd(97))).collect();
            let mut segs: Vec<KinematicSegment> = pts.iter().map(|&p| still(p)).collect();
            let mut grid = grid_of(field, cell, &pts);
            for step in 0..400 {
                let i = rnd(n);
                let from = geom.cell_of(pts[i]);
                let to = match rnd(8) {
                    0 => (from + 1).min(nc - 1),
                    1 => from.saturating_sub(1),
                    2 => (from + cols).min(nc - 1),
                    3 => from.saturating_sub(cols),
                    4 => 0,
                    5 => nc - 1,
                    6 => from,
                    _ => rnd(nc),
                };
                if rnd(4) == 0 {
                    // a re-anchor: overwrite the record, then move
                    segs[i] = KinematicSegment {
                        kind: SegmentKind::Walk,
                        origin: pts[i],
                        velocity: Vec2::new(rnd(5) as f64 - 2.0, 1.5),
                        t0: step as f64,
                        arrival: f64::INFINITY,
                        dest: pts[i],
                    };
                    grid.set_segment(i, &segs[i]);
                }
                pts[i] = in_cell(to, rnd(97), rnd(97));
                assert_eq!(grid.update_node(i, pts[i]), to != from);
                let ctx = format!("case {case} step {step}: node {i} {from} -> {to}");
                assert_store_matches_rebuild(&grid, field, &pts, &segs, &ctx);
            }
        }
    }

    #[test]
    fn row_ranges_cover_exactly_the_disc_cells() {
        // Every row span of for_each_row_in_disc must hold exactly the
        // cells the per-cell walk visits in that row — edge-clipped discs,
        // discs larger than the field, single-row and single-column
        // fields, and centres exactly on cell boundaries.
        for (w, h, cell) in [
            (600.0, 400.0, 70.0),
            (1000.0, 50.0, 60.0),
            (50.0, 1000.0, 60.0),
            (300.0, 300.0, 100.0),
        ] {
            let geom = CellGeometry::new(Field::new(w, h), cell);
            let mut k = 0u32;
            for cx in [0.0, cell, 2.0 * cell, 0.37 * w, 0.5 * w, w] {
                for cy in [0.0, cell, 0.61 * h, h] {
                    for r in [1.0, cell, 1.5 * cell, 3.7 * cell, 10.0 * w.max(h)] {
                        k += 1;
                        let center = Vec2::new(cx, cy);
                        let mut want = Vec::new();
                        geom.for_each_cell_in_disc(center, r, |c| want.push(c));
                        let mut got = Vec::new();
                        geom.for_each_row_in_disc(center, r, |first, last| {
                            assert_eq!(first / geom.cols(), last / geom.cols(), "one row");
                            got.extend(first..=last);
                        });
                        assert_eq!(got, want, "disc {k}: ({cx},{cy}) r {r} on {w}×{h}");
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_distance_is_a_crossing_lower_bound() {
        let field = Field::new(100.0, 100.0);
        let grid = SpatialGrid::new(field, 30.0);
        // interior of cell (1,1): 15 m from the nearest edge at (45,45)
        assert!((grid.boundary_distance(Vec2::new(45.0, 45.0)) - 15.0).abs() < 1e-9);
        // right on an edge
        assert_eq!(grid.boundary_distance(Vec2::new(60.0, 45.0)), 0.0);
        // clamped last cell (ragged edge): still non-negative
        assert!(grid.boundary_distance(Vec2::new(99.9, 99.9)) >= 0.0);
    }

    #[test]
    fn boundary_positions_bucket_into_last_cells() {
        let field = Field::new(100.0, 100.0);
        let grid = grid_of(field, 30.0, &[Vec2::new(100.0, 100.0)]); // 4x4 cells, ragged edge
        let mut out = Vec::new();
        grid.candidates_within(Vec2::new(99.0, 99.0), 2.0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn cell_geometry_disc_visits_match_grid_queries() {
        // The extracted CellGeometry must enumerate exactly the cells the
        // grid's own disc walk visits (the frame window reuses it).
        let field = Field::new(500.0, 300.0);
        let geom = CellGeometry::new(field, 70.0);
        assert_eq!(geom.n_cells(), 8 * 5);
        // every point maps into a valid cell, boundary included
        for p in [
            Vec2::new(0.0, 0.0),
            Vec2::new(500.0, 300.0),
            Vec2::new(69.999, 70.001),
            Vec2::new(499.0, 0.0),
        ] {
            assert!(geom.cell_of(p) < geom.n_cells());
        }
        // disc visits: brute-force over all cells via their corner boxes
        for &(cx, cy, r) in &[
            (250.0, 150.0, 69.0),
            (0.0, 0.0, 150.0),
            (499.0, 299.0, 40.0),
        ] {
            let center = Vec2::new(cx, cy);
            let mut got = Vec::new();
            geom.for_each_cell_in_disc(center, r, |c| got.push(c));
            // any cell containing a point within r must be visited
            for gx in 0..100 {
                for gy in 0..60 {
                    let p = Vec2::new(gx as f64 * 5.0, gy as f64 * 5.0);
                    if field.contains(p) && p.distance(center) <= r {
                        assert!(
                            got.contains(&geom.cell_of(p)),
                            "cell of {p:?} missed for disc ({cx},{cy},{r})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn query_disc_larger_than_field_sees_everyone() {
        let field = Field::new(50.0, 50.0);
        let pts: Vec<Vec2> = (0..5).map(|i| Vec2::new(i as f64 * 10.0, 25.0)).collect();
        let grid = grid_of(field, 60.0, &pts); // single cell
        let mut out = Vec::new();
        grid.candidates_within(Vec2::new(25.0, 25.0), 1_000.0, &mut out);
        assert_eq!(out.len(), 5);
    }
}
