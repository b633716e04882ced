//! The delivery query's **candidate filter**: a stream over the
//! cell-ordered slot store of [`SpatialGrid`].
//!
//! # One contiguous range per cell row
//!
//! The store keeps every node's [`PackedSegment`] record sorted by cell
//! in row-major order. For each cell row the decode disc (inflated by the
//! bucket slack) overlaps, the cells that pass the per-cell disc test
//! are contiguous ([`CellGeometry::for_each_row_in_disc`] gives the
//! argument), so the row's candidates are exactly the records in
//! `[start[first], start[last + 1])` — one sequential run, read without
//! any per-cell bookkeeping. [`DeliverySweep::filter_into`] evaluates
//! each record's exact position at the query time, **marks** every
//! candidate within the decode radius in a two-level survivor bitset,
//! then **emits** the bitset's set bits in ascending id order as
//! `(id, position, d²)` triples. Ascending emission falls out of the
//! bitset walk, so no sort is needed.
//!
//! (The grid's *stored* positions cannot prefilter here: the incremental
//! discipline only guarantees the bucketed *cell* stays correct within
//! the slack — the stored point itself may lag its node by most of a
//! cell until the next crossing refresh.)
//!
//! # Bit-exactness
//!
//! The stream is bit-identical to the scalar reference — walking the
//! disc's cells with [`SpatialGrid::for_each_in_cells`], evaluating
//! [`KinematicSnapshot::position`] then [`Vec2::distance_sq`] per
//! candidate, keeping `d² ≤ r²`, and sorting by id:
//!
//! 1. **Same candidates.** Each row range covers exactly the cells the
//!    per-cell walk visits in that row, and a cell's slot range holds
//!    exactly its members, so both visit the same node set.
//! 2. **Same arithmetic.** A walk or still record is evaluated with
//!    exactly the f64 operations of [`KinematicSnapshot::position`]'s
//!    arm for its kind, followed by `distance_sq` — same operations, same
//!    order, no fused multiply-adds, no re-association — on a record
//!    holding the same `f64` values as the snapshot lanes (both are
//!    written from the same segment). Waypoint legs call
//!    [`KinematicSnapshot::position`] itself.
//! 3. **Same set, same order.** Each id's predicate depends only on its
//!    own record, so the survivor set does not depend on visit order;
//!    the emit pass re-runs the identical operation sequence on the same
//!    record, so every emitted triple equals the reference's; and
//!    ascending-id emission reproduces the reference's sort exactly
//!    because node ids are unique.
//!
//! All three [`DeliveryMode`](crate::sim::DeliveryMode)s therefore stay
//! parity-pinned (asserted by this module's tests, the property suite's
//! sweep-vs-scalar pin and the cross-mode determinism tests).

use crate::geometry::{Field, Vec2};
#[cfg(doc)]
use crate::grid::CellGeometry;
use crate::grid::SpatialGrid;
use crate::mobility::SegmentKind;
use crate::snapshot::{KinematicSnapshot, PackedSegment};

/// Work counters of the candidate filter, accumulated across queries and
/// zeroed on reset — the measurable shape of the filter (exported per
/// scale row in the `bench-scale-v5` artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid cells covered by the streamed row ranges, empty ones
    /// included.
    pub cells_visited: u64,
    /// Always 0: the per-cell event-horizon cull this counted is gone
    /// (streaming a whole row range costs less than deciding, cell by
    /// cell, what to skip). Kept so existing reports keep their schema.
    pub cells_culled: u64,
    /// Walk and still candidates, evaluated straight from their records.
    pub batched_candidates: u64,
    /// Waypoint candidates, evaluated on the scalar
    /// [`KinematicSnapshot::position`] path.
    pub scalar_candidates: u64,
}

/// Component-wise sum — the deterministic reduction
/// [`Simulator::sweep_stats`](crate::sim::Simulator::sweep_stats) applies
/// over per-shard-worker sweeps. Each worker counts only the queries it
/// owns and ownership is a pure function of sender position, so summing
/// in worker-index order yields the same totals regardless of how the
/// threads actually interleaved.
impl std::ops::AddAssign for SweepStats {
    fn add_assign(&mut self, rhs: Self) {
        self.cells_visited += rhs.cells_visited;
        self.cells_culled += rhs.cells_culled;
        self.batched_candidates += rhs.batched_candidates;
        self.scalar_candidates += rhs.scalar_candidates;
    }
}

/// The candidate filter's scratch: the survivor bitsets plus counters.
/// One instance lives in the simulator's `World` (and one per shard
/// worker) and is reused across every delivery query.
#[derive(Debug, Clone, Default)]
pub struct DeliverySweep {
    /// Survivor bitset, one bit per node id; all-zero between queries
    /// (the emit pass clears the words it visits).
    survivors: Vec<u64>,
    /// Summary bitset over `survivors`: bit `w` set iff word `w` is
    /// non-zero, so the emit pass only touches words holding survivors.
    summary: Vec<u64>,
    stats: SweepStats,
}

/// Exact position at `t` of the node `rec` describes: the walk and still
/// arms of [`KinematicSnapshot::position`], operation for operation, on
/// the record's copy of the lanes; waypoint legs take the lane path.
#[inline(always)]
fn position(rec: &PackedSegment, snap: &KinematicSnapshot, field: Field, t: f64) -> Vec2 {
    match rec.kind {
        SegmentKind::Walk => {
            let dt = (t - rec.t0).max(0.0);
            field.reflect(rec.origin + rec.velocity * dt)
        }
        SegmentKind::Still => rec.origin,
        SegmentKind::Waypoint => snap.position(rec.id as usize, t),
    }
}

impl DeliverySweep {
    /// An empty sweep; call [`reset`](Self::reset) before filtering.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-arms the sweep for `n_nodes` nodes: zeroes the counters and the
    /// survivor bitsets, keeps the allocations.
    pub fn reset(&mut self, n_nodes: usize) {
        let words = n_nodes.div_ceil(64);
        self.survivors.clear();
        self.survivors.resize(words, 0);
        self.summary.clear();
        self.summary.resize(words.div_ceil(64), 0);
        self.stats = SweepStats::default();
    }

    /// Work counters accumulated since the last [`reset`](Self::reset).
    pub fn stats(&self) -> SweepStats {
        self.stats
    }

    /// Appends to `out` every node stored in a cell overlapping the disc
    /// of `radius + slack` around `center` whose exact position at `t` is
    /// within `radius`, as `(id, position, d²)` triples in **ascending id
    /// order** — bit-for-bit the output of the scalar reference (see the
    /// module docs).
    #[allow(clippy::too_many_arguments)] // mirrors the scalar query's parameter list
    pub fn filter_into(
        &mut self,
        grid: &SpatialGrid,
        snap: &KinematicSnapshot,
        center: Vec2,
        t: f64,
        radius: f64,
        slack: f64,
        out: &mut Vec<(usize, Vec2, f64)>,
    ) {
        // One range check up front licenses the unchecked bitset writes
        // in `mark`: every record id in the store is below the store's
        // node count, so bounding that count by the bitset size covers
        // every id the stream reads. (The sweep and the grid are sized by
        // separate calls — this is the seam where they could disagree.)
        assert!(
            grid.n_nodes() <= self.survivors.len() * 64,
            "sweep sized for fewer nodes than the grid stores"
        );
        let field = snap.field();
        let r2 = radius * radius;
        let survivors = &mut self.survivors[..];
        let summary = &mut self.summary[..];
        let (mut cells, mut streamed, mut waypoints) = (0u64, 0u64, 0u64);
        // Branchless: a non-survivor ORs in a zero bit. Survival is
        // data-dependent noise to the branch predictor, so predicating
        // the mark beats an `if` in the middle of the stream.
        #[inline(always)]
        fn mark(survivors: &mut [u64], summary: &mut [u64], id: u32, survives: bool) {
            let w = (id / 64) as usize;
            debug_assert!(w < survivors.len() && w / 64 < summary.len());
            // SAFETY: every record id in the store is below
            // `grid.n_nodes()` (its private records take ids only from
            // `rebuild`'s `0..n` and `set_segment`'s slot-checked index,
            // and moves only permute them), and `filter_into`'s up-front
            // assert bounds that count by `survivors.len() * 64`; hence
            // `w < survivors.len()` and `w / 64 < summary.len()` (summary
            // has one bit per word).
            unsafe {
                *survivors.get_unchecked_mut(w) |= (survives as u64) << (id % 64);
                *summary.get_unchecked_mut(w / 64) |= (survives as u64) << (w % 64);
            }
        }
        grid.geometry()
            .for_each_row_in_disc(center, radius + slack, |first, last| {
                let recs = grid.cell_records(first, last);
                cells += (last - first + 1) as u64;
                streamed += recs.len() as u64;
                for rec in recs {
                    waypoints += (rec.kind == SegmentKind::Waypoint) as u64;
                    let p = position(rec, snap, field, t);
                    mark(survivors, summary, rec.id, p.distance_sq(center) <= r2);
                }
            });
        self.stats.cells_visited += cells;
        self.stats.batched_candidates += streamed - waypoints;
        self.stats.scalar_candidates += waypoints;
        self.emit(grid, snap, center, t, out);
    }

    /// Walks the survivor bitset in ascending id order, re-derives each
    /// survivor's exact position and `d²` (identical operation sequence,
    /// identical record — so identical bits) and appends the triples,
    /// clearing the bitset words behind itself.
    fn emit(
        &mut self,
        grid: &SpatialGrid,
        snap: &KinematicSnapshot,
        center: Vec2,
        t: f64,
        out: &mut Vec<(usize, Vec2, f64)>,
    ) {
        let field = snap.field();
        for sw in 0..self.summary.len() {
            let mut sbits = self.summary[sw];
            if sbits == 0 {
                continue;
            }
            self.summary[sw] = 0;
            while sbits != 0 {
                let w = sw * 64 + sbits.trailing_zeros() as usize;
                sbits &= sbits - 1;
                let mut bits = self.survivors[w];
                self.survivors[w] = 0;
                while bits != 0 {
                    let id = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let p = position(grid.record(id), snap, field, t);
                    out.push((id, p, p.distance_sq(center)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{AnyMobility, Mobility, RandomWalk, RandomWaypoint, Stationary};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn field() -> Field {
        Field::new(600.0, 400.0)
    }

    /// The scalar reference: per-cell walk + per-candidate position/d² +
    /// ascending sort.
    fn scalar_filter(
        grid: &SpatialGrid,
        snap: &KinematicSnapshot,
        center: Vec2,
        t: f64,
        radius: f64,
        slack: f64,
    ) -> Vec<(usize, Vec2, f64)> {
        let r2 = radius * radius;
        let mut out = Vec::new();
        grid.for_each_in_cells(center, radius + slack, |i| {
            let p = snap.position(i, t);
            let d2 = p.distance_sq(center);
            if d2 <= r2 {
                out.push((i, p, d2));
            }
        });
        out.sort_unstable_by_key(|&(i, _, _)| i);
        out
    }

    /// Bit-level view of a filter result (`Vec2` compares by value, so
    /// `-0.0 == 0.0` would slip through a plain `assert_eq!`).
    fn bits(v: &[(usize, Vec2, f64)]) -> Vec<(usize, u64, u64, u64)> {
        v.iter()
            .map(|&(i, p, d2)| (i, p.x.to_bits(), p.y.to_bits(), d2.to_bits()))
            .collect()
    }

    /// `n` nodes on `f`, cycling walk / waypoint / still.
    fn mixed_world(
        f: Field,
        cell: f64,
        n: usize,
        seed: u64,
    ) -> (Vec<AnyMobility>, KinematicSnapshot, SpatialGrid) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ms: Vec<AnyMobility> = (0..n)
            .map(|i| {
                let start = Vec2::new(rng.gen_range(0.0..f.width), rng.gen_range(0.0..f.height));
                match i % 3 {
                    0 => AnyMobility::Walk(RandomWalk::new(
                        f,
                        start,
                        (0.0, 2.0),
                        20.0,
                        0.0,
                        &mut rng,
                    )),
                    1 => AnyMobility::Waypoint(RandomWaypoint::new(
                        f,
                        start,
                        (0.5, 2.0),
                        1.0,
                        0.0,
                        &mut rng,
                    )),
                    _ => AnyMobility::Still(Stationary { pos: start }),
                }
            })
            .collect();
        let mut snap = KinematicSnapshot::new(f);
        snap.rebuild(f, ms.iter().map(|m| m.segment()));
        let mut grid = SpatialGrid::new(f, cell);
        grid.rebuild(&snap, 0.0);
        (ms, snap, grid)
    }

    #[test]
    fn stream_matches_scalar_filter_bit_for_bit() {
        let (mut ms, mut snap, mut grid) = mixed_world(field(), 70.0, 257, 9);
        let mut sweep = DeliverySweep::new();
        sweep.reset(ms.len());
        let mut rng = SmallRng::seed_from_u64(77);
        let mut t = 0.0;
        for step in 0..120 {
            t += 0.31;
            // advance mobility, mirroring the simulator's re-anchor path:
            // overwrite the record, then move the node to its cell
            for (i, m) in ms.iter_mut().enumerate() {
                while m.next_change() <= t {
                    m.advance(&mut rng);
                    let seg = m.segment();
                    snap.set(i, seg);
                    grid.set_segment(i, &seg);
                    grid.update_node(i, m.position(t));
                }
            }
            let center = Vec2::new(
                rng.gen_range(0.0..field().width),
                rng.gen_range(0.0..field().height),
            );
            let radius = rng.gen_range(10.0..150.0);
            let want = scalar_filter(&grid, &snap, center, t, radius, 0.1);
            let mut got = Vec::new();
            sweep.filter_into(&grid, &snap, center, t, radius, 0.1, &mut got);
            assert_eq!(bits(&got), bits(&want), "step {step} t {t} r {radius}");
        }
        let s = sweep.stats();
        assert!(s.scalar_candidates > 0 && s.batched_candidates > 0, "{s:?}");
        assert_eq!(s.cells_culled, 0);
    }

    #[test]
    fn stream_matches_scalar_filter_on_every_field_shape() {
        // Mixed kinds on fields of every shape the row stream must handle:
        // plain, single-row, single-column, a single cell, and a ragged
        // last row/column; discs clipped by the field edges, centred on
        // cell boundaries, and larger than the whole field.
        for (k, (w, h, cell, n)) in [
            (600.0, 400.0, 70.0, 300usize),
            (1200.0, 60.0, 70.0, 120),
            (60.0, 1200.0, 70.0, 120),
            (50.0, 50.0, 70.0, 17),
            (330.0, 250.0, 100.0, 90),
        ]
        .into_iter()
        .enumerate()
        {
            let f = Field::new(w, h);
            let (_, snap, grid) = mixed_world(f, cell, n, 1000 + k as u64);
            let mut sweep = DeliverySweep::new();
            sweep.reset(n);
            let mut rng = SmallRng::seed_from_u64(k as u64);
            let mut centers = vec![
                Vec2::new(0.0, 0.0),
                Vec2::new(w, h),
                Vec2::new(w, 0.0),
                Vec2::new(cell, cell),
                Vec2::new(w / 2.0, h / 2.0),
            ];
            centers
                .extend((0..20).map(|_| Vec2::new(rng.gen_range(0.0..w), rng.gen_range(0.0..h))));
            for (q, &center) in centers.iter().enumerate() {
                for radius in [5.0, cell, 2.3 * cell, 10.0 * w.max(h)] {
                    let t = q as f64 * 0.7;
                    let want = scalar_filter(&grid, &snap, center, t, radius, 0.1);
                    let mut got = Vec::new();
                    sweep.filter_into(&grid, &snap, center, t, radius, 0.1, &mut got);
                    assert_eq!(bits(&got), bits(&want), "field {k} query {q} r {radius}");
                    if radius > w.max(h) * 2.0 {
                        assert_eq!(got.len(), n, "a disc larger than the field sees everyone");
                    }
                }
            }
        }
    }

    #[test]
    fn homogeneous_walk_world_streams_records() {
        let mut rng = SmallRng::seed_from_u64(21);
        let ms: Vec<AnyMobility> = (0..300)
            .map(|_| {
                let start = Vec2::new(
                    rng.gen_range(0.0..field().width),
                    rng.gen_range(0.0..field().height),
                );
                AnyMobility::Walk(RandomWalk::new(
                    field(),
                    start,
                    (0.0, 2.0),
                    20.0,
                    0.0,
                    &mut rng,
                ))
            })
            .collect();
        let mut snap = KinematicSnapshot::new(field());
        snap.rebuild(field(), ms.iter().map(|m| m.segment()));
        let mut grid = SpatialGrid::new(field(), 70.0);
        grid.rebuild(&snap, 0.0);
        let mut sweep = DeliverySweep::new();
        sweep.reset(ms.len());
        for q in 0..40 {
            let center = Vec2::new(
                rng.gen_range(0.0..field().width),
                rng.gen_range(0.0..field().height),
            );
            let t = q as f64 * 0.25;
            let want = scalar_filter(&grid, &snap, center, t, 120.0, 0.1);
            let mut got = Vec::new();
            sweep.filter_into(&grid, &snap, center, t, 120.0, 0.1, &mut got);
            assert_eq!(bits(&got), bits(&want), "query {q}");
        }
        let s = sweep.stats();
        assert!(s.batched_candidates > 0, "{s:?}");
        assert_eq!(s.scalar_candidates, 0, "no waypoint legs: {s:?}");
        assert!(s.cells_visited > 0, "{s:?}");
    }
}
