//! Structure-of-arrays **kinematic snapshot** of every node's current
//! mobility segment — the flat data the delivery query filters candidates
//! against.
//!
//! The simulator's inner loop ("who hears this frame?") has to evaluate
//! the *current, exact* position of every candidate a spatial-grid query
//! returns. Doing that through `dyn Mobility::position(t)` costs an enum
//! dispatch plus a pointer chase into a ~100-byte mobility struct per
//! candidate — a cache miss each at 10⁴ nodes. The snapshot instead keeps
//! one flat lane per segment field ([`Vec2`] origins, [`Vec2`]
//! velocities/displacements, `f64` segment starts and arrival times, plus
//! a [`SegmentKind`] discriminant lane for heterogeneous worlds), indexed
//! by node id. The delivery filter itself streams the cell-ordered copy
//! of the hot fields ([`PackedSegment`]) that the spatial grid's slot
//! store keeps, with a single branch on the kind per candidate —
//! perfectly predicted whenever a world (or a spatial neighbourhood of
//! it) is dominated by one mobility model — and falls back to these
//! lanes for waypoint legs.
//!
//! Since the log-free receive-outcome rewrite, the squared distances this
//! filter computes are not just a pre-filter input but the *decode test
//! itself*: unshadowed, the delivery query compares each candidate's `d²`
//! straight against the transmission's precomputed threshold band
//! ([`PathLoss::threshold_band_sq`]) — no per-candidate `log10` — so the
//! lanes feed the exact outcome classification, not merely a candidate
//! list.
//!
//! Lanes are refreshed in **O(1)** when a node's mobility segment changes
//! (the simulator drives [`KinematicSnapshot::set`] from the same
//! mobility-change events that bump its per-node refresh generations) and
//! rebuilt in O(n) on simulator reset. [`KinematicSnapshot::position`]
//! evaluates the segment arithmetic **bit-identically** to
//! [`Mobility::position`] — the contract documented on
//! [`KinematicSegment`] and asserted by this module's tests plus the
//! cross-mode parity suites — which is what lets the optimised delivery
//! path produce the same results as the historical ones down to the last
//! bit.
//!
//! The query side of the snapshot (`position`, `segment`) is `&self` with
//! no interior mutability, so the space-sharded delivery path shares one
//! snapshot read-only across all stripe workers while a batch resolves;
//! mutation (`set`, `rebuild`) happens only between batches, on the event
//! thread, after the workers have joined.
//!
//! [`Mobility::position`]: crate::mobility::Mobility::position
//! [`PathLoss::threshold_band_sq`]: crate::radio::PathLoss::threshold_band_sq

use crate::geometry::{Field, Vec2};
use crate::mobility::{KinematicSegment, SegmentKind};

/// One node's hot segment fields plus its id, packed (and padded) into a
/// single 64-byte cache line — the record the cell-ordered slot store of
/// [`SpatialGrid`](crate::grid::SpatialGrid) keeps per node.
///
/// The store holds these records in row-major cell order, so the
/// delivery query streams the records of a decode disc's cell row as one
/// contiguous run instead of gathering each candidate's segment from
/// id-indexed lanes (one cache line per lane touched). A record carries
/// its node id because its slot does not encode it. It holds the
/// **same `f64` values** as the snapshot's lanes (built by
/// [`PackedSegment::new`] from the same [`KinematicSegment`]), so
/// kernels reading it stay bit-identical to
/// [`KinematicSnapshot::position`].
///
/// Waypoint destinations are deliberately absent (they would overflow
/// the line): waypoint evaluation needs the arrival/parking branches
/// anyway, so it always takes the scalar lane path.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub struct PackedSegment {
    /// Segment origin (walk/waypoint) or fixed position (still).
    pub origin: Vec2,
    /// Walk velocity / waypoint leg displacement.
    pub velocity: Vec2,
    /// Segment start time.
    pub t0: f64,
    /// Waypoint arrival time (`+∞` otherwise).
    pub arrival: f64,
    /// The node this record describes.
    pub id: u32,
    /// Trajectory-family discriminant.
    pub kind: SegmentKind,
}

impl PackedSegment {
    /// Node `id`'s record of segment `s`.
    pub fn new(id: u32, s: &KinematicSegment) -> Self {
        Self {
            origin: s.origin,
            velocity: s.velocity,
            t0: s.t0,
            arrival: s.arrival,
            id,
            kind: s.kind,
        }
    }
}

/// Flat per-node segment lanes (see the module docs). The
/// [`SegmentKind`] discriminant is itself a lane: heterogeneous worlds
/// ([`crate::world::WorldSpec`]) mix mobility models across node groups,
/// so each node carries its own kind. For the homogeneous worlds the
/// paper evaluates, every entry of the kind lane is identical and the
/// per-candidate branch stays perfectly predicted — the historical
/// single-kind fast path in all but name.
#[derive(Debug, Clone)]
pub struct KinematicSnapshot {
    kinds: Vec<SegmentKind>,
    field: Field,
    origin: Vec<Vec2>,
    velocity: Vec<Vec2>,
    t0: Vec<f64>,
    arrival: Vec<f64>,
    dest: Vec<Vec2>,
}

impl KinematicSnapshot {
    /// An empty snapshot over `field`; call [`rebuild`](Self::rebuild)
    /// before querying.
    pub fn new(field: Field) -> Self {
        Self {
            kinds: Vec::new(),
            field,
            origin: Vec::new(),
            velocity: Vec::new(),
            t0: Vec::new(),
            arrival: Vec::new(),
            dest: Vec::new(),
        }
    }

    /// Number of nodes captured.
    pub fn len(&self) -> usize {
        self.origin.len()
    }

    /// Whether the snapshot holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.origin.is_empty()
    }

    /// The segment kind of node `i`.
    pub fn kind_of(&self, i: usize) -> SegmentKind {
        self.kinds[i]
    }

    /// Re-captures every node's segment, reusing the lane allocations.
    /// Kinds may differ per node (heterogeneous worlds).
    pub fn rebuild<I: IntoIterator<Item = KinematicSegment>>(&mut self, field: Field, segs: I) {
        self.field = field;
        self.kinds.clear();
        self.origin.clear();
        self.velocity.clear();
        self.t0.clear();
        self.arrival.clear();
        self.dest.clear();
        for s in segs {
            self.kinds.push(s.kind);
            self.origin.push(s.origin);
            self.velocity.push(s.velocity);
            self.t0.push(s.t0);
            self.arrival.push(s.arrival);
            self.dest.push(s.dest);
        }
    }

    /// O(1) refresh of node `i`'s lanes after its mobility segment changed
    /// (a waypoint arrival, a random-walk re-draw).
    pub fn set(&mut self, i: usize, s: KinematicSegment) {
        self.kinds[i] = s.kind;
        self.origin[i] = s.origin;
        self.velocity[i] = s.velocity;
        self.t0[i] = s.t0;
        self.arrival[i] = s.arrival;
        self.dest[i] = s.dest;
    }

    /// The segment lanes of node `i`, reassembled (tests/diagnostics).
    pub fn segment(&self, i: usize) -> KinematicSegment {
        KinematicSegment {
            kind: self.kinds[i],
            origin: self.origin[i],
            velocity: self.velocity[i],
            t0: self.t0[i],
            arrival: self.arrival[i],
            dest: self.dest[i],
        }
    }

    /// The field walk segments reflect off.
    pub fn field(&self) -> Field {
        self.field
    }

    /// Exact position of node `i` at time `t` — bit-identical to the
    /// backing [`Mobility::position`] call (see the module docs).
    ///
    /// [`Mobility::position`]: crate::mobility::Mobility::position
    #[inline]
    pub fn position(&self, i: usize, t: f64) -> Vec2 {
        match self.kinds[i] {
            SegmentKind::Walk => {
                let dt = (t - self.t0[i]).max(0.0);
                self.field.reflect(self.origin[i] + self.velocity[i] * dt)
            }
            SegmentKind::Waypoint => {
                if t >= self.arrival[i] {
                    return self.dest[i];
                }
                let total = self.arrival[i] - self.t0[i];
                if total <= 0.0 {
                    return self.dest[i];
                }
                let frac = ((t - self.t0[i]) / total).clamp(0.0, 1.0);
                self.origin[i] + self.velocity[i] * frac
            }
            SegmentKind::Still => self.origin[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{AnyMobility, Mobility, RandomWalk, RandomWaypoint, Stationary};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn field() -> Field {
        Field::new(400.0, 300.0)
    }

    fn capture(ms: &[AnyMobility]) -> KinematicSnapshot {
        let mut s = KinematicSnapshot::new(field());
        s.rebuild(field(), ms.iter().map(|m| m.segment()));
        s
    }

    #[test]
    fn walk_positions_bit_identical_across_segments() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut ms: Vec<AnyMobility> = (0..40)
            .map(|i| {
                AnyMobility::Walk(RandomWalk::new(
                    field(),
                    Vec2::new(10.0 + i as f64 * 7.3, 20.0 + i as f64 * 5.1),
                    (0.0, 2.0),
                    4.0,
                    0.0,
                    &mut rng,
                ))
            })
            .collect();
        let mut snap = capture(&ms);
        let mut t = 0.0;
        for step in 0..60 {
            t += 0.37;
            for (i, m) in ms.iter_mut().enumerate() {
                while m.next_change() <= t {
                    m.advance(&mut rng);
                    snap.set(i, m.segment());
                }
                // Bit-exact equality, including exactly at segment starts.
                assert_eq!(snap.position(i, t), m.position(t), "step {step} node {i}");
                let t0 = m.segment().t0;
                assert_eq!(snap.position(i, t0), m.position(t0), "at t0, node {i}");
            }
        }
    }

    #[test]
    fn waypoint_positions_bit_identical_including_pauses() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut ms: Vec<AnyMobility> = (0..20)
            .map(|i| {
                AnyMobility::Waypoint(RandomWaypoint::new(
                    field(),
                    Vec2::new(5.0 + i as f64 * 11.0, 9.0 + i as f64 * 3.0),
                    (0.5, 2.0),
                    1.5,
                    0.0,
                    &mut rng,
                ))
            })
            .collect();
        let mut snap = capture(&ms);
        let mut t = 0.0;
        for _ in 0..80 {
            t += 0.61;
            for (i, m) in ms.iter_mut().enumerate() {
                while m.next_change() <= t {
                    m.advance(&mut rng);
                    snap.set(i, m.segment());
                }
                assert_eq!(snap.position(i, t), m.position(t), "node {i} t {t}");
                // exactly at the arrival instant (parked thereafter)
                let arr = m.segment().arrival;
                if arr.is_finite() && arr >= t {
                    assert_eq!(snap.position(i, arr), m.position(arr));
                }
            }
        }
    }

    #[test]
    fn stationary_positions_are_constant() {
        let ms = vec![
            AnyMobility::Still(Stationary {
                pos: Vec2::new(1.0, 2.0),
            }),
            AnyMobility::Still(Stationary {
                pos: Vec2::new(399.0, 299.0),
            }),
        ];
        let snap = capture(&ms);
        assert_eq!(snap.kind_of(0), SegmentKind::Still);
        assert_eq!(snap.position(0, 0.0), Vec2::new(1.0, 2.0));
        assert_eq!(snap.position(0, 1e6), Vec2::new(1.0, 2.0));
        assert_eq!(snap.position(1, 40.0), ms[1].position(40.0));
    }

    #[test]
    fn rebuild_reuses_lanes_and_resizes() {
        let mut rng = SmallRng::seed_from_u64(3);
        let ms: Vec<AnyMobility> = (0..10)
            .map(|_| {
                AnyMobility::Walk(RandomWalk::new(
                    field(),
                    Vec2::new(50.0, 50.0),
                    (1.0, 2.0),
                    20.0,
                    0.0,
                    &mut rng,
                ))
            })
            .collect();
        let mut snap = capture(&ms);
        assert_eq!(snap.len(), 10);
        snap.rebuild(field(), ms[..3].iter().map(|m| m.segment()));
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
        assert_eq!(snap.position(2, 7.0), ms[2].position(7.0));
    }

    #[test]
    fn mixed_kinds_evaluate_bit_identically() {
        // Heterogeneous worlds put different mobility models side by side
        // in one snapshot; every node must still evaluate exactly its own
        // model's arithmetic.
        let mut rng = SmallRng::seed_from_u64(4);
        let mut ms = vec![
            AnyMobility::Still(Stationary { pos: Vec2::ZERO }),
            AnyMobility::Walk(RandomWalk::new(
                field(),
                Vec2::new(1.0, 1.0),
                (0.5, 2.0),
                4.0,
                0.0,
                &mut rng,
            )),
            AnyMobility::Waypoint(RandomWaypoint::new(
                field(),
                Vec2::new(200.0, 100.0),
                (0.5, 2.0),
                1.0,
                0.0,
                &mut rng,
            )),
        ];
        let mut snap = capture(&ms);
        assert_eq!(snap.kind_of(0), SegmentKind::Still);
        assert_eq!(snap.kind_of(1), SegmentKind::Walk);
        assert_eq!(snap.kind_of(2), SegmentKind::Waypoint);
        let mut t = 0.0;
        for _ in 0..40 {
            t += 0.83;
            for (i, m) in ms.iter_mut().enumerate() {
                while m.next_change() <= t {
                    m.advance(&mut rng);
                    snap.set(i, m.segment());
                }
                assert_eq!(snap.position(i, t), m.position(t), "node {i} t {t}");
                assert_eq!(snap.segment(i), m.segment(), "node {i}");
            }
        }
    }
}
