//! The discrete-event simulator: beaconing, mobility, half-duplex radios
//! with a capture-based collision model, protocol timers and metric
//! collection.
//!
//! One [`Simulator`] run reproduces the paper's evaluation protocol
//! (Table II): nodes are placed uniformly in the field, move under random
//! walk and exchange beacons from `t = 0`; the broadcast starts at
//! `t = 30 s` and the simulation ends at `t = 40 s`.
//!
//! Scenarios are described declaratively by a
//! [`WorldSpec`] — possibly **heterogeneous**:
//! several node groups with their own mobility model, placement, speed
//! range and transmit-power class — and compile into the engine through
//! [`Simulator::from_world`]; the flat [`SimConfig`] is a single-group
//! adapter kept for the paper's homogeneous setups.
//!
//! ## Performance architecture — the incremental simulation core
//!
//! Delivery resolution — "who hears this frame?" — is the inner loop of
//! the whole reproduction (every candidate evaluation simulates 10
//! networks). The mechanisms that keep it fast:
//!
//! * a [`SpatialGrid`] over the field (cell = half the maximum radio
//!   range, see `GRID_CELL_DIVISOR`) limits each query to the cells
//!   overlapping the transmission's range disc. The default
//!   [`DeliveryMode::Incremental`] discipline keeps the grid exact
//!   through **event-driven cell transitions**: every node schedules a
//!   refresh at the earliest time it could cross its current cell
//!   boundary (`distance-to-edge / segment-speed`), and each refresh
//!   moves the node between cell lists in O(1). Total maintenance is
//!   proportional to actual cell crossings — orders of magnitude less
//!   work than the [`DeliveryMode::HorizonRebuild`] baseline, which
//!   re-buckets all `n` nodes every `GRID_REBUILD_HORIZON` seconds.
//! * the **SoA kinematic snapshot** ([`crate::snapshot`]): flat per-node
//!   lanes of every mobility segment (origin, velocity/displacement,
//!   start, arrival), refreshed in O(1) from the same mobility-change
//!   events that re-anchor the grid schedule. The incremental delivery
//!   query walks grid cells *directly* into a filter over these lanes
//!   (no intermediate id list, no per-candidate `dyn Mobility` dispatch)
//!   and hands each survivor's exact position and squared distance
//!   straight to the outcome test, whose arithmetic is bit-identical to
//!   the historical per-receiver path.
//! * a **log-free receive test**: each transmission precomputes
//!   squared-distance decode thresholds (the dB-domain `rx ≥ sensitivity`
//!   comparison reproduced exactly at precompute time, see
//!   [`crate::radio::PathLoss::threshold_band_sq`]), so the unshadowed
//!   decode test is a `d²` compare against the snapshot lanes with no
//!   `log10` per candidate; the received power of a decodable candidate
//!   is deferred until a delivery or capture comparison needs its value.
//!   Interferers likewise carry precomputed floor/gating radii
//!   ([`crate::radio::INTERFERENCE_FLOOR_DB`], shadowing tail included),
//!   so provably irrelevant terms are skipped by a squared-distance
//!   compare — the sums are unchanged because skipped terms contribute
//!   exactly zero. Shadowed links keep the dB-domain test but share one
//!   shadowing draw per (transmitter, receiver) pair across a frame's
//!   outcome evaluations.
//! * the `recent`-transmission log became an O(active-set)
//!   [`ActiveWindow`] (per-duration lanes pruned as transmissions expire),
//!   **spatialised** for the incremental query as a
//!   [`crate::events::SpatialActiveWindow`]: in-flight frames are
//!   bucketed by grid cell, a query gathers only the frames near its
//!   receivers (O(nearby), not O(active set) per receiver) and replays
//!   them in insertion order, so interference sums stay bit-identical to
//!   the historical flat scan.
//! * shadowed scenarios (`shadowing_sigma_db > 0`) no longer fall back to
//!   the naive O(n) receiver scan: the per-link shadowing gain is
//!   truncated at `+4σ` ([`crate::radio::SHADOW_TAIL_SIGMAS`], with an
//!   asserted error budget), which gives every transmission the finite
//!   decode range [`crate::radio::RadioConfig::max_decode_range`] the grid
//!   needs.
//! * **space-sharded delivery resolution**
//!   ([`Simulator::set_delivery_shards`]): the grid's columns are split
//!   into contiguous stripes, beacon-delivery queries are batched and
//!   each stripe's worker runs the full filter → decode →
//!   interference/capture pipeline for the queries whose transmitter it
//!   owns, reading the grid/snapshot/active-window shared and read-only;
//!   outcomes are merged back in original event order, so reports stay
//!   **bit-identical at every shard count** (asserted against the naive
//!   oracle by `tests/determinism.rs` and the property suite).
//! * **compact beacon bookkeeping**, the layer that dominates dense
//!   worlds once the query is cheap: neighbour tables are flat
//!   open-addressing stores that evict stale entries as new neighbours
//!   arrive ([`crate::neighbor`]), and the event queue is a 4-ary heap of
//!   32-byte entries whose frame ends carry a [`Slab`] key instead of the
//!   transmission itself ([`crate::events`]).
//!
//! Every mode is a conservative pre-filter followed by the exact
//! received-power test, so all three produce **bit-identical**
//! [`SimReport`]s (asserted by `tests/determinism.rs` and the property
//! suite); [`Simulator::set_delivery_mode`] keeps the non-default paths
//! reachable for parity tests and benchmarks — [`DeliveryMode::Naive`]
//! and [`DeliveryMode::HorizonRebuild`] deliberately keep their
//! *historical* code paths (virtual mobility dispatch, ungated
//! interference loop) so they stay honest baselines for the measured
//! speedups. [`Simulator::set_query_profiling`] splits query wall time
//! into candidate-filter vs receive-outcome phases
//! ([`QueryProfile`]), the breakdown `exp_scale` records per
//! `BENCH_scale.json` row.
//!
//! The simulator is also **reusable**: [`Simulator::reset`] re-arms every
//! pre-allocated structure (event queue, active window, neighbour tables,
//! mobility states, delivery scratch buffers) for a new configuration
//! without per-run heap churn — batched evaluation runs thousands of
//! simulations per optimizer generation.

use crate::events::{ActiveWindow, EventQueue, Slab, SpatialActiveWindow};
use crate::geometry::{Field, Vec2};
use crate::grid::{CellGeometry, GridStats, SpatialGrid};
use crate::metrics::{BroadcastMetrics, SimCounters};
use crate::mobility::{
    AnyMobility, Mobility, MobilityModel, RandomWalk, RandomWaypoint, Stationary,
};
use crate::neighbor::{observe_all, NeighborEntry, NeighborTable};
use crate::protocol::{Protocol, ProtocolApi};
use crate::radio::{
    dbm_to_mw, link_hash, shadow_from_uniforms, shadow_uniforms, RadioConfig, ShadowLadder,
    INTERFERENCE_FLOOR_DB,
};
use crate::shard::ShardPool;
use crate::snapshot::KinematicSnapshot;
use crate::sweep::{DeliverySweep, SweepStats};
use crate::world::{GroupPlacement, WorldSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Node identifier: an index in `0..n_nodes`.
pub type NodeId = usize;

/// Seconds between spatial-grid rebuilds in
/// [`DeliveryMode::HorizonRebuild`]: node positions bucketed up to this
/// long ago are still usable because queries inflate their radius by
/// `v_max · staleness` (≤ 2 m at the paper's 2 m/s).
const GRID_REBUILD_HORIZON: f64 = 1.0;

/// Relative + absolute inflation of the query radius guarding against
/// floating-point rounding at the exact range boundary.
const RANGE_EPSILON: f64 = 1e-6;

/// Scheduling floor of the incremental grid refresh (metres): a node's
/// next refresh fires after `max(distance-to-cell-edge, SLACK) / speed`
/// seconds. The floor prevents a Zeno cascade of refreshes while a node
/// rides a cell boundary; in exchange a bucket may lag the node's true
/// cell by up to `SLACK` metres, which every incremental query compensates
/// by inflating its radius by the same constant. 0.1 m against ~139 m
/// cells costs nothing and keeps worst-case refresh rates at
/// `speed / SLACK` ≈ 20 events/s only while a node hugs an edge.
///
/// Public so external harnesses modelling the incremental query (the
/// criterion filter benches) inflate their radius by the *same* constant
/// instead of a hard-coded copy that could drift.
pub const GRID_BUCKET_SLACK_M: f64 = 0.1;

/// How node buckets in the spatial grid are maintained and queried when
/// resolving deliveries. All modes are bit-identical in their results (the
/// grid is a conservative pre-filter before the exact received-power
/// test); they differ only in maintenance cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Event-driven incremental maintenance (the default): per-node
    /// cell-crossing refreshes applied in O(1), maintenance proportional
    /// to actual cell transitions.
    #[default]
    Incremental,
    /// The historical scheme: full O(n) re-bucketing every
    /// `GRID_REBUILD_HORIZON` seconds, queries inflated by a staleness
    /// margin. Kept as the baseline the incremental path is measured
    /// against.
    HorizonRebuild,
    /// Exact O(n) scan of every node per transmission — the reference
    /// implementation for parity tests and benchmarks.
    Naive,
}

/// Complete flat configuration of one *homogeneous* simulation run — the
/// paper's shape: one mobility model, one speed range, one power class.
///
/// Internally the engine speaks the declarative
/// [`WorldSpec`]; `SimConfig` is a thin adapter
/// over it ([`SimConfig::to_world`] lifts it into a single-group spec with
/// identical RNG draw order, so the conversion is bit-exact).
/// Heterogeneous scenarios — several node groups with their own mobility,
/// placement and transmit-power class — are built with
/// [`WorldSpec::builder`](crate::world::WorldSpec::builder) and run through
/// [`Simulator::from_world`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The simulation field.
    pub field: Field,
    /// Number of devices.
    pub n_nodes: usize,
    /// Node speed range (m/s); Table II: `[0, 2]`.
    pub speed_range: (f64, f64),
    /// Mobility model; Table II: random walk, re-draw every 20 s.
    pub mobility: MobilityModel,
    /// Physical layer.
    pub radio: RadioConfig,
    /// Beacon (hello) period in seconds; the paper's AEDB uses 1 s.
    pub beacon_interval: f64,
    /// Neighbour entries older than this many seconds are considered gone.
    pub neighbor_expiry: f64,
    /// Time the broadcast starts (warm-up before it); Table II: 30 s.
    pub broadcast_time: f64,
    /// End of the simulation; Table II: 40 s.
    pub end_time: f64,
    /// The broadcasting source node.
    pub source: NodeId,
    /// RNG seed — fixing it fixes the *network*: placement, mobility and
    /// beacon phases are all derived from it.
    pub seed: u64,
    /// How initial node positions are chosen.
    pub placement: Placement,
}

/// Initial node placement.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// Uniformly random in the field (the paper's setup).
    UniformRandom,
    /// Explicit positions (deterministic topologies for tests/examples);
    /// must provide exactly `n_nodes` points inside the field.
    Explicit(Vec<Vec2>),
}

impl SimConfig {
    /// The paper's scenario (Table II) for a given node count and seed.
    /// Node counts for the three densities on the 500 m × 500 m field:
    /// 25 (100 dev/km²), 50 (200 dev/km²), 75 (300 dev/km²).
    pub fn paper(n_nodes: usize, seed: u64) -> Self {
        Self {
            field: Field::paper(),
            n_nodes,
            speed_range: (0.0, 2.0),
            mobility: MobilityModel::RandomWalk {
                change_interval: 20.0,
            },
            radio: RadioConfig::paper(),
            beacon_interval: 1.0,
            neighbor_expiry: 2.5,
            broadcast_time: 30.0,
            end_time: 40.0,
            source: 0,
            seed,
            placement: Placement::UniformRandom,
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Metrics of the broadcast dissemination.
    pub broadcast: BroadcastMetrics,
    /// Network-wide counters.
    pub counters: SimCounters,
    /// Number of nodes simulated.
    pub n_nodes: usize,
}

/// What kind of frame a transmission carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameKind {
    Beacon,
    Data,
}

/// An on-air transmission (positions frozen at its start).
#[derive(Debug, Clone, Copy)]
struct Transmission {
    sender: NodeId,
    pos: Vec2,
    tx_dbm: f64,
    start: f64,
    end: f64,
    kind: FrameKind,
    /// Squared interference gating radius: beyond this distance from
    /// `pos`, this frame's received power is provably below the
    /// interference floor (`sensitivity − `[`INTERFERENCE_FLOOR_DB`], with
    /// the bounded shadowing tail and an epsilon inflation against
    /// floating-point rounding), so the optimised delivery path skips the
    /// `log10` for it without changing any interference sum. Precomputed
    /// once per transmission.
    gate_r2: f64,
    /// Log-free decode band (`lo²`, `hi²`) of this frame's power against
    /// the receiver sensitivity ([`PathLoss::threshold_band_sq`]): in the
    /// unshadowed case the receive test becomes a squared-distance compare
    /// against these bounds, with only the hair-thin in-band sliver
    /// falling back to the exact dB comparison. Meaningless under
    /// shadowing (the per-link draw shifts the threshold), where the fused
    /// path keeps the dB-domain test.
    ///
    /// [`PathLoss::threshold_band_sq`]: crate::radio::PathLoss::threshold_band_sq
    decode_lo_r2: f64,
    decode_hi_r2: f64,
    /// Upper bound of the log-free *interference-floor* band: beyond this
    /// squared distance this frame's unshadowed received power is provably
    /// below `sensitivity − `[`INTERFERENCE_FLOOR_DB`], so the fused
    /// interference loop skips its `log10` — exactly the terms the
    /// historical loop evaluates and then discards.
    floor_hi_r2: f64,
}

/// A scheduled simulator event: 16 bytes, so an [`EventQueue`] entry is
/// 32 (see [`crate::events`]). Node ids are `u32` (worlds are capped
/// below `u32::MAX` nodes) and a frame end names its [`Transmission`] by
/// its key in [`World::txs`] instead of carrying it.
#[derive(Debug, Clone, Copy)]
enum Event {
    Beacon(u32),
    MobilityChange(u32),
    /// End of the transmission stored under this [`World::txs`] key.
    TxEnd(u32),
    Timer {
        node: u32,
        tag: u64,
    },
    StartBroadcast(u32),
    /// Earliest possible cell crossing of `node`; stale when `gen` no
    /// longer matches (the node's mobility segment changed since).
    GridRefresh {
        node: u32,
        gen: u32,
    },
}

/// A node id in its compact event form. [`World::reset`] caps node counts
/// below `u32::MAX`, so the conversion is lossless.
fn id32(node: NodeId) -> u32 {
    node as u32
}

impl FrameKind {
    /// [`ActiveWindow`] lane of this duration class.
    fn lane(self) -> usize {
        match self {
            FrameKind::Beacon => 0,
            FrameKind::Data => 1,
        }
    }
}

/// The power-derived radii of a transmission (see the [`Transmission`]
/// fields they fill): a pure function of the radio and the transmit power,
/// so [`World::start_transmission`] memoises the latest one — beacons go
/// out at a handful of power classes, and each computation costs several
/// `powf`s.
#[derive(Debug, Clone, Copy, Default)]
struct TxRadii {
    /// ε-inflated interference gating radius (`gate_r2 = gate²`).
    gate: f64,
    decode_lo_r2: f64,
    decode_hi_r2: f64,
    floor_hi_r2: f64,
}

impl TxRadii {
    fn new(radio: &RadioConfig, tx_dbm: f64) -> Self {
        // Amortise the interference gate over every query this frame will
        // ever appear in: one `range_for` here instead of a `log10` per
        // (candidate × active frame) in the delivery loop.
        let gate = radio.interference_floor_range(tx_dbm) * (1.0 + RANGE_EPSILON) + RANGE_EPSILON;
        // Log-free decode/floor bands (exact-threshold distances with the
        // dB-domain comparison reproduced at precompute time): three
        // `powf`s here buy away a `log10` per candidate×frame pair in the
        // unshadowed receive tests.
        let (decode_lo_r2, decode_hi_r2) = radio
            .path_loss
            .threshold_band_sq(tx_dbm, radio.rx_sensitivity_dbm);
        let (_, floor_hi_r2) = radio
            .path_loss
            .threshold_band_sq(tx_dbm, radio.rx_sensitivity_dbm - INTERFERENCE_FLOOR_DB);
        TxRadii {
            gate,
            decode_lo_r2,
            decode_hi_r2,
            floor_hi_r2,
        }
    }
}

/// Wall-time split of the delivery query, accumulated per delivery query
/// when profiling is enabled ([`Simulator::set_query_profiling`]). The two
/// top-level phases are the ones the query-side perf work optimises
/// independently: candidate *filtering* (grid walk + position filter +
/// ordering) and the exact per-receiver *outcome* tests (propagation,
/// half-duplex, capture); `decode_s` and `interference_s` split the
/// outcome phase further.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryProfile {
    /// Seconds spent gathering, filtering and ordering candidates.
    pub filter_s: f64,
    /// Seconds spent in exact receive-outcome tests (incl. decode and
    /// interference).
    pub outcome_s: f64,
    /// Seconds of `outcome_s` spent in the decode pass: which filtered
    /// candidates can decode the frame at all (the log-free band test
    /// unshadowed; the reject ladder plus the exact dB test shadowed).
    /// Incremental path only, like `interference_s`.
    pub decode_s: f64,
    /// Seconds of `outcome_s` spent resolving interference and capture
    /// (the per-decodable-receiver frame loop) — the phase the spatialised
    /// active window optimises. Only the incremental path is instrumented
    /// at this granularity; the historical baselines keep their verbatim
    /// single-loop shape, so their split stays filter/outcome only.
    pub interference_s: f64,
}

impl std::ops::AddAssign for QueryProfile {
    /// Component-wise sum — the deterministic reduction
    /// [`Simulator::query_profile`] applies over per-shard profiles.
    fn add_assign(&mut self, other: QueryProfile) {
        self.filter_s += other.filter_s;
        self.outcome_s += other.outcome_s;
        self.decode_s += other.decode_s;
        self.interference_s += other.interference_s;
    }
}

/// Simulator state visible to protocols through [`ProtocolApi`].
struct World {
    /// The compiled scenario — the engine speaks [`WorldSpec`] natively;
    /// [`SimConfig`] is a single-group adapter over it
    /// ([`SimConfig::to_world`]).
    spec: WorldSpec,
    /// Total node count (cached sum over the spec's groups).
    n_nodes: usize,
    /// Per-node transmit-power class (dBm): the group's override or the
    /// radio default — what beacons (and default-power data frames) are
    /// sent at.
    node_tx: Vec<f64>,
    /// Worst-case node speed across all groups (cached), the bound behind
    /// the horizon-rebuild staleness margin and the half-duplex reach.
    max_speed: f64,
    queue: EventQueue<Event>,
    /// On-air transmissions, keyed by the [`Event::TxEnd`] that ends
    /// them: the frame lives here from its start until its end is
    /// dispatched (or deferred into a sharded batch).
    txs: Slab<Transmission>,
    mobility: Vec<AnyMobility>,
    tables: Vec<NeighborTable>,
    rng: SmallRng,
    /// Transmissions that can still interfere with an in-flight frame —
    /// one lane per duration class, pruned as transmissions expire. The
    /// historical delivery paths iterate this flat window verbatim.
    active: ActiveWindow<Transmission>,
    /// The same live transmissions bucketed by grid cell
    /// ([`SpatialActiveWindow`]): the incremental path gathers only the
    /// frames *near* a query's receivers, in O(nearby) instead of
    /// O(active set), then replays them in insertion order so every
    /// interference sum stays bit-identical to the flat scan. Maintained
    /// in lockstep with `active` (same insertions, same prunes, same
    /// sequence numbers).
    frames: SpatialActiveWindow<Transmission>,
    metrics: BroadcastMetrics,
    counters: SimCounters,
    broadcast_started: bool,
    /// Queued events that will call into the protocol: armed timers plus
    /// data frames on air (each frame end calls `on_receive`). Zero after
    /// the broadcast started means no callback can ever run again (see
    /// [`beacon_unread`](World::beacon_unread)).
    protocol_events: u64,
    /// Test-only fully maintained neighbour tables (see [`ShadowTables`]).
    #[cfg(test)]
    shadow: Option<ShadowTables>,
    /// Spatial index over node positions (see module docs).
    grid: SpatialGrid,
    /// Flat SoA copy of every node's current mobility segment — the
    /// cache-friendly lanes the incremental delivery query evaluates
    /// exact positions from (bit-identical to the `mobility` structs).
    snapshot: KinematicSnapshot,
    /// Per-node refresh generation; bumped whenever a node's mobility
    /// segment changes so in-flight [`Event::GridRefresh`]s go stale.
    refresh_gen: Vec<u32>,
    /// Live (non-stale) grid-refresh events handled so far.
    refresh_events: u64,
    /// Scratch: candidate receiver ids from a grid query (historical
    /// delivery modes).
    candidate_scratch: Vec<usize>,
    /// The sequential delivery pipeline's mutable state — sweep, scratch
    /// buffers, shadow cache and profile, bundled so the sharded path can
    /// give every worker an identical private copy (see [`QueryScratch`]).
    scratch: QueryScratch,
    /// Space-sharded delivery resolution, when enabled
    /// ([`Simulator::set_delivery_shards`]); `None` keeps the sequential
    /// path byte-for-byte.
    shard: Option<Box<ShardedDelivery>>,
    /// Scratch: successful deliveries of the current frame.
    delivery_scratch: Vec<(NodeId, f64)>,
    /// Largest (ε-inflated) interference gating radius of any transmission
    /// since reset — a monotone bound on how far any live frame can
    /// matter, used to size the per-query frame gather.
    max_gate_r: f64,
    /// How far a receiver can drift from one of its *own* frames during
    /// the longest possible frame overlap — the gather disc is widened by
    /// this so half-duplex detection can never miss a receiver's own
    /// transmission.
    hd_reach: f64,
    /// `dbm_to_mw(capture_db)`, hoisted out of the per-candidate outcome
    /// test (bit-identical: same input, same `powf`).
    capture_ratio_mw: f64,
    /// One-entry memo of [`TxRadii::new`] keyed by the transmit power's
    /// bit pattern (`u64::MAX`, a NaN pattern, when empty; cleared on
    /// reset because the radio may change).
    tx_radii_memo: (u64, TxRadii),
    /// Which delivery path resolves receivers (see [`DeliveryMode`]).
    mode: DeliveryMode,
    /// Whether delivery queries sample wall time into the profile.
    profile_on: bool,
}

/// The mutable per-worker state of the snapshot delivery pipeline: the
/// batched candidate sweep, the query scratch buffers, the per-receiver
/// shadowing cache and the accumulated [`QueryProfile`].
///
/// The sequential path owns one instance (`World::scratch`); the sharded
/// path gives each stripe worker its own, so the *identical* kernel
/// ([`resolve_query`]) runs with zero shared mutable state. Every field is
/// either a pure cache of a deterministic function (shadow draws, the
/// decode-radius memo) or query-local scratch, so worker-private copies
/// cannot change any outcome.
#[derive(Debug)]
struct QueryScratch {
    /// The batched candidate filter (fixed-width lane sweeps over the
    /// snapshot plus the per-cell event-horizon cache) driving the
    /// incremental delivery query — see [`crate::sweep`].
    sweep: DeliverySweep,
    /// Scratch: `(id, exact position, squared distance)` of candidates
    /// surviving the snapshot filter — the position and distance feed
    /// straight into the outcome test.
    filtered: Vec<(NodeId, Vec2, f64)>,
    /// One-entry memo of [`decode_radius`](QueryScratch::decode_radius)
    /// keyed by the transmit power's bit pattern: the radius costs a
    /// `powf` per call, every delivery query needs it, and in practice
    /// transmissions cycle through a handful of power classes.
    decode_radius_memo: (u64, f64),
    /// One-entry memo of the shadowed decode's [`ShadowLadder`], keyed
    /// like `decode_radius_memo` by the transmit power's bit pattern
    /// (17 `powf` and 17 `exp` to build).
    ladder_memo: (u64, ShadowLadder),
    /// Scratch: per filtered candidate of a shadowed query, its
    /// Box–Muller uniforms and whether the reject ladder left it for the
    /// exact test.
    kept: Vec<((f64, f64), bool)>,
    /// Scratch: candidates that passed the (log-free) decode test, with
    /// their received power (NaN = deferred: computed only if the capture
    /// comparison or a delivery actually needs it).
    decodable: Vec<(NodeId, Vec2, f64, f64)>,
    /// Scratch: `(seq, frame)` gathered from the spatial window for the
    /// current query, sorted by `seq` to replay insertion order.
    frames: Vec<(u64, Transmission)>,
    /// Per-node cache of `link_shadowing_db(·, sender, receiver)` draws
    /// for the receiver currently under evaluation: one draw per
    /// (transmitter, receiver) pair is shared across all of that
    /// transmitter's overlapping frames in the query. Keyed by a
    /// monotonically bumped epoch so invalidation is O(1). The draw is a
    /// pure hash of (σ, seed, sender, receiver), so per-worker caches are
    /// exact regardless of which worker evaluates which query.
    shadow_val: Vec<f64>,
    shadow_stamp: Vec<u64>,
    shadow_epoch: u64,
    /// Accumulated query-phase timings (zeroed on reset).
    profile: QueryProfile,
}

impl Default for QueryScratch {
    fn default() -> Self {
        QueryScratch {
            sweep: DeliverySweep::new(),
            filtered: Vec::new(),
            // `u64::MAX` is a NaN bit pattern, so a real power never
            // collides with the initial sentinel.
            decode_radius_memo: (u64::MAX, 0.0),
            ladder_memo: (u64::MAX, ShadowLadder::default()),
            kept: Vec::new(),
            decodable: Vec::new(),
            frames: Vec::new(),
            shadow_val: Vec::new(),
            shadow_stamp: Vec::new(),
            shadow_epoch: 0,
            profile: QueryProfile::default(),
        }
    }
}

impl QueryScratch {
    /// Re-arms the scratch for a world of `n_cells` grid cells and
    /// `n_nodes` nodes, keeping allocations.
    fn reset(&mut self, n_cells: usize, n_nodes: usize) {
        self.sweep.reset(n_cells, n_nodes);
        self.filtered.clear();
        self.decodable.clear();
        self.kept.clear();
        self.frames.clear();
        self.shadow_val.clear();
        self.shadow_val.resize(n_nodes, 0.0);
        self.shadow_stamp.clear();
        self.shadow_stamp.resize(n_nodes, 0);
        self.shadow_epoch = 0;
        self.decode_radius_memo = (u64::MAX, 0.0);
        self.ladder_memo.0 = u64::MAX;
        self.profile = QueryProfile::default();
    }

    /// The finite radius within which `tx` can possibly be decoded:
    /// the bounded-tail decode range (shadowing gain truncated at `+4σ`)
    /// inflated against floating-point rounding at the exact boundary.
    fn decode_radius(&mut self, radio: &RadioConfig, tx: &Transmission) -> f64 {
        let bits = tx.tx_dbm.to_bits();
        if self.decode_radius_memo.0 == bits {
            return self.decode_radius_memo.1;
        }
        let r = radio.max_decode_range(tx.tx_dbm) * (1.0 + RANGE_EPSILON) + RANGE_EPSILON;
        self.decode_radius_memo = (bits, r);
        r
    }

    /// The [`ShadowLadder`] of a transmission at `tx_dbm` (memoised per
    /// power class; the radio only changes on reset, which clears it).
    fn shadow_ladder(&mut self, radio: &RadioConfig, tx_dbm: f64) -> &ShadowLadder {
        let bits = tx_dbm.to_bits();
        if self.ladder_memo.0 != bits {
            self.ladder_memo = (bits, ShadowLadder::new(radio, tx_dbm));
        }
        &self.ladder_memo.1
    }
}

/// The read-only inputs of a delivery query, shared by the sequential
/// path and (frozen for the duration of a flush) by every shard worker.
/// All references point into `World` state that only mutates on flush
/// boundaries: grid updates, snapshot re-anchors and frame-window
/// insertions come from events that force a flush before they dispatch
/// (beacon *starts* are the one exception, argued safe in
/// [`World::flush_sharded`]).
struct QueryCtx<'a> {
    grid: &'a SpatialGrid,
    snapshot: &'a KinematicSnapshot,
    frames: &'a SpatialActiveWindow<Transmission>,
    radio: &'a RadioConfig,
    seed: u64,
    capture_ratio_mw: f64,
    /// `max_gate_r.max(hd_reach)` — how far beyond the decode disc the
    /// frame gather must reach. Growing it between a query's event time
    /// and its deferred resolution only gathers a superset of frames,
    /// every extra one skipped by its own gate/overlap test.
    extra_reach: f64,
}

/// One worker of the sharded delivery path: a private pipeline scratch
/// plus the per-query outcome storage the merge step replays.
#[derive(Debug, Default)]
struct ShardWorker {
    scratch: QueryScratch,
    /// `(query index, first delivery, delivery count)` per owned query of
    /// the current flush, in ascending query order (each worker scans the
    /// batch in order, so its results are naturally sorted).
    results: Vec<(u32, u32, u32)>,
    /// Flat `(receiver, rx_dbm)` deliveries the `results` ranges index
    /// (none for an unread beacon, which only counts).
    deliveries: Vec<(NodeId, f64)>,
    /// Reception and loss tallies of the current flush — order-free u64
    /// sums, folded into the world counters at merge time.
    tally: QueryTally,
}

/// State of space-sharded delivery resolution (see
/// [`Simulator::set_delivery_shards`]): queued beacon queries, one
/// [`ShardWorker`] per stripe and the persistent thread pool.
struct ShardedDelivery {
    shards: usize,
    pool: ShardPool,
    workers: Vec<ShardWorker>,
    /// Beacon TxEnds queued since the last flush, in event order, each
    /// with whether a protocol can read its receptions
    /// ([`World::beacon_unread`] at its frame end).
    pending: Vec<(Transmission, bool)>,
    /// Per-worker result cursors of the merge step (reused scratch).
    cursors: Vec<usize>,
}

/// Raw base pointer to the worker array, shareable with the pool's
/// threads. Safety contract: each worker index is touched by exactly one
/// thread of a dispatch.
struct WorkerPtr(*mut ShardWorker);
unsafe impl Send for WorkerPtr {}
unsafe impl Sync for WorkerPtr {}

impl WorkerPtr {
    /// Pointer to worker `k`. A method (rather than direct field access
    /// in the dispatch closure) so the closure captures the whole `Sync`
    /// wrapper instead of the bare raw pointer field.
    fn slot(&self, k: usize) -> *mut ShardWorker {
        unsafe { self.0.add(k) }
    }
}

/// Queued sharded queries are flushed at this batch size even without a
/// boundary event: stationary worlds can go many simulated seconds
/// without one, and the batch must not grow with the run length. Flushing
/// early is always safe — a flush point merely resolves the queued
/// queries exactly as the sequential path already would have.
const SHARD_BATCH_CAP: usize = 1024;

/// Test-only fully maintained neighbour tables: every beacon reception,
/// read or not, observed with its exact received power from the naive
/// per-receiver test ([`World::receive_outcome`]). Installed, it makes
/// every protocol read assert that the simulator's tables, whose dead
/// writes [`World::beacon_unread`] elides, answer exactly as these do.
#[cfg(test)]
struct ShadowTables {
    tables: Vec<NeighborTable>,
    /// Protocol reads checked so far.
    reads: std::cell::Cell<u64>,
}

#[cfg(test)]
impl ShadowTables {
    fn check_read(&self, node: NodeId, now: f64, got: &[NeighborEntry]) {
        self.reads.set(self.reads.get() + 1);
        assert_eq!(
            got,
            self.tables[node].live(now),
            "table of node {node} read at {now}"
        );
    }
}

/// What one delivery query (or a batch of them) counted: successful
/// receptions and the two kinds of loss. Order-free u64 sums.
#[derive(Debug, Clone, Copy, Default)]
struct QueryTally {
    received: u64,
    half_duplex: u64,
    collided: u64,
}

impl std::ops::AddAssign for QueryTally {
    fn add_assign(&mut self, other: QueryTally) {
        self.received += other.received;
        self.half_duplex += other.half_duplex;
        self.collided += other.collided;
    }
}

/// Outcome of the exact per-receiver delivery test.
enum Reception {
    OutOfRange,
    HalfDuplex,
    Collided,
    Delivered(f64),
}

impl World {
    fn empty(spec: WorldSpec) -> Self {
        let max_tx = spec.max_tx_dbm();
        let grid = SpatialGrid::new(spec.field, grid_cell(&spec.radio, spec.field, max_tx));
        let frames = SpatialActiveWindow::new(
            CellGeometry::new(spec.field, frame_cell(&spec.radio, spec.field, max_tx)),
            2,
        );
        let snapshot = KinematicSnapshot::new(spec.field);
        let metrics = BroadcastMetrics::new(spec.source, spec.broadcast_time);
        let mut world = World {
            spec,
            n_nodes: 0,
            node_tx: Vec::new(),
            max_speed: 0.0,
            queue: EventQueue::new(),
            txs: Slab::new(),
            mobility: Vec::new(),
            tables: Vec::new(),
            rng: SmallRng::seed_from_u64(0),
            active: ActiveWindow::new(2),
            frames,
            metrics,
            counters: SimCounters::default(),
            broadcast_started: false,
            protocol_events: 0,
            #[cfg(test)]
            shadow: None,
            grid,
            snapshot,
            refresh_gen: Vec::new(),
            refresh_events: 0,
            candidate_scratch: Vec::new(),
            scratch: QueryScratch::default(),
            shard: None,
            delivery_scratch: Vec::new(),
            max_gate_r: 0.0,
            hd_reach: 0.0,
            capture_ratio_mw: 0.0,
            tx_radii_memo: (u64::MAX, TxRadii::default()),
            mode: DeliveryMode::default(),
            profile_on: false,
        };
        let spec = world.spec.clone();
        world.reset(spec);
        world
    }

    /// Re-arms the world for `spec`, reusing every allocation: the event
    /// queue, mobility states, neighbour tables, the `recent` ring, the
    /// spatial grid and the scratch buffers all keep their capacity.
    fn reset(&mut self, spec: WorldSpec) {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        let n_nodes = spec.n_nodes();
        assert!(
            n_nodes < u32::MAX as usize,
            "node ids must fit the simulator's u32 event fields"
        );
        let max_tx = spec.max_tx_dbm();

        let cell = grid_cell(&spec.radio, spec.field, max_tx);
        if spec.field != self.spec.field || (cell - self.grid.cell_size()).abs() > 1e-12 {
            self.grid = SpatialGrid::new(spec.field, cell);
        }
        self.grid.reset_stats();
        let fcell = frame_cell(&spec.radio, spec.field, max_tx);
        let fgeom = CellGeometry::new(spec.field, fcell);
        if fgeom != self.frames.geometry() {
            // No frames are in flight at reset, so this is a pure
            // re-decomposition (the migration path is still exercised by
            // the events-module tests).
            self.frames.reset_geometry(fgeom);
        }
        self.refresh_events = 0;

        self.queue.clear();
        self.txs.clear();
        self.rng = SmallRng::seed_from_u64(spec.seed);
        self.mobility.clear();
        self.node_tx.clear();
        // Size once instead of doubling through the pushes below: every
        // node queues a beacon, a mobility change and a grid refresh.
        self.queue.reserve(3 * n_nodes + 1);
        self.mobility.reserve(n_nodes);
        self.node_tx.reserve(n_nodes);
        let mut node = 0usize;
        for group in &spec.groups {
            let tx = group.tx_power_dbm.unwrap_or(spec.radio.default_tx_dbm);
            for member in 0..group.n {
                let start = match &group.placement {
                    GroupPlacement::Uniform => Vec2::new(
                        self.rng.gen_range(0.0..spec.field.width),
                        self.rng.gen_range(0.0..spec.field.height),
                    ),
                    GroupPlacement::Rect { min, max } => Vec2::new(
                        self.rng.gen_range(min.x..max.x),
                        self.rng.gen_range(min.y..max.y),
                    ),
                    GroupPlacement::Explicit(pts) => pts[member],
                };
                let m = match group.mobility {
                    MobilityModel::RandomWalk { change_interval } => {
                        AnyMobility::Walk(RandomWalk::new(
                            spec.field,
                            start,
                            group.speed_range,
                            change_interval,
                            0.0,
                            &mut self.rng,
                        ))
                    }
                    MobilityModel::RandomWaypoint { pause } => {
                        AnyMobility::Waypoint(RandomWaypoint::new(
                            spec.field,
                            start,
                            (group.speed_range.0.max(0.1), group.speed_range.1.max(0.2)),
                            pause,
                            0.0,
                            &mut self.rng,
                        ))
                    }
                    MobilityModel::Stationary => AnyMobility::Still(Stationary { pos: start }),
                };
                if m.next_change().is_finite() {
                    self.queue
                        .schedule(m.next_change(), Event::MobilityChange(id32(node)));
                }
                self.mobility.push(m);
                self.node_tx.push(tx);
                // Desynchronised beacon phases.
                let offset = self.rng.gen_range(0.0..spec.beacon_interval);
                self.queue.schedule(offset, Event::Beacon(id32(node)));
                node += 1;
            }
        }
        self.queue.schedule(
            spec.broadcast_time,
            Event::StartBroadcast(id32(spec.source)),
        );

        if self.tables.len() > n_nodes {
            self.tables.truncate(n_nodes);
        }
        for t in &mut self.tables {
            t.reset(spec.neighbor_expiry);
        }
        self.tables
            .resize_with(n_nodes, || NeighborTable::new(spec.neighbor_expiry));

        self.active.clear();
        self.frames.clear();
        self.metrics.reset(spec.source, spec.broadcast_time);
        self.counters = SimCounters::default();
        self.broadcast_started = false;
        self.protocol_events = 0;
        self.candidate_scratch.clear();
        self.delivery_scratch.clear();
        self.max_gate_r = 0.0;
        // Worst-case drift between a receiver and its own frozen frame
        // position over any possible frame overlap (two full on-air
        // durations), plus a metre of slack — see `hd_reach`'s field docs.
        let max_duration = spec.radio.beacon_duration.max(spec.radio.data_duration);
        self.capture_ratio_mw = dbm_to_mw(spec.radio.capture_db);
        self.tx_radii_memo.0 = u64::MAX;
        self.max_speed = spec.max_speed();
        self.n_nodes = n_nodes;
        self.spec = spec;
        self.hd_reach = self.max_speed * 2.0 * max_duration + 1.0;

        // Initial placement of the spatial index (the first "rebuild" of
        // either grid discipline) and of the SoA kinematic snapshot, then
        // one cell-crossing refresh per node. Refresh *scheduling* is
        // mode-independent — it depends only on mobility and cell
        // geometry — so every DeliveryMode processes an identical event
        // stream and parity comparisons are exact.
        let n = self.n_nodes;
        let mobility = &self.mobility;
        self.grid.rebuild(n, 0.0, |i| mobility[i].position(0.0));
        self.snapshot
            .rebuild(self.spec.field, mobility.iter().map(|m| m.segment()));
        let n_cells = self.grid.geometry().n_cells();
        self.scratch.reset(n_cells, n);
        if let Some(sd) = &mut self.shard {
            sd.pending.clear();
            for w in &mut sd.workers {
                w.scratch.reset(n_cells, n);
                w.results.clear();
                w.deliveries.clear();
                w.tally = QueryTally::default();
            }
        }
        self.refresh_gen.clear();
        self.refresh_gen.resize(n, 0);
        for node in 0..n {
            self.schedule_grid_refresh(node);
        }
    }

    /// Schedules `node`'s next grid refresh at the earliest time it could
    /// leave its current cell: `max(distance-to-edge, slack) / speed`.
    /// Over-reporting speed or under-reporting distance only fires the
    /// refresh early, so the bucket can never lag its node by more than
    /// [`GRID_BUCKET_SLACK_M`] metres.
    fn schedule_grid_refresh(&mut self, node: NodeId) {
        let now = self.queue.now();
        let speed = self.mobility[node].speed(now);
        if speed <= 0.0 {
            return; // parked until the next mobility change re-anchors it
        }
        let p = self.mobility[node].position(now);
        let dt = self.grid.boundary_distance(p).max(GRID_BUCKET_SLACK_M) / speed;
        if !dt.is_finite() {
            return;
        }
        let gen = self.refresh_gen[node];
        let node = id32(node);
        self.queue
            .schedule(now + dt, Event::GridRefresh { node, gen });
    }

    /// Handles a [`Event::GridRefresh`]: ignores it when stale, otherwise
    /// applies the O(1) bucket move (incremental mode only — the other
    /// modes keep their own maintenance discipline but see the same event
    /// stream) and schedules the next refresh.
    fn handle_grid_refresh(&mut self, node: NodeId, gen: u32) {
        if self.refresh_gen[node] != gen {
            return;
        }
        self.refresh_events += 1;
        if self.mode == DeliveryMode::Incremental {
            let p = self.mobility[node].position(self.queue.now());
            if self.grid.update_node(node, p) {
                // the node entered a new cell: its event-horizon bound no
                // longer covers every member
                let cell = self.grid.node_cell(node);
                self.invalidate_sweep_cell(cell);
            }
        }
        self.schedule_grid_refresh(node);
    }

    /// Re-anchors `node`'s refresh schedule after its mobility segment
    /// changed: refreshes the node's SoA snapshot lanes in O(1) (every
    /// mode — the snapshot must always mirror the mobility structs),
    /// stale-marks any in-flight refresh, re-buckets the node at its
    /// current (exact) position and schedules against the new speed.
    fn reanchor_grid_refresh(&mut self, node: NodeId) {
        self.snapshot.set(node, self.mobility[node].segment());
        self.refresh_gen[node] = self.refresh_gen[node].wrapping_add(1);
        if self.mode == DeliveryMode::Incremental {
            let p = self.mobility[node].position(self.queue.now());
            self.grid.update_node(node, p);
            // the node's speed/heading (and possibly cell) changed: the
            // cached event horizon of the cell it now occupies is stale
            let cell = self.grid.node_cell(node);
            self.invalidate_sweep_cell(cell);
        }
        self.schedule_grid_refresh(node);
    }

    /// Invalidates one cell's cached event horizon in *every* sweep: the
    /// sequential scratch plus, when sharding is active, each worker's
    /// private sweep. The callers all run on flush boundaries
    /// (mobility/refresh events force a flush first), so no batch is in
    /// flight while a bound goes stale.
    fn invalidate_sweep_cell(&mut self, cell: usize) {
        self.scratch.sweep.invalidate_cell(cell);
        if let Some(sd) = &mut self.shard {
            for w in &mut sd.workers {
                w.scratch.sweep.invalidate_cell(cell);
            }
        }
    }

    /// Invalidates every cached event horizon in every sweep (see
    /// [`invalidate_sweep_cell`](Self::invalidate_sweep_cell)).
    fn invalidate_sweep_all(&mut self) {
        self.scratch.sweep.invalidate_all();
        if let Some(sd) = &mut self.shard {
            for w in &mut sd.workers {
                w.scratch.sweep.invalidate_all();
            }
        }
    }

    fn position(&self, node: NodeId, t: f64) -> Vec2 {
        self.mobility[node].position(t)
    }

    fn start_transmission(&mut self, node: NodeId, tx_dbm: f64, kind: FrameKind) {
        let now = self.queue.now();
        let duration = match kind {
            FrameKind::Beacon => self.spec.radio.beacon_duration,
            FrameKind::Data => self.spec.radio.data_duration,
        };
        if self.tx_radii_memo.0 != tx_dbm.to_bits() {
            self.tx_radii_memo = (tx_dbm.to_bits(), TxRadii::new(&self.spec.radio, tx_dbm));
        }
        let radii = self.tx_radii_memo.1;
        let tx = Transmission {
            sender: node,
            pos: self.snapshot.position(node, now),
            tx_dbm,
            start: now,
            end: now + duration,
            kind,
            gate_r2: radii.gate * radii.gate,
            decode_lo_r2: radii.decode_lo_r2,
            decode_hi_r2: radii.decode_hi_r2,
            floor_hi_r2: radii.floor_hi_r2,
        };
        match kind {
            FrameKind::Beacon => self.counters.beacons_sent += 1,
            FrameKind::Data => {
                self.counters.data_sent += 1;
                self.metrics.record_transmission(node, tx_dbm);
            }
        }
        self.max_gate_r = self.max_gate_r.max(radii.gate);
        self.active.insert(kind.lane(), tx.end, tx);
        self.frames.insert(kind.lane(), tx.end, tx.pos, tx);
        let key = self.txs.insert(tx);
        self.queue.schedule(tx.end, Event::TxEnd(key));
    }

    /// Exact delivery test for receiver `r` under propagation, half-duplex
    /// and capture rules — shared verbatim by the grid-indexed and naive
    /// paths, which therefore cannot diverge.
    fn receive_outcome(&self, tx: &Transmission, r: NodeId) -> Reception {
        let pl = self.spec.radio.path_loss;
        let sens = self.spec.radio.rx_sensitivity_dbm;
        let capture_ratio = dbm_to_mw(self.spec.radio.capture_db);
        let sigma = self.spec.radio.shadowing_sigma_db;
        let seed = self.spec.seed;
        // Receiver position sampled at frame end (= now): frames last
        // milliseconds while nodes move at ≤ 2 m/s, so start-vs-end
        // sampling differs by millimetres — but `now` is always ahead
        // of any mobility-segment origin, keeping queries monotone.
        let rpos = self.position(r, tx.end);
        let rx_dbm = pl.rx_dbm(tx.tx_dbm, tx.pos.distance(rpos))
            + crate::radio::link_shadowing_db(sigma, seed, tx.sender, r);
        if rx_dbm < sens {
            return Reception::OutOfRange;
        }
        // Half duplex: a node that transmitted during the frame loses it.
        let mut interference_mw = 0.0;
        for o in self.active.iter() {
            if o.start >= tx.end || o.end <= tx.start {
                continue; // no overlap
            }
            if o.sender == tx.sender && o.start == tx.start && o.end == tx.end {
                continue; // the frame itself (copy in the log)
            }
            if o.sender == r {
                return Reception::HalfDuplex;
            }
            let o_rx = pl.rx_dbm(o.tx_dbm, o.pos.distance(rpos))
                + crate::radio::link_shadowing_db(sigma, seed, o.sender, r);
            if o_rx >= sens - INTERFERENCE_FLOOR_DB {
                // Only energy near the sensitivity floor matters.
                interference_mw += dbm_to_mw(o_rx);
            }
        }
        if interference_mw > 0.0 && dbm_to_mw(rx_dbm) < capture_ratio * interference_mw {
            return Reception::Collided;
        }
        Reception::Delivered(rx_dbm)
    }

    /// Feeds the frame ending under `key` to the installed
    /// [`ShadowTables`], if any: a beacon's receivers, found by the naive
    /// scan at its frame end, each observe it with their exact power.
    #[cfg(test)]
    fn shadow_observe(&mut self, key: u32) {
        let Some(mut shadow) = self.shadow.take() else {
            return;
        };
        let tx = *self.txs.get(key);
        if tx.kind == FrameKind::Beacon {
            for r in (0..self.n_nodes).filter(|&r| r != tx.sender) {
                if let Reception::Delivered(rx_dbm) = self.receive_outcome(&tx, r) {
                    shadow.tables[r].observe(tx.sender, rx_dbm, tx.tx_dbm, tx.end);
                }
            }
        }
        self.shadow = Some(shadow);
    }

    /// Folds the receptions and losses of one or more queries of `kind`
    /// frames into the world counters: u64 sums, so folding per receiver,
    /// per query or per sharded batch is identical.
    fn apply_tally(&mut self, kind: FrameKind, tally: QueryTally) {
        match kind {
            FrameKind::Beacon => self.counters.beacons_received += tally.received,
            FrameKind::Data => {
                self.counters.data_received += tally.received;
                self.metrics.collisions += (tally.half_duplex + tally.collided) as usize;
            }
        }
        self.counters.half_duplex_losses += tally.half_duplex;
        self.counters.collision_losses += tally.collided;
    }

    /// The read horizon: whether the receptions of a beacon ending at `t`
    /// can never be seen by a protocol, so recording them in the
    /// neighbour tables (and computing the received power only those
    /// records need) is a dead write. Such a beacon still counts its
    /// receptions and losses; only the table writes are skipped.
    ///
    /// Tables are read only through [`ProtocolApi`], and only a protocol
    /// callback holds one: `on_start` at the broadcast, `on_timer`, and
    /// `on_receive` at a data frame's end. A read at time `now` returns
    /// the entries with `now − last_seen ≤ neighbor_expiry`, each id's
    /// latest write winning. A write no read can return changes no read:
    /// a later write of the same id overwrites it, and an earlier one is
    /// older still, so it is unreadable too. Eviction drops only stale
    /// entries, which reads filter anyway. A reception at `t` is dead in
    /// two cases:
    ///
    /// * **Warm-up.** The broadcast has not started and
    ///   `broadcast_time − t > neighbor_expiry`. Every callback runs at
    ///   `now ≥ broadcast_time`, and float subtraction is monotone in its
    ///   first operand, so `now − t ≥ broadcast_time − t > expiry`: the
    ///   read's own compare rejects the entry.
    /// * **Quiescence.** The broadcast has started and
    ///   [`protocol_events`](World::protocol_events) is zero: no timer is
    ///   armed and no data frame is on air. Callbacks only arise from those
    ///   events, and new ones are only queued from callbacks, so no
    ///   callback ever runs again.
    ///
    /// Every [`DeliveryMode`] and the sharded path apply this one rule at
    /// the beacon's frame end, so reports, counters and every protocol
    /// read stay bit-identical; [`Simulator`] tests pin it against
    /// fully maintained tables at every read. Reads from outside a
    /// callback (a harness inspecting `tables` mid-run) are outside the
    /// contract.
    fn beacon_unread(&self, t: f64) -> bool {
        if self.broadcast_started {
            self.protocol_events == 0
        } else {
            self.spec.broadcast_time - t > self.spec.neighbor_expiry
        }
    }

    /// Resolves `tx` under propagation, half-duplex and capture rules and
    /// counts its receptions and losses ([`apply_tally`](World::apply_tally)).
    /// With `out`, the receivers are also appended as `(node, rx_dbm)` in
    /// ascending node order; without it the query only counts (a beacon
    /// nobody can read, see [`beacon_unread`](World::beacon_unread)), which
    /// lets the snapshot path skip received powers no compare needs. The candidate
    /// pre-filter depends on the [`DeliveryMode`]; the exact per-receiver
    /// test is shared arithmetic (see [`compute_deliveries_snapshot`]), so
    /// every mode produces identical results.
    ///
    /// [`compute_deliveries_snapshot`]: World::compute_deliveries_snapshot
    fn compute_deliveries(&mut self, tx: &Transmission, out: Option<&mut Vec<(NodeId, f64)>>) {
        let t_start = self.profile_on.then(Instant::now);
        // Transmissions that ended at or before this frame's start can no
        // longer overlap it — nor any future frame, since simulation time
        // is monotone. O(expired), so total prune work is bounded by the
        // number of transmissions. Both views of the active set are pruned
        // in lockstep.
        self.active.prune(tx.start);
        self.frames.prune(tx.start);
        if self.mode == DeliveryMode::Incremental {
            self.compute_deliveries_snapshot(tx, out, t_start);
        } else {
            self.compute_deliveries_historical(tx, out, t_start);
        }
    }

    /// The optimised delivery query (the default [`DeliveryMode`]):
    /// iterates the grid cells overlapping the decode disc directly into a
    /// filter over the SoA kinematic snapshot — no intermediate id list,
    /// no per-candidate `dyn Mobility` dispatch — then resolves outcomes
    /// in two passes whose arithmetic is bit-identical to the historical
    /// per-receiver test ([`receive_outcome`](World::receive_outcome)):
    ///
    /// 1. **decode**: unshadowed, the `rx ≥ sensitivity` comparison is a
    ///    squared-distance compare against the frame's precomputed
    ///    [`threshold band`](crate::radio::PathLoss::threshold_band_sq) —
    ///    no `log10`; the received power of a decodable candidate is
    ///    deferred until a delivery (or capture comparison) actually needs
    ///    it. Shadowed, the per-power-class [`ShadowLadder`] rejects most
    ///    out-of-reach links from the link hash's Box–Muller uniforms and
    ///    squared distance alone; only the survivors run the dB-domain
    ///    test with the per-link draw.
    /// 2. **interference**: live frames near this query are gathered
    ///    *once* from the [`SpatialActiveWindow`] (O(nearby), not
    ///    O(active set); not at all when nobody decodes) and replayed per
    ///    decodable receiver in insertion
    ///    order, so every interference sum accumulates in exactly the
    ///    historical order. Frames beyond their own floor/gating radius
    ///    are skipped by a squared-distance compare — terms the historical
    ///    loop evaluates and then discards, so the sums cannot differ.
    ///
    /// Dropping candidates beyond the decode radius cannot change any
    /// outcome (they can neither decode nor register a loss); the filter
    /// predicate is bit-identical to the historical
    /// `position(t).distance_sq(pos) <= r²` retain. The gather disc covers
    /// every frame that could matter to any candidate: the decode radius
    /// (bounding candidate positions) plus the largest live gating radius
    /// (bounding interference reach) and the half-duplex drift bound
    /// (bounding how far a receiver's own frozen frame can sit from its
    /// current position).
    fn compute_deliveries_snapshot(
        &mut self,
        tx: &Transmission,
        out: Option<&mut Vec<(NodeId, f64)>>,
        t_start: Option<Instant>,
    ) {
        let ctx = QueryCtx {
            grid: &self.grid,
            snapshot: &self.snapshot,
            frames: &self.frames,
            radio: &self.spec.radio,
            seed: self.spec.seed,
            capture_ratio_mw: self.capture_ratio_mw,
            extra_reach: self.max_gate_r.max(self.hd_reach),
        };
        let tally = resolve_query(&ctx, &mut self.scratch, tx, t_start, out);
        self.apply_tally(tx.kind, tally);
    }

    /// The historical delivery queries, kept verbatim as measured
    /// baselines: the naive all-nodes scan and the horizon-rebuild grid
    /// with its staleness margin, both resolving every candidate through
    /// the original [`receive_outcome`](World::receive_outcome) (virtual
    /// mobility dispatch, ungated interference loop).
    fn compute_deliveries_historical(
        &mut self,
        tx: &Transmission,
        mut out: Option<&mut Vec<(NodeId, f64)>>,
        t_start: Option<Instant>,
    ) {
        let mut candidates = std::mem::take(&mut self.candidate_scratch);
        candidates.clear();
        match self.mode {
            DeliveryMode::Naive => candidates.extend(0..self.n_nodes),
            DeliveryMode::HorizonRebuild => {
                let t = tx.end;
                if t - self.grid.built_at() > GRID_REBUILD_HORIZON {
                    let mobility = &self.mobility;
                    self.grid
                        .rebuild(self.n_nodes, t, |i| mobility[i].position(t));
                }
                // A node bucketed at the last rebuild can have drifted at
                // most v_max · staleness from its stored position.
                let staleness = (t - self.grid.built_at()).max(0.0);
                let radius =
                    self.scratch.decode_radius(&self.spec.radio, tx) + self.max_speed * staleness;
                self.grid.candidates_within(tx.pos, radius, &mut candidates);
            }
            DeliveryMode::Incremental => unreachable!("handled by the snapshot path"),
        }
        // Ascending node order: delivery order feeds protocol callbacks
        // (and their RNG draws), so every mode must match the naive scan.
        if self.mode != DeliveryMode::Naive {
            candidates.sort_unstable();
        }
        let t_mid = self.profile_on.then(Instant::now);
        let mut tally = QueryTally::default();
        for &r in &candidates {
            if r == tx.sender {
                continue;
            }
            match self.receive_outcome(tx, r) {
                Reception::OutOfRange => {}
                Reception::HalfDuplex => tally.half_duplex += 1,
                Reception::Collided => tally.collided += 1,
                Reception::Delivered(rx_dbm) => {
                    tally.received += 1;
                    if let Some(out) = out.as_deref_mut() {
                        out.push((r, rx_dbm));
                    }
                }
            }
        }
        self.apply_tally(tx.kind, tally);
        self.candidate_scratch = candidates;
        self.record_profile(t_start, t_mid);
    }

    /// Folds one query's phase timings into the accumulated profile.
    fn record_profile(&mut self, t_start: Option<Instant>, t_mid: Option<Instant>) {
        if let (Some(start), Some(mid)) = (t_start, t_mid) {
            self.scratch.profile.filter_s += (mid - start).as_secs_f64();
            self.scratch.profile.outcome_s += mid.elapsed().as_secs_f64();
        }
    }

    /// (Re)configures space-sharded delivery resolution: `shards ≤ 1`
    /// restores the sequential path, anything larger builds (or resizes)
    /// the worker pool. Any queued batch is flushed first, so the switch
    /// is transparent to results.
    fn set_delivery_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        self.flush_sharded();
        if shards == 1 {
            self.shard = None;
            return;
        }
        if let Some(sd) = &self.shard {
            if sd.shards == shards {
                return;
            }
        }
        let n_cells = self.grid.geometry().n_cells();
        let n = self.n_nodes;
        let workers = (0..shards)
            .map(|_| {
                let mut w = ShardWorker::default();
                w.scratch.reset(n_cells, n);
                w
            })
            .collect();
        self.shard = Some(Box::new(ShardedDelivery {
            shards,
            pool: ShardPool::new(shards - 1),
            workers,
            pending: Vec::new(),
            cursors: Vec::new(),
        }));
    }

    /// Queues a beacon TxEnd for the next sharded flush instead of
    /// resolving it inline; returns whether the caller must flush now
    /// (batch cap reached). Only called when sharding is active on the
    /// incremental path.
    fn defer_beacon_txend(&mut self, tx: &Transmission) -> bool {
        // Decided now, at the frame end, exactly as the sequential
        // dispatch would (only beacon events run before the flush, and
        // they change neither input of the rule).
        let read = !self.beacon_unread(tx.end);
        let sd = self.shard.as_mut().expect("sharding checked by caller");
        sd.pending.push((*tx, read));
        sd.pending.len() >= SHARD_BATCH_CAP
    }

    /// Resolves every queued beacon query shard-parallel and merges the
    /// outcomes in original event order — bit-identically to dispatching
    /// each TxEnd sequentially. The correctness argument:
    ///
    /// * **Ownership**: each query is owned by the stripe of its sender's
    ///   cell column ([`CellGeometry::stripe_of`]) — a pure function of
    ///   frozen state, so the assignment is deterministic. Workers scan
    ///   the batch in order, so each worker resolves its owned queries in
    ///   ascending event order against its private [`QueryScratch`].
    /// * **Frozen inputs**: grid, snapshot and mobility only mutate on
    ///   events that force a flush before dispatching, so every worker
    ///   reads exactly the state the sequential path would have seen. The
    ///   one event processed *inside* a batch is a beacon **start**; the
    ///   frame it inserts begins at (or after) every queued query's end,
    ///   so the interference loop's overlap test skips it — and the
    ///   `max_gate_r` it may grow only widens the frame gather to a
    ///   superset whose extra frames are skipped the same way.
    /// * **Pruning**: the sequential path prunes the windows at *every*
    ///   query's start as queries are processed in end-time order, and
    ///   that progressive prune is semantics-bearing: a long data frame's
    ///   start reaches back before previously-processed beacon queries'
    ///   starts, so frames overlapping its early portion may already have
    ///   been dropped by those queries' prunes (the naive path shares the
    ///   artifact bit-for-bit — `compute_deliveries` prunes before mode
    ///   dispatch). The flush reproduces the cumulative effect exactly:
    ///   prune to the *earliest* queued start before resolving (in-batch
    ///   queries then see a superset whose expired extras their overlap
    ///   test drops — batch starts are monotone, so nothing a sequential
    ///   prune would have hidden from them survives it), and prune to the
    ///   *latest* queued start after the merge, which is the running
    ///   maximum threshold the sequential path would have left for
    ///   whatever query comes next.
    /// * **Half-duplex reach**: the gather disc includes `hd_reach`, which
    ///   bounds how far a receiver's own overlapping frame can sit from
    ///   its current position — so the set of own-frames a query can see
    ///   is identical at any gather radius at or beyond it.
    /// * **Merge**: deliveries are applied (neighbour-table observes) by
    ///   replaying the batch in event order, each query stamped with its
    ///   own `tx.end` — exactly the clock the sequential dispatch would
    ///   have observed. A query deferred as unread
    ///   ([`beacon_unread`](World::beacon_unread), decided at deferral)
    ///   resolves count-only and leaves nothing to observe. Reception and
    ///   loss tallies are u64 sums, so per-worker accumulation cannot
    ///   reorder anything observable.
    ///
    /// Queries never touch the RNG, and shadowing draws are pure hashes,
    /// so no stochastic state is involved at all.
    fn flush_sharded(&mut self) {
        let Some(sd) = &self.shard else { return };
        let Some((first, _)) = sd.pending.first() else {
            return;
        };
        // Prune both views of the active set to the earliest queued
        // query's start (see the doc comment above).
        let t0 = first.start;
        self.active.prune(t0);
        self.frames.prune(t0);
        let mut sd = self.shard.take().expect("checked above");
        let shards = sd.shards;
        let geom = self.grid.geometry();
        {
            let ctx = QueryCtx {
                grid: &self.grid,
                snapshot: &self.snapshot,
                frames: &self.frames,
                radio: &self.spec.radio,
                seed: self.spec.seed,
                capture_ratio_mw: self.capture_ratio_mw,
                extra_reach: self.max_gate_r.max(self.hd_reach),
            };
            let profile_on = self.profile_on;
            for w in &mut sd.workers {
                w.results.clear();
                w.deliveries.clear();
            }
            let pending = &sd.pending[..];
            let workers = WorkerPtr(sd.workers.as_mut_ptr());
            sd.pool.run(|k| {
                // SAFETY: each worker index runs on exactly one thread of
                // this dispatch, so the slot is exclusively borrowed.
                let w = unsafe { &mut *workers.slot(k) };
                for (qi, (tx, read)) in pending.iter().enumerate() {
                    if geom.stripe_of(tx.pos, shards) != k {
                        continue;
                    }
                    let t_start = profile_on.then(Instant::now);
                    let start = w.deliveries.len() as u32;
                    let out = read.then_some(&mut w.deliveries);
                    w.tally += resolve_query(&ctx, &mut w.scratch, tx, t_start, out);
                    let len = w.deliveries.len() as u32 - start;
                    w.results.push((qi as u32, start, len));
                }
            });
        }
        // Merge: replay the batch in event order, advancing one cursor
        // per worker (each worker's results are already in that order).
        sd.cursors.clear();
        sd.cursors.resize(shards, 0);
        for (qi, (tx, _)) in sd.pending.iter().enumerate() {
            let k = geom.stripe_of(tx.pos, shards);
            let cursor = sd.cursors[k];
            sd.cursors[k] += 1;
            let (rqi, start, len) = sd.workers[k].results[cursor];
            debug_assert_eq!(rqi as usize, qi, "owner replays queries in order");
            // Beacon effects, stamped with the query's own end time — the
            // clock the sequential dispatch observes at this TxEnd.
            observe_all(
                &mut self.tables,
                tx.sender,
                tx.tx_dbm,
                tx.end,
                &sd.workers[k].deliveries[start as usize..(start + len) as usize],
            );
        }
        for w in &mut sd.workers {
            self.apply_tally(FrameKind::Beacon, std::mem::take(&mut w.tally));
        }
        // Re-apply the cumulative prune the sequential per-query prunes
        // would have left behind (see the doc comment): the latest queued
        // start is the running-maximum threshold for whatever follows.
        let t_last = sd.pending.iter().fold(t0, |m, (tx, _)| m.max(tx.start));
        self.active.prune(t_last);
        self.frames.prune(t_last);
        sd.pending.clear();
        self.shard = Some(sd);
    }
}

/// Cell-size divisor of the spatial grid: cell edge = maximum radio range
/// / this. Cells of a full radio range (divisor 1, the historical sizing)
/// overfetch ~2.25× the decode disc's area per query; halving the edge
/// cuts that to ~1.55× — measurably fewer per-candidate position
/// evaluations in the snapshot filter — while cell-crossing maintenance
/// stays negligible (it scales only linearly with the divisor). Measured
/// on `exp_scale`, 2 is the knee: 3 shaves little more off the filter but
/// grows the cell walk and the refresh stream.
const GRID_CELL_DIVISOR: f64 = 2.0;

/// The snapshot delivery pipeline for one transmission — the single
/// kernel behind **both** the sequential incremental path
/// ([`World::compute_deliveries_snapshot`]) and every sharded worker
/// ([`World::flush_sharded`]), so the two cannot drift: filter (batched
/// sweep over the SoA lanes) → log-free decode → interference/capture per
/// decodable receiver, exactly as documented on
/// [`World::compute_deliveries_snapshot`].
///
/// Reads only the frozen [`QueryCtx`], mutates only the caller's
/// [`QueryScratch`], and appends successful deliveries to `out`, when
/// given, in ascending node order. Without `out` (an unread beacon, see
/// [`World::beacon_unread`]) a delivery is only counted, so a receiver
/// with no interference never pays the deferred `log10`. Receptions and
/// losses are returned as a [`QueryTally`] instead of being recorded —
/// order-free u64 tallies the caller folds into the world counters
/// ([`World::apply_tally`]).
fn resolve_query(
    ctx: &QueryCtx<'_>,
    s: &mut QueryScratch,
    tx: &Transmission,
    t_start: Option<Instant>,
    mut out: Option<&mut Vec<(NodeId, f64)>>,
) -> QueryTally {
    let profile_on = t_start.is_some();
    let mut filtered = std::mem::take(&mut s.filtered);
    filtered.clear();
    // Buckets are exact up to the refresh slack; stored positions may
    // be older than the bucket, so walk whole cells (inflated by the
    // slack) and filter on *current* exact positions from the lanes —
    // batched into fixed-width chunk kernels by the sweep, which also
    // skips cells its event-horizon cache proves out of decode reach
    // (see `crate::sweep` for the bit-exactness argument).
    let r = s.decode_radius(ctx.radio, tx);
    let t = tx.end;
    s.sweep.filter_into(
        ctx.grid,
        ctx.snapshot,
        tx.pos,
        t,
        r,
        GRID_BUCKET_SLACK_M,
        &mut filtered,
    );
    // Ascending node order: delivery order feeds protocol callbacks
    // (and their RNG draws), so every mode must match the naive scan.
    // The sweep evaluates its gathered ids in sorted order, so the
    // survivors arrive exactly as the historical post-filter sort
    // left them.
    debug_assert!(filtered.windows(2).all(|w| w[0].0 < w[1].0));
    let t_mid = profile_on.then(Instant::now);

    let pl = ctx.radio.path_loss;
    let sens = ctx.radio.rx_sensitivity_dbm;
    let sigma = ctx.radio.shadowing_sigma_db;
    let seed = ctx.seed;

    // Pass 1 — decode. `rx = NaN` marks a deferred received power (the
    // certain-decode fast path never evaluated the `log10`).
    let mut decodable = std::mem::take(&mut s.decodable);
    decodable.clear();
    if sigma <= 0.0 {
        for &(i, p, d2) in &filtered {
            if i == tx.sender {
                continue;
            }
            if d2 <= tx.decode_lo_r2 {
                decodable.push((i, p, d2, f64::NAN));
            } else if d2 > tx.decode_hi_r2 {
                // provably below sensitivity: the historical
                // OutOfRange branch, which records nothing
            } else {
                // in the hair-thin threshold band: exact dB test
                let rx = pl.rx_dbm(tx.tx_dbm, d2.sqrt());
                if rx >= sens {
                    decodable.push((i, p, d2, rx));
                }
            }
        }
    } else {
        // Shadowed: the reject ladder settles most out-of-reach links
        // from the link hash alone (see `ShadowLadder` for the exactness
        // argument); survivors finish the same draw and run the dB test,
        // bit-identical to `rx_dbm + link_shadowing_db`. The first loop
        // is branch-free (every candidate's uniforms and verdict are
        // written), so its hashes pipeline; the second runs the
        // transcendentals for the ~1 in 6 survivors.
        let mut kept = std::mem::take(&mut s.kept);
        kept.clear();
        let ladder = s.shadow_ladder(ctx.radio, tx.tx_dbm);
        kept.extend(filtered.iter().map(|&(i, _, d2)| {
            let u = shadow_uniforms(link_hash(seed, tx.sender, i));
            (u, !(ladder.rejects(d2, u) | (i == tx.sender)))
        }));
        for (&(i, p, d2), &(u, keep)) in filtered.iter().zip(&kept) {
            if keep {
                let rx = pl.rx_dbm(tx.tx_dbm, d2.sqrt()) + shadow_from_uniforms(sigma, u);
                if rx >= sens {
                    decodable.push((i, p, d2, rx));
                }
            }
        }
        s.kept = kept;
    }
    let t_dec = profile_on.then(Instant::now);

    // Frames that can matter to *any* decodable receiver of this query,
    // in global insertion order (sequence numbers are shared with the
    // flat window, so sorting by them replays its exact iteration
    // order). A query nobody decodes needs none.
    let mut frames = std::mem::take(&mut s.frames);
    frames.clear();
    if !decodable.is_empty() {
        ctx.frames
            .gather_into(tx.pos, r + ctx.extra_reach, &mut frames);
        frames.sort_unstable_by_key(|&(seq, _)| seq);
    }

    // Pass 2 — interference + capture per decodable receiver.
    let t_int = profile_on.then(Instant::now);
    let floor = sens - INTERFERENCE_FLOOR_DB;
    let capture_ratio = ctx.capture_ratio_mw;
    let keep = out.is_some();
    let mut tally = QueryTally::default();
    for &(rid, rpos, d2, rx0) in &decodable {
        let interference = if sigma <= 0.0 {
            // Unshadowed: skip by the exact floor threshold, add no
            // shadow term (link_shadowing_db is identically 0 here,
            // so the accumulated terms match the historical loop
            // bit-for-bit).
            interference_sum(
                tx,
                rid,
                rpos,
                &frames,
                pl,
                floor,
                |o| o.floor_hi_r2,
                |_| 0.0,
            )
        } else {
            // One shadowing draw per (transmitter, receiver) pair,
            // shared across all of that transmitter's overlapping
            // frames in this query.
            s.shadow_epoch += 1;
            let epoch = s.shadow_epoch;
            let stamps = &mut s.shadow_stamp;
            let vals = &mut s.shadow_val;
            interference_sum(
                tx,
                rid,
                rpos,
                &frames,
                pl,
                floor,
                |o| o.gate_r2,
                |sender| {
                    if stamps[sender] == epoch {
                        vals[sender]
                    } else {
                        let v = crate::radio::link_shadowing_db(sigma, seed, sender, rid);
                        stamps[sender] = epoch;
                        vals[sender] = v;
                        v
                    }
                },
            )
        };
        let Some(interference_mw) = interference else {
            tally.half_duplex += 1;
            continue;
        };
        // The deferred received power, when the capture compare or a kept
        // delivery needs it; otherwise it stays NaN and is never read.
        let rx = if rx0.is_nan() && (interference_mw > 0.0 || keep) {
            pl.rx_dbm(tx.tx_dbm, d2.sqrt())
        } else {
            rx0
        };
        if interference_mw > 0.0 && dbm_to_mw(rx) < capture_ratio * interference_mw {
            tally.collided += 1;
        } else {
            tally.received += 1;
            if let Some(out) = out.as_deref_mut() {
                out.push((rid, rx));
            }
        }
    }

    s.filtered = filtered;
    s.frames = frames;
    s.decodable = decodable;
    if let (Some(start), Some(mid), Some(dec), Some(intf)) = (t_start, t_mid, t_dec, t_int) {
        let done = Instant::now();
        s.profile.filter_s += (mid - start).as_secs_f64();
        s.profile.outcome_s += (done - mid).as_secs_f64();
        s.profile.decode_s += (dec - mid).as_secs_f64();
        s.profile.interference_s += (done - intf).as_secs_f64();
    }
    tally
}

/// The shared interference/half-duplex frame loop of the fused delivery
/// query: replays the gathered `frames` (already sorted into global
/// insertion order) for one decodable receiver, accumulating interfering
/// power in exactly the historical iteration order. Returns `None` when
/// one of the receiver's own frames overlaps (half duplex), otherwise the
/// summed interference in mW.
///
/// `gate_r2` selects the per-frame squared skip radius (the exact floor
/// threshold when unshadowed, the conservative `+4σ` gate when shadowed)
/// and `shadow` the per-transmitter shadowing term; both are monomorphised
/// per call site, so the unshadowed instantiation keeps its branch-free
/// shape while the skip/overlap/self-frame logic exists exactly once.
#[allow(clippy::too_many_arguments)] // internal monomorphised kernel
#[inline(always)]
fn interference_sum<G, S>(
    tx: &Transmission,
    rid: NodeId,
    rpos: Vec2,
    frames: &[(u64, Transmission)],
    pl: crate::radio::PathLoss,
    floor: f64,
    gate_r2: G,
    mut shadow: S,
) -> Option<f64>
where
    G: Fn(&Transmission) -> f64,
    S: FnMut(NodeId) -> f64,
{
    let mut interference_mw = 0.0;
    for &(_, o) in frames {
        if o.start >= tx.end || o.end <= tx.start {
            continue; // no overlap
        }
        if o.sender == tx.sender && o.start == tx.start && o.end == tx.end {
            continue; // the frame itself (copy in the log)
        }
        if o.sender == rid {
            return None; // half duplex
        }
        let od2 = o.pos.distance_sq(rpos);
        if od2 > gate_r2(&o) {
            continue; // provably below the interference floor
        }
        let o_rx = pl.rx_dbm(o.tx_dbm, od2.sqrt()) + shadow(o.sender);
        if o_rx >= floor {
            // Only energy near the sensitivity floor matters.
            interference_mw += dbm_to_mw(o_rx);
        }
    }
    Some(interference_mw)
}

/// Cell edge for the spatialised active window: the interference gating
/// reach at the world's *largest* transmit-power class (shadowing tail
/// included), clamped to the field diagonal. Frames matter out to roughly
/// this distance, so one-reach cells keep a query's gather to a small
/// constant block of buckets while still pruning far-away bursts; sizing
/// by the largest class keeps that true for every group of a
/// heterogeneous world (cell size is a perf heuristic only — queries pass
/// their own exact radii).
fn frame_cell(radio: &RadioConfig, field: Field, max_tx_dbm: f64) -> f64 {
    let reach = radio.interference_floor_range(max_tx_dbm);
    let diag = (field.width * field.width + field.height * field.height).sqrt();
    if reach.is_finite() && reach > 1.0 {
        reach.min(diag)
    } else {
        diag
    }
}

/// Cell edge for the spatial grid: a [`GRID_CELL_DIVISOR`]-th of the
/// maximum radio range (the largest power class of the world at receiver
/// sensitivity — per-group powers only shrink individual query discs, see
/// [`frame_cell`]), clamped to the field diagonal so degenerate radio
/// configurations cannot create absurd cell counts.
fn grid_cell(radio: &RadioConfig, field: Field, max_tx_dbm: f64) -> f64 {
    let range = radio
        .path_loss
        .range_for(max_tx_dbm, radio.rx_sensitivity_dbm);
    let diag = (field.width * field.width + field.height * field.height).sqrt();
    if range.is_finite() && range > 1.0 {
        (range / GRID_CELL_DIVISOR).min(diag)
    } else {
        diag
    }
}

impl ProtocolApi for World {
    fn now(&self) -> f64 {
        self.queue.now()
    }

    fn set_timer(&mut self, node: NodeId, delay: f64, tag: u64) {
        self.protocol_events += 1;
        self.queue.schedule_in(
            delay,
            Event::Timer {
                node: id32(node),
                tag,
            },
        );
    }

    fn transmit(&mut self, node: NodeId, tx_dbm: f64) {
        self.protocol_events += 1;
        self.start_transmission(node, tx_dbm, FrameKind::Data);
    }

    fn neighbors(&self, node: NodeId) -> Vec<NeighborEntry> {
        let mut out = Vec::new();
        self.neighbors_into(node, &mut out);
        out
    }

    fn neighbors_into(&self, node: NodeId, out: &mut Vec<NeighborEntry>) {
        self.tables[node].live_into(self.queue.now(), out);
        #[cfg(test)]
        if let Some(shadow) = &self.shadow {
            shadow.check_read(node, self.queue.now(), out);
        }
    }

    fn default_tx_dbm(&self) -> f64 {
        self.spec.radio.default_tx_dbm
    }

    fn node_tx_dbm(&self, node: NodeId) -> f64 {
        self.node_tx[node]
    }

    fn rx_sensitivity_dbm(&self) -> f64 {
        self.spec.radio.rx_sensitivity_dbm
    }

    fn rand(&mut self) -> f64 {
        self.rng.gen()
    }
}

/// A configured simulation run driving a protocol `P`.
///
/// Construction allocates; [`Simulator::reset`] re-arms the same instance
/// for another run (same or different configuration) without heap churn —
/// the batched evaluation pipeline keeps one simulator per worker thread
/// alive across thousands of runs.
pub struct Simulator<P: Protocol> {
    world: World,
    protocol: P,
}

impl<P: Protocol> Simulator<P> {
    /// Builds the simulator from a flat [`SimConfig`] — a thin adapter
    /// over [`from_world`](Self::from_world) through
    /// [`SimConfig::to_world`], kept for the homogeneous scenarios the
    /// paper evaluates.
    pub fn new(config: SimConfig, protocol: P) -> Self {
        let spec = config.to_world();
        Self {
            world: World::empty(spec),
            protocol,
        }
    }

    /// Builds the simulator from a declarative [`WorldSpec`]: places every
    /// group's nodes, seeds their mobility models, resolves per-group
    /// transmit-power classes and schedules the initial
    /// beacon/mobility/broadcast events. The single compilation path every
    /// scenario surface funnels through (`SimConfig`, dense scenarios, the
    /// text grammar).
    ///
    /// Panics with the spec's [`WorldError`](crate::world::WorldError)
    /// message when the spec is invalid; call
    /// [`WorldSpec::validate`] first to handle errors gracefully.
    pub fn from_world(spec: &WorldSpec, protocol: P) -> Self {
        let mut sim = Self {
            world: World::empty(spec.clone()),
            protocol,
        };
        sim.world.mode = spec.delivery_mode;
        sim
    }

    /// Re-arms the simulator for a new run, replacing the protocol state
    /// and reusing every internal allocation. The currently selected
    /// [`DeliveryMode`] is kept (the historical contract of the
    /// `SimConfig` surface); [`reset_world`](Self::reset_world) applies
    /// the spec's mode instead.
    pub fn reset(&mut self, config: SimConfig, protocol: P) {
        self.world.reset(config.to_world());
        self.protocol = protocol;
    }

    /// Like [`reset`](Self::reset), but re-arms the existing protocol in
    /// place through `rearm` instead of replacing it — protocols with
    /// per-node buffers (e.g. AEDB) avoid reallocating them every run.
    pub fn reset_with<F: FnOnce(&mut P)>(&mut self, config: SimConfig, rearm: F) {
        self.world.reset(config.to_world());
        rearm(&mut self.protocol);
    }

    /// Re-arms the simulator for a [`WorldSpec`], replacing the protocol
    /// and applying the spec's [`DeliveryMode`].
    pub fn reset_world(&mut self, spec: &WorldSpec, protocol: P) {
        self.world.reset(spec.clone());
        self.world.mode = spec.delivery_mode;
        self.protocol = protocol;
    }

    /// Like [`reset_world`](Self::reset_world), but re-arms the existing
    /// protocol in place through `rearm`.
    pub fn reset_world_with<F: FnOnce(&mut P)>(&mut self, spec: &WorldSpec, rearm: F) {
        self.world.reset(spec.clone());
        self.world.mode = spec.delivery_mode;
        rearm(&mut self.protocol);
    }

    /// Selects the delivery-resolution path (default:
    /// [`DeliveryMode::Incremental`]). All modes are bit-identical
    /// (asserted by the determinism test suite); the non-default modes
    /// exist for parity checks and as benchmark baselines.
    pub fn set_delivery_mode(&mut self, mode: DeliveryMode) {
        if self.world.mode != mode {
            // Resolve any queued sharded batch under the mode its queries
            // were deferred in, then drop the cached event horizons:
            // another discipline may re-bucket nodes without per-cell
            // notifications (horizon rebuilds), so no cached bound
            // survives a mode switch.
            self.world.flush_sharded();
            self.world.invalidate_sweep_all();
        }
        self.world.mode = mode;
    }

    /// Splits delivery resolution of the incremental path across
    /// `shards` space-sharded workers (`≤ 1` — the default — keeps the
    /// strictly sequential path). Results are **bit-identical at every
    /// shard count**: beacon deliveries are queued per event, resolved by
    /// stripe-owning workers running the exact sequential kernel against
    /// frozen state, and merged back in event order (see
    /// `World::flush_sharded` for the argument; asserted by the
    /// shard-count property suite).
    ///
    /// The pool persists across [`reset`](Self::reset) like the delivery
    /// mode does. Sharding only engages in [`DeliveryMode::Incremental`];
    /// the historical baselines stay sequential so their measured costs
    /// remain comparable across PRs. Useful shard counts are small (≈ the
    /// physical core count): each worker owns a contiguous stripe of grid
    /// columns, so at high counts stripes thin out and the per-flush
    /// dispatch overhead dominates.
    pub fn set_delivery_shards(&mut self, shards: usize) {
        self.world.set_delivery_shards(shards);
    }

    /// The configured delivery shard count (1 = sequential).
    pub fn delivery_shards(&self) -> usize {
        self.world.shard.as_ref().map_or(1, |sd| sd.shards)
    }

    /// The currently selected delivery-resolution path.
    pub fn delivery_mode(&self) -> DeliveryMode {
        self.world.mode
    }

    /// Convenience wrapper around [`set_delivery_mode`]
    /// (`true` → [`DeliveryMode::Naive`], `false` → the default
    /// incremental grid), kept for the existing parity tests and benches.
    ///
    /// [`set_delivery_mode`]: Self::set_delivery_mode
    pub fn set_naive_deliveries(&mut self, on: bool) {
        self.set_delivery_mode(if on {
            DeliveryMode::Naive
        } else {
            DeliveryMode::Incremental
        });
    }

    /// Spatial-grid maintenance counters accumulated since the last
    /// reset — the measurable cost the incremental discipline removes
    /// (a horizon rebuild costs `n` bucket ops; an incremental move
    /// costs 2).
    pub fn grid_stats(&self) -> GridStats {
        self.world.grid.stats()
    }

    /// Live (non-stale) grid-refresh events handled since the last reset.
    pub fn grid_refresh_events(&self) -> u64 {
        self.world.refresh_events
    }

    /// Work counters of the batched candidate sweep since the last reset:
    /// cells visited/culled and candidates evaluated by chunk kernels vs
    /// the scalar fallback (all zero outside
    /// [`DeliveryMode::Incremental`], which is the only path that
    /// sweeps). Exported per row of the scale artifact.
    ///
    /// **Aggregation under sharding**: each shard worker sweeps with its
    /// own private counters; this returns the component-wise sum of the
    /// sequential sweep's counters plus every worker's, folded in
    /// worker-index order. Because query ownership is deterministic and
    /// u64 addition is associative and commutative, the total is
    /// independent of thread interleaving — the same well-defined number
    /// at any shard count (though *not* necessarily equal across shard
    /// counts: each worker's event-horizon cache warms independently, so
    /// culling opportunities differ).
    pub fn sweep_stats(&self) -> SweepStats {
        let mut stats = self.world.scratch.sweep.stats();
        if let Some(sd) = &self.world.shard {
            for w in &sd.workers {
                stats += w.scratch.sweep.stats();
            }
        }
        stats
    }

    /// Cell edge (m) of the spatial delivery grid — exposed so tests can
    /// construct node placements exactly on cell boundaries.
    pub fn grid_cell_size(&self) -> f64 {
        self.world.grid.cell_size()
    }

    /// Enables/disables wall-time profiling of the delivery query (off by
    /// default — the extra `Instant::now` samples per query are only
    /// taken when enabled, so unprofiled runs pay nothing). The setting
    /// survives [`reset`](Self::reset); the accumulators do not.
    pub fn set_query_profiling(&mut self, on: bool) {
        self.world.profile_on = on;
    }

    /// The accumulated candidate-filter / receive-outcome wall-time split
    /// since the last reset (all zeros unless
    /// [`set_query_profiling`](Self::set_query_profiling) is on).
    ///
    /// **Aggregation under sharding**: returns the component-wise sum of
    /// the sequential profile plus every shard worker's, folded in
    /// worker-index order — i.e. aggregate *shard-seconds* of query work,
    /// not wall time. With `n` shards busy the sum can exceed elapsed
    /// wall time by up to a factor of `n`; it remains the right
    /// denominator for per-query cost comparisons because the amount of
    /// work per query is shard-count-independent.
    pub fn query_profile(&self) -> QueryProfile {
        let mut profile = self.world.scratch.profile;
        if let Some(sd) = &self.world.shard {
            for w in &sd.workers {
                profile += w.scratch.profile;
            }
        }
        profile
    }

    /// Runs the simulation to `end_time` and returns the report.
    pub fn run(mut self) -> SimReport {
        self.run_to_end()
    }

    /// The scenario's configured end time in seconds — the horizon
    /// [`run_to_end`](Self::run_to_end) runs to. Exposed so drivers that
    /// advance the clock in chunks via [`run_until`](Self::run_until)
    /// (e.g. a service streaming progress) know where the run finishes.
    pub fn end_time(&self) -> f64 {
        self.world.spec.end_time
    }

    /// Runs to `end_time` and returns the report, keeping the simulator
    /// alive for a subsequent [`reset`](Self::reset).
    pub fn run_to_end(&mut self) -> SimReport {
        self.run_until(self.world.spec.end_time);
        SimReport {
            broadcast: self.world.metrics.clone(),
            counters: self.world.counters.clone(),
            n_nodes: self.world.n_nodes,
        }
    }

    /// Processes events up to (and including) time `t`, leaving the
    /// simulator inspectable — used for topology snapshots and debugging.
    ///
    /// With delivery sharding enabled
    /// ([`set_delivery_shards`](Self::set_delivery_shards)), beacon
    /// delivery queries are queued here and resolved in batches: any
    /// event that could change delivery inputs or observe delivery
    /// outputs (mobility, grid maintenance, data traffic, protocol
    /// timers) flushes the pending batch first, so every query still sees
    /// exactly the state the sequential path would have. The final flush
    /// below guarantees no query is left pending when the call returns.
    pub fn run_until(&mut self, t: f64) {
        while let Some(next) = self.world.queue.peek_time() {
            if next > t {
                break;
            }
            let (_, ev) = self.world.queue.pop().expect("peeked event vanished");
            #[cfg(test)]
            if let Event::TxEnd(key) = ev {
                self.world.shadow_observe(key);
            }
            if self.world.shard.is_some() && self.world.mode == DeliveryMode::Incremental {
                match ev {
                    Event::TxEnd(key) if self.world.txs.get(key).kind == FrameKind::Beacon => {
                        // Beacon deliveries have no same-event side
                        // effects beyond the neighbour-table observes and
                        // loss counters the flush replays in order, so
                        // they can be deferred into the shard batch.
                        let tx = self.world.txs.remove(key);
                        if self.world.defer_beacon_txend(&tx) {
                            self.world.flush_sharded();
                        }
                        continue;
                    }
                    // A beacon *start* only inserts a frame into the
                    // active window; every deferred query's own end time
                    // precedes this event's time, so the new frame cannot
                    // overlap any pending query and need not flush.
                    Event::Beacon(_) => {}
                    _ => self.world.flush_sharded(),
                }
            }
            self.dispatch(ev);
        }
        self.world.flush_sharded();
    }

    /// Node positions at time `t` (must be ≥ the last processed event).
    pub fn positions_at(&self, t: f64) -> Vec<Vec2> {
        self.world.mobility.iter().map(|m| m.position(t)).collect()
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.world.queue.now()
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Beacon(id) => {
                let node = id as NodeId;
                // Beacons go out at the node's power *class* (per-group in
                // heterogeneous worlds; the radio default otherwise).
                self.world
                    .start_transmission(node, self.world.node_tx[node], FrameKind::Beacon);
                // Re-arm with ±5 % jitter so persistent phase collisions
                // cannot lock in (there is no CSMA in this model).
                let base = self.world.spec.beacon_interval;
                let jitter = base * (0.95 + 0.1 * self.world.rng.gen::<f64>());
                self.world.queue.schedule_in(jitter, Event::Beacon(id));
            }
            Event::MobilityChange(id) => {
                let node = id as NodeId;
                self.world.mobility[node].advance(&mut self.world.rng);
                let next = self.world.mobility[node].next_change();
                if next.is_finite() {
                    self.world.queue.schedule(next, Event::MobilityChange(id));
                }
                self.world.reanchor_grid_refresh(node);
            }
            Event::GridRefresh { node, gen } => {
                self.world.handle_grid_refresh(node as NodeId, gen);
            }
            Event::TxEnd(key) => {
                let tx = self.world.txs.remove(key);
                let now = self.world.queue.now();
                let mut deliveries = std::mem::take(&mut self.world.delivery_scratch);
                deliveries.clear();
                match tx.kind {
                    FrameKind::Beacon => {
                        // Receptions no protocol can read only count.
                        let read = !self.world.beacon_unread(now);
                        self.world
                            .compute_deliveries(&tx, read.then_some(&mut deliveries));
                        observe_all(
                            &mut self.world.tables,
                            tx.sender,
                            tx.tx_dbm,
                            now,
                            &deliveries,
                        );
                    }
                    FrameKind::Data => {
                        self.world.protocol_events -= 1;
                        self.world.compute_deliveries(&tx, Some(&mut deliveries));
                        for &(r, rx_dbm) in &deliveries {
                            self.world.metrics.record_reception(r, now);
                            self.protocol
                                .on_receive(r, tx.sender, rx_dbm, &mut self.world);
                        }
                    }
                }
                self.world.delivery_scratch = deliveries;
            }
            Event::Timer { node, tag } => {
                self.world.counters.timers_fired += 1;
                self.world.protocol_events -= 1;
                self.protocol.on_timer(node as NodeId, tag, &mut self.world);
            }
            Event::StartBroadcast(node) => {
                self.world.broadcast_started = true;
                self.protocol.on_start(node as NodeId, &mut self.world);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Flooding, SourceOnly};
    use crate::world::NodeGroup;

    fn dense_config(seed: u64) -> SimConfig {
        // 50 nodes in a small field: fully connected at default power.
        let mut c = SimConfig::paper(50, seed);
        c.field = Field::new(100.0, 100.0);
        c
    }

    #[test]
    fn events_are_compact() {
        // A heap entry is `(time, seq, event)`: 32 bytes keeps two per
        // cache line and every sift cheap.
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }

    #[test]
    fn source_only_reaches_one_hop_neighbors() {
        let c = dense_config(1);
        let report = Simulator::new(c, SourceOnly).run();
        // 100 m field, ~150 m range: everyone is one hop away.
        assert_eq!(
            report.broadcast.coverage(),
            49,
            "counters: {:?}",
            report.counters
        );
        assert_eq!(report.broadcast.forwardings, 0);
        assert_eq!(report.broadcast.energy_dbm_sum, 0.0);
        assert!(report.broadcast.broadcast_time() < 0.1);
    }

    #[test]
    fn flooding_covers_multihop_network() {
        let mut c = SimConfig::paper(60, 4);
        c.field = Field::new(400.0, 400.0); // multi-hop but well connected
        let n = c.n_nodes;
        let report = Simulator::new(c, Flooding::new(n, (0.0, 0.05))).run();
        assert!(
            report.broadcast.coverage() > 50,
            "coverage {} too small; counters {:?}",
            report.broadcast.coverage(),
            report.counters
        );
        assert!(report.broadcast.forwardings > 10);
        assert!(report.broadcast.broadcast_time() < 2.0);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = |seed| {
            let c = SimConfig::paper(40, seed);
            let n = c.n_nodes;
            let r = Simulator::new(c, Flooding::new(n, (0.0, 0.1))).run();
            (
                r.broadcast.coverage(),
                r.broadcast.forwardings,
                r.broadcast.energy_dbm_sum,
                r.broadcast.broadcast_time(),
                r.counters.beacons_sent,
            )
        };
        assert_eq!(run(123), run(123));
        assert_ne!(
            run(123),
            run(124),
            "different seeds should differ somewhere"
        );
    }

    fn run_mode(mode: DeliveryMode, c: SimConfig) -> SimReport {
        let n = c.n_nodes;
        let mut sim = Simulator::new(c, Flooding::new(n, (0.0, 0.1)));
        sim.set_delivery_mode(mode);
        sim.run_to_end()
    }

    #[test]
    fn all_delivery_modes_are_identical() {
        // The tentpole parity guarantee, asserted across densities,
        // mobility models and protocols: full metric + counter equality
        // between the incremental grid, the horizon-rebuild grid and the
        // naive scan.
        for seed in [1u64, 7, 23, 99] {
            for mk in [
                SimConfig::paper(75, seed),
                SimConfig::paper(25, seed),
                dense_config(seed),
                {
                    let mut c = SimConfig::paper(30, seed);
                    c.mobility = MobilityModel::Stationary;
                    c
                },
                {
                    let mut c = SimConfig::paper(30, seed);
                    c.mobility = MobilityModel::RandomWaypoint { pause: 3.0 };
                    c
                },
            ] {
                let inc = run_mode(DeliveryMode::Incremental, mk.clone());
                let reb = run_mode(DeliveryMode::HorizonRebuild, mk.clone());
                let naive = run_mode(DeliveryMode::Naive, mk);
                assert_eq!(inc.broadcast, reb.broadcast, "inc vs rebuild, seed {seed}");
                assert_eq!(inc.counters, reb.counters, "inc vs rebuild, seed {seed}");
                assert_eq!(inc.broadcast, naive.broadcast, "inc vs naive, seed {seed}");
                assert_eq!(inc.counters, naive.counters, "inc vs naive, seed {seed}");
            }
        }
    }

    #[test]
    fn shadowed_scenarios_use_the_grid_and_stay_exact() {
        // Under the bounded-tail shadowing model the radio range is finite
        // (gain truncated at +4σ), so shadowed scenarios keep the spatial
        // grid — no naive fallback — and all delivery paths remain
        // bit-identical.
        for sigma in [4.0, 6.0] {
            let mut c = SimConfig::paper(40, 3);
            c.radio.shadowing_sigma_db = sigma;
            let inc = run_mode(DeliveryMode::Incremental, c.clone());
            let reb = run_mode(DeliveryMode::HorizonRebuild, c.clone());
            let naive = run_mode(DeliveryMode::Naive, c);
            assert_eq!(inc.broadcast, naive.broadcast, "sigma {sigma}");
            assert_eq!(inc.counters, naive.counters, "sigma {sigma}");
            assert_eq!(inc.broadcast, reb.broadcast, "sigma {sigma}");
            assert_eq!(inc.counters, reb.counters, "sigma {sigma}");
        }
    }

    #[test]
    fn query_profile_splits_the_outcome_into_decode_and_interference() {
        // decode_s (pass 1) and interference_s (pass 2) are disjoint
        // parts of outcome_s, sequentially and summed over shard
        // workers; profiling never changes the report.
        let mut c = SimConfig::paper(120, 5);
        c.field = Field::new(600.0, 600.0);
        c.radio.shadowing_sigma_db = 6.0;
        let n = c.n_nodes;
        let plain = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1))).run();
        for shards in [1, 2] {
            let mut sim = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1)));
            sim.set_delivery_shards(shards);
            sim.set_query_profiling(true);
            let report = sim.run_to_end();
            assert_eq!(report.counters, plain.counters, "{shards} shards");
            let p = sim.query_profile();
            assert!(p.decode_s > 0.0 && p.interference_s > 0.0, "{p:?}");
            assert!(p.decode_s + p.interference_s <= p.outcome_s, "{p:?}");
        }
    }

    #[test]
    fn incremental_grid_slashes_maintenance_vs_horizon_rebuild() {
        // The maintenance-cost half of the tentpole claim: over a full
        // 40 s run the horizon-rebuild discipline re-buckets all n nodes
        // every second, while the incremental discipline pays only for
        // actual cell crossings — at least 5x fewer bucket ops (the
        // acceptance floor; it is ~10x in practice), with identical
        // deliveries.
        let c = SimConfig::paper(100, 9);
        let n = c.n_nodes;
        let run = |mode: DeliveryMode| {
            let mut sim = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1)));
            sim.set_delivery_mode(mode);
            let report = sim.run_to_end();
            (report, sim.grid_stats(), sim.grid_refresh_events())
        };
        let (r_inc, s_inc, refreshes) = run(DeliveryMode::Incremental);
        let (r_reb, s_reb, _) = run(DeliveryMode::HorizonRebuild);
        assert_eq!(r_inc.broadcast, r_reb.broadcast);
        assert_eq!(r_inc.counters, r_reb.counters);
        assert!(refreshes > 0, "mobile nodes must schedule refreshes");
        assert!(
            s_reb.rebuilds as usize >= 30,
            "rebuild baseline should rebuild ~every horizon: {s_reb:?}"
        );
        assert_eq!(s_inc.rebuilds, 1, "incremental only places once: {s_inc:?}");
        assert!(
            s_reb.bucket_ops >= 5 * s_inc.bucket_ops,
            "incremental maintenance must be >= 5x cheaper: rebuild {} ops \
             vs incremental {} ops",
            s_reb.bucket_ops,
            s_inc.bucket_ops
        );
    }

    #[test]
    fn reset_reuses_simulator_across_configs() {
        // A fresh simulator and a reset one must agree bit-for-bit, even
        // when the reset crosses node counts and field sizes.
        let c1 = SimConfig::paper(40, 11);
        let c2 = dense_config(5);
        let n1 = c1.n_nodes;
        let n2 = c2.n_nodes;
        let fresh1 = Simulator::new(c1.clone(), Flooding::new(n1, (0.0, 0.1))).run();
        let fresh2 = Simulator::new(c2.clone(), Flooding::new(n2, (0.0, 0.2))).run();

        let mut sim = Simulator::new(c1.clone(), Flooding::new(n1, (0.0, 0.1)));
        let r1 = sim.run_to_end();
        sim.reset(c2, Flooding::new(n2, (0.0, 0.2)));
        let r2 = sim.run_to_end();
        sim.reset(c1, Flooding::new(n1, (0.0, 0.1)));
        let r1_again = sim.run_to_end();

        assert_eq!(r1.broadcast, fresh1.broadcast);
        assert_eq!(r2.broadcast, fresh2.broadcast);
        assert_eq!(r1_again.broadcast, fresh1.broadcast);
        assert_eq!(r1_again.counters, fresh1.counters);
    }

    #[test]
    fn ten_thousand_node_scenario_end_to_end() {
        // The 10⁴-node acceptance scenario (the XL dense preset's
        // geometry: 400 dev/km² on a 5 km field), shortened to a 3 s
        // window so the debug-build test stays fast — `exp_scale` runs
        // the full 40 s protocol in release. Asserts the incremental grid
        // is bit-identical to a full horizon rebuild AND that its
        // post-placement maintenance is ≥ 5× cheaper.
        let mut c = SimConfig::paper(10_000, 7_410_000);
        c.field = Field::new(5000.0, 5000.0);
        c.broadcast_time = 1.0;
        c.end_time = 2.0;
        let n = c.n_nodes;
        let run = |mode: DeliveryMode| {
            let mut sim = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1)));
            sim.set_delivery_mode(mode);
            let report = sim.run_to_end();
            (report, sim.grid_stats())
        };
        let (r_inc, s_inc) = run(DeliveryMode::Incremental);
        let (r_reb, s_reb) = run(DeliveryMode::HorizonRebuild);
        assert!(
            r_inc.broadcast.coverage() > 500,
            "a dense 10⁴-node broadcast should spread widely in 1 s, got {}",
            r_inc.broadcast.coverage()
        );
        assert_eq!(r_inc.broadcast, r_reb.broadcast, "10⁴-node parity");
        assert_eq!(r_inc.counters, r_reb.counters, "10⁴-node parity");
        // Both modes pay one n-op initial placement; the maintenance
        // *beyond* that is where the disciplines differ.
        let inc_ops = s_inc.bucket_ops - n as u64;
        let reb_ops = s_reb.bucket_ops - n as u64;
        assert!(
            reb_ops >= 5 * inc_ops.max(1),
            "incremental maintenance must be >= 5x cheaper at 10⁴ nodes: \
             rebuild {reb_ops} ops vs incremental {inc_ops} ops"
        );
    }

    #[test]
    fn snapshot_lanes_reanchor_when_advance_fires_mid_transmission() {
        // A mobility segment change lands strictly between a data frame's
        // start (30.0 s) and its end (31.0 s): the snapshot lanes must be
        // re-anchored by the MobilityChange event so the delivery query at
        // tx.end filters against the *new* segment — bit-identically to
        // the mobility structs — and all modes must stay in lockstep.
        let mut c = SimConfig::paper(40, 21);
        c.mobility = MobilityModel::RandomWalk {
            change_interval: 30.5, // fires once, mid-transmission
        };
        c.radio.data_duration = 1.0;
        let n = c.n_nodes;
        let mut sim = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.0)));
        sim.run_until(30.7); // past the change, before the frame ends
        let w = &sim.world;
        for i in 0..n {
            let seg = w.mobility[i].segment();
            assert_eq!(seg.t0, 30.5, "segment must have re-anchored");
            assert_eq!(
                w.snapshot.segment(i),
                seg,
                "snapshot lanes of node {i} must mirror the mobility struct"
            );
            let t = w.queue.now();
            assert_eq!(w.snapshot.position(i, t), w.mobility[i].position(t));
        }
        sim.run_until(c.end_time);
        let inc = SimReport {
            broadcast: sim.world.metrics.clone(),
            counters: sim.world.counters.clone(),
            n_nodes: n,
        };
        let reb = run_mode_jitterless(DeliveryMode::HorizonRebuild, c.clone());
        let naive = run_mode_jitterless(DeliveryMode::Naive, c);
        assert_eq!(inc.broadcast, reb.broadcast);
        assert_eq!(inc.counters, reb.counters);
        assert_eq!(inc.broadcast, naive.broadcast);
        assert_eq!(inc.counters, naive.counters);
    }

    /// Like [`run_mode`] but with zero forwarding jitter, so data-frame
    /// timings are fully determined by the radio constants (the exact
    /// alignment the segment-boundary tests need).
    fn run_mode_jitterless(mode: DeliveryMode, c: SimConfig) -> SimReport {
        let n = c.n_nodes;
        let mut sim = Simulator::new(c, Flooding::new(n, (0.0, 0.0)));
        sim.set_delivery_mode(mode);
        sim.run_to_end()
    }

    #[test]
    fn segment_change_exactly_at_query_time_stays_in_parity() {
        // data_duration == change_interval == 2.0 with zero forwarding
        // jitter makes every data frame end *exactly* on a mobility
        // re-draw instant (30.0 + k·2.0): the delivery query samples
        // receiver positions at the precise boundary between two
        // segments, in whatever event order the queue resolves the tie —
        // the sharpest case for the snapshot lanes. All modes must agree
        // bit-for-bit.
        for seed in [2u64, 13, 77] {
            let mut c = SimConfig::paper(50, seed);
            c.mobility = MobilityModel::RandomWalk {
                change_interval: 2.0,
            };
            c.radio.data_duration = 2.0;
            let inc = run_mode_jitterless(DeliveryMode::Incremental, c.clone());
            let reb = run_mode_jitterless(DeliveryMode::HorizonRebuild, c.clone());
            let naive = run_mode_jitterless(DeliveryMode::Naive, c);
            assert_eq!(inc.broadcast, reb.broadcast, "seed {seed}");
            assert_eq!(inc.counters, reb.counters, "seed {seed}");
            assert_eq!(inc.broadcast, naive.broadcast, "seed {seed}");
            assert_eq!(inc.counters, naive.counters, "seed {seed}");
        }
    }

    #[test]
    fn beacons_populate_neighbor_tables() {
        let c = dense_config(3);
        let sim = Simulator::new(c, SourceOnly);
        // run manually to just after a couple of beacon rounds
        let mut world = sim.world;
        let mut protocol = sim.protocol;
        let mut ds: Vec<(NodeId, f64)> = Vec::new();
        while let Some(t) = world.queue.peek_time() {
            if t > 3.0 {
                break;
            }
            let (_, ev) = world.queue.pop().unwrap();
            match ev {
                Event::Beacon(id) => {
                    let node = id as NodeId;
                    world.start_transmission(node, world.node_tx[node], FrameKind::Beacon);
                    let base = world.spec.beacon_interval;
                    world.queue.schedule_in(base, Event::Beacon(id));
                }
                Event::TxEnd(key) => {
                    let tx = world.txs.remove(key);
                    ds.clear();
                    world.compute_deliveries(&tx, Some(&mut ds));
                    let now = world.queue.now();
                    if tx.kind == FrameKind::Beacon {
                        for &(r, rx) in &ds {
                            world.tables[r].observe(tx.sender, rx, tx.tx_dbm, now);
                        }
                    }
                }
                Event::MobilityChange(id) => {
                    let n = id as NodeId;
                    world.mobility[n].advance(&mut world.rng);
                    let next = world.mobility[n].next_change();
                    if next.is_finite() {
                        world.queue.schedule(next, Event::MobilityChange(id));
                    }
                    world.reanchor_grid_refresh(n);
                }
                Event::GridRefresh { node, gen } => world.handle_grid_refresh(node as NodeId, gen),
                Event::StartBroadcast(n) => protocol.on_start(n as NodeId, &mut world),
                Event::Timer { node, tag } => protocol.on_timer(node as NodeId, tag, &mut world),
            }
        }
        // dense network: every node should know (almost) everyone
        let neigh = world.neighbors(0);
        assert!(neigh.len() >= 45, "only {} neighbors known", neigh.len());
        // received powers must be decodable and ordered fields sane
        for e in &neigh {
            assert!(e.rx_dbm >= world.spec.radio.rx_sensitivity_dbm);
            assert!(e.last_seen <= world.queue.now());
        }
    }

    /// Keeps one timer armed for the whole run, so a protocol could read
    /// any table at any time and no beacon write is ever dead (see
    /// `World::beacon_unread`): the tables stay fully maintained.
    struct AlwaysListening;

    impl Protocol for AlwaysListening {
        fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
            api.set_timer(node, 0.5, 0);
        }
        fn on_receive(&mut self, _: NodeId, _: NodeId, _: f64, _: &mut dyn ProtocolApi) {}
        fn on_timer(&mut self, node: NodeId, _: u64, api: &mut dyn ProtocolApi) {
            api.set_timer(node, 0.5, 0);
        }
    }

    #[test]
    fn neighbor_tables_keep_only_live_neighbours_in_a_fast_walking_world() {
        // Nodes walking at 20–40 m/s turn their neighbourhoods over many
        // times in a run. A table that never evicts keeps every neighbour
        // it ever heard (its memory grows with the run); the store keeps
        // at most the neighbours live at its latest insertion. The
        // broadcast starts at t = 0 and a timer stays armed, so the tables
        // are readable (and hence written) for the whole run.
        let mut c = SimConfig::paper(400, 5);
        c.field = Field::new(2000.0, 2000.0);
        c.speed_range = (20.0, 40.0);
        c.mobility = MobilityModel::RandomWalk {
            change_interval: 2.0,
        };
        c.broadcast_time = 0.0;
        let n = c.n_nodes;
        let mut sim = Simulator::new(c.clone(), AlwaysListening);
        let mut heard = vec![std::collections::BTreeSet::new(); n];
        let mut t = 0.0;
        while t < c.end_time {
            t += 0.5;
            sim.run_until(t);
            let now = sim.now();
            for (ids, table) in heard.iter_mut().zip(&sim.world.tables) {
                ids.extend(table.live(now).iter().map(|e| e.id));
            }
        }
        let (mut stored, mut ever) = (0, 0);
        for (ids, table) in heard.iter().zip(&sim.world.tables) {
            assert_eq!(
                table.len(),
                table.live(table.last_insert()).len(),
                "a stored entry was already stale at the last insertion"
            );
            stored += table.len();
            ever += ids.len();
        }
        assert!(
            stored * 2 < ever,
            "tables hold {stored} entries for {ever} neighbours ever heard"
        );
    }

    /// Reads neighbour tables at every callback: every table at the
    /// broadcast start, the receiver's on each data reception, two per
    /// timer. Timers go off at seeded random times — at the start itself,
    /// just after it, spread over the next seconds, and after idle gaps
    /// longer than the expiry — and a quarter of them transmit. After
    /// `budget` timers each chain ends with a frame and arms nothing, so
    /// the run ends quiet.
    struct HorizonProbe {
        rng: SmallRng,
        n: usize,
        expiry: f64,
        budget: u32,
        buf: Vec<NeighborEntry>,
    }

    impl HorizonProbe {
        fn new(spec: &WorldSpec) -> Self {
            HorizonProbe {
                rng: SmallRng::seed_from_u64(spec.seed),
                n: spec.n_nodes(),
                expiry: spec.neighbor_expiry,
                budget: 24,
                buf: Vec::new(),
            }
        }

        fn delay(&mut self) -> f64 {
            // One gap in five outlasts the expiry.
            if self.rng.gen::<f64>() < 0.2 {
                self.expiry * (1.0 + self.rng.gen::<f64>())
            } else {
                0.8 * self.rng.gen::<f64>()
            }
        }
    }

    impl Protocol for HorizonProbe {
        fn on_start(&mut self, node: NodeId, api: &mut dyn ProtocolApi) {
            for i in 0..self.n {
                api.neighbors_into(i, &mut self.buf);
            }
            let p = api.node_tx_dbm(node);
            api.transmit(node, p);
            for delay in [0.0, 1e-9, 1e-3] {
                api.set_timer(node, delay, 0);
            }
            for _ in 0..6 {
                let (other, delay) = (self.rng.gen_range(0..self.n), self.delay());
                api.set_timer(other, delay, 0);
            }
        }

        fn on_receive(&mut self, node: NodeId, _: NodeId, _: f64, api: &mut dyn ProtocolApi) {
            api.neighbors_into(node, &mut self.buf);
        }

        fn on_timer(&mut self, node: NodeId, _: u64, api: &mut dyn ProtocolApi) {
            api.neighbors_into(node, &mut self.buf);
            let other = self.rng.gen_range(0..self.n);
            let _ = api.neighbors(other);
            let p = api.node_tx_dbm(node);
            if self.budget == 0 {
                // The chain's last act: a frame with no timer behind it,
                // so the run's final frame is on air alone.
                api.transmit(node, p);
                return;
            }
            self.budget -= 1;
            if self.rng.gen::<f64>() < 0.25 {
                api.transmit(node, p);
            }
            let delay = self.delay();
            api.set_timer(other, delay, 0);
        }
    }

    /// An 80-node world in two power classes (16.02 and 10 dBm) with the
    /// paper's expiry, broadcasting at 12 s and ending at 26 s. Data frames
    /// last 50 ms, so several beacons end while one is on air.
    fn horizon_world(sigma: f64, beacon_interval: f64, seed: u64) -> WorldSpec {
        let mut radio = RadioConfig::paper();
        radio.shadowing_sigma_db = sigma;
        radio.data_duration = 0.05;
        WorldSpec::builder()
            .area(400.0, 400.0)
            .radio(radio)
            .group(NodeGroup::new(50))
            .group(NodeGroup::new(30).tx_power_dbm(10.0))
            .beacon_interval(beacon_interval)
            .neighbor_expiry(2.5)
            .broadcast_window(12.0, 26.0)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn install_shadow<P: Protocol>(sim: &mut Simulator<P>) {
        let expiry = sim.world.spec.neighbor_expiry;
        sim.world.shadow = Some(ShadowTables {
            tables: vec![NeighborTable::new(expiry); sim.world.n_nodes],
            reads: Default::default(),
        });
    }

    /// Runs `spec` under a [`HorizonProbe`] in 0.37 s `run_until` chunks
    /// under every delivery configuration, the shadow tables checking
    /// each protocol read, and asserts that the configurations agree, that
    /// warm-up writes were elided and that the run ended quiet with its
    /// late writes elided too.
    fn check_reads_against_shadow(spec: &WorldSpec) {
        let n = spec.n_nodes();
        let (bt, expiry, end) = (spec.broadcast_time, spec.neighbor_expiry, spec.end_time);
        let mut first: Option<SimReport> = None;
        for (mode, shards) in [
            (DeliveryMode::Incremental, 1),
            (DeliveryMode::Naive, 1),
            (DeliveryMode::Incremental, 2),
        ] {
            let label = format!(
                "{mode:?}, {shards} shard(s), sigma {}",
                spec.radio.shadowing_sigma_db
            );
            let mut sim = Simulator::from_world(spec, HorizonProbe::new(spec));
            sim.set_delivery_mode(mode);
            sim.set_delivery_shards(shards);
            install_shadow(&mut sim);
            let mut t = 0.0;
            while t < end {
                t = end.min(t + 0.37);
                sim.run_until(t);
                if bt - t > expiry {
                    let w = &sim.world;
                    assert!(
                        w.tables.iter().all(NeighborTable::is_empty),
                        "{label}: t {t}"
                    );
                    let heard = w
                        .shadow
                        .as_ref()
                        .unwrap()
                        .tables
                        .iter()
                        .any(|s| !s.is_empty());
                    assert!(heard || t < 1.5, "{label}: no beacon heard by {t}");
                }
            }
            let report = sim.run_to_end();
            let w = &sim.world;
            let shadow = w.shadow.as_ref().unwrap();
            assert!(
                shadow.reads.get() > n as u64,
                "{label}: {} reads",
                shadow.reads.get()
            );
            assert_eq!(w.protocol_events, 0, "{label}: the probe must end quiet");
            assert!(
                (0..n).any(|i| w.tables[i].live(end) != shadow.tables[i].live(end)),
                "{label}: no write was elided after the protocol went quiet"
            );
            match &first {
                None => first = Some(report),
                Some(r) => {
                    assert_eq!(report.broadcast, r.broadcast, "{label}");
                    assert_eq!(report.counters, r.counters, "{label}");
                }
            }
        }
    }

    #[test]
    fn elided_tables_answer_every_protocol_read_like_full_ones() {
        for (sigma, seed) in [(0.0, 41), (4.0, 42)] {
            check_reads_against_shadow(&horizon_world(sigma, 1.0, seed));
        }
    }

    #[test]
    fn read_horizon_is_exact_at_the_expiry_boundary() {
        // A beacon heard exactly `expiry` before the broadcast is live at
        // the start's reads (`now − t ≤ expiry`), so eliding it would be
        // one write too many. Beacons every 3 s outlast the 2.5 s expiry,
        // so that beacon is still its sender's latest at the start. A
        // probe run finds a beacon end `t` with `(t + expiry) − t` exactly
        // `expiry`; the broadcast then starts at `t + expiry`. Times before
        // the broadcast do not depend on it, so `t` recurs.
        for (sigma, seed) in [(0.0, 43), (4.0, 44)] {
            let mut spec = horizon_world(sigma, 3.0, seed);
            let expiry = spec.neighbor_expiry;
            let mut probe_spec = spec.clone();
            probe_spec.broadcast_time = 100.0;
            probe_spec.end_time = 100.0;
            let mut probe = Simulator::from_world(&probe_spec, SourceOnly);
            install_shadow(&mut probe);
            probe.run_until(15.0);
            let shadow = probe.world.shadow.as_ref().unwrap();
            let t = shadow
                .tables
                .iter()
                .flat_map(|table| table.live(15.0))
                .map(|e| e.last_seen)
                .filter(|&t| (t + expiry) - t == expiry)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(t > expiry, "no beacon end fits, sigma {sigma}");
            spec.broadcast_time = t + expiry;
            spec.end_time = spec.broadcast_time + 8.0;
            check_reads_against_shadow(&spec);
        }
    }

    #[test]
    fn sparse_network_partitions_limit_coverage() {
        // 5 nodes in a huge field: almost surely out of range of each other.
        let mut c = SimConfig::paper(5, 11);
        c.field = Field::new(5000.0, 5000.0);
        let n = c.n_nodes;
        let report = Simulator::new(c, Flooding::new(n, (0.0, 0.05))).run();
        assert!(report.broadcast.coverage() < 4);
    }

    #[test]
    fn no_self_delivery_and_energy_accounting() {
        let c = dense_config(5);
        let n = c.n_nodes;
        let report = Simulator::new(c, Flooding::new(n, (0.0, 0.2))).run();
        // flooding: everyone forwards once at default power
        let f = report.broadcast.forwardings as f64;
        assert!((report.broadcast.energy_dbm_sum - f * 16.02).abs() < 1e-6);
        assert!(
            !report.broadcast.covered.contains(&0),
            "source must not count as covered"
        );
    }

    #[test]
    fn broadcast_time_monotone_with_flooding_jitter() {
        // larger forwarding jitter stretches the dissemination in time
        let bt = |jitter: (f64, f64)| {
            let mut c = SimConfig::paper(60, 17);
            c.field = Field::new(400.0, 400.0);
            let n = c.n_nodes;
            Simulator::new(c, Flooding::new(n, jitter))
                .run()
                .broadcast
                .broadcast_time()
        };
        let fast = bt((0.0, 0.01));
        let slow = bt((1.0, 2.0));
        assert!(slow > fast, "slow {slow} <= fast {fast}");
    }

    #[test]
    fn explicit_placement_chain_topology() {
        // A 4-node chain spaced 120 m apart (range ≈ 150 m): flooding must
        // traverse hop by hop and reach the far end.
        let mut c = SimConfig::paper(4, 1);
        c.mobility = crate::mobility::MobilityModel::Stationary;
        c.placement = Placement::Explicit(vec![
            Vec2::new(10.0, 250.0),
            Vec2::new(130.0, 250.0),
            Vec2::new(250.0, 250.0),
            Vec2::new(370.0, 250.0),
        ]);
        let report = Simulator::new(c, Flooding::new(4, (0.01, 0.05))).run();
        assert_eq!(
            report.broadcast.coverage(),
            3,
            "counters {:?}",
            report.counters
        );
        // last hop needs at least 3 frames: source + 2 relays
        assert!(report.broadcast.forwardings >= 2);
    }

    #[test]
    #[should_panic(expected = "placement size mismatch")]
    fn explicit_placement_arity_checked() {
        let mut c = SimConfig::paper(3, 1);
        c.placement = Placement::Explicit(vec![Vec2::new(0.0, 0.0)]);
        let _ = Simulator::new(c, SourceOnly);
    }

    #[test]
    fn run_until_snapshots_positions() {
        let c = SimConfig::paper(10, 5);
        let field = c.field;
        let mut sim = Simulator::new(c, SourceOnly);
        sim.run_until(30.0);
        assert!(sim.now() <= 30.0);
        let pos = sim.positions_at(30.0);
        assert_eq!(pos.len(), 10);
        assert!(pos.iter().all(|p| field.contains(*p)));
        // continuing to the end still works
        sim.run_until(40.0);
        assert!(sim.now() > 30.0);
    }

    #[test]
    fn shard_count_can_change_mid_run_and_survives_reset() {
        // Re-sharding between run_until segments must not perturb the
        // trajectory: every transition flushes the pending batch under
        // the old configuration, so the event stream is identical to the
        // sequential run. The same simulator is then reset and re-run to
        // check the persistent worker pool starts each run clean.
        let mut c = SimConfig::paper(80, 9);
        c.field = Field::new(500.0, 500.0);
        let n = c.n_nodes;
        let baseline = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1))).run();
        let mut sim = Simulator::new(c.clone(), Flooding::new(n, (0.0, 0.1)));
        sim.run_until(10.0);
        sim.set_delivery_shards(3);
        assert_eq!(sim.delivery_shards(), 3);
        sim.run_until(25.0);
        sim.set_delivery_shards(2);
        sim.run_until(33.0);
        sim.set_delivery_shards(1);
        assert_eq!(sim.delivery_shards(), 1);
        let toggled = sim.run_to_end();
        assert_eq!(baseline.broadcast, toggled.broadcast);
        assert_eq!(baseline.counters, toggled.counters);
        sim.set_delivery_shards(4);
        sim.reset(c, Flooding::new(n, (0.0, 0.1)));
        assert_eq!(sim.delivery_shards(), 4, "sharding survives reset");
        let again = sim.run_to_end();
        assert_eq!(baseline.broadcast, again.broadcast);
        assert_eq!(baseline.counters, again.counters);
    }

    #[test]
    fn simultaneous_transmissions_collide() {
        // Two forwarders with zero jitter transmit in the same instant;
        // their frames overlap at common receivers. With capture at 10 dB
        // equidistant receivers lose both.
        let mut c = dense_config(23);
        c.radio.capture_db = 10.0;
        let n = c.n_nodes;
        let report = Simulator::new(c, Flooding::new(n, (0.0, 0.0))).run();
        // all forwarders fire at exactly the same time => massive collisions
        assert!(
            report.counters.collision_losses + report.counters.half_duplex_losses > 0,
            "expected losses, got {:?}",
            report.counters
        );
    }
}
