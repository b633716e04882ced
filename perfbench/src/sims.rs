//! Direct simulations of a workload's worlds: the untraced `sim_s` series
//! and the traced split of the `manet` layer.
//!
//! Every run follows the reuse path of `aedb` and `serve`: the first world
//! is built with `Simulator::from_world`, later worlds re-arm the same
//! simulator through `reset_world_with`.

use crate::calib::{self, Piece};
use crate::check::{sim_digest, sim_invariants, Reference, Tally};
use crate::trace::{total_secs, TracedProtocol, Tracer, PROTOCOL_SPANS};
use aedb::{Aedb, AedbParams, Scenario};
use manet::metrics::SimCounters;
use manet::sim::SimReport;
use manet::world::WorldSpec;
use manet::Simulator;
use std::time::Instant;

/// World `i` of a scenario's family: network 0's spec with seed
/// `base_seed + i`, so worlds `0..n_networks` are the scenario's own
/// evaluation networks.
pub fn world(scenario: &Scenario, i: u64) -> WorldSpec {
    let mut w = scenario.world(0);
    w.seed = scenario.base_seed + i;
    w
}

/// Checks one report: invariants always, the committed digest when one is
/// given. `also` is a second report that must match it exactly.
fn check_report(
    tally: &mut Tally,
    reference: Option<&Reference>,
    w: &WorldSpec,
    r: &SimReport,
    also: Option<&SimReport>,
) {
    let digest = sim_digest(w.seed, r);
    tally.op(
        sim_invariants(w.seed, r).and_then(|()| match (reference, also) {
            (_, Some(other)) if sim_digest(w.seed, other) != digest => Err(format!(
                "world seed {}: reports differ: `{digest}` vs `{}`",
                w.seed,
                sim_digest(w.seed, other)
            )),
            (Some(reference), _) => reference.check(&digest),
            _ => Ok(()),
        }),
    );
}

/// The untraced `sim_s` measurement: world after world simulated on one
/// reused simulator.
///
/// World 0 runs first on the freshly built simulator (untimed: its
/// allocations grow); worlds `1, 2, …` follow through `reset_world_with`,
/// and world 0 runs once more at the end, where it must reproduce its
/// first report bit for bit. Each timed run is split into pieces, the
/// reset and then every `chunk_s` simulated seconds through `run_until`,
/// each taken at the reference speed (see [`calib`](crate::calib)).
pub struct SimBench {
    scenario: Scenario,
    params: AedbParams,
    chunk_s: f64,
    sim: Simulator<Aedb>,
    /// Seconds per `Simulator::from_world` of world 0.
    pub setup_s: Vec<f64>,
    /// Seconds per timed run at the reference speed.
    pub sim_s: Vec<f64>,
    first: Option<SimReport>,
    next_world: u64,
}

impl SimBench {
    /// Builds world 0 (timed as a set-up) and runs it.
    pub fn new(
        scenario: &Scenario,
        chunk_s: f64,
        reference: Option<&Reference>,
        tally: &mut Tally,
    ) -> Self {
        let params = AedbParams::default_config();
        let w0 = world(scenario, 0);
        let n = w0.n_nodes();
        let (mut sim, setup) = calib::timed(|| Simulator::from_world(&w0, Aedb::new(n, params)));
        let first = sim.run_to_end();
        check_report(tally, reference, &w0, &first, None);
        Self {
            scenario: scenario.clone(),
            params,
            chunk_s,
            sim,
            setup_s: vec![setup],
            sim_s: Vec::new(),
            first: Some(first),
            next_world: 1,
        }
    }

    /// Times one more `Simulator::from_world` of world 0, then drops it.
    pub fn time_setup(&mut self) {
        let w0 = world(&self.scenario, 0);
        let n = w0.n_nodes();
        let params = self.params;
        let (built, secs) = calib::timed(|| Simulator::from_world(&w0, Aedb::new(n, params)));
        drop(built);
        self.setup_s.push(secs);
    }

    /// Index of the world [`step`](Self::step) simulates next.
    pub fn next_world(&self) -> u64 {
        self.next_world
    }

    /// Re-arms the simulator for world `i` and runs it, timed.
    fn timed_run(&mut self, i: u64) -> (WorldSpec, SimReport) {
        let w = world(&self.scenario, i);
        let (n, params) = (w.n_nodes(), self.params);
        let sim = &mut self.sim;
        let mut before = calib::kernel();
        let mut total = 0.0;
        let mut timed = |work: &mut dyn FnMut()| {
            let t = Instant::now();
            work();
            let secs = t.elapsed().as_secs_f64();
            let after = calib::kernel();
            total += Piece {
                secs,
                loops: vec![before, after],
            }
            .at_reference();
            before = after;
        };
        timed(&mut || sim.reset_world_with(&w, |p| p.reset(n, params)));
        let mut until = 0.0;
        while until < w.end_time {
            until = (until + self.chunk_s).min(w.end_time);
            timed(&mut || sim.run_until(until));
        }
        let report = sim.run_to_end();
        self.sim_s.push(total);
        (w, report)
    }

    /// Simulates the next world.
    pub fn step(&mut self, reference: Option<&Reference>, tally: &mut Tally) {
        let (w, report) = self.timed_run(self.next_world);
        check_report(tally, reference, &w, &report, None);
        self.next_world += 1;
    }

    /// Simulates world 0 again through the reset path.
    pub fn finish(&mut self, reference: Option<&Reference>, tally: &mut Tally) {
        let (w, report) = self.timed_run(0);
        check_report(tally, reference, &w, &report, self.first.as_ref());
    }
}

/// The traced split of the `manet` layer, summed over the traced worlds.
#[derive(Default)]
pub struct ManetSplit {
    pub sims: u64,
    pub reset_s: f64,
    pub warmup_s: f64,
    pub broadcast_s: f64,
    pub query_filter_s: f64,
    pub query_outcome_s: f64,
    pub query_interference_s: f64,
    pub protocol_s: f64,
    pub counters: SimCounters,
    pub grid_node_moves: u64,
    pub grid_refresh_events: u64,
    pub sweep_cells_visited: u64,
    pub sweep_cells_culled: u64,
    pub sweep_candidates: u64,
    /// Untraced and traced seconds per world (reset + run), paired.
    pub untraced_s: Vec<f64>,
    pub traced_s: Vec<f64>,
}

impl ManetSplit {
    /// Phase seconds no outside probe can attribute: neighbour-table
    /// updates, the event queue, beacon starts, grid maintenance and
    /// mobility.
    pub fn residual_s(&self) -> f64 {
        self.warmup_s + self.broadcast_s
            - self.query_filter_s
            - self.query_outcome_s
            - self.protocol_s
    }

    /// Seconds of the traced simulations, reset included.
    pub fn wall_s(&self) -> f64 {
        self.reset_s + self.warmup_s + self.broadcast_s
    }
}

fn add_counters(acc: &mut SimCounters, c: &SimCounters) {
    acc.beacons_sent += c.beacons_sent;
    acc.beacons_received += c.beacons_received;
    acc.data_sent += c.data_sent;
    acc.data_received += c.data_received;
    acc.collision_losses += c.collision_losses;
    acc.half_duplex_losses += c.half_duplex_losses;
    acc.timers_fired += c.timers_fired;
}

/// Runs worlds `0..n_worlds` on an untraced and a traced simulator in
/// turn. The traced one wraps AEDB in [`TracedProtocol`], has query
/// profiling on and splits each run into reset, warm-up (up to just
/// before the broadcast starts) and broadcast spans. Both reports must be
/// identical.
pub fn traced_split(
    scenario: &Scenario,
    n_worlds: u64,
    tracer: &std::sync::Arc<Tracer>,
    reference: Option<&Reference>,
    tally: &mut Tally,
) -> ManetSplit {
    let params = AedbParams::default_config();
    let w0 = world(scenario, 0);
    let n = w0.n_nodes();
    let mut plain = Simulator::from_world(&w0, Aedb::new(n, params));
    let mut traced = Simulator::from_world(
        &w0,
        TracedProtocol::new(Aedb::new(n, params), tracer.clone()),
    );
    traced.set_query_profiling(true);
    let mut split = ManetSplit::default();
    let spans_before = tracer.spans().len();
    for i in 0..n_worlds {
        let w = world(scenario, i);
        let t = Instant::now();
        if i > 0 {
            plain.reset_world_with(&w, |p| p.reset(n, params));
        }
        let a = plain.run_to_end();
        split.untraced_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        if i > 0 {
            tracer.scoped("sim.reset", || {
                traced.reset_world_with(&w, |p| p.inner.reset(n, params))
            });
        }
        let warmup_end = w.broadcast_time.next_down();
        tracer.scoped("sim.warmup", || traced.run_until(warmup_end));
        let b = tracer.scoped("sim.broadcast", || traced.run_to_end());
        split.traced_s.push(t.elapsed().as_secs_f64());

        check_report(tally, reference, &w, &b, Some(&a));
        let q = traced.query_profile();
        split.query_filter_s += q.filter_s;
        split.query_outcome_s += q.outcome_s;
        split.query_interference_s += q.interference_s;
        add_counters(&mut split.counters, &b.counters);
        split.grid_node_moves += traced.grid_stats().node_moves;
        split.grid_refresh_events += traced.grid_refresh_events();
        let sweep = traced.sweep_stats();
        split.sweep_cells_visited += sweep.cells_visited;
        split.sweep_cells_culled += sweep.cells_culled;
        split.sweep_candidates += sweep.batched_candidates + sweep.scalar_candidates;
        split.sims += 1;
    }
    let spans = &tracer.spans()[spans_before..];
    split.reset_s = total_secs(spans, "sim.reset");
    split.warmup_s = total_secs(spans, "sim.warmup");
    split.broadcast_s = total_secs(spans, "sim.broadcast");
    split.protocol_s = PROTOCOL_SPANS.iter().map(|n| total_secs(spans, n)).sum();
    split
}

/// Median of `xs` (which must not be empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}
