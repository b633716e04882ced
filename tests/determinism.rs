//! Reproducibility guarantees across the whole stack — the paper's
//! protocol ("these 10 networks are always the same for evaluating every
//! solution") depends on them.

use aedb_repro::prelude::*;

#[test]
fn fixed_networks_are_bitwise_stable() {
    let scenario = Scenario::paper(Density::D100);
    let p = AedbParams::default_config();
    let problem = AedbProblem::paper(Scenario::quick(Density::D100, 3));
    // simulate the same network twice -> identical observables
    let a = problem.simulate_one(p, 0);
    let b = problem.simulate_one(p, 0);
    assert_eq!(a, b);
    // distinct networks -> (almost surely) different observables
    let c = problem.simulate_one(p, 1);
    assert_ne!(a, c, "different seeds should give different networks");
    // the seed schedule itself is stable
    assert_eq!(scenario.network_seed(3), scenario.network_seed(3));
}

#[test]
fn nsga2_runs_are_reproducible_on_aedb() {
    let problem = AedbProblem::paper(Scenario::quick(Density::D100, 2));
    let alg = Nsga2::new(Nsga2Config {
        population: 8,
        max_evaluations: 48,
        ..Default::default()
    });
    let a = alg.run(&problem, 77);
    let b = alg.run(&problem, 77);
    assert_eq!(
        a.front
            .iter()
            .map(|c| c.objectives.clone())
            .collect::<Vec<_>>(),
        b.front
            .iter()
            .map(|c| c.objectives.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn cellde_runs_are_reproducible_on_aedb() {
    let problem = AedbProblem::paper(Scenario::quick(Density::D100, 2));
    let alg = CellDe::new(CellDeConfig {
        grid_side: 3,
        max_evaluations: 48,
        ..Default::default()
    });
    let a = alg.run(&problem, 5);
    let b = alg.run(&problem, 5);
    assert_eq!(
        a.front
            .iter()
            .map(|c| c.objectives.clone())
            .collect::<Vec<_>>(),
        b.front
            .iter()
            .map(|c| c.objectives.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn single_thread_mls_is_reproducible_on_aedb() {
    let problem = AedbProblem::paper(Scenario::quick(Density::D100, 2));
    let mls = Mls::new(MlsConfig {
        criteria: CriteriaChoice::Aedb,
        ..MlsConfig::quick(1, 1, 40)
    });
    let a = mls.optimize(&problem, 31);
    let b = mls.optimize(&problem, 31);
    assert_eq!(
        a.front
            .iter()
            .map(|c| c.objectives.clone())
            .collect::<Vec<_>>(),
        b.front
            .iter()
            .map(|c| c.objectives.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn grid_deliveries_match_naive_scan_bitwise() {
    // The spatially-indexed delivery path must produce *byte-identical*
    // BroadcastMetrics and SimCounters to the full O(n) receiver scan on
    // the paper's fixed networks — same coverage set, same loss counters,
    // same floating-point sums, for every density and protocol.
    for density in [Density::D100, Density::D200, Density::D300] {
        let scenario = Scenario::paper(density);
        for k in [0usize, 4, 9] {
            let cfg = scenario.sim_config(k);
            let n = cfg.n_nodes;
            // AEDB under tuning parameters
            let params = AedbParams::default_config();
            let mut fast = Simulator::new(cfg.clone(), Aedb::new(n, params));
            let mut slow = Simulator::new(cfg.clone(), Aedb::new(n, params));
            slow.set_naive_deliveries(true);
            let (rf, rs) = (fast.run_to_end(), slow.run_to_end());
            assert_eq!(rf.broadcast, rs.broadcast, "{density} network {k} (AEDB)");
            assert_eq!(rf.counters, rs.counters, "{density} network {k} (AEDB)");
            // flooding exercises max-power, high-collision regimes
            let mut fast = Simulator::new(cfg.clone(), Flooding::new(n, (0.0, 0.1)));
            let mut slow = Simulator::new(cfg, Flooding::new(n, (0.0, 0.1)));
            slow.set_naive_deliveries(true);
            let (rf, rs) = (fast.run_to_end(), slow.run_to_end());
            assert_eq!(
                rf.broadcast, rs.broadcast,
                "{density} network {k} (flooding)"
            );
            assert_eq!(rf.counters, rs.counters, "{density} network {k} (flooding)");
        }
    }
}

#[test]
fn batch_evaluation_matches_sequential_on_fixed_networks() {
    // The whole batched pipeline — grid simulator, thread-pool fan-out,
    // quantized cache — must reproduce per-candidate evaluation exactly.
    let batched = AedbProblem::paper(Scenario::quick(Density::D200, 3));
    let sequential = AedbProblem::paper(Scenario::quick(Density::D200, 3)).with_eval_cache(false);
    let xs: Vec<Vec<f64>> = vec![
        AedbParams::default_config().to_vec(),
        vec![0.0, 0.5, -75.0, 0.5, 10.0],
        vec![0.9, 4.0, -92.0, 2.5, 45.0],
    ];
    let b = batched.evaluate_batch(&xs);
    for (x, ev) in xs.iter().zip(&b) {
        let s = sequential.evaluate(x);
        assert_eq!(ev.objectives, s.objectives);
        assert_eq!(ev.violation, s.violation);
    }
    // and a second pass is served entirely from the cache, unchanged
    let again = batched.evaluate_batch(&xs);
    assert_eq!(b, again);
    assert!(batched.cache_stats().0 >= xs.len() as u64);
}

#[test]
fn fast99_design_is_reproducible() {
    let f = Fast99::new(5, 129);
    assert_eq!(f.design(2), f.design(2));
    let g = Fast99::new(5, 129);
    assert_eq!(f.design(4), g.design(4));
}

#[test]
fn event_horizon_culling_never_skips_a_decodable_receiver() {
    // A clustered-world pin with the naive scan as oracle: tight
    // stationary clusters spread over a large field put receivers near
    // the edges of query discs and leave many cells empty, so the
    // incremental filter's row ranges start and end at cells whose
    // members sit just in or just out of decode reach. (The world was
    // built for the per-cell event-horizon cull, which skipped cells
    // whose cached bound proved them out of reach; the filter no longer
    // culls, and the pin now guards the row-range stream the same way.)
    // If a range ever dropped a cell that held a decodable receiver, the
    // incremental run would lose deliveries the naive scan finds, and
    // the metrics/counters below would split.
    use manet::geometry::Vec2;
    use manet::mobility::MobilityModel;
    let mut groups: Vec<NodeGroup> = Vec::new();
    for (cx, cy) in [
        (120.0, 140.0),
        (480.0, 110.0),
        (840.0, 160.0),
        (150.0, 520.0),
        (500.0, 490.0),
        (860.0, 540.0),
        (130.0, 870.0),
        (510.0, 880.0),
    ] {
        groups.push(
            NodeGroup::new(12)
                .mobility(MobilityModel::Stationary)
                .placement(GroupPlacement::Rect {
                    min: Vec2::new(cx - 30.0, cy - 30.0),
                    max: Vec2::new(cx + 30.0, cy + 30.0),
                }),
        );
    }
    // A thin mobile population keeps the clusters connected so the
    // broadcast actually crosses the field (and keeps the test honest
    // about mixed-kind worlds).
    groups.push(NodeGroup::new(16).mobility(MobilityModel::RandomWalk {
        change_interval: 20.0,
    }));
    let mut builder = WorldSpec::builder()
        .area(1000.0, 1000.0)
        .broadcast_window(8.0, 12.0)
        .seed(7);
    for g in groups {
        builder = builder.group(g);
    }
    let world = builder.build().expect("valid world");
    let n = world.n_nodes();
    let run = |mode: DeliveryMode| {
        let mut sim = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1)));
        sim.set_delivery_mode(mode);
        let report = sim.run_to_end();
        (report, sim.sweep_stats())
    };
    let (inc, sweep) = run(DeliveryMode::Incremental);
    let (naive, _) = run(DeliveryMode::Naive);
    assert!(
        sweep.batched_candidates > 0 && sweep.cells_visited > 0,
        "scenario must stream stationary and walking candidates: {sweep:?}"
    );
    assert_eq!(inc.broadcast, naive.broadcast, "culling lost a receiver");
    assert_eq!(inc.counters, naive.counters, "culling lost a receiver");
}

#[test]
fn switching_back_to_incremental_mid_run_keeps_every_reception() {
    // Horizon rebuilds leave the grid as their last rebuild placed it, up
    // to a horizon stale, while the incremental filter trusts every
    // node's cell to within the bucket slack. Fast walkers make that
    // staleness cost whole cells, so a run that leaves the incremental
    // discipline and comes back must re-place every node on re-entry or
    // lose beacon receptions the naive scan finds — sequential and
    // sharded alike.
    for seed in 0..12 {
        let world = WorldSpec::builder()
            .area(600.0, 600.0)
            .broadcast_window(12.0, 16.0)
            .seed(seed)
            .group(NodeGroup::new(150).speed_range(15.0, 20.0))
            .build()
            .expect("valid world");
        let n = world.n_nodes();
        let naive = {
            let mut sim = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1)));
            sim.set_delivery_mode(DeliveryMode::Naive);
            sim.run_to_end()
        };
        for shards in [1usize, 2] {
            let mut sim = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1)));
            sim.set_delivery_shards(shards);
            sim.run_until(3.0);
            sim.set_delivery_mode(DeliveryMode::HorizonRebuild);
            sim.run_until(7.9);
            sim.set_delivery_mode(DeliveryMode::Incremental);
            let report = sim.run_to_end();
            assert_eq!(
                report.counters, naive.counters,
                "seed {seed}, {shards} shards"
            );
            assert_eq!(
                report.broadcast, naive.broadcast,
                "seed {seed}, {shards} shards"
            );
        }
    }
}

#[test]
fn sharded_halo_never_drops_a_receiver_at_stripe_edges() {
    // The sharded delivery pin: a dense stationary line of nodes spanning
    // the full field width guarantees that *every* stripe boundary has
    // senders whose decode discs (and interference/half-duplex reach)
    // cross into neighbouring stripes. If a worker's gather radius were
    // ever short of decode-plus-gating reach, a receiver just across a
    // stripe edge would lose a delivery — or an interferer just outside
    // the stripe would be missed, flipping a capture decision — and the
    // run would split from the naive full-scan oracle below. Stationary
    // worlds are also the worst case for batch growth (no mobility events
    // ever force a flush), so this exercises the batch-cap flush path.
    use manet::geometry::Vec2;
    use manet::mobility::MobilityModel;
    let mut builder = WorldSpec::builder()
        .area(1200.0, 300.0)
        .broadcast_window(6.0, 10.0)
        .seed(11)
        // A horizontal band across the whole width: every grid column is
        // populated, so each stripe edge is straddled by radio reach.
        .group(
            NodeGroup::new(90)
                .mobility(MobilityModel::Stationary)
                .placement(GroupPlacement::Rect {
                    min: Vec2::new(0.0, 120.0),
                    max: Vec2::new(1200.0, 180.0),
                }),
        );
    // A few mobile walkers add mid-run re-anchors and grid refreshes.
    builder = builder.group(NodeGroup::new(10).mobility(MobilityModel::RandomWalk {
        change_interval: 20.0,
    }));
    let world = builder.build().expect("valid world");
    let n = world.n_nodes();
    let naive = {
        let mut sim = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1)));
        sim.set_delivery_mode(DeliveryMode::Naive);
        sim.run_to_end()
    };
    for shards in [1usize, 2, 3, 7] {
        let mut sim = Simulator::from_world(&world, Flooding::new(n, (0.0, 0.1)));
        sim.set_delivery_shards(shards);
        assert_eq!(sim.delivery_shards(), shards);
        let report = sim.run_to_end();
        assert_eq!(
            report.broadcast, naive.broadcast,
            "halo dropped a receiver at {shards} shards"
        );
        assert_eq!(
            report.counters, naive.counters,
            "halo dropped a receiver at {shards} shards"
        );
    }
}

/// Flooding with jittered relays that logs every neighbour-table read:
/// each callback reads its node's table and folds the time, the node and
/// every entry into an FNV-1a digest the caller keeps a handle to.
struct ReadLogger {
    seen: Vec<bool>,
    buf: Vec<manet::neighbor::NeighborEntry>,
    log: std::rc::Rc<std::cell::Cell<(u64, u64)>>,
}

impl ReadLogger {
    fn read(&mut self, node: usize, api: &mut dyn ProtocolApi) {
        api.neighbors_into(node, &mut self.buf);
        let (mut digest, reads) = self.log.get();
        let mut fold = |word: u64| {
            for byte in word.to_le_bytes() {
                digest = (digest ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        fold(api.now().to_bits());
        fold(node as u64);
        for e in &self.buf {
            fold(e.id as u64);
            fold(e.rx_dbm.to_bits());
            fold(e.tx_dbm.to_bits());
            fold(e.last_seen.to_bits());
        }
        self.log.set((digest, reads + 1));
    }
}

impl Protocol for ReadLogger {
    fn on_start(&mut self, node: usize, api: &mut dyn ProtocolApi) {
        self.seen[node] = true;
        self.read(node, api);
        let p = api.node_tx_dbm(node);
        api.transmit(node, p);
    }

    fn on_receive(&mut self, node: usize, _: usize, _: f64, api: &mut dyn ProtocolApi) {
        self.read(node, api);
        if !std::mem::replace(&mut self.seen[node], true) {
            let delay = 0.01 + 0.2 * api.rand();
            api.set_timer(node, delay, 0);
        }
    }

    fn on_timer(&mut self, node: usize, _: u64, api: &mut dyn ProtocolApi) {
        self.read(node, api);
        let p = api.node_tx_dbm(node);
        api.transmit(node, p);
    }
}

#[test]
fn neighbour_reads_agree_across_delivery_modes() {
    // Beacon receptions no protocol can read are never written to the
    // neighbour tables. Every delivery path applies that rule on its own
    // (the sharded one when it defers a frame end), so every read a
    // protocol makes must return the same entries under each of them.
    let mut radio = manet::radio::RadioConfig::paper();
    radio.shadowing_sigma_db = 4.0;
    let shadowed = WorldSpec::builder()
        .area(600.0, 600.0)
        .radio(radio)
        .group(NodeGroup::new(70))
        .group(NodeGroup::new(30).tx_power_dbm(10.0))
        .seed(5)
        .build()
        .expect("valid world");
    let paper = Scenario::paper(Density::D300).sim_config(2).to_world();
    for world in [paper, shadowed] {
        let n = world.n_nodes();
        let mut logs = Vec::new();
        for (mode, shards) in [
            (DeliveryMode::Incremental, 1),
            (DeliveryMode::Naive, 1),
            (DeliveryMode::Incremental, 2),
        ] {
            let log = std::rc::Rc::new(std::cell::Cell::new((0xcbf2_9ce4_8422_2325, 0)));
            let protocol = ReadLogger {
                seen: vec![false; n],
                buf: Vec::new(),
                log: log.clone(),
            };
            let mut sim = Simulator::from_world(&world, protocol);
            sim.set_delivery_mode(mode);
            sim.set_delivery_shards(shards);
            let report = sim.run_to_end();
            logs.push((log.get(), report.counters));
        }
        let (reads, sigma) = (logs[0].0 .1, world.radio.shadowing_sigma_db);
        assert!(reads > n as u64, "only {reads} reads, sigma {sigma}");
        assert_eq!(logs[0], logs[1], "incremental vs naive, sigma {sigma}");
        assert_eq!(logs[0], logs[2], "sequential vs 2 stripes, sigma {sigma}");
    }
}
