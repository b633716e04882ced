//! The repository benchmark: end-to-end metrics with tracing off, or the
//! per-layer split with tracing on, for one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --write-reference
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` for
//! the workloads, every metric and where it comes from.

mod calib;
mod check;
mod sims;
mod trace;
mod tuning;

use aedb::{Density, Scenario};
use check::{front_digest, sim_digest, Reference, Tally, DEFAULT_SEED};
use manet::world::DenseScenario;
use serve::campaign::{algorithm_for, rep_seed, AlgorithmKind, CampaignBudget};
use serve::SimService;
use sims::{median, traced_split, world, SimBench};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{MemoryStorage, Storage};
use trace::{
    covered_by_children, total_secs, TracedStorage, Tracer, STORE_GET_SPAN, STORE_PUT_SPAN,
};
use tuning::{
    check_nsga2, direct_campaign, mls_probe, problem_on, service_session, Rounds, Tuning,
};

/// Set-ups timed per round; `setup_s` is the median over the run.
const SETUP_REPS: usize = 10;
/// Fresh service sessions per untraced run, spread over its length. Each
/// tunes its own networks, so a run's tuning figures are medians over
/// this many searches rather than one search's luck.
const ROUNDS: u64 = 6;
/// Archived resubmissions per session.
const REPLAYS: usize = 300;

/// One workload: the worlds it simulates directly and the campaigns it
/// submits through the service.
struct Workload {
    name: &'static str,
    /// Whether `setup_s` times the service (else `Simulator::from_world`).
    service_setup: bool,
    /// The scenario whose worlds `0, 1, …` are simulated directly.
    worlds_of: fn(u64) -> Scenario,
    /// Fewest direct simulations per round, even when the round's share
    /// of the run's seconds is used up.
    min_worlds_per_round: u64,
    /// Most direct simulations per untraced run (the committed reference
    /// digests cover worlds `0..max_worlds`).
    max_worlds: u64,
    /// Worlds of the traced `manet` split: a fixed set, so its counts
    /// repeat exactly for a seed.
    traced_worlds: u64,
    /// Simulated seconds per timed piece of a direct run.
    chunk_s: f64,
    /// The campaigns of one session, by session seed.
    tuning: fn(u64) -> Tuning,
    reference: &'static str,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_tuning",
        service_setup: true,
        worlds_of: paper_scenario,
        min_worlds_per_round: 30,
        max_worlds: 1200,
        traced_worlds: 10,
        chunk_s: 40.0,
        tuning: |seed| Tuning {
            scenario: paper_scenario(seed),
            algorithms: &[AlgorithmKind::Nsga2, AlgorithmKind::Mls],
            budget: CampaignBudget::quick(20, 1),
        },
        reference: include_str!("../reference/paper_tuning.txt"),
    },
    Workload {
        name: "dense_beacon",
        service_setup: false,
        worlds_of: |seed| dense_scenario("10000@400", seed),
        min_worlds_per_round: 1,
        max_worlds: 10,
        traced_worlds: 2,
        chunk_s: 1.0,
        tuning: short_tuning,
        reference: include_str!("../reference/dense_beacon.txt"),
    },
    Workload {
        name: "shadowed_query",
        service_setup: false,
        worlds_of: |seed| dense_scenario("2000@200@4", seed),
        min_worlds_per_round: 2,
        max_worlds: 20,
        traced_worlds: 3,
        chunk_s: 1.0,
        tuning: short_tuning,
        reference: include_str!("../reference/shadowed_query.txt"),
    },
];

/// The seed of session `round` of a run with workload seed `seed`.
fn session_seed(seed: u64, round: u64) -> u64 {
    seed * ROUNDS + round
}

/// Base seeds of consecutive workload seeds lie this far apart, so their
/// worlds never overlap.
const SEED_STRIDE: u64 = 1000;

/// The paper's densest scenario on 10 fixed networks.
fn paper_scenario(seed: u64) -> Scenario {
    let mut scenario = Scenario::quick(Density::D300, 10);
    scenario.base_seed += SEED_STRIDE * seed;
    scenario
}

/// One network of a dense world.
fn dense_scenario(spec: &str, seed: u64) -> Scenario {
    let dense = DenseScenario::parse_spec(spec).expect("workload spec is valid");
    let mut scenario = Scenario::dense(dense, 1);
    scenario.base_seed += SEED_STRIDE * seed;
    scenario
}

/// The simulation workloads' service session: NSGA-II alone on the paper
/// scenario, so every end-to-end metric is measured in every workload
/// without a campaign on worlds too large to tune within a run.
fn short_tuning(seed: u64) -> Tuning {
    Tuning {
        scenario: paper_scenario(seed),
        algorithms: &[AlgorithmKind::Nsga2],
        budget: CampaignBudget::quick(24, 1),
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut write_reference = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // Session base seeds grow as 1000 · 6 · seed; keep them far from
    // overflow.
    if seed > u64::MAX / (SEED_STRIDE * ROUNDS) / 2 {
        return Err(format!("seed {seed} is too large"));
    }
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        write_reference,
    })
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The end-to-end metrics, tracing off. The run is split into
/// [`ROUNDS`] rounds; each runs its session's campaigns fresh on a new
/// service and replays them, then simulates worlds until its share of the
/// run's seconds is used, and at least the workload's minimum.
fn end_to_end(
    w: &Workload,
    args: &Args,
    reference: Option<&Reference>,
    tally: &mut Tally,
) -> Metrics {
    let start = Instant::now();
    let mut sims = SimBench::new(&(w.worlds_of)(args.seed), w.chunk_s, reference, tally);
    let tunings: Vec<Tuning> = (0..ROUNDS)
        .map(|r| (w.tuning)(session_seed(args.seed, r)))
        .collect();
    let mut rounds = Rounds {
        tuning: &tunings[0],
        sessions: Vec::with_capacity(ROUNDS as usize),
    };
    let mut service_setup = Vec::with_capacity(ROUNDS as usize * SETUP_REPS);
    for (round, tuning) in (0..ROUNDS).zip(&tunings) {
        let mut service = None;
        for _ in 0..SETUP_REPS {
            let (s, secs) = calib::timed(|| SimService::new(Arc::new(MemoryStorage::new())));
            service_setup.push(secs);
            service = Some(s);
            sims.time_setup();
        }
        let service = service.expect("at least one set-up");
        let session = service_session(&service, tuning, REPLAYS, None, tally);
        // The service's eval cache holds every NSGA-II candidate, so this
        // direct run re-derives the served front without simulating.
        let direct = algorithm_for(&tuning.budget, AlgorithmKind::Nsga2).run(
            &problem_on(&tuning.scenario, Arc::clone(service.storage())),
            rep_seed(0),
        );
        tally.op(check_nsga2(&session, &direct, &tuning.scenario, reference));
        service.shutdown();
        rounds.sessions.push(session);

        let until =
            start + Duration::from_secs_f64(args.seconds * (round + 1) as f64 / ROUNDS as f64);
        let round_cap = 1 + (round + 1) * (w.max_worlds - 1) / ROUNDS;
        let round_min = sims.next_world() + w.min_worlds_per_round;
        while sims.next_world() < round_cap
            && (sims.next_world() < round_min || Instant::now() < until)
        {
            sims.step(reference, tally);
        }
    }
    sims.finish(reference, tally);
    println!(
        "{}: {} timed simulations, {} sessions of {} replays",
        w.name,
        sims.sim_s.len(),
        ROUNDS,
        REPLAYS
    );
    let mut metric = |r: Result<f64, String>| {
        r.unwrap_or_else(|e| {
            tally.op(Err(e));
            f64::NAN
        })
    };
    let setup = if w.service_setup {
        &service_setup
    } else {
        &sims.setup_s
    };
    vec![
        ("setup_s", median(setup), "s"),
        ("sim_s", median(&sims.sim_s), "s"),
        ("evals_per_s", metric(rounds.evals_per_s()), "1/s"),
        ("front_interval_s", metric(rounds.front_interval_s()), "s"),
        ("replay_s", rounds.replay_s(), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// The per-layer split, tracing on. Spans go to `out/spans-<workload>.tsv`.
fn per_layer(w: &Workload, seed: u64, reference: Option<&Reference>, tally: &mut Tally) -> Metrics {
    let tuning = &(w.tuning)(session_seed(seed, 0));
    let tracer = Tracer::new();

    // Untraced baseline of the campaigns, for the tracing overhead.
    let plain = SimService::new(Arc::new(MemoryStorage::new()));
    let baseline = service_session(&plain, tuning, 0, None, tally);
    plain.shutdown();

    let storage = Arc::new(TracedStorage::new(MemoryStorage::new(), tracer.clone()));
    let service = SimService::new(storage.clone());
    let served = service_session(&service, tuning, REPLAYS, Some(&tracer), tally);
    service.shutdown();

    let direct_store: Arc<dyn Storage> = Arc::new(MemoryStorage::new());
    let mut direct = Vec::new();
    for &algorithm in tuning.algorithms {
        let span = match algorithm {
            AlgorithmKind::Mls => "direct.mls",
            _ => "direct.nsga2",
        };
        let opt = algorithm_for(&tuning.budget, algorithm);
        direct.push(direct_campaign(
            &tuning.scenario,
            algorithm,
            &*opt,
            direct_store.clone(),
            &tracer,
            span,
        ));
    }
    let campaign_wall: f64 = direct.iter().map(|d| d.wall_s).sum();
    if !tuning.algorithms.contains(&AlgorithmKind::Mls) {
        direct.push(direct_campaign(
            &tuning.scenario,
            AlgorithmKind::Mls,
            &*mls_probe(),
            direct_store,
            &tracer,
            "direct.mls",
        ));
    }
    let nsga2 = direct
        .iter()
        .find(|d| d.algorithm == AlgorithmKind::Nsga2)
        .expect("every workload runs NSGA-II");
    tally.op(check_nsga2(
        &served,
        &nsga2.run,
        &tuning.scenario,
        reference,
    ));

    let split = traced_split(
        &(w.worlds_of)(seed),
        w.traced_worlds,
        &tracer,
        reference,
        tally,
    );
    let residual = split.residual_s();
    tally.op(if residual >= 0.0 {
        Ok(())
    } else {
        Err(format!("manet.residual_s is negative: {residual}"))
    });

    let spans = tracer.spans();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", w.name));
    tally.op(tracer
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display())));
    println!(
        "{}: {} spans written to {}",
        w.name,
        spans.len(),
        path.display()
    );

    let self_s = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() - covered_by_children(&spans, s))
            .sum()
    };
    let evaluate_s: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("direct."))
        .map(|s| covered_by_children(&spans, s))
        .sum();
    let hits: u64 = direct.iter().map(|d| d.cache_hits).sum();
    let misses: u64 = direct.iter().map(|d| d.cache_misses).sum();
    let simulations = misses * tuning.scenario.n_networks as u64;
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let dispatch: Vec<f64> = served.jobs().map(|j| j.dispatch_s).collect();
    let wall = split.wall_s();
    let query = split.query_filter_s + split.query_outcome_s;
    let c = &split.counters;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("manet.sims", split.sims as f64, "count"),
        ("manet.reset_s", split.reset_s, "s"),
        ("manet.warmup_s", split.warmup_s, "s"),
        ("manet.broadcast_s", split.broadcast_s, "s"),
        ("manet.query_filter_s", split.query_filter_s, "s"),
        ("manet.query_outcome_s", split.query_outcome_s, "s"),
        (
            "manet.query_interference_s",
            split.query_interference_s,
            "s",
        ),
        ("manet.protocol_s", split.protocol_s, "s"),
        ("manet.residual_s", residual, "s"),
        ("manet.query_share", ratio(query, wall), "ratio"),
        ("manet.residual_share", ratio(residual, wall), "ratio"),
        ("manet.beacons_sent", c.beacons_sent as f64, "count"),
        (
            "manet.neighbor_observes",
            c.beacons_received as f64,
            "count",
        ),
        ("manet.data_sent", c.data_sent as f64, "count"),
        ("manet.data_received", c.data_received as f64, "count"),
        ("manet.collision_losses", c.collision_losses as f64, "count"),
        ("manet.timers_fired", c.timers_fired as f64, "count"),
        (
            "manet.grid_node_moves",
            split.grid_node_moves as f64,
            "count",
        ),
        (
            "manet.grid_refresh_events",
            split.grid_refresh_events as f64,
            "count",
        ),
        (
            "manet.sweep_cells_visited",
            split.sweep_cells_visited as f64,
            "count",
        ),
        (
            "manet.sweep_cells_culled",
            split.sweep_cells_culled as f64,
            "count",
        ),
        (
            "manet.sweep_candidates",
            split.sweep_candidates as f64,
            "count",
        ),
        (
            "manet.cull_ratio",
            ratio(
                split.sweep_cells_culled as f64,
                split.sweep_cells_visited as f64,
            ),
            "ratio",
        ),
        (
            "manet.delivery_yield",
            ratio(
                (c.beacons_received + c.data_received) as f64,
                split.sweep_candidates as f64,
            ),
            "ratio",
        ),
        (
            "manet.residual_ns_per_observe",
            ratio(residual * 1e9, c.beacons_received as f64),
            "ns",
        ),
        ("aedb.evaluate_s", evaluate_s, "s"),
        (
            "aedb.batch_calls",
            direct.iter().map(|d| d.calls).sum::<u64>() as f64,
            "count",
        ),
        (
            "aedb.candidates",
            direct.iter().map(|d| d.candidates).sum::<u64>() as f64,
            "count",
        ),
        ("aedb.cache_hits", hits as f64, "count"),
        ("aedb.cache_misses", misses as f64, "count"),
        ("aedb.simulations", simulations as f64, "count"),
        (
            "aedb.cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        (
            "aedb.sims_per_s",
            ratio(simulations as f64, evaluate_s),
            "1/s",
        ),
        ("moea.nsga2_self_s", self_s("direct.nsga2"), "s"),
        ("mls.self_s", self_s("direct.mls"), "s"),
        ("serve.dispatch_s", median(&dispatch), "s"),
        (
            "serve.overhead_s",
            served.fresh_wall_s() - campaign_wall,
            "s",
        ),
        (
            "serve.events",
            served.jobs().map(|j| j.events).sum::<u64>() as f64,
            "count",
        ),
        ("store.get_calls", count(STORE_GET_SPAN), "count"),
        ("store.put_calls", count(STORE_PUT_SPAN), "count"),
        ("store.get_s", total_secs(&spans, STORE_GET_SPAN), "s"),
        ("store.put_s", total_secs(&spans, STORE_PUT_SPAN), "s"),
        ("store.bytes_read", load(&storage.bytes_read), "bytes"),
        ("store.bytes_written", load(&storage.bytes_written), "bytes"),
        (
            "trace.sim_s_overhead",
            median(&split.traced_s) - median(&split.untraced_s),
            "s",
        ),
        (
            "trace.evals_per_s_overhead",
            served.evals_per_s() - baseline.evals_per_s(),
            "1/s",
        ),
    ]
}

/// Writes the digests of seed `seed`: the NSGA-II front of a cold direct
/// run of every session, and every world a run can simulate.
fn write_reference(w: &Workload, seed: u64) -> std::io::Result<()> {
    let mut lines = vec![format!("# {} reference digests for seed {seed}", w.name)];
    for round in 0..ROUNDS {
        let tuning = (w.tuning)(session_seed(seed, round));
        let problem = problem_on(&tuning.scenario, Arc::new(MemoryStorage::new()));
        let run = algorithm_for(&tuning.budget, AlgorithmKind::Nsga2).run(&problem, rep_seed(0));
        lines.push(front_digest(
            tuning.scenario.base_seed,
            run.evaluations,
            &run.front,
        ));
    }
    let worlds = (w.worlds_of)(seed);
    let params = aedb::AedbParams::default_config();
    let w0 = world(&worlds, 0);
    let n = w0.n_nodes();
    let mut sim = manet::Simulator::from_world(&w0, aedb::Aedb::new(n, params));
    for i in 0..w.max_worlds.max(w.traced_worlds) {
        let wi = world(&worlds, i);
        sim.reset_world_with(&wi, |p| p.reset(n, params));
        lines.push(sim_digest(wi.seed, &sim.run_to_end()));
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{}.txt", w.name));
    std::fs::write(&path, lines.join("\n") + "\n")?;
    println!("wrote {} digests to {}", lines.len() - 1, path.display());
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    if args.write_reference {
        if let Err(e) = write_reference(w, args.seed) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let reference = (args.seed == DEFAULT_SEED).then(|| Reference::parse(w.reference));
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(w, args.seed, reference.as_ref(), &mut tally)
    } else {
        end_to_end(w, &args, reference.as_ref(), &mut tally)
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            tally.op(Err(format!("{name} is not finite")));
        }
    }
    for note in &tally.notes {
        println!("failed: {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
