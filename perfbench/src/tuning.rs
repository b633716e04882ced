//! Tuning through the resident service, and the same campaigns run
//! directly for the per-layer split.

use crate::calib::{self, Piece};
use crate::check::{front_digest, mutually_non_dominated, Reference, Tally};
use crate::trace::{TracedProblem, Tracer};
use aedb::{AedbProblem, Scenario};
use aedb_mls::mls::{CriteriaChoice, Mls, MlsConfig};
use mopt::algorithm::{MoAlgorithm, NoProgress, RunResult};
use serve::campaign::{
    rep_seed, AlgorithmKind, CampaignBudget, CampaignResult, CampaignSpec, RepRun,
};
use serve::{JobEvent, JobSpec, Priority, SimService, EVAL_CACHE_NAMESPACE};
use std::sync::Arc;
use std::time::Instant;
use store::Storage;

/// The campaigns a workload submits: every algorithm runs one repetition
/// of `budget` on `scenario`.
pub struct Tuning {
    pub scenario: Scenario,
    pub algorithms: &'static [AlgorithmKind],
    pub budget: CampaignBudget,
}

impl Tuning {
    pub fn spec(&self, algorithm: AlgorithmKind) -> CampaignSpec {
        CampaignSpec {
            scenario: self.scenario.clone(),
            algorithm,
            budget: self.budget,
        }
    }

    /// Evaluations one repetition of `algorithm` must report.
    pub fn expected_evaluations(&self, algorithm: AlgorithmKind) -> u64 {
        match algorithm {
            AlgorithmKind::Mls => self.budget.mls_evals(),
            _ => self.budget.evals,
        }
    }
}

/// What the client saw of one job.
pub struct JobRecord {
    /// Submit → terminal event.
    pub wall_s: f64,
    /// Submit → `Started`.
    pub dispatch_s: f64,
    /// The time between consecutive events received, the first from
    /// submit, with the calibration loops sampled during each (none when
    /// not calibrated).
    pub phases: Vec<Piece>,
    /// Indices into `phases` of the pieces ending at a `Generation` front:
    /// the front intervals, the first from `Started`.
    pub fronts: Vec<usize>,
    pub events: u64,
    pub replayed: bool,
    pub result: Result<CampaignResult, String>,
}

/// Submits one campaign and follows its event stream to the end; with
/// `calibrate`, samples the calibration loop while it runs.
pub fn run_job(service: &SimService, spec: CampaignSpec, calibrate: bool) -> JobRecord {
    let follow = || {
        let t0 = Instant::now();
        let handle = service.submit(JobSpec::Campaign(spec), Priority::Normal);
        let mut record = JobRecord {
            wall_s: 0.0,
            dispatch_s: 0.0,
            phases: Vec::new(),
            fronts: Vec::new(),
            events: 0,
            replayed: false,
            result: Err("event stream ended without a terminal event".into()),
        };
        let mut times = vec![t0];
        while let Some(event) = handle.next_event() {
            let now = Instant::now();
            record.events += 1;
            record.phases.push(Piece {
                secs: (now - times[times.len() - 1]).as_secs_f64(),
                loops: Vec::new(),
            });
            times.push(now);
            match event {
                JobEvent::Started { .. } => record.dispatch_s = (now - t0).as_secs_f64(),
                JobEvent::Generation { .. } => record.fronts.push(record.phases.len() - 1),
                JobEvent::Finished {
                    replayed, output, ..
                } => {
                    record.replayed = replayed;
                    record.result = output
                        .campaign()
                        .cloned()
                        .ok_or_else(|| "campaign finished without a campaign result".to_string());
                    break;
                }
                JobEvent::Failed { error, .. } => {
                    record.result = Err(format!("job failed: {error}"));
                    break;
                }
                _ => {}
            }
        }
        record.wall_s = t0.elapsed().as_secs_f64();
        (record, times)
    };
    if !calibrate {
        return follow().0;
    }
    let ((mut record, times), samples) = calib::sampled(follow);
    for (phase, span) in record.phases.iter_mut().zip(times.windows(2)) {
        phase.loops = calib::loops_within(&samples, span[0], span[1]);
    }
    record
}

/// Checks a fresh campaign: it succeeded, was not replayed, has one
/// repetition with the budgeted evaluation count and a mutually
/// non-dominated front.
fn check_fresh(tuning: &Tuning, algorithm: AlgorithmKind, job: &JobRecord) -> Result<(), String> {
    let result = job.result.as_ref().map_err(Clone::clone)?;
    let [rep] = result.reps.as_slice() else {
        return Err(format!("{}: expected one repetition", algorithm.name()));
    };
    let want = tuning.expected_evaluations(algorithm);
    if job.replayed {
        Err(format!(
            "{}: a fresh campaign was replayed",
            algorithm.name()
        ))
    } else if rep.evaluations != want {
        Err(format!(
            "{}: {} evaluations, budget {want}",
            algorithm.name(),
            rep.evaluations
        ))
    } else if !mutually_non_dominated(&rep.front) {
        Err(format!("{}: front has dominated members", algorithm.name()))
    } else {
        Ok(())
    }
}

/// The fresh campaigns and replays one service session ran.
pub struct Session {
    pub fresh: Vec<(AlgorithmKind, JobRecord)>,
    pub replays: Vec<JobRecord>,
    /// Calibration loops on every CPU just before and after the replays.
    pub replay_loops: Vec<f64>,
}

impl Session {
    /// Evaluations of the fresh campaigns per second of their
    /// accept-to-`Finished` wall time.
    pub fn evals_per_s(&self) -> f64 {
        let evals: u64 = self
            .fresh
            .iter()
            .filter_map(|(_, j)| j.result.as_ref().ok())
            .flat_map(|r| &r.reps)
            .map(|r| r.evaluations)
            .sum();
        let wall: f64 = self.fresh.iter().map(|(_, j)| j.wall_s).sum();
        evals as f64 / wall
    }

    pub fn fresh_wall_s(&self) -> f64 {
        self.fresh.iter().map(|(_, j)| j.wall_s).sum()
    }

    pub fn result(&self, algorithm: AlgorithmKind) -> Option<&CampaignResult> {
        self.fresh
            .iter()
            .find(|(a, _)| *a == algorithm)
            .and_then(|(_, j)| j.result.as_ref().ok())
    }

    pub fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.fresh.iter().map(|(_, j)| j).chain(&self.replays)
    }
}

/// Elementwise median of equally long lists: each position is the same
/// piece of a job (e.g. its third generation) in every session. `None`
/// when the lengths differ, i.e. the jobs streamed different events.
fn piecewise_median(lists: impl Iterator<Item = Vec<f64>>) -> Option<Vec<f64>> {
    let lists: Vec<Vec<f64>> = lists.collect();
    let len = lists.first()?.len();
    if lists.iter().any(|l| l.len() != len) {
        return None;
    }
    Some(
        (0..len)
            .map(|k| crate::sims::median(&lists.iter().map(|l| l[k]).collect::<Vec<_>>()))
            .collect(),
    )
}

/// The campaigns run fresh once per session, each session on its own
/// service and its own networks. Every job's event stream splits it into
/// pieces of the same shape in every session (dispatch, then one piece
/// per generation for NSGA-II). Each piece is taken at calibrated speed
/// (see [`calib`](crate::calib)), which makes the figures robust to
/// neighbours that slow the host for seconds at a time, and its median
/// over the sessions kept.
pub struct Rounds<'a> {
    pub tuning: &'a Tuning,
    pub sessions: Vec<Session>,
}

impl Rounds<'_> {
    fn jobs(&self, algorithm: AlgorithmKind) -> impl Iterator<Item = &JobRecord> {
        self.sessions
            .iter()
            .flat_map(move |s| s.fresh.iter().filter(move |(a, _)| *a == algorithm))
            .map(|(_, j)| j)
    }

    /// Budgeted evaluations over the summed median pieces of every
    /// campaign, at the reference speed.
    pub fn evals_per_s(&self) -> Result<f64, String> {
        let mut evals = 0;
        let mut secs = 0.0;
        for &algorithm in self.tuning.algorithms {
            let pieces = piecewise_median(
                self.jobs(algorithm)
                    .map(|j| j.phases.iter().map(Piece::at_reference).collect()),
            )
            .ok_or(format!(
                "{} repeats streamed different events",
                algorithm.name()
            ))?;
            evals += self.tuning.expected_evaluations(algorithm);
            secs += pieces.iter().sum::<f64>();
        }
        Ok(evals as f64 / secs)
    }

    /// Median over NSGA-II generations of each generation's median front
    /// interval, at the reference speed.
    pub fn front_interval_s(&self) -> Result<f64, String> {
        let per_generation = piecewise_median(self.jobs(AlgorithmKind::Nsga2).map(|j| {
            j.fronts
                .iter()
                .map(|&i| j.phases[i].at_reference())
                .collect()
        }))
        .filter(|b| !b.is_empty())
        .ok_or("NSGA-II repeats streamed different fronts")?;
        Ok(crate::sims::median(&per_generation))
    }

    /// Median over the sessions of each session's median replay latency,
    /// at the reference speed.
    pub fn replay_s(&self) -> f64 {
        let per_session: Vec<f64> = self
            .sessions
            .iter()
            .map(|s| {
                let walls: Vec<f64> = s.replays.iter().map(|j| j.wall_s).collect();
                Piece {
                    secs: crate::sims::median(&walls),
                    loops: s.replay_loops.clone(),
                }
                .at_reference()
            })
            .collect();
        crate::sims::median(&per_session)
    }
}

/// Runs every campaign of `tuning` fresh on `service`, then resubmits them
/// in turn `replays` times. Each replay must be served from the archive
/// and equal the fresh result bit for bit. With a tracer, every job is a
/// span the storage calls it causes nest under.
pub fn service_session(
    service: &SimService,
    tuning: &Tuning,
    replays: usize,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Session {
    let job = |name: &'static str, spec: CampaignSpec, calibrate: bool| match tracer {
        Some(t) => t.scoped(name, || run_job(service, spec, calibrate)),
        None => run_job(service, spec, calibrate),
    };
    let mut fresh = Vec::new();
    for &algorithm in tuning.algorithms {
        let record = job("serve.campaign", tuning.spec(algorithm), tracer.is_none());
        tally.op(check_fresh(tuning, algorithm, &record));
        fresh.push((algorithm, record));
    }
    let mut session = Session {
        fresh,
        replays: Vec::with_capacity(replays),
        replay_loops: Vec::new(),
    };
    let mut replay_all = || {
        for i in 0..replays {
            let algorithm = tuning.algorithms[i % tuning.algorithms.len()];
            let record = job("serve.replay", tuning.spec(algorithm), false);
            tally.op(match (&record.result, session.result(algorithm)) {
                (Ok(_), _) if !record.replayed => Err("a resubmission was not replayed".into()),
                (Ok(got), Some(fresh)) if got == fresh => Ok(()),
                (Ok(_), _) => Err(format!(
                    "{} replay differs from the fresh result",
                    algorithm.name()
                )),
                (Err(e), _) => Err(e.clone()),
            });
            session.replays.push(record);
        }
    };
    if tracer.is_none() && replays > 0 {
        let mut loops = calib::kernel_on_all_cpus();
        replay_all();
        loops.extend(calib::kernel_on_all_cpus());
        session.replay_loops = loops;
    } else {
        replay_all();
    }
    session
}

/// An `AedbProblem` bound to the eval-cache slot the service would bind
/// for this scenario on `storage`.
pub fn problem_on(scenario: &Scenario, storage: Arc<dyn Storage>) -> AedbProblem {
    let problem = AedbProblem::paper(scenario.clone()).with_parallel_batches(true);
    let key = format!("{:016x}", problem.cache_fingerprint());
    problem.with_eval_cache_storage(storage, EVAL_CACHE_NAMESPACE, key)
}

/// Wraps one repetition's result the way the service archives it.
pub fn as_campaign(algorithm: AlgorithmKind, run: &RunResult) -> CampaignResult {
    CampaignResult {
        algorithm,
        reps: vec![RepRun {
            seed: rep_seed(0),
            evaluations: run.evaluations,
            front: run.front.clone(),
        }],
    }
}

/// Checks the service's NSGA-II result against a direct run and, at the
/// default seed, against the committed digest.
pub fn check_nsga2(
    session: &Session,
    direct: &RunResult,
    scenario: &Scenario,
    reference: Option<&Reference>,
) -> Result<(), String> {
    let Some(served) = session.result(AlgorithmKind::Nsga2) else {
        return Err("no NSGA-II result from the service".into());
    };
    if *served != as_campaign(AlgorithmKind::Nsga2, direct) {
        return Err("service NSGA-II result differs from the direct run".into());
    }
    match reference {
        Some(r) => r.check(&front_digest(
            scenario.base_seed,
            direct.evaluations,
            &direct.front,
        )),
        None => Ok(()),
    }
}

/// One campaign run directly on a traced problem.
pub struct DirectRun {
    pub algorithm: AlgorithmKind,
    /// Problem construction (eval-cache load) to eval-cache flush.
    pub wall_s: f64,
    pub run: RunResult,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub calls: u64,
    pub candidates: u64,
}

/// The smallest MLS run: one population, one thread, one evaluation. The
/// workloads whose campaigns include no MLS run it so the MLS layer is
/// still measured.
pub fn mls_probe() -> Box<dyn MoAlgorithm> {
    Box::new(Mls::new(MlsConfig {
        criteria: CriteriaChoice::Aedb,
        ..MlsConfig::quick(1, 1, 1)
    }))
}

/// Runs `algorithm` as the service would (same problem, eval-cache slot,
/// seed), under a span named `span`, with every evaluation traced.
pub fn direct_campaign(
    scenario: &Scenario,
    algorithm: AlgorithmKind,
    optimiser: &dyn MoAlgorithm,
    storage: Arc<dyn Storage>,
    tracer: &Arc<Tracer>,
    span: &'static str,
) -> DirectRun {
    let t = Instant::now();
    let problem = TracedProblem::new(problem_on(scenario, storage), tracer.clone());
    let run = tracer.scoped(span, || {
        optimiser.run_observed(&problem, rep_seed(0), &NoProgress)
    });
    problem
        .inner
        .flush_eval_cache()
        .expect("flushing the eval cache to in-memory storage");
    let (cache_hits, cache_misses) = problem.inner.cache_stats();
    DirectRun {
        algorithm,
        wall_s: t.elapsed().as_secs_f64(),
        run,
        cache_hits,
        cache_misses,
        calls: problem.calls.load(std::sync::atomic::Ordering::Relaxed),
        candidates: problem
            .candidates
            .load(std::sync::atomic::Ordering::Relaxed),
    }
}
