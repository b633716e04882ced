//! The AEDB-MLS engine: Fig. 3/Fig. 4 of the paper.
//!
//! Topology per run:
//!
//! ```text
//!   ┌ population 0 ─ RwLock<Vec<Candidate>> ┐        ┌───────────────┐
//!   │ worker 0.0  worker 0.1 … worker 0.T   │──msg──▶│ archive thread │
//!   └───────────────────────────────────────┘◀─msg───│  (AGA, Eq.·§IV-A)
//!   ┌ population 1 … (P populations)        │        └───────────────┘
//! ```
//!
//! Workers of one population collaborate through the shared population
//! vector (each slot holds its owner's current solution; reference
//! solutions `t` for the BLX-α move are read from random slots). All
//! workers collaborate globally *only* through the archive manager thread,
//! which owns the Adaptive Grid Archive: `Submit` messages offer feasible
//! solutions, `Sample` messages draw random elites for the periodic
//! population reinitialisation. This mirrors the paper's hybrid
//! message-passing + shared-memory model and its non-hierarchical,
//! peer-only schema (no worker is a master).

use crate::criteria::SearchCriteria;
use crossbeam::channel::{bounded, unbounded, Sender};
use mopt::archive::{AgaArchive, CrowdingArchive, EliteArchive};
use mopt::dominance::{constrained_dominance, DominanceOrd};
use mopt::ops::{blx_alpha_step, uniform_init};
use mopt::problem::Problem;
use mopt::solution::Candidate;
use parking_lot::RwLock;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Which search criteria the local search uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CriteriaChoice {
    /// The paper's three AEDB groups (§IV-B); requires ≥ 5 parameters.
    Aedb,
    /// One group containing every parameter (generic problems).
    AllParams,
    /// Explicit custom groups.
    Custom(SearchCriteria),
}

impl CriteriaChoice {
    fn resolve(&self, n_params: usize) -> SearchCriteria {
        let c = match self {
            CriteriaChoice::Aedb => SearchCriteria::aedb(),
            CriteriaChoice::AllParams => SearchCriteria::all_params(n_params),
            CriteriaChoice::Custom(c) => c.clone(),
        };
        assert!(
            c.max_param_index() < n_params,
            "criteria reference parameter {} but the problem has {}",
            c.max_param_index(),
            n_params
        );
        c
    }
}

/// AEDB-MLS parameters.
#[derive(Debug, Clone)]
pub struct MlsConfig {
    /// Number of distributed populations (paper: 8).
    pub n_populations: usize,
    /// Local-search threads per population (paper: 12).
    pub threads_per_population: usize,
    /// Evaluations each thread performs (paper: 250; total = P·T·E).
    pub evals_per_thread: u64,
    /// Iterations between population reinitialisations from the archive
    /// (paper's tuned value: 50).
    pub reset_iterations: u64,
    /// BLX-α perturbation magnitude (paper's tuned value: 0.2).
    pub alpha: f64,
    /// External archive capacity.
    pub archive_capacity: usize,
    /// AGA grid bisections per objective.
    pub archive_bisections: u32,
    /// Search-criteria selection.
    pub criteria: CriteriaChoice,
    /// Move-acceptance rule (ablation; the paper uses
    /// [`AcceptanceRule::AnyFeasible`]).
    pub acceptance: AcceptanceRule,
    /// Whether populations are periodically reinitialised from the archive
    /// (ablation; the paper enables this).
    pub reinit: bool,
    /// Elite-archive strategy (ablation; the paper uses AGA).
    pub archive_kind: ArchiveKind,
}

/// Acceptance rule of the local-search move (§IV Fig. 3 lines 9–12 accept
/// *any* feasible move; the hill-climbing variant is an ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptanceRule {
    /// Accept every feasible perturbation (the paper's rule).
    AnyFeasible,
    /// Accept a feasible perturbation only when the incumbent does not
    /// dominate it (greedier; trades exploration for convergence).
    NonDominated,
}

/// Which bounded elite archive the manager thread maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveKind {
    /// Adaptive Grid Archiving (PAES) — the paper's choice.
    Aga,
    /// Crowding-distance truncation (jMetal's CrowdingArchive).
    Crowding,
}

impl Default for MlsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl MlsConfig {
    /// The paper's experimental configuration (§V): 8 populations × 12
    /// threads × 250 evaluations = 24 000 evaluations, `α = 0.2`,
    /// reset every 50 iterations.
    pub fn paper() -> Self {
        Self {
            n_populations: 8,
            threads_per_population: 12,
            evals_per_thread: 250,
            reset_iterations: 50,
            alpha: 0.2,
            archive_capacity: 100,
            archive_bisections: 5,
            criteria: CriteriaChoice::Aedb,
            acceptance: AcceptanceRule::AnyFeasible,
            reinit: true,
            archive_kind: ArchiveKind::Aga,
        }
    }

    /// A reduced configuration for tests and quick experiments.
    pub fn quick(n_populations: usize, threads: usize, evals_per_thread: u64) -> Self {
        Self {
            n_populations,
            threads_per_population: threads,
            evals_per_thread,
            reset_iterations: 25,
            alpha: 0.2,
            archive_capacity: 100,
            archive_bisections: 5,
            criteria: CriteriaChoice::AllParams,
            acceptance: AcceptanceRule::AnyFeasible,
            reinit: true,
            archive_kind: ArchiveKind::Aga,
        }
    }

    /// Total evaluation budget of a run.
    pub fn total_evaluations(&self) -> u64 {
        self.n_populations as u64 * self.threads_per_population as u64 * self.evals_per_thread
    }
}

/// Messages workers send to the archive manager.
enum ArchiveMsg {
    /// Offer a solution to the elite archive.
    Submit(Candidate),
    /// Request a random elite for reinitialisation.
    Sample(Sender<Option<Candidate>>),
}

/// The AEDB-MLS optimiser.
#[derive(Debug, Clone, Default)]
pub struct Mls {
    /// Algorithm parameters.
    pub config: MlsConfig,
}

impl Mls {
    /// Creates the optimiser with the given configuration.
    pub fn new(config: MlsConfig) -> Self {
        assert!(config.n_populations >= 1);
        assert!(config.threads_per_population >= 1);
        assert!(config.evals_per_thread >= 1);
        assert!(config.alpha > 0.0 && config.alpha < 1.0);
        assert!(config.reset_iterations >= 1);
        Self { config }
    }

    /// Runs the search. Thread interleaving makes multi-thread runs
    /// non-deterministic in general; a `1 population × 1 thread`
    /// configuration is fully deterministic for a given seed.
    ///
    /// Every worker's starting point is drawn up front and evaluated
    /// through the problem's **batched** pipeline
    /// ([`Problem::evaluate_batch`]) before the worker threads spawn —
    /// on expensive simulation problems the whole multi-start
    /// initialisation fans out across cores (and dedupes via the
    /// problem's cache) instead of trickling in one evaluation per
    /// worker.
    pub fn optimize(&self, problem: &dyn Problem, seed: u64) -> crate::mls::MlsResult {
        let cfg = &self.config;
        let total = cfg.n_populations * cfg.threads_per_population;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7C_41D5_EED0_0113);
        let xs: Vec<Vec<f64>> = (0..total)
            .map(|_| uniform_init(problem.bounds(), &mut rng))
            .collect();
        let init = problem.make_candidates(xs);
        self.optimize_impl(problem, seed, &init, init.len() as u64)
    }

    /// Like [`optimize`](Self::optimize), but workers start from the given
    /// evaluated solutions (round-robin) instead of random points — the
    /// hook the paper's future work needs ("include AEDB-MLS in
    /// \[CellDE\] as a local search for fine tuning the solutions"). Each
    /// worker takes one seed round-robin (already-evaluated seeds are not
    /// re-simulated) and submits it to the archive as its starting point;
    /// when `seeds` is empty all workers initialise randomly.
    pub fn optimize_from(
        &self,
        problem: &dyn Problem,
        seed: u64,
        seeds: &[Candidate],
    ) -> crate::mls::MlsResult {
        self.optimize_impl(problem, seed, seeds, 0)
    }

    /// Shared engine behind [`optimize`](Self::optimize) /
    /// [`optimize_from`](Self::optimize_from); `pre_evals` counts
    /// evaluations already spent producing `seeds` (the batched
    /// initialisation) so result bookkeeping stays exact.
    fn optimize_impl(
        &self,
        problem: &dyn Problem,
        seed: u64,
        seeds: &[Candidate],
        pre_evals: u64,
    ) -> crate::mls::MlsResult {
        let start = Instant::now();
        let cfg = &self.config;
        let n_params = problem.bounds().len();
        let criteria = cfg.criteria.resolve(n_params);
        let evals = AtomicU64::new(0);

        let (tx, rx) = unbounded::<ArchiveMsg>();
        let populations: Vec<RwLock<Vec<Candidate>>> = (0..cfg.n_populations)
            .map(|_| RwLock::new(vec![Candidate::new(vec![]); cfg.threads_per_population]))
            .collect();
        let barriers: Vec<Barrier> = (0..cfg.n_populations)
            .map(|_| Barrier::new(cfg.threads_per_population))
            .collect();

        let archive_capacity = cfg.archive_capacity;
        let archive_bisections = cfg.archive_bisections;
        let archive_kind = cfg.archive_kind;
        let mut archive_out: Option<Vec<Candidate>> = None;

        std::thread::scope(|scope| {
            // Archive manager: the message-passing hub of §IV.
            let archive_handle = scope.spawn(move || {
                let mut archive: Box<dyn EliteArchive> = match archive_kind {
                    ArchiveKind::Aga => {
                        Box::new(AgaArchive::new(archive_capacity, archive_bisections))
                    }
                    ArchiveKind::Crowding => Box::new(CrowdingArchive::new(archive_capacity)),
                };
                let mut sample_rng = SmallRng::seed_from_u64(seed ^ 0xA5C4_17E5_0C1A_1BEDu64);
                while let Ok(msg) = rx.recv() {
                    match msg {
                        ArchiveMsg::Submit(c) => {
                            archive.offer(c);
                        }
                        ArchiveMsg::Sample(reply) => {
                            let s = archive.sample_random(&mut sample_rng);
                            let _ = reply.send(s);
                        }
                    }
                }
                archive.into_contents()
            });

            // Worker threads.
            for p in 0..cfg.n_populations {
                for k in 0..cfg.threads_per_population {
                    let tx = tx.clone();
                    let population = &populations[p];
                    let barrier = &barriers[p];
                    let criteria = criteria.clone();
                    let evals = &evals;
                    let worker_seed =
                        seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul((p * 1024 + k + 1) as u64));
                    let idx = p * cfg.threads_per_population + k;
                    let start_from = seeds
                        .get(idx % seeds.len().max(1))
                        .filter(|_| !seeds.is_empty())
                        .cloned();
                    scope.spawn(move || {
                        worker_loop(
                            problem,
                            cfg,
                            &criteria,
                            population,
                            barrier,
                            k,
                            tx,
                            evals,
                            worker_seed,
                            start_from,
                        );
                    });
                }
            }
            drop(tx); // workers hold the remaining clones

            archive_out = Some(archive_handle.join().expect("archive thread panicked"));
        });

        let front = archive_out.expect("archive thread did not return");
        MlsResult {
            front,
            evaluations: pre_evals + evals.load(Ordering::Relaxed),
            elapsed: start.elapsed(),
        }
    }
}

/// Result of an AEDB-MLS run (front + bookkeeping).
#[derive(Debug, Clone)]
pub struct MlsResult {
    /// Non-dominated archive contents at termination.
    pub front: Vec<Candidate>,
    /// Total evaluations performed.
    pub evaluations: u64,
    /// Wall-clock duration.
    pub elapsed: std::time::Duration,
}

/// One local-search procedure — the paper's Fig. 3, line for line.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    problem: &dyn Problem,
    cfg: &MlsConfig,
    criteria: &SearchCriteria,
    population: &RwLock<Vec<Candidate>>,
    barrier: &Barrier,
    slot: usize,
    tx: Sender<ArchiveMsg>,
    evals: &AtomicU64,
    seed: u64,
    start_from: Option<Candidate>,
) {
    let bounds = problem.bounds();
    let mut rng = SmallRng::seed_from_u64(seed);

    // Lines 1–3: initialise (randomly, or from a provided seed solution
    // when running as a refinement stage), evaluate, archive. A seed that
    // already carries objectives is not re-simulated and costs nothing.
    let mut s = match start_from {
        Some(c) if c.is_evaluated() => c,
        Some(c) => {
            evals.fetch_add(1, Ordering::Relaxed);
            problem.make_candidate(c.params)
        }
        None => {
            evals.fetch_add(1, Ordering::Relaxed);
            problem.make_candidate(uniform_init(bounds, &mut rng))
        }
    };
    let _ = tx.send(ArchiveMsg::Submit(s.clone()));
    population.write()[slot] = s.clone();

    // Line 4: wait until the local population is fully initialised.
    barrier.wait();

    let mut my_evals: u64 = 1;
    let mut iter: u64 = 0;
    // Line 5: stopping condition = per-thread evaluation budget (§V).
    while my_evals < cfg.evals_per_thread {
        iter += 1;

        // Line 6: random reference solution from the local population.
        let t = {
            let pop = population.read();
            pop[rng.gen_range(0..pop.len())].clone()
        };

        // Lines 7: the search operator — pick a criterion, BLX-α each of
        // its parameters (Eq. 2).
        let group = criteria.pick(&mut rng);
        let mut x = s.params.clone();
        for &pidx in group {
            let (lo, hi) = bounds.get(pidx);
            let tp = if pidx < t.params.len() {
                t.params[pidx]
            } else {
                x[pidx]
            };
            if (x[pidx] - tp).abs() > 0.0 {
                x[pidx] = blx_alpha_step(x[pidx], tp, cfg.alpha, &mut rng);
            } else {
                // Absorbing state (s == t in this coordinate): domain-scaled
                // minimal kick so the walk cannot freeze. Implementation
                // choice — the paper leaves this case unspecified.
                let phi = cfg.alpha * 0.01 * (hi - lo);
                let rho: f64 = rng.gen();
                x[pidx] += phi * (3.0 * rho - 2.0);
            }
        }
        bounds.clamp(&mut x);

        // Line 8: evaluate.
        let cand = problem.make_candidate(x);
        my_evals += 1;
        evals.fetch_add(1, Ordering::Relaxed);

        // Lines 9–12: accept feasible moves (the paper accepts *all* of
        // them; the NonDominated rule is an ablation) and share them.
        if cand.is_feasible() {
            let accept = match cfg.acceptance {
                AcceptanceRule::AnyFeasible => true,
                AcceptanceRule::NonDominated => {
                    !s.is_evaluated() || constrained_dominance(&s, &cand) != DominanceOrd::Dominates
                }
            };
            let _ = tx.send(ArchiveMsg::Submit(cand.clone()));
            if accept {
                s = cand;
                population.write()[slot] = s.clone();
            }
        }

        // Lines 13–16: periodic reinitialisation from the archive.
        if cfg.reinit
            && iter.is_multiple_of(cfg.reset_iterations)
            && my_evals < cfg.evals_per_thread
        {
            let (rtx, rrx) = bounded(1);
            if tx.send(ArchiveMsg::Sample(rtx)).is_ok() {
                if let Ok(Some(elite)) = rrx.recv() {
                    s = elite;
                    population.write()[slot] = s.clone();
                }
            }
            barrier.wait();
        }
    }
    // Final barrier is unnecessary: threads only read the shared
    // population, and stragglers sampling a finished thread's slot is the
    // intended behaviour.
}

impl crate::mls::MlsResult {
    /// Objective vectors of the front.
    pub fn objectives(&self) -> Vec<Vec<f64>> {
        self.front.iter().map(|c| c.objectives.clone()).collect()
    }
}

impl mopt::algorithm::MoAlgorithm for Mls {
    fn name(&self) -> &'static str {
        "AEDB-MLS"
    }

    fn run(&self, problem: &dyn Problem, seed: u64) -> mopt::algorithm::RunResult {
        let r = self.optimize(problem, seed);
        mopt::algorithm::RunResult {
            front: r.front,
            evaluations: r.evaluations,
            elapsed: r.elapsed,
        }
        .sanitize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mopt::dominance::{constrained_dominance, DominanceOrd};
    use mopt::indicators::hypervolume;
    use mopt::problem::test_problems::{ConstrainedSchaffer, Schaffer, Zdt1};

    #[test]
    fn budget_is_exact() {
        let mls = Mls::new(MlsConfig::quick(2, 3, 40));
        let r = mls.optimize(&Schaffer::new(), 1);
        assert_eq!(r.evaluations, 2 * 3 * 40);
        assert_eq!(r.evaluations, mls.config.total_evaluations());
    }

    #[test]
    fn converges_on_schaffer() {
        let mls = Mls::new(MlsConfig::quick(2, 4, 150));
        let r = mls.optimize(&Schaffer::new(), 7);
        assert!(!r.front.is_empty());
        let inside = r
            .front
            .iter()
            .filter(|c| c.params[0] > -1.0 && c.params[0] < 3.0)
            .count();
        assert!(
            inside * 10 >= r.front.len() * 8,
            "{}/{}",
            inside,
            r.front.len()
        );
    }

    #[test]
    fn zdt1_beats_random_search_at_equal_budget() {
        // Fig. 3 accepts *every* feasible move, so AEDB-MLS has no hill
        // climbing pressure beyond the archive (the paper's own results
        // show it losing to the MOEAs on IGD/HV). It must still clearly
        // beat pure random sampling at the same evaluation budget.
        use mopt::archive::AgaArchive;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        // Single-threaded so the outcome is deterministic regardless of
        // scheduler interleaving (multi-thread runs are legitimately
        // non-deterministic and are covered by other tests).
        let problem = Zdt1::new(6);
        let budget = 3200;
        let mls = Mls::new(MlsConfig::quick(1, 1, budget));
        let r = mls.optimize(&problem, 3);
        let hv_mls = hypervolume(&r.objectives(), &[1.1, 1.1]);

        let mut rng = SmallRng::seed_from_u64(3);
        let mut archive = AgaArchive::new(100, 5);
        for _ in 0..budget {
            let c = problem.make_candidate(uniform_init(problem.bounds(), &mut rng));
            archive.try_insert(c);
        }
        let rand_front: Vec<Vec<f64>> = archive
            .members()
            .iter()
            .map(|c| c.objectives.clone())
            .collect();
        let hv_rand = hypervolume(&rand_front, &[1.1, 1.1]);
        assert!(hv_mls > hv_rand, "mls {hv_mls} vs random {hv_rand}");
        assert!(hv_mls > 0.1, "hv = {hv_mls}");
    }

    #[test]
    fn feasible_only_acceptance() {
        let mls = Mls::new(MlsConfig::quick(2, 2, 200));
        let r = mls.optimize(&ConstrainedSchaffer::new(), 11);
        // the archive may hold an infeasible seed only if nothing feasible
        // was ever found — impossible here
        assert!(r.front.iter().all(|c| c.is_feasible()));
    }

    #[test]
    fn front_is_mutually_nondominated() {
        let mls = Mls::new(MlsConfig::quick(1, 2, 150));
        let r = mls.optimize(&Schaffer::new(), 23);
        for i in 0..r.front.len() {
            for j in 0..r.front.len() {
                if i != j {
                    assert_ne!(
                        constrained_dominance(&r.front[j], &r.front[i]),
                        DominanceOrd::Dominates
                    );
                }
            }
        }
    }

    #[test]
    fn single_thread_is_deterministic() {
        let mls = Mls::new(MlsConfig::quick(1, 1, 120));
        let p = Schaffer::new();
        let a = mls.optimize(&p, 99);
        let b = mls.optimize(&p, 99);
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
    fn archive_capacity_respected() {
        let mut cfg = MlsConfig::quick(2, 2, 300);
        cfg.archive_capacity = 10;
        let mls = Mls::new(cfg);
        let r = mls.optimize(&Zdt1::new(4), 5);
        assert!(r.front.len() <= 10);
    }

    #[test]
    fn paper_config_totals_24000() {
        assert_eq!(MlsConfig::paper().total_evaluations(), 24_000);
    }

    #[test]
    fn custom_criteria_respected() {
        // restrict moves to parameter 0 only: parameter 1 stays at its
        // initial random value forever (reset draws come from the archive,
        // whose members also never moved in param 1 beyond initial values)
        let cfg = MlsConfig {
            criteria: CriteriaChoice::Custom(SearchCriteria::new(vec![vec![0]])),
            ..MlsConfig::quick(1, 1, 50)
        };
        let mls = Mls::new(cfg);
        let r = mls.optimize(&Zdt1::new(2), 31);
        assert!(!r.front.is_empty());
    }

    #[test]
    fn nondominated_acceptance_still_converges() {
        let cfg = MlsConfig {
            acceptance: AcceptanceRule::NonDominated,
            ..MlsConfig::quick(1, 2, 200)
        };
        let mls = Mls::new(cfg);
        let r = mls.optimize(&Schaffer::new(), 13);
        assert!(!r.front.is_empty());
        assert_eq!(r.evaluations, 400);
        let inside = r
            .front
            .iter()
            .filter(|c| c.params[0] > -1.0 && c.params[0] < 3.0)
            .count();
        assert!(
            inside * 10 >= r.front.len() * 8,
            "{}/{}",
            inside,
            r.front.len()
        );
    }

    #[test]
    fn reinit_disabled_runs_to_budget() {
        let cfg = MlsConfig {
            reinit: false,
            ..MlsConfig::quick(2, 2, 120)
        };
        let mls = Mls::new(cfg);
        let r = mls.optimize(&Zdt1::new(4), 17);
        assert_eq!(r.evaluations, 2 * 2 * 120);
        assert!(!r.front.is_empty());
    }

    #[test]
    fn crowding_archive_variant_bounded_and_nondominated() {
        let cfg = MlsConfig {
            archive_kind: ArchiveKind::Crowding,
            archive_capacity: 12,
            ..MlsConfig::quick(1, 2, 200)
        };
        let mls = Mls::new(cfg);
        let r = mls.optimize(&Zdt1::new(4), 19);
        assert!(r.front.len() <= 12);
        for i in 0..r.front.len() {
            for j in 0..r.front.len() {
                if i != j {
                    assert_ne!(
                        constrained_dominance(&r.front[j], &r.front[i]),
                        DominanceOrd::Dominates
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "criteria reference parameter")]
    fn criteria_arity_checked() {
        let cfg = MlsConfig {
            criteria: CriteriaChoice::Aedb,
            ..MlsConfig::quick(1, 1, 10)
        };
        let mls = Mls::new(cfg);
        let _ = mls.optimize(&Schaffer::new(), 1); // Schaffer has 1 param
    }
}
