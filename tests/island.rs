//! Integration tests of the island optimizer (`crates/island`): seed
//! determinism across repeated runs and worker counts on the real AEDB
//! problem, and the anytime-front stream through the resident service
//! (`JobEvent::AnytimeFront` epochs, monotone hypervolume, cancellation,
//! archive replay).

use aedb_repro::prelude::*;
use serve::{CancelOutcome, JobError};

fn front_bits(front: &[Candidate]) -> Vec<(Vec<u64>, Vec<u64>)> {
    front
        .iter()
        .map(|c| {
            (
                c.params.iter().map(|v| v.to_bits()).collect(),
                c.objectives.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

fn island_campaign(evals: u64, reps: usize) -> CampaignSpec {
    CampaignSpec {
        scenario: Scenario::quick(Density::D100, 2),
        algorithm: AlgorithmKind::Island,
        budget: CampaignBudget::quick(evals, reps),
    }
}

#[test]
fn island_runs_bit_reproducible_on_aedb_across_runs_and_workers() {
    // The acceptance criterion: fixed seeds ⇒ identical final archive,
    // regardless of how many workers advance the islands — on the real
    // tuning problem, not just the synthetic test functions.
    let problem =
        AedbProblem::paper(Scenario::quick(Density::D100, 2)).with_parallel_batches(false);
    let mut cfg = IslandConfig::quick(2, 60);
    cfg.workers = 1;
    let baseline = IslandOptimizer::new(cfg.clone()).run(&problem, 0xBEEF);
    let again = IslandOptimizer::new(cfg.clone()).run(&problem, 0xBEEF);
    assert_eq!(
        front_bits(&baseline.front),
        front_bits(&again.front),
        "repeated run diverged"
    );
    for workers in [2, 4] {
        cfg.workers = workers;
        let parallel = IslandOptimizer::new(cfg.clone()).run(&problem, 0xBEEF);
        assert_eq!(
            front_bits(&baseline.front),
            front_bits(&parallel.front),
            "{workers} workers diverged from sequential"
        );
        assert_eq!(baseline.evaluations, parallel.evaluations);
    }
}

#[test]
fn island_campaign_streams_monotone_anytime_front() {
    let service = SimService::in_memory();
    let handle = service.submit(JobSpec::Campaign(island_campaign(60, 1)), Priority::Normal);
    let mut epochs: Vec<(u64, u64, Vec<Vec<f64>>)> = Vec::new();
    let mut saw_generation = false;
    let output = loop {
        match handle.next_event() {
            Some(JobEvent::AnytimeFront {
                epoch,
                evaluations,
                front,
                ..
            }) => epochs.push((epoch, evaluations, front)),
            Some(JobEvent::Generation { .. }) => saw_generation = true,
            Some(JobEvent::Finished { output, .. }) => break output,
            Some(JobEvent::Failed { error, .. }) => panic!("campaign failed: {error}"),
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    };
    assert!(
        !saw_generation,
        "island campaigns stream AnytimeFront, not Generation"
    );
    assert!(epochs.len() > 1, "epoch 0 plus at least one epoch");
    assert!(epochs.windows(2).all(|w| w[0].0 + 1 == w[1].0));
    assert!(epochs.windows(2).all(|w| w[0].1 < w[1].1));

    // The streamed front's hypervolume is non-decreasing over epochs
    // (computed against one fixed reference covering every streamed
    // point). AEDB is constrained, and feasibility-first dominance allows
    // exactly one objective-space reset: the epoch where the first
    // feasible point sweeps any infeasible archive members. After that
    // the archive is feasible-only and strictly anytime.
    let all: Vec<&Vec<f64>> = epochs.iter().flat_map(|(_, _, f)| f.iter()).collect();
    let m = all[0].len();
    let reference: Vec<f64> = (0..m)
        .map(|d| all.iter().map(|p| p[d]).fold(f64::NEG_INFINITY, f64::max) + 1.0)
        .collect();
    let mut last = f64::NEG_INFINITY;
    let mut drops = 0usize;
    for (epoch, _, front) in &epochs {
        let hv = hypervolume(front, &reference);
        if hv < last - 1e-12 {
            drops += 1;
            assert!(
                drops <= 1,
                "epoch {epoch}: second hypervolume drop ({last} to {hv}) — \
                 the anytime contract allows only the feasibility sweep"
            );
        }
        last = hv;
    }

    // The final streamed front matches the terminal result's rep 0 front.
    let campaign = output.campaign().expect("campaign output");
    assert_eq!(campaign.algorithm, AlgorithmKind::Island);
    let final_front: Vec<Vec<f64>> = campaign.reps[0]
        .front
        .iter()
        .map(|c| c.objectives.clone())
        .collect();
    let streamed = &epochs.last().unwrap().2;
    for f in &final_front {
        assert!(
            streamed.iter().any(|s| s == f),
            "terminal front point {f:?} was never streamed"
        );
    }
    service.drain();
}

#[test]
fn island_campaign_replays_and_matches_direct_run() {
    let service = SimService::in_memory();
    let spec = island_campaign(60, 2);
    let handle = service.submit(JobSpec::Campaign(spec.clone()), Priority::Normal);
    let fresh = handle.wait().expect("campaign runs");
    assert!(!fresh.replayed);
    let fresh_campaign = fresh.output.campaign().expect("campaign output").clone();
    assert_eq!(fresh_campaign.reps.len(), 2);

    // The service path is bit-identical to running the campaign's
    // algorithm directly with the campaign seeds.
    let problem = AedbProblem::paper(spec.scenario.clone()).with_parallel_batches(true);
    for (rep, service_rep) in fresh_campaign.reps.iter().enumerate() {
        let direct = serve::campaign::algorithm_for(&spec.budget, AlgorithmKind::Island)
            .run(&problem, serve::campaign::rep_seed(rep));
        assert_eq!(service_rep.evaluations, direct.evaluations);
        assert_eq!(
            front_bits(&service_rep.front),
            front_bits(&direct.front),
            "rep {rep} diverged from the direct run"
        );
    }

    // Resubmission replays from the archive with no anytime stream.
    let handle = service.submit(JobSpec::Campaign(spec), Priority::Normal);
    let mut saw_anytime = false;
    let replayed = loop {
        match handle.next_event() {
            Some(JobEvent::AnytimeFront { .. }) => saw_anytime = true,
            Some(JobEvent::Finished {
                replayed, output, ..
            }) => break (replayed, output),
            Some(JobEvent::Failed { error, .. }) => panic!("replay failed: {error}"),
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    };
    assert!(replayed.0, "second submission must replay");
    assert!(!saw_anytime, "a replay simulates nothing");
    assert!(*replayed.1.campaign().expect("campaign output") == fresh_campaign);
    service.drain();
}

#[test]
fn island_campaign_cancellation_keeps_streamed_front() {
    let service = SimService::in_memory();
    let handle = service.submit(
        JobSpec::Campaign(island_campaign(2_000_000, 1)),
        Priority::Normal,
    );
    let mut best: Option<Vec<Vec<f64>>> = None;
    let mut requested = false;
    loop {
        match handle.next_event() {
            Some(JobEvent::AnytimeFront { front, .. }) => {
                // Proof the campaign is mid-run; cancel it. The stream has
                // already delivered the best-so-far front.
                best = Some(front);
                // Fronts already in flight may still arrive after the
                // first cancel; cancelling again then finds the job
                // flagged, or already ended.
                let outcome = service.cancel(handle.id());
                if requested {
                    assert_ne!(outcome, CancelOutcome::Requested);
                } else {
                    assert_eq!(outcome, CancelOutcome::Requested);
                    requested = true;
                }
            }
            Some(JobEvent::Failed { error, .. }) => {
                assert_eq!(error, JobError::Cancelled);
                break;
            }
            Some(JobEvent::Finished { .. }) => panic!("cancelled campaign finished"),
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    }
    let best = best.expect("at least one anytime epoch before cancellation");
    assert!(!best.is_empty(), "best-so-far front was streamed");
    // Nothing partial archived; the service stays healthy.
    assert_eq!(service.archived_campaigns().unwrap().len(), 0);
    let handle = service.submit(JobSpec::Campaign(island_campaign(60, 1)), Priority::High);
    handle.wait().expect("service still healthy");
    service.drain();
}
