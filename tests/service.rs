//! Integration tests of the resident service (`serve::SimService`):
//! lifecycle event ordering, bit-identity with the bench-harness
//! experiment path, archive replay across a service restart, cooperative
//! cancellation, and memory/disk backend parity.

use aedb_repro::prelude::*;
use bench_harness::{run_algorithm, ExperimentScale};
use serve::{CancelOutcome, JobError};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_campaign(evals: u64, reps: usize) -> CampaignSpec {
    CampaignSpec {
        scenario: Scenario::quick(Density::D100, 2),
        algorithm: AlgorithmKind::Nsga2,
        budget: CampaignBudget::quick(evals, reps),
    }
}

/// Objective vectors of every repetition front, bit-comparable.
fn front_bits(reps: &[serve::campaign::RepRun]) -> Vec<Vec<Vec<u64>>> {
    reps.iter()
        .map(|r| {
            r.front
                .iter()
                .map(|c| c.objectives.iter().map(|v| v.to_bits()).collect())
                .collect()
        })
        .collect()
}

#[test]
fn job_lifecycle_events_arrive_in_order() {
    let service = SimService::in_memory();
    let handle = service.submit(JobSpec::Campaign(quick_campaign(60, 2)), Priority::Normal);
    let mut events = Vec::new();
    while let Some(ev) = handle.next_event() {
        let terminal = ev.is_terminal();
        events.push(ev);
        if terminal {
            break;
        }
    }
    assert!(
        matches!(events.first(), Some(JobEvent::Accepted { .. })),
        "first event is Accepted"
    );
    assert!(
        matches!(events.get(1), Some(JobEvent::Started { .. })),
        "second event is Started"
    );
    assert!(
        matches!(
            events.last(),
            Some(JobEvent::Finished {
                replayed: false,
                ..
            })
        ),
        "last event is a fresh Finished"
    );
    let generations = events
        .iter()
        .filter(|e| matches!(e, JobEvent::Generation { .. }))
        .count();
    assert!(generations > 0, "campaign streams generation snapshots");
    // Progress covers both repetitions, in order.
    let progress: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            JobEvent::Progress {
                completed, total, ..
            } => Some((*completed, *total)),
            _ => None,
        })
        .collect();
    assert_eq!(progress, vec![(1, 2), (2, 2)]);
    service.drain();
}

#[test]
fn campaign_via_service_matches_bench_path() {
    // The acceptance criterion: a campaign submitted through the service
    // is bit-identical to the bench harness running the same experiment
    // rows (rayon-sharded reps, batch parallelism off). AEDB-MLS is
    // excluded here for the same reason as in the harness's own tests:
    // its internal thread topology makes even two direct runs diverge.
    let scale = ExperimentScale {
        reps: 2,
        networks: 2,
        evals: 60,
        ..ExperimentScale::default()
    };
    let scenario = Scenario::quick(Density::D100, scale.networks);
    let service = SimService::in_memory();
    for algorithm in [AlgorithmKind::Nsga2, AlgorithmKind::CellDe] {
        let problem = AedbProblem::paper(scenario.clone()).with_parallel_batches(false);
        let bench_runs = run_algorithm(&scale, algorithm, &problem);

        let handle = service.submit(
            JobSpec::Campaign(CampaignSpec {
                scenario: scenario.clone(),
                algorithm,
                budget: scale.campaign_budget(),
            }),
            Priority::Normal,
        );
        let result = handle.wait().expect("campaign runs");
        let campaign = result.output.campaign().expect("campaign output");

        assert_eq!(campaign.reps.len(), bench_runs.len());
        for (rep, (service_rep, bench_run)) in campaign.reps.iter().zip(&bench_runs).enumerate() {
            assert_eq!(service_rep.evaluations, bench_run.evaluations);
            let service_front: Vec<Vec<u64>> = service_rep
                .front
                .iter()
                .map(|c| c.objectives.iter().map(|v| v.to_bits()).collect())
                .collect();
            let bench_front: Vec<Vec<u64>> = bench_run
                .front
                .iter()
                .map(|c| c.objectives.iter().map(|v| v.to_bits()).collect())
                .collect();
            assert_eq!(
                service_front,
                bench_front,
                "{} rep {rep} diverged from the bench path",
                algorithm.name()
            );
        }
    }
    service.drain();
}

#[test]
fn archive_replays_bit_identically_across_restart() {
    let root = temp_root("replay");
    let spec = quick_campaign(60, 2);

    // First service: fresh run, archived to disk.
    let service = SimService::on_disk(&root);
    let handle = service.submit(JobSpec::Campaign(spec.clone()), Priority::Normal);
    let fresh = handle.wait().expect("fresh campaign runs");
    assert!(!fresh.replayed);
    let fresh_campaign = fresh.output.campaign().expect("campaign output").clone();
    assert_eq!(service.archived_campaigns().unwrap().len(), 1);
    service.drain();

    // Second service on the same root — a process restart in miniature.
    let service = SimService::on_disk(&root);
    let handle = service.submit(JobSpec::Campaign(spec), Priority::Normal);
    let mut saw_generation = false;
    let replayed = loop {
        match handle.next_event() {
            Some(JobEvent::Generation { .. }) => saw_generation = true,
            Some(JobEvent::Finished {
                replayed, output, ..
            }) => break (replayed, output),
            Some(JobEvent::Failed { error, .. }) => panic!("replay failed: {error}"),
            Some(_) => {}
            None => panic!("service dropped the job"),
        }
    };
    assert!(replayed.0, "resubmission must be answered from the archive");
    assert!(
        !saw_generation,
        "a replay simulates nothing, so it streams no generations"
    );
    let replayed_campaign = replayed.1.campaign().expect("campaign output");
    assert_eq!(
        front_bits(&replayed_campaign.reps),
        front_bits(&fresh_campaign.reps),
        "replayed fronts are bit-identical to the fresh run"
    );
    assert!(*replayed_campaign == fresh_campaign);
    service.drain();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cancellation_mid_campaign_stops_the_job_not_the_service() {
    let service = SimService::in_memory();
    // A budget far too large to finish: cancellation must stop it.
    let handle = service.submit(
        JobSpec::Campaign(quick_campaign(2_000_000, 1)),
        Priority::Normal,
    );
    let mut requested = false;
    loop {
        match handle.next_event() {
            Some(JobEvent::Generation { .. }) => {
                // Proof the campaign is mid-run; cancel it.
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
    // Nothing partial was archived, and the service still serves jobs.
    assert_eq!(service.archived_campaigns().unwrap().len(), 0);
    let handle = service.submit(JobSpec::Campaign(quick_campaign(60, 1)), Priority::High);
    handle
        .wait()
        .expect("service still healthy after a cancellation");
    service.drain();
}

#[test]
fn memory_and_disk_backends_agree() {
    let root = temp_root("parity");
    let spec = quick_campaign(60, 2);
    let run_on = |service: SimService| {
        let handle = service.submit(JobSpec::Campaign(spec.clone()), Priority::Normal);
        let result = handle.wait().expect("campaign runs");
        let campaign = result.output.campaign().expect("campaign output").clone();
        let archived = service.archived_campaigns().unwrap();
        service.drain();
        (campaign, archived)
    };
    let (mem, mem_keys) = run_on(SimService::in_memory());
    let (disk, disk_keys) = run_on(SimService::new(Arc::new(DiskStorage::new(&root))));
    assert!(mem == disk, "backends must not affect results");
    assert_eq!(mem_keys, disk_keys, "archive keys agree across backends");
    let _ = std::fs::remove_dir_all(&root);
}
