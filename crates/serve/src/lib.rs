//! Resident in-process simulation service for the AEDB reproduction.
//!
//! The experiment binaries (`crates/bench/src/bin/`) are batch programs:
//! build a problem, run it, print tables, exit. This crate turns the same
//! machinery into a **resident service** an application embeds:
//!
//! * [`SimService`] owns a worker thread and accepts jobs through a typed
//!   API — [`JobSpec::Simulate`] (raw simulator runs of a
//!   [`WorldSpec`](manet::world::WorldSpec) under a chosen protocol) and
//!   [`JobSpec::Campaign`] (a full tuning campaign: algorithm × seeded
//!   repetitions on a [`Scenario`](aedb::scenario::Scenario));
//! * jobs are scheduled FIFO within three [`Priority`] classes and stream
//!   [`JobEvent`]s (accepted → started → per-generation front snapshots
//!   and per-row progress → finished/failed) to the submitting
//!   [`JobHandle`];
//! * jobs can be [cancelled](SimService::cancel) cooperatively (the call
//!   reports a typed [`CancelOutcome`]), a job that panics fails alone
//!   with [`JobError::Panicked`] while the worker keeps serving, and the
//!   service drains or shuts down gracefully;
//! * results persist through the pluggable [`store::Storage`] backend the
//!   service was built on: AEDB eval caches and **campaign archives**
//!   outlive the process (disk backend), so a resubmitted finished
//!   campaign replays bit-identically from the archive instead of
//!   recomputing ([`JobResult::replayed`]).
//!
//! The campaign construction rules ([`campaign::algorithm_for`],
//! [`campaign::rep_seed`]) are the ones the bench harness itself uses
//! (it delegates here), so a campaign through the service is
//! bit-identical to the corresponding `bench-harness` experiment rows —
//! pinned by `tests/service.rs` at the workspace root.
//!
//! ```no_run
//! use serve::{JobSpec, Priority, SimService};
//! use serve::campaign::{AlgorithmKind, CampaignBudget, CampaignSpec};
//! use aedb::scenario::{Density, Scenario};
//!
//! let service = SimService::on_disk("./service-data");
//! let job = service.submit(
//!     JobSpec::Campaign(CampaignSpec {
//!         scenario: Scenario::quick(Density::D100, 3),
//!         algorithm: AlgorithmKind::Nsga2,
//!         budget: CampaignBudget::quick(400, 2),
//!     }),
//!     Priority::Normal,
//! );
//! let result = job.wait().expect("campaign runs");
//! println!("replayed from archive: {}", result.replayed);
//! service.drain();
//! ```

pub mod campaign;
pub mod job;
pub mod service;

pub use job::{
    CancelOutcome, JobError, JobEvent, JobId, JobOutput, JobSpec, Priority, ProtocolSpec,
    SimSummary, SimulateSpec,
};
pub use service::{JobHandle, JobResult, SimService, CAMPAIGN_NAMESPACE, EVAL_CACHE_NAMESPACE};
