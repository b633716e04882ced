//! Output checks: reference digests for the default seed, invariants for
//! every seed, and the tally of attempted and failed operations.

use manet::sim::SimReport;
use mopt::dominance::non_dominated;
use mopt::indicators::hypervolume;
use mopt::solution::Candidate;
use std::collections::HashMap;

/// The seed reference digests are committed for.
pub const DEFAULT_SEED: u64 = 1;

/// Operations attempted and failed, with a note per failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` marks it failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.notes.push(why);
        }
    }
}

/// One line per simulation: the world seed, then coverage, forwardings,
/// energy and broadcast time (f64 bits in hex) and every `SimCounters`
/// field.
pub fn sim_digest(world_seed: u64, r: &SimReport) -> String {
    let c = &r.counters;
    format!(
        "sim {world_seed} {} {} {:016x} {:016x} {} {} {} {} {} {} {}",
        r.broadcast.coverage(),
        r.broadcast.forwardings,
        r.broadcast.energy_dbm_sum.to_bits(),
        r.broadcast.broadcast_time().to_bits(),
        c.beacons_sent,
        c.beacons_received,
        c.data_sent,
        c.data_received,
        c.collision_losses,
        c.half_duplex_losses,
        c.timers_fired,
    )
}

/// Invariants every simulation report must satisfy, whatever the seed.
pub fn sim_invariants(world_seed: u64, r: &SimReport) -> Result<(), String> {
    let b = &r.broadcast;
    let c = &r.counters;
    let fail = |what: &str| Err(format!("world seed {world_seed}: {what}"));
    if b.coverage() >= r.n_nodes {
        return fail("coverage counts more nodes than the world has besides the source");
    }
    if c.data_sent != b.forwardings as u64 + 1 {
        return fail("data frames sent != forwardings + the source's send");
    }
    if c.data_received < b.coverage() as u64 {
        return fail("fewer data receptions than covered nodes");
    }
    if c.beacons_sent == 0 || !b.energy_dbm_sum.is_finite() {
        return fail("no beacons, or non-finite energy");
    }
    Ok(())
}

/// The digest of an NSGA-II front on the scenario with `base_seed`:
/// evaluations, front size, an FNV-1a hash over the bits of every
/// parameter, objective and violation, and the hypervolume (bits in hex)
/// against the front's own nadir + 1.
pub fn front_digest(base_seed: u64, evaluations: u64, front: &[Candidate]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: f64| {
        for b in x.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for c in front {
        c.params.iter().chain(&c.objectives).for_each(|&x| feed(x));
        feed(c.violation);
    }
    let objs: Vec<Vec<f64>> = front.iter().map(|c| c.objectives.clone()).collect();
    let m = objs.first().map_or(0, Vec::len);
    let reference: Vec<f64> = (0..m)
        .map(|i| objs.iter().map(|o| o[i]).fold(f64::NEG_INFINITY, f64::max) + 1.0)
        .collect();
    let hv = hypervolume(&objs, &reference);
    format!(
        "nsga2 {base_seed} {evaluations} {} {h:016x} {:016x}",
        front.len(),
        hv.to_bits()
    )
}

/// Whether no member of `front` dominates another.
pub fn mutually_non_dominated(front: &[Candidate]) -> bool {
    non_dominated(front).len() == front.len()
}

/// Committed digests of the default seed, keyed by their first two
/// fields (`sim <world seed>`, `nsga2 <scenario base seed>`).
pub struct Reference(HashMap<String, String>);

impl Reference {
    pub fn parse(text: &str) -> Self {
        let map = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| (key(l), l.trim().to_string()))
            .collect();
        Self(map)
    }

    /// Compares `digest` with the committed line of the same key.
    pub fn check(&self, digest: &str) -> Result<(), String> {
        match self.0.get(&key(digest)) {
            Some(want) if want == digest => Ok(()),
            Some(want) => Err(format!("digest mismatch: got `{digest}`, want `{want}`")),
            None => Err(format!("no reference digest for `{}`", key(digest))),
        }
    }
}

fn key(line: &str) -> String {
    line.split_whitespace()
        .take(2)
        .collect::<Vec<_>>()
        .join(" ")
}
