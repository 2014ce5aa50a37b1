//! Output checks that do not copy the program's output.
//!
//! * [`reference_opa`] — Audsley's loop over the reference
//!   [`Analysis::delay_bound`] (Eq. 10). OPDCA is Audsley's algorithm over
//!   an OPA-compatible test, so its accept/reject must equal this loop's,
//!   whatever order candidates are probed in (this loop probes the
//!   largest deadline first).
//! * [`check_witness`] — every accepted witness, ordering or pairwise, is
//!   re-evaluated job by job with the reference bound: each bound must be
//!   within the job's deadline and equal the delay the verdict reports.
//! * [`dm_order_passes`] — the benchmark's own deadline-monotonic total
//!   order must pass the reference test exactly when DM accepts, and DM
//!   accepting implies OPDCA accepting.
//! * [`same_verdicts`] — wire verdicts against a cold evaluation of the
//!   same job set, provenance fields zeroed.
//! * [`check_tallies`] — a daemon's `stats` counters against the client's
//!   own tallies.

use std::collections::BTreeSet;

use msmr_dca::{Analysis, InterferenceSets};
use msmr_model::{JobId, JobSet};
use msmr_sched::{Verdict, VerdictKind, Witness};
use msmr_serve::normalized_verdict_json;
use msmr_stats::StatsCounters;

use crate::inputs::BOUND;

/// Audsley's optimal priority assignment over the reference bound: assigns
/// the lowest free priority to any job that meets its deadline with every
/// other unassigned job above it, and fails when no job can take a level.
#[must_use]
pub fn reference_opa(analysis: &Analysis<'_>) -> bool {
    let jobs = analysis.jobs();
    let mut unassigned: BTreeSet<JobId> = jobs.job_ids().collect();
    let mut assigned: Vec<JobId> = Vec::new();
    while !unassigned.is_empty() {
        // Largest deadline first: the likeliest job to fit the lowest free
        // level, which only shortens the search.
        let mut candidates: Vec<JobId> = unassigned.iter().copied().collect();
        candidates.sort_by_key(|&id| std::cmp::Reverse((jobs.job(id).deadline(), id)));
        let winner = candidates.into_iter().find(|&target| {
            let sets = InterferenceSets::for_opa_probe(
                unassigned.iter().copied(),
                assigned.iter().copied(),
                target,
            );
            analysis.delay_bound(BOUND, target, &sets) <= jobs.job(target).deadline()
        });
        match winner {
            Some(job) => {
                unassigned.remove(&job);
                assigned.push(job);
            }
            None => return false,
        }
    }
    true
}

/// The deadline-monotonic total order: smaller relative deadline first,
/// ties to the lower job id.
#[must_use]
pub fn dm_order(jobs: &JobSet) -> Vec<JobId> {
    let mut order: Vec<JobId> = jobs.job_ids().collect();
    order.sort_by_key(|&id| (jobs.job(id).deadline(), id));
    order
}

/// Whether every job meets its deadline under the reference bound with the
/// deadline-monotonic order.
#[must_use]
pub fn dm_order_passes(analysis: &Analysis<'_>) -> bool {
    let jobs = analysis.jobs();
    let order = dm_order(jobs);
    jobs.job_ids().all(|target| {
        let sets = InterferenceSets::from_total_order(&order, target);
        analysis.delay_bound(BOUND, target, &sets) <= jobs.job(target).deadline()
    })
}

/// The interference sets a witness implies for `target`. A pairwise
/// witness must decide every pair of competing jobs.
fn witness_sets(
    jobs: &JobSet,
    witness: &Witness,
    target: JobId,
) -> Result<InterferenceSets, String> {
    match witness {
        Witness::Ordering(ordering) => {
            if ordering.len() != jobs.len() || !ordering.iter().all(|id| id.index() < jobs.len()) {
                return Err("ordering witness does not cover the job set".to_string());
            }
            Ok(InterferenceSets::from_total_order(
                ordering.as_slice(),
                target,
            ))
        }
        Witness::Pairwise(assignment) => {
            let mut sets = InterferenceSets::new([], []);
            for k in jobs.competitors(target) {
                match (
                    assignment.is_higher(k, target),
                    assignment.is_higher(target, k),
                ) {
                    (true, false) => sets.insert_higher(k),
                    (false, true) => sets.insert_lower(k),
                    _ => {
                        return Err(format!(
                            "pairwise witness leaves competitors {target} and {k} undecided"
                        ))
                    }
                }
            }
            Ok(sets)
        }
    }
}

/// Re-checks an accepted verdict's witness with the reference bound.
///
/// # Errors
///
/// Names the first job whose reference bound misses its deadline or
/// differs from the verdict's reported delay.
pub fn check_witness(analysis: &Analysis<'_>, verdict: &Verdict) -> Result<(), String> {
    let Some(witness) = &verdict.witness else {
        return Ok(());
    };
    let jobs = analysis.jobs();
    if let Some(delays) = &verdict.delays {
        if delays.len() != jobs.len() {
            return Err(format!(
                "{}: {} delays for {} jobs",
                verdict.solver,
                delays.len(),
                jobs.len()
            ));
        }
    }
    for target in jobs.job_ids() {
        let sets =
            witness_sets(jobs, witness, target).map_err(|e| format!("{}: {e}", verdict.solver))?;
        let bound = analysis.delay_bound(BOUND, target, &sets);
        if bound > jobs.job(target).deadline() {
            return Err(format!(
                "{}: accepted witness misses job {target}'s deadline ({bound:?} > {:?})",
                verdict.solver,
                jobs.job(target).deadline()
            ));
        }
        if let Some(delays) = &verdict.delays {
            if delays[target.index()] != bound {
                return Err(format!(
                    "{}: job {target} reported delay {:?}, reference bound {bound:?}",
                    verdict.solver,
                    delays[target.index()]
                ));
            }
        }
    }
    Ok(())
}

/// Exact counts gathered while checking verdicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Job sets checked.
    pub sets: u64,
    /// Accepted verdicts whose witness was re-checked.
    pub witnesses: u64,
    /// OPT verdicts that ran out of budget (counted, not failed).
    pub opt_undecided: u64,
}

impl VerdictCounts {
    /// Adds another set of counts.
    pub fn add(&mut self, other: VerdictCounts) {
        self.sets += other.sets;
        self.witnesses += other.witnesses;
        self.opt_undecided += other.opt_undecided;
    }
}

/// Prints the counts of the checks that passed to standard error and
/// returns the failures.
pub fn summarize(results: Vec<Result<VerdictCounts, String>>) -> Vec<String> {
    let mut total = VerdictCounts::default();
    let mut errors = Vec::new();
    for result in results {
        match result {
            Ok(counts) => total.add(counts),
            Err(e) => errors.push(e),
        }
    }
    eprintln!(
        "admbench: checked {} job sets, re-checked {} witnesses; {} OPT verdicts undecided \
         (counted, not failed)",
        total.sets, total.witnesses, total.opt_undecided
    );
    errors
}

/// Runs every verdict-level check on the verdicts produced for one job
/// set: the whole suite, or the decider's verdict alone.
///
/// # Errors
///
/// Describes the first check that fails.
pub fn check_verdicts(jobs: &JobSet, verdicts: &[Verdict]) -> Result<VerdictCounts, String> {
    let analysis = Analysis::new(jobs);
    let mut counts = VerdictCounts {
        sets: 1,
        ..VerdictCounts::default()
    };
    let find = |name: &str| verdicts.iter().find(|v| v.solver == name);
    for verdict in verdicts {
        if verdict.is_accepted() {
            check_witness(&analysis, verdict)?;
            counts.witnesses += u64::from(verdict.witness.is_some());
        }
        if verdict.solver == "OPT" && verdict.kind == VerdictKind::Undecided {
            counts.opt_undecided += 1;
        }
    }
    if let Some(opdca) = find("OPDCA") {
        let reference = reference_opa(&analysis);
        if reference != opdca.is_accepted() {
            return Err(format!(
                "OPDCA {:?} but the reference Audsley loop {}",
                opdca.kind,
                if reference { "accepts" } else { "rejects" }
            ));
        }
        if let Some(dm) = find("DM") {
            if dm.is_accepted() && !opdca.is_accepted() {
                return Err("DM accepted a set OPDCA rejected".to_string());
            }
        }
    }
    if let Some(dm) = find("DM") {
        let reference = dm_order_passes(&analysis);
        if reference != dm.is_accepted() {
            return Err(format!(
                "DM {:?} but the deadline-monotonic order {} the reference test",
                dm.kind,
                if reference { "passes" } else { "fails" }
            ));
        }
    }
    Ok(counts)
}

/// Compares wire verdicts with the expected ones, provenance zeroed.
///
/// # Errors
///
/// Names the first missing, extra or differing verdict.
pub fn same_verdicts(wire: &[Verdict], expected: &[Verdict]) -> Result<(), String> {
    if wire.len() != expected.len() {
        return Err(format!(
            "{} verdict frames where {} were expected",
            wire.len(),
            expected.len()
        ));
    }
    for (w, e) in wire.iter().zip(expected) {
        if normalized_verdict_json(w) != normalized_verdict_json(e) {
            return Err(format!(
                "the {} verdict differs from the cold evaluation",
                e.solver
            ));
        }
    }
    Ok(())
}

/// A withdraw must leave the decider accepting the reduced set (a subset
/// of an accepted set stays schedulable under an OPA-compatible test).
///
/// # Errors
///
/// When the decider's verdict is missing or not `Accepted`.
pub fn withdraw_keeps_accepted(verdicts: &[Verdict], jobs_left: usize) -> Result<(), String> {
    if jobs_left == 0 {
        return if verdicts.is_empty() {
            Ok(())
        } else {
            Err("an emptied session streamed verdicts".to_string())
        };
    }
    match verdicts.iter().find(|v| v.solver == crate::inputs::DECIDER) {
        Some(v) if v.is_accepted() => Ok(()),
        Some(v) => Err(format!("withdraw left the decider {:?}", v.kind)),
        None => Err("withdraw streamed no decider verdict".to_string()),
    }
}

/// The client's own tallies of one daemon's (or the tier's) traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    /// Accepted admits.
    pub admits: u64,
    /// Rejected admits.
    pub rejects: u64,
    /// Answered withdraws.
    pub withdraws: u64,
    /// Submits (one per session opening).
    pub submits: u64,
    /// Typed overload frames received.
    pub overloads: u64,
}

impl Tallies {
    /// Adds another set of tallies.
    pub fn add(&mut self, other: Tallies) {
        self.admits += other.admits;
        self.rejects += other.rejects;
        self.withdraws += other.withdraws;
        self.submits += other.submits;
        self.overloads += other.overloads;
    }
}

/// The daemon's counters must equal the client's tallies exactly.
///
/// # Errors
///
/// Lists every counter that differs.
pub fn check_tallies(daemon: &StatsCounters, client: &Tallies) -> Result<(), String> {
    let pairs = [
        ("admits", daemon.admits, client.admits),
        ("rejects", daemon.rejects, client.rejects),
        ("withdraws", daemon.withdraws, client.withdraws),
        ("submits", daemon.submits, client.submits),
        ("overloads", daemon.overloads, client.overloads),
    ];
    let wrong: Vec<String> = pairs
        .iter()
        .filter(|(_, d, c)| d != c)
        .map(|(name, d, c)| format!("{name}: daemon {d} != client {c}"))
        .collect();
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!("stats counters differ ({})", wrong.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{budget, heavy_point, plain, sweep_points};
    use msmr_sched::{PairwiseAssignment, PriorityOrdering, SolverRegistry};
    use msmr_workload::EdgeWorkloadGenerator;

    fn suite() -> SolverRegistry {
        SolverRegistry::paper_suite(BOUND)
    }

    /// A heavy case on which OPDCA accepts and DM rejects, and one on
    /// which OPDCA rejects.
    fn cases() -> (JobSet, JobSet) {
        let generator = EdgeWorkloadGenerator::new(heavy_point()).unwrap();
        let mut accepted = None;
        let mut rejected = None;
        for seed in 0..200 {
            let jobs = plain(&generator, seed);
            let verdicts = suite().evaluate(&jobs, budget());
            let ok = |name: &str| verdicts.iter().any(|v| v.solver == name && v.is_accepted());
            if ok("OPDCA") && !ok("DM") && accepted.is_none() {
                accepted = Some(jobs);
            } else if !ok("OPDCA") && rejected.is_none() {
                rejected = Some(jobs);
            }
            if accepted.is_some() && rejected.is_some() {
                break;
            }
        }
        (accepted.unwrap(), rejected.unwrap())
    }

    #[test]
    fn the_program_passes_every_check_on_sweep_cases() {
        for (_, config) in sweep_points() {
            let generator = EdgeWorkloadGenerator::new(config).unwrap();
            let jobs = plain(&generator, 11);
            let verdicts = suite().evaluate(&jobs, budget());
            check_verdicts(&jobs, &verdicts).unwrap();
        }
        let (accepted, rejected) = cases();
        for jobs in [accepted, rejected] {
            check_verdicts(&jobs, &suite().evaluate(&jobs, budget())).unwrap();
        }
    }

    #[test]
    fn a_flipped_accept_fails() {
        let (accepted, rejected) = cases();
        for jobs in [accepted, rejected] {
            let mut verdicts = suite().evaluate(&jobs, budget());
            let opdca = verdicts.iter_mut().find(|v| v.solver == "OPDCA").unwrap();
            opdca.kind = if opdca.is_accepted() {
                VerdictKind::Rejected
            } else {
                VerdictKind::Accepted
            };
            opdca.witness = None;
            assert!(check_verdicts(&jobs, &verdicts).is_err());
        }
    }

    #[test]
    fn a_flipped_dm_accept_fails() {
        let (accepted, _) = cases();
        let mut verdicts = suite().evaluate(&accepted, budget());
        let dm = verdicts.iter_mut().find(|v| v.solver == "DM").unwrap();
        assert!(!dm.is_accepted());
        dm.kind = VerdictKind::Accepted;
        dm.witness = None;
        assert!(check_verdicts(&accepted, &verdicts).is_err());
    }

    #[test]
    fn an_ordering_witness_with_one_pair_swapped_fails() {
        let (jobs, _) = cases();
        let analysis = Analysis::new(&jobs);
        let verdicts = suite().evaluate(&jobs, budget());
        let opdca = verdicts.iter().find(|v| v.solver == "OPDCA").unwrap();
        check_witness(&analysis, opdca).unwrap();
        let order = opdca
            .witness
            .as_ref()
            .unwrap()
            .as_ordering()
            .unwrap()
            .as_slice()
            .to_vec();
        // Some adjacent swap of interfering jobs changes a reported delay.
        let caught = (0..order.len() - 1).any(|i| {
            let mut swapped = order.clone();
            swapped.swap(i, i + 1);
            let mut planted = opdca.clone();
            planted.witness = Some(Witness::Ordering(PriorityOrdering::new(swapped)));
            check_witness(&analysis, &planted).is_err()
        });
        assert!(caught);
    }

    #[test]
    fn a_pairwise_witness_with_one_pair_swapped_fails() {
        let (jobs, _) = cases();
        let analysis = Analysis::new(&jobs);
        let verdicts = suite().evaluate(&jobs, budget());
        let dmr = verdicts
            .iter()
            .find(|v| v.solver == "DMR" && v.is_accepted());
        let dmr = dmr.expect("DMR accepts the case");
        let assignment = dmr.witness.as_ref().unwrap().as_pairwise().unwrap();
        let pairs: Vec<(JobId, JobId)> = assignment.iter().collect();
        let swap = |skip: usize| {
            let mut planted = PairwiseAssignment::new();
            for (i, &(winner, loser)) in pairs.iter().enumerate() {
                if i == skip {
                    planted.set_higher(loser, winner);
                } else {
                    planted.set_higher(winner, loser);
                }
            }
            let mut verdict = dmr.clone();
            verdict.witness = Some(Witness::Pairwise(planted));
            check_witness(&analysis, &verdict).is_err()
        };
        assert!((0..pairs.len()).any(swap));
        // Swapping the first pair alone is caught whenever it changes a
        // delay; dropping a pair is always caught.
        let mut dropped = PairwiseAssignment::new();
        for &(winner, loser) in &pairs[1..] {
            dropped.set_higher(winner, loser);
        }
        let mut verdict = dmr.clone();
        verdict.witness = Some(Witness::Pairwise(dropped));
        assert!(check_witness(&analysis, &verdict).is_err());
    }

    #[test]
    fn a_dropped_or_altered_frame_fails() {
        let (jobs, _) = cases();
        let cold = suite().evaluate(&jobs, budget());
        let mut wire = cold.clone();
        wire[0].stats.elapsed_micros += 17; // provenance only: still equal
        same_verdicts(&wire, &cold).unwrap();
        let mut dropped = cold.clone();
        dropped.remove(2);
        assert!(same_verdicts(&dropped, &cold).is_err());
        let mut altered = cold.clone();
        altered[3].stats.nodes_explored += 1;
        assert!(same_verdicts(&altered, &cold).is_err());
    }

    #[test]
    fn a_miscounted_tally_fails() {
        let client = Tallies {
            admits: 40,
            rejects: 3,
            withdraws: 40,
            submits: 8,
            overloads: 0,
        };
        let mut daemon = StatsCounters {
            admits: 40,
            rejects: 3,
            withdraws: 40,
            submits: 8,
            ..StatsCounters::default()
        };
        check_tallies(&daemon, &client).unwrap();
        daemon.withdraws = 39;
        assert!(check_tallies(&daemon, &client).is_err());
    }

    #[test]
    fn a_rejecting_withdraw_fails() {
        let (_, rejected) = cases();
        let verdicts = suite().evaluate(&rejected, budget());
        assert!(withdraw_keeps_accepted(&verdicts, rejected.len()).is_err());
        assert!(withdraw_keeps_accepted(&[], 3).is_err());
        withdraw_keeps_accepted(&[], 0).unwrap();
    }
}
