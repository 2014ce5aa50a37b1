//! `paper-batch`: offline evaluation of the paper suite over the Fig. 4a–4c
//! sweep, in whole rounds of the same cases.
//!
//! A round evaluates every case once, `CHUNK` cases (one sweep point) per
//! parallel call, the way `SolverRegistry::evaluate_batch` does, but with
//! each case timed by the benchmark from the call into
//! `SolverRegistry::evaluate` to its return: the shared DCA analysis and
//! the registry's own work are part of the case. The first round is a
//! warm-up whose verdict hashes every later round must reproduce, and the
//! peak memory is read right after it; the independent checks run after
//! the timed phase, on one more round.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use msmr_model::JobSet;
use msmr_sched::{SolverRegistry, Verdict};
use msmr_serve::normalized_verdict_json;

use crate::checks;
use crate::inputs::{self, budget, BOUND, CASES_PER_POINT};
use crate::{median, nproc, peak_rss_mb, report_timings, Options, Report, Timings};

/// Cases per parallel call: one sweep point.
pub const CHUNK: usize = CASES_PER_POINT;

/// Evaluates `cases` with the whole suite on `threads` threads, like
/// `SolverRegistry::evaluate_batch`, and times every case.
#[must_use]
pub fn evaluate_timed(
    registry: &SolverRegistry,
    cases: &[JobSet],
    threads: usize,
) -> Vec<(Vec<Verdict>, Duration)> {
    msmr_par::parallel_map(cases, threads, |_, jobs| {
        let start = Instant::now();
        let verdicts = registry.evaluate(jobs, budget());
        (verdicts, start.elapsed())
    })
}

/// A hash of a case's verdicts, witnesses included, provenance fields
/// zeroed: what every round must reproduce exactly.
fn verdicts_hash(verdicts: &[Verdict]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for verdict in verdicts {
        normalized_verdict_json(verdict).hash(&mut hasher);
    }
    hasher.finish()
}

/// Runs the workload.
///
/// # Errors
///
/// Never fails outright; check failures land in the report.
pub fn run(options: &Options) -> Result<Report, String> {
    let threads = nproc();
    let set_up = || {
        let start = Instant::now();
        let cases = inputs::batch_cases(options.seed, inputs::plain);
        let registry = SolverRegistry::paper_suite(BOUND);
        (cases, registry, start.elapsed().as_secs_f64())
    };
    let (cases, registry, secs) = set_up();
    let mut setup = vec![secs];

    // One round: per chunk the timings (timed part only) and the hashes.
    let round = |timings: &mut Timings| -> Vec<u64> {
        let mut hashes = Vec::with_capacity(cases.len());
        for (slot, chunk) in cases.chunks(CHUNK).enumerate() {
            let start = Instant::now();
            let timed = evaluate_timed(&registry, chunk, threads);
            let secs = start.elapsed().as_secs_f64();
            let case_us: Vec<f64> = timed
                .iter()
                .map(|(_, t)| t.as_nanos() as f64 / 1_000.0)
                .collect();
            timings.record(slot, &case_us, secs);
            hashes.extend(msmr_par::parallel_map(&timed, threads, |_, (v, _)| {
                verdicts_hash(v)
            }));
        }
        hashes
    };

    let mut report = Report::default();
    let reference = round(&mut Timings::default());
    // The peak over set-up and one pass over the sweep, as a user evaluating
    // it once sees it. Later rounds repeat the same work; how far the heap
    // creeps over dozens of repetitions follows the allocator's luck with
    // two threads, not the evaluation.
    let peak_rss_mb = peak_rss_mb(std::process::id());
    let mut timings = Timings::default();
    let started = Instant::now();
    while report.attempted == 0 || started.elapsed() < options.seconds {
        if round(&mut timings) != reference && report.errors.is_empty() {
            report
                .errors
                .push("verdicts differ between rounds".to_string());
        }
        report.attempted += cases.len() as u64;
        // Set up again between rounds, outside the timed work, so that
        // `setup_s` samples the host across the run like the other metrics.
        setup.push(set_up().2);
    }

    // The independent checks, on one more round.
    let mut checked = Vec::with_capacity(cases.len());
    for (c, chunk) in cases.chunks(CHUNK).enumerate() {
        let verdicts = registry.evaluate_batch(chunk, budget(), threads);
        checked.extend(msmr_par::parallel_map(chunk, threads, |i, jobs| {
            let case = c * CHUNK + i;
            if verdicts_hash(&verdicts[i]) != reference[case] {
                return Err(format!("case {case}: verdicts differ between rounds"));
            }
            checks::check_verdicts(jobs, &verdicts[i]).map_err(|e| format!("case {case}: {e}"))
        }));
    }
    report.errors.extend(checks::summarize(checked));

    report_timings(&mut report, &[timings]);
    report.metric("setup_s", median(&setup), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    Ok(report)
}
