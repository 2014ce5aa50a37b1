//! Seeded inputs: the paper's Fig. 4a–4c sweep cases, the arrival traces
//! the serving workloads replay, and each trace's operation plan.
//!
//! Everything here is a pure function of `--seed`: the same seed gives
//! byte-identical job sets and plans, so two runs attempt exactly the
//! same operations.

use msmr_dca::DelayBoundKind;
use msmr_model::JobSet;
use msmr_sched::Budget;
use msmr_serve::MixRng;
use msmr_workload::{arrival_order, EdgeWorkloadConfig, EdgeWorkloadGenerator};

/// The paper's evaluation bound (Eq. 10), used by every solver.
pub const BOUND: DelayBoundKind = DelayBoundKind::EdgeHybrid;
/// OPT's node budget: the daemon's and the Fig. 4 binaries' default.
pub const OPT_NODES: u64 = 200_000;
/// The deciding solver of every admission session.
pub const DECIDER: &str = "OPDCA";
/// Jobs per case and per trace (the paper's scale).
pub const JOBS: usize = 100;
/// Cases per sweep point in one `paper-batch` round.
pub const CASES_PER_POINT: usize = 224;
/// Arrival traces (= named sessions) in one serving round.
pub const TRACES: usize = 24;
/// Probability of withdrawing an admitted job after an admit.
pub const WITHDRAW_RATIO: f64 = 0.25;

/// The evaluation budget every path uses.
#[must_use]
pub fn budget() -> Budget {
    Budget::default().with_node_limit(OPT_NODES)
}

/// The twelve points of Figs. 4a (β), 4b (`[h1,h2,h3]`) and 4c (γ), each
/// on the paper's defaults (100 jobs, 25 access points, 20 servers).
#[must_use]
pub fn sweep_points() -> Vec<(String, EdgeWorkloadConfig)> {
    let base = || EdgeWorkloadConfig::default().with_jobs(JOBS);
    let mut points = Vec::new();
    for beta in [0.05, 0.10, 0.15, 0.20] {
        points.push((format!("4a beta={beta:.2}"), base().with_beta(beta)));
    }
    for ratios in [
        [0.01, 0.01, 0.01],
        [0.05, 0.05, 0.05],
        [0.10, 0.10, 0.01],
        [0.01, 0.15, 0.01],
    ] {
        points.push((format!("4b h={ratios:?}"), base().with_heavy_ratios(ratios)));
    }
    for gamma in [0.6, 0.7, 0.8, 0.9] {
        points.push((format!("4c gamma={gamma:.1}"), base().with_gamma(gamma)));
    }
    points
}

/// The heavy sweep point the serving traces come from (Fig. 4c, γ = 0.9):
/// OPDCA rejects some arrivals there, so rollbacks are exercised.
#[must_use]
pub fn heavy_point() -> EdgeWorkloadConfig {
    EdgeWorkloadConfig::default()
        .with_jobs(JOBS)
        .with_gamma(0.9)
}

/// The generator seed of case `index` of stream `stream` under `seed`.
#[must_use]
pub fn case_seed(seed: u64, stream: u64, index: usize) -> u64 {
    let mut rng = MixRng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    rng.next_u64().wrapping_add(index as u64)
}

/// One `paper-batch` round: `CASES_PER_POINT` cases of every sweep point,
/// point-major. `generate` makes each case (the traced run times it).
#[must_use]
pub fn batch_cases(
    seed: u64,
    mut generate: impl FnMut(&EdgeWorkloadGenerator, u64) -> JobSet,
) -> Vec<JobSet> {
    let mut cases = Vec::new();
    for (p, (_, config)) in sweep_points().into_iter().enumerate() {
        let generator = EdgeWorkloadGenerator::new(config).expect("sweep points are valid");
        for c in 0..CASES_PER_POINT {
            cases.push(generate(&generator, case_seed(seed, 1 + p as u64, c)));
        }
    }
    cases
}

/// The serving workloads' arrival traces: `TRACES` heavy-point job sets.
#[must_use]
pub fn serving_traces(
    seed: u64,
    mut generate: impl FnMut(&EdgeWorkloadGenerator, u64) -> JobSet,
) -> Vec<JobSet> {
    let generator = EdgeWorkloadGenerator::new(heavy_point()).expect("heavy point is valid");
    (0..TRACES)
        .map(|k| generate(&generator, case_seed(seed, 100, k)))
        .collect()
}

/// Generation without instrumentation.
pub fn plain(generator: &EdgeWorkloadGenerator, seed: u64) -> JobSet {
    generator.generate_seeded(seed)
}

/// One planned operation of a trace replay. A withdraw names its victim
/// by a draw, resolved at run time as `draw % admitted` into the list of
/// currently admitted handles (kept in admission order with swap-removal,
/// exactly like a session's handle list), so the plan is fixed before any
/// decision is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedOp {
    /// Admit the trace's job with this id.
    Admit(usize),
    /// Withdraw the admitted job at `draw % admitted`.
    Withdraw(u64),
}

/// The plan of one trace: every arrival in arrival order, each followed by
/// a withdraw with probability `WITHDRAW_RATIO`, then withdrawals of every
/// job still admitted, which returns the session to empty so the next
/// round repeats exactly the same operations. The number of trailing
/// withdrawals is only known at run time, so their victims are drawn from
/// `drain_seed` as they are needed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The arrival phase.
    pub ops: Vec<PlannedOp>,
    /// Seed of the drain phase's victim draws.
    pub drain_seed: u64,
}

/// The plan of trace `k` under `seed`.
#[must_use]
pub fn plan(trace: &JobSet, seed: u64, k: usize) -> Plan {
    let mut rng = MixRng::new(case_seed(seed, 200, k));
    let mut ops = Vec::new();
    for id in arrival_order(trace) {
        ops.push(PlannedOp::Admit(id.index()));
        if rng.next_f64() < WITHDRAW_RATIO {
            ops.push(PlannedOp::Withdraw(rng.next_u64()));
        }
    }
    Plan {
        ops,
        drain_seed: rng.next_u64(),
    }
}

/// Resolves a plan against decisions as they are made: `next` yields the
/// next concrete operation, and the caller reports each admit's outcome
/// through [`PlanCursor::record_admit`].
#[derive(Debug, Clone)]
pub struct PlanCursor<'a> {
    plan: &'a Plan,
    position: usize,
    drain: MixRng,
    /// Jobs currently admitted.
    pub admitted: usize,
}

/// A concrete operation: admit a trace job, or withdraw the admitted job
/// at an index of the admission-order handle list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Admit the trace's job with this id.
    Admit(usize),
    /// Withdraw the admitted job at this index.
    Withdraw(usize),
}

impl<'a> PlanCursor<'a> {
    /// A cursor at the start of `plan` with an empty session.
    #[must_use]
    pub fn new(plan: &'a Plan) -> Self {
        PlanCursor {
            plan,
            position: 0,
            drain: MixRng::new(plan.drain_seed),
            admitted: 0,
        }
    }

    /// Records the outcome of the last `Admit` step.
    pub fn record_admit(&mut self, accepted: bool) {
        self.admitted += usize::from(accepted);
    }
}

impl Iterator for PlanCursor<'_> {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        while let Some(&op) = self.plan.ops.get(self.position) {
            self.position += 1;
            match op {
                PlannedOp::Admit(id) => return Some(Step::Admit(id)),
                // A withdraw drawn while nothing is admitted is skipped
                // (deterministically: the admitted count is decided).
                PlannedOp::Withdraw(_) if self.admitted == 0 => {}
                PlannedOp::Withdraw(draw) => {
                    let index = (draw % self.admitted as u64) as usize;
                    self.admitted -= 1;
                    return Some(Step::Withdraw(index));
                }
            }
        }
        if self.admitted == 0 {
            return None;
        }
        let index = (self.drain.next_u64() % self.admitted as u64) as usize;
        self.admitted -= 1;
        Some(Step::Withdraw(index))
    }
}

/// The empty (pipeline-only) job set a trace's session is opened with.
#[must_use]
pub fn pipeline_of(trace: &JobSet) -> JobSet {
    trace
        .restrict_to(&[])
        .expect("empty restriction is valid")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = serving_traces(7, plain);
        let b = serving_traces(7, plain);
        let c = serving_traces(8, plain);
        assert_eq!(a.len(), TRACES);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        assert_ne!(format!("{:?}", a[0]), format!("{:?}", c[0]));
        let plan_a = plan(&a[0], 7, 0);
        let plan_b = plan(&b[0], 7, 0);
        assert_eq!(plan_a.ops, plan_b.ops);
    }

    #[test]
    fn a_plan_drains_the_session() {
        let traces = serving_traces(3, plain);
        let plan = plan(&traces[0], 3, 0);
        let mut cursor = PlanCursor::new(&plan);
        let (mut admits, mut withdraws) = (0, 0);
        while let Some(step) = cursor.next() {
            match step {
                Step::Admit(_) => {
                    admits += 1;
                    // Reject every third arrival.
                    cursor.record_admit(admits % 3 != 0);
                }
                Step::Withdraw(index) => {
                    assert!(index <= cursor.admitted);
                    withdraws += 1;
                }
            }
        }
        assert_eq!(admits, JOBS);
        assert_eq!(withdraws, JOBS - JOBS / 3);
        assert_eq!(cursor.admitted, 0);
    }
}
