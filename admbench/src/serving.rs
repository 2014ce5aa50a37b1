//! The serving workloads: closed-loop clients driving real
//! `msmr-served --cluster` daemons (directly or through `msmr-router`)
//! over TCP, plus the offline mirror their verdicts are checked against.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use msmr_cluster::testkit::DaemonHarness;

use msmr_model::{JobId, JobSet};
use msmr_sched::{SolveCtx, SolverRegistry, Verdict};
use msmr_serve::protocol::{AdmitOp, Frame, JobSpec, Op, StatsOp, SubmitOp, WithdrawOp};
use msmr_serve::{Client, Endpoint};
use msmr_stats::StatsSnapshot;

use crate::checks::{self, Tallies, VerdictCounts};
use crate::inputs::{self, budget, Plan, PlanCursor, Step, BOUND, DECIDER};

/// The seeded inputs of a serving workload.
pub struct Inputs {
    /// One arrival trace per session.
    pub traces: Vec<JobSet>,
    /// Wire specs of each trace's jobs.
    pub specs: Vec<Vec<JobSpec>>,
    /// Each trace's plan.
    pub plans: Vec<Plan>,
}

impl Inputs {
    /// Generates the inputs of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Inputs {
        Inputs::from_traces(inputs::serving_traces(seed, inputs::plain), seed)
    }

    /// The specs and plans of given traces.
    #[must_use]
    pub fn from_traces(traces: Vec<JobSet>, seed: u64) -> Inputs {
        let specs = traces.iter().map(specs_of).collect();
        let plans = traces
            .iter()
            .enumerate()
            .map(|(k, trace)| inputs::plan(trace, seed, k))
            .collect();
        Inputs {
            traces,
            specs,
            plans,
        }
    }
}

/// The router process. Dropping it kills and reaps it. (The daemons are
/// started with the workspace's shared `DaemonHarness`.)
pub struct Router {
    child: Child,
    /// The TCP address the router announced.
    pub addr: String,
}

impl Router {
    /// Spawns `msmr-router` (a sibling of this executable) over
    /// `backends` and waits (up to 10 s) for its announced address.
    ///
    /// # Errors
    ///
    /// When the spawn fails or the router exits or stays silent.
    pub fn spawn(backends: &[&str]) -> Result<Router, String> {
        let mut bin = std::env::current_exe().map_err(|e| e.to_string())?;
        bin.set_file_name("msmr-router");
        let mut command = Command::new(&bin);
        command.args(["--listen", "127.0.0.1:0"]);
        for backend in backends {
            command.args(["--backend", backend]);
        }
        let mut child = command
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = reader.read_line(&mut line).unwrap_or(0);
            if let Some(rest) = line.trim().strip_prefix("msmr-router listening on tcp://") {
                break rest.to_string();
            }
            if read == 0 || Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("msmr-router never announced its address".to_string());
            }
        };
        // Keep draining stdout so the router never blocks on a full pipe.
        std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        });
        Ok(Router { child, addr })
    }

    /// The router's pid.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// User plus system CPU time of process `pid` so far, in clock ticks.
#[must_use]
pub fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // Fields 14 and 15 of stat(5); `after` starts at field 3.
    let field = |n: usize| {
        fields
            .get(n - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(14) + field(15)
}

/// Microseconds per clock tick of `/proc/<pid>/stat` (USER_HZ = 100 on
/// Linux).
pub const TICK_US: f64 = 10_000.0;

/// A running tier: one or two cluster daemons, optionally fronted by the
/// router.
pub struct Tier {
    /// The daemons.
    pub daemons: Vec<DaemonHarness>,
    /// The router, when the tier is routed.
    pub router: Option<Router>,
    /// The uncounted pause taken after the processes announced themselves.
    pub pause: Duration,
}

impl Tier {
    /// Starts `daemons` cluster daemons and, when `routed`, a router over
    /// them, then pauses for `phase` (0..1) of the 20 ms period at which
    /// the processes poll for new connections. Their poll loop starts as
    /// they announce their address, so connecting at once would race the
    /// first poll and make a set-up's connection waits bimodal (0 or
    /// 20 ms); the pause puts the first connect at a chosen phase.
    ///
    /// # Errors
    ///
    /// When a binary fails to start.
    pub fn start(daemons: usize, routed: bool, phase: f64) -> Result<Tier, String> {
        let daemons = (0..daemons)
            .map(|_| DaemonHarness::spawn(&["--cluster", "--workers", "2"]))
            .collect::<Result<Vec<_>, _>>()?;
        let router = if routed {
            let backends: Vec<&str> = daemons.iter().map(|d| d.addr.as_str()).collect();
            Some(Router::spawn(&backends)?)
        } else {
            None
        };
        let pause = Duration::from_secs_f64(0.020 * phase);
        std::thread::sleep(pause);
        Ok(Tier {
            daemons,
            router,
            pause,
        })
    }

    /// Where clients connect.
    #[must_use]
    pub fn endpoint(&self) -> Endpoint {
        let front = self
            .router
            .as_ref()
            .map_or(&self.daemons[0].addr, |r| &r.addr);
        Endpoint::Tcp(front.clone())
    }

    /// The daemons' pids.
    pub fn daemon_pids(&self) -> impl Iterator<Item = u32> + '_ {
        self.daemons.iter().map(DaemonHarness::pid)
    }

    /// The summed peak resident memory of the tier's processes, in MB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        self.daemon_pids()
            .chain(self.router.as_ref().map(Router::pid))
            .map(crate::peak_rss_mb)
            .sum()
    }

    /// The daemons' stats snapshots, fetched directly from each daemon.
    ///
    /// # Errors
    ///
    /// On transport errors or a missing stats frame.
    pub fn daemon_stats(&self) -> Result<Vec<StatsSnapshot>, String> {
        self.daemons
            .iter()
            .map(|d| {
                let mut client =
                    Client::connect(&Endpoint::Tcp(d.addr.clone())).map_err(|e| e.to_string())?;
                let frames = client
                    .request(Op::Stats(StatsOp { session: None }))
                    .map_err(|e| e.to_string())?;
                frames
                    .into_iter()
                    .find_map(|f| match f.frame {
                        Frame::Stats(s) => Some(s.stats),
                        _ => None,
                    })
                    .ok_or_else(|| "no stats frame".to_string())
            })
            .collect()
    }
}

/// The session name of trace `k` (fixed, so placement over the routed
/// tier does not change with the seed).
#[must_use]
pub fn session_name(k: usize) -> String {
    format!("trace-{k}")
}

/// Opens one session per trace: attach (create) plus a pipeline-only
/// submit.
///
/// # Errors
///
/// On transport errors or an error frame.
pub fn open_sessions(endpoint: &Endpoint, traces: &[JobSet]) -> Result<Tallies, String> {
    let mut client = Client::connect(endpoint).map_err(|e| e.to_string())?;
    for (k, trace) in traces.iter().enumerate() {
        client
            .attach(&session_name(k), true)
            .map_err(|e| e.to_string())?;
        let frames = client
            .request(Op::Submit(SubmitOp {
                jobs: inputs::pipeline_of(trace),
                parallel: None,
            }))
            .map_err(|e| e.to_string())?;
        if let Some(message) = frames.iter().find_map(|f| match &f.frame {
            Frame::Error(e) => Some(e.message.clone()),
            _ => None,
        }) {
            return Err(format!("submit failed: {message}"));
        }
    }
    Ok(Tallies {
        submits: traces.len() as u64,
        ..Tallies::default()
    })
}

/// What one answered operation produced on the wire.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// The concrete step.
    pub step: Step,
    /// The admit decision (`None` for withdraws).
    pub admitted: Option<bool>,
    /// Verdict frames.
    pub verdicts: Vec<Verdict>,
    /// Frames of the response, `Done` included.
    pub frames: usize,
}

impl OpRecord {
    /// Whether two answers agree, verdict provenance fields aside.
    #[must_use]
    pub fn same_answer(&self, other: &OpRecord) -> bool {
        self.step == other.step
            && self.admitted == other.admitted
            && self.frames == other.frames
            && checks::same_verdicts(&self.verdicts, &other.verdicts).is_ok()
    }
}

/// Latency samples of one connection, microseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Admit round trips.
    pub admit_us: Vec<f64>,
    /// Withdraw round trips.
    pub withdraw_us: Vec<f64>,
}

impl Samples {
    /// Answered operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.admit_us.len() + self.withdraw_us.len()
    }
}

/// Sends one op, retrying on typed overload frames. Latency runs from the
/// first send to the final answer, so retries are included.
fn request_with_retry(
    client: &mut Client,
    op: &Op,
    tallies: &mut Tallies,
) -> Result<(Vec<msmr_serve::protocol::Response>, f64), String> {
    let start = Instant::now();
    for attempt in 0u64..1000 {
        let frames = client.request(op.clone()).map_err(|e| e.to_string())?;
        if frames.iter().any(|f| matches!(f.frame, Frame::Overload(_))) {
            tallies.overloads += 1;
            std::thread::sleep(Duration::from_micros(200 * (attempt + 1).min(10)));
            continue;
        }
        return Ok((frames, start.elapsed().as_nanos() as f64 / 1_000.0));
    }
    Err("still overloaded after 1000 attempts".to_string())
}

/// Attaches `client` to trace `k`'s session. Callers attach before a
/// replay's clock starts: through the router an attach may open a backend
/// connection, which is not one of the workload's operations.
///
/// # Errors
///
/// On transport errors.
pub fn attach(client: &mut Client, k: usize) -> Result<(), String> {
    client
        .attach(&session_name(k), false)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Replays trace `k`'s plan on a client attached to its session. `on_op` sees each
/// answered op with its latency in microseconds (for verdict capture or
/// comparison) after the latency was taken.
///
/// # Errors
///
/// On transport errors, error frames or malformed responses.
pub fn replay_trace(
    client: &mut Client,
    inputs: &Inputs,
    k: usize,
    evaluate: bool,
    tallies: &mut Tallies,
    samples: &mut Samples,
    mut on_op: impl FnMut(usize, f64, OpRecord) -> Result<(), String>,
) -> Result<(), String> {
    let mut handles: Vec<u64> = Vec::new();
    let mut cursor = PlanCursor::new(&inputs.plans[k]);
    let mut index = 0;
    while let Some(step) = cursor.next() {
        let op = match step {
            Step::Admit(id) => Op::Admit(AdmitOp {
                job: inputs.specs[k][id].clone(),
                evaluate: Some(evaluate),
                seq: None,
            }),
            Step::Withdraw(i) => Op::Withdraw(WithdrawOp {
                job: handles.swap_remove(i),
                evaluate: Some(evaluate),
                seq: None,
            }),
        };
        let (frames, micros) = request_with_retry(client, &op, tallies)?;
        let mut record = OpRecord {
            step,
            admitted: None,
            verdicts: Vec::new(),
            frames: frames.len(),
        };
        let mut answered = false;
        for frame in frames {
            match frame.frame {
                Frame::Verdict(v) => record.verdicts.push(v.verdict),
                Frame::Admit(a) => {
                    answered = true;
                    record.admitted = Some(a.admitted);
                    if a.admitted {
                        handles.push(a.job.ok_or("admitted without a handle")?);
                    }
                }
                Frame::Withdraw(_) => answered = true,
                Frame::Error(e) => return Err(format!("error frame: {}", e.message)),
                _ => {}
            }
        }
        if !answered {
            return Err("response without a decision frame".to_string());
        }
        match record.admitted {
            Some(admitted) => {
                cursor.record_admit(admitted);
                if admitted {
                    tallies.admits += 1;
                } else {
                    tallies.rejects += 1;
                }
                samples.admit_us.push(micros);
            }
            None => {
                tallies.withdraws += 1;
                samples.withdraw_us.push(micros);
            }
        }
        on_op(index, micros, record)?;
        index += 1;
    }
    Ok(())
}

/// The wire specs of a trace's jobs, by job id.
#[must_use]
pub fn specs_of(trace: &JobSet) -> Vec<JobSpec> {
    trace.jobs().map(JobSpec::from_job).collect()
}

/// The cold, offline expectation for one op: the job set the session
/// holds after it (candidate set for an admit) and the verdicts of a cold
/// evaluation of that set.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The set the verdicts are about.
    pub set: JobSet,
    /// The cold verdicts (whole suite, or the decider's alone).
    pub verdicts: Vec<Verdict>,
    /// The decider's decision for an admit.
    pub accepted: Option<bool>,
}

/// Replays a plan offline: each admit's candidate set is the admitted set
/// plus the arrival (appended at the highest id), each withdraw
/// swap-removes the victim, and every resulting set is evaluated cold
/// with `SolverRegistry::evaluate` (or the decider alone). The mirror's
/// own decisions drive the plan.
#[must_use]
pub fn expected_ops(inputs: &Inputs, k: usize, evaluate: bool) -> Vec<Expected> {
    let (trace, specs) = (&inputs.traces[k], &inputs.specs[k]);
    let registry = SolverRegistry::paper_suite(BOUND);
    let cold = |set: &JobSet| -> Vec<Verdict> {
        if set.is_empty() {
            Vec::new()
        } else if evaluate {
            registry.evaluate(set, budget())
        } else {
            let ctx = SolveCtx::with_budget(set, budget());
            vec![registry
                .solver(DECIDER)
                .expect("decider is registered")
                .solve(&ctx)]
        }
    };
    let mut admitted = inputs::pipeline_of(trace);
    let mut cursor = PlanCursor::new(&inputs.plans[k]);
    let mut out = Vec::new();
    while let Some(step) = cursor.next() {
        match step {
            Step::Admit(id) => {
                let (candidate, _) = admitted
                    .with_job(specs[id].to_builder())
                    .expect("trace jobs fit their pipeline");
                let verdicts = cold(&candidate);
                let accepted = verdicts
                    .iter()
                    .find(|v| v.solver == DECIDER)
                    .is_some_and(Verdict::is_accepted);
                cursor.record_admit(accepted);
                if accepted {
                    admitted = candidate.clone();
                }
                out.push(Expected {
                    set: candidate,
                    verdicts,
                    accepted: Some(accepted),
                });
            }
            Step::Withdraw(index) => {
                let (reduced, _) = admitted.swap_remove_job(JobId::new(index));
                admitted = reduced;
                out.push(Expected {
                    set: admitted.clone(),
                    verdicts: cold(&admitted),
                    accepted: None,
                });
            }
        }
    }
    out
}

/// Checks one trace's wire records against the cold mirror and runs the
/// independent verdict checks on every op.
///
/// # Errors
///
/// Describes the first failing op.
pub fn check_trace(
    k: usize,
    records: &[OpRecord],
    expected: &[Expected],
    evaluate: bool,
) -> Result<VerdictCounts, String> {
    let mut counts = VerdictCounts::default();
    if records.len() != expected.len() {
        return Err(format!(
            "trace {k}: {} ops answered, the mirror made {}",
            records.len(),
            expected.len()
        ));
    }
    for (i, (record, exp)) in records.iter().zip(expected).enumerate() {
        let fail = |e: String| format!("trace {k} op {i} ({:?}): {e}", record.step);
        if record.admitted != exp.accepted {
            return Err(fail(format!(
                "decided {:?}, the cold mirror {:?}",
                record.admitted, exp.accepted
            )));
        }
        checks::same_verdicts(&record.verdicts, &exp.verdicts).map_err(fail)?;
        // Verdict frames, the decision frame and `Done`.
        let frames = record.verdicts.len() + 2;
        if record.frames != frames {
            return Err(fail(format!("{} frames, expected {frames}", record.frames)));
        }
        if !evaluate && !exp.set.is_empty() && record.verdicts.len() != 1 {
            return Err(fail(
                "decider-only op streamed more than one verdict".to_string(),
            ));
        }
        if record.admitted.is_none() {
            checks::withdraw_keeps_accepted(&record.verdicts, exp.set.len()).map_err(fail)?;
        }
        if !exp.set.is_empty() {
            counts.add(checks::check_verdicts(&exp.set, &record.verdicts).map_err(fail)?);
        }
    }
    Ok(counts)
}
