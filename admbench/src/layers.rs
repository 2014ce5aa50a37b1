//! The traced run (`--trace 1`): replays a workload's inputs through each
//! layer's public entry points, records a span around every call, writes
//! the spans out at the end and prints the per-layer metrics.
//!
//! Every workload's traced run measures every layer on its own inputs:
//! the first sweep cases of every point of `paper-batch` (whose operation
//! probes replay the first `TRACES` cases of the heavy point as arrival
//! traces, decider-only), or the arrival traces of the serving workloads
//! (decider-only for `admit-direct`, full suite for
//! `admit-routed-suite`, whose cases are the traces' full job sets).

use std::io::{self, BufReader, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use msmr_cluster::{ClusterConfig, ClusterEngine};
use msmr_dca::Analysis;
use msmr_model::{JobId, JobSet};
use msmr_sched::{OnlineEvent, SolveCtx, SolverRegistry, Verdict, VerdictKind};
use msmr_serve::protocol::{
    write_response, AdmitOp, DoneFrame, Frame, Op, Request, Response, VerdictFrame, WithdrawFrame,
    WithdrawOp,
};
use msmr_serve::{normalized_verdict_json, AdmissionSession, Client, SessionConfig};
use msmr_stats::StatsRegistry;
use msmr_workload::EdgeWorkloadGenerator;

use crate::checks::{self, Tallies};
use crate::inputs::{self, budget, PlanCursor, Step, BOUND, DECIDER};
use crate::serving::{self, Inputs, OpRecord, Samples, Tier, TICK_US};
use crate::{batch, serve_load};
use crate::{median, nproc, Options, Report};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `dca.analysis`.
    pub name: String,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (case or request) the span belongs to.
    pub op: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id` (and anything opened inside it).
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Times `f` inside a span.
    pub fn span<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let value = f();
        self.end(id);
        value
    }

    /// Records a span that ended now and lasted `micros`.
    pub fn record_ended(&mut self, name: &str, op: u64, micros: f64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: end_ns.saturating_sub((micros * 1_000.0) as u64),
            end_ns,
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Durations of every span called `name`, in microseconds.
    #[must_use]
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1_000.0)
            .collect()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Cases per sweep point the traced `paper-batch` run probes.
const TRACED_CASES_PER_POINT: usize = 32;

/// The traced run's inputs: job sets for the per-case probes and the
/// traces the per-operation probes replay.
struct TracedInputs {
    cases: Vec<JobSet>,
    ops: Inputs,
    evaluate: bool,
}

fn traced_inputs(options: &Options, tracer: &mut Tracer) -> TracedInputs {
    let mut op = 0;
    let mut generate = |generator: &EdgeWorkloadGenerator, seed: u64| {
        op += 1;
        tracer.span("workload.generate", op, || generator.generate_seeded(seed))
    };
    match options.workload.as_str() {
        "paper-batch" => {
            let all = inputs::batch_cases(options.seed, &mut generate);
            // The heavy point's first cases, replayed as arrival traces.
            let heavy_start = all.len() - inputs::CASES_PER_POINT;
            let traces = all[heavy_start..][..inputs::TRACES].to_vec();
            // The first cases of every point: every engine runs on each
            // case here (no implication shortcuts), so not on all of them.
            let cases = all
                .into_iter()
                .enumerate()
                .filter(|(i, _)| i % inputs::CASES_PER_POINT < TRACED_CASES_PER_POINT)
                .map(|(_, case)| case)
                .collect();
            TracedInputs {
                cases,
                ops: Inputs::from_traces(traces, options.seed),
                evaluate: false,
            }
        }
        workload => {
            let traces = inputs::serving_traces(options.seed, &mut generate);
            TracedInputs {
                cases: traces.clone(),
                ops: Inputs::from_traces(traces, options.seed),
                evaluate: workload == "admit-routed-suite",
            }
        }
    }
}

/// Exact solver counters of the per-case probe.
#[derive(Default)]
struct SolverCounts {
    opt_nodes: u64,
    opt_undecided: u64,
    sdca_calls: u64,
}

/// Per case: the analysis, then every solver of the paper suite on one
/// shared context (no implication shortcuts, so every engine runs).
fn probe_cases(cases: &[JobSet], tracer: &mut Tracer, report: &mut Report) -> SolverCounts {
    let registry = SolverRegistry::paper_suite(BOUND);
    let mut counts = SolverCounts::default();
    for (i, jobs) in cases.iter().enumerate() {
        let op = i as u64;
        let case = tracer.begin("case", op);
        let analysis = tracer.span("dca.analysis", op, || Analysis::new(jobs));
        let ctx = SolveCtx::with_analysis(analysis, budget());
        let mut verdicts: Vec<Verdict> = Vec::new();
        for name in registry.names() {
            let solver = registry.solver(name).expect("registered");
            let verdict = tracer.span(&format!("sched.{name}"), op, || solver.solve(&ctx));
            counts.sdca_calls += verdict.stats.sdca_calls;
            if name == "OPT" {
                counts.opt_nodes += verdict.stats.nodes_explored;
                counts.opt_undecided += u64::from(verdict.kind == VerdictKind::Undecided);
            }
            verdicts.push(verdict);
        }
        tracer.end(case);
        report.attempted += 1;
        if let Err(e) = checks::check_verdicts(jobs, &verdicts) {
            report.errors.push(format!("case {i}: {e}"));
        }
    }
    counts
}

/// A parallel batch over the cases: threads × wall time minus the summed
/// per-case evaluation time (each case timed around
/// `SolverRegistry::evaluate`, analysis included).
fn probe_par_idle(cases: &[JobSet], tracer: &mut Tracer) -> f64 {
    let registry = SolverRegistry::paper_suite(BOUND);
    let threads = nproc();
    let id = tracer.begin("par.evaluate_batch", 0);
    let start = Instant::now();
    let batch = batch::evaluate_timed(&registry, cases, threads);
    let wall = start.elapsed().as_secs_f64();
    tracer.end(id);
    let busy: f64 = batch.iter().map(|(_, t)| t.as_secs_f64()).sum();
    threads as f64 * wall - busy
}

/// Runs the same call on the session without and with a stats registry
/// (spans `name` and `name.stats`), alternating which goes first so
/// neither always finds the caches warm, and returns the plain call's
/// result.
fn paired<T, U>(
    tracer: &mut Tracer,
    name: &str,
    op: u64,
    plain: impl FnOnce() -> T,
    recorded: impl FnOnce() -> U,
) -> T {
    let stats_name = format!("{name}.stats");
    if op.is_multiple_of(2) {
        let value = tracer.span(name, op, plain);
        tracer.span(&stats_name, op, recorded);
        value
    } else {
        tracer.span(&stats_name, op, recorded);
        tracer.span(name, op, plain)
    }
}

/// Per-operation probes over the traces' plans: the session layer with
/// and without a stats registry, the tables and decider directly, and the
/// wire codec. Returns the encoded response bytes per operation.
fn probe_ops(inputs: &Inputs, evaluate: bool, tracer: &mut Tracer, report: &mut Report) -> f64 {
    let registry = SolverRegistry::paper_suite(BOUND);
    let stats = Arc::new(StatsRegistry::new());
    let mut bytes = 0usize;
    let mut ops = 0usize;
    let mut op_id = 0u64;
    for (k, trace) in inputs.traces.iter().enumerate() {
        let pipeline = inputs::pipeline_of(trace);
        let mut plain = AdmissionSession::new(SessionConfig::default());
        let mut recorded = AdmissionSession::new(SessionConfig {
            stats: Some(Arc::clone(&stats)),
            ..SessionConfig::default()
        });
        plain.submit(pipeline.clone(), false, |_| {});
        recorded.submit(pipeline.clone(), false, |_| {});
        // The tables and deciders driven directly, as the session does.
        let mut jobs = pipeline.clone();
        let mut tables = Some(Analysis::new(&jobs).into_tables());
        let mut decider_state = registry.online_suite();
        let mut suite_state = registry.online_suite();
        let mut handles: Vec<u64> = Vec::new();
        let mut cursor = PlanCursor::new(&inputs.plans[k]);
        while let Some(step) = cursor.next() {
            op_id += 1;
            let op = tracer.begin("op", op_id);
            let request = match step {
                Step::Admit(id) => Op::Admit(AdmitOp {
                    job: inputs.specs[k][id].clone(),
                    evaluate: Some(evaluate),
                    seq: None,
                }),
                Step::Withdraw(i) => Op::Withdraw(WithdrawOp {
                    job: handles[i],
                    evaluate: Some(evaluate),
                    seq: None,
                }),
            };
            let line = serde_json::to_string(&Request {
                id: op_id,
                op: request,
            })
            .expect("requests encode");
            let parsed: Request = tracer.span("serve.protocol.parse", op_id, || {
                serde_json::from_str(&line).expect("requests parse")
            });
            let (verdicts, result_frame) = match (step, parsed.op) {
                (Step::Admit(_), Op::Admit(admit)) => {
                    let outcome = paired(
                        tracer,
                        "serve.session.admit",
                        op_id,
                        || plain.admit(&admit.job, evaluate, |_| {}),
                        || recorded.admit(&admit.job, evaluate, |_| {}),
                    )
                    .expect("admits apply");
                    cursor.record_admit(outcome.admitted);
                    if let Some(handle) = outcome.handle {
                        handles.push(handle);
                    }
                    // Tables and decider directly.
                    let (candidate, _) = jobs.with_job(admit.job.to_builder()).expect("fits");
                    let mut t = tables.take().expect("tables");
                    tracer.span("dca.extend", op_id, || t.extend_with_job(&candidate));
                    let ctx =
                        SolveCtx::with_analysis(Analysis::from_tables(&candidate, t), budget());
                    let saved = (decider_state.clone(), suite_state.clone());
                    let decided = tracer.span("sched.decide", op_id, || {
                        registry.decide_online(
                            DECIDER,
                            &mut decider_state,
                            &ctx,
                            OnlineEvent::Admit,
                        )
                    });
                    tracer.span("sched.suite", op_id, || {
                        registry.evaluate_online(&mut suite_state, &ctx, OnlineEvent::Admit, |_| {})
                    });
                    let mut t = ctx.into_analysis().expect("injected").into_tables();
                    if decided.is_some_and(|v| v.is_accepted()) != outcome.admitted {
                        report
                            .errors
                            .push(format!("trace {k}: session and decider disagree"));
                    }
                    if outcome.admitted {
                        jobs = candidate;
                    } else {
                        t.remove_last_job();
                        (decider_state, suite_state) = saved;
                    }
                    tables = Some(t);
                    let frame = Frame::Admit(outcome.to_frame(DECIDER, None, false));
                    (outcome.verdicts, frame)
                }
                (Step::Withdraw(i), Op::Withdraw(withdraw)) => {
                    handles.swap_remove(i);
                    let outcome = paired(
                        tracer,
                        "serve.session.withdraw",
                        op_id,
                        || plain.withdraw(withdraw.job, evaluate, |_| {}),
                        || recorded.withdraw(withdraw.job, evaluate, |_| {}),
                    )
                    .expect("withdraws apply");
                    let removed = JobId::new(i);
                    let (reduced, moved) = jobs.swap_remove_job(removed);
                    let mut t = tables.take().expect("tables");
                    tracer.span("dca.remove", op_id, || t.remove_job(removed));
                    if !reduced.is_empty() {
                        let ctx =
                            SolveCtx::with_analysis(Analysis::from_tables(&reduced, t), budget());
                        let event = OnlineEvent::Withdraw { removed, moved };
                        tracer.span("sched.decide", op_id, || {
                            registry.decide_online(DECIDER, &mut decider_state, &ctx, event)
                        });
                        tracer.span("sched.suite", op_id, || {
                            registry.evaluate_online(&mut suite_state, &ctx, event, |_| {})
                        });
                        t = ctx.into_analysis().expect("injected").into_tables();
                    } else {
                        decider_state = registry.online_suite();
                        suite_state = registry.online_suite();
                    }
                    jobs = reduced;
                    tables = Some(t);
                    let frame = Frame::Withdraw(WithdrawFrame {
                        job: withdraw.job,
                        jobs: outcome.jobs as u64,
                        seq: None,
                        deduped: None,
                    });
                    (outcome.verdicts, frame)
                }
                _ => unreachable!("the parsed op is the one encoded"),
            };
            // Provenance fields zeroed, so that the byte count is exact.
            let mut frames: Vec<Frame> = verdicts
                .iter()
                .map(|v| {
                    let verdict = serde_json::from_str(&normalized_verdict_json(v))
                        .expect("a normalized verdict parses");
                    Frame::Verdict(VerdictFrame { verdict })
                })
                .collect();
            frames.push(result_frame);
            frames.push(Frame::Done(DoneFrame {
                frames: frames.len() as u64,
            }));
            let mut wire = Vec::new();
            tracer.span("serve.protocol.encode", op_id, || {
                for frame in frames {
                    write_response(&mut wire, &Response { id: op_id, frame })
                        .expect("in-memory write");
                }
            });
            bytes += wire.len();
            ops += 1;
            tracer.end(op);
        }
    }
    report.attempted += ops as u64;
    bytes as f64 / ops.max(1) as f64
}

/// Writes and flushes seen by the engine's connection writer.
#[derive(Default)]
struct IoCounts {
    writes: AtomicU64,
    flushes: AtomicU64,
}

/// The read half of an in-memory pipe.
struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The write half of an in-memory pipe: bytes travel on flush.
struct PipeWriter {
    tx: Sender<Vec<u8>>,
    pending: Vec<u8>,
    counts: Arc<IoCounts>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.pending.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.counts.flushes.fetch_add(1, Ordering::Relaxed);
        if !self.pending.is_empty() {
            self.tx
                .send(std::mem::take(&mut self.pending))
                .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))?;
        }
        Ok(())
    }
}

fn pipe(counts: &Arc<IoCounts>) -> (PipeReader, PipeWriter) {
    let (tx, rx) = channel();
    (
        PipeReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        },
        PipeWriter {
            tx,
            pending: Vec::new(),
            counts: Arc::clone(counts),
        },
    )
}

/// Result of the in-memory engine probe.
struct EngineProbe {
    op_us: Vec<f64>,
    flushes_per_op: f64,
    writes_per_op: f64,
}

/// `ClusterEngine::serve_connection` over in-memory pipes: the cluster
/// layer's whole request path with no socket underneath.
fn probe_engine(
    inputs: &Inputs,
    evaluate: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<EngineProbe, String> {
    let engine = ClusterEngine::new(ClusterConfig {
        workers: nproc(),
        ..ClusterConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let counts = Arc::new(IoCounts::default());
    let (request_rx, request_tx) = pipe(&Arc::new(IoCounts::default()));
    let (response_rx, response_tx) = pipe(&counts);
    let server = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let shutdown = AtomicBool::new(false);
            engine.serve_connection(BufReader::new(request_rx), response_tx, &shutdown)
        })
    };
    let mut client = Client::from_parts(response_rx, request_tx);
    let mut tallies = Tallies::default();
    let mut samples = Samples::default();
    let (mut flushes, mut writes, mut measured) = (0u64, 0u64, 0u64);
    let mut op_id = 1_000_000u64;
    let result = (|| -> Result<(), String> {
        for (k, trace) in inputs.traces.iter().enumerate() {
            client
                .attach(&serving::session_name(k), true)
                .map_err(|e| e.to_string())?;
            client
                .request(Op::Submit(msmr_serve::protocol::SubmitOp {
                    jobs: inputs::pipeline_of(trace),
                    parallel: None,
                }))
                .map_err(|e| e.to_string())?;
            let mut last = None;
            serving::replay_trace(
                &mut client,
                inputs,
                k,
                evaluate,
                &mut tallies,
                &mut samples,
                |_, micros, _| {
                    op_id += 1;
                    tracer.record_ended("cluster.engine.op", op_id, micros);
                    let now = (
                        counts.flushes.load(Ordering::Relaxed),
                        counts.writes.load(Ordering::Relaxed),
                    );
                    // The first op of a trace follows the attach; count
                    // from the second on.
                    if let Some((f, w)) = last {
                        flushes += now.0 - f;
                        writes += now.1 - w;
                        measured += 1;
                    }
                    last = Some(now);
                    Ok(())
                },
            )?;
        }
        Ok(())
    })();
    drop(client);
    let served = server.join().expect("engine connection thread panicked");
    result?;
    served.map_err(|e| e.to_string())?;
    let mut op_us = samples.admit_us;
    op_us.extend_from_slice(&samples.withdraw_us);
    report.attempted += op_us.len() as u64;
    Ok(EngineProbe {
        op_us,
        flushes_per_op: flushes as f64 / measured.max(1) as f64,
        writes_per_op: writes as f64 / measured.max(1) as f64,
    })
}

/// What the socket probe measured on one tier.
struct SocketProbe {
    samples: Samples,
    daemon_cpu_us: f64,
    router_cpu_us: f64,
    daemon_solve_p50_us: f64,
    overloads: u64,
}

impl SocketProbe {
    fn ops(&self) -> f64 {
        self.samples.len().max(1) as f64
    }

    fn p50(&self) -> f64 {
        let mut all = self.samples.admit_us.clone();
        all.extend_from_slice(&self.samples.withdraw_us);
        median(&all)
    }
}

/// One connection per tier replaying every trace once through a direct
/// tier (one daemon) and a routed one (router over two daemons), trace by
/// trace in turn so that both see the same host conditions; the answers
/// are checked against the cold mirror and the daemons' counters.
fn probe_sockets(
    inputs: &Inputs,
    evaluate: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<[SocketProbe; 2], String> {
    let mut tiers = [
        serve_load::deploy(inputs, false, 1, 0.5)?,
        serve_load::deploy(inputs, true, 1, 0.5)?,
    ];
    let cpu = |tier: &Tier| -> (u64, u64) {
        (
            tier.daemon_pids().map(serving::cpu_ticks).sum(),
            tier.router
                .as_ref()
                .map_or(0, |r| serving::cpu_ticks(r.pid())),
        )
    };
    let before = tiers.each_ref().map(|d| cpu(&d.tier));
    let mut records: [Vec<Vec<OpRecord>>; 2] = Default::default();
    let mut op_id = 2_000_000;
    for k in 0..inputs.traces.len() {
        for (t, deployment) in tiers.iter_mut().enumerate() {
            let name = ["client.direct", "client.routed"][t];
            let conn = &mut deployment.conns[0];
            let mut trace_records = Vec::new();
            serving::attach(&mut conn.client, k)?;
            serving::replay_trace(
                &mut conn.client,
                inputs,
                k,
                evaluate,
                &mut conn.tallies,
                &mut conn.samples,
                |_, micros, record| {
                    op_id += 1;
                    let kind = if record.admitted.is_some() {
                        "admit"
                    } else {
                        "withdraw"
                    };
                    tracer.record_ended(&format!("{name}.{kind}"), op_id, micros);
                    trace_records.push(record);
                    Ok(())
                },
            )?;
            records[t].push(trace_records);
        }
    }
    let after = tiers.each_ref().map(|d| cpu(&d.tier));
    let mut probe = |t: usize| -> Result<SocketProbe, String> {
        let deployment = &tiers[t];
        let conn = &deployment.conns[0];
        report.attempted += conn.samples.len() as u64;
        report.errors.extend(serve_load::check_against_mirror(
            inputs,
            &records[t],
            evaluate,
        ));
        report.errors.extend(serve_load::check_counters(deployment));
        let stats = deployment.tier.daemon_stats()?;
        let busiest = stats
            .iter()
            .filter_map(|s| s.ops.get("admit"))
            .max_by_key(|op| op.samples);
        Ok(SocketProbe {
            samples: conn.samples.clone(),
            daemon_cpu_us: (after[t].0 - before[t].0) as f64 * TICK_US,
            router_cpu_us: (after[t].1 - before[t].1) as f64 * TICK_US,
            daemon_solve_p50_us: busiest.map_or(0.0, |op| op.p50_us),
            overloads: conn.tallies.overloads,
        })
    };
    Ok([probe(0)?, probe(1)?])
}

/// The cost of recording one span, in nanoseconds.
fn span_cost_ns() -> f64 {
    const SPANS: u64 = 100_000;
    let mut tracer = Tracer::new();
    let start = Instant::now();
    for op in 0..SPANS {
        let id = tracer.begin("trace.cost", op);
        tracer.end(id);
    }
    start.elapsed().as_nanos() as f64 / SPANS as f64
}

/// Runs the traced run of `options.workload`.
///
/// # Errors
///
/// On transport or process failures.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut tracer = Tracer::new();
    let mut report = Report::default();
    let inputs = traced_inputs(options, &mut tracer);
    let counts = probe_cases(&inputs.cases, &mut tracer, &mut report);
    let idle_s = probe_par_idle(&inputs.cases, &mut tracer);
    let bytes_per_op = probe_ops(&inputs.ops, inputs.evaluate, &mut tracer, &mut report);
    let engine = probe_engine(&inputs.ops, inputs.evaluate, &mut tracer, &mut report)?;
    let [direct, routed] = probe_sockets(&inputs.ops, inputs.evaluate, &mut tracer, &mut report)?;
    let span_ns = span_cost_ns();

    let path = options
        .trace_dir
        .join(format!("{}-{}.jsonl", options.workload, options.seed));
    if let Err(e) = tracer.write(&path) {
        eprintln!("admbench: writing {}: {e}", path.display());
    }

    // The tier the workload itself runs on sets the process metrics.
    let own = if options.workload == "admit-routed-suite" {
        &routed
    } else {
        &direct
    };
    let med = |name: &str| median(&tracer.micros(name));
    let cases = inputs.cases.len() as f64;
    let r = &mut report;
    r.metric("workload.generate_us", med("workload.generate"), "us");
    r.metric("dca.analysis_us", med("dca.analysis"), "us");
    r.metric("dca.extend_us", med("dca.extend"), "us");
    r.metric("dca.remove_us", med("dca.remove"), "us");
    for solver in ["DM", "DMR", "OPDCA", "OPT", "DCMP"] {
        let name = format!("sched.{solver}");
        r.metric(format!("{name}_us"), med(&name), "us");
    }
    r.metric("sched.OPT_nodes", counts.opt_nodes as f64 / cases, "count");
    r.metric("sched.OPT_undecided", counts.opt_undecided as f64, "count");
    r.metric(
        "sched.sdca_calls",
        counts.sdca_calls as f64 / cases,
        "count",
    );
    r.metric("sched.decide_us", med("sched.decide"), "us");
    r.metric("sched.suite_us", med("sched.suite"), "us");
    r.metric("serve.session.admit_us", med("serve.session.admit"), "us");
    r.metric(
        "serve.session.withdraw_us",
        med("serve.session.withdraw"),
        "us",
    );
    // Paired per admit: the same call with a registry minus without one.
    let with_stats = tracer.micros("serve.session.admit.stats");
    let differences: Vec<f64> = with_stats
        .iter()
        .zip(tracer.micros("serve.session.admit"))
        .map(|(with, without)| with - without)
        .collect();
    r.metric("stats.record_us", median(&differences), "us");
    r.metric("serve.protocol.parse_us", med("serve.protocol.parse"), "us");
    r.metric(
        "serve.protocol.encode_us",
        med("serve.protocol.encode"),
        "us",
    );
    r.metric("serve.protocol.bytes_per_op", bytes_per_op, "B");
    let engine_p50 = median(&engine.op_us);
    r.metric("cluster.engine.op_us", engine_p50, "us");
    r.metric(
        "cluster.engine.flushes_per_op",
        engine.flushes_per_op,
        "count",
    );
    r.metric(
        "cluster.engine.writes_per_op",
        engine.writes_per_op,
        "count",
    );
    r.metric("cluster.socket_us", direct.p50() - engine_p50, "us");
    r.metric("router.hop_us", routed.p50() - direct.p50(), "us");
    r.metric(
        "cluster.daemon_cpu_us_per_op",
        own.daemon_cpu_us / own.ops(),
        "us",
    );
    r.metric(
        "router.cpu_us_per_op",
        routed.router_cpu_us / routed.ops(),
        "us",
    );
    r.metric("cluster.daemon_solve_p50_us", own.daemon_solve_p50_us, "us");
    r.metric(
        "cluster.overloads",
        (direct.overloads + routed.overloads) as f64,
        "count",
    );
    r.metric("client.admit_p50_us", median(&own.samples.admit_us), "us");
    r.metric(
        "client.withdraw_p50_us",
        median(&own.samples.withdraw_us),
        "us",
    );
    r.metric("par.idle_s", idle_s, "s");
    r.metric("trace.span_ns", span_ns, "ns");
    Ok(report)
}
