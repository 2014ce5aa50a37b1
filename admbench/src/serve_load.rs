//! `admit-direct` and `admit-routed-suite`: closed-loop clients over real
//! daemons, in whole rounds of the same operations.
//!
//! A round replays every trace's plan once; each plan ends with the
//! session empty again, so every round repeats exactly the same
//! operations. The first round is a warm-up whose verdicts become the
//! reference: every later round must reproduce them exactly, and
//! after the timed phase they are checked against a cold offline mirror
//! and the independent checks of [`crate::checks`].

use std::time::Instant;

use msmr_serve::Client;

use crate::checks::{self, Tallies};
use crate::serving::{self, Inputs, OpRecord, Samples, Tier};
use crate::{median, nproc, report_timings, Options, Report, Timings};

/// One closed-loop connection and what it observed.
pub struct Conn {
    /// The connection.
    pub client: Client,
    /// The traces it drives, in order.
    pub traces: Vec<usize>,
    /// Its tallies.
    pub tallies: Tallies,
    /// Its latency samples.
    pub samples: Samples,
    /// Its timed latencies, one slot per trace.
    pub timings: Timings,
}

/// One connection's answers of a round, per trace.
type Captured = Vec<(usize, Vec<OpRecord>)>;

/// Runs one round on every connection at once. With `reference` the
/// answers are compared against it; without, they are returned.
///
/// # Errors
///
/// On transport errors or a verdict that differs from the reference.
pub fn round(
    conns: &mut [Conn],
    inputs: &Inputs,
    evaluate: bool,
    reference: Option<&[Vec<OpRecord>]>,
) -> Result<Vec<Vec<OpRecord>>, String> {
    let results: Vec<Result<Captured, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    let mut captured = Vec::new();
                    for &k in &conn.traces.clone() {
                        let mut records = Vec::new();
                        let (admits, withdraws) =
                            (conn.samples.admit_us.len(), conn.samples.withdraw_us.len());
                        serving::attach(&mut conn.client, k)?;
                        let start = Instant::now();
                        serving::replay_trace(
                            &mut conn.client,
                            inputs,
                            k,
                            evaluate,
                            &mut conn.tallies,
                            &mut conn.samples,
                            |_, _, record| {
                                records.push(record);
                                Ok(())
                            },
                        )?;
                        let secs = start.elapsed().as_secs_f64();
                        let mut latencies = conn.samples.admit_us[admits..].to_vec();
                        latencies.extend_from_slice(&conn.samples.withdraw_us[withdraws..]);
                        conn.timings.record(k, &latencies, secs);
                        // Compared outside the timed replay, so the comparison
                        // costs no operation time.
                        if let Some(reference) = reference {
                            let same = records.len() == reference[k].len()
                                && records
                                    .iter()
                                    .zip(&reference[k])
                                    .all(|(a, b)| a.same_answer(b));
                            if !same {
                                return Err(format!(
                                    "trace {k}: answers differ from the warm-up round"
                                ));
                            }
                            records.clear();
                        }
                        captured.push((k, records));
                    }
                    Ok(captured)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out: Vec<Vec<OpRecord>> = vec![Vec::new(); inputs.traces.len()];
    for result in results {
        for (k, records) in result? {
            out[k] = records;
        }
    }
    Ok(out)
}

/// A started tier with its sessions open and its connections attached.
pub struct Deployment {
    /// The processes.
    pub tier: Tier,
    /// The load generator's connections.
    pub conns: Vec<Conn>,
    /// Submits made while opening the sessions.
    pub opening: Tallies,
}

/// Starts the tier (see [`Tier::start`] for `phase`), opens one session
/// per trace and connects the clients, splitting the traces round-robin
/// between them.
///
/// # Errors
///
/// When a process fails to start or a session fails to open.
pub fn deploy(
    inputs: &Inputs,
    routed: bool,
    connections: usize,
    phase: f64,
) -> Result<Deployment, String> {
    let tier = Tier::start(if routed { 2 } else { 1 }, routed, phase)?;
    let endpoint = tier.endpoint();
    let opening = serving::open_sessions(&endpoint, &inputs.traces)?;
    let conns = (0..connections)
        .map(|c| {
            Ok(Conn {
                client: Client::connect(&endpoint).map_err(|e| e.to_string())?,
                traces: (0..inputs.traces.len())
                    .filter(|k| k % connections == c)
                    .collect(),
                tallies: Tallies::default(),
                samples: Samples::default(),
                timings: Timings::default(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Deployment {
        tier,
        conns,
        opening,
    })
}

/// Checks every trace's reference answers against the cold mirror and
/// returns the failures.
#[must_use]
pub fn check_against_mirror(
    inputs: &Inputs,
    reference: &[Vec<OpRecord>],
    evaluate: bool,
) -> Vec<String> {
    let indices: Vec<usize> = (0..inputs.traces.len()).collect();
    let results = msmr_par::parallel_map(&indices, nproc(), |_, &k| {
        let expected = serving::expected_ops(inputs, k, evaluate);
        serving::check_trace(k, &reference[k], &expected, evaluate)
    });
    checks::summarize(results)
}

/// Checks the daemons' counters against the client tallies.
#[must_use]
pub fn check_counters(deployment: &Deployment) -> Option<String> {
    let mut client = deployment.opening;
    for conn in &deployment.conns {
        client.add(conn.tallies);
    }
    match deployment.tier.daemon_stats() {
        Ok(stats) => {
            let mut daemon = msmr_stats::StatsCounters::default();
            for snapshot in stats {
                daemon.absorb(&snapshot.counters);
            }
            checks::check_tallies(&daemon, &client).err()
        }
        Err(e) => Some(format!("stats op failed: {e}")),
    }
}

/// One timed set-up: input generation, tier start and session opening,
/// without the tier's connect pause. The `n`-th set-up of a run connects
/// at phase frac(0.5 + n/φ) of the accept poll, a sequence that covers the
/// period evenly for any number of set-ups.
fn set_up(
    options: &Options,
    routed: bool,
    connections: usize,
    n: usize,
) -> Result<(Inputs, Deployment, f64), String> {
    let start = Instant::now();
    let inputs = Inputs::new(options.seed);
    let phase = (0.5 + n as f64 * 0.618_033_988_749_895).fract();
    let deployment = deploy(&inputs, routed, connections, phase)?;
    let secs = (start.elapsed() - deployment.tier.pause).as_secs_f64();
    Ok((inputs, deployment, secs))
}

/// Runs a serving workload: decider-only admits straight to one daemon,
/// or full-suite admits through the router over two daemons.
///
/// # Errors
///
/// On transport or process failures.
pub fn run(options: &Options, routed: bool) -> Result<Report, String> {
    let evaluate = routed;
    let connections = if routed { nproc().min(2) } else { 1 };
    if !routed {
        // One connection, one daemon: the client and the daemon share one
        // CPU, so an answer wakes the client on the CPU that wrote it. Waking
        // a thread on the other CPU of this shared host takes a time that
        // follows the other tenants' load (see README.md).
        crate::pin_to_one_cpu()?;
    }
    let (inputs, mut deployment, secs) = set_up(options, routed, connections, 0)?;
    let mut setup = vec![secs];

    let reference = round(&mut deployment.conns, &inputs, evaluate, None)?;
    for conn in &mut deployment.conns {
        conn.samples = Samples::default();
        conn.timings = Timings::default();
    }

    let mut report = Report::default();
    let started = Instant::now();
    loop {
        if let Err(e) = round(&mut deployment.conns, &inputs, evaluate, Some(&reference)) {
            report.errors.push(e);
            break;
        }
        // Set up a spare tier between rounds, outside the timed replays, so that
        // `setup_s` samples the host across the run like the other metrics.
        let (_, spare, secs) = set_up(options, routed, connections, setup.len())?;
        drop(spare);
        setup.push(secs);
        if started.elapsed() >= options.seconds {
            break;
        }
    }
    report.attempted = deployment
        .conns
        .iter()
        .map(|c| c.samples.len() as u64)
        .sum();
    let peak_rss_mb = deployment.tier.peak_rss_mb();

    report
        .errors
        .extend(check_against_mirror(&inputs, &reference, evaluate));
    report.errors.extend(check_counters(&deployment));

    let streams: Vec<Timings> = deployment.conns.iter().map(|c| c.timings.clone()).collect();
    report_timings(&mut report, &streams);
    report.metric("setup_s", median(&setup), "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    Ok(report)
}
