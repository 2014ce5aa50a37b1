//! `admbench` — the end-to-end benchmark of the admission service and the
//! paper's Fig. 4 evaluation. See `README.md` in this directory.
//!
//! ```text
//! admbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the process exits non-zero when
//! any output check fails.

mod batch;
mod checks;
mod inputs;
mod layers;
mod serve_load;
mod serving;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 3] = ["admit-direct", "admit-routed-suite", "paper-batch"];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Failed output checks.
    pub errors: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Worker threads and client connections: at most the machine's cores.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Binds the calling thread, and so every thread and process it starts
/// from now on, to the first CPU it may run on.
///
/// # Errors
///
/// When the affinity mask cannot be read or set.
pub fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 8)
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or("empty affinity mask")?;
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: as above, with a readable buffer.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Median of a sample set (nearest rank).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    msmr_stats::nearest_rank(samples, 0.5)
}

/// The timed work of one concurrent stream (a connection, or the batch).
/// A round repeats the same operations in the same slots (a trace replay
/// on a connection, or one sweep point of a batch round), so operation
/// `i` of slot `s` is the same operation in every round.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Per slot: the time of each round's replay of it, seconds, and per
    /// operation its latency in every round, microseconds.
    slots: Vec<(Vec<f64>, Vec<Vec<f64>>)>,
}

impl Timings {
    /// Records one round of slot `slot`: its operations' latencies in
    /// order, answered in `secs` seconds.
    pub fn record(&mut self, slot: usize, latencies_us: &[f64], secs: f64) {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, Default::default());
        }
        let (times, ops) = &mut self.slots[slot];
        times.push(secs);
        ops.resize(ops.len().max(latencies_us.len()), Vec::new());
        for (rounds, &us) in ops.iter_mut().zip(latencies_us) {
            rounds.push(us);
        }
    }

    /// Each operation's median latency over the rounds.
    fn op_medians(&self) -> impl Iterator<Item = f64> + '_ {
        self.slots
            .iter()
            .flat_map(|(_, ops)| ops)
            .map(|rounds| median(rounds))
    }

    /// Operations of one round over the sum of each slot's median time.
    fn rate(&self) -> f64 {
        let ops: usize = self.slots.iter().map(|(_, ops)| ops.len()).sum();
        let secs: f64 = self.slots.iter().map(|(times, _)| median(times)).sum();
        ops as f64 / secs
    }
}

/// Reports `op_p50_us` and `op_p90_us`, percentiles over every operation
/// of its median latency over the rounds, and `ops_per_s`, one round's
/// operations per second of its slots' median times, summed over the
/// concurrent streams. The host's speed drifts for seconds at a time; a
/// median over rounds spread across the run is steadier than any one
/// round.
pub fn report_timings(report: &mut Report, streams: &[Timings]) {
    let medians: Vec<f64> = streams.iter().flat_map(Timings::op_medians).collect();
    report.metric("op_p50_us", msmr_stats::nearest_rank(&medians, 0.50), "us");
    report.metric("op_p90_us", msmr_stats::nearest_rank(&medians, 0.90), "us");
    let rate: f64 = streams.iter().map(Timings::rate).sum();
    report.metric("ops_per_s", rate, "1/s");
}

/// Peak resident memory (`VmHWM`) of process `pid` in MB.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
        / 1024.0
}

fn parse_options() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut trace_dir = PathBuf::from(".bench_build/admbench-traces");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "invalid --seed")?),
            "--seconds" => seconds = value()?.parse().map_err(|_| "invalid --seconds")?,
            "--trace" => trace = value()? == "1",
            "--trace-dir" => trace_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        trace_dir,
    })
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("admbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if options.trace {
        layers::run(&options)
    } else {
        match options.workload.as_str() {
            "paper-batch" => batch::run(&options),
            "admit-direct" => serve_load::run(&options, false),
            _ => serve_load::run(&options, true),
        }
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("admbench: {}: {e}", options.workload);
            return ExitCode::FAILURE;
        }
    };
    for error in &report.errors {
        eprintln!("admbench: check failed: {error}");
    }
    for m in &report.metrics {
        eprintln!("  {:<32} {:>14.3} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.to_json());
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
