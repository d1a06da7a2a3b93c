//! Layered benchmark of the Zeus workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan_cold|serve_miss|fleet_hit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload loads one layer heavily and the others lightly:
//!
//! * `plan_cold` — a fresh session plans and answers each of the paper's
//!   six evaluation queries (RL training dominates);
//! * `serve_miss` — a server whose result cache is smaller than its
//!   working set, so every request executes its engine;
//! * `fleet_hit` — a two-shard fleet whose caches hold the whole working
//!   set, so every request is a cache replay.
//!
//! The benchmark drives the program only through its public API and
//! checks every answer against an oracle. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it measures once untraced and
//! once with its own spans on, prints the per-layer metrics, writes the
//! spans to `.perfbench/` and a self-time report to stderr. The last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.

mod fleet_hit;
mod layers;
mod load;
mod plan_cold;
mod serve_miss;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use layers::{metric, Metric, LAYER_METRICS};
use spans::Span;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The end-to-end metrics a workload measures itself; `success_frac`
/// and `peak_rss_mb` are added for every workload by `main`.
pub struct EndToEnd {
    pub setup_s: f64,
    pub cold_query_s: f64,
    pub answer_f1: f64,
    pub sim_fps: f64,
    pub targets_met: f64,
    pub qps: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
}

/// Why a request did not count as a correct answer.
pub enum Failure {
    /// Refused or lost by the program (shed, saturated, routing error).
    Failed(String),
    /// Answered, but the answer differs from the oracle's.
    Wrong(String),
}

/// Requests attempted, failed and answered wrongly, with the first few
/// failures described.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one request's outcome.
    pub fn count<T>(&mut self, outcome: Result<T, Failure>) -> Option<T> {
        self.attempted += 1;
        let note = match outcome {
            Ok(value) => return Some(value),
            Err(Failure::Failed(why)) => {
                self.failed += 1;
                format!("FAILED: {why}")
            }
            Err(Failure::Wrong(why)) => {
                self.wrong += 1;
                format!("WRONG ANSWER: {why}")
            }
        };
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
        None
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.iter().take(room).cloned());
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct RunResult {
    pub tally: Tally,
    /// Set by untraced runs.
    pub end_to_end: Option<EndToEnd>,
    /// Set by traced runs.
    pub layers: Vec<Metric>,
    pub spans: Vec<Span>,
}

const WORKLOADS: [&str; 3] = ["plan_cold", "serve_miss", "fleet_hit"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut parts = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// Order a traced run's layer metrics as [`LAYER_METRICS`] lists them,
/// reading 0 for layers the workload left idle.
fn all_layers(measured: &[Metric]) -> Result<Vec<Metric>, String> {
    if let Some(m) = measured
        .iter()
        .find(|m| !LAYER_METRICS.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("unlisted per-layer metric {}", m.name));
    }
    Ok(LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metric(name, value, unit)
        })
        .collect())
}

fn run(args: &Args) -> Result<bool, String> {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench: {} seed {} for {} s on {cpus} available CPUs",
        args.workload, args.seed, args.seconds
    );
    let result = match args.workload.as_str() {
        "plan_cold" => plan_cold::run(args)?,
        "serve_miss" => serve_miss::run(args)?,
        "fleet_hit" => fleet_hit::run(args)?,
        other => unreachable!("workload {other} was validated"),
    };
    let tally = &result.tally;
    if tally.attempted == 0 {
        return Err("no request was attempted".into());
    }
    for note in &tally.notes {
        eprintln!("{note}");
    }
    let bad = tally.failed + tally.wrong;
    let metrics = if args.trace {
        let path = PathBuf::from(".perfbench").join(format!("{}.spans.jsonl", args.workload));
        spans::write_jsonl(&path, &result.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        let traced = result.spans.iter().filter(|s| s.name == "request").count();
        let mut layers = result.layers.clone();
        layers.push(metric("bench.traced_requests", traced as f64, "count"));
        all_layers(&layers)?
    } else {
        let e = result
            .end_to_end
            .as_ref()
            .ok_or("an untraced run must measure the end-to-end metrics")?;
        vec![
            metric("setup_s", e.setup_s, "s"),
            metric("cold_query_s", e.cold_query_s, "s"),
            metric("answer_f1", e.answer_f1, "f1"),
            metric("sim_fps", e.sim_fps, "fps"),
            metric("targets_met", e.targets_met, "count"),
            metric("qps", e.qps, "1/s"),
            metric("latency_p50_ms", e.latency_p50_ms, "ms"),
            metric("latency_p99_ms", e.latency_p99_ms, "ms"),
            metric(
                "success_frac",
                (tally.attempted - bad) as f64 / tally.attempted as f64,
                "ratio",
            ),
            metric("peak_rss_mb", stats::peak_rss_mb()?, "MiB"),
        ]
    };
    let correct = tally.wrong == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {bad}, \"metrics\": {}}}",
        tally.attempted,
        json_metrics(&metrics)?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: wrong answers; the run fails");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
