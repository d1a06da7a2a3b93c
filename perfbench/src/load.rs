//! Closed-loop load: each client sends its next request only after the
//! previous one completed and was checked.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::spans::{self, Recorder, Span, NONE};
use crate::stats::{self, Latencies};
use crate::{Failure, Tally};

pub struct LoopRun {
    /// Client-side latency of each correct request.
    pub latencies: Latencies,
    pub wall_s: f64,
    pub tally: Tally,
    pub spans: Vec<Span>,
}

impl LoopRun {
    pub fn qps(&self) -> f64 {
        self.latencies.count() as f64 / self.wall_s
    }
}

/// Closed-loop throughput and latency of a measurement cut into slices:
/// the median over slices of each slice's qps, p50 and p99, so a burst
/// of outside load during one slice moves no figure.
pub struct Sliced {
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

pub fn sliced(runs: &[LoopRun]) -> Sliced {
    let of = |f: &dyn Fn(&LoopRun) -> f64| stats::median(&runs.iter().map(f).collect::<Vec<_>>());
    Sliced {
        qps: of(&|r| r.qps()),
        p50_ms: of(&|r| r.latencies.quantile_ms(0.50)),
        p99_ms: of(&|r| r.latencies.quantile_ms(0.99)),
    }
}

/// Drive `op` from `clients` threads for `seconds`. Request numbers come
/// from one shared counter, so the request sequence is the same whatever
/// the interleaving. `op(n, root, recorder)` sends request `n`, waits for
/// its final event, checks the answer and returns the latency from send
/// to final event; `root` is the request's span, for child spans. With
/// `trace_every = k > 0`, every `k`th request is traced; 0 traces none.
pub fn closed_loop<F>(
    clients: usize,
    seconds: f64,
    trace_every: u64,
    epoch: Instant,
    op: F,
) -> LoopRun
where
    F: Fn(u64, usize, &mut Recorder) -> Result<Duration, Failure> + Sync,
{
    let next = AtomicU64::new(0);
    let runs: Mutex<Vec<(Latencies, Tally, Recorder)>> = Mutex::new(Vec::new());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (next, runs, op) = (&next, &runs, &op);
            scope.spawn(move || {
                let mut latencies = Latencies::default();
                let mut tally = Tally::default();
                let mut recorder = Recorder::new(epoch, trace_every > 0);
                while start.elapsed() < budget {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    let root = if trace_every > 0 && n % trace_every == 0 {
                        recorder.open("request", n, NONE)
                    } else {
                        NONE
                    };
                    let outcome = op(n, root, &mut recorder);
                    recorder.close(root);
                    if let Some(latency) = tally.count(outcome) {
                        latencies.record(latency);
                    }
                }
                runs.lock()
                    .expect("no client panics while holding the lock")
                    .push((latencies, tally, recorder));
            });
        }
    });
    let mut out = LoopRun {
        latencies: Latencies::default(),
        wall_s: start.elapsed().as_secs_f64(),
        tally: Tally::default(),
        spans: Vec::new(),
    };
    let mut recorders = Vec::new();
    for (latencies, tally, recorder) in runs.into_inner().expect("all clients joined") {
        out.latencies.merge(&latencies);
        out.tally.merge(&tally);
        recorders.push(recorder);
    }
    out.spans = spans::merge(recorders);
    out
}
