//! `serve_miss`: one BDD100K `ZeusServer` with the Zeus-RL executor and
//! two workers, whose result cache is smaller than its eight plan cores
//! (two classes × four targets). Requests cycle over the cores in a
//! seeded order, so LRU misses every time and every request executes its
//! engine; half carry `WINDOW`/`ORDER BY`/`LIMIT`. Two closed-loop
//! clients. Training happens only in set-up.
//!
//! Corpus and plans are the fixed evaluation data (the reproduction
//! harness's corpus seed); `--seed` makes the traffic: the core order,
//! which requests are refined, and the refinement clauses.

use std::time::{Duration, Instant};

use zeus::api::{QueryIr, ZeusSession};
use zeus::core::planner::PlannerOptions;
use zeus::core::QueryEngine;
use zeus::obs::keys;
use zeus::serve::{QueryRefiner, SegmentHit, ServeConfig, ZeusServer};
use zeus::sim::CostModel;
use zeus::video::video::Split;
use zeus::video::{DatasetKind, VideoId};
use zeus_bench::harness::DEFAULT_SEED;

use crate::layers::{self, metric, Stages};
use crate::load::{closed_loop, sliced, LoopRun};
use crate::spans::{self, Recorder};
use crate::{stats, Args, EndToEnd, Failure, RunResult};

const SCALE: f64 = 0.15;
const TARGETS: [u32; 4] = [85, 80, 75, 70];
const WORKERS: usize = 2;
const TRAIN_WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Smaller than the eight cores: a round-robin cycle always misses.
const CACHE_CAPACITY: usize = 4;
const QUEUE_CAPACITY: usize = 64;
/// Refined variants per core (variant 0 is the plain query).
const VARIANTS: usize = 4;
/// Fresh instances per untraced run. Each is set up, then measured for
/// `SLICES_PER_SETUP` slices: two instances of the same set-up in one
/// process differed by up to 30% in throughput, so one is not enough.
const SETUP_REPS: usize = 5;
const SLICES_PER_SETUP: usize = 2;
/// Trace one request in 4 to keep the span log small.
const TRACE_EVERY: u64 = 4;

/// The planner options of the serving benchmark: serving never trains on
/// the request path, so plans are trained quickly once, up front.
pub fn serving_options() -> PlannerOptions {
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 2;
    options.trainer.warmup = 64;
    options.candidates.truncate(1);
    options
}

pub type Labels = Vec<(VideoId, Vec<bool>)>;

/// One plan core: its request variants with their expected answers, and
/// the serial execution of its stored plan.
struct Core {
    variants: Vec<(QueryIr, Vec<SegmentHit>)>,
    labels: Labels,
    target: f64,
    f1: f64,
    frames: f64,
    device_s: f64,
}

struct Setup {
    /// Kept alive: the server shares its plan store and obs hub.
    session: ZeusSession,
    server: ZeusServer,
    cores: Vec<Core>,
    setup_s: f64,
    /// Per core: plan time plus the first (cold) answer.
    cold_s: Vec<f64>,
    videos: usize,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let t0 = Instant::now();
    let kind = DatasetKind::Bdd100k;
    let session = ZeusSession::builder()
        .register(kind.registry_name(), kind.generate(SCALE, DEFAULT_SEED))
        .planner(serving_options())
        .seed(DEFAULT_SEED)
        .train_workers(TRAIN_WORKERS)
        .build()
        .map_err(|e| format!("session: {e}"))?;
    let mut planned = Vec::new();
    for class in kind.query_classes() {
        for target in TARGETS {
            let sql = format!(
                "SELECT segment_ids FROM UDF(video) WHERE action_class = '{}' AND accuracy >= {target}%",
                class.query_name()
            );
            let t = Instant::now();
            let query = session.query(&sql).map_err(|e| e.to_string())?;
            let stored = query.plan().map_err(|e| e.to_string())?;
            planned.push((sql, query.ir().clone(), stored, t.elapsed().as_secs_f64()));
        }
    }
    let server = session
        .serve(ServeConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            cache_capacity: CACHE_CAPACITY,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut videos = session.source().store().split(Split::Test);
    videos.sort_by_key(|v| v.id);
    let max_frames = videos.iter().map(|v| v.num_frames).max().unwrap_or(1);
    let mut state = seed ^ 0x5e7e_0001;
    let mut cores = Vec::new();
    let mut cold_s = Vec::new();
    for (sql, ir, stored, plan_s) in planned {
        // The first answer of a fresh core is its cold cost.
        let t = Instant::now();
        let outcome = server
            .submit_ir(&ir, None)
            .map_err(|e| format!("cold submit: {e}"))?
            .wait();
        cold_s.push(plan_s + t.elapsed().as_secs_f64());

        // Oracle: serial execution of the stored plan.
        let mut labels = stored
            .zeus_rl_engine(CostModel::default())
            .execute(&videos)
            .labels;
        labels.sort_by_key(|(id, _)| *id);
        if outcome.labels != labels {
            return Err(format!("{sql}: served labels differ from serial execution"));
        }
        let mut variants = Vec::new();
        for v in 0..VARIANTS {
            let t0 = (stats::unit(&mut state) * max_frames as f64 * 0.5) as usize;
            let t1 = t0 + 1 + (stats::unit(&mut state) * max_frames as f64 * 0.5) as usize;
            let limit = 1 + stats::splitmix64(&mut state) % 20;
            let refined = match v {
                0 => sql.clone(),
                1 => format!("{sql} WINDOW [{t0}, {t1}]"),
                2 => format!("{sql} ORDER BY confidence DESC LIMIT {limit}"),
                _ => format!("{sql} WINDOW [{t0}, {t1}] ORDER BY confidence ASC LIMIT {limit}"),
            };
            let ir = session
                .query(&refined)
                .map_err(|e| e.to_string())?
                .ir()
                .clone();
            let expected = QueryRefiner::new(&ir, videos.iter().copied()).answer(&labels);
            variants.push((ir, expected));
        }
        cores.push(Core {
            variants,
            labels,
            target: ir.base.target_accuracy,
            f1: outcome.result.f1,
            frames: outcome.result.throughput_fps * outcome.result.elapsed_secs,
            device_s: outcome.result.elapsed_secs,
        });
    }
    let videos = videos.len();
    Ok(Setup {
        session,
        server,
        cores,
        setup_s,
        cold_s,
        videos,
    })
}

/// Request `n`: cores cycle in a seeded order; half the requests are
/// plain, the other half one of the refined variants.
fn request(n: u64, seed: u64, order: &[usize]) -> (usize, usize) {
    let core = order[(n % order.len() as u64) as usize];
    let mut state = seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let h = stats::splitmix64(&mut state);
    let variant = if h.is_multiple_of(2) {
        0
    } else {
        1 + ((h >> 1) % (VARIANTS as u64 - 1)) as usize
    };
    (core, variant)
}

fn drive(s: &Setup, args: &Args, seconds: f64, trace_every: u64, epoch: Instant) -> LoopRun {
    let mut state = args.seed;
    let order = stats::permutation(s.cores.len(), &mut state);
    closed_loop(
        CLIENTS,
        seconds,
        trace_every,
        epoch,
        |n, root, rec: &mut Recorder| {
            let (c, v) = request(n, args.seed, &order);
            let core = &s.cores[c];
            let (ir, expected) = &core.variants[v];
            let t = Instant::now();
            let span = rec.child("serve.submit", n, root);
            let stream = s.server.submit_ir(ir, None);
            rec.close(span);
            let stream = stream.map_err(|e| Failure::Failed(e.to_string()))?;
            let span = rec.child("serve.wait", n, root);
            let outcome = stream.wait();
            rec.close(span);
            let latency: Duration = t.elapsed();
            if &outcome.answer != expected || outcome.labels != core.labels {
                return Err(Failure::Wrong(format!(
                    "request {n}: {} differs from serial execution",
                    ir.to_sql()
                )));
            }
            Ok(latency)
        },
    )
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let epoch = Instant::now();
    let mut result = RunResult::default();
    if !args.trace {
        let mut setups = Vec::new();
        let mut colds = Vec::new();
        let mut runs: Vec<LoopRun> = Vec::new();
        let slice_s = args.seconds / (SETUP_REPS * SLICES_PER_SETUP) as f64;
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let s = setup(args.seed)?;
            setups.push(s.setup_s);
            colds.push(stats::mean(&s.cold_s));
            for _ in 0..SLICES_PER_SETUP {
                runs.push(drive(&s, args, slice_s, 0, epoch));
            }
            last = Some(s);
        }
        let s = last.expect("at least one set-up");
        runs.iter().for_each(|r| result.tally.merge(&r.tally));
        let load = sliced(&runs);
        let frames: f64 = s.cores.iter().map(|c| c.frames).sum();
        let device_s: f64 = s.cores.iter().map(|c| c.device_s).sum();
        result.end_to_end = Some(EndToEnd {
            setup_s: stats::median(&setups),
            cold_query_s: stats::median(&colds),
            answer_f1: stats::mean(&s.cores.iter().map(|c| c.f1).collect::<Vec<_>>()),
            sim_fps: frames / device_s,
            targets_met: s.cores.iter().filter(|c| c.f1 >= c.target).count() as f64,
            qps: load.qps,
            latency_p50_ms: load.p50_ms,
            latency_p99_ms: load.p99_ms,
        });
        return Ok(result);
    }

    let s = setup(args.seed)?;
    let trained = s.session.snapshot();
    let train_stages = Stages::of(s.session.trace_sink());
    let plain = drive(&s, args, args.seconds / 2.0, 0, epoch);
    result.tally.merge(&plain.tally);
    let before = s.server.snapshot();
    let stages_before = Stages::of(s.session.trace_sink());
    let traced = drive(&s, args, args.seconds / 2.0, TRACE_EVERY, epoch);
    result.tally.merge(&traced.tally);
    let after = s.server.snapshot();
    let stages = Stages::of(s.session.trace_sink()).since(&stages_before);
    s.server.shutdown();

    let totals = spans::totals(&traced.spans);
    let span_mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
    let grew = |name: &str| layers::grew(&before, &after, name);
    let hits = grew(keys::CACHE_RESULT_HIT);
    // Every miss executes its engine (`ServeMetrics::on_executed`).
    let misses = grew(keys::CACHE_RESULT_MISS);
    let executed = misses;
    let device_s = after.gauge(keys::SERVE_DEVICE_SECS).unwrap_or(0.0)
        - before.gauge(keys::SERVE_DEVICE_SECS).unwrap_or(0.0);
    let feature_hits = layers::counter(&trained, keys::CACHE_FEATURE_HIT);
    let feature_lookups = feature_hits + layers::counter(&trained, keys::CACHE_FEATURE_MISS);
    let per_executed = |x: f64| x / executed.max(1) as f64;
    result.layers = vec![
        metric(
            "core.training.candidate_s",
            train_stages.mean_us("candidate") / 1e6,
            "s",
        ),
        metric(
            "core.training.candidates",
            layers::counter(&trained, keys::TRAIN_CANDIDATES) as f64,
            "count",
        ),
        metric("rl.update_us", train_stages.mean_us("update"), "us"),
        metric(
            "rl.batch_forward_us",
            train_stages.mean_us("batch_forward"),
            "us",
        ),
        metric(
            "train.updates",
            layers::counter(&trained, keys::TRAIN_UPDATES) as f64,
            "count",
        ),
        metric(
            "train.steps",
            layers::counter(&trained, keys::TRAIN_STEPS) as f64,
            "count",
        ),
        metric(
            "train.episodes",
            layers::counter(&trained, keys::TRAIN_EPISODES) as f64,
            "count",
        ),
        metric(
            "apfg.feature_cache_hit_rate",
            layers::rate(feature_hits, feature_lookups),
            "ratio",
        ),
        metric("apfg.feature_cache_hits", feature_hits as f64, "count"),
        metric(
            "apfg.feature_cache_lookups",
            feature_lookups as f64,
            "count",
        ),
        metric("serve.submit_us", span_mean("serve.submit") / 1e3, "us"),
        metric("serve.wait_ms", span_mean("serve.wait") / 1e6, "ms"),
        metric("serve.stage.cache_us", stages.mean_us("cache"), "us"),
        metric("serve.stage.plan_us", stages.mean_us("plan"), "us"),
        metric(
            "serve.stage.admission_us",
            stages.mean_us("admission"),
            "us",
        ),
        metric(
            "serve.stage.execute_part_us",
            stages.mean_us("execute.part"),
            "us",
        ),
        metric("serve.stage.refine_us", stages.mean_us("refine"), "us"),
        metric("serve.videos_per_query", s.videos as f64, "count"),
        metric(
            "serve.cache_hit_rate",
            layers::rate(hits, hits + misses),
            "ratio",
        ),
        metric("serve.cache_hits", hits as f64, "count"),
        metric("serve.cache_lookups", (hits + misses) as f64, "count"),
        metric(
            "serve.coalesced",
            grew(keys::SERVE_COALESCED) as f64,
            "count",
        ),
        metric("serve.executed", executed as f64, "count"),
        metric(
            "serve.frames_per_query",
            per_executed(grew(keys::SERVE_FRAMES) as f64),
            "count",
        ),
        metric("serve.device_s_per_query", per_executed(device_s), "s"),
        metric(
            "bench.trace_overhead",
            traced.latencies.mean_ms() / plain.latencies.mean_ms(),
            "ratio",
        ),
    ];

    eprintln!(
        "== serve_miss trace: {} requests ==",
        traced.latencies.count()
    );
    spans::print_self_times(&totals);
    // Each client keeps one query in flight, and the workers split every
    // query's videos, so a request waits for about `CLIENTS` queries' parts.
    eprintln!(
        "serve.wait {:.3} ms  vs  execute.part {:.1} us x {} videos x {} queries in flight / {} workers = {:.3} ms",
        span_mean("serve.wait") / 1e6,
        stages.mean_us("execute.part"),
        s.videos,
        CLIENTS,
        WORKERS,
        stages.mean_us("execute.part") * (s.videos * CLIENTS) as f64 / WORKERS as f64 / 1e3,
    );
    result.spans = traced.spans;
    Ok(result)
}
