//! `fleet_hit`: a two-shard `FleetRouter` over sixteen small corpora
//! (four families × four corpus seeds) with four templates each. Corpus
//! popularity is Zipf(1.2) and eight tenants send Zipf(1.1) shares, every
//! tenant's quota far above its demand. Each shard's cache holds the whole
//! 64-template working set, and a warm-up replicates every corpus and
//! fills both shards, so every measured request is a cache replay on the
//! client thread: router + quota gate + cache + refine, no engine
//! execution. Two closed-loop clients.
//!
//! Corpora and plans are fixed evaluation data; `--seed` makes the
//! traffic: which corpora are popular, and the request sequence.

use std::time::Instant;

use zeus::api::{FleetConfig, FleetRouter, QueryIr, QuotaSpec, TenantId, ZeusSession};
use zeus::obs::keys;
use zeus::serve::{SegmentHit, ServeConfig};
use zeus::video::{ConfigFamily, DatasetKind};
use zeus_bench::harness::DEFAULT_SEED;

use crate::layers::{self, metric};
use crate::load::{closed_loop, sliced, LoopRun};
use crate::serve_miss::{serving_options, Labels};
use crate::spans::{self, Recorder};
use crate::{stats, Args, EndToEnd, Failure, RunResult};

const SCALE: f64 = 0.01;
const FAMILIES: [DatasetKind; 4] = [
    DatasetKind::Bdd100k,
    DatasetKind::Thumos14,
    DatasetKind::ActivityNet,
    DatasetKind::Cityscapes,
];
const CORPORA: usize = 16;
const TENANTS: usize = 8;
const SHARDS: usize = 2;
const WORKERS: usize = 2;
const TRAIN_WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Per shard; holds the whole 64-template working set with room to spare.
const CACHE_CAPACITY: usize = 128;
const QUEUE_CAPACITY: usize = 256;
/// Submissions after which a corpus replicates; the warm-up passes it
/// for every corpus, so no corpus changes placement while measured.
const HOT_THRESHOLD: u64 = 16;
const WARM_ROUNDS: usize = 4;
/// Length of the seeded request sequence (cycled).
const SEQUENCE: usize = 1 << 14;
/// Fresh instances per untraced run. Each is set up, then measured for
/// `SLICES_PER_SETUP` slices: two instances of the same set-up in one
/// process differed by up to 30% in throughput, so one is not enough.
const SETUP_REPS: usize = 5;
const SLICES_PER_SETUP: usize = 2;
/// Requests are fast here: trace one in 256 to keep the span log small.
const TRACE_EVERY: u64 = 256;

/// One template with a single server's answer for it (the oracle).
struct Template {
    ir: QueryIr,
    answer: Vec<SegmentHit>,
    labels: Labels,
    target: f64,
    f1: f64,
    frames: f64,
    device_s: f64,
}

struct Setup {
    router: FleetRouter,
    /// Per corpus, its templates.
    templates: Vec<Vec<Template>>,
    tenants: Vec<TenantId>,
    setup_s: f64,
    cold_s: Vec<f64>,
}

fn setup() -> Result<Setup, String> {
    let t0 = Instant::now();
    let mut builder = ZeusSession::builder()
        .planner(serving_options())
        .seed(DEFAULT_SEED)
        .train_workers(TRAIN_WORKERS);
    let mut names = Vec::new();
    for i in 0..CORPORA {
        let kind = FAMILIES[i % FAMILIES.len()];
        let name = format!("{}_{i:02}", kind.registry_name());
        builder = builder.register(&name, kind.generate(SCALE, DEFAULT_SEED + 1 + i as u64));
        names.push((name, kind));
    }
    let session = builder
        .default_source(&names[0].0)
        .build()
        .map_err(|e| format!("session: {e}"))?;
    let mut planned = Vec::new();
    for (name, kind) in &names {
        let target = match kind.family() {
            ConfigFamily::Driving => 85,
            ConfigFamily::Untrimmed => 75,
        };
        let mut irs = Vec::new();
        for class in kind.query_classes() {
            for t in [target, target - 5] {
                let sql = format!(
                    "SELECT segment_ids FROM {name} WHERE action_class = '{}' AND accuracy >= {t}%",
                    class.query_name()
                );
                let started = Instant::now();
                let query = session.query(&sql).map_err(|e| e.to_string())?;
                query.plan().map_err(|e| e.to_string())?;
                irs.push((query.ir().clone(), started.elapsed().as_secs_f64()));
            }
        }
        planned.push(irs);
    }
    let unlimited = QuotaSpec {
        rate_per_sec: 1e9,
        burst: 1e9,
    };
    let router = session
        .fleet(FleetConfig {
            shards: SHARDS,
            serve: ServeConfig {
                workers: WORKERS,
                queue_capacity: QUEUE_CAPACITY,
                cache_capacity: CACHE_CAPACITY,
                ..ServeConfig::default()
            },
            quota: unlimited,
            quota_overrides: Vec::new(),
            work_conserving: true,
            hot_threshold: HOT_THRESHOLD,
            replicas: SHARDS - 1,
        })
        .map_err(|e| format!("fleet: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();

    // Oracle: one single server per corpus answers each template once;
    // that first answer is also the template's cold cost.
    let mut templates = Vec::new();
    let mut cold_s = Vec::new();
    for ((name, _), irs) in names.iter().zip(planned) {
        let server = session
            .serve_dataset(
                name,
                ServeConfig {
                    workers: WORKERS,
                    ..ServeConfig::default()
                },
            )
            .map_err(|e| format!("server: {e}"))?;
        let mut corpus = Vec::new();
        for (ir, plan_s) in irs {
            let started = Instant::now();
            let outcome = server
                .submit_ir(&ir, None)
                .map_err(|e| format!("oracle submit: {e}"))?
                .wait();
            cold_s.push(plan_s + started.elapsed().as_secs_f64());
            corpus.push(Template {
                target: ir.base.target_accuracy,
                ir,
                answer: outcome.answer,
                labels: outcome.labels,
                f1: outcome.result.f1,
                frames: outcome.result.throughput_fps * outcome.result.elapsed_secs,
                device_s: outcome.result.elapsed_secs,
            });
        }
        server.shutdown();
        templates.push(corpus);
    }
    let tenants = (0..TENANTS)
        .map(|i| TenantId::new(format!("tenant-{i}")))
        .collect();
    Ok(Setup {
        router,
        templates,
        tenants,
        setup_s,
        cold_s,
    })
}

/// Submit one request and check its answer against the oracle.
fn send(
    s: &Setup,
    c: usize,
    t: usize,
    tenant: usize,
    n: u64,
    root: usize,
    rec: &mut Recorder,
) -> Result<std::time::Duration, Failure> {
    let template = &s.templates[c][t];
    let started = Instant::now();
    let span = rec.child("fleet.submit", n, root);
    let routed = s.router.submit(&template.ir, &s.tenants[tenant], None);
    rec.close(span);
    let routed = routed.map_err(|e| Failure::Failed(e.to_string()))?;
    let span = rec.child("fleet.wait", n, root);
    let outcome = routed.stream.wait();
    rec.close(span);
    let latency = started.elapsed();
    if outcome.answer != template.answer || outcome.labels != template.labels {
        return Err(Failure::Wrong(format!(
            "request {n}: {} differs from a single server's answer",
            template.ir.to_sql()
        )));
    }
    Ok(latency)
}

/// Replicate every corpus and fill both shards' caches: two consecutive
/// submissions of a replicated corpus land on different shards.
fn warm_up(s: &Setup, result: &mut RunResult) {
    let mut rec = Recorder::new(Instant::now(), false);
    for _ in 0..WARM_ROUNDS {
        for c in 0..s.templates.len() {
            for t in 0..s.templates[c].len() {
                for _ in 0..2 {
                    result
                        .tally
                        .count(send(s, c, t, 0, 0, spans::NONE, &mut rec));
                }
            }
        }
    }
}

/// The seeded request sequence: (corpus, template, tenant). Popularity
/// rank `r` always falls on family `r % 4`, and the seed picks which of
/// that family's corpora holds it: families differ in corpus size, so
/// this keeps the work per request the same across seeds.
fn sequence(seed: u64, s: &Setup) -> Vec<(usize, usize, usize)> {
    let mut state = seed ^ 0xf1ee_7000;
    let per_family = CORPORA / FAMILIES.len();
    let members: Vec<Vec<usize>> = (0..FAMILIES.len())
        .map(|_| stats::permutation(per_family, &mut state))
        .collect();
    let popularity: Vec<usize> = (0..CORPORA)
        .map(|r| {
            let family = r % FAMILIES.len();
            family + FAMILIES.len() * members[family][r / FAMILIES.len()]
        })
        .collect();
    let corpus_cdf = stats::zipf_cdf(CORPORA, 1.2);
    let tenant_cdf = stats::zipf_cdf(TENANTS, 1.1);
    (0..SEQUENCE)
        .map(|_| {
            let c = popularity[stats::pick(&corpus_cdf, &mut state)];
            let t = (stats::splitmix64(&mut state) % s.templates[c].len() as u64) as usize;
            (c, t, stats::pick(&tenant_cdf, &mut state))
        })
        .collect()
}

fn drive(
    s: &Setup,
    work: &[(usize, usize, usize)],
    seconds: f64,
    trace_every: u64,
    epoch: Instant,
) -> LoopRun {
    closed_loop(
        CLIENTS,
        seconds,
        trace_every,
        epoch,
        |n, root, rec: &mut Recorder| {
            let (c, t, tenant) = work[(n % work.len() as u64) as usize];
            send(s, c, t, tenant, n, root, rec)
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
            let s = setup()?;
            setups.push(s.setup_s);
            colds.push(stats::mean(&s.cold_s));
            warm_up(&s, &mut result);
            let work = sequence(args.seed, &s);
            for _ in 0..SLICES_PER_SETUP {
                runs.push(drive(&s, &work, slice_s, 0, epoch));
            }
            last = Some(s);
        }
        let s = last.expect("at least one set-up");
        runs.iter().for_each(|r| result.tally.merge(&r.tally));
        let load = sliced(&runs);
        let all: Vec<&Template> = s.templates.iter().flatten().collect();
        let frames: f64 = all.iter().map(|t| t.frames).sum();
        let device_s: f64 = all.iter().map(|t| t.device_s).sum();
        result.end_to_end = Some(EndToEnd {
            setup_s: stats::median(&setups),
            cold_query_s: stats::median(&colds),
            answer_f1: stats::mean(&all.iter().map(|t| t.f1).collect::<Vec<_>>()),
            sim_fps: frames / device_s,
            targets_met: all.iter().filter(|t| t.f1 >= t.target).count() as f64,
            qps: load.qps,
            latency_p50_ms: load.p50_ms,
            latency_p99_ms: load.p99_ms,
        });
        return Ok(result);
    }

    let s = setup()?;
    warm_up(&s, &mut result);
    let work = sequence(args.seed, &s);
    let plain = drive(&s, &work, args.seconds / 2.0, 0, epoch);
    result.tally.merge(&plain.tally);
    let before = s.router.fleet_snapshot();
    let loads_before = s.router.shard_loads();
    let traced = drive(&s, &work, args.seconds / 2.0, TRACE_EVERY, epoch);
    result.tally.merge(&traced.tally);
    let after = s.router.fleet_snapshot();
    let loads: Vec<u64> = s
        .router
        .shard_loads()
        .iter()
        .zip(&loads_before)
        .map(|(a, b)| a - b)
        .collect();
    s.router.shutdown();

    let totals = spans::totals(&traced.spans);
    let span_mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
    let grew = |name: &str| layers::grew(&before, &after, name) as f64;
    let hits = layers::grew(&before, &after, keys::CACHE_RESULT_HIT);
    let lookups = hits + layers::grew(&before, &after, keys::CACHE_RESULT_MISS);
    let max_load = loads.iter().copied().max().unwrap_or(0);
    let min_load = loads.iter().copied().min().unwrap_or(0);
    result.layers = vec![
        metric("fleet.submit_us", span_mean("fleet.submit") / 1e3, "us"),
        metric("fleet.wait_us", span_mean("fleet.wait") / 1e3, "us"),
        metric("fleet.cache_hit_rate", layers::rate(hits, lookups), "ratio"),
        metric("fleet.cache_hits", hits as f64, "count"),
        metric("fleet.cache_lookups", lookups as f64, "count"),
        metric(
            "fleet.shard_balance",
            max_load as f64 / min_load.max(1) as f64,
            "ratio",
        ),
        metric(
            "fleet.replica_hits",
            grew(keys::FLEET_PLAN_REPLICA_HITS),
            "count",
        ),
        metric(
            "fleet.replicated",
            layers::counter(&after, keys::FLEET_PLAN_REPLICATED) as f64,
            "count",
        ),
        metric("fleet.failover", grew(keys::FLEET_FAILOVER), "count"),
        metric(
            "fleet.shed_over_quota",
            grew(keys::FLEET_SHED_OVER_QUOTA),
            "count",
        ),
        metric(
            "fleet.shed_under_quota",
            grew(keys::FLEET_SHED_UNDER_QUOTA),
            "count",
        ),
        metric(
            "bench.trace_overhead",
            traced.latencies.mean_ms() / plain.latencies.mean_ms(),
            "ratio",
        ),
    ];
    eprintln!(
        "== fleet_hit trace: {} requests, shard loads {loads:?} ==",
        traced.latencies.count()
    );
    spans::print_self_times(&totals);
    result.spans = traced.spans;
    Ok(result)
}
