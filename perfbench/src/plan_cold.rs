//! `plan_cold`: the cost an analyst pays for a new query. For each of the
//! paper's six evaluation queries at its Figure 8 target, a fresh session
//! runs `query → plan → run` with Zeus-RL and the default planner
//! options. RL training dominates; serving and fleet code stay idle.
//!
//! The corpora are the reproduction harness's fixed evaluation data
//! (its corpus seed), so the accuracy this speed was bought at
//! (`answer_f1`, `sim_fps`, `targets_met`) repeats exactly and compares
//! across runs; `--seed` orders the queries within each pass.

use std::sync::Arc;
use std::time::Instant;

use zeus::api::{parse_zql, ZeusSession};
use zeus::core::config::ConfigSpace;
use zeus::core::planner::{PlannerOptions, QueryPlanner};
use zeus::core::QueryEngine;
use zeus::obs::keys;
use zeus::serve::{QueryRefiner, SegmentHit};
use zeus::sim::CostModel;
use zeus::video::source::SharedSource;
use zeus::video::video::Split;
use zeus::video::{DatasetKind, Video};
use zeus_bench::harness::{paper_queries, DEFAULT_SEED};

use crate::layers::{self, metric, Stages};
use crate::spans::{self, Recorder, NONE};
use crate::{stats, Args, EndToEnd, Failure, RunResult};

/// Corpus scale: one pass over the six queries takes a few seconds.
const SCALE: f64 = 0.05;
const TRAIN_WORKERS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 101;

struct Case {
    dataset: &'static str,
    sql: String,
    target: f64,
    corpus: SharedSource,
}

/// What one query returned, kept from the first pass to check later ones.
#[derive(Clone, PartialEq)]
struct Answer {
    f1: f64,
    frames: f64,
    device_s: f64,
    hits: Vec<SegmentHit>,
}

/// Generate the three corpora the paper's queries read.
fn setup(order: &[usize]) -> Vec<Case> {
    let queries = paper_queries();
    let mut corpora: Vec<(DatasetKind, SharedSource)> = Vec::new();
    for (kind, _, _) in &queries {
        if !corpora.iter().any(|(k, _)| k == kind) {
            corpora.push((*kind, Arc::new(kind.generate(SCALE, DEFAULT_SEED))));
        }
    }
    order
        .iter()
        .map(|&i| {
            let (kind, class, target) = queries[i];
            let corpus = corpora
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, c)| Arc::clone(c))
                .expect("every query's corpus was generated");
            Case {
                dataset: kind.registry_name(),
                sql: format!(
                    "SELECT segment_ids FROM UDF(video) WHERE action_class = '{}' AND accuracy >= {}%",
                    class.query_name(),
                    (target * 100.0).round()
                ),
                target,
                corpus,
            }
        })
        .collect()
}

fn test_videos(corpus: &SharedSource) -> Vec<&Video> {
    let mut videos = corpus.store().split(Split::Test);
    videos.sort_by_key(|v| v.id);
    videos
}

/// Totals of one phase (a run of whole passes).
#[derive(Default)]
struct Phase {
    /// Wall time of each query, parse to answer, in seconds.
    walls: Vec<f64>,
    /// Per pass: mean, median and 99th percentile of its query walls.
    pass_means: Vec<f64>,
    pass_p50: Vec<f64>,
    pass_p99: Vec<f64>,
    passes: u64,
    /// Counters and stage aggregates summed over the phase's sessions.
    updates: u64,
    steps: u64,
    episodes: u64,
    candidates: u64,
    feature_hits: u64,
    feature_misses: u64,
    stages: Stages,
}

/// Run whole passes over `cases` until `seconds` have passed (at least
/// one). Every answer is checked against serial execution of the stored
/// plan, and against the first pass's answer.
fn measure(
    cases: &[Case],
    seconds: f64,
    rec: &mut Recorder,
    first: &mut Vec<Answer>,
    result: &mut RunResult,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut request = 0u64;
    while phase.passes == 0 || started.elapsed().as_secs_f64() < seconds {
        let mut pass_walls = Vec::new();
        for (i, case) in cases.iter().enumerate() {
            request += 1;
            let session = ZeusSession::builder()
                .register_shared(case.dataset, Arc::clone(&case.corpus))
                .seed(DEFAULT_SEED)
                .train_workers(TRAIN_WORKERS)
                .build()
                .map_err(|e| format!("session: {e}"))?;

            let t0 = Instant::now();
            let root = rec.open("request", request, NONE);
            let span = rec.open("api.query", request, root);
            let query = session.query(&case.sql).map_err(|e| e.to_string())?;
            rec.close(span);
            let span = rec.open("core.planner.plan", request, root);
            let stored = query.plan().map_err(|e| e.to_string())?;
            rec.close(span);
            let span = rec.open("core.exec.run", request, root);
            let response = query.run().map_err(|e| e.to_string())?;
            rec.close(span);
            rec.close(root);
            let wall = t0.elapsed().as_secs_f64();

            let snapshot = session.snapshot();
            phase.updates += layers::counter(&snapshot, keys::TRAIN_UPDATES);
            phase.steps += layers::counter(&snapshot, keys::TRAIN_STEPS);
            phase.episodes += layers::counter(&snapshot, keys::TRAIN_EPISODES);
            phase.candidates += layers::counter(&snapshot, keys::TRAIN_CANDIDATES);
            phase.feature_hits += layers::counter(&snapshot, keys::CACHE_FEATURE_HIT);
            phase.feature_misses += layers::counter(&snapshot, keys::CACHE_FEATURE_MISS);
            phase.stages.add(session.trace_sink());

            // Oracle: serial execution of the stored plan, refined the
            // same way, must give the answer `run` returned.
            let videos = test_videos(&case.corpus);
            let mut labels = stored
                .zeus_rl_engine(CostModel::default())
                .execute(&videos)
                .labels;
            labels.sort_by_key(|(id, _)| *id);
            let expected = QueryRefiner::new(query.ir(), videos.iter().copied()).answer(&labels);
            let answer = Answer {
                f1: response.result.f1,
                frames: response.result.throughput_fps * response.result.elapsed_secs,
                device_s: response.result.elapsed_secs,
                hits: response.answer,
            };
            let outcome = if answer.hits != expected {
                Err(Failure::Wrong(format!(
                    "{}: run differs from its stored plan",
                    case.sql
                )))
            } else if first.len() > i && first[i] != answer {
                Err(Failure::Wrong(format!(
                    "{}: answer changed between passes",
                    case.sql
                )))
            } else {
                Ok(())
            };
            if first.len() == i {
                first.push(answer);
            }
            result.tally.count(outcome);
            pass_walls.push(wall);
        }
        phase.pass_means.push(stats::mean(&pass_walls));
        phase.pass_p50.push(stats::quantile(&pass_walls, 0.50));
        phase.pass_p99.push(stats::quantile(&pass_walls, 0.99));
        phase.walls.extend(pass_walls);
        phase.passes += 1;
    }
    Ok(phase)
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut state = args.seed;
    let order = stats::permutation(paper_queries().len(), &mut state);
    let epoch = Instant::now();
    let mut result = RunResult::default();
    let mut first = Vec::new();

    if !args.trace {
        let mut setups = Vec::new();
        let mut cases = Vec::new();
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            cases = setup(&order);
            setups.push(t0.elapsed().as_secs_f64());
        }
        let mut rec = Recorder::new(epoch, false);
        let phase = measure(&cases, args.seconds, &mut rec, &mut first, &mut result)?;
        let frames: f64 = first.iter().map(|a| a.frames).sum();
        let device_s: f64 = first.iter().map(|a| a.device_s).sum();
        result.end_to_end = Some(EndToEnd {
            setup_s: stats::median(&setups),
            cold_query_s: stats::median(&phase.pass_means),
            answer_f1: stats::mean(&first.iter().map(|a| a.f1).collect::<Vec<_>>()),
            sim_fps: frames / device_s,
            targets_met: first
                .iter()
                .zip(&cases)
                .filter(|(a, c)| a.f1 >= c.target)
                .count() as f64,
            qps: 1.0 / stats::median(&phase.pass_means),
            latency_p50_ms: stats::median(&phase.pass_p50) * 1e3,
            latency_p99_ms: stats::median(&phase.pass_p99) * 1e3,
        });
        return Ok(result);
    }

    // Traced run: half the time untraced, half with spans on.
    let cases = setup(&order);
    let mut off = Recorder::new(epoch, false);
    let plain = measure(
        &cases,
        args.seconds / 2.0,
        &mut off,
        &mut first,
        &mut result,
    )?;
    let mut rec = Recorder::new(epoch, true);
    let traced = measure(
        &cases,
        args.seconds / 2.0,
        &mut rec,
        &mut first,
        &mut result,
    )?;
    let spans = rec.into_spans(0);
    let totals = spans::totals(&spans);
    let span_mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());

    // Standalone profiling pass (Table 2 profile) per query, outside the
    // timed phases.
    let mut profile_ms = Vec::new();
    for case in &cases {
        let query = parse_zql(&case.sql).map_err(|e| e.to_string())?.base;
        let options = PlannerOptions {
            seed: DEFAULT_SEED,
            ..PlannerOptions::default()
        };
        let planner = QueryPlanner::new(case.corpus.as_ref(), options.clone());
        let space = ConfigSpace::for_family(case.corpus.family()).masked(options.knob_mask);
        let apfg = planner.build_apfg(&query, &space);
        let t0 = Instant::now();
        let profiles = planner.profile_configurations(&query, &space, &apfg);
        profile_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(profiles);
    }

    let per_pass = |n: u64| n as f64 / traced.passes as f64;
    let lookups = traced.feature_hits + traced.feature_misses;
    let device_s: Vec<f64> = first.iter().map(|a| a.device_s).collect();
    let cold_plain = stats::mean(&plain.walls);
    let cold_traced = stats::mean(&traced.walls);
    result.layers = vec![
        metric("api.query_us", span_mean("api.query") / 1e3, "us"),
        metric(
            "core.planner.plan_s",
            span_mean("core.planner.plan") / 1e9,
            "s",
        ),
        metric("core.planner.profile_ms", stats::mean(&profile_ms), "ms"),
        metric(
            "core.training.candidate_s",
            traced.stages.mean_us("candidate") / 1e6,
            "s",
        ),
        metric(
            "core.training.candidates",
            per_pass(traced.candidates),
            "count",
        ),
        metric("rl.update_us", traced.stages.mean_us("update"), "us"),
        metric(
            "rl.batch_forward_us",
            traced.stages.mean_us("batch_forward"),
            "us",
        ),
        metric("train.updates", per_pass(traced.updates), "count"),
        metric("train.steps", per_pass(traced.steps), "count"),
        metric("train.episodes", per_pass(traced.episodes), "count"),
        metric(
            "apfg.feature_cache_hit_rate",
            layers::rate(traced.feature_hits, lookups),
            "ratio",
        ),
        metric(
            "apfg.feature_cache_hits",
            per_pass(traced.feature_hits),
            "count",
        ),
        metric("apfg.feature_cache_lookups", per_pass(lookups), "count"),
        metric("core.exec.run_ms", span_mean("core.exec.run") / 1e6, "ms"),
        metric("sim.device_s", stats::mean(&device_s), "s"),
        metric("bench.trace_overhead", cold_traced / cold_plain, "ratio"),
    ];
    eprintln!(
        "== plan_cold trace: {} queries over {} passes ==",
        traced.walls.len(),
        traced.passes
    );
    spans::print_self_times(&totals);
    let candidates_per_query = traced.candidates as f64 / traced.walls.len() as f64;
    eprintln!(
        "plan_s {:.3} s  vs  candidate_s {:.3} s x {:.1} candidates / {} workers = {:.3} s",
        span_mean("core.planner.plan") / 1e9,
        traced.stages.mean_us("candidate") / 1e6,
        candidates_per_query,
        TRAIN_WORKERS,
        traced.stages.mean_us("candidate") / 1e6 * candidates_per_query / TRAIN_WORKERS as f64,
    );
    eprintln!(
        "update {:.1} us x {} updates/pass / {} workers = {:.3} s/pass of {:.3} s/pass planning",
        traced.stages.mean_us("update"),
        per_pass(traced.updates),
        TRAIN_WORKERS,
        traced.stages.mean_us("update") * per_pass(traced.updates) / 1e6 / TRAIN_WORKERS as f64,
        span_mean("core.planner.plan") / 1e9 * cases.len() as f64,
    );
    result.spans = spans;
    Ok(result)
}
