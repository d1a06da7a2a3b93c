//! Per-layer metrics: the list every traced run prints, and readers for
//! what the program already exports (registry counters through
//! `ObsSnapshot::counter`, stage aggregates through `Tracer::stage_stats`).

use std::collections::BTreeMap;

use zeus::obs::{ObsSnapshot, Tracer};

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Every per-layer metric, with its unit. A traced run prints all of
/// them; a layer the workload leaves idle reads 0. Each ratio is printed
/// next to its base (`*_hits`/`*_lookups`, `train.updates`,
/// `serve.executed`, `bench.traced_requests`).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("api.query_us", "us"),
    ("core.planner.plan_s", "s"),
    ("core.planner.profile_ms", "ms"),
    ("core.training.candidate_s", "s"),
    ("core.training.candidates", "count"),
    ("rl.update_us", "us"),
    ("rl.batch_forward_us", "us"),
    ("train.updates", "count"),
    ("train.steps", "count"),
    ("train.episodes", "count"),
    ("apfg.feature_cache_hit_rate", "ratio"),
    ("apfg.feature_cache_hits", "count"),
    ("apfg.feature_cache_lookups", "count"),
    ("core.exec.run_ms", "ms"),
    ("sim.device_s", "s"),
    ("serve.submit_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.stage.cache_us", "us"),
    ("serve.stage.plan_us", "us"),
    ("serve.stage.admission_us", "us"),
    ("serve.stage.execute_part_us", "us"),
    ("serve.stage.refine_us", "us"),
    ("serve.videos_per_query", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.cache_hits", "count"),
    ("serve.cache_lookups", "count"),
    ("serve.coalesced", "count"),
    ("serve.executed", "count"),
    ("serve.frames_per_query", "count"),
    ("serve.device_s_per_query", "s"),
    ("fleet.submit_us", "us"),
    ("fleet.wait_us", "us"),
    ("fleet.cache_hit_rate", "ratio"),
    ("fleet.cache_hits", "count"),
    ("fleet.cache_lookups", "count"),
    ("fleet.shard_balance", "ratio"),
    ("fleet.replica_hits", "count"),
    ("fleet.replicated", "count"),
    ("fleet.failover", "count"),
    ("fleet.shed_over_quota", "count"),
    ("fleet.shed_under_quota", "count"),
    ("bench.traced_requests", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// `hits / lookups`, 0 when nothing was looked up.
pub fn rate(hits: u64, lookups: u64) -> f64 {
    hits as f64 / lookups.max(1) as f64
}

/// Stage aggregates as `(count, summed µs)`, so aggregates of several
/// tracers add and a later reading minus an earlier one isolates a phase.
#[derive(Debug, Default, Clone)]
pub struct Stages(BTreeMap<String, (u64, f64)>);

impl Stages {
    pub fn of(tracer: &Tracer) -> Stages {
        let mut s = Stages::default();
        s.add(tracer);
        s
    }

    pub fn add(&mut self, tracer: &Tracer) {
        for st in tracer.stage_stats() {
            let e = self.0.entry(st.name).or_default();
            e.0 += st.count;
            e.1 += st.count as f64 * st.mean_us as f64;
        }
    }

    /// What was recorded after `earlier` was read.
    pub fn since(&self, earlier: &Stages) -> Stages {
        let mut out = self.clone();
        for (name, (count, sum)) in &earlier.0 {
            if let Some(e) = out.0.get_mut(name) {
                e.0 -= count;
                e.1 -= sum;
            }
        }
        out
    }

    /// Mean stage wall time in µs (0 when the stage never ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(&(count, sum)) if count > 0 => sum / count as f64,
            _ => 0.0,
        }
    }
}

/// A counter, 0 when the registry never created it.
pub fn counter(snapshot: &ObsSnapshot, name: &str) -> u64 {
    snapshot.counter(name).unwrap_or(0)
}

/// A counter's growth between two snapshots.
pub fn grew(before: &ObsSnapshot, after: &ObsSnapshot, name: &str) -> u64 {
    counter(after, name).saturating_sub(counter(before, name))
}
