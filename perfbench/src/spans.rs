//! The benchmark's own spans: recorded in memory around calls into the
//! program's public API (never inside it), written out when a run ends.
//!
//! Each client thread owns a [`Recorder`], so recording takes no lock.
//! A span carries its name, start, end, parent and the id of the request
//! it belongs to; a layer's self time is its duration minus the part its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Sentinel for "no span" (the span of a disabled recorder, or no parent).
pub const NONE: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. A disabled recorder records nothing, so the
/// untraced runs pay only a branch per span.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Recorder {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` ([`NONE`] for a root); returns its id.
    pub fn open(&mut self, name: &'static str, request: u64, parent: usize) -> usize {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Open a span under `parent` only if the parent is recorded, so a
    /// request that is not sampled records no spans at all.
    pub fn child(&mut self, name: &'static str, request: u64, parent: usize) -> usize {
        if parent == NONE {
            return NONE;
        }
        self.open(name, request, parent)
    }

    pub fn close(&mut self, id: usize) {
        if id != NONE {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Hand the spans over, renumbering parents by `offset` so several
    /// threads' logs concatenate into one.
    pub fn into_spans(self, offset: usize) -> Vec<Span> {
        self.spans
            .into_iter()
            .map(|mut s| {
                if s.parent != NONE {
                    s.parent += offset;
                }
                s
            })
            .collect()
    }
}

/// Merge per-thread recorders into one span list.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut all = Vec::new();
    for r in recorders {
        let offset = all.len();
        all.extend(r.into_spans(offset));
    }
    all
}

/// Per-name totals: spans, wall and self time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

/// Totals per span name. Children of one parent run one after another
/// on the parent's thread, so their summed duration is the covered part.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child_ns[s.parent] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Write spans as JSON lines (one object per span).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Print each span name's count, mean wall and mean self time.
pub fn print_self_times(totals: &BTreeMap<&'static str, SpanTotals>) {
    eprintln!(
        "{:<24} {:>8} {:>12} {:>12}",
        "span", "count", "mean ms", "self ms"
    );
    for (name, t) in totals {
        eprintln!(
            "{:<24} {:>8} {:>12.4} {:>12.4}",
            name,
            t.count,
            t.mean_ns() / 1e6,
            t.self_ns as f64 / t.count.max(1) as f64 / 1e6
        );
    }
}
