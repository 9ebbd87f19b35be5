//! Span-based structured tracing with a slow-query log.
//!
//! ## Model
//!
//! A *request* ([`Tracer::request`]) establishes a thread-local trace
//! context carrying a trace id (the wire `request_id` in the serve layer).
//! Within it, [`span`]/[`span_at`] guards time individual stages — filter,
//! per-object×LOD decode, per-LOD refine round, cache touch, retry attempt
//! — and stamp each [`SpanRecord`] with the request's trace id and its
//! nesting depth. When the request guard drops, a request that exceeded
//! the slow threshold is retained whole in the [`Tracer`]'s slow log (the
//! N worst requests, with full span trees); a faster one is discarded.
//!
//! A span opened on a thread with no request context (e.g. a pool helper
//! thread) is inert: there is no trace for it to join.
//!
//! ## Cost discipline
//!
//! Tracing is **off by default**: every entry point first does one relaxed
//! atomic load ([`enabled`], `#[inline]`) and returns an inert guard, so a
//! disabled tracer adds a branch, not a syscall, to the hot path. An
//! enabled span pushes onto its thread's own context; the only lock is the
//! slow log's, taken once per retained request.

use crate::stats::StatsSnapshot;
use crate::sync::{lock, Mutex};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Sentinel for "no object id" on a span.
pub const NO_OBJECT: u32 = u32::MAX;
/// Sentinel for "no LOD" on a span.
pub const NO_LOD: u32 = u32::MAX;

/// What a span measures. Labels are stable identifiers used by the CLI
/// renderer and docs (`docs/observability.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole serve/CLI request (root of a trace).
    Request,
    /// R-tree / MBB filter step of a query.
    Filter,
    /// Progressive decode of one object to one LOD.
    Decode,
    /// One LOD round of the refinement ladder.
    RefineRound,
    /// Geometric computation stage (used when stitching a shard's wire
    /// stats summary into a coordinator trace).
    Compute,
    /// Decode-cache miss handling (lookup + insert bookkeeping).
    CacheTouch,
    /// One remote shard sub-query, stitched into a coordinator trace from
    /// the shard's wire stats summary (`object` carries the shard index).
    Shard,
    /// One attempt of a retrying client (`object` carries the attempt
    /// index), so a retried request renders as one waterfall.
    RetryAttempt,
}

impl SpanKind {
    /// Stable lowercase label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Filter => "filter",
            SpanKind::Decode => "decode",
            SpanKind::RefineRound => "refine_round",
            SpanKind::Compute => "compute",
            SpanKind::CacheTouch => "cache_touch",
            SpanKind::Shard => "shard",
            SpanKind::RetryAttempt => "retry_attempt",
        }
    }
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage this span measured.
    pub kind: SpanKind,
    /// Nesting depth below the request root (root = 0).
    pub depth: u16,
    /// Object id, or [`NO_OBJECT`].
    pub object: u32,
    /// LOD, or [`NO_LOD`].
    pub lod: u32,
    /// Start offset from the enclosing request start (ns).
    pub start_ns: u64,
    /// Duration (ns).
    pub dur_ns: u64,
}

impl SpanRecord {
    /// Render one line of a span tree, indented by depth.
    #[must_use]
    pub fn render(&self) -> String {
        let mut line = String::new();
        for _ in 0..self.depth {
            line.push_str("  ");
        }
        line.push_str(self.kind.label());
        if self.object != NO_OBJECT {
            // Shard/attempt spans borrow the object field for their index;
            // label accordingly so cluster waterfalls read naturally.
            let key = match self.kind {
                SpanKind::Shard => "shard",
                SpanKind::RetryAttempt => "attempt",
                _ => "obj",
            };
            line.push_str(&format!(" {key}={}", self.object));
        }
        if self.lod != NO_LOD {
            line.push_str(&format!(" lod={}", self.lod));
        }
        line.push_str(&format!(
            " +{:.3}ms {:.3}ms",
            self.start_ns as f64 / 1e6,
            self.dur_ns as f64 / 1e6
        ));
        line
    }
}

/// Per-query cost attribution retained with a slow trace: the exemplar
/// that links the decode-cost metrics back to a concrete trace (the
/// margin planner's input signal — see ROADMAP).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostExemplar {
    /// The query's work summed over every shard that reported it.
    pub total: StatsSnapshot,
    /// Per-shard fanout contribution: `(shard, sub_query_wall_ns,
    /// decoded_bytes)`, one entry per shard that worked on the query.
    pub shards: Vec<(u32, u64, u64)>,
}

impl CostExemplar {
    /// Render the attribution lines appended to a slow-trace tree.
    #[must_use]
    pub fn render(&self) -> String {
        let t = &self.total;
        let mut out = format!(
            "cost: {} decoded bytes / {} resolved pairs = {:.1} B/pair, \
             cache {}/{} ({:.1}% hit), {} lod rounds",
            t.decoded_bytes,
            t.resolved_pairs(),
            t.bytes_per_resolved_pair(),
            t.cache_hits,
            t.cache_hits + t.cache_misses,
            t.hit_rate() * 100.0,
            t.lod_rounds,
        );
        if !self.shards.is_empty() {
            out.push_str("\nfanout:");
            for (shard, wall_ns, bytes) in &self.shards {
                out.push_str(&format!(
                    " shard {shard} {:.3}ms {bytes}B;",
                    *wall_ns as f64 / 1e6
                ));
            }
        }
        out
    }
}

/// A retained slow request: its id, total latency and full span tree in
/// start order.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Request/trace id.
    pub trace_id: u64,
    /// End-to-end request latency (ns).
    pub total_ns: u64,
    /// All spans of the request (root first, then by start offset).
    pub spans: Vec<SpanRecord>,
    /// Cost attribution, when the executing layer attached one
    /// ([`attach_exemplar`]).
    pub exemplar: Option<CostExemplar>,
}

impl TraceRecord {
    /// Render the whole span tree, one span per line, followed by the
    /// cost-attribution exemplar when present.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {:#x} total {:.3}ms ({} spans)\n",
            self.trace_id,
            self.total_ns as f64 / 1e6,
            self.spans.len()
        );
        for s in &self.spans {
            out.push_str(&s.render());
            out.push('\n');
        }
        if let Some(ex) = &self.exemplar {
            for line in ex.render().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

/// Tracing configuration. `Default` is disabled with a 50ms slow threshold
/// and the 8 worst requests retained.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Master switch; when false every span entry point is a no-op stub.
    pub enabled: bool,
    /// Requests at or above this total latency enter the slow log.
    pub slow_threshold: Duration,
    /// How many worst requests the slow log retains.
    pub keep: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            slow_threshold: Duration::from_millis(50),
            keep: 8,
        }
    }
}

struct SlowLog {
    keep: usize,
    worst: Vec<TraceRecord>,
}

impl SlowLog {
    fn offer(&mut self, record: TraceRecord) {
        self.worst.push(record);
        self.worst.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        if self.worst.len() > self.keep {
            let evicted = (self.worst.len() - self.keep) as u64;
            self.worst.truncate(self.keep);
            slow_log_evictions().fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

/// Pre-bound handle for `tripro_trace_dropped_total{reason="slow_log_evict"}`:
/// resolved once, then plain relaxed adds on the (already slow-path)
/// eviction site.
fn slow_log_evictions() -> &'static Arc<AtomicU64> {
    static C: OnceLock<Arc<AtomicU64>> = OnceLock::new();
    C.get_or_init(|| super::trace_dropped_counter("slow_log_evict"))
}

/// The global tracer: enable/disable switch and slow log.
pub struct Tracer {
    enabled: AtomicBool,
    slow_threshold_ns: AtomicU64,
    // LOCK-RANK(91): slow-trace retention list; leaf lock of the obs plane,
    // taken once per retained request and by slow-log readers.
    slow: Mutex<SlowLog>,
}

impl Tracer {
    fn new(cfg: &TraceConfig) -> Self {
        Self {
            enabled: AtomicBool::new(cfg.enabled),
            slow_threshold_ns: AtomicU64::new(
                u64::try_from(cfg.slow_threshold.as_nanos()).unwrap_or(u64::MAX),
            ),
            slow: Mutex::new(SlowLog {
                keep: cfg.keep.max(1),
                worst: Vec::new(),
            }),
        }
    }

    /// Apply `cfg`'s switch, threshold and retention.
    // ORDERING: Relaxed — the switch and threshold are advisory runtime
    // tuning; readers tolerate observing them out of order, and retained
    // traces are published by the slow-log mutex, not by these flags.
    pub fn configure(&self, cfg: &TraceConfig) {
        self.slow_threshold_ns.store(
            u64::try_from(cfg.slow_threshold.as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        lock(&self.slow).keep = cfg.keep.max(1);
        self.enabled.store(cfg.enabled, Ordering::Relaxed);
    }

    /// Master switch (used by tests and the overhead-guard bench).
    // ORDERING: Relaxed — see `configure`; the disabled path must cost one
    // relaxed load and nothing more.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is tracing on?
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Open a request-root trace context on this thread. All spans created
    /// on this thread until the guard drops join the trace. Inert when
    /// tracing is disabled.
    #[must_use]
    pub fn request(&'static self, trace_id: u64) -> RequestGuard {
        if !self.is_enabled() {
            return RequestGuard { active: false };
        }
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            // Nested request guards (e.g. CLI driving the engine in-process
            // under an outer request) keep the outer context.
            if ctx.is_some() {
                return RequestGuard { active: false };
            }
            *ctx = Some(ThreadCtx {
                trace_id,
                depth: 0,
                start: Instant::now(),
                spans: Vec::with_capacity(16),
                exemplar: None,
            });
            RequestGuard { active: true }
        })
    }

    /// The current slow log, worst request first.
    #[must_use]
    pub fn slow_log(&self) -> Vec<TraceRecord> {
        lock(&self.slow).worst.clone()
    }

    /// Drop all retained slow traces (used between CLI runs).
    pub fn clear_slow_log(&self) {
        lock(&self.slow).worst.clear();
    }
}

struct ThreadCtx {
    trace_id: u64,
    depth: u16,
    start: Instant,
    spans: Vec<SpanRecord>,
    exemplar: Option<CostExemplar>,
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// The global tracer (created disabled; see [`Tracer::configure`]).
#[must_use]
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer::new(&TraceConfig::default()))
}

/// Fast global "is tracing on" check — one relaxed load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    tracer().is_enabled()
}

/// Render the whole slow log as text, worst request first — the payload
/// of a `TraceLogOk` wire reply and what `tripro trace --slow` prints.
#[must_use]
pub fn render_slow_log() -> String {
    let recs = tracer().slow_log();
    let mut out = String::new();
    for r in &recs {
        out.push_str(&r.render());
        out.push('\n');
    }
    out
}

/// Attach a per-query cost-attribution exemplar to the request context on
/// this thread; it is retained with the trace if the request enters the
/// slow log. Replaces any prior exemplar. Returns false (and drops the
/// exemplar) when tracing is off or no request context is open.
pub fn attach_exemplar(ex: CostExemplar) -> bool {
    if !enabled() {
        return false;
    }
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        match ctx.as_mut() {
            Some(c) => {
                c.exemplar = Some(ex);
                true
            }
            None => false,
        }
    })
}

/// Record an already-measured span into the request context on this
/// thread — the stitching primitive for remote work: the coordinator
/// replays each shard's wire stats summary as child spans of its own
/// trace. `started` anchors the span on the local waterfall (clamped to
/// the request start); `extra_depth` nests synthetic children below a
/// parent recorded the same way. Returns false when tracing is off or no
/// request context is open.
pub fn record_remote(
    kind: SpanKind,
    object: u32,
    lod: u32,
    started: Instant,
    dur_ns: u64,
    extra_depth: u16,
) -> bool {
    if !enabled() {
        return false;
    }
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        match ctx.as_mut() {
            Some(c) => {
                let start_ns = u64::try_from(started.saturating_duration_since(c.start).as_nanos())
                    .unwrap_or(0);
                let depth = c.depth.saturating_add(1).saturating_add(extra_depth);
                c.spans.push(SpanRecord {
                    kind,
                    depth,
                    object,
                    lod,
                    start_ns,
                    dur_ns,
                });
                true
            }
            None => false,
        }
    })
}

/// Guard for a request-root trace context (see [`Tracer::request`]).
pub struct RequestGuard {
    active: bool,
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let Some(ctx) = CTX.with(|ctx| ctx.borrow_mut().take()) else {
            return;
        };
        let total = ctx.start.elapsed();
        let total_ns = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
        let t = tracer();
        let mut spans = ctx.spans;
        spans.push(SpanRecord {
            kind: SpanKind::Request,
            depth: 0,
            object: NO_OBJECT,
            lod: NO_LOD,
            start_ns: 0,
            dur_ns: total_ns,
        });
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.depth.cmp(&b.depth)));
        // ORDERING: Relaxed — the threshold is advisory tuning; a stale
        // read misclassifies at most the traces racing a reconfigure.
        if total_ns >= t.slow_threshold_ns.load(Ordering::Relaxed) {
            lock(&t.slow).offer(TraceRecord {
                trace_id: ctx.trace_id,
                total_ns,
                spans,
                exemplar: ctx.exemplar,
            });
        }
    }
}

/// Guard timing one span. Created by [`span`]/[`span_at`]; records on drop.
pub struct SpanGuard {
    state: Option<SpanState>,
}

struct SpanState {
    kind: SpanKind,
    object: u32,
    lod: u32,
    start: Instant,
    depth: u16,
}

/// Time a stage with no object/LOD attribution. `#[inline]` no-op stub
/// when tracing is disabled (one relaxed load) or the thread has no
/// request context (no clock read).
#[inline]
#[must_use]
pub fn span(kind: SpanKind) -> SpanGuard {
    span_at(kind, NO_OBJECT, NO_LOD)
}

/// Time a stage attributed to `object` at `lod` (either may be the
/// [`NO_OBJECT`]/[`NO_LOD`] sentinel).
#[inline]
#[must_use]
pub fn span_at(kind: SpanKind, object: u32, lod: u32) -> SpanGuard {
    if !enabled() {
        return SpanGuard { state: None };
    }
    SpanGuard::open(kind, object, lod)
}

impl SpanGuard {
    /// Open a span one level below the thread's current depth; inert when
    /// the thread has no request context.
    fn open(kind: SpanKind, object: u32, lod: u32) -> SpanGuard {
        let depth = CTX.with(|ctx| {
            ctx.borrow_mut().as_mut().map(|c| {
                c.depth = c.depth.saturating_add(1);
                c.depth
            })
        });
        SpanGuard {
            state: depth.map(|depth| SpanState {
                kind,
                object,
                lod,
                start: Instant::now(),
                depth,
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.state.take() else {
            return;
        };
        let dur_ns = u64::try_from(s.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        CTX.with(|ctx| {
            // The request may have closed while this span was open; its
            // trace is already final, so the span has nowhere to go.
            if let Some(c) = ctx.borrow_mut().as_mut() {
                let start_ns =
                    u64::try_from(s.start.duration_since(c.start).as_nanos()).unwrap_or(0);
                c.spans.push(SpanRecord {
                    kind: s.kind,
                    depth: s.depth,
                    object: s.object,
                    lod: s.lod,
                    start_ns,
                    dur_ns,
                });
                c.depth = c.depth.saturating_sub(1);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global state shared with other tests in this
    // crate; serialise the tests that touch it.
    static GATE: Mutex<()> = Mutex::new(());

    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        let _g = lock(&GATE);
        tracer().configure(&TraceConfig {
            enabled: true,
            slow_threshold: Duration::ZERO,
            keep: 4,
        });
        tracer().clear_slow_log();
        let r = f();
        tracer().set_enabled(false);
        r
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = lock(&GATE);
        tracer().configure(&TraceConfig {
            enabled: false,
            slow_threshold: Duration::ZERO,
            keep: 4,
        });
        tracer().clear_slow_log();
        {
            let _req = tracer().request(0xD15A);
            let f = span(SpanKind::Filter);
            let d = span_at(SpanKind::Decode, 3, 1);
            assert!(f.state.is_none() && d.state.is_none());
        }
        assert!(tracer().slow_log().is_empty());
    }

    #[test]
    fn spans_without_context_are_inert() {
        with_tracing(|| {
            let g = span_at(SpanKind::Decode, 3, 1);
            assert!(g.state.is_none(), "no request context, no clock read");
            drop(g);
            assert!(tracer().slow_log().is_empty());
        });
    }

    #[test]
    fn request_collects_nested_span_tree() {
        with_tracing(|| {
            {
                let _req = tracer().request(0xABCD);
                let _f = span(SpanKind::Filter);
                drop(_f);
                {
                    let _r = span_at(SpanKind::RefineRound, NO_OBJECT, 2);
                    let _d = span_at(SpanKind::Decode, 7, 2);
                }
            }
            let slow = tracer().slow_log();
            assert!(!slow.is_empty(), "zero threshold retains every request");
            let t = &slow[0];
            assert_eq!(t.trace_id, 0xABCD);
            let kinds: Vec<_> = t.spans.iter().map(|s| s.kind).collect();
            assert!(kinds.contains(&SpanKind::Request));
            assert!(kinds.contains(&SpanKind::Filter));
            assert!(kinds.contains(&SpanKind::Decode));
            // Root is depth 0 and first after sorting by start.
            assert_eq!(t.spans[0].kind, SpanKind::Request);
            assert_eq!(t.spans[0].depth, 0);
            // The decode nested under the refine round is deeper.
            let refine = t.spans.iter().find(|s| s.kind == SpanKind::RefineRound);
            let decode = t.spans.iter().find(|s| s.kind == SpanKind::Decode);
            match (refine, decode) {
                (Some(r), Some(d)) => assert!(d.depth > r.depth),
                _ => panic!("missing refine/decode spans"),
            }
            let rendered = t.render();
            assert!(rendered.contains("filter"));
            assert!(rendered.contains("obj=7"));
        });
    }

    #[test]
    fn slow_log_keeps_worst_n() {
        with_tracing(|| {
            for i in 0..10u64 {
                let _req = tracer().request(i);
                std::hint::black_box(i);
            }
            let slow = tracer().slow_log();
            assert!(slow.len() <= 4, "keep=4 bounds the slow log");
            // Worst-first ordering.
            for w in slow.windows(2) {
                assert!(w[0].total_ns >= w[1].total_ns);
            }
        });
    }

    #[test]
    fn trace_drops_are_counted_by_reason() {
        with_tracing(|| {
            let evictions0 = slow_log_evictions().load(Ordering::Relaxed);
            // keep=4 (with_tracing config): 10 zero-threshold requests
            // force at least 6 evictions.
            for i in 0..10u64 {
                let _req = tracer().request(i + 1);
            }
            assert!(
                slow_log_evictions().load(Ordering::Relaxed) >= evictions0 + 6,
                "slow-log truncation must count evictions"
            );
        });
    }

    #[test]
    fn remote_spans_and_exemplar_stitch_into_the_trace() {
        with_tracing(|| {
            let t0 = Instant::now();
            {
                let _req = tracer().request(0x77);
                assert!(record_remote(SpanKind::Shard, 2, NO_LOD, t0, 5_000_000, 0));
                assert!(record_remote(
                    SpanKind::Decode,
                    NO_OBJECT,
                    3,
                    t0,
                    2_000_000,
                    1
                ));
                assert!(attach_exemplar(CostExemplar {
                    total: StatsSnapshot {
                        decoded_bytes: 4096,
                        pairs_pruned: vec![5, 3],
                        cache_hits: 3,
                        cache_misses: 1,
                        lod_rounds: 2,
                        ..StatsSnapshot::default()
                    },
                    shards: vec![(2, 5_000_000, 4096)],
                }));
            }
            let slow = tracer().slow_log();
            let t = slow
                .iter()
                .find(|t| t.trace_id == 0x77)
                .expect("request retained");
            let shard = t
                .spans
                .iter()
                .find(|s| s.kind == SpanKind::Shard)
                .expect("stitched shard span");
            assert_eq!(shard.object, 2);
            assert_eq!(shard.dur_ns, 5_000_000);
            let child = t
                .spans
                .iter()
                .find(|s| s.kind == SpanKind::Decode)
                .expect("stitched child span");
            assert_eq!(child.depth, shard.depth + 1);
            let ex = t.exemplar.as_ref().expect("exemplar retained");
            assert!((ex.total.bytes_per_resolved_pair() - 512.0).abs() < 1e-9);
            assert!((ex.total.hit_rate() - 0.75).abs() < 1e-9);
            let rendered = t.render();
            assert!(rendered.contains("shard=2"), "{rendered}");
            // The exemplar's lines close the trace, indented under it.
            assert!(
                rendered.ends_with(
                    "\n  cost: 4096 decoded bytes / 8 resolved pairs = 512.0 B/pair, \
                     cache 3/4 (75.0% hit), 2 lod rounds\n  \
                     fanout: shard 2 5.000ms 4096B;\n"
                ),
                "{rendered}"
            );
        });
        // Outside a request context both primitives refuse quietly.
        let _g = lock(&GATE);
        tracer().set_enabled(true);
        assert!(!record_remote(
            SpanKind::Shard,
            0,
            NO_LOD,
            Instant::now(),
            1,
            0
        ));
        assert!(!attach_exemplar(CostExemplar::default()));
        tracer().set_enabled(false);
    }
}
