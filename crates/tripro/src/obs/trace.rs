//! Span-based structured tracing with a lock-free ring-buffer sink and a
//! slow-query log.
//!
//! ## Model
//!
//! A *request* ([`Tracer::request`]) establishes a thread-local trace
//! context carrying a trace id (the wire `request_id` in the serve layer).
//! Within it, [`span`]/[`span_at`] guards time individual stages — filter,
//! per-object×LOD decode, per-LOD refine round, cache touch, pool task —
//! and stamp each [`SpanRecord`] with the propagated trace id and its
//! nesting depth. When the request guard drops, the accumulated span tree
//! is flushed to a global [`SpanRing`] and, if the request exceeded the
//! slow threshold, retained whole in the [`Tracer`]'s slow log (the N
//! worst requests, with full span trees).
//!
//! Spans recorded outside any request context (e.g. from pool helper
//! threads) go straight to the ring, carrying whatever trace id was
//! propagated to them explicitly (see `pool.rs`) or 0 for none.
//!
//! ## Cost discipline
//!
//! Tracing is **off by default**: every entry point first does one relaxed
//! atomic load ([`enabled`], `#[inline]`) and returns an inert guard, so a
//! disabled tracer adds a branch, not a syscall, to the hot path. The ring
//! claims slots wait-free with a `fetch_add` cursor; only the slot write
//! itself takes a tiny per-slot mutex to order wrap-around writers.

use crate::sync::{lock, Mutex};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
    /// span summary into a coordinator trace).
    Compute,
    /// Decode-cache miss handling (lookup + insert bookkeeping).
    CacheTouch,
    /// One worker-pool task execution (broadcast job claim).
    PoolTask,
    /// One remote shard sub-query, stitched into a coordinator trace from
    /// the shard's wire span summary (`object` carries the shard index).
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
            SpanKind::PoolTask => "pool_task",
            SpanKind::Shard => "shard",
            SpanKind::RetryAttempt => "retry_attempt",
        }
    }
}

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Propagated request/trace id (0 = none).
    pub trace_id: u64,
    /// Stage this span measured.
    pub kind: SpanKind,
    /// Nesting depth below the request root (root = 0).
    pub depth: u16,
    /// Object id, or [`NO_OBJECT`].
    pub object: u32,
    /// LOD, or [`NO_LOD`].
    pub lod: u32,
    /// Start offset from the enclosing request start (ns); for spans
    /// without a request context, offset from tracer creation.
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

/// Compact per-request execution summary a shard ships back on the wire
/// (protocol v6) so the coordinator can stitch shard-local detail into its
/// own trace without shipping whole span trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanSummary {
    /// The propagated trace id the work ran under.
    pub trace_id: u64,
    /// End-to-end request wall time on the shard (ns).
    pub total_ns: u64,
    /// Per-stage wall: global-index filter time (ns).
    pub filter_ns: u64,
    /// Per-stage wall: progressive decode time (ns).
    pub decode_ns: u64,
    /// Per-stage wall: geometric computation time (ns).
    pub compute_ns: u64,
    /// Bytes of geometry materialised by decodes.
    pub decoded_bytes: u64,
    /// Decode-cache hits.
    pub cache_hits: u64,
    /// Decode-cache misses.
    pub cache_misses: u64,
    /// Progressive refinement rounds executed.
    pub lod_rounds: u64,
    /// Object pairs resolved (pruned from further refinement).
    pub resolved_pairs: u64,
}

impl SpanSummary {
    /// Build a summary from a per-request stats snapshot.
    #[must_use]
    pub fn from_stats(trace_id: u64, total_ns: u64, s: &crate::stats::StatsSnapshot) -> Self {
        Self {
            trace_id,
            total_ns,
            filter_ns: s.filter_ns,
            decode_ns: s.decode_ns,
            compute_ns: s.compute_ns,
            decoded_bytes: s.decoded_bytes,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            lod_rounds: s.lod_rounds,
            resolved_pairs: s.resolved_pairs(),
        }
    }

    /// Decode-cache hit ratio in `[0, 1]`; 0.0 when nothing was requested.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Per-query cost attribution retained with a slow trace: the exemplar
/// that links the decode-cost metrics back to a concrete trace (the
/// margin planner's input signal — see ROADMAP).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostExemplar {
    /// Bytes of geometry decoded for this query (all shards).
    pub decoded_bytes: u64,
    /// Object pairs resolved by this query (all shards).
    pub resolved_pairs: u64,
    /// Decode-cache hits / misses (all shards).
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Refinement rounds executed (all shards).
    pub lod_rounds: u64,
    /// Per-shard fanout contribution: `(shard, sub_query_wall_ns,
    /// decoded_bytes)`, one entry per shard that worked on the query.
    pub shards: Vec<(u32, u64, u64)>,
}

impl CostExemplar {
    /// Decoded bytes per resolved pair; 0.0 when nothing was resolved.
    #[must_use]
    pub fn bytes_per_pair(&self) -> f64 {
        if self.resolved_pairs == 0 {
            0.0
        } else {
            self.decoded_bytes as f64 / self.resolved_pairs as f64
        }
    }

    /// Decode-cache hit ratio in `[0, 1]`.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Render the attribution lines appended to a slow-trace tree.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "cost: {} decoded bytes / {} resolved pairs = {:.1} B/pair, \
             cache {}/{} ({:.1}% hit), {} lod rounds",
            self.decoded_bytes,
            self.resolved_pairs,
            self.bytes_per_pair(),
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.hit_ratio() * 100.0,
            self.lod_rounds,
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

/// Capacity of the process-wide span ring (a power of two).
const RING_CAPACITY: usize = 4096;

/// Tracing configuration. `Default` is disabled with a 50ms slow threshold
/// and the 8 worst requests retained; the span ring holds 4096 spans.
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

/// Lock-free-claim span ring: a `fetch_add` cursor hands out slots
/// wait-free; each slot is a small mutex so lapped writers stay ordered.
pub struct SpanRing {
    // LOCK-RANK(90): per-slot span mutexes; leaf locks of the obs plane,
    // held only for a single record swap.
    slots: Box<[Mutex<Option<SpanRecord>>]>,
    cursor: AtomicUsize,
}

impl SpanRing {
    fn new() -> Self {
        Self {
            slots: (0..RING_CAPACITY).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    fn push(&self, record: SpanRecord) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) & (self.slots.len() - 1);
        if let Some(slot) = self.slots.get(i) {
            if lock(slot).replace(record).is_some() {
                // A lapped writer just discarded an unread span: make the
                // loss visible so an undersized ring is diagnosable.
                ring_overwrite_drops().fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Snapshot the ring contents, oldest first (best effort under
    /// concurrent writers).
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let cursor = self.cursor.load(Ordering::Relaxed);
        let cap = self.slots.len();
        let mut out = Vec::new();
        for off in 0..cap {
            let i = (cursor + off) & (cap - 1);
            if let Some(slot) = self.slots.get(i) {
                if let Some(r) = lock(slot).clone() {
                    out.push(r);
                }
            }
        }
        out
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

/// Pre-bound handles for the `tripro_trace_dropped_total{reason}` family:
/// resolved once, then plain relaxed adds on the (already slow-path) drop
/// sites.
fn ring_overwrite_drops() -> &'static Arc<AtomicU64> {
    static C: OnceLock<Arc<AtomicU64>> = OnceLock::new();
    C.get_or_init(|| super::trace_dropped_counter("ring_overwrite"))
}

fn slow_log_evictions() -> &'static Arc<AtomicU64> {
    static C: OnceLock<Arc<AtomicU64>> = OnceLock::new();
    C.get_or_init(|| super::trace_dropped_counter("slow_log_evict"))
}

/// The global tracer: enable/disable switch, span ring and slow log.
pub struct Tracer {
    enabled: AtomicBool,
    slow_threshold_ns: AtomicU64,
    epoch: Instant,
    ring: SpanRing,
    // LOCK-RANK(91): slow-trace retention list; taken after ring slot
    // mutexes (90) on the span-finish path, never before them.
    slow: Mutex<SlowLog>,
}

impl Tracer {
    fn new(cfg: &TraceConfig) -> Self {
        Self {
            enabled: AtomicBool::new(cfg.enabled),
            slow_threshold_ns: AtomicU64::new(
                u64::try_from(cfg.slow_threshold.as_nanos()).unwrap_or(u64::MAX),
            ),
            epoch: Instant::now(),
            ring: SpanRing::new(),
            slow: Mutex::new(SlowLog {
                keep: cfg.keep.max(1),
                worst: Vec::new(),
            }),
        }
    }

    /// Apply `cfg`'s switch, threshold and retention. The ring is fixed at
    /// `RING_CAPACITY` spans, so it stays allocation-free after startup.
    // ORDERING: Relaxed — the switch and threshold are advisory runtime
    // tuning; readers tolerate observing them out of order, and the span
    // payloads themselves are published by the slot mutexes, not by these
    // flags.
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

    /// Snapshot the ring (all recently completed spans).
    #[must_use]
    pub fn ring_snapshot(&self) -> Vec<SpanRecord> {
        self.ring.snapshot()
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

/// The trace id of the request context on this thread, or 0. Used to
/// propagate ids across the pool boundary.
#[must_use]
pub fn current_trace_id() -> u64 {
    if !enabled() {
        return 0;
    }
    CTX.with(|ctx| ctx.borrow().as_ref().map_or(0, |c| c.trace_id))
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
/// replays each shard's wire span summary as child spans of its own
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
                let trace_id = c.trace_id;
                c.spans.push(SpanRecord {
                    trace_id,
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

/// Like [`span_for`] but with object/LOD attribution — used by the
/// retrying client to tag each attempt (`object` = attempt index) under
/// an explicitly propagated trace id.
#[inline]
#[must_use]
pub fn span_for_at(trace_id: u64, kind: SpanKind, object: u32, lod: u32) -> SpanGuard {
    if !enabled() {
        return SpanGuard { state: None };
    }
    SpanGuard::open(kind, object, lod, trace_id)
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
            trace_id: ctx.trace_id,
            kind: SpanKind::Request,
            depth: 0,
            object: NO_OBJECT,
            lod: NO_LOD,
            start_ns: 0,
            dur_ns: total_ns,
        });
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.depth.cmp(&b.depth)));
        for s in &spans {
            t.ring.push(s.clone());
        }
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
    /// Explicitly propagated trace id (for spans on threads without a
    /// request context, e.g. pool helpers); 0 = use the thread context.
    trace_id: u64,
    start: Instant,
    depth: u16,
}

/// Time a stage with no object/LOD attribution. `#[inline]` no-op stub
/// when tracing is disabled: one relaxed load, no clock read.
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
    SpanGuard::open(kind, object, lod, 0)
}

/// Time a span on behalf of an explicitly propagated trace id — used by
/// pool helper threads, which run outside the requesting thread's context.
#[inline]
#[must_use]
pub fn span_for(trace_id: u64, kind: SpanKind) -> SpanGuard {
    if !enabled() {
        return SpanGuard { state: None };
    }
    SpanGuard::open(kind, NO_OBJECT, NO_LOD, trace_id)
}

impl SpanGuard {
    fn open(kind: SpanKind, object: u32, lod: u32, trace_id: u64) -> SpanGuard {
        let depth = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            match ctx.as_mut() {
                Some(c) => {
                    c.depth = c.depth.saturating_add(1);
                    c.depth
                }
                None => 1,
            }
        });
        SpanGuard {
            state: Some(SpanState {
                kind,
                object,
                lod,
                trace_id,
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
        let recorded_in_ctx = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            match ctx.as_mut() {
                Some(c) => {
                    let start_ns =
                        u64::try_from(s.start.duration_since(c.start).as_nanos()).unwrap_or(0);
                    c.spans.push(SpanRecord {
                        trace_id: c.trace_id,
                        kind: s.kind,
                        depth: s.depth,
                        object: s.object,
                        lod: s.lod,
                        start_ns,
                        dur_ns,
                    });
                    c.depth = c.depth.saturating_sub(1);
                    true
                }
                None => false,
            }
        });
        if !recorded_in_ctx {
            let t = tracer();
            let start_ns =
                u64::try_from(s.start.duration_since(t.epoch).as_nanos()).unwrap_or(u64::MAX);
            t.ring.push(SpanRecord {
                trace_id: s.trace_id,
                kind: s.kind,
                depth: s.depth,
                object: s.object,
                lod: s.lod,
                start_ns,
                dur_ns,
            });
        }
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
        tracer().set_enabled(false);
        let before = tracer().ring_snapshot().len();
        {
            let _g = span(SpanKind::Filter);
            let _h = span_at(SpanKind::Decode, 3, 1);
        }
        assert_eq!(tracer().ring_snapshot().len(), before);
        assert_eq!(current_trace_id(), 0);
    }

    #[test]
    fn request_collects_nested_span_tree() {
        with_tracing(|| {
            {
                let _req = tracer().request(0xABCD);
                assert_eq!(current_trace_id(), 0xABCD);
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
    fn spans_without_context_go_to_ring_with_propagated_id() {
        with_tracing(|| {
            {
                let _g = span_for(0x51, SpanKind::PoolTask);
            }
            let ring = tracer().ring_snapshot();
            assert!(ring
                .iter()
                .any(|s| s.kind == SpanKind::PoolTask && s.trace_id == 0x51));
        });
    }

    #[test]
    fn trace_drops_are_counted_by_reason() {
        with_tracing(|| {
            let overwrites0 = ring_overwrite_drops().load(Ordering::Relaxed);
            let evictions0 = slow_log_evictions().load(Ordering::Relaxed);
            // Lap the (4096-slot) ring twice: every slot past the first
            // pass replaces a live record.
            for _ in 0..(2 * 4096) {
                let _g = span(SpanKind::CacheTouch);
            }
            assert!(
                ring_overwrite_drops().load(Ordering::Relaxed) >= overwrites0 + 4096,
                "lapping the ring must count overwrites"
            );
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
                    decoded_bytes: 4096,
                    resolved_pairs: 8,
                    cache_hits: 3,
                    cache_misses: 1,
                    lod_rounds: 2,
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
            assert!((ex.bytes_per_pair() - 512.0).abs() < 1e-9);
            assert!((ex.hit_ratio() - 0.75).abs() < 1e-9);
            let rendered = t.render();
            assert!(rendered.contains("shard=2"), "{rendered}");
            assert!(rendered.contains("512.0 B/pair"), "{rendered}");
            assert!(rendered.contains("fanout: shard 2"), "{rendered}");
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

    #[test]
    fn ring_wraps_without_loss_of_recent_spans() {
        with_tracing(|| {
            for _ in 0..(4096 + 64) {
                let _g = span(SpanKind::CacheTouch);
            }
            let ring = tracer().ring_snapshot();
            assert!(!ring.is_empty());
            assert!(ring.len() <= 4096);
        });
    }
}
