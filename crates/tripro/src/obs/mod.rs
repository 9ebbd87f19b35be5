//! End-to-end observability: structured span tracing, log-linear latency
//! histograms, a global metrics registry and Prometheus text exposition.
//!
//! Dependency-free by construction (std atomics + the crate's own sync
//! helpers). See `docs/observability.md` for the span taxonomy, the
//! metric inventory with units, and the overhead budget.
//!
//! Two cost tiers, by design:
//!
//! * **Registry metrics are always on.** Counters and histograms are bare
//!   relaxed atomics, resolved once into `OnceLock`-cached handles — the
//!   same cost class as the existing [`ExecStats`](crate::ExecStats)
//!   counters that already sit on the hot path.
//! * **Span tracing is off by default.** Every span entry point starts
//!   with one `#[inline]` relaxed load ([`trace::enabled`]) and returns an
//!   inert guard when a [`TraceConfig`] has not enabled tracing, so the
//!   disabled cost is a branch, not a clock read. The overhead-guard
//!   bench (`bench_obs`) holds the enabled-vs-disabled gap under 2% on
//!   whole joins.

pub mod export;
pub mod histogram;
pub mod registry;
pub mod trace;

pub use export::{
    federate, render_snapshots, snapshot_registry, validate_exposition, MetricSnapshot,
    MetricValue, NodeSnapshot, CLUSTER_NODE,
};
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Metric, MetricFamily, MetricsRegistry};
pub use trace::{
    attach_exemplar, enabled, record_remote, render_slow_log, span, span_at, tracer, CostExemplar,
    SpanKind, SpanRecord, TraceConfig, TraceRecord, Tracer,
};

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, OnceLock};

/// Render the global registry as Prometheus text exposition.
#[must_use]
pub fn render_global() -> String {
    render_snapshots(&snapshot_registry(registry::global()))
}

/// The process-wide [`MetricsRegistry`].
#[must_use]
pub fn registry() -> &'static MetricsRegistry {
    registry::global()
}

/// Number of per-shard series pre-bound for the backend-shard metrics;
/// higher shard indices aggregate into the last series.
const BACKEND_SHARDS: usize = 16;
/// Decode-latency histograms are pre-bound for LODs `0..OBS_LODS-1`; the
/// last slot aggregates every higher LOD as `lod="15+"`.
const OBS_LODS: usize = 16;

static BACKEND_SHARD_LABELS: [&str; BACKEND_SHARDS] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];
static LOD_LABELS: [&str; OBS_LODS] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15+",
];

macro_rules! counter_fns {
    ($($fn_name:ident => $metric:literal, $help:literal;)*) => {$(
        /// Pre-bound unlabelled counter (see metric name in the body).
        #[inline]
        #[must_use]
        pub fn $fn_name() -> &'static AtomicU64 {
            static HANDLE: OnceLock<Arc<AtomicU64>> = OnceLock::new();
            HANDLE.get_or_init(|| registry().counter($metric, $help, &[]))
        }
    )*};
}

counter_fns! {
    cache_hit_counter => "tripro_cache_hits_total", "Decode cache hits.";
    cache_miss_counter => "tripro_cache_misses_total", "Decode cache misses.";
    cache_evict_counter => "tripro_cache_evictions_total", "Decode cache evictions.";
}

/// Pre-bound decode-latency histogram for `lod` (seconds in exposition;
/// LODs ≥ 15 aggregate into the `15+` series).
#[inline]
#[must_use]
pub fn decode_histogram(lod: usize) -> &'static Histogram {
    static HANDLES: OnceLock<[Arc<Histogram>; OBS_LODS]> = OnceLock::new();
    let handles = HANDLES.get_or_init(|| {
        std::array::from_fn(|i| {
            registry().histogram(
                "tripro_decode_latency_seconds",
                "Progressive decode latency by LOD.",
                &[("lod", LOD_LABELS[i.min(OBS_LODS - 1)])],
            )
        })
    });
    &handles[lod.min(OBS_LODS - 1)]
}

/// Pool queue wait: time from job post to a worker claiming it.
#[inline]
#[must_use]
pub fn pool_wait_histogram() -> &'static Histogram {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram(
            "tripro_pool_queue_wait_seconds",
            "Worker-pool queue wait: job post to claim.",
            &[],
        )
    })
}

/// Pool occupancy: number of workers active on a job at each claim
/// (a histogram of small integers — the exposition's `_sum/_count` give
/// mean occupancy; quantiles give the distribution).
#[inline]
#[must_use]
pub fn pool_occupancy_histogram() -> &'static Histogram {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram(
            "tripro_pool_occupancy_workers",
            "Workers active on a pool job at claim time.",
            &[],
        )
    })
}

/// The five query operations the engine answers, as stable metric labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOp {
    /// Intersection query/join.
    Intersect,
    /// Within-distance query/join.
    Within,
    /// Nearest-neighbour query/join.
    Nn,
    /// k-nearest-neighbour query/join.
    Knn,
    /// Point-containment query.
    Contains,
}

impl QueryOp {
    /// Stable lowercase label used in `kind=` metric labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            QueryOp::Intersect => "intersect",
            QueryOp::Within => "within",
            QueryOp::Nn => "nn",
            QueryOp::Knn => "knn",
            QueryOp::Contains => "contains",
        }
    }

    fn idx(self) -> usize {
        match self {
            QueryOp::Intersect => 0,
            QueryOp::Within => 1,
            QueryOp::Nn => 2,
            QueryOp::Knn => 3,
            QueryOp::Contains => 4,
        }
    }
}

/// Pre-bound per-query latency histogram by kind and paradigm (`fpr`
/// selects `paradigm="FPR"` over `"FR"`). The whole grid resolves once;
/// per-query cost is two array indexings.
#[inline]
#[must_use]
pub fn query_latency_histogram(op: QueryOp, fpr: bool) -> &'static Histogram {
    static GRID: OnceLock<[[Arc<Histogram>; 2]; 5]> = OnceLock::new();
    let grid = GRID.get_or_init(|| {
        let ops = [
            QueryOp::Intersect,
            QueryOp::Within,
            QueryOp::Nn,
            QueryOp::Knn,
            QueryOp::Contains,
        ];
        std::array::from_fn(|k| {
            std::array::from_fn(|p| {
                registry().histogram(
                    "tripro_query_latency_seconds",
                    "End-to-end query latency by kind and paradigm.",
                    &[
                        ("kind", ops[k.min(4)].label()),
                        ("paradigm", if p == 1 { "FPR" } else { "FR" }),
                    ],
                )
            })
        })
    });
    &grid[op.idx()][usize::from(fpr)]
}

/// Drop guard recording its lifetime into a histogram — survives early
/// returns and `?` error paths, so deadline-expired queries are measured
/// too (their tail is exactly what the slow log is for).
pub struct LatencyTimer {
    h: &'static Histogram,
    start: std::time::Instant,
}

impl Drop for LatencyTimer {
    fn drop(&mut self) {
        self.h.record_duration(self.start.elapsed());
    }
}

/// Start timing into `h`; recording happens when the guard drops.
#[inline]
#[must_use]
pub fn time(h: &'static Histogram) -> LatencyTimer {
    LatencyTimer {
        h,
        start: std::time::Instant::now(),
    }
}

/// Admission/completion outcome counter for the serve layer
/// (`outcome` ∈ admitted|shed|completed|deadline_expired|failed|protocol_error).
#[must_use]
pub fn request_outcome_counter(outcome: &str) -> Arc<AtomicU64> {
    registry().counter(
        "tripro_requests_total",
        "Service requests by admission/completion outcome.",
        &[("outcome", outcome)],
    )
}

/// Panics caught by a containment boundary (pool worker, serve
/// request/connection handler). Contained panics convert to
/// [`Error::Internal`](crate::Error::Internal) instead of unwinding the
/// process; this counter is the audit trail that containment fired.
#[must_use]
pub fn panic_counter(context: &str) -> Arc<AtomicU64> {
    registry().counter(
        "tripro_panics_total",
        "Panics caught and contained, by containment boundary.",
        &[("context", context)],
    )
}

/// Failpoint actions fired, by site (see [`crate::fault`]). Incremented
/// only when an armed failpoint actually triggers, so a zero series means
/// the schedule never fired — chaos tests assert on exactly that.
#[must_use]
pub fn fault_injection_counter(site: &str) -> Arc<AtomicU64> {
    registry().counter(
        "tripro_fault_injections_total",
        "Fault-injection failpoint actions fired, by site.",
        &[("site", site)],
    )
}

/// Retries-per-request distribution observed by the resilient serve
/// client (0 = first attempt succeeded). `_sum/_count` is the mean retry
/// rate; the p99 shows whether the retry budget is actually being spent.
#[inline]
#[must_use]
pub fn request_retries_histogram() -> &'static Histogram {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram(
            "tripro_request_retries",
            "Retries per request observed by the retrying serve client.",
            &[],
        )
    })
}

/// Total backoff slept per request by the retrying serve client.
#[inline]
#[must_use]
pub fn retry_backoff_histogram() -> &'static Histogram {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram(
            "tripro_retry_backoff_seconds",
            "Backoff slept per request by the retrying serve client.",
            &[],
        )
    })
}

/// Sub-queries fanned out per coordinator request (1 for routed
/// single-shard queries, shard count for scatter-gather joins).
#[inline]
#[must_use]
pub fn shard_fanout_histogram() -> &'static Histogram {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram(
            "tripro_shard_fanout",
            "Backend sub-queries fanned out per coordinator request.",
            &[],
        )
    })
}

/// Coordinator merge phase: time to combine per-shard partial results
/// after the last sub-query lands.
#[inline]
#[must_use]
pub fn merge_latency_histogram() -> &'static Histogram {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram(
            "tripro_merge_seconds",
            "Partial-result merge latency at the coordinator.",
            &[],
        )
    })
}

/// Per-backend-shard sub-query round-trip latency (shard indices ≥ 15
/// aggregate into the last series).
#[inline]
#[must_use]
pub fn shard_subquery_histogram(shard: usize) -> &'static Histogram {
    static HANDLES: OnceLock<[Arc<Histogram>; BACKEND_SHARDS]> = OnceLock::new();
    let handles = HANDLES.get_or_init(|| {
        std::array::from_fn(|i| {
            registry().histogram(
                "tripro_shard_subquery_seconds",
                "Sub-query round-trip latency per backend shard.",
                &[("shard", BACKEND_SHARD_LABELS[i])],
            )
        })
    });
    &handles[shard.min(BACKEND_SHARDS - 1)]
}

/// `tripro_trace_dropped_total{reason}` — traces discarded by the tracing
/// sink (`slow_log_evict` when slow-log retention truncates). Callers
/// pre-bind the returned handle; see `trace.rs`.
#[must_use]
pub fn trace_dropped_counter(reason: &'static str) -> Arc<AtomicU64> {
    registry().counter(
        "tripro_trace_dropped_total",
        "Trace records dropped by the slow-log sink.",
        &[("reason", reason)],
    )
}

/// Failed sub-queries per backend shard (transport errors, typed errors,
/// and deadline expiries all count — the series going nonzero is the
/// signal a shard is degrading).
#[inline]
#[must_use]
pub fn shard_error_counter(shard: usize) -> &'static AtomicU64 {
    static HANDLES: OnceLock<[Arc<AtomicU64>; BACKEND_SHARDS]> = OnceLock::new();
    let handles = HANDLES.get_or_init(|| {
        std::array::from_fn(|i| {
            registry().counter(
                "tripro_shard_errors_total",
                "Failed sub-queries per backend shard.",
                &[("shard", BACKEND_SHARD_LABELS[i])],
            )
        })
    });
    &handles[shard.min(BACKEND_SHARDS - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn prebound_handles_are_stable_and_clamped() {
        let a = cache_hit_counter();
        let b = cache_hit_counter();
        assert!(std::ptr::eq(a, b), "same counter resolves to same atomic");
        // Out-of-range shards clamp instead of panicking.
        let hi = shard_error_counter(999);
        hi.fetch_add(1, Ordering::Relaxed);
        assert!(shard_error_counter(15).load(Ordering::Relaxed) >= 1);
        decode_histogram(40).record(10);
        assert!(decode_histogram(15).count() >= 1);
    }

    #[test]
    fn global_exposition_contains_prebound_series() {
        let _ = cache_miss_counter();
        let _ = pool_wait_histogram();
        let text = render_global();
        assert!(text.contains("\ntripro_cache_misses_total "));
        assert!(text.contains("# TYPE tripro_pool_queue_wait_seconds histogram"));
        validate_exposition(&text).expect("global exposition validates");
    }
}
