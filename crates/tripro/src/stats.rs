//! Execution statistics: the time breakdown (filter / decode / geometry)
//! behind Fig 10, the per-LOD evaluated/pruned pair counts behind Fig 12,
//! and the cache counters behind Table 2.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Maximum LOD index tracked by the per-LOD counters.
pub const MAX_TRACKED_LOD: usize = 15;

/// Thread-safe accumulator for one query execution.
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Nanoseconds spent querying the global index.
    pub filter_ns: AtomicU64,
    /// Nanoseconds spent decompressing objects.
    pub decode_ns: AtomicU64,
    /// Nanoseconds spent in geometric computation.
    pub compute_ns: AtomicU64,
    /// Triangle-pair predicate evaluations.
    pub face_pair_tests: AtomicU64,
    /// Object pairs evaluated at each LOD (Fig 12).
    pub pairs_evaluated: [AtomicU64; MAX_TRACKED_LOD + 1],
    /// Object pairs resolved (pruned from further refinement) at each LOD.
    pub pairs_pruned: [AtomicU64; MAX_TRACKED_LOD + 1],
    /// Decode-cache hits and misses.
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    /// Number of object decodes performed (cache misses materialised).
    pub decodes: AtomicU64,
    /// Bytes of geometry materialised by decodes (triangle payloads).
    /// Decoded-bytes-per-resolved-pair is the margin planner's input
    /// signal (ROADMAP), so it is tracked at the source rather than
    /// estimated from decode counts.
    pub decoded_bytes: AtomicU64,
    /// Progressive refinement rounds executed (one per LOD the driver
    /// actually visited, across all paradigms).
    pub lod_rounds: AtomicU64,
    /// Pair records whose LOD exceeded [`MAX_TRACKED_LOD`] and were merged
    /// into the top bucket. Silent clamping would make the Fig 12 per-LOD
    /// breakdown lie for deep ladders; this counter is the signal.
    pub lod_overflow: AtomicU64,
}

impl ExecStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn add_filter(&self, d: Duration) {
        self.filter_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_decode(&self, d: Duration) {
        self.decode_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_compute(&self, d: Duration) {
        self.compute_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_face_pairs(&self, n: u64) {
        self.face_pair_tests.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_pair_evaluated(&self, lod: usize) {
        if lod > MAX_TRACKED_LOD {
            self.lod_overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.pairs_evaluated[lod.min(MAX_TRACKED_LOD)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_pair_pruned(&self, lod: usize) {
        if lod > MAX_TRACKED_LOD {
            self.lod_overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.pairs_pruned[lod.min(MAX_TRACKED_LOD)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add_decoded_bytes(&self, n: u64) {
        self.decoded_bytes.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_lod_round(&self) {
        self.lod_rounds.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold a snapshot into this accumulator. Used by the serve layer to
    /// account a per-request `ExecStats` (needed for exact per-query cost
    /// attribution) back into the long-lived aggregate, so the totals
    /// are unchanged by whether a request was traced.
    pub fn merge_from(&self, s: &StatsSnapshot) {
        self.filter_ns.fetch_add(s.filter_ns, Ordering::Relaxed);
        self.decode_ns.fetch_add(s.decode_ns, Ordering::Relaxed);
        self.compute_ns.fetch_add(s.compute_ns, Ordering::Relaxed);
        self.face_pair_tests
            .fetch_add(s.face_pair_tests, Ordering::Relaxed);
        for (a, v) in self.pairs_evaluated.iter().zip(&s.pairs_evaluated) {
            a.fetch_add(*v, Ordering::Relaxed);
        }
        for (a, v) in self.pairs_pruned.iter().zip(&s.pairs_pruned) {
            a.fetch_add(*v, Ordering::Relaxed);
        }
        self.cache_hits.fetch_add(s.cache_hits, Ordering::Relaxed);
        self.cache_misses
            .fetch_add(s.cache_misses, Ordering::Relaxed);
        self.decodes.fetch_add(s.decodes, Ordering::Relaxed);
        self.decoded_bytes
            .fetch_add(s.decoded_bytes, Ordering::Relaxed);
        self.lod_rounds.fetch_add(s.lod_rounds, Ordering::Relaxed);
        self.lod_overflow
            .fetch_add(s.lod_overflow, Ordering::Relaxed);
    }

    /// Snapshot into a plain, serialisable struct.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            filter_ns: self.filter_ns.load(Ordering::Relaxed),
            decode_ns: self.decode_ns.load(Ordering::Relaxed),
            compute_ns: self.compute_ns.load(Ordering::Relaxed),
            face_pair_tests: self.face_pair_tests.load(Ordering::Relaxed),
            pairs_evaluated: self
                .pairs_evaluated
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            pairs_pruned: self
                .pairs_pruned
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            decodes: self.decodes.load(Ordering::Relaxed),
            decoded_bytes: self.decoded_bytes.load(Ordering::Relaxed),
            lod_rounds: self.lod_rounds.load(Ordering::Relaxed),
            lod_overflow: self.lod_overflow.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`ExecStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    pub filter_ns: u64,
    pub decode_ns: u64,
    pub compute_ns: u64,
    pub face_pair_tests: u64,
    pub pairs_evaluated: Vec<u64>,
    pub pairs_pruned: Vec<u64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub decodes: u64,
    /// Bytes of geometry materialised by decodes.
    pub decoded_bytes: u64,
    /// Progressive refinement rounds executed.
    pub lod_rounds: u64,
    /// Pair records clamped into the top LOD bucket (see
    /// [`ExecStats::lod_overflow`]); nonzero means `pairs_evaluated[15]` /
    /// `pairs_pruned[15]` aggregate more than one real LOD.
    pub lod_overflow: u64,
}

impl StatsSnapshot {
    /// Filter time in seconds.
    pub fn filter_s(&self) -> f64 {
        self.filter_ns as f64 / 1e9
    }

    /// Decode time in seconds.
    pub fn decode_s(&self) -> f64 {
        self.decode_ns as f64 / 1e9
    }

    /// Geometry time in seconds.
    pub fn compute_s(&self) -> f64 {
        self.compute_ns as f64 / 1e9
    }

    /// Decode-cache hit rate in `[0, 1]`; 0.0 when nothing was requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Object pairs resolved (pruned from further refinement) across all
    /// LODs — the denominator of the decoded-bytes-per-resolved-pair
    /// attribution ratio.
    pub fn resolved_pairs(&self) -> u64 {
        self.pairs_pruned.iter().sum()
    }

    /// Decoded bytes per resolved pair; 0.0 when nothing was resolved.
    pub fn bytes_per_resolved_pair(&self) -> f64 {
        let pairs = self.resolved_pairs();
        if pairs == 0 {
            0.0
        } else {
            self.decoded_bytes as f64 / pairs as f64
        }
    }

    /// Fraction of object pairs pruned at each LOD that saw evaluations —
    /// the quantity §4.4 compares against `1/r²` to pick refinement LODs.
    ///
    /// Clamped to `[0, 1]`: some resolution paths (NN/kNN threshold prunes,
    /// the containment fallback at top LOD) record a prune without a
    /// matching evaluation at that LOD, so the raw ratio can exceed 1.
    /// The profiler's break-even thresholds are always `< 1`, so clamping
    /// never changes an LOD choice — it only keeps the reported fraction a
    /// fraction.
    pub fn pruned_fractions(&self) -> Vec<(usize, f64)> {
        self.pairs_evaluated
            .iter()
            .zip(&self.pairs_pruned)
            .enumerate()
            .filter(|(_, (&e, _))| e > 0)
            .map(|(lod, (&e, &p))| (lod, (p as f64 / e as f64).min(1.0)))
            .collect()
    }
}

/// Request-lifecycle counters for a long-lived query service: how many
/// requests were admitted, shed at admission control, expired against their
/// deadline, completed, or rejected as protocol errors. Lives here (rather
/// than in the server crate) so the engine, CLI and any future front end
/// report overload behaviour through one vocabulary.
#[derive(Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted past admission control.
    pub admitted: AtomicU64,
    /// Requests refused with an `Overloaded` response.
    pub shed: AtomicU64,
    /// Admitted requests whose deadline expired before refinement finished.
    pub deadline_expired: AtomicU64,
    /// Admitted requests answered successfully.
    pub completed: AtomicU64,
    /// Admitted requests that failed in execution (answered with an
    /// internal error). Without this bucket, `admitted` could not be
    /// reconciled against terminal outcomes — see
    /// [`ServiceSnapshot::accounted`].
    pub failed: AtomicU64,
    /// Frames rejected as malformed/oversized/unsupported.
    pub protocol_errors: AtomicU64,
    /// Panics caught by the serve containment boundary while executing a
    /// request. A subset of `failed` (every contained panic is also
    /// recorded as failed, so the accounting identity is unchanged);
    /// tracked separately because a panic is a bug signal, not a
    /// data-dependent failure.
    pub panics: AtomicU64,
}

impl ServiceStats {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn record_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot into a plain, serialisable struct.
    pub fn snapshot(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data snapshot of [`ServiceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceSnapshot {
    pub admitted: u64,
    pub shed: u64,
    pub deadline_expired: u64,
    pub completed: u64,
    pub failed: u64,
    pub protocol_errors: u64,
    /// Contained request panics (a subset of `failed`).
    pub panics: u64,
}

impl ServiceSnapshot {
    /// Admitted requests that reached a terminal outcome. At any quiescent
    /// point (no request queued or executing) this must equal `admitted`;
    /// mid-flight, `admitted - accounted()` is the in-flight count. The
    /// serve layer asserts this identity at snapshot time under
    /// `strict-invariants`.
    #[must_use]
    pub fn accounted(&self) -> u64 {
        self.completed + self.deadline_expired + self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_snapshot() {
        let s = ExecStats::new();
        s.add_filter(Duration::from_millis(2));
        s.add_decode(Duration::from_millis(3));
        s.add_compute(Duration::from_millis(5));
        s.add_face_pairs(100);
        s.record_pair_evaluated(0);
        s.record_pair_evaluated(0);
        s.record_pair_pruned(0);
        s.record_pair_evaluated(5);
        let snap = s.snapshot();
        assert_eq!(snap.filter_ns, 2_000_000);
        assert_eq!(snap.face_pair_tests, 100);
        assert_eq!(snap.pairs_evaluated[0], 2);
        assert_eq!(snap.pairs_pruned[0], 1);
        assert_eq!(snap.pairs_evaluated[5], 1);
        assert!((snap.compute_s() - 0.005).abs() < 1e-9);
    }

    #[test]
    fn pruned_fractions_skip_empty_lods() {
        let s = ExecStats::new();
        s.record_pair_evaluated(1);
        s.record_pair_evaluated(1);
        s.record_pair_pruned(1);
        s.record_pair_evaluated(3);
        let f = s.snapshot().pruned_fractions();
        assert_eq!(f, vec![(1, 0.5), (3, 0.0)]);
    }

    #[test]
    fn service_stats_roundtrip() {
        let s = ServiceStats::new();
        s.record_admitted();
        s.record_admitted();
        s.record_admitted();
        s.record_shed();
        s.record_deadline_expired();
        s.record_completed();
        s.record_failed();
        s.record_protocol_error();
        let snap = s.snapshot();
        assert_eq!(snap.admitted, 3);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.deadline_expired, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.protocol_errors, 1);
        // Every admitted request reached a terminal outcome.
        assert_eq!(snap.accounted(), snap.admitted);
    }

    #[test]
    fn lod_overflow_clamps_and_counts() {
        let s = ExecStats::new();
        s.record_pair_evaluated(999);
        s.record_pair_pruned(16);
        s.record_pair_evaluated(MAX_TRACKED_LOD); // boundary: not an overflow
        let snap = s.snapshot();
        assert_eq!(snap.pairs_evaluated[MAX_TRACKED_LOD], 2);
        assert_eq!(snap.pairs_pruned[MAX_TRACKED_LOD], 1);
        assert_eq!(snap.lod_overflow, 2, "overflowing records are signalled");
    }

    #[test]
    fn merge_from_folds_every_counter() {
        let a = ExecStats::new();
        a.add_filter(Duration::from_millis(1));
        a.record_pair_evaluated(2);
        a.record_pair_pruned(2);
        a.add_decoded_bytes(100);
        a.record_lod_round();
        let b = ExecStats::new();
        b.add_filter(Duration::from_millis(2));
        b.add_decoded_bytes(50);
        b.record_lod_round();
        b.record_lod_round();
        b.merge_from(&a.snapshot());
        let snap = b.snapshot();
        assert_eq!(snap.filter_ns, 3_000_000);
        assert_eq!(snap.pairs_evaluated[2], 1);
        assert_eq!(snap.pairs_pruned[2], 1);
        assert_eq!(snap.decoded_bytes, 150);
        assert_eq!(snap.lod_rounds, 3);
        assert_eq!(snap.resolved_pairs(), 1);
        assert!((snap.bytes_per_resolved_pair() - 150.0).abs() < 1e-9);
        assert_eq!(StatsSnapshot::default().bytes_per_resolved_pair(), 0.0);
    }

    #[test]
    fn pruned_fractions_are_clamped_to_unit_interval() {
        let s = ExecStats::new();
        // NN-style pattern: more prunes than evaluations at one LOD.
        s.record_pair_evaluated(2);
        s.record_pair_pruned(2);
        s.record_pair_pruned(2);
        s.record_pair_pruned(2);
        let f = s.snapshot().pruned_fractions();
        assert_eq!(f, vec![(2, 1.0)]);
    }
}
