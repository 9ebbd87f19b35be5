//! The query processor: intersection, within and nearest-neighbour spatial
//! joins under both paradigms (paper §4):
//!
//! * **Filter-Refine (FR)** — R-tree filter, then refinement on fully
//!   decoded geometry (the classical baseline).
//! * **Filter-Progressive-Refine (FPR)** — the paper's contribution:
//!   candidates are decoded and refined at increasing LODs; the PPVP subset
//!   guarantee lets results return early (Alg. 1–3), skipping most
//!   high-LOD decoding and geometry.

use crate::cache::LodData;
use crate::compute::{Accel, Computer};
use crate::deadline::Deadline;
use crate::error::Result;
use crate::obs::{self, QueryOp, SpanKind};
use crate::stats::ExecStats;
use crate::store::{ObjectId, ObjectStore};
use crate::sync::lock;
use std::collections::BinaryHeap;
use std::time::Instant;
use tripro_geom::{Aabb, DistRange, Vec3};

/// Total-order f64 wrapper so a [`BinaryHeap`] can hold distances.
#[derive(PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Bounded max-heap over the `k` smallest values pushed so far: `kth()` is
/// the k-th smallest in O(1), each `push` is O(log k).
struct KthSmallest {
    k: usize,
    heap: BinaryHeap<OrdF64>,
}

impl KthSmallest {
    fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    fn push(&mut self, v: f64) {
        if self.heap.len() < self.k {
            self.heap.push(OrdF64(v));
        } else if self.heap.peek().is_some_and(|top| v < top.0) {
            self.heap.pop();
            self.heap.push(OrdF64(v));
        }
    }

    /// The k-th smallest value pushed so far; ∞ until `k` values are seen
    /// (matching the "cannot tighten before k candidates settle" rule).
    fn kth(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |top| top.0)
        }
    }
}

/// Per-join context built **once** and shared by every target evaluation:
/// the geometry computer (with its device width) and the LOD ladder.
struct JoinCtx {
    computer: Computer,
    lods: Vec<usize>,
    /// Cooperative deadline/cancel token, polled between refinement rounds.
    deadline: Deadline,
    /// Paradigm flag for the pre-bound latency histograms (`true` = FPR).
    fpr: bool,
}

impl JoinCtx {
    /// The ladder top, where every object is at full resolution.
    fn top(&self) -> usize {
        self.lods.last().copied().unwrap_or(0)
    }
}

/// Query processing paradigm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Paradigm {
    /// Decode to the highest LOD immediately (classical Filter-Refine).
    FilterRefine,
    /// Refine progressively from low LODs (the paper's FPR).
    FilterProgressiveRefine,
}

impl Paradigm {
    pub fn label(&self) -> &'static str {
        match self {
            Paradigm::FilterRefine => "FR",
            Paradigm::FilterProgressiveRefine => "FPR",
        }
    }
}

/// Query configuration.
#[derive(Debug, Clone)]
pub struct QueryConfig {
    pub paradigm: Paradigm,
    pub accel: Accel,
    /// Worker threads for the join driver (cuboid-level parallelism).
    pub threads: usize,
    /// LODs the progressive refinement visits (see [`QueryConfig::ladder`]).
    /// Empty = every LOD from 0 to the ladder top (§4.4/§6.5 discuss
    /// better choices).
    pub lod_list: Vec<usize>,
    /// Cuboid edge length for batched execution; `None` derives one from
    /// the target extent.
    pub cuboid_cell: Option<f64>,
    /// Cooperative deadline/cancellation token. The refinement loop polls
    /// it between LOD rounds and bails with
    /// [`Error::DeadlineExceeded`](crate::Error::DeadlineExceeded), so an
    /// expiring request stops paying for higher-LOD decode (the service
    /// path's P1/P2 early-out). Defaults to unbounded.
    pub deadline: Deadline,
}

impl QueryConfig {
    pub fn new(paradigm: Paradigm, accel: Accel) -> Self {
        Self {
            paradigm,
            accel,
            threads: 1,
            lod_list: Vec::new(),
            cuboid_cell: None,
            deadline: Deadline::none(),
        }
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    pub fn with_lods(mut self, lods: Vec<usize>) -> Self {
        self.lod_list = lods;
        self
    }

    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// The LODs a query visits when `top` is full resolution: ascending,
    /// deduplicated, clamped to `top` and ending at it. FR visits only
    /// `top`. Joins pass the higher of both stores' tops, point probes the
    /// probed object's own.
    #[must_use]
    pub fn ladder(&self, top: usize) -> Vec<usize> {
        let mut lods = match self.paradigm {
            Paradigm::FilterRefine => Vec::new(),
            Paradigm::FilterProgressiveRefine if self.lod_list.is_empty() => (0..top).collect(),
            Paradigm::FilterProgressiveRefine => {
                let mut lods: Vec<usize> = self
                    .lod_list
                    .iter()
                    .copied()
                    .filter(|&lod| lod < top)
                    .collect();
                lods.sort_unstable();
                lods.dedup();
                lods
            }
        };
        lods.push(top);
        lods
    }
}

/// Result of a join: per target object, the matched source objects.
pub type JoinPairs = Vec<(ObjectId, Vec<ObjectId>)>;

/// Result of a NN join: per target object, its nearest source object.
pub type NnPairs = Vec<(ObjectId, Option<ObjectId>)>;

/// Candidate pairs of one target: the source id and the `[min, max]`
/// interval known to hold the pair's exact distance.
type Pairs = Vec<(ObjectId, DistRange)>;

/// What one probe decided about a candidate pair.
enum Verdict {
    /// The pair qualifies, and no higher LOD can take that back (P1/P2).
    Accept,
    /// The pair cannot qualify; only exact geometry can say so.
    Reject,
    /// Undecided at this LOD.
    Keep,
}

/// One candidate pair decoded at the current LOD, ready to be probed.
struct Probe<'a> {
    computer: &'a Computer,
    target: &'a LodData,
    source: &'a LodData,
    sk_t: &'a [Vec3],
    sk_s: &'a [Vec3],
    stats: &'a ExecStats,
}

impl Probe<'_> {
    fn intersects(&self) -> bool {
        self.computer
            .intersects(self.target, self.source, self.sk_t, self.sk_s, self.stats)
    }

    /// Squared distance at this LOD, or `clamp` if that is smaller (the
    /// kernels stop early beyond it).
    fn min_dist2(&self, clamp: f64) -> f64 {
        self.computer.min_dist2(
            self.target,
            self.source,
            self.sk_t,
            self.sk_s,
            clamp,
            self.stats,
        )
    }
}

/// The clamp for a distance cut-off: just above `cut²`, so a distance
/// equal to the cut-off still comes back unclamped.
fn clamp2(cut: f64) -> f64 {
    cut * cut * (1.0 + 1e-9) + f64::MIN_POSITIVE
}

/// A join kind as [`Engine::refine`] sees it. Every candidate pair carries
/// a distance interval; Alg. 1–3 differ only in how a pair is probed at
/// one LOD and what the outcome decides.
trait Rule {
    /// Refinement stops once no more than this many pairs are undecided.
    fn enough(&self) -> usize {
        0
    }

    /// Bound test needing no geometry: the interval alone rules the pair
    /// out.
    fn out_of_reach(&self, _r: &DistRange) -> bool {
        false
    }

    /// Probe the pair and decide it; `exact` says both objects are at
    /// full resolution at this LOD.
    fn probe(&mut self, p: &Probe<'_>, r: &mut DistRange, exact: bool) -> Verdict;

    /// End of a round: fix the cut-off that `out_of_reach` re-checks the
    /// survivors against.
    fn settle(&mut self) {}
}

/// Alg. 1: accept on surface contact.
struct Intersect;

impl Rule for Intersect {
    fn probe(&mut self, p: &Probe<'_>, _r: &mut DistRange, _exact: bool) -> Verdict {
        // P1: intersection at a lower LOD implies intersection at every
        // higher LOD. A miss decides nothing even on exact geometry —
        // disjoint surfaces may still be nested solids, which the
        // caller's containment fallback settles.
        if p.intersects() {
            Verdict::Accept
        } else {
            Verdict::Keep
        }
    }
}

/// Alg. 2: accept at distance `≤ d`.
struct Within {
    d: f64,
}

impl Rule for Within {
    fn probe(&mut self, p: &Probe<'_>, _r: &mut DistRange, exact: bool) -> Verdict {
        if p.min_dist2(clamp2(self.d)) <= self.d * self.d {
            // P2: the LOD distance upper-bounds the true distance.
            Verdict::Accept
        } else if exact {
            Verdict::Reject
        } else {
            Verdict::Keep
        }
    }
}

/// Alg. 3 and its kNN extension (§4.3): keep the pairs that can still be
/// among the `k` nearest. `cut` is the k-th smallest MAXDIST (MINMAXDIST
/// for `k = 1`); a pair whose MINDIST exceeds it is out.
struct Nearest {
    k: usize,
    cut: f64,
    /// MAXDISTs of the pairs kept so far in the current round.
    round: KthSmallest,
}

impl Nearest {
    fn new(k: usize, pairs: &[(ObjectId, DistRange)]) -> Self {
        let mut all = KthSmallest::new(k);
        for (_, r) in pairs {
            all.push(r.max);
        }
        Self {
            k,
            cut: all.kth(),
            round: KthSmallest::new(k),
        }
    }
}

impl Rule for Nearest {
    fn enough(&self) -> usize {
        self.k
    }

    fn out_of_reach(&self, r: &DistRange) -> bool {
        r.min > self.cut
    }

    fn probe(&mut self, p: &Probe<'_>, r: &mut DistRange, exact: bool) -> Verdict {
        let clamp = clamp2(self.cut);
        let dist2 = p.min_dist2(clamp);
        if dist2 < clamp {
            // LOD distance obtained: tighten MAXDIST (step 9); on exact
            // geometry the range collapses (step 11).
            r.max = dist2.sqrt();
            if exact {
                r.min = r.max;
            }
        } else if exact {
            // Beyond the cut-off on exact geometry: cannot beat the
            // current best (ties break toward the earlier winner).
            return Verdict::Reject;
        }
        // Otherwise the LOD distance exceeds the bound but the true one
        // may not: the pair keeps its range. Until k pairs are kept the
        // cut-off cannot tighten (`kth()` is ∞ until then).
        self.round.push(r.max);
        self.cut = self.cut.min(self.round.kth().max(0.0));
        Verdict::Keep
    }

    fn settle(&mut self) {
        self.cut = std::mem::replace(&mut self.round, KthSmallest::new(self.k)).kth();
    }
}

/// Run a filter prologue under its span and time bucket.
fn filter<T>(stats: &ExecStats, f: impl FnOnce() -> T) -> T {
    let _span = obs::span(SpanKind::Filter);
    let t0 = Instant::now();
    let out = f();
    stats.add_filter(t0.elapsed());
    out
}

/// Is `inner` inside the solid `outer`? Asked only of pairs whose surfaces
/// are disjoint, where one vertex of the coarsest LOD decides it.
fn vertex_inside(
    (inner, i): (&ObjectStore, ObjectId),
    (outer, o): (&ObjectStore, ObjectId),
    stats: &ExecStats,
) -> Result<bool> {
    let solid = outer.get(o, outer.max_lod(o), stats)?;
    let v = inner.get(i, 0, stats)?.triangles[0].a;
    let t0 = Instant::now();
    let inside = tripro_geom::point_in_mesh(v, &solid.triangles);
    stats.add_compute(t0.elapsed());
    Ok(inside)
}

/// A spatial-join engine over a target dataset `D₁` and source dataset `D₂`.
pub struct Engine<'a> {
    pub target: &'a ObjectStore,
    pub source: &'a ObjectStore,
}

impl<'a> Engine<'a> {
    pub fn new(target: &'a ObjectStore, source: &'a ObjectStore) -> Self {
        Self { target, source }
    }

    fn join_ctx(&self, cfg: &QueryConfig) -> JoinCtx {
        JoinCtx {
            // The GPU columns' launch width is independent of the join
            // driver's thread count: it models the device.
            computer: Computer::new(cfg.accel, crate::pool::device_width()),
            // Every object of both stores is at full resolution at the top.
            lods: cfg.ladder(
                self.target
                    .max_lod_overall()
                    .max(self.source.max_lod_overall()),
            ),
            deadline: cfg.deadline.clone(),
            fpr: matches!(cfg.paradigm, Paradigm::FilterProgressiveRefine),
        }
    }

    /// MINDIST/MAXDIST from `tm` to source `c` over its partition
    /// sub-object boxes (§5.1) — the minimum over groups is valid for both
    /// bounds. `None` when the object has no groups.
    fn group_range(&self, c: ObjectId, tm: &Aabb) -> Option<DistRange> {
        let boxes = &self.source.object(c).group_boxes;
        let min_over = |dist: fn(&Aabb, &Aabb) -> f64| {
            boxes
                .iter()
                .map(|b| dist(b, tm))
                .fold(f64::INFINITY, f64::min)
        };
        (!boxes.is_empty()).then(|| DistRange {
            min: min_over(Aabb::min_dist),
            max: min_over(Aabb::max_dist),
        })
    }

    /// Progressive refinement (the loop Alg. 1–3 share): climb the LOD
    /// ladder, probe every undecided pair at each rung and let `rule`
    /// decide it. Returns the accepted source ids and the pairs still
    /// undecided when the ladder, or the rule's stop condition, ends.
    fn refine(
        &self,
        ctx: &JoinCtx,
        t: ObjectId,
        mut pairs: Pairs,
        rule: &mut impl Rule,
        stats: &ExecStats,
    ) -> Result<(Vec<ObjectId>, Pairs)> {
        let t_max = self.target.max_lod(t);
        let sk_t = self.target.skeleton(t);
        let mut accepted = Vec::new();
        for &lod in &ctx.lods {
            if pairs.len() <= rule.enough() {
                break;
            }
            ctx.deadline.check()?;
            let _round = obs::span_at(SpanKind::RefineRound, obs::trace::NO_OBJECT, lod as u32);
            stats.record_lod_round();
            let geom_t = self.target.get(t, lod, stats)?;
            let mut next = Vec::with_capacity(pairs.len());
            for (c, mut r) in pairs {
                // The cut-off keeps tightening inside a round: re-check
                // before paying for the decode (Alg. 3 step 5).
                if rule.out_of_reach(&r) {
                    stats.record_pair_pruned(lod);
                    continue;
                }
                let exact = lod >= t_max && lod >= self.source.max_lod(c);
                let geom_c = self.source.get(c, lod, stats)?;
                stats.record_pair_evaluated(lod);
                let probe = Probe {
                    computer: &ctx.computer,
                    target: &geom_t,
                    source: &geom_c,
                    sk_t,
                    sk_s: self.source.skeleton(c),
                    stats,
                };
                match rule.probe(&probe, &mut r, exact) {
                    Verdict::Accept => {
                        accepted.push(c);
                        stats.record_pair_pruned(lod);
                    }
                    Verdict::Reject => stats.record_pair_pruned(lod),
                    Verdict::Keep => next.push((c, r)),
                }
            }
            // Post-pass prune with the settled cut-off (Alg. 3 steps 14–16).
            rule.settle();
            next.retain(|(_, r)| {
                let keep = !rule.out_of_reach(r);
                if !keep {
                    stats.record_pair_pruned(lod);
                }
                keep
            });
            pairs = next;
        }
        Ok((accepted, pairs))
    }

    // -----------------------------------------------------------------
    // Intersection join (paper §4.1, Alg. 1)
    // -----------------------------------------------------------------

    /// Source objects whose geometry intersects target object `t`.
    pub fn intersect_one(
        &self,
        t: ObjectId,
        cfg: &QueryConfig,
        stats: &ExecStats,
    ) -> Result<Vec<ObjectId>> {
        self.intersect_one_in(&self.join_ctx(cfg), t, cfg, stats)
    }

    fn intersect_one_in(
        &self,
        ctx: &JoinCtx,
        t: ObjectId,
        cfg: &QueryConfig,
        stats: &ExecStats,
    ) -> Result<Vec<ObjectId>> {
        let _lat = obs::time(obs::query_latency_histogram(QueryOp::Intersect, ctx.fpr));
        // An already-expired request does no work at all, even when the
        // filter alone could answer it — uniform service semantics.
        ctx.deadline.check()?;
        let tm = self.target.mbb(t);

        // Filter: MBB intersection against the global index. With the
        // partition strategies the finer sub-object boxes filter instead.
        let pairs = filter(stats, || {
            let candidates = match cfg.accel {
                Accel::Partition | Accel::PartitionGpu => {
                    let mut c = self.source.partition_rtree().query_intersects(tm);
                    c.sort_unstable();
                    c.dedup();
                    c
                }
                _ => self.source.rtree().query_intersects(tm),
            };
            candidates
                .into_iter()
                .map(|c| (c, tm.dist_range(self.source.mbb(c))))
                .collect()
        });
        let (mut results, undecided) = self.refine(ctx, t, pairs, &mut Intersect, stats)?;

        // Containment fallback at the highest LOD (Alg. 1 steps 8–12):
        // surfaces may be disjoint while one solid contains the other.
        ctx.deadline.check()?;
        let (target, source) = (self.target, self.source);
        for (c, _) in undecided {
            stats.record_pair_pruned(ctx.top());
            let cm = source.mbb(c);
            if (tm.contains_box(cm) && vertex_inside((source, c), (target, t), stats)?)
                || (cm.contains_box(tm) && vertex_inside((target, t), (source, c), stats)?)
            {
                results.push(c);
            }
        }
        results.sort_unstable();
        Ok(results)
    }

    /// Intersection spatial join `D₁ ⋈ D₂` over all target objects.
    pub fn intersection_join(&self, cfg: &QueryConfig) -> Result<(JoinPairs, ExecStats)> {
        self.drive(cfg, |ctx, t, stats| {
            self.intersect_one_in(ctx, t, cfg, stats)
        })
    }

    // -----------------------------------------------------------------
    // Within join (paper §4.2, Alg. 2)
    // -----------------------------------------------------------------

    /// Source objects whose distance to target `t` is at most `d`.
    pub fn within_one(
        &self,
        t: ObjectId,
        d: f64,
        cfg: &QueryConfig,
        stats: &ExecStats,
    ) -> Result<Vec<ObjectId>> {
        self.within_one_in(&self.join_ctx(cfg), t, d, cfg, stats)
    }

    fn within_one_in(
        &self,
        ctx: &JoinCtx,
        t: ObjectId,
        d: f64,
        cfg: &QueryConfig,
        stats: &ExecStats,
    ) -> Result<Vec<ObjectId>> {
        let _lat = obs::time(obs::query_latency_histogram(QueryOp::Within, ctx.fpr));
        ctx.deadline.check()?;
        let tm = self.target.mbb(t);

        let (mut results, pairs) = filter(stats, || {
            let filtered = self.source.rtree().within(tm, d);
            // Objects proven within by MBB bounds alone need no geometry.
            let mut results = filtered.definite;
            let mut candidates = filtered.candidates;
            // The partition strategies re-examine candidates with the finer
            // sub-object boxes (§5.1): the min-over-groups MAXDIST can prove
            // "within" and the min-over-groups MINDIST can disprove it, both
            // without touching geometry.
            if matches!(cfg.accel, Accel::Partition | Accel::PartitionGpu) {
                candidates.retain(|&c| match self.group_range(c, tm) {
                    Some(r) if r.min > d => false, // certainly too far
                    Some(r) if r.max <= d => {
                        results.push(c); // certainly within
                        false
                    }
                    _ => true,
                });
            }
            let pairs = candidates
                .into_iter()
                .map(|c| (c, tm.dist_range(self.source.mbb(c))))
                .collect();
            (results, pairs)
        });
        // Every pair is decided by the ladder top, where geometry is exact.
        let (accepted, _) = self.refine(ctx, t, pairs, &mut Within { d }, stats)?;
        results.extend(accepted);
        results.sort_unstable();
        Ok(results)
    }

    /// Within spatial join: all source objects within `d` of each target.
    pub fn within_join(&self, d: f64, cfg: &QueryConfig) -> Result<(JoinPairs, ExecStats)> {
        self.drive(cfg, |ctx, t, stats| {
            self.within_one_in(ctx, t, d, cfg, stats)
        })
    }

    // -----------------------------------------------------------------
    // Nearest-neighbour join (paper §4.3, Alg. 3)
    // -----------------------------------------------------------------

    /// The nearest source object to target `t` (`None` for an empty source).
    pub fn nn_one(
        &self,
        t: ObjectId,
        cfg: &QueryConfig,
        stats: &ExecStats,
    ) -> Result<Option<ObjectId>> {
        self.nn_one_in(&self.join_ctx(cfg), t, cfg, stats)
    }

    fn nn_one_in(
        &self,
        ctx: &JoinCtx,
        t: ObjectId,
        cfg: &QueryConfig,
        stats: &ExecStats,
    ) -> Result<Option<ObjectId>> {
        let _lat = obs::time(obs::query_latency_histogram(QueryOp::Nn, ctx.fpr));
        ctx.deadline.check()?;
        let tm = self.target.mbb(t);

        let pairs = filter(stats, || {
            let mut pairs = self.source.rtree().nn_candidates(tm);
            // Partition strategies tighten the initial ranges with the
            // finer sub-object boxes.
            if matches!(cfg.accel, Accel::Partition | Accel::PartitionGpu) {
                for (c, r) in &mut pairs {
                    if let Some(g) = self.group_range(*c, tm) {
                        *r = g;
                    }
                }
            }
            pairs
        });
        let mut rule = Nearest::new(1, &pairs);
        let (_, survivors) = self.refine(ctx, t, pairs, &mut rule, stats)?;
        Ok(survivors
            .into_iter()
            .min_by(|a, b| a.1.max.total_cmp(&b.1.max).then(a.0.cmp(&b.0)))
            .map(|(c, _)| c))
    }

    /// Nearest-neighbour join (ANN query): the nearest source object for
    /// every target object.
    pub fn nn_join(&self, cfg: &QueryConfig) -> Result<(NnPairs, ExecStats)> {
        self.drive(cfg, |ctx, t, stats| self.nn_one_in(ctx, t, cfg, stats))
    }

    /// The `k` nearest source objects to target `t`, closest first
    /// (§4.3's kNN extension: the candidate list keeps at least `k`
    /// entries, pruning against the k-th smallest MAXDIST).
    pub fn knn_one(
        &self,
        t: ObjectId,
        k: usize,
        cfg: &QueryConfig,
        stats: &ExecStats,
    ) -> Result<Vec<ObjectId>> {
        self.knn_one_in(&self.join_ctx(cfg), t, k, stats)
    }

    fn knn_one_in(
        &self,
        ctx: &JoinCtx,
        t: ObjectId,
        k: usize,
        stats: &ExecStats,
    ) -> Result<Vec<ObjectId>> {
        let scored = self.knn_scored_in(ctx, t, k, stats)?;
        Ok(scored.into_iter().map(|(c, _)| c).collect())
    }

    /// [`knn_one`](Self::knn_one) with each winner's exact distance, the
    /// one its ranking used: what a shard hands a coordinator to merge on,
    /// so the merged ranking is bit-identical to a single-engine run.
    pub fn knn_scored(
        &self,
        t: ObjectId,
        k: usize,
        cfg: &QueryConfig,
        stats: &ExecStats,
    ) -> Result<Vec<(ObjectId, f64)>> {
        self.knn_scored_in(&self.join_ctx(cfg), t, k, stats)
    }

    fn knn_scored_in(
        &self,
        ctx: &JoinCtx,
        t: ObjectId,
        k: usize,
        stats: &ExecStats,
    ) -> Result<Vec<(ObjectId, f64)>> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let _lat = obs::time(obs::query_latency_histogram(QueryOp::Knn, ctx.fpr));
        ctx.deadline.check()?;

        let pairs = filter(stats, || {
            self.source.rtree().knn_candidates(self.target.mbb(t), k)
        });
        if pairs.is_empty() {
            return Ok(Vec::new());
        }
        let mut rule = Nearest::new(k, &pairs);
        let (_, survivors) = self.refine(ctx, t, pairs, &mut rule, stats)?;

        // Exact distances for whatever remains (bounded by the filter), then
        // take the k best.
        ctx.deadline.check()?;
        let geom_t = self.target.get(t, ctx.top(), stats)?;
        let mut scored: Vec<(ObjectId, f64)> = Vec::with_capacity(survivors.len());
        for (c, r) in survivors {
            // A collapsed range is an exact distance already in hand; compare
            // bitwise (eps would falsely collapse nearly-settled ranges).
            let d = if tripro_geom::is_exactly(r.min, r.max) {
                r.max
            } else {
                self.top_distance(ctx, &geom_t, t, c, r.max, stats)?
            };
            scored.push((c, d));
        }
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        Ok(scored)
    }

    /// k-nearest-neighbour join: the `k` nearest source objects for every
    /// target object, closest first.
    pub fn knn_join(&self, k: usize, cfg: &QueryConfig) -> Result<(JoinPairs, ExecStats)> {
        self.drive(cfg, |ctx, t, stats| self.knn_one_in(ctx, t, k, stats))
    }

    /// Exact distance from target `t`, already decoded at the ladder top as
    /// `geom_t`, to source `c`, whose MAXDIST is `max`. By P2 the distance
    /// is at most `max`, so the kernel runs clamped just above it, stops
    /// early beyond it, and returns the exact value below it; a clamped
    /// result (`max` understated the distance) is redone unbounded, so the
    /// value is the unbounded kernel's either way.
    fn top_distance(
        &self,
        ctx: &JoinCtx,
        geom_t: &LodData,
        t: ObjectId,
        c: ObjectId,
        max: f64,
        stats: &ExecStats,
    ) -> Result<f64> {
        let geom_c = self.source.get(c, ctx.top(), stats)?;
        let min_dist2 = |clamp: f64| {
            stats.record_pair_evaluated(ctx.top());
            ctx.computer.min_dist2(
                geom_t,
                &geom_c,
                self.target.skeleton(t),
                self.source.skeleton(c),
                clamp,
                stats,
            )
        };
        let clamp = clamp2(max);
        let mut d2 = min_dist2(clamp);
        if d2 >= clamp {
            d2 = min_dist2(f64::INFINITY);
        }
        Ok(d2.sqrt())
    }

    // -----------------------------------------------------------------
    // Parallel join driver: batch target objects by cuboid (§5.3) and let
    // workers claim cuboids, preserving decode-cache locality.
    // -----------------------------------------------------------------

    fn drive<R: Send>(
        &self,
        cfg: &QueryConfig,
        per_object: impl Fn(&JoinCtx, ObjectId, &ExecStats) -> Result<R> + Sync,
    ) -> Result<(Vec<(ObjectId, R)>, ExecStats)> {
        let stats = ExecStats::new();
        let ctx = self.join_ctx(cfg);
        let cell = cfg
            .cuboid_cell
            .unwrap_or_else(|| self.target.default_cell());
        let cuboids = self.target.cuboids(cell);
        let next = std::sync::atomic::AtomicUsize::new(0);
        // LOCK-RANK(80): per-drive result accumulator — a leaf below the
        // cache locks (50–70); workers take it briefly around a cuboid,
        // never while holding any other lock. It turns `Err` with the
        // first target that fails, which is also the join's answer.
        let results: std::sync::Mutex<Result<Vec<(ObjectId, R)>>> =
            std::sync::Mutex::new(Ok(Vec::with_capacity(self.target.len())));
        let workers = cfg.threads.max(1).min(cuboids.len().max(1));
        // Workers come from the persistent process-wide pool (the caller is
        // one of them); each claims whole cuboids so decode-cache locality
        // is preserved (§5.3).
        crate::pool::global().run_with(workers - 1, |_| loop {
            // A failed join stops claiming: whatever the remaining cuboids
            // produced would be thrown away.
            if lock(&results).is_err() {
                return;
            }
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= cuboids.len() {
                return;
            }
            let local: Result<Vec<_>> = cuboids[i]
                .iter()
                .map(|&t| Ok((t, per_object(&ctx, t, &stats)?)))
                .collect();
            let mut all = lock(&results);
            match (all.as_mut(), local) {
                (Ok(all), Ok(local)) => all.extend(local),
                (Ok(_), Err(e)) => *all = Err(e),
                (Err(_), _) => {}
            }
        });
        let mut out = results
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)?;
        out.sort_by_key(|(t, _)| *t);
        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use tripro_geom::vec3;
    use tripro_mesh::testutil::sphere;
    use tripro_mesh::TriMesh;

    fn store_of(meshes: Vec<TriMesh>) -> ObjectStore {
        ObjectStore::build(
            &meshes,
            &StoreConfig {
                build_threads: 2,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// Targets: spheres along x at 0, 10, 20. Sources: spheres at 0.5
    /// (overlaps t0), 13 (3 away from t1's surface), 40 (far).
    fn setup() -> (ObjectStore, ObjectStore) {
        let targets = store_of(vec![
            sphere(vec3(0.0, 0.0, 0.0), 2.0, 3),
            sphere(vec3(10.0, 0.0, 0.0), 2.0, 3),
            sphere(vec3(20.0, 0.0, 0.0), 2.0, 3),
        ]);
        let sources = store_of(vec![
            sphere(vec3(0.5, 0.0, 0.0), 2.0, 3),
            sphere(vec3(13.0, 0.0, 0.0), 1.0, 3),
            sphere(vec3(40.0, 0.0, 0.0), 2.0, 3),
        ]);
        (targets, sources)
    }

    fn all_configs() -> Vec<QueryConfig> {
        let mut out = Vec::new();
        for p in [Paradigm::FilterRefine, Paradigm::FilterProgressiveRefine] {
            for a in Accel::ALL {
                out.push(QueryConfig::new(p, a));
            }
        }
        out
    }

    #[test]
    fn intersection_join_all_strategies_agree() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        for cfg in all_configs() {
            let (pairs, _) = engine.intersection_join(&cfg).unwrap();
            assert_eq!(pairs.len(), 3);
            assert_eq!(pairs[0].1, vec![0], "{:?} {:?}", cfg.paradigm, cfg.accel);
            assert!(pairs[1].1.is_empty(), "{:?} {:?}", cfg.paradigm, cfg.accel);
            assert!(pairs[2].1.is_empty());
        }
    }

    #[test]
    fn containment_counts_as_intersection() {
        // Small sphere strictly inside a big one.
        let t = store_of(vec![sphere(vec3(0.0, 0.0, 0.0), 4.0, 3)]);
        let s = store_of(vec![sphere(vec3(0.0, 0.0, 0.0), 1.0, 2)]);
        let engine = Engine::new(&t, &s);
        for cfg in all_configs() {
            let stats = ExecStats::new();
            let hits = engine.intersect_one(0, &cfg, &stats).unwrap();
            assert_eq!(hits, vec![0], "{:?} {:?}", cfg.paradigm, cfg.accel);
        }
    }

    #[test]
    fn within_join_all_strategies_agree() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        // t1 (at x=10, r=2) to s1 (at x=13, r=1): surface gap = 0.
        // Actually: centres 3 apart, radii sum 3 ⇒ touching; use d = 0.5.
        for cfg in all_configs() {
            let (pairs, _) = engine.within_join(0.5, &cfg).unwrap();
            assert_eq!(pairs[0].1, vec![0], "{:?} {:?}", cfg.paradigm, cfg.accel);
            assert_eq!(pairs[1].1, vec![1], "{:?} {:?}", cfg.paradigm, cfg.accel);
            assert!(pairs[2].1.is_empty(), "{:?} {:?}", cfg.paradigm, cfg.accel);
        }
    }

    #[test]
    fn within_respects_distance_threshold() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let stats = ExecStats::new();
        // t2 at x=20 to s1 at x=13 (r=1): gap = 20-2 - 14 = 4.
        assert!(engine.within_one(2, 3.9, &cfg, &stats).unwrap().is_empty());
        assert_eq!(engine.within_one(2, 4.2, &cfg, &stats).unwrap(), vec![1]);
    }

    #[test]
    fn nn_join_all_strategies_agree() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        for cfg in all_configs() {
            let (pairs, _) = engine.nn_join(&cfg).unwrap();
            assert_eq!(pairs[0].1, Some(0), "{:?} {:?}", cfg.paradigm, cfg.accel);
            assert_eq!(pairs[1].1, Some(1), "{:?} {:?}", cfg.paradigm, cfg.accel);
            assert_eq!(pairs[2].1, Some(1), "{:?} {:?}", cfg.paradigm, cfg.accel);
        }
    }

    #[test]
    fn fpr_decodes_less_than_fr() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        let fr = QueryConfig::new(Paradigm::FilterRefine, Accel::Brute);
        let fpr = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let (_, st_fr) = engine.within_join(0.5, &fr).unwrap();
        t.cache().clear();
        s.cache().clear();
        let (_, st_fpr) = engine.within_join(0.5, &fpr).unwrap();
        let fr_pairs = st_fr.snapshot().face_pair_tests;
        let fpr_pairs = st_fpr.snapshot().face_pair_tests;
        assert!(
            fpr_pairs < fr_pairs,
            "FPR should test fewer face pairs: {fpr_pairs} vs {fr_pairs}"
        );
    }

    #[test]
    fn parallel_driver_matches_serial() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        let serial = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let parallel = serial.clone().with_threads(4);
        let (a, _) = engine.nn_join(&serial).unwrap();
        let (b, _) = engine.nn_join(&parallel).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn lod_list_is_respected() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        let cfg =
            QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute).with_lods(vec![1, 3]);
        let lods = engine.join_ctx(&cfg).lods;
        let top = t.max_lod_overall().max(s.max_lod_overall());
        assert_eq!(lods, cfg.ladder(top));
        assert_eq!(*lods.last().unwrap(), top);
        assert!(lods.contains(&1));
        // FR ignores the list entirely.
        let fr = QueryConfig::new(Paradigm::FilterRefine, Accel::Brute).with_lods(vec![0, 1]);
        assert_eq!(engine.join_ctx(&fr).lods, vec![top]);
    }

    #[test]
    fn knn_returns_ordered_neighbours() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        for cfg in all_configs() {
            let stats = ExecStats::new();
            // Target 1 (x=10): nearest is s1 (x=13), then s0 (x=0.5), then s2.
            let knn = engine.knn_one(1, 2, &cfg, &stats).unwrap();
            assert_eq!(knn.len(), 2, "{:?} {:?}", cfg.paradigm, cfg.accel);
            assert_eq!(knn[0], 1, "{:?} {:?}", cfg.paradigm, cfg.accel);
            assert_eq!(knn[1], 0, "{:?} {:?}", cfg.paradigm, cfg.accel);
            // k=1 agrees with nn_one; k larger than the dataset returns all.
            assert_eq!(engine.knn_one(1, 1, &cfg, &stats).unwrap(), vec![1]);
            assert_eq!(engine.knn_one(1, 99, &cfg, &stats).unwrap().len(), 3);
            assert!(engine.knn_one(1, 0, &cfg, &stats).unwrap().is_empty());
        }
    }

    #[test]
    fn kth_smallest_matches_sort_reference() {
        // Deterministic LCG stream, checked against a full sort after
        // every push.
        let mut x = 7u64;
        let mut vals: Vec<f64> = Vec::new();
        let mut kth = KthSmallest::new(4);
        for _ in 0..100 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            vals.push(v);
            kth.push(v);
            let mut sorted = vals.clone();
            sorted.sort_by(f64::total_cmp);
            let expect = if sorted.len() < 4 {
                f64::INFINITY
            } else {
                sorted[3]
            };
            assert_eq!(
                kth.kth().total_cmp(&expect),
                std::cmp::Ordering::Equal,
                "after {} pushes",
                vals.len()
            );
        }
    }

    #[test]
    fn knn_heap_threshold_matches_exhaustive_reference() {
        // Enough sources that the bounded heap actually churns, pinned
        // against exact top-LOD distances computed independently.
        let targets = store_of(vec![sphere(vec3(0.0, 0.0, 0.0), 2.0, 3)]);
        let mut srcs = Vec::new();
        for i in 0..10 {
            srcs.push(sphere(
                vec3(3.0 + 2.5 * i as f64, (i % 3) as f64, 0.0),
                1.0,
                2,
            ));
        }
        let sources = store_of(srcs);
        let engine = Engine::new(&targets, &sources);
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let stats = ExecStats::new();
        let computer = engine.join_ctx(&cfg).computer;
        let top = targets.max_lod_overall().max(sources.max_lod_overall());
        let geom_t = targets.get(0, top, &stats).unwrap();
        let mut reference: Vec<(f64, ObjectId)> = (0..sources.len() as u32)
            .map(|c| {
                let geom_c = sources.get(c, top, &stats).unwrap();
                let d2 = computer.min_dist2(&geom_t, &geom_c, &[], &[], f64::INFINITY, &stats);
                (d2.sqrt(), c)
            })
            .collect();
        reference.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for k in [1usize, 3, 5, 9, 10, 12] {
            let got = engine.knn_one(0, k, &cfg, &stats).unwrap();
            let want: Vec<ObjectId> = reference.iter().take(k).map(|&(_, c)| c).collect();
            assert_eq!(got, want, "k={k}");
            // The returned distances are the unbounded kernel's, bit for bit.
            let scored: Vec<(ObjectId, u64)> = engine
                .knn_scored(0, k, &cfg, &stats)
                .unwrap()
                .into_iter()
                .map(|(c, d)| (c, d.to_bits()))
                .collect();
            let want: Vec<(ObjectId, u64)> = reference
                .iter()
                .take(k)
                .map(|&(d, c)| (c, d.to_bits()))
                .collect();
            assert_eq!(scored, want, "k={k}");
        }
    }

    #[test]
    fn knn_scored_top1_is_nn_one() {
        // A shard answers NN with its kNN top-1; that is safe only if the
        // two agree for every target under every configuration.
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        for cfg in all_configs() {
            let stats = ExecStats::new();
            for tid in 0..t.len() as ObjectId {
                let top1: Vec<ObjectId> = engine
                    .knn_scored(tid, 1, &cfg, &stats)
                    .unwrap()
                    .into_iter()
                    .map(|(c, _)| c)
                    .collect();
                let nn: Vec<ObjectId> = engine
                    .nn_one(tid, &cfg, &stats)
                    .unwrap()
                    .into_iter()
                    .collect();
                assert_eq!(top1, nn, "target {tid} {:?} {:?}", cfg.paradigm, cfg.accel);
            }
        }
    }

    #[test]
    fn top_distance_below_the_true_distance_falls_back_unbounded() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        for accel in Accel::ALL {
            let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, accel);
            let ctx = engine.join_ctx(&cfg);
            let stats = ExecStats::new();
            let geom_t = t.get(1, ctx.top(), &stats).unwrap();
            // Target 1 (x=10, r=2) to source 2 (x=40, r=2): about 26 apart.
            let exact = engine
                .top_distance(&ctx, &geom_t, 1, 2, f64::INFINITY, &stats)
                .unwrap();
            assert!(exact > 20.0, "{accel:?}: {exact}");
            let before = stats.snapshot().pairs_evaluated[ctx.top()];
            let got = engine
                .top_distance(&ctx, &geom_t, 1, 2, 1.0, &stats)
                .unwrap();
            assert_eq!(got.to_bits(), exact.to_bits(), "{accel:?}");
            // The clamped first call plus the unbounded fallback.
            let after = stats.snapshot().pairs_evaluated[ctx.top()];
            assert_eq!(after - before, 2, "{accel:?}");
        }
    }

    #[test]
    fn knn_join_shapes() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let (pairs, _) = engine.knn_join(2, &cfg).unwrap();
        assert_eq!(pairs.len(), 3);
        for (tid, nns) in &pairs {
            assert_eq!(nns.len(), 2, "target {tid}");
            // First entry must equal the NN join's answer.
            let stats = ExecStats::new();
            assert_eq!(Some(nns[0]), engine.nn_one(*tid, &cfg, &stats).unwrap());
        }
    }

    #[test]
    fn expired_deadline_returns_typed_error() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        let expired = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute)
            .with_deadline(Deadline::within(std::time::Duration::ZERO));
        let stats = ExecStats::new();
        assert!(matches!(
            engine.intersect_one(0, &expired, &stats),
            Err(crate::Error::DeadlineExceeded)
        ));
        assert!(matches!(
            engine.within_one(0, 1.0, &expired, &stats),
            Err(crate::Error::DeadlineExceeded)
        ));
        assert!(matches!(
            engine.nn_one(0, &expired, &stats),
            Err(crate::Error::DeadlineExceeded)
        ));
        assert!(matches!(
            engine.knn_one(0, 2, &expired, &stats),
            Err(crate::Error::DeadlineExceeded)
        ));
        // An expired deadline must abort before any full-LOD decode: the
        // only decodes on record happened during the filter-free early
        // bail, i.e. none at all.
        assert_eq!(stats.snapshot().decodes, 0, "no decode after expiry");
        // The whole-join drivers propagate the same error.
        assert!(matches!(
            engine.intersection_join(&expired),
            Err(crate::Error::DeadlineExceeded)
        ));
        // A generous deadline changes nothing.
        let live = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute)
            .with_deadline(Deadline::within(std::time::Duration::from_secs(3600)));
        let plain = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let st = ExecStats::new();
        assert_eq!(
            engine.intersect_one(0, &live, &st).unwrap(),
            engine.intersect_one(0, &plain, &st).unwrap()
        );
    }

    #[test]
    fn drive_stops_claiming_cuboids_after_the_first_error() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Three targets 10 apart: one cuboid each under the default cell.
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let calls = AtomicUsize::new(0);
        let out = engine.drive(&cfg, |_, _, _| -> Result<()> {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(crate::Error::DeadlineExceeded)
        });
        assert!(matches!(out, Err(crate::Error::DeadlineExceeded)));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cancel_flag_aborts_mid_join() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute)
            .with_deadline(Deadline::none().with_cancel(flag));
        let stats = ExecStats::new();
        assert!(matches!(
            engine.within_one(0, 1.0, &cfg, &stats),
            Err(crate::Error::DeadlineExceeded)
        ));
    }

    #[test]
    fn empty_source() {
        let (t, _) = setup();
        let s = store_of(vec![]);
        let engine = Engine::new(&t, &s);
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let stats = ExecStats::new();
        assert!(engine.intersect_one(0, &cfg, &stats).unwrap().is_empty());
        assert!(engine.within_one(0, 5.0, &cfg, &stats).unwrap().is_empty());
        assert_eq!(engine.nn_one(0, &cfg, &stats).unwrap(), None);
    }

    #[test]
    fn stats_track_lod_activity() {
        let (t, s) = setup();
        let engine = Engine::new(&t, &s);
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let (_, stats) = engine.nn_join(&cfg).unwrap();
        let snap = stats.snapshot();
        assert!(snap.pairs_evaluated.iter().sum::<u64>() > 0);
        assert!(snap.decode_ns > 0);
        assert!(snap.compute_ns > 0);
    }
}
