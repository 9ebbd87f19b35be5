//! The geometry computer (paper §5.1): evaluates one decoded object pair —
//! intersection or minimum distance — under a configurable acceleration
//! strategy. The FPR paradigm calls this once per LOD per surviving pair.
//!
//! Every strategy but the AABB-tree is one `gpu::launch` loop over a
//! pair source at a width: Brute and GPU feed it the full cross product at
//! width 1 and at the device width; Partition and Partition+GPU feed it the
//! face pairs of the group pairs a box walk keeps, flushing every group
//! pair at width 1, or every [`KERNEL_SIZE`] pairs at the device width.
//!
//! Distance scores a face pair with `tri_tri_dist2_below_boxed` under the
//! launch's running minimum: a pair whose boxes cannot beat it costs a box
//! test, not the 15 closest-feature tests. It still counts as tested.

use crate::cache::LodData;
use crate::gpu::{self, Pairs, KERNEL_SIZE};
use crate::partition::GroupedFaces;
use crate::stats::ExecStats;
use std::time::Instant;
use tripro_geom::{is_exactly_zero, tri_tri_dist2_below_boxed, Aabb, Triangle, Vec3};

/// Intra-geometry acceleration strategy (the columns of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accel {
    /// Evaluate every face pair directly.
    Brute,
    /// Skeleton-partitioned sub-objects with per-group boxes (§5.1).
    Partition,
    /// Per-object AABB-tree over faces (§5.1).
    Aabb,
    /// Batched data-parallel execution (simulated GPU, §5.1).
    Gpu,
    /// Partition pre-filtering feeding device-width launches.
    PartitionGpu,
}

impl Accel {
    /// All strategies, in Table 1 column order.
    pub const ALL: [Accel; 5] = [
        Accel::Brute,
        Accel::Partition,
        Accel::Aabb,
        Accel::Gpu,
        Accel::PartitionGpu,
    ];

    pub fn label(&self) -> &'static str {
        match self {
            Accel::Brute => "Brute-force",
            Accel::Partition => "Partition",
            Accel::Aabb => "AABB",
            Accel::Gpu => "GPU",
            Accel::PartitionGpu => "Partition+GPU",
        }
    }
}

/// Group pairs a partition walk visits, as `(box lower bound, a group,
/// b group)`; the walk stops at the first bound that cannot beat its answer.
type GroupPairs = fn(&GroupedFaces, &GroupedFaces) -> Vec<(f64, usize, usize)>;

/// Geometry computer bound to an acceleration strategy.
#[derive(Debug, Clone)]
pub struct Computer {
    pub accel: Accel,
    /// Pool participants a GPU-column launch spreads over (the simulated
    /// device's parallelism); the CPU columns run at width 1.
    width: usize,
}

impl Computer {
    pub fn new(accel: Accel, threads: usize) -> Self {
        Self {
            accel,
            width: threads.max(1),
        }
    }

    /// Do the two decoded geometries intersect (any face pair)?
    /// Skeletons drive the partition strategies and are ignored otherwise.
    pub fn intersects(
        &self,
        a: &LodData,
        b: &LodData,
        sk_a: &[Vec3],
        sk_b: &[Vec3],
        stats: &ExecStats,
    ) -> bool {
        let t0 = Instant::now();
        let (hit, tests) = if self.accel == Accel::Aabb {
            let mut n = 0;
            let hit = a.tree().intersects_tree(b.tree(), &mut n);
            (hit, n)
        } else {
            let (d, n) = self.launch(
                (a, sk_a),
                (b, sk_b),
                f64::INFINITY,
                gpu::hit_score,
                overlapping,
            );
            (is_exactly_zero(d), n)
        };
        stats.add_face_pairs(tests);
        stats.add_compute(t0.elapsed());
        hit
    }

    /// Minimum distance (squared) between the two decoded geometries.
    /// `upper` seeds pruning; the result is `min(true d², upper)`.
    pub fn min_dist2(
        &self,
        a: &LodData,
        b: &LodData,
        sk_a: &[Vec3],
        sk_b: &[Vec3],
        upper: f64,
        stats: &ExecStats,
    ) -> f64 {
        let t0 = Instant::now();
        let (d2, tests) = if self.accel == Accel::Aabb {
            let mut n = 0;
            let d2 = a.tree().min_dist2_tree(b.tree(), upper, &mut n);
            (d2, n)
        } else {
            self.launch(
                (a, sk_a),
                (b, sk_b),
                upper,
                tri_tri_dist2_below_boxed,
                by_distance,
            )
        };
        stats.add_face_pairs(tests);
        stats.add_compute(t0.elapsed());
        d2
    }

    /// Every non-tree strategy: the cross product in one launch, or the
    /// partition walk's packed group pairs in one launch per flush.
    fn launch<F>(
        &self,
        (a, sk_a): (&LodData, &[Vec3]),
        (b, sk_b): (&LodData, &[Vec3]),
        upper: f64,
        score: F,
        group_pairs: GroupPairs,
    ) -> (f64, u64)
    where
        F: Fn(&Triangle, &Aabb, &Triangle, f64) -> f64 + Sync + Copy,
    {
        let (ta, tb) = (&a.triangles[..], &b.triangles[..]);
        let (width, flush) = match self.accel {
            Accel::Brute => return gpu::launch(ta, tb, Pairs::Cross, 1, upper, score),
            Accel::Gpu => return gpu::launch(ta, tb, Pairs::Cross, self.width, upper, score),
            Accel::PartitionGpu => (self.width, KERNEL_SIZE),
            // Partition; the tree never launches.
            Accel::Partition | Accel::Aabb => (1, 1),
        };
        let (ga, gb) = (a.groups(sk_a), b.groups(sk_b));
        let mut best = upper;
        let mut tests = 0u64;
        // Flushing every `flush` packed pairs bounds the pack buffer and
        // tightens `best`, so later group pairs — for distance, sorted by
        // ascending box bound — are cut by results already computed, and
        // an early hit skips packing the rest entirely.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (lb, i, j) in group_pairs(ga, gb) {
            if lb >= best {
                break;
            }
            for &fi in ga.group(i) {
                pairs.extend(gb.group(j).iter().map(|&fj| (fi, fj)));
            }
            if pairs.len() >= flush {
                let (d, n) = gpu::launch(ta, tb, Pairs::Packed(&pairs), width, best, score);
                tests += n;
                best = d;
                pairs.clear();
                if is_exactly_zero(best) {
                    return (0.0, tests);
                }
            }
        }
        let (d, n) = gpu::launch(ta, tb, Pairs::Packed(&pairs), width, best, score);
        (d, tests + n)
    }
}

/// The intersection walk: group pairs whose boxes overlap, in group order.
fn overlapping(ga: &GroupedFaces, gb: &GroupedFaces) -> Vec<(f64, usize, usize)> {
    ga.non_empty()
        .flat_map(|(i, bi)| {
            gb.non_empty()
                .filter(move |(_, bj)| bi.intersects(bj))
                .map(move |(j, _)| (0.0, i, j))
        })
        .collect()
}

/// The distance walk: every group pair, nearest boxes first.
fn by_distance(ga: &GroupedFaces, gb: &GroupedFaces) -> Vec<(f64, usize, usize)> {
    let mut out: Vec<_> = ga
        .non_empty()
        .flat_map(|(i, bi)| gb.non_empty().map(move |(j, bj)| (bi.min_dist2(bj), i, j)))
        .collect();
    out.sort_by(|x, y| x.0.total_cmp(&y.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::sample_skeleton;
    use tripro_geom::{vec3, Triangle};

    fn sheet(n: usize, z: f64) -> LodData {
        let mut tris = Vec::new();
        for x in 0..n {
            for y in 0..n {
                let p = vec3(x as f64, y as f64, z);
                tris.push(Triangle::new(
                    p,
                    p + vec3(1.0, 0.0, 0.0),
                    p + vec3(0.0, 1.0, 0.0),
                ));
                tris.push(Triangle::new(
                    p + vec3(1.0, 0.0, 0.0),
                    p + vec3(1.0, 1.0, 0.0),
                    p + vec3(0.0, 1.0, 0.0),
                ));
            }
        }
        LodData::new(tris)
    }

    fn skeleton_of(d: &LodData, k: usize) -> Vec<Vec3> {
        let pts: Vec<Vec3> = d.triangles.iter().map(|t| t.centroid()).collect();
        sample_skeleton(&pts, k)
    }

    #[test]
    fn all_strategies_agree_on_distance() {
        let a = sheet(6, 0.0);
        let b = sheet(6, 4.0);
        let sk_a = skeleton_of(&a, 4);
        let sk_b = skeleton_of(&b, 4);
        let stats = ExecStats::new();
        let mut results = Vec::new();
        for accel in Accel::ALL {
            let c = Computer::new(accel, 4);
            let d2 = c.min_dist2(&a, &b, &sk_a, &sk_b, f64::INFINITY, &stats);
            results.push((accel, d2));
        }
        for (accel, d2) in &results {
            assert!((d2 - 16.0).abs() < 1e-9, "{accel:?} got {d2}");
        }
        assert!(stats.snapshot().face_pair_tests > 0);
    }

    #[test]
    fn all_strategies_agree_on_intersection() {
        let a = sheet(5, 0.0);
        // Tilted sheet crossing a's plane in the middle.
        let mut crossing = Vec::new();
        for x in 0..5 {
            let p = vec3(x as f64, 2.0, -1.0);
            crossing.push(Triangle::new(
                p,
                p + vec3(1.0, 0.0, 0.0),
                p + vec3(0.0, 0.5, 2.0),
            ));
        }
        let b = LodData::new(crossing);
        let far = sheet(5, 9.0);
        let sk_a = skeleton_of(&a, 3);
        let sk_b = skeleton_of(&b, 2);
        let sk_far = skeleton_of(&far, 3);
        let stats = ExecStats::new();
        for accel in Accel::ALL {
            let c = Computer::new(accel, 4);
            assert!(
                c.intersects(&a, &b, &sk_a, &sk_b, &stats),
                "{accel:?} missed hit"
            );
            assert!(
                !c.intersects(&a, &far, &sk_a, &sk_far, &stats),
                "{accel:?} false hit"
            );
        }
    }

    #[test]
    fn upper_bound_short_circuits() {
        let a = sheet(4, 0.0);
        let b = sheet(4, 10.0);
        let stats = ExecStats::new();
        for accel in Accel::ALL {
            let c = Computer::new(accel, 2);
            // True d² = 100; seed 9 ⇒ answer stays 9.
            let d2 = c.min_dist2(&a, &b, &[], &[], 9.0, &stats);
            assert_eq!(d2, 9.0, "{accel:?}");
        }
    }

    #[test]
    fn partition_gpu_chunked_flush_matches_unchunked() {
        // Partition flushes after every group pair, Partition+GPU every
        // KERNEL_SIZE packed pairs: answers must not change, and the
        // tighter bound of the finer flush can only reduce the pairs
        // actually evaluated.
        let a = sheet(6, 0.0);
        let b = sheet(6, 4.0);
        let sk_a = skeleton_of(&a, 4);
        let sk_b = skeleton_of(&b, 4);
        let fine = Computer::new(Accel::Partition, 2);
        let coarse = Computer::new(Accel::PartitionGpu, 2);
        let s_fine = ExecStats::new();
        let s_coarse = ExecStats::new();
        let d_fine = fine.min_dist2(&a, &b, &sk_a, &sk_b, f64::INFINITY, &s_fine);
        let d_coarse = coarse.min_dist2(&a, &b, &sk_a, &sk_b, f64::INFINITY, &s_coarse);
        assert!((d_fine - d_coarse).abs() < 1e-12);
        assert!((d_fine - 16.0).abs() < 1e-9);
        assert!(
            s_fine.snapshot().face_pair_tests <= s_coarse.snapshot().face_pair_tests,
            "per-group-pair flush must not test more pairs"
        );
        // Intersection variant, a miss and a hit under both flushes.
        let touching = sheet(6, 0.0);
        for c in [&fine, &coarse] {
            assert!(!c.intersects(&a, &b, &sk_a, &sk_b, &s_fine));
            assert!(c.intersects(&a, &touching, &sk_a, &sk_a, &s_fine));
        }
    }

    #[test]
    fn partition_prunes_pairs() {
        // Two long thin strips far apart except at one end: partition should
        // skip most group pairs.
        let mut a_tris = Vec::new();
        let mut b_tris = Vec::new();
        for x in 0..40 {
            let p = vec3(x as f64, 0.0, 0.0);
            a_tris.push(Triangle::new(
                p,
                p + vec3(1.0, 0.0, 0.0),
                p + vec3(0.0, 1.0, 0.0),
            ));
            let q = vec3(x as f64, 0.0, 3.0 + x as f64 * 0.5);
            b_tris.push(Triangle::new(
                q,
                q + vec3(1.0, 0.0, 0.0),
                q + vec3(0.0, 1.0, 0.0),
            ));
        }
        let a = LodData::new(a_tris);
        let b = LodData::new(b_tris);
        let sk_a = skeleton_of(&a, 8);
        let sk_b = skeleton_of(&b, 8);
        let s_brute = ExecStats::new();
        let s_part = ExecStats::new();
        let brute =
            Computer::new(Accel::Brute, 1).min_dist2(&a, &b, &[], &[], f64::INFINITY, &s_brute);
        let part = Computer::new(Accel::Partition, 1).min_dist2(
            &a,
            &b,
            &sk_a,
            &sk_b,
            f64::INFINITY,
            &s_part,
        );
        assert!((brute - part).abs() < 1e-9);
        assert!(
            s_part.snapshot().face_pair_tests < s_brute.snapshot().face_pair_tests / 2,
            "partition {} vs brute {}",
            s_part.snapshot().face_pair_tests,
            s_brute.snapshot().face_pair_tests
        );
    }
}
