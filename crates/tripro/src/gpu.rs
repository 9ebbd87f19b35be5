//! The face-pair kernel (paper §5.1): one launch loop behind every
//! strategy of Table 1 except the AABB-tree.
//!
//! **Substitution note (see DESIGN.md):** this environment has no CUDA
//! device, so the GPU columns are simulated by a data-parallel launch loop
//! that preserves the GPU code path's structure: face pairs come from a
//! pair source (the full cross product, or a packed `(u32, u32)` buffer),
//! are split into fixed-size *kernel launches*, and each launch is executed
//! by a worker over contiguous memory with no per-pair dispatch overhead.
//! Early exit happens only at launch granularity, exactly like polling a
//! device-side flag between kernels. The CPU columns run the same loop at
//! width 1.
//!
//! Workers come from the process-wide [`crate::pool`] — a launch wakes
//! parked threads instead of spawning fresh ones. The launches are also
//! what §5.2's resource manager reduces to on this host: one shared queue
//! of fixed-size tasks, claimed by whichever pool participant is free,
//! caller included.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use tripro_geom::{is_exactly_zero, tri_tri_intersect, Aabb, Triangle};

/// Number of face pairs evaluated per simulated kernel launch.
pub const KERNEL_SIZE: usize = 8192;

/// Where a launch reads its face pairs from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pairs<'p> {
    /// Every `(a[i], b[j])`, row-major.
    Cross,
    /// An explicit packed buffer of `(i, j)` indices.
    Packed(&'p [(u32, u32)]),
}

/// Per-pair score of the intersection kernel: zero on a hit, so the
/// launch's zero short-circuit is intersection's early exit. It has no
/// use for the first face's box or the running bound.
pub(crate) fn hit_score(x: &Triangle, _: &Aabb, y: &Triangle, _: f64) -> f64 {
    if tri_tri_intersect(x, y) {
        0.0
    } else {
        f64::INFINITY
    }
}

/// Minimum of `score` over `pairs` of `a × b`, in [`KERNEL_SIZE`] launches
/// claimed by up to `width` pool participants. `upper` seeds the running
/// minimum; a zero score stops every participant at its next claim.
/// Returns `(min(upper, minimum score), pairs_tested)`.
///
/// `score(x, x.aabb(), y, bound)` must return the pair's exact score when
/// that is below `bound`, and anything `≥ bound` otherwise; every pair it
/// is called on counts as tested. The bound is the best score this
/// launch knows of: the shared minimum when the chunk was claimed, lowered
/// by the chunk's own finds. A cross-product chunk walks row by row,
/// computing each `a` face's box once.
// ORDERING: every atomic here is Relaxed on purpose — `stop` and the claim
// counter are advisory early-exit/work-claiming hints with no data
// published under them, `best_bits` is a monotone minimum maintained by a
// CAS loop that re-validates against the current value, and the pool's
// `run_with` join is the happens-before edge that makes all results
// visible to the caller. The load of `best_bits` at a claim may be stale:
// the minimum only falls, so a stale value is still ≥ the final answer and
// still a sound bound — it only rejects fewer pairs.
pub(crate) fn launch<F>(
    a: &[Triangle],
    b: &[Triangle],
    pairs: Pairs<'_>,
    width: usize,
    upper: f64,
    score: F,
) -> (f64, u64)
where
    F: Fn(&Triangle, &Aabb, &Triangle, f64) -> f64 + Sync,
{
    let total = match pairs {
        Pairs::Cross => a.len() * b.len(),
        Pairs::Packed(p) => p.len(),
    };
    if total == 0 {
        return (upper, 0);
    }
    let kernels = total.div_ceil(KERNEL_SIZE);
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let tested = AtomicU64::new(0);
    let best_bits = AtomicU64::new(upper.to_bits());
    crate::pool::global().run_with(width.clamp(1, kernels) - 1, |_| loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= kernels {
            return;
        }
        let range = k * KERNEL_SIZE..((k + 1) * KERNEL_SIZE).min(total);
        // The bound starts at the shared minimum, so a score at or above it
        // leaves the chunk's best as it was.
        let mut local_best = f64::from_bits(best_bits.load(Ordering::Relaxed));
        let mut local = 0u64;
        // `true` once this pair scores zero: nothing can beat it.
        let mut eval = |x: &Triangle, x_box: &Aabb, y: &Triangle| {
            local += 1;
            let s = score(x, x_box, y, local_best);
            local_best = local_best.min(s);
            if is_exactly_zero(s) {
                stop.store(true, Ordering::Relaxed);
                return true;
            }
            false
        };
        match pairs {
            Pairs::Cross => {
                let n = b.len();
                let first = range.start / n;
                'rows: for (i, x) in (first..).zip(&a[first..range.end.div_ceil(n)]) {
                    let row = i * n;
                    let x_box = x.aabb();
                    for y in &b[range.start.max(row) - row..range.end.min(row + n) - row] {
                        if eval(x, &x_box, y) {
                            break 'rows;
                        }
                    }
                }
            }
            Pairs::Packed(p) => {
                for &(i, j) in &p[range] {
                    let x = &a[i as usize];
                    if eval(x, &x.aabb(), &b[j as usize]) {
                        break;
                    }
                }
            }
        }
        tested.fetch_add(local, Ordering::Relaxed);
        // Lock-free running minimum (f64 bits are monotone for
        // non-negative values).
        let mut cur = best_bits.load(Ordering::Relaxed);
        while f64::from_bits(cur) > local_best {
            match best_bits.compare_exchange_weak(
                cur,
                local_best.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    });
    let best = if stop.load(Ordering::Relaxed) {
        0.0
    } else {
        f64::from_bits(best_bits.load(Ordering::Relaxed))
    };
    (best, tested.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tripro_geom::{tri_tri_dist2, tri_tri_dist2_below_boxed as dist2, vec3};

    fn sheet(n: usize, z: f64) -> Vec<Triangle> {
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
        tris
    }

    fn hits(a: &[Triangle], b: &[Triangle], pairs: Pairs<'_>, width: usize) -> (bool, u64) {
        let (d, n) = launch(a, b, pairs, width, f64::INFINITY, hit_score);
        (is_exactly_zero(d), n)
    }

    #[test]
    fn intersect_detects() {
        let a = sheet(6, 0.0);
        let poker = vec![Triangle::new(
            vec3(3.2, 3.2, -1.0),
            vec3(3.3, 3.2, 1.0),
            vec3(3.2, 3.4, 1.0),
        )];
        let (hit, tested) = hits(&a, &poker, Pairs::Cross, 4);
        assert!(hit);
        assert!(tested > 0);
        let b = sheet(6, 5.0);
        let (miss, tested2) = hits(&a, &b, Pairs::Cross, 4);
        assert!(!miss);
        assert_eq!(tested2, (a.len() * b.len()) as u64, "no early exit on miss");
    }

    #[test]
    fn min_dist_matches_brute() {
        let a = sheet(5, 0.0);
        let b = sheet(5, 2.5);
        let brute = a
            .iter()
            .flat_map(|x| b.iter().map(move |y| tri_tri_dist2(x, y)))
            .fold(f64::INFINITY, f64::min);
        let (d2, _) = launch(&a, &b, Pairs::Cross, 4, f64::INFINITY, dist2);
        assert!((d2 - brute).abs() < 1e-12);
        assert!((d2 - 6.25).abs() < 1e-12);
    }

    #[test]
    fn min_dist_zero_short_circuits() {
        let a = sheet(4, 0.0);
        let (d2, _) = launch(&a, &a, Pairs::Cross, 2, f64::INFINITY, dist2);
        assert_eq!(d2, 0.0);
    }

    #[test]
    fn upper_seed_is_respected() {
        let a = sheet(3, 0.0);
        let b = sheet(3, 10.0);
        // True d2 = 100; a seed of 50 stays (nothing improves it).
        let (d2, _) = launch(&a, &b, Pairs::Cross, 2, 50.0, dist2);
        assert_eq!(d2, 50.0);
    }

    #[test]
    fn pair_buffer_variants() {
        let a = sheet(3, 0.0);
        let b = sheet(3, 2.0);
        let all: Vec<(u32, u32)> = (0..a.len() as u32)
            .flat_map(|i| (0..b.len() as u32).map(move |j| (i, j)))
            .collect();
        let packed = Pairs::Packed(&all);
        let (d2, n) = launch(&a, &b, packed, 3, f64::INFINITY, dist2);
        assert!((d2 - 4.0).abs() < 1e-12);
        assert_eq!(n, all.len() as u64);
        assert!(!hits(&a, &b, packed, 3).0);
        assert!(hits(&a, &a, Pairs::Packed(&all[..5]), 3).0);
        // Empty buffers.
        let empty = Pairs::Packed(&[]);
        assert_eq!(launch(&a, &b, empty, 3, 7.0, dist2), (7.0, 0));
        assert_eq!(hits(&a, &b, empty, 3), (false, 0));
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(hits(&[], &sheet(2, 0.0), Pairs::Cross, 2), (false, 0));
        let (d2, n) = launch(&sheet(2, 0.0), &[], Pairs::Cross, 2, 3.0, dist2);
        assert_eq!((d2, n), (3.0, 0));
    }
}
