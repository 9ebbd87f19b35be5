//! Distance computations between points, segments and triangles.
//!
//! Triangle–triangle distance is the hot kernel of within and
//! nearest-neighbour queries (paper §4.2–4.3): the distance between two
//! polyhedra equals the minimum over all face pairs.
//!
//! Closest-point formulations follow Ericson, *Real-Time Collision
//! Detection* (2005), §5.1.

use crate::aabb::Aabb;
use crate::eps::{is_exactly_zero, BOX_GAP_SLACK};
use crate::intersect::{beside_plane, tri_tri_intersect};
use crate::tri::Triangle;
use crate::vec3::Vec3;

/// Closest point on segment `[a, b]` to point `p`.
pub fn closest_point_on_segment(p: Vec3, a: Vec3, b: Vec3) -> Vec3 {
    let ab = b - a;
    let denom = ab.norm2();
    if is_exactly_zero(denom) {
        return a;
    }
    let t = ((p - a).dot(ab) / denom).clamp(0.0, 1.0);
    a + ab * t
}

/// Closest point on a triangle to point `p` (Ericson §5.1.5, Voronoi-region
/// classification; robust for degenerate triangles via edge fallbacks).
pub fn closest_point_on_triangle(p: Vec3, t: &Triangle) -> Vec3 {
    let (a, b, c) = (t.a, t.b, t.c);
    let ab = b - a;
    let ac = c - a;
    let ap = p - a;

    let d1 = ab.dot(ap);
    let d2 = ac.dot(ap);
    if d1 <= 0.0 && d2 <= 0.0 {
        return a; // vertex region A
    }

    let bp = p - b;
    let d3 = ab.dot(bp);
    let d4 = ac.dot(bp);
    if d3 >= 0.0 && d4 <= d3 {
        return b; // vertex region B
    }

    let vc = d1 * d4 - d3 * d2;
    if vc <= 0.0 && d1 >= 0.0 && d3 <= 0.0 {
        let denom = d1 - d3;
        let v = if is_exactly_zero(denom) {
            0.0
        } else {
            d1 / denom
        };
        return a + ab * v; // edge region AB
    }

    let cp = p - c;
    let d5 = ab.dot(cp);
    let d6 = ac.dot(cp);
    if d6 >= 0.0 && d5 <= d6 {
        return c; // vertex region C
    }

    let vb = d5 * d2 - d1 * d6;
    if vb <= 0.0 && d2 >= 0.0 && d6 <= 0.0 {
        let denom = d2 - d6;
        let w = if is_exactly_zero(denom) {
            0.0
        } else {
            d2 / denom
        };
        return a + ac * w; // edge region AC
    }

    let va = d3 * d6 - d5 * d4;
    if va <= 0.0 && (d4 - d3) >= 0.0 && (d5 - d6) >= 0.0 {
        let denom = (d4 - d3) + (d5 - d6);
        let w = if is_exactly_zero(denom) {
            0.0
        } else {
            (d4 - d3) / denom
        };
        return b + (c - b) * w; // edge region BC
    }

    // Interior region.
    let denom = va + vb + vc;
    if denom.abs() < f64::MIN_POSITIVE {
        // Degenerate triangle — fall back to the closest edge.
        let q1 = closest_point_on_segment(p, a, b);
        let q2 = closest_point_on_segment(p, b, c);
        let q3 = closest_point_on_segment(p, c, a);
        let mut best = q1;
        if p.dist2(q2) < p.dist2(best) {
            best = q2;
        }
        if p.dist2(q3) < p.dist2(best) {
            best = q3;
        }
        return best;
    }
    let v = vb / denom;
    let w = vc / denom;
    a + ab * v + ac * w
}

/// Squared distance from point `p` to a triangle.
#[inline]
pub fn point_triangle_dist2(p: Vec3, t: &Triangle) -> f64 {
    p.dist2(closest_point_on_triangle(p, t))
}

/// Closest points between segments `[p1, q1]` and `[p2, q2]`
/// (Ericson §5.1.9). Returns `(point on first, point on second)`.
pub fn closest_points_segments(p1: Vec3, q1: Vec3, p2: Vec3, q2: Vec3) -> (Vec3, Vec3) {
    let d1 = q1 - p1;
    let d2 = q2 - p2;
    let r = p1 - p2;
    let a = d1.norm2();
    let e = d2.norm2();
    let f = d2.dot(r);

    let (s, t);
    if is_exactly_zero(a) && is_exactly_zero(e) {
        return (p1, p2);
    }
    if is_exactly_zero(a) {
        s = 0.0;
        t = (f / e).clamp(0.0, 1.0);
    } else {
        let c = d1.dot(r);
        if is_exactly_zero(e) {
            t = 0.0;
            s = (-c / a).clamp(0.0, 1.0);
        } else {
            let b = d1.dot(d2);
            let denom = a * e - b * b;
            let mut s_ = if is_exactly_zero(denom) {
                0.0
            } else {
                ((b * f - c * e) / denom).clamp(0.0, 1.0)
            };
            let mut t_ = (b * s_ + f) / e;
            if t_ < 0.0 {
                t_ = 0.0;
                s_ = (-c / a).clamp(0.0, 1.0);
            } else if t_ > 1.0 {
                t_ = 1.0;
                s_ = ((b - c) / a).clamp(0.0, 1.0);
            }
            s = s_;
            t = t_;
        }
    }
    (p1 + d1 * s, p2 + d2 * t)
}

/// Squared distance between two segments.
#[inline]
pub fn segment_segment_dist2(p1: Vec3, q1: Vec3, p2: Vec3, q2: Vec3) -> f64 {
    let (x, y) = closest_points_segments(p1, q1, p2, q2);
    x.dist2(y)
}

/// Squared distance between two triangles, **assuming they do not
/// intersect**. Minimum over the 6 vertex–triangle and 9 edge–edge pairs.
pub fn tri_tri_dist2_disjoint(t1: &Triangle, t2: &Triangle) -> f64 {
    let mut best = f64::INFINITY;
    for v in t1.vertices() {
        best = best.min(point_triangle_dist2(v, t2));
    }
    for v in t2.vertices() {
        best = best.min(point_triangle_dist2(v, t1));
    }
    for (a1, b1) in t1.edges() {
        for (a2, b2) in t2.edges() {
            best = best.min(segment_segment_dist2(a1, b1, a2, b2));
        }
    }
    best
}

/// Squared distance between two triangles (0 when they intersect).
pub fn tri_tri_dist2(t1: &Triangle, t2: &Triangle) -> f64 {
    let d2 = tri_tri_dist2_disjoint(t1, t2);
    if d2 > 0.0 && tri_tri_intersect(t1, t2) {
        return 0.0;
    }
    d2
}

/// [`tri_tri_dist2`] for a caller that only needs it below `bound`: exactly
/// `tri_tri_dist2(t1, t2)` whenever that is `< bound`, otherwise some value
/// `≥ bound`. A pair whose vertex boxes are farther apart than `bound`
/// allows costs one box test instead of the 15 closest-feature tests.
#[inline]
pub fn tri_tri_dist2_below(t1: &Triangle, t2: &Triangle, bound: f64) -> f64 {
    tri_tri_dist2_below_boxed(t1, &t1.aabb(), t2, bound)
}

/// [`tri_tri_dist2_below`] with `t1`'s box (`t1.aabb()`) computed once by
/// the caller, for loops that pair one triangle with many.
///
/// The reject compares the squared box gap, each axis shrunk by
/// [`BOX_GAP_SLACK`] of the pair's coordinate scale, with `bound`. Two
/// kinds of pair are never rejected:
/// * a pair whose shrunk gap is zero (overlapping or near-touching boxes),
///   so a bound of zero still lets a touching pair score 0;
/// * a pair [`tri_tri_intersect`] calls touching. Its contact tolerance is
///   [`PLANE_EPS`](crate::eps::PLANE_EPS) along a plane normal but grows
///   as `1 / sin` of the angle between near-parallel planes, and for a
///   zero-area face it decides in a projection; [`tri_tri_dist2`] scores
///   all of those 0, so this form must too. A pair the box rejects is
///   cleared by a square-root-free plane-side test, or failing that by
///   the predicate itself.
#[inline]
pub fn tri_tri_dist2_below_boxed(t1: &Triangle, box1: &Aabb, t2: &Triangle, bound: f64) -> f64 {
    let box2 = t2.aabb();
    let scale = box1
        .lo
        .abs()
        .max(box1.hi.abs())
        .max(box2.lo.abs())
        .max(box2.hi.abs())
        .max_component()
        .max(1.0);
    let gap = (box2.lo - box1.hi).max(box1.lo - box2.hi) - Vec3::splat(BOX_GAP_SLACK * scale);
    let gap2 = gap.max(Vec3::ZERO).norm2();
    // `t2` against `t1`'s plane: a loop over one `t1` hoists the normal.
    if gap2 > 0.0 && gap2 >= bound && (beside_plane(t2, t1, scale) || !tri_tri_intersect(t1, t2)) {
        return gap2;
    }
    tri_tri_dist2(t1, t2)
}

/// Distance between two triangles.
#[inline]
pub fn tri_tri_dist(t1: &Triangle, t2: &Triangle) -> f64 {
    tri_tri_dist2(t1, t2).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::vec3;

    fn xy_tri() -> Triangle {
        Triangle::new(
            vec3(0.0, 0.0, 0.0),
            vec3(2.0, 0.0, 0.0),
            vec3(0.0, 2.0, 0.0),
        )
    }

    #[test]
    fn point_segment() {
        let a = vec3(0.0, 0.0, 0.0);
        let b = vec3(2.0, 0.0, 0.0);
        assert_eq!(
            closest_point_on_segment(vec3(1.0, 1.0, 0.0), a, b),
            vec3(1.0, 0.0, 0.0)
        );
        assert_eq!(closest_point_on_segment(vec3(-1.0, 1.0, 0.0), a, b), a);
        assert_eq!(closest_point_on_segment(vec3(9.0, 1.0, 0.0), a, b), b);
        // Degenerate segment.
        assert_eq!(closest_point_on_segment(vec3(5.0, 0.0, 0.0), a, a), a);
    }

    #[test]
    fn point_triangle_regions() {
        let t = xy_tri();
        // Interior projection.
        assert_eq!(
            closest_point_on_triangle(vec3(0.5, 0.5, 3.0), &t),
            vec3(0.5, 0.5, 0.0)
        );
        // Vertex regions.
        assert_eq!(closest_point_on_triangle(vec3(-1.0, -1.0, 0.0), &t), t.a);
        assert_eq!(closest_point_on_triangle(vec3(3.0, -1.0, 0.0), &t), t.b);
        assert_eq!(closest_point_on_triangle(vec3(-1.0, 3.0, 0.0), &t), t.c);
        // Edge regions.
        assert_eq!(
            closest_point_on_triangle(vec3(1.0, -2.0, 0.0), &t),
            vec3(1.0, 0.0, 0.0)
        );
        assert_eq!(
            closest_point_on_triangle(vec3(-2.0, 1.0, 0.0), &t),
            vec3(0.0, 1.0, 0.0)
        );
        // Hypotenuse.
        let q = closest_point_on_triangle(vec3(2.0, 2.0, 0.0), &t);
        assert!((q - vec3(1.0, 1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn point_degenerate_triangle() {
        let t = Triangle::new(
            vec3(0.0, 0.0, 0.0),
            vec3(1.0, 0.0, 0.0),
            vec3(2.0, 0.0, 0.0),
        );
        let q = closest_point_on_triangle(vec3(1.0, 1.0, 0.0), &t);
        assert!((q - vec3(1.0, 0.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn segment_segment_cases() {
        // Crossing (in projection), unit vertical gap.
        let d2 = segment_segment_dist2(
            vec3(-1.0, 0.0, 0.0),
            vec3(1.0, 0.0, 0.0),
            vec3(0.0, -1.0, 1.0),
            vec3(0.0, 1.0, 1.0),
        );
        assert!((d2 - 1.0).abs() < 1e-12);
        // Parallel segments.
        let d2 = segment_segment_dist2(
            vec3(0.0, 0.0, 0.0),
            vec3(1.0, 0.0, 0.0),
            vec3(0.0, 2.0, 0.0),
            vec3(1.0, 2.0, 0.0),
        );
        assert!((d2 - 4.0).abs() < 1e-12);
        // Endpoint to endpoint.
        let d2 = segment_segment_dist2(
            vec3(0.0, 0.0, 0.0),
            vec3(1.0, 0.0, 0.0),
            vec3(3.0, 0.0, 0.0),
            vec3(4.0, 0.0, 0.0),
        );
        assert!((d2 - 4.0).abs() < 1e-12);
        // Degenerate (point) segments.
        let d2 = segment_segment_dist2(
            vec3(0.0, 0.0, 0.0),
            vec3(0.0, 0.0, 0.0),
            vec3(0.0, 3.0, 4.0),
            vec3(0.0, 3.0, 4.0),
        );
        assert!((d2 - 25.0).abs() < 1e-12);
    }

    #[test]
    fn tri_tri_parallel_planes() {
        let t1 = xy_tri();
        let t2 = Triangle::new(
            vec3(0.0, 0.0, 2.0),
            vec3(2.0, 0.0, 2.0),
            vec3(0.0, 2.0, 2.0),
        );
        assert!((tri_tri_dist(&t1, &t2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tri_tri_edge_edge_closest() {
        let t1 = xy_tri();
        // A triangle whose closest feature to t1's hypotenuse is an edge.
        let t2 = Triangle::new(
            vec3(2.0, 2.0, 1.0),
            vec3(3.0, 2.0, 1.0),
            vec3(2.0, 3.0, 1.0),
        );
        // Closest pair: (1,1,0) on t1's hypotenuse and t2's vertex (2,2,1),
        // so d = √(1² + 1² + 1²) = √3.
        assert!((tri_tri_dist(&t1, &t2) - 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn tri_tri_intersecting_is_zero() {
        let t1 = xy_tri();
        let t2 = Triangle::new(
            vec3(0.5, 0.5, -1.0),
            vec3(0.5, 0.5, 1.0),
            vec3(1.5, 0.5, 0.0),
        );
        assert_eq!(tri_tri_dist(&t1, &t2), 0.0);
    }

    #[test]
    fn tri_tri_distance_symmetry() {
        let t1 = xy_tri();
        let t2 = Triangle::new(
            vec3(5.0, 1.0, 2.0),
            vec3(6.0, 1.5, 2.5),
            vec3(5.0, 3.0, 4.0),
        );
        assert!((tri_tri_dist(&t1, &t2) - tri_tri_dist(&t2, &t1)).abs() < 1e-12);
    }
}
