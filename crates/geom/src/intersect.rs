//! Intersection predicates: triangle–triangle (Möller's interval test),
//! ray–triangle (Möller–Trumbore), segment–triangle, and AABB–triangle
//! (separating-axis, Akenine-Möller).
//!
//! The triangle–triangle test is the hot kernel of the intersection join:
//! two polyhedra intersect iff any face pair intersects or one contains the
//! other (paper §4.1).

use crate::eps::{is_exactly_zero, PLANE_EPS};
use crate::tri::Triangle;
use crate::vec3::Vec3;

/// Result of casting a ray against a triangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RayHit {
    /// The ray cleanly crosses the triangle interior at parameter `t ≥ 0`.
    Hit(f64),
    /// No intersection.
    Miss,
    /// The crossing is numerically ambiguous (grazes an edge/vertex or the
    /// ray is (near-)parallel to the plane while touching it). Callers doing
    /// parity counting should re-cast with a different direction.
    Ambiguous,
}

/// Möller–Trumbore ray/triangle intersection.
///
/// `origin + t * dir` for `t ≥ 0`. Distinguishes clean interior hits from
/// ambiguous grazes so that point-in-polyhedron parity counting can re-cast.
pub fn ray_triangle(origin: Vec3, dir: Vec3, tri: &Triangle) -> RayHit {
    let e1 = tri.b - tri.a;
    let e2 = tri.c - tri.a;
    let p = dir.cross(e2);
    let det = e1.dot(p);
    let scale = e1.norm() * e2.norm() * dir.norm();
    if det.abs() <= PLANE_EPS * scale.max(1e-300) {
        // Parallel (or degenerate triangle). If the origin is far from the
        // plane this is a clean miss; otherwise ambiguous.
        let n = e1.cross(e2);
        let d = (origin - tri.a).dot(n);
        if is_exactly_zero(n.norm2())
            || d.abs() <= PLANE_EPS * n.norm() * (origin - tri.a).norm().max(1.0)
        {
            return RayHit::Ambiguous;
        }
        return RayHit::Miss;
    }
    let inv_det = 1.0 / det;
    let s = origin - tri.a;
    let u = s.dot(p) * inv_det;
    let q = s.cross(e1);
    let v = dir.dot(q) * inv_det;
    let t = e2.dot(q) * inv_det;

    let edge_eps = 1e-10;
    if u < -edge_eps || v < -edge_eps || u + v > 1.0 + edge_eps || t < -edge_eps {
        return RayHit::Miss;
    }
    if u < edge_eps || v < edge_eps || u + v > 1.0 - edge_eps || t < edge_eps {
        return RayHit::Ambiguous;
    }
    RayHit::Hit(t)
}

/// `true` when segment `[p, q]` intersects the (closed) triangle.
#[must_use]
pub fn segment_triangle(p: Vec3, q: Vec3, tri: &Triangle) -> bool {
    let dir = q - p;
    match ray_triangle(p, dir, tri) {
        RayHit::Hit(t) => t <= 1.0,
        RayHit::Miss => false,
        RayHit::Ambiguous => {
            // Fall back to the symmetric tri-tri machinery by treating the
            // segment as a degenerate sliver; cheap conservative answer via
            // distance: the segment touches the triangle iff their distance
            // is ~0. Avoided here to keep the dependency direction clean —
            // instead test both endpoints and the plane crossing explicitly.
            let n = tri.scaled_normal();
            if is_exactly_zero(n.norm2()) {
                return false;
            }
            let dp = (p - tri.a).dot(n);
            let dq = (q - tri.a).dot(n);
            if dp * dq > 0.0 {
                return false;
            }
            // Crossing point (or either endpoint if coplanar).
            let t = if (dp - dq).abs() > 0.0 {
                dp / (dp - dq)
            } else {
                0.5
            };
            let x = p.lerp(q, t.clamp(0.0, 1.0));
            point_in_triangle_coplanar(x, tri, 1e-9)
        }
    }
}

/// `true` when point `x`, assumed (near-)coplanar with the triangle,
/// falls inside it (inclusive of the boundary within `eps`).
#[must_use]
pub fn point_in_triangle_coplanar(x: Vec3, tri: &Triangle, eps: f64) -> bool {
    let n = tri.scaled_normal();
    if is_exactly_zero(n.norm2()) {
        return false;
    }
    for (s, e) in tri.edges() {
        // x must be on the inner side of every edge.
        let side = (e - s).cross(x - s).dot(n);
        if side < -eps * n.norm2().max(1.0) {
            return false;
        }
    }
    true
}

/// Triangle–triangle intersection test (Möller 1997 interval method, with a
/// coplanar fallback). Closed test: touching counts as intersecting.
#[must_use]
pub fn tri_tri_intersect(t1: &Triangle, t2: &Triangle) -> bool {
    // Plane of t2.
    let (n2, du) = plane_offsets(t1, t2);
    let scale2 = n2.norm().max(1e-300);
    let eps1 = PLANE_EPS
        * scale2
        * t1.vertices()
            .iter()
            .map(|v| v.norm())
            .fold(1.0f64, f64::max);
    let du = [
        clamp_small(du[0], eps1),
        clamp_small(du[1], eps1),
        clamp_small(du[2], eps1),
    ];
    if du[0] > 0.0 && du[1] > 0.0 && du[2] > 0.0 {
        return false;
    }
    if du[0] < 0.0 && du[1] < 0.0 && du[2] < 0.0 {
        return false;
    }

    // Plane of t1.
    let (n1, dv) = plane_offsets(t2, t1);
    let scale1 = n1.norm().max(1e-300);
    let eps2 = PLANE_EPS
        * scale1
        * t2.vertices()
            .iter()
            .map(|v| v.norm())
            .fold(1.0f64, f64::max);
    let dv = [
        clamp_small(dv[0], eps2),
        clamp_small(dv[1], eps2),
        clamp_small(dv[2], eps2),
    ];
    if dv[0] > 0.0 && dv[1] > 0.0 && dv[2] > 0.0 {
        return false;
    }
    if dv[0] < 0.0 && dv[1] < 0.0 && dv[2] < 0.0 {
        return false;
    }

    // Intersection line direction.
    let d = n1.cross(n2);
    if d.norm2() <= (scale1 * scale2 * PLANE_EPS) * (scale1 * scale2 * PLANE_EPS) {
        // Coplanar (parallel planes at zero offset — offsets were checked
        // above via the du/dv sign tests).
        return coplanar_tri_tri(t1, t2, n1);
    }

    // Project onto the dominant axis of D.
    let axis = d.dominant_axis();
    let up = [t1.a[axis], t1.b[axis], t1.c[axis]];
    let vp = [t2.a[axis], t2.b[axis], t2.c[axis]];

    let i1 = interval(up, du);
    let i2 = interval(vp, dv);
    match (i1, i2) {
        (Some((a0, a1)), Some((b0, b1))) => a0.max(b0) <= a1.min(b1),
        // A triangle that never crosses the other's plane (after the sign
        // checks this means it lies exactly in it) — treat via coplanar path.
        _ => coplanar_tri_tri(t1, t2, n1),
    }
}

/// `t2`'s scaled normal `n`, and the offsets of `t1`'s corners from `t2`'s
/// plane in units of `1 / |n|`, before any contact clamp.
#[inline]
fn plane_offsets(t1: &Triangle, t2: &Triangle) -> (Vec3, [f64; 3]) {
    let n = t2.scaled_normal();
    let d = -n.dot(t2.a);
    (n, [n.dot(t1.a) + d, n.dot(t1.b) + d, n.dot(t1.c) + d])
}

/// A square-root-free sufficient condition for `!tri_tri_intersect(t1,
/// t2)`: every corner of `t1` lies on the same side of `t2`'s plane,
/// farther from it than the contact clamp `tri_tri_intersect` applies.
/// `scale` must be at least `max(1, |c|)` over `t1`'s coordinates `c`.
#[inline]
#[must_use]
pub(crate) fn beside_plane(t1: &Triangle, t2: &Triangle, scale: f64) -> bool {
    let (n, du) = plane_offsets(t1, t2);
    // Over-estimates `eps1` there: |n|₁ ≥ |n|, √3 · scale ≥ max(1, |v|),
    // and a factor of 2 absorbs the rounding of both products.
    let eps = 4.0 * PLANE_EPS * (n.x.abs() + n.y.abs() + n.z.abs()).max(1e-300) * scale;
    du.iter().all(|&d| d > eps) || du.iter().all(|&d| d < -eps)
}

#[inline]
fn clamp_small(v: f64, eps: f64) -> f64 {
    if v.abs() <= eps {
        0.0
    } else {
        v
    }
}

/// Interval of the intersection line (projected onto an axis) covered by a
/// triangle with projected vertices `p` and signed plane distances `d`.
fn interval(p: [f64; 3], d: [f64; 3]) -> Option<(f64, f64)> {
    // Find the vertex that is alone on one side (or on the plane).
    let mut ts: Vec<f64> = Vec::with_capacity(3);
    for i in 0..3 {
        for j in (i + 1)..3 {
            let (di, dj) = (d[i], d[j]);
            if di * dj < 0.0 {
                // Edge crosses the plane.
                let t = p[i] + (p[j] - p[i]) * di / (di - dj);
                ts.push(t);
            }
        }
    }
    // Vertices exactly on the plane contribute their own projection.
    for i in 0..3 {
        if is_exactly_zero(d[i]) {
            ts.push(p[i]);
        }
    }
    if ts.is_empty() {
        return None;
    }
    let lo = ts.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = ts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Some((lo, hi))
}

/// 2D overlap test for coplanar triangles: any edge pair intersects, or one
/// triangle contains a vertex of the other.
fn coplanar_tri_tri(t1: &Triangle, t2: &Triangle, n: Vec3) -> bool {
    let axis = n.dominant_axis();
    let (i, j) = match axis {
        0 => (1, 2),
        1 => (0, 2),
        _ => (0, 1),
    };
    let p1: Vec<(f64, f64)> = t1.vertices().iter().map(|v| (v[i], v[j])).collect();
    let p2: Vec<(f64, f64)> = t2.vertices().iter().map(|v| (v[i], v[j])).collect();

    for a in 0..3 {
        for b in 0..3 {
            if seg_seg_2d(p1[a], p1[(a + 1) % 3], p2[b], p2[(b + 1) % 3]) {
                return true;
            }
        }
    }
    point_in_tri_2d(p1[0], &p2) || point_in_tri_2d(p2[0], &p1)
}

fn orient2d(a: (f64, f64), b: (f64, f64), c: (f64, f64)) -> f64 {
    (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0)
}

fn seg_seg_2d(a: (f64, f64), b: (f64, f64), c: (f64, f64), d: (f64, f64)) -> bool {
    let d1 = orient2d(c, d, a);
    let d2 = orient2d(c, d, b);
    let d3 = orient2d(a, b, c);
    let d4 = orient2d(a, b, d);
    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true;
    }
    let on = |o: f64, p: (f64, f64), q: (f64, f64), r: (f64, f64)| {
        is_exactly_zero(o)
            && r.0 >= p.0.min(q.0)
            && r.0 <= p.0.max(q.0)
            && r.1 >= p.1.min(q.1)
            && r.1 <= p.1.max(q.1)
    };
    on(d1, c, d, a) || on(d2, c, d, b) || on(d3, a, b, c) || on(d4, a, b, d)
}

fn point_in_tri_2d(p: (f64, f64), t: &[(f64, f64)]) -> bool {
    let d1 = orient2d(t[0], t[1], p);
    let d2 = orient2d(t[1], t[2], p);
    let d3 = orient2d(t[2], t[0], p);
    let has_neg = d1 < 0.0 || d2 < 0.0 || d3 < 0.0;
    let has_pos = d1 > 0.0 || d2 > 0.0 || d3 > 0.0;
    !(has_neg && has_pos)
}

/// AABB–triangle overlap via the separating-axis theorem
/// (Akenine-Möller's 13-axis test). Closed test.
#[must_use]
pub fn aabb_triangle(bb: &crate::aabb::Aabb, tri: &Triangle) -> bool {
    if bb.is_empty() {
        return false;
    }
    let c = bb.center();
    let h = bb.extent() * 0.5;
    let v0 = tri.a - c;
    let v1 = tri.b - c;
    let v2 = tri.c - c;
    let e0 = v1 - v0;
    let e1 = v2 - v1;
    let e2 = v0 - v2;

    // 9 cross-product axes.
    let axes = [
        Vec3::X.cross(e0),
        Vec3::X.cross(e1),
        Vec3::X.cross(e2),
        Vec3::Y.cross(e0),
        Vec3::Y.cross(e1),
        Vec3::Y.cross(e2),
        Vec3::Z.cross(e0),
        Vec3::Z.cross(e1),
        Vec3::Z.cross(e2),
    ];
    for ax in axes {
        let p0 = v0.dot(ax);
        let p1 = v1.dot(ax);
        let p2 = v2.dot(ax);
        let r = h.x * ax.x.abs() + h.y * ax.y.abs() + h.z * ax.z.abs();
        let lo = p0.min(p1).min(p2);
        let hi = p0.max(p1).max(p2);
        if lo > r || hi < -r {
            return false;
        }
    }

    // 3 box face normals.
    for axis in 0..3 {
        let lo = v0[axis].min(v1[axis]).min(v2[axis]);
        let hi = v0[axis].max(v1[axis]).max(v2[axis]);
        if lo > h[axis] || hi < -h[axis] {
            return false;
        }
    }

    // Triangle plane normal.
    let n = e0.cross(e1);
    let r = h.x * n.x.abs() + h.y * n.y.abs() + h.z * n.z.abs();
    let d = v0.dot(n);
    d.abs() <= r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aabb::Aabb;
    use crate::vec3::vec3;

    fn xy_tri() -> Triangle {
        Triangle::new(
            vec3(0.0, 0.0, 0.0),
            vec3(2.0, 0.0, 0.0),
            vec3(0.0, 2.0, 0.0),
        )
    }

    #[test]
    fn ray_hits_interior() {
        let t = xy_tri();
        match ray_triangle(vec3(0.5, 0.5, -1.0), vec3(0.0, 0.0, 1.0), &t) {
            RayHit::Hit(tv) => assert!((tv - 1.0).abs() < 1e-12),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn ray_misses() {
        let t = xy_tri();
        assert_eq!(
            ray_triangle(vec3(5.0, 5.0, -1.0), vec3(0.0, 0.0, 1.0), &t),
            RayHit::Miss
        );
        // Pointing away.
        assert_eq!(
            ray_triangle(vec3(0.5, 0.5, -1.0), vec3(0.0, 0.0, -1.0), &t),
            RayHit::Miss
        );
    }

    #[test]
    fn ray_graze_is_ambiguous() {
        let t = xy_tri();
        // Straight through the edge a-b.
        match ray_triangle(vec3(1.0, 0.0, -1.0), vec3(0.0, 0.0, 1.0), &t) {
            RayHit::Ambiguous => {}
            other => panic!("expected ambiguous, got {other:?}"),
        }
        // Parallel ray in the triangle plane.
        match ray_triangle(vec3(-1.0, 0.5, 0.0), vec3(1.0, 0.0, 0.0), &t) {
            RayHit::Ambiguous => {}
            other => panic!("expected ambiguous, got {other:?}"),
        }
    }

    #[test]
    fn segment_crossing() {
        let t = xy_tri();
        assert!(segment_triangle(
            vec3(0.5, 0.5, -1.0),
            vec3(0.5, 0.5, 1.0),
            &t
        ));
        assert!(!segment_triangle(
            vec3(0.5, 0.5, 0.5),
            vec3(0.5, 0.5, 1.0),
            &t
        ));
        assert!(!segment_triangle(
            vec3(5.0, 5.0, -1.0),
            vec3(5.0, 5.0, 1.0),
            &t
        ));
    }

    #[test]
    fn tri_tri_crossing_planes() {
        let t1 = xy_tri();
        // Vertical triangle crossing t1's interior.
        let t2 = Triangle::new(
            vec3(0.5, 0.5, -1.0),
            vec3(0.5, 0.5, 1.0),
            vec3(1.5, 0.5, 0.0),
        );
        assert!(tri_tri_intersect(&t1, &t2));
        assert!(tri_tri_intersect(&t2, &t1), "test must be symmetric");
    }

    #[test]
    fn tri_tri_separated() {
        let t1 = xy_tri();
        let t2 = Triangle::new(
            vec3(0.0, 0.0, 1.0),
            vec3(2.0, 0.0, 1.0),
            vec3(0.0, 2.0, 1.0),
        );
        assert!(!tri_tri_intersect(&t1, &t2));
        // Same plane, far away.
        let t3 = Triangle::new(
            vec3(10.0, 10.0, 0.0),
            vec3(12.0, 10.0, 0.0),
            vec3(10.0, 12.0, 0.0),
        );
        assert!(!tri_tri_intersect(&t1, &t3));
    }

    #[test]
    fn tri_tri_coplanar_overlap() {
        let t1 = xy_tri();
        let t2 = Triangle::new(
            vec3(0.5, 0.5, 0.0),
            vec3(2.5, 0.5, 0.0),
            vec3(0.5, 2.5, 0.0),
        );
        assert!(tri_tri_intersect(&t1, &t2));
        // Coplanar containment (t3 strictly inside t1): no edge crossings.
        let t3 = Triangle::new(
            vec3(0.2, 0.2, 0.0),
            vec3(0.6, 0.2, 0.0),
            vec3(0.2, 0.6, 0.0),
        );
        assert!(tri_tri_intersect(&t1, &t3));
    }

    #[test]
    fn tri_tri_vertex_touch() {
        let t1 = xy_tri();
        // Shares exactly the vertex (2,0,0), otherwise disjoint, non-coplanar.
        let t2 = Triangle::new(
            vec3(2.0, 0.0, 0.0),
            vec3(3.0, 0.0, 1.0),
            vec3(3.0, 1.0, 1.0),
        );
        assert!(tri_tri_intersect(&t1, &t2));
    }

    #[test]
    fn tri_tri_plane_crossed_but_outside() {
        let t1 = xy_tri();
        // Crosses t1's plane but far outside t1's extent.
        let t2 = Triangle::new(
            vec3(10.0, 10.0, -1.0),
            vec3(10.0, 11.0, 1.0),
            vec3(11.0, 10.0, 1.0),
        );
        assert!(!tri_tri_intersect(&t1, &t2));
    }

    #[test]
    fn aabb_tri_tests() {
        let bb = Aabb::from_corners(Vec3::ZERO, Vec3::ONE);
        assert!(aabb_triangle(&bb, &xy_tri()));
        // Far away.
        let t = Triangle::new(
            vec3(5.0, 5.0, 5.0),
            vec3(6.0, 5.0, 5.0),
            vec3(5.0, 6.0, 5.0),
        );
        assert!(!aabb_triangle(&bb, &t));
        // Large triangle slicing through the box without any vertex inside.
        let t = Triangle::new(
            vec3(-10.0, -10.0, 0.5),
            vec3(20.0, -10.0, 0.5),
            vec3(0.0, 20.0, 0.5),
        );
        assert!(aabb_triangle(&bb, &t));
        // Triangle plane near box but separated along the normal.
        let t = Triangle::new(
            vec3(-10.0, -10.0, 1.5),
            vec3(20.0, -10.0, 1.5),
            vec3(0.0, 20.0, 1.5),
        );
        assert!(!aabb_triangle(&bb, &t));
        assert!(!aabb_triangle(&Aabb::EMPTY, &xy_tri()));
    }

    #[test]
    fn point_in_triangle_coplanar_cases() {
        let t = xy_tri();
        assert!(point_in_triangle_coplanar(vec3(0.5, 0.5, 0.0), &t, 1e-12));
        assert!(point_in_triangle_coplanar(vec3(0.0, 0.0, 0.0), &t, 1e-12));
        assert!(!point_in_triangle_coplanar(vec3(2.0, 2.0, 0.0), &t, 1e-12));
    }
}
