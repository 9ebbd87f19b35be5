//! Axis-aligned bounding boxes and the MINDIST/MAXDIST distance ranges used
//! by the R-tree traversals (paper §4.2–4.3, following Roussopoulos et al.).

use crate::vec3::{vec3, Vec3};

/// An axis-aligned bounding box, possibly empty.
///
/// The empty box is represented by `lo > hi` on every axis and behaves as the
/// identity of [`Aabb::union`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub lo: Vec3,
    pub hi: Vec3,
}

impl Aabb {
    /// The empty box (identity for `union`, intersects nothing).
    pub const EMPTY: Aabb = Aabb {
        lo: vec3(f64::INFINITY, f64::INFINITY, f64::INFINITY),
        hi: vec3(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    /// Box from explicit corners. `lo` must be component-wise ≤ `hi`
    /// for a non-empty box; no normalisation is performed.
    #[inline]
    pub const fn new(lo: Vec3, hi: Vec3) -> Self {
        Self { lo, hi }
    }

    /// Smallest box containing both corner points, in any order.
    #[inline]
    pub fn from_corners(a: Vec3, b: Vec3) -> Self {
        Self {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Degenerate box containing a single point.
    #[inline]
    pub fn from_point(p: Vec3) -> Self {
        Self { lo: p, hi: p }
    }

    /// Smallest box containing all points; `EMPTY` if the iterator is empty.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(pts: I) -> Self {
        let mut b = Self::EMPTY;
        for p in pts {
            b.expand(p);
        }
        b
    }

    /// `true` when the box contains no points.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y || self.lo.z > self.hi.z
    }

    /// Grow to include `p`.
    #[inline]
    pub fn expand(&mut self, p: Vec3) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    /// Grow each side by `margin` (non-negative).
    #[inline]
    pub fn inflate(&self, margin: f64) -> Aabb {
        debug_assert!(margin >= 0.0);
        if self.is_empty() {
            return *self;
        }
        Aabb::new(self.lo - Vec3::splat(margin), self.hi + Vec3::splat(margin))
    }

    /// Smallest box containing both operands.
    #[inline]
    pub fn union(&self, rhs: &Aabb) -> Aabb {
        Aabb {
            lo: self.lo.min(rhs.lo),
            hi: self.hi.max(rhs.hi),
        }
    }

    /// `true` when the boxes share at least one point (closed boxes:
    /// touching faces count as intersecting).
    #[inline]
    #[must_use]
    pub fn intersects(&self, rhs: &Aabb) -> bool {
        self.lo.x <= rhs.hi.x
            && rhs.lo.x <= self.hi.x
            && self.lo.y <= rhs.hi.y
            && rhs.lo.y <= self.hi.y
            && self.lo.z <= rhs.hi.z
            && rhs.lo.z <= self.hi.z
    }

    /// `true` when `rhs` is entirely inside `self` (closed containment).
    #[inline]
    #[must_use]
    pub fn contains_box(&self, rhs: &Aabb) -> bool {
        !rhs.is_empty()
            && self.lo.x <= rhs.lo.x
            && self.lo.y <= rhs.lo.y
            && self.lo.z <= rhs.lo.z
            && self.hi.x >= rhs.hi.x
            && self.hi.y >= rhs.hi.y
            && self.hi.z >= rhs.hi.z
    }

    /// `true` when the point is inside or on the boundary.
    #[inline]
    #[must_use]
    pub fn contains_point(&self, p: Vec3) -> bool {
        self.lo.x <= p.x
            && p.x <= self.hi.x
            && self.lo.y <= p.y
            && p.y <= self.hi.y
            && self.lo.z <= p.z
            && p.z <= self.hi.z
    }

    /// Centre point (undefined for empty boxes).
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.lo + self.hi) * 0.5
    }

    /// Side lengths.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.hi - self.lo
    }

    /// Length of the main diagonal. This is the MAXDIST contribution of a
    /// single box per the paper's within-query bound.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.extent().norm()
        }
    }

    /// Surface area (used by tree build heuristics).
    #[inline]
    pub fn surface_area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        2.0 * (e.x * e.y + e.y * e.z + e.z * e.x)
    }

    /// Volume.
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// Squared minimum distance between the boxes (0 when they intersect).
    #[inline]
    pub fn min_dist2(&self, rhs: &Aabb) -> f64 {
        let mut d2 = 0.0;
        for axis in 0..3 {
            let gap = (rhs.lo[axis] - self.hi[axis]).max(self.lo[axis] - rhs.hi[axis]);
            if gap > 0.0 {
                d2 += gap * gap;
            }
        }
        d2
    }

    /// Minimum distance between the boxes: the paper's `MINDIST` — the
    /// infimum of distances between any point pair covered by the two boxes.
    #[inline]
    pub fn min_dist(&self, rhs: &Aabb) -> f64 {
        self.min_dist2(rhs).sqrt()
    }

    /// The paper's `MAXDIST`: the diagonal of the union of the two MBBs — a
    /// guaranteed upper bound (supremum) on the distance between any point of
    /// one object and any point of the other when both objects are inside
    /// their MBBs.
    #[inline]
    pub fn max_dist(&self, rhs: &Aabb) -> f64 {
        self.union(rhs).diagonal()
    }

    /// Squared minimum distance from a point to the box (0 inside).
    #[inline]
    pub fn min_dist2_point(&self, p: Vec3) -> f64 {
        let mut d2 = 0.0;
        for axis in 0..3 {
            let gap = (self.lo[axis] - p[axis]).max(p[axis] - self.hi[axis]);
            if gap > 0.0 {
                d2 += gap * gap;
            }
        }
        d2
    }

    /// Distance range `[MINDIST, MAXDIST]` between two boxes (paper §4.2).
    #[inline]
    pub fn dist_range(&self, rhs: &Aabb) -> DistRange {
        DistRange {
            min: self.min_dist(rhs),
            max: self.max_dist(rhs),
        }
    }

    /// The 8 corner points (non-empty boxes only).
    pub fn corners(&self) -> [Vec3; 8] {
        let (l, h) = (self.lo, self.hi);
        [
            vec3(l.x, l.y, l.z),
            vec3(h.x, l.y, l.z),
            vec3(l.x, h.y, l.z),
            vec3(h.x, h.y, l.z),
            vec3(l.x, l.y, h.z),
            vec3(h.x, l.y, h.z),
            vec3(l.x, h.y, h.z),
            vec3(h.x, h.y, h.z),
        ]
    }
}

/// An interval `[min, max]` bounding the (unknown) exact distance between two
/// objects — the progressive-refinement state for within and NN queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistRange {
    pub min: f64,
    pub max: f64,
}

impl DistRange {
    /// The degenerate range `[d, d]` of an exactly-known distance.
    #[inline]
    pub fn exact(d: f64) -> Self {
        Self { min: d, max: d }
    }

    /// `true` when this range is certainly closer than `rhs`
    /// (its supremum is below `rhs`'s infimum).
    #[inline]
    #[must_use]
    pub fn certainly_closer_than(&self, rhs: &DistRange) -> bool {
        self.max < rhs.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb {
        Aabb::from_corners(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn empty_behaviour() {
        let e = Aabb::EMPTY;
        assert!(e.is_empty());
        assert!(!e.intersects(&unit()));
        assert_eq!(e.union(&unit()), unit());
        assert_eq!(e.volume(), 0.0);
        assert_eq!(e.diagonal(), 0.0);
        assert_eq!(e.surface_area(), 0.0);
    }

    #[test]
    fn from_points_and_expand() {
        let b = Aabb::from_points([vec3(1.0, 5.0, -2.0), vec3(-1.0, 0.0, 4.0)]);
        assert_eq!(b.lo, vec3(-1.0, 0.0, -2.0));
        assert_eq!(b.hi, vec3(1.0, 5.0, 4.0));
        let mut c = b;
        c.expand(vec3(10.0, 0.0, 0.0));
        assert_eq!(c.hi.x, 10.0);
    }

    #[test]
    fn intersection_and_containment() {
        let a = unit();
        let b = Aabb::from_corners(vec3(0.5, 0.5, 0.5), vec3(2.0, 2.0, 2.0));
        let c = Aabb::from_corners(vec3(2.0, 2.0, 2.0), vec3(3.0, 3.0, 3.0));
        let d = Aabb::from_corners(vec3(0.25, 0.25, 0.25), vec3(0.75, 0.75, 0.75));
        assert!(a.intersects(&b));
        assert!(b.intersects(&c), "touching corners count as intersecting");
        assert!(!a.intersects(&c));
        assert!(a.contains_box(&d));
        assert!(!a.contains_box(&b));
        assert!(a.contains_point(vec3(1.0, 1.0, 1.0)));
        assert!(!a.contains_point(vec3(1.0, 1.0, 1.1)));
    }

    #[test]
    fn measures() {
        let b = Aabb::from_corners(Vec3::ZERO, vec3(1.0, 2.0, 3.0));
        assert_eq!(b.volume(), 6.0);
        assert_eq!(b.surface_area(), 2.0 * (2.0 + 6.0 + 3.0));
        assert!((b.diagonal() - 14f64.sqrt()).abs() < 1e-12);
        assert_eq!(b.center(), vec3(0.5, 1.0, 1.5));
        assert_eq!(b.extent(), vec3(1.0, 2.0, 3.0));
    }

    #[test]
    fn min_dist_between_boxes() {
        let a = unit();
        let b = Aabb::from_corners(vec3(2.0, 0.0, 0.0), vec3(3.0, 1.0, 1.0));
        assert_eq!(a.min_dist(&b), 1.0);
        // Diagonal separation.
        let c = Aabb::from_corners(vec3(2.0, 2.0, 2.0), vec3(3.0, 3.0, 3.0));
        assert!((a.min_dist(&c) - 3f64.sqrt()).abs() < 1e-12);
        // Overlapping boxes have distance 0.
        let d = Aabb::from_corners(vec3(0.5, 0.5, 0.5), vec3(4.0, 4.0, 4.0));
        assert_eq!(a.min_dist(&d), 0.0);
    }

    #[test]
    fn max_dist_is_union_diagonal() {
        let a = unit();
        let b = Aabb::from_corners(vec3(2.0, 0.0, 0.0), vec3(3.0, 1.0, 1.0));
        let expected = (9.0f64 + 1.0 + 1.0).sqrt();
        assert!((a.max_dist(&b) - expected).abs() < 1e-12);
        // MAXDIST must always dominate MINDIST.
        assert!(a.max_dist(&b) >= a.min_dist(&b));
    }

    #[test]
    fn point_distances() {
        let b = unit();
        assert_eq!(b.min_dist2_point(vec3(0.5, 0.5, 0.5)), 0.0);
        assert_eq!(b.min_dist2_point(vec3(2.0, 0.5, 0.5)), 1.0);
    }

    #[test]
    fn dist_range_ordering() {
        let near = DistRange { min: 0.0, max: 1.0 };
        let far = DistRange { min: 2.0, max: 5.0 };
        assert!(near.certainly_closer_than(&far));
        assert!(!far.certainly_closer_than(&near));
        let overlapping = DistRange { min: 0.5, max: 3.0 };
        assert!(!near.certainly_closer_than(&overlapping));
        assert_eq!(DistRange::exact(2.0), DistRange { min: 2.0, max: 2.0 });
    }

    #[test]
    fn inflate_and_corners() {
        let b = unit().inflate(1.0);
        assert_eq!(b.lo, vec3(-1.0, -1.0, -1.0));
        assert_eq!(b.hi, vec3(2.0, 2.0, 2.0));
        let cs = unit().corners();
        assert_eq!(cs.len(), 8);
        assert!(cs.iter().all(|c| unit().contains_point(*c)));
    }
}
