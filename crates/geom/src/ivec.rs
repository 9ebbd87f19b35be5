//! Exact integer lattice points and orientation predicates.
//!
//! 3DPro snaps all mesh coordinates to a uniform quantisation grid before
//! compression (see `tripro-mesh`). Orientation tests — in particular the
//! *protruding vertex* classification that underpins the PPVP subset
//! guarantee — are then evaluated on the integer grid coordinates with i128
//! intermediate precision, which is exact for coordinates up to ±2³⁰ per axis.

use std::ops::{Add, Neg, Sub};

/// Maximum absolute per-axis coordinate for which the exact predicates are
/// guaranteed overflow-free.
///
/// `orient3d` computes a 3×3 determinant of coordinate differences. With
/// |coordinate| ≤ 2³⁰, each difference fits in 31 bits, each 2×2 minor in
/// ~63 bits, and the full determinant in ~96 bits — comfortably inside i128.
pub const MAX_EXACT_COORD: i64 = 1 << 30;

/// A point on the integer quantisation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct IVec3 {
    pub x: i64,
    pub y: i64,
    pub z: i64,
}

/// Convenience constructor, equivalent to [`IVec3::new`].
#[inline]
pub const fn ivec3(x: i64, y: i64, z: i64) -> IVec3 {
    IVec3 { x, y, z }
}

impl IVec3 {
    pub const ZERO: IVec3 = ivec3(0, 0, 0);

    #[inline]
    pub const fn new(x: i64, y: i64, z: i64) -> Self {
        Self { x, y, z }
    }

    /// Exact dot product with i128 accumulation.
    #[inline]
    pub fn dot(self, rhs: IVec3) -> i128 {
        self.x as i128 * rhs.x as i128
            + self.y as i128 * rhs.y as i128
            + self.z as i128 * rhs.z as i128
    }

    /// Exact cross product. The result components fit in i128; for inputs
    /// bounded by [`MAX_EXACT_COORD`] they also fit in i64, but the wider
    /// type keeps follow-up dot products exact.
    #[inline]
    pub fn cross_wide(self, rhs: IVec3) -> (i128, i128, i128) {
        (
            self.y as i128 * rhs.z as i128 - self.z as i128 * rhs.y as i128,
            self.z as i128 * rhs.x as i128 - self.x as i128 * rhs.z as i128,
            self.x as i128 * rhs.y as i128 - self.y as i128 * rhs.x as i128,
        )
    }

    /// `true` when every axis is within the exact-predicate bound.
    #[inline]
    #[must_use]
    pub fn within_exact_bounds(self) -> bool {
        self.x.abs() <= MAX_EXACT_COORD
            && self.y.abs() <= MAX_EXACT_COORD
            && self.z.abs() <= MAX_EXACT_COORD
    }
}

impl Add for IVec3 {
    type Output = IVec3;
    #[inline]
    fn add(self, rhs: IVec3) -> IVec3 {
        ivec3(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl Sub for IVec3 {
    type Output = IVec3;
    #[inline]
    fn sub(self, rhs: IVec3) -> IVec3 {
        ivec3(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Neg for IVec3 {
    type Output = IVec3;
    #[inline]
    fn neg(self) -> IVec3 {
        ivec3(-self.x, -self.y, -self.z)
    }
}

/// Which side of an oriented plane a point lies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Strictly on the positive (outer, normal-pointing) side.
    Positive,
    /// Exactly on the plane.
    Coplanar,
    /// Strictly on the negative (inner) side.
    Negative,
}

/// Exact sign of the determinant
/// `det [b-a; c-a; d-a]`, i.e. the signed volume (×6) of tetrahedron `abcd`.
///
/// Returns [`Orientation::Positive`] when `d` lies on the side of plane
/// `abc` that its counter-clockwise normal (right-hand rule over `a→b→c`)
/// points towards.
///
/// Exact (no rounding) for all coordinates bounded by [`MAX_EXACT_COORD`].
pub fn orient3d(a: IVec3, b: IVec3, c: IVec3, d: IVec3) -> Orientation {
    let ab = b - a;
    let ac = c - a;
    let ad = d - a;
    let (nx, ny, nz) = ab.cross_wide(ac);
    let det = nx * ad.x as i128 + ny * ad.y as i128 + nz * ad.z as i128;
    match det.cmp(&0) {
        std::cmp::Ordering::Greater => Orientation::Positive,
        std::cmp::Ordering::Equal => Orientation::Coplanar,
        std::cmp::Ordering::Less => Orientation::Negative,
    }
}

/// `true` when triangle `abc` is degenerate (its vertices are collinear or
/// coincident), evaluated exactly.
#[must_use]
pub fn is_degenerate_tri(a: IVec3, b: IVec3, c: IVec3) -> bool {
    let (nx, ny, nz) = (b - a).cross_wide(c - a);
    nx == 0 && ny == 0 && nz == 0
}

/// Exact doubled-area-squared of triangle `abc` (squared norm of the cross
/// product). Useful for comparing triangle sizes without rounding.
pub fn doubled_area2(a: IVec3, b: IVec3, c: IVec3) -> i128 {
    let (nx, ny, nz) = (b - a).cross_wide(c - a);
    // Components fit in ~63 bits for bounded inputs, so squares fit in i128.
    nx * nx + ny * ny + nz * nz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_basic() {
        // abc counter-clockwise in the z=0 plane, normal towards +z.
        let a = ivec3(0, 0, 0);
        let b = ivec3(1, 0, 0);
        let c = ivec3(0, 1, 0);
        assert_eq!(orient3d(a, b, c, ivec3(0, 0, 1)), Orientation::Positive);
        assert_eq!(orient3d(a, b, c, ivec3(0, 0, -1)), Orientation::Negative);
        assert_eq!(orient3d(a, b, c, ivec3(5, 5, 0)), Orientation::Coplanar);
    }

    #[test]
    fn orientation_antisymmetry() {
        let a = ivec3(3, 1, 4);
        let b = ivec3(1, 5, 9);
        let c = ivec3(2, 6, 5);
        let d = ivec3(3, 5, 8);
        let o1 = orient3d(a, b, c, d);
        let o2 = orient3d(b, a, c, d);
        match (o1, o2) {
            (Orientation::Positive, Orientation::Negative)
            | (Orientation::Negative, Orientation::Positive)
            | (Orientation::Coplanar, Orientation::Coplanar) => {}
            other => panic!("swap of two rows must flip the sign, got {other:?}"),
        }
    }

    #[test]
    fn orientation_exact_at_extremes() {
        // A configuration that would suffer catastrophic cancellation in f64.
        let m = MAX_EXACT_COORD;
        let a = ivec3(m, m, m);
        let b = ivec3(m - 1, m, m);
        let c = ivec3(m, m - 1, m);
        // ab=(-1,0,0), ac=(0,-1,0) ⇒ normal (0,0,1); d one step below the
        // plane z=m is on the negative side.
        assert_eq!(orient3d(a, b, c, ivec3(m, m, m - 1)), Orientation::Negative);
        assert_eq!(
            orient3d(a, b, c, ivec3(m - 5, m - 7, m)),
            Orientation::Coplanar
        );
    }

    #[test]
    fn degenerate_detection() {
        assert!(is_degenerate_tri(
            ivec3(0, 0, 0),
            ivec3(1, 1, 1),
            ivec3(2, 2, 2)
        ));
        assert!(is_degenerate_tri(
            ivec3(4, 4, 4),
            ivec3(4, 4, 4),
            ivec3(9, 0, 0)
        ));
        assert!(!is_degenerate_tri(
            ivec3(0, 0, 0),
            ivec3(1, 0, 0),
            ivec3(0, 1, 0)
        ));
    }

    #[test]
    fn area_matches_float() {
        let a = ivec3(0, 0, 0);
        let b = ivec3(4, 0, 0);
        let c = ivec3(0, 3, 0);
        // |cross| = 12 => doubled_area2 = 144.
        assert_eq!(doubled_area2(a, b, c), 144);
    }

    #[test]
    fn vector_ops() {
        let a = ivec3(1, 2, 3);
        let b = ivec3(10, 20, 30);
        assert_eq!(a + b, ivec3(11, 22, 33));
        assert_eq!(b - a, ivec3(9, 18, 27));
        assert_eq!(-a, ivec3(-1, -2, -3));
        assert_eq!(a.dot(b), 140);
        assert!(a.within_exact_bounds());
        assert!(!ivec3(MAX_EXACT_COORD + 1, 0, 0).within_exact_bounds());
    }
}
