//! Double-precision 3D vectors and points.
//!
//! `Vec3` is the floating-point workhorse used by all distance and
//! intersection computations. Exact predicates on quantised coordinates use
//! [`crate::ivec::IVec3`] instead.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub, SubAssign};

/// A 3D vector (or point) with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

/// Convenience constructor, equivalent to [`Vec3::new`].
#[inline]
pub const fn vec3(x: f64, y: f64, z: f64) -> Vec3 {
    Vec3 { x, y, z }
}

impl Vec3 {
    pub const ZERO: Vec3 = vec3(0.0, 0.0, 0.0);
    pub const ONE: Vec3 = vec3(1.0, 1.0, 1.0);
    pub const X: Vec3 = vec3(1.0, 0.0, 0.0);
    pub const Y: Vec3 = vec3(0.0, 1.0, 0.0);
    pub const Z: Vec3 = vec3(0.0, 0.0, 1.0);

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Vector with all three components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Self { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f64 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product (right-handed).
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        vec3(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Squared Euclidean length.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn dist2(self, rhs: Vec3) -> f64 {
        (self - rhs).norm2()
    }

    /// Distance to another point.
    #[inline]
    pub fn dist(self, rhs: Vec3) -> f64 {
        self.dist2(rhs).sqrt()
    }

    /// Unit vector in the same direction. Returns `None` for (near-)zero
    /// vectors, where normalisation is meaningless.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            Some(self / n)
        } else {
            None
        }
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, rhs: Vec3) -> Vec3 {
        vec3(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, rhs: Vec3) -> Vec3 {
        vec3(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        vec3(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Linear interpolation: `self` at `t = 0`, `rhs` at `t = 1`.
    #[inline]
    pub fn lerp(self, rhs: Vec3, t: f64) -> Vec3 {
        self + (rhs - self) * t
    }

    /// Largest component.
    #[inline]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// Index (0, 1 or 2) of the component with the largest absolute value.
    #[inline]
    pub fn dominant_axis(self) -> usize {
        let a = self.abs();
        if a.x >= a.y && a.x >= a.z {
            0
        } else if a.y >= a.z {
            1
        } else {
            2
        }
    }

    /// `true` when all components are finite.
    #[inline]
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Components as an array, handy for per-axis loops.
    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            // tripro_lint::allow(no_panic): Index's contract is total; an out-of-range axis is a caller bug, not a runtime condition
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        vec3(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        vec3(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        vec3(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        vec3(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        vec3(-self.x, -self.y, -self.z)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = vec3(1.0, 2.0, 3.0);
        let b = vec3(4.0, 5.0, 6.0);
        assert_eq!(a + b, vec3(5.0, 7.0, 9.0));
        assert_eq!(b - a, vec3(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, vec3(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, vec3(0.5, 1.0, 1.5));
        assert_eq!(-a, vec3(-1.0, -2.0, -3.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = vec3(1.0, 0.0, 0.0);
        let b = vec3(0.0, 1.0, 0.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), vec3(0.0, 0.0, 1.0));
        assert_eq!(b.cross(a), vec3(0.0, 0.0, -1.0));
        // Cross product is perpendicular to its operands.
        let u = vec3(1.5, -2.0, 0.25);
        let v = vec3(0.5, 3.0, -1.0);
        let c = u.cross(v);
        assert!(c.dot(u).abs() < 1e-12);
        assert!(c.dot(v).abs() < 1e-12);
    }

    #[test]
    fn norms_and_distances() {
        let a = vec3(3.0, 4.0, 0.0);
        assert_eq!(a.norm2(), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(Vec3::ZERO.dist(a), 5.0);
        assert_eq!(a.dist2(Vec3::ZERO), 25.0);
    }

    #[test]
    fn normalized() {
        let a = vec3(0.0, 0.0, 2.0);
        assert_eq!(a.normalized(), Some(vec3(0.0, 0.0, 1.0)));
        assert_eq!(Vec3::ZERO.normalized(), None);
    }

    #[test]
    fn component_ops() {
        let a = vec3(1.0, 5.0, -3.0);
        let b = vec3(2.0, 4.0, -1.0);
        assert_eq!(a.min(b), vec3(1.0, 4.0, -3.0));
        assert_eq!(a.max(b), vec3(2.0, 5.0, -1.0));
        assert_eq!(a.abs(), vec3(1.0, 5.0, 3.0));
        assert_eq!(a.max_component(), 5.0);
        assert_eq!(a.dominant_axis(), 1);
        assert_eq!(vec3(-9.0, 1.0, 2.0).dominant_axis(), 0);
        assert_eq!(vec3(0.0, 1.0, 2.0).dominant_axis(), 2);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = vec3(0.0, 0.0, 0.0);
        let b = vec3(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), vec3(1.0, 2.0, 3.0));
    }

    #[test]
    fn indexing() {
        let a = vec3(7.0, 8.0, 9.0);
        assert_eq!(a[0], 7.0);
        assert_eq!(a[1], 8.0);
        assert_eq!(a[2], 9.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = vec3(0.0, 0.0, 0.0)[3];
    }

    #[test]
    fn array_roundtrip() {
        let a = vec3(1.0, -2.0, 3.5);
        let [x, y, z] = a.to_array();
        assert_eq!(vec3(x, y, z), a);
    }
}
