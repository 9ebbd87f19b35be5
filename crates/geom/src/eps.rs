//! Tolerance-aware float comparison — the only module in the workspace
//! allowed to compare floats with `==`/`!=` (enforced by `cargo xtask lint`,
//! rule `float_eq`; see `docs/invariants.md`).
//!
//! Geometry predicates fall into two camps, and conflating them is a classic
//! source of silent wrong answers:
//!
//! * **Exact-zero tests** on quantities that are zero *by construction* —
//!   e.g. a cross product of parallel vectors, a plane distance of a point
//!   lying on the plane's defining triangle. These want bit-exact `== 0.0`
//!   ([`is_exactly_zero`]) and tolerating an epsilon would misclassify
//!   nearly-degenerate inputs.
//! * **Approximate comparisons** on accumulated arithmetic, where a relative
//!   + absolute tolerance ([`approx_eq`], [`approx_zero`]) absorbs rounding.
//!
//! By funnelling both through named helpers, every call site documents which
//! camp it is in, and the lint rule makes sure nobody writes a naked `==`.

/// Default absolute tolerance for [`approx_zero`] / [`approx_eq`] on
/// coordinates in world units. Chosen to sit well below the quantisation
/// grid step used by the coder while staying far above f64 rounding noise.
pub const ABS_EPS: f64 = 1e-9;

/// Default relative tolerance for [`approx_eq`].
pub const REL_EPS: f64 = 1e-12;

/// Contact tolerance of [`crate::tri_tri_intersect`]: a vertex closer than
/// `PLANE_EPS · max(1, |v|)` to the other triangle's plane counts as lying
/// on it, so a pair that close may be scored as touching.
pub const PLANE_EPS: f64 = 1e-12;

/// Slack of [`crate::distance::tri_tri_dist2_below`]'s box-gap reject: the
/// gap between two triangles' boxes is shrunk on every axis by
/// `BOX_GAP_SLACK · max(1, largest |coordinate| of either box)` before it is
/// compared with the bound. The closest points the 15 feature tests compute
/// can stray outside their triangle's box by a few ulps of that scale; the
/// slack is ~10⁶ ulps, so rounding never lifts the reject over a pair that
/// would beat the bound.
pub const BOX_GAP_SLACK: f64 = 1e-9;

/// Bit-exact zero test (`x == 0.0`, matching both `+0.0` and `-0.0`).
///
/// Use when the value is zero by construction (degenerate cross product,
/// sentinel, unset accumulator) — NOT for "small after arithmetic", which is
/// [`approx_zero`]'s job.
#[inline]
#[must_use]
pub fn is_exactly_zero(x: f64) -> bool {
    x == 0.0
}

/// Bit-exact equality (`a == b`). NaN is equal to nothing, like `==`.
///
/// Use for sentinel/cached values that are copied, never recomputed.
#[inline]
#[must_use]
pub fn is_exactly(a: f64, b: f64) -> bool {
    a == b
}

/// `|x| <= ABS_EPS` — absolute-tolerance zero test for accumulated
/// arithmetic. Rejects NaN.
#[inline]
#[must_use]
pub fn approx_zero(x: f64) -> bool {
    x.abs() <= ABS_EPS
}

/// `|x| <= eps` with a caller-chosen tolerance. Rejects NaN.
#[inline]
#[must_use]
pub fn approx_zero_eps(x: f64, eps: f64) -> bool {
    x.abs() <= eps
}

/// Mixed absolute/relative equality: true when
/// `|a-b| <= max(ABS_EPS, REL_EPS * max(|a|,|b|))`. Rejects NaN; infinities
/// are equal only to themselves.
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    if !a.is_finite() || !b.is_finite() {
        // An infinite scale would make the relative threshold infinite and
        // accept any pair; equal infinities are the only non-finite match.
        return a == b;
    }
    let diff = (a - b).abs();
    let scale = a.abs().max(b.abs());
    diff <= ABS_EPS.max(REL_EPS * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_zero_matches_both_signs() {
        assert!(is_exactly_zero(0.0));
        assert!(is_exactly_zero(-0.0));
        assert!(!is_exactly_zero(f64::MIN_POSITIVE));
        assert!(!is_exactly_zero(f64::NAN));
    }

    #[test]
    fn exact_eq_is_bitwise_semantics() {
        assert!(is_exactly(1.5, 1.5));
        assert!(!is_exactly(1.5, 1.5 + f64::EPSILON * 2.0));
        assert!(!is_exactly(f64::NAN, f64::NAN));
    }

    #[test]
    fn approx_zero_absorbs_rounding() {
        let residue = 0.1 + 0.2 - 0.3; // ~5.5e-17
        assert!(!is_exactly_zero(residue));
        assert!(approx_zero(residue));
        assert!(!approx_zero(1e-6));
        assert!(!approx_zero(f64::NAN));
    }

    #[test]
    fn approx_eq_scales_with_magnitude() {
        assert!(approx_eq(1.0e15, 1.0e15 + 1.0)); // within relative tol
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY));
        assert!(!approx_eq(f64::INFINITY, f64::NEG_INFINITY));
        assert!(!approx_eq(f64::NAN, f64::NAN));
    }

    #[test]
    fn custom_eps() {
        assert!(approx_zero_eps(0.5, 1.0));
        assert!(!approx_zero_eps(0.5, 0.1));
    }
}
