//! Soundness of the bounded face-pair distance: `tri_tri_dist2_below(t1,
//! t2, b)` equals `tri_tri_dist2(t1, t2)` bit for bit whenever the latter
//! is `< b`, and is `≥ b` otherwise — on random pairs and on the geometry
//! its box-gap reject is fragile on: contact, coplanar and degenerate
//! faces, gaps at the `PLANE_EPS` and `BOX_GAP_SLACK` scales, and large
//! coordinates.

use proptest::prelude::*;
use tripro_geom::eps::{BOX_GAP_SLACK, PLANE_EPS};
use tripro_geom::{tri_tri_dist2, tri_tri_dist2_below, vec3, Triangle, Vec3};

/// Next representable value above / below a finite non-negative `x`.
fn ulp_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn ulp_down(x: f64) -> f64 {
    if x > 0.0 {
        f64::from_bits(x.to_bits() - 1)
    } else {
        -f64::MIN_POSITIVE
    }
}

fn check(t1: &Triangle, t2: &Triangle, bound: f64) {
    let full = tri_tri_dist2(t1, t2);
    let got = tri_tri_dist2_below(t1, t2, bound);
    if full < bound {
        assert_eq!(
            got.to_bits(),
            full.to_bits(),
            "{t1:?} {t2:?} bound {bound:e}: got {got:e}, want {full:e}"
        );
    } else {
        assert!(got >= bound, "{t1:?} {t2:?} bound {bound:e}: got {got:e}");
    }
}

/// The property at the true d², one ulp either side, and a spread of
/// bounds from zero to infinity, in both argument orders.
fn check_pair(t1: &Triangle, t2: &Triangle) {
    for (x, y) in [(t1, t2), (t2, t1)] {
        let d = tri_tri_dist2(x, y);
        for bound in [
            d,
            ulp_up(d),
            ulp_down(d),
            0.0,
            f64::MIN_POSITIVE,
            d * 0.5,
            d * (1.0 + 1e-12),
            d * 2.0 + 1.0,
            f64::INFINITY,
        ] {
            check(x, y, bound);
        }
    }
}

fn tri(a: Vec3, b: Vec3, c: Vec3) -> Triangle {
    Triangle::new(a, b, c)
}

fn shifted(t: &Triangle, by: Vec3) -> Triangle {
    tri(t.a + by, t.b + by, t.c + by)
}

/// A unit right triangle in the z = 0 plane, moved by `at`.
fn base(at: Vec3) -> Triangle {
    shifted(
        &tri(Vec3::ZERO, vec3(1.0, 0.0, 0.0), vec3(0.0, 1.0, 0.0)),
        at,
    )
}

const OFFSETS: [Vec3; 3] = [Vec3::ZERO, vec3(1e6, 1e6, 1e6), vec3(-1e6, 3.0, 1e6)];

#[test]
fn contact_and_coplanar_pairs() {
    for at in OFFSETS {
        let t = base(at);
        let cases = [
            // Coplanar, overlapping and disjoint.
            shifted(&t, vec3(0.25, 0.25, 0.0)),
            shifted(&t, vec3(3.0, 0.0, 0.0)),
            // Sharing the edge from (1,0) to (0,1), folded out of plane.
            tri(t.b, t.c, at + vec3(1.0, 1.0, 0.5)),
            // Sharing that edge, coplanar.
            tri(t.b, t.c, at + vec3(1.0, 1.0, 0.0)),
            // Sharing one vertex only.
            tri(t.b, at + vec3(2.0, 0.0, 1.0), at + vec3(2.0, 1.0, 1.0)),
            // Crossing.
            tri(
                at + vec3(0.2, 0.2, -1.0),
                at + vec3(0.2, 0.2, 1.0),
                at + vec3(0.6, 0.2, 0.0),
            ),
            // Identical.
            t,
        ];
        for u in &cases {
            check_pair(&t, u);
        }
    }
}

#[test]
fn gaps_at_the_contact_and_slack_scales() {
    for at in OFFSETS {
        let t = base(at);
        let scale = at.abs().max_component().max(1.0) + 1.0;
        for tol in [PLANE_EPS, BOX_GAP_SLACK] {
            for k in [0.5, 1.0, 2.0] {
                let g = tol * scale * k;
                for u in [
                    // Parallel plane above: the box gap is along z only.
                    shifted(&t, vec3(0.0, 0.0, g)),
                    // Coplanar, beside t across a box face.
                    shifted(&t, vec3(1.0 + g, 0.0, 0.0)),
                    // Beside and above: a diagonal box gap.
                    shifted(&t, vec3(1.0 + g, 0.0, g)),
                    // A tilted face hovering over t's hypotenuse.
                    tri(
                        t.b + vec3(g, g, g),
                        t.c + vec3(g, g, g),
                        at + vec3(1.0, 1.0, 1.0),
                    ),
                ] {
                    check_pair(&t, &u);
                }
            }
        }
    }
}

#[test]
fn eps_touching_pairs_still_score_zero() {
    // Within the contact tolerance, tri_tri_intersect calls the pair
    // touching; the bounded form must reach that predicate under any
    // positive bound rather than reject on the box gap.
    for at in OFFSETS {
        let t = base(at);
        let scale = at.abs().max_component().max(1.0);
        let u = shifted(&t, vec3(0.0, 0.0, PLANE_EPS * scale * 0.5));
        assert_eq!(tri_tri_dist2(&t, &u), 0.0, "offset {at:?}");
        for bound in [f64::MIN_POSITIVE, 1e-300, 1.0] {
            assert_eq!(tri_tri_dist2_below(&t, &u, bound), 0.0);
        }
    }
}

#[test]
fn near_parallel_contact_is_not_rejected() {
    // t1's corner at the origin sits 5e-13 from t2's plane, which meets
    // t1's plane at an angle of 1e-6 along the line x = -x0: inside the
    // PLANE_EPS clamp, so tri_tri_intersect calls the pair touching though
    // their boxes are 2.5e-7 apart — far more than the slack.
    let (beta, x0) = (1e-6, 5e-7);
    let z = |x: f64| beta * (x + x0);
    let t1 = tri(Vec3::ZERO, vec3(1.0, -0.5, 0.0), vec3(1.0, 0.5, 0.0));
    let t2 = tri(
        vec3(-1.0, -1.0, z(-1.0)),
        vec3(-1.0, 1.0, z(-1.0)),
        vec3(-x0 / 2.0, 0.0, z(-x0 / 2.0)),
    );
    let gap = t1.aabb().min_dist2(&t2.aabb());
    assert!(gap > (BOX_GAP_SLACK * 100.0).powi(2), "box gap {gap:e}");
    assert_eq!(tri_tri_dist2(&t1, &t2), 0.0);
    for bound in [f64::MIN_POSITIVE, gap * 0.5, gap, 1.0] {
        assert_eq!(tri_tri_dist2_below(&t1, &t2, bound), 0.0);
        assert_eq!(tri_tri_dist2_below(&t2, &t1, bound), 0.0);
    }
    check_pair(&t1, &t2);
}

#[test]
fn rounding_below_the_box_gap() {
    // Found by a random search: the computed distance lands an ulp or
    // two under the squared gap between the vertex boxes, so without
    // BOX_GAP_SLACK the bound one ulp above it would reject the pair.
    let pairs = [
        (
            tri(
                vec3(80.01839613178197, 144.23681152877822, 386.3623429561209),
                vec3(-528.8462042888458, 187.4302888363064, -504.99387607005053),
                vec3(-209.7123566236656, 527.0832501280191, -390.945467044991),
            ),
            tri(
                vec3(871.7391151969589, -479.94187347340466, 2120.682692886126),
                vec3(989.3734008590513, -391.283961859076, 2183.7862854365067),
                vec3(162.88255888775316, -76.68559395661379, 386.3623642952367),
            ),
        ),
        (
            tri(
                vec3(-723.3547210593991, 624.0847342449046, -169.6689420322992),
                vec3(-158.00307646216206, 131.7056708378632, 996.7970415921357),
                vec3(-435.3575994197654, 225.3560678122981, -247.20026186247622),
            ),
            tri(
                vec3(491.96339972339655, -979.4993764127881, 1551.4704816240544),
                vec3(-155.84404668227614, -266.0893937674136, 997.3874348281872),
                vec3(818.5381782498685, -463.40278073696453, 1976.0995674484084),
            ),
        ),
        (
            tri(
                vec3(
                    5.041376013956356e-5,
                    -0.0007765146372703283,
                    -0.00037938285255982086,
                ),
                vec3(
                    -0.0004320866546391711,
                    0.0009618882012904999,
                    -8.931183001241538e-5,
                ),
                vec3(
                    0.0001770976773258015,
                    0.0008481338015687124,
                    -0.0007995257565449266,
                ),
            ),
            tri(
                vec3(
                    -0.0005077111772466518,
                    0.001387120039713497,
                    0.0006282244348340689,
                ),
                vec3(
                    -0.0008382698172958012,
                    0.00226295086825747,
                    6.577162070222853e-6,
                ),
                vec3(
                    -0.00044765648416257255,
                    0.0009618882013040263,
                    -1.9324619132106147e-6,
                ),
            ),
        ),
    ];
    for (t1, t2) in &pairs {
        let gap = t1.aabb().min_dist2(&t2.aabb());
        assert!(tri_tri_dist2(t1, t2) < gap, "{t1:?} {t2:?}");
        check_pair(t1, t2);
    }
}

#[test]
fn slivers_and_zero_area_faces() {
    for at in OFFSETS {
        let t = base(at);
        let p = at + vec3(0.3, 0.3, 0.7);
        let q = at + vec3(1.7, 0.9, 0.4);
        let degenerate = [
            // Collinear corners.
            tri(p, q, p.lerp(q, 0.5)),
            // Two equal corners.
            tri(p, p, q),
            // A single point.
            tri(p, p, p),
            // A sliver: third corner 1e-9 off the first edge.
            tri(p, q, p.lerp(q, 0.5) + vec3(0.0, 0.0, 1e-9)),
            // A needle touching t.
            tri(t.a, t.a + vec3(1e-12, 0.0, 0.0), at + vec3(0.5, 0.5, 1.0)),
            // A zero-area face lying in t's plane, across its hypotenuse.
            tri(
                at + vec3(0.2, 0.2, 0.0),
                at + vec3(1.2, 1.2, 0.0),
                at + vec3(0.7, 0.7, 0.0),
            ),
        ];
        for u in &degenerate {
            check_pair(&t, u);
            for v in &degenerate {
                check_pair(u, v);
            }
        }
    }
}

/// A triangle of size `size` around `centre`, corners drawn from `r`.
fn corners(centre: Vec3, size: f64, r: [f64; 9]) -> Triangle {
    let c = |i: usize| centre + vec3(r[i], r[i + 1], r[i + 2]) * size;
    tri(c(0), c(3), c(6))
}

fn unit9() -> impl Strategy<Value = [f64; 9]> {
    proptest::collection::vec(-1.0f64..1.0, 9..10).prop_map(|v| {
        let mut out = [0.0; 9];
        out.copy_from_slice(&v);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn bounded_distance_is_exact_below_the_bound(
        r1 in unit9(),
        r2 in unit9(),
        (dx, dy, dz) in (-3.0f64..3.0, -3.0f64..3.0, -3.0f64..3.0),
        size_exp in -3i32..2,
        offset in 0usize..3,
        flatten in 0u8..4,
    ) {
        let size = f64::from(size_exp).exp2();
        let at = OFFSETS[offset];
        let t1 = corners(at, size, r1);
        let mut t2 = corners(at + vec3(dx, dy, dz) * size, size, r2);
        // A quarter of the pairs put t2 in t1's plane at z = 0 (offset 0)
        // or squash it to a needle.
        match flatten {
            0 => t2 = tri(t2.a, t2.b, t2.a.lerp(t2.b, 0.25)),
            1 => {
                let z = t1.a.z;
                t2 = tri(
                    vec3(t2.a.x, t2.a.y, z),
                    vec3(t2.b.x, t2.b.y, z),
                    vec3(t2.c.x, t2.c.y, z),
                );
                let t1_flat = tri(t1.a, t1.b, vec3(t1.c.x, t1.c.y, z));
                check_pair(&t1_flat, &t2);
            }
            _ => {}
        }
        check_pair(&t1, &t2);
    }
}
