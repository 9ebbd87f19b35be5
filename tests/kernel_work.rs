//! Pins the face-pair work of every Table 1 strategy, one kernel call at a
//! time: for each strategy × {`intersects`, `min_dist2`} × fixture, the
//! answer and the number of face pairs tested. `Computer::new(accel, 1)`
//! keeps early exit deterministic. A kernel rewrite that returns the same
//! answers by testing different pairs — a lost early exit, a flush at
//! another boundary, a box cut that no longer fires — fails here.

use tripro::gpu::KERNEL_SIZE;
use tripro::partition::sample_skeleton;
use tripro::{Accel, Computer, ExecStats, LodData};
use tripro_geom::{vec3, Triangle, Vec3};

/// An `n` × `n` grid of unit squares, two triangles each, placed in space
/// by `at(x, y)`.
fn grid(n: usize, at: impl Fn(f64, f64) -> Vec3) -> Vec<Triangle> {
    let mut tris = Vec::new();
    for x in 0..n {
        for y in 0..n {
            let (x, y) = (x as f64, y as f64);
            tris.push(Triangle::new(at(x, y), at(x + 1.0, y), at(x, y + 1.0)));
            tris.push(Triangle::new(
                at(x + 1.0, y),
                at(x + 1.0, y + 1.0),
                at(x, y + 1.0),
            ));
        }
    }
    tris
}

struct Fixture {
    name: &'static str,
    a: LodData,
    b: LodData,
    sk_a: Vec<Vec3>,
    sk_b: Vec<Vec3>,
    /// Seed passed to `min_dist2`.
    upper: f64,
}

fn fixture(name: &'static str, a: Vec<Triangle>, b: Vec<Triangle>, upper: f64) -> Fixture {
    let skeleton = |t: &[Triangle]| {
        let centroids: Vec<Vec3> = t.iter().map(Triangle::centroid).collect();
        sample_skeleton(&centroids, 16)
    };
    Fixture {
        name,
        sk_a: skeleton(&a),
        sk_b: skeleton(&b),
        a: LodData::new(a),
        b: LodData::new(b),
        upper,
    }
}

fn fixtures() -> Vec<Fixture> {
    // A strip of five triangles crossing a flat sheet's plane at y ≈ 2.1.
    let strip = (0..5)
        .map(|x| {
            let p = vec3(x as f64, 2.0, -1.0);
            Triangle::new(p, p + vec3(1.0, 0.0, 0.0), p + vec3(0.0, 0.5, 2.0))
        })
        .collect();
    // Two sheets on slopes z = x / 2 and z = 0.6 x + 0.5, never touching:
    // each group box overlaps its neighbours', so the partition strategies
    // pack tens of thousands of pairs and never find a hit.
    let slope = |k: f64, dz: f64| grid(12, move |x, y| vec3(x, y, k * x + dz));
    vec![
        fixture(
            "crossing",
            grid(5, |x, y| vec3(x, y, 0.0)),
            strip,
            f64::INFINITY,
        ),
        fixture("separated", slope(0.5, 0.0), slope(0.6, 0.5), f64::INFINITY),
        // Coplanar sheets sharing the edge x = 4.
        fixture(
            "touching",
            grid(4, |x, y| vec3(x, y, 0.0)),
            grid(4, |x, y| vec3(x + 4.0, y, 0.0)),
            f64::INFINITY,
        ),
        // True d² = 100: a seed of 9 stays the answer and cuts every box;
        // a seed of 150 only bounds the box cut until the first flush.
        fixture("far", slope(0.0, 0.0), slope(0.0, 10.0), 9.0),
        fixture("far_loose", slope(0.0, 0.0), slope(0.0, 10.0), 150.0),
    ]
}

/// `(answer, face_pair_tests)` per fixture, strategy and kernel at width 1,
/// recorded from the four per-strategy kernel loops before they became one.
const WORK: &[&str] = &[
    "crossing Brute intersects=true (21) min_dist2=0.0 (21)",
    "crossing Partition intersects=true (1) min_dist2=0.0 (1)",
    "crossing Aabb intersects=true (11) min_dist2=0.0 (11)",
    "crossing Gpu intersects=true (21) min_dist2=0.0 (21)",
    "crossing PartitionGpu intersects=true (1) min_dist2=0.0 (1)",
    "separated Brute intersects=false (82944) min_dist2=0.2 (82944)",
    "separated Partition intersects=false (26018) min_dist2=0.2 (27657)",
    "separated Aabb intersects=false (3793) min_dist2=0.2 (5875)",
    "separated Gpu intersects=false (82944) min_dist2=0.2 (82944)",
    "separated PartitionGpu intersects=false (26018) min_dist2=0.2 (27657)",
    "touching Brute intersects=true (769) min_dist2=0.0 (769)",
    "touching Partition intersects=true (1) min_dist2=0.0 (1)",
    "touching Aabb intersects=true (1) min_dist2=0.0 (1)",
    "touching Gpu intersects=true (769) min_dist2=0.0 (769)",
    "touching PartitionGpu intersects=true (1) min_dist2=0.0 (1)",
    "far Brute intersects=false (82944) min_dist2=9.0 (82944)",
    "far Partition intersects=false (0) min_dist2=9.0 (0)",
    "far Aabb intersects=false (0) min_dist2=9.0 (0)",
    "far Gpu intersects=false (82944) min_dist2=9.0 (82944)",
    "far PartitionGpu intersects=false (0) min_dist2=9.0 (0)",
    "far_loose Brute intersects=false (82944) min_dist2=100.0 (82944)",
    "far_loose Partition intersects=false (0) min_dist2=100.0 (784)",
    "far_loose Aabb intersects=false (0) min_dist2=100.0 (9)",
    "far_loose Gpu intersects=false (82944) min_dist2=100.0 (82944)",
    "far_loose PartitionGpu intersects=false (0) min_dist2=100.0 (8349)",
];

/// A sheet rising towards its last face, under a flat sheet: the one
/// closest pair is the last face of each, so in the cross product it is the
/// last pair of the last `KERNEL_SIZE` launch and every earlier launch
/// finishes with a worse minimum.
fn last_launch() -> Fixture {
    let a = grid(12, |x, y| vec3(x, y, 0.25 * x + 0.0625 * y));
    let b = grid(12, |x, y| vec3(x, y, 4.75));
    fixture("last_launch", a, b, f64::INFINITY)
}

/// `(intersects, min_dist2)` of one strategy at one width.
fn answers(f: &Fixture, accel: Accel, width: usize) -> (bool, f64) {
    let c = Computer::new(accel, width);
    let stats = ExecStats::new();
    (
        c.intersects(&f.a, &f.b, &f.sk_a, &f.sk_b, &stats),
        c.min_dist2(&f.a, &f.b, &f.sk_a, &f.sk_b, f.upper, &stats),
    )
}

#[test]
fn device_width_answers_equal_width_one() {
    let last = last_launch();
    let pairs = last.a.triangles.len() * last.b.triangles.len();
    assert!(pairs > KERNEL_SIZE, "the cross product must span launches");
    assert_eq!(
        answers(&last, Accel::Brute, 1),
        (false, 1.0),
        "the closest pair is the last face of each sheet, exactly 1 apart"
    );
    // The shared minimum a launch reads when it claims a chunk depends on
    // which participant finished first; counts race at width > 1, the
    // answers must not.
    for f in fixtures().iter().chain([&last]) {
        for accel in [Accel::Gpu, Accel::PartitionGpu] {
            let (hit1, d1) = answers(f, accel, 1);
            for _ in 0..4 {
                let (hit4, d4) = answers(f, accel, 4);
                assert_eq!(hit4, hit1, "{} {accel:?} intersects", f.name);
                assert_eq!(d4.to_bits(), d1.to_bits(), "{} {accel:?} min_dist2", f.name);
            }
        }
    }
}

#[test]
fn kernel_work_per_strategy_is_unchanged() {
    let mut got = Vec::new();
    for f in fixtures() {
        for accel in Accel::ALL {
            let c = Computer::new(accel, 1);
            let (s_hit, s_d2) = (ExecStats::new(), ExecStats::new());
            let hit = c.intersects(&f.a, &f.b, &f.sk_a, &f.sk_b, &s_hit);
            let d2 = c.min_dist2(&f.a, &f.b, &f.sk_a, &f.sk_b, f.upper, &s_d2);
            let (n_hit, n_d2) = (
                s_hit.snapshot().face_pair_tests,
                s_d2.snapshot().face_pair_tests,
            );
            if f.name == "separated" && accel == Accel::PartitionGpu {
                assert!(
                    n_hit > 2 * KERNEL_SIZE as u64,
                    "the pack buffer must cross KERNEL_SIZE at least twice"
                );
            }
            got.push(format!(
                "{} {accel:?} intersects={hit} ({n_hit}) min_dist2={d2:?} ({n_d2})",
                f.name
            ));
        }
    }
    assert_eq!(got, WORK);
}
