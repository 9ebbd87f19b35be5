//! Property-based tests for the core invariants of the reproduction:
//! the PPVP subset guarantee, codec losslessness, entropy-coder roundtrip,
//! and index correctness against brute force.

use proptest::prelude::*;
use rand::SeedableRng;
use tripro_geom::{vec3, Aabb, Triangle, Vec3};
use tripro_index::{AabbTree, RTree};
use tripro_mesh::{encode, EncoderConfig, PruneMode, TriMesh};
use tripro_synth::{nucleus, NucleusConfig};

fn arb_nucleus() -> impl Strategy<Value = TriMesh> {
    (any::<u64>(), 0.5f64..3.0).prop_map(|(seed, radius)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = NucleusConfig {
            radius,
            ..Default::default()
        };
        nucleus(&mut rng, &cfg, vec3(10.0, 10.0, 10.0))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// PPVP: volume grows monotonically with LOD (subset property) and the
    /// top LOD reproduces the quantised mesh exactly.
    #[test]
    fn ppvp_subset_and_roundtrip(tm in arb_nucleus()) {
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        let mut dec = cm.decoder().unwrap();
        let mut prev = dec.mesh().signed_volume6();
        prop_assert!(prev > 0);
        for lod in 1..=cm.max_lod() {
            dec.decode_to(lod).unwrap();
            let v = dec.mesh().signed_volume6();
            prop_assert!(v >= prev, "volume shrank between LODs {} and {lod}", lod - 1);
            prev = v;
        }
        prop_assert_eq!(dec.mesh().face_count(), tm.faces.len());
        dec.mesh().validate_closed_manifold().unwrap();
        // Serialisation roundtrip.
        let back = tripro_mesh::CompressedMesh::from_bytes(&cm.to_bytes()).unwrap();
        prop_assert_eq!(&back, &cm);
    }

    /// Every vertex of a lower-LOD mesh lies inside (or on) the full mesh:
    /// a stronger, point-wise check of the progressive approximation.
    #[test]
    fn lower_lod_vertices_inside_full_mesh(tm in arb_nucleus()) {
        let cm = encode(&tm, &EncoderConfig::default()).unwrap();
        let mut dec = cm.decoder().unwrap();
        let base = dec.triangles();
        dec.decode_to(cm.max_lod()).unwrap();
        let full = dec.triangles();
        // Shrink test points slightly towards the base centroid so boundary
        // points (which the base shares with the full mesh) test cleanly.
        let centroid = base
            .iter()
            .map(|t| t.centroid())
            .fold(Vec3::ZERO, |s, c| s + c)
            / base.len() as f64;
        for t in base.iter().take(40) {
            let p = t.centroid().lerp(centroid, 1e-4);
            prop_assert!(
                tripro_geom::point_in_mesh(p, &full),
                "base-surface point {p} escaped the full mesh"
            );
        }
    }

    /// PPMC-like unconstrained pruning does NOT maintain the subset
    /// property on shapes with recessing vertices — the motivation for PPVP.
    /// (Statistical: must be violated for at least one generated shape.)
    #[test]
    fn distance_monotonicity_between_objects(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = NucleusConfig::default();
        let a = nucleus(&mut rng, &cfg, vec3(0.0, 0.0, 0.0));
        let b = nucleus(&mut rng, &cfg, vec3(4.0, 0.0, 0.0));
        let ca = encode(&a, &EncoderConfig::default()).unwrap();
        let cb = encode(&b, &EncoderConfig::default()).unwrap();
        let mut da = ca.decoder().unwrap();
        let mut db = cb.decoder().unwrap();
        let top = ca.max_lod().min(cb.max_lod());
        let mut prev = f64::INFINITY;
        for lod in 0..=top {
            da.decode_to(lod).unwrap();
            db.decode_to(lod).unwrap();
            let d2 = min_dist2(&da.triangles(), &db.triangles());
            prop_assert!(
                d2 <= prev * (1.0 + 1e-9),
                "distance grew from {prev} to {d2} at LOD {lod}"
            );
            prev = d2;
        }
    }

    /// Entropy coder: lossless on arbitrary byte strings.
    #[test]
    fn range_coder_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = tripro_coder::compress(&data);
        prop_assert_eq!(tripro_coder::decompress(&c).unwrap(), data);
    }

    /// Varints: roundtrip arbitrary signed/unsigned values.
    #[test]
    fn varint_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..64)) {
        let mut buf = Vec::new();
        for &v in &values {
            tripro_coder::write_i64(&mut buf, v);
        }
        let mut r = tripro_coder::ByteReader::new(&buf);
        for &v in &values {
            prop_assert_eq!(r.read_i64().unwrap(), v);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Quantiser: dequantise∘quantise is a fixed point and error is bounded.
    #[test]
    fn quantizer_fixed_point(
        p in (0.0f64..100.0, 0.0f64..100.0, 0.0f64..100.0),
        bits in 4u32..20,
    ) {
        let q = tripro_coder::Quantizer::new([0.0; 3], [100.0; 3], bits);
        let g = q.quantize([p.0, p.1, p.2]);
        let back = q.dequantize(g);
        prop_assert_eq!(q.quantize(back), g);
        let err = ((p.0 - back[0]).powi(2) + (p.1 - back[1]).powi(2) + (p.2 - back[2]).powi(2)).sqrt();
        prop_assert!(err <= q.max_error() * 1.0001);
    }

    /// R-tree window queries agree with brute force on random boxes.
    #[test]
    fn rtree_matches_brute(
        boxes in proptest::collection::vec(
            ((0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0), (0.1f64..5.0, 0.1f64..5.0, 0.1f64..5.0)),
            1..80,
        ),
        window in ((0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0), (1.0f64..20.0, 1.0f64..20.0, 1.0f64..20.0)),
    ) {
        let items: Vec<(Aabb, usize)> = boxes
            .iter()
            .enumerate()
            .map(|(i, ((x, y, z), (ex, ey, ez)))| {
                (Aabb::from_corners(vec3(*x, *y, *z), vec3(x + ex, y + ey, z + ez)), i)
            })
            .collect();
        let w = Aabb::from_corners(
            vec3(window.0.0, window.0.1, window.0.2),
            vec3(window.0.0 + window.1.0, window.0.1 + window.1.1, window.0.2 + window.1.2),
        );
        let tree = RTree::bulk_load(items.clone());
        let mut got = tree.query_intersects(&w);
        got.sort_unstable();
        let mut want: Vec<usize> = items
            .iter()
            .filter(|(bb, _)| bb.intersects(&w))
            .map(|(_, i)| *i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);

        // NN candidates come nearest MINDIST first, and the first sits at
        // the brute-force nearest MINDIST (any item at that MINDIST
        // qualifies: ties).
        let target = Aabb::from_point(vec3(window.0.0, window.0.1, window.0.2));
        let cands = tree.knn_candidates(&target, 1);
        let best_d = items
            .iter()
            .map(|(bb, _)| bb.min_dist(&target))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(
            cands.windows(2).all(|w| w[0].1.min <= w[1].1.min),
            "candidates' MINDIST is not non-decreasing"
        );
        prop_assert_eq!(cands[0].1.min.to_bits(), best_d.to_bits());
    }

    /// AABB-tree distance equals brute force over random triangle soups.
    #[test]
    fn aabbtree_distance_matches_brute(
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        let ta = random_tris(seed_a, 24, vec3(0.0, 0.0, 0.0));
        let tb = random_tris(seed_b, 24, vec3(8.0, 2.0, 1.0));
        let brute = ta
            .iter()
            .flat_map(|x| tb.iter().map(move |y| tripro_geom::tri_tri_dist2(x, y)))
            .fold(f64::INFINITY, f64::min);
        let ba = AabbTree::build(ta);
        let bb = AabbTree::build(tb);
        let mut n = 0;
        let d2 = ba.min_dist2_tree(&bb, f64::INFINITY, &mut n);
        prop_assert!((d2 - brute).abs() < 1e-9, "bvh {d2} vs brute {brute}");
    }
}

/// PPMC-like (unconstrained) pruning violates the subset property —
/// demonstrating why PPVP's restriction matters. Witness: an octahedron
/// whose top apex is dented inward; unconstrained decimation removes the
/// dent and thereby *grows* the solid, so the simplified mesh is not a
/// progressive approximation.
#[test]
fn ppmc_mode_violates_subset_property() {
    use tripro_geom::ivec3;
    use tripro_mesh::{decimate_round, Mesh};
    // The dented apex gets id 0 so the deterministic ascending-id sweep
    // considers it first (decimation locks each removal's ring).
    let p = vec![
        ivec3(0, 0, 4), // dented apex
        ivec3(8, 0, 8),
        ivec3(0, 8, 8),
        ivec3(-8, 0, 8),
        ivec3(0, -8, 8),
        ivec3(0, 0, 0),
    ];
    let f = [
        [1u32, 2, 0],
        [2, 3, 0],
        [3, 4, 0],
        [4, 1, 0],
        [2, 1, 5],
        [3, 2, 5],
        [4, 3, 5],
        [1, 4, 5],
    ];
    // Unconstrained mode removes the dent: volume grows.
    let mut any = Mesh::from_parts(p.clone(), &f).unwrap();
    let before = any.signed_volume6();
    let events = decimate_round(&mut any, PruneMode::Any);
    assert!(
        events.iter().any(|e| e.removed == 0),
        "dent should be removable"
    );
    assert!(
        any.signed_volume6() > before,
        "removing a recessing vertex must grow the solid"
    );
    // PPVP refuses: volume never grows.
    let mut ppvp = Mesh::from_parts(p, &f).unwrap();
    let before = ppvp.signed_volume6();
    let events = decimate_round(&mut ppvp, PruneMode::ProtrudingOnly);
    assert!(events.iter().all(|e| e.removed != 0));
    assert!(ppvp.signed_volume6() <= before);
}

fn min_dist2(a: &[Triangle], b: &[Triangle]) -> f64 {
    let ta = AabbTree::build(a.to_vec());
    let tb = AabbTree::build(b.to_vec());
    let mut n = 0;
    ta.min_dist2_tree(&tb, f64::INFINITY, &mut n)
}

fn random_tris(seed: u64, n: usize, offset: Vec3) -> Vec<Triangle> {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let base = vec3(
                rng.gen::<f64>() * 5.0,
                rng.gen::<f64>() * 5.0,
                rng.gen::<f64>() * 5.0,
            ) + offset;
            Triangle::new(
                base,
                base + vec3(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()),
                base + vec3(rng.gen::<f64>(), rng.gen::<f64>(), rng.gen::<f64>()),
            )
        })
        .collect()
}
