//! End-to-end integration: generate a tissue block, compress it into object
//! stores, and check that every paradigm × acceleration combination — and
//! the PostGIS-style baseline — agrees on all three join types.

use tripro::{Accel, Engine, ExecStats, ObjectStore, Paradigm, QueryConfig, StoreConfig};
use tripro_baseline::BaselineDb;
use tripro_synth::{DatasetConfig, TissueBlock, VesselConfig};

fn block() -> TissueBlock {
    tripro_synth::generate(&DatasetConfig {
        nuclei_count: 40,
        vessel_count: 2,
        vessel: VesselConfig {
            levels: 2,
            grid: 24,
            ..Default::default()
        },
        seed: 0xE2E,
        ..Default::default()
    })
}

fn store(meshes: &[tripro_mesh::TriMesh]) -> ObjectStore {
    ObjectStore::build(meshes, &StoreConfig::default()).expect("encode")
}

fn configs() -> Vec<QueryConfig> {
    let mut out = Vec::new();
    for p in [Paradigm::FilterRefine, Paradigm::FilterProgressiveRefine] {
        for a in Accel::ALL {
            out.push(QueryConfig::new(p, a).with_threads(2));
        }
    }
    out
}

#[test]
fn intersection_join_consistent_across_strategies_and_baseline() {
    let b = block();
    let a_store = store(&b.nuclei_a);
    let b_store = store(&b.nuclei_b);
    let engine = Engine::new(&a_store, &b_store);

    let reference = BaselineDb::load(&b.nuclei_a).intersection_join(&BaselineDb::load(&b.nuclei_b));
    let ref_matches: usize = reference.iter().map(|(_, v)| v.len()).sum();
    assert!(ref_matches > 0, "dataset must produce intersections");

    for cfg in configs() {
        a_store.cache().clear();
        b_store.cache().clear();
        let (pairs, _) = engine.intersection_join(&cfg).unwrap();
        // Compressed stores quantise geometry, so borderline (near-touching)
        // pairs may differ from the unquantised baseline; demand agreement
        // on all but a tiny fraction.
        let diff = count_diff(&pairs, &reference);
        assert!(
            diff * 50 <= ref_matches,
            "{:?}/{:?}: {diff} of {ref_matches} matches differ from baseline",
            cfg.paradigm,
            cfg.accel
        );
    }
}

#[test]
fn within_join_consistent_across_strategies_and_baseline() {
    let b = block();
    let nuclei = store(&b.nuclei_a);
    let vessels = store(&b.vessels);
    let engine = Engine::new(&nuclei, &vessels);
    let d = 6.0;

    let reference = BaselineDb::load(&b.nuclei_a).within_join(&BaselineDb::load(&b.vessels), d);
    let ref_matches: usize = reference.iter().map(|(_, v)| v.len()).sum();

    for cfg in configs() {
        nuclei.cache().clear();
        vessels.cache().clear();
        let (pairs, _) = engine.within_join(d, &cfg).unwrap();
        let diff = count_diff(&pairs, &reference);
        assert!(
            diff * 50 <= ref_matches.max(50),
            "{:?}/{:?}: {diff} of {ref_matches} within-matches differ",
            cfg.paradigm,
            cfg.accel
        );
    }
}

#[test]
fn nn_join_consistent_across_strategies_and_baseline() {
    let b = block();
    let nuclei = store(&b.nuclei_a);
    let others = store(&b.nuclei_b);
    let engine = Engine::new(&nuclei, &others);

    let t_db = BaselineDb::load(&b.nuclei_a);
    let s_db = BaselineDb::load(&b.nuclei_b);
    let buffer = t_db.safe_nn_buffer(&s_db);
    let reference = t_db.nn_join_with_buffer(&s_db, buffer);

    for cfg in configs() {
        nuclei.cache().clear();
        others.cache().clear();
        let (pairs, _) = engine.nn_join(&cfg).unwrap();
        assert_eq!(pairs.len(), reference.len());
        // A shard answers NN with its kNN top-1, so the two must agree on
        // every target under every configuration.
        let stats = ExecStats::new();
        for (t, nn) in &pairs {
            let top1 = engine.knn_scored(*t, 1, &cfg, &stats).unwrap();
            let top1: Option<u32> = top1.first().map(|&(c, _)| c);
            assert_eq!(top1, *nn, "target {t} {:?}/{:?}", cfg.paradigm, cfg.accel);
        }
        let mut diff = 0;
        for ((t1, n1), (t2, n2)) in pairs.iter().zip(&reference) {
            assert_eq!(t1, t2);
            if n1 != n2 {
                diff += 1;
            }
        }
        // Quantisation can flip near-tie neighbours; tolerate a few.
        assert!(
            diff * 10 <= pairs.len(),
            "{:?}/{:?}: {diff}/{} NN results differ from baseline",
            cfg.paradigm,
            cfg.accel,
            pairs.len()
        );
    }
}

#[test]
fn fr_and_fpr_agree_exactly_on_compressed_geometry() {
    // FR and FPR run over the SAME quantised geometry, so unlike the
    // baseline comparison they must agree bit-for-bit.
    let b = block();
    let nuclei = store(&b.nuclei_a);
    let vessels = store(&b.vessels);
    let engine = Engine::new(&nuclei, &vessels);

    let fr = QueryConfig::new(Paradigm::FilterRefine, Accel::Brute);
    let fpr = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);

    let (w1, _) = engine.within_join(5.0, &fr).unwrap();
    let (w2, _) = engine.within_join(5.0, &fpr).unwrap();
    assert_eq!(w1, w2);

    let (n1, _) = engine.nn_join(&fr).unwrap();
    let (n2, _) = engine.nn_join(&fpr).unwrap();
    assert_eq!(n1, n2);

    let a_store = store(&b.nuclei_a);
    let b_store = store(&b.nuclei_b);
    let e2 = Engine::new(&a_store, &b_store);
    let (i1, _) = e2.intersection_join(&fr).unwrap();
    let (i2, _) = e2.intersection_join(&fpr).unwrap();
    assert_eq!(i1, i2);

    for accel in Accel::ALL {
        let fr = QueryConfig::new(Paradigm::FilterRefine, accel);
        let fpr = QueryConfig::new(Paradigm::FilterProgressiveRefine, accel);
        let (k1, _) = e2.knn_join(3, &fr).unwrap();
        let (k2, _) = e2.knn_join(3, &fpr).unwrap();
        assert_eq!(k1, k2, "{accel:?}");
    }
}

#[test]
fn persistence_preserves_query_results() {
    let b = block();
    let nuclei = store(&b.nuclei_a);
    let others = store(&b.nuclei_b);
    let dir_t = std::env::temp_dir().join(format!("tripro_e2e_t_{}", std::process::id()));
    let dir_s = std::env::temp_dir().join(format!("tripro_e2e_s_{}", std::process::id()));
    for d in [&dir_t, &dir_s] {
        let _ = std::fs::remove_dir_all(d);
    }
    nuclei.save_dir(&dir_t, 1e18).unwrap(); // one cuboid: id order preserved
    others.save_dir(&dir_s, 1e18).unwrap();
    let nuclei2 = ObjectStore::load_dir(&dir_t, 64 << 20).unwrap();
    let others2 = ObjectStore::load_dir(&dir_s, 64 << 20).unwrap();

    let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
    let (before, _) = Engine::new(&nuclei, &others)
        .intersection_join(&cfg)
        .unwrap();
    let (after, _) = Engine::new(&nuclei2, &others2)
        .intersection_join(&cfg)
        .unwrap();
    assert_eq!(before, after);
    for d in [&dir_t, &dir_s] {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn count_diff(a: &[(u32, Vec<u32>)], b: &[(u32, Vec<u32>)]) -> usize {
    assert_eq!(a.len(), b.len());
    let mut diff = 0;
    for ((t1, v1), (t2, v2)) in a.iter().zip(b) {
        assert_eq!(t1, t2);
        let s1: std::collections::HashSet<_> = v1.iter().collect();
        let s2: std::collections::HashSet<_> = v2.iter().collect();
        diff += s1.symmetric_difference(&s2).count();
    }
    diff
}
