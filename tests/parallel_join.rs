//! Guards for the whole-join driver and the refinement loop behind it.
//!
//! * Thread-count equivalence: workers only decide *who* runs a cuboid, so
//!   every join kind must return byte-identical output at any thread count.
//! * Work accounting: the refinement loop's order of operations is pinned
//!   through the counters it leaves behind, so a rewrite that returns the
//!   same answers by doing different work (an extra round, a decode the
//!   old loop skipped, a prune recorded at another LOD) fails here.
//! * A deadline expiring mid-join surfaces as the typed error and leaves
//!   the shared worker pool reusable.

use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tripro::{Accel, Deadline, Engine, ObjectStore, Paradigm, QueryConfig, StoreConfig};
use tripro_geom::vec3;
use tripro_synth::{DatasetConfig, NucleusConfig};

const PARADIGMS: [Paradigm; 2] = [Paradigm::FilterRefine, Paradigm::FilterProgressiveRefine];

/// `n` × `n` nuclei, packed tightly and with the second segmentation
/// shifted off the first, so neighbours overlap in MBB without touching
/// and every join kind has pairs that survive past LOD 0.
fn nuclei(n: usize, subdivs: usize, seed: u64) -> (ObjectStore, ObjectStore) {
    let mut block = tripro_synth::generate(&DatasetConfig {
        nuclei_count: n,
        vessel_count: 0,
        nucleus: NucleusConfig {
            subdivs,
            ..Default::default()
        },
        spacing: 1.1,
        seed,
        ..Default::default()
    });
    for m in &mut block.nuclei_b {
        m.translate(vec3(1.2, 0.72, 0.36));
    }
    let store = |m: &[tripro_mesh::TriMesh]| {
        ObjectStore::build(m, &StoreConfig::default()).expect("encode")
    };
    (store(&block.nuclei_a), store(&block.nuclei_b))
}

/// Coarse nuclei shared by the equivalence and deadline tests: 80 faces
/// keep the brute-force strategies affordable in a debug build.
fn small() -> &'static (ObjectStore, ObjectStore) {
    static S: OnceLock<(ObjectStore, ObjectStore)> = OnceLock::new();
    S.get_or_init(|| nuclei(10, 1, 0x91BE))
}

/// Every join kind under `cfg`, rendered so one `assert_eq!` compares all.
fn all_joins(engine: &Engine, cfg: &QueryConfig) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        engine.intersection_join(cfg).unwrap().0,
        engine.within_join(3.0, cfg).unwrap().0,
        engine.nn_join(cfg).unwrap().0,
        engine.knn_join(2, cfg).unwrap().0,
    )
}

#[test]
fn every_thread_count_returns_the_serial_answer() {
    let (a, b) = small();
    let engine = Engine::new(a, b);
    let cell = a.rtree().bounds().extent().max_component() / 4.0;
    assert!(a.cuboids(cell).len() >= 4, "every worker needs a cuboid");
    for paradigm in PARADIGMS {
        for accel in Accel::ALL {
            let serial = QueryConfig::new(paradigm, accel);
            // Intersection over every Table 1 strategy; the distance kinds
            // with one tree and one decomposition accel.
            let distance_kinds = matches!(accel, Accel::Aabb | Accel::Partition);
            let run = |cfg: &QueryConfig| {
                if distance_kinds {
                    all_joins(&engine, cfg)
                } else {
                    format!("{:?}", engine.intersection_join(cfg).unwrap().0)
                }
            };
            let want = run(&serial);
            for threads in [2, 4] {
                let got = run(&serial.clone().with_threads(threads));
                assert_eq!(got, want, "{paradigm:?} {accel:?} threads {threads}");
            }
        }
    }
    // One cuboid holding every target: only one worker finds work.
    let mut one = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Aabb);
    let want = all_joins(&engine, &one);
    one.cuboid_cell = Some(1e9);
    assert_eq!(a.cuboids(1e9).len(), 1);
    assert_eq!(all_joins(&engine, &one.with_threads(4)), want);
}

#[test]
fn deadline_expiring_mid_join_is_typed_and_leaves_the_pool_reusable() {
    let (a, b) = small();
    let engine = Engine::new(a, b);
    let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Aabb).with_threads(4);

    let expired = cfg
        .clone()
        .with_deadline(Deadline::at(Instant::now() - Duration::from_millis(1)));
    assert!(matches!(
        engine.within_join(3.0, &expired),
        Err(tripro::Error::DeadlineExceeded)
    ));

    // Mid-flight: on a fast enough machine the join may finish inside the
    // budget, so only the error *type* is pinned, never the outcome.
    for budget_us in [50, 200, 1000] {
        let tight = cfg
            .clone()
            .with_deadline(Deadline::within(Duration::from_micros(budget_us)));
        match engine.within_join(3.0, &tight) {
            Err(tripro::Error::DeadlineExceeded) | Ok(_) => {}
            Err(e) => panic!("mid-join expiry surfaced as {e:?}"),
        }
    }

    // The same pool runs the same join to completion straight afterwards.
    let (parallel, _) = engine.within_join(3.0, &cfg).unwrap();
    let (serial, _) = engine.within_join(3.0, &cfg.with_threads(1)).unwrap();
    assert_eq!(parallel, serial);
}

/// Refinement work per (kind, paradigm) on 40 × 40 nuclei, seed 0xACC7,
/// AABB, threads 1, caches cleared before each join. Recorded from the
/// four hand-written LOD loops before they became one; any change to a
/// line means the loop now does different work, not merely different code.
/// The `nn`/`knn` evaluated counts were re-pinned once when the R-tree
/// began handing candidates over nearest MINDIST first: the cut-off then
/// tightens before the far candidates are probed, so fewer of them are
/// evaluated (and the kNN tail scores a winner under its own MAXDIST),
/// while rounds, decoded bytes and pruned counts stayed the same.
const WORK: &[&str] = &[
    "intersect FR rounds=40 bytes=1843200 evaluated=[0, 0, 0, 0, 0, 42] pruned=[0, 0, 0, 0, 0, 42]",
    "intersect FPR rounds=63 bytes=692352 evaluated=[42, 10, 6, 3, 2, 2] pruned=[32, 4, 3, 1, 0, 2]",
    "within FR rounds=40 bytes=1843200 evaluated=[0, 0, 0, 0, 0, 246] pruned=[0, 0, 0, 0, 0, 246]",
    "within FPR rounds=184 bytes=3750336 evaluated=[246, 85, 76, 72, 71, 10] pruned=[161, 9, 4, 1, 61, 10]",
    "nn FR rounds=40 bytes=1843200 evaluated=[0, 0, 0, 0, 0, 42] pruned=[0, 0, 0, 0, 0, 387]",
    "nn FPR rounds=48 bytes=610848 evaluated=[42, 4, 4, 4, 4] pruned=[385, 0, 0, 0, 2]",
    "knn FR rounds=40 bytes=1843200 evaluated=[0, 0, 0, 0, 0, 159] pruned=[0, 0, 0, 0, 0, 676]",
    "knn FPR rounds=147 bytes=4104000 evaluated=[177, 135, 127, 115, 111, 61] pruned=[619, 3, 8, 6, 33, 7]",
];

#[test]
fn refinement_work_is_unchanged() {
    fn trimmed(v: &[u64]) -> &[u64] {
        &v[..v.iter().rposition(|&n| n != 0).map_or(0, |i| i + 1)]
    }
    let (a, b) = nuclei(40, 2, 0xACC7);
    let engine = Engine::new(&a, &b);
    let mut got = Vec::new();
    for kind in ["intersect", "within", "nn", "knn"] {
        for paradigm in PARADIGMS {
            a.cache().clear();
            b.cache().clear();
            let cfg = QueryConfig::new(paradigm, Accel::Aabb);
            let stats = match kind {
                "intersect" => engine.intersection_join(&cfg).unwrap().1,
                "within" => engine.within_join(3.0, &cfg).unwrap().1,
                "nn" => engine.nn_join(&cfg).unwrap().1,
                _ => engine.knn_join(3, &cfg).unwrap().1,
            };
            let snap = stats.snapshot();
            got.push(format!(
                "{kind} {} rounds={} bytes={} evaluated={:?} pruned={:?}",
                paradigm.label(),
                snap.lod_rounds,
                snap.decoded_bytes,
                trimmed(&snap.pairs_evaluated),
                trimmed(&snap.pairs_pruned),
            ));
        }
    }
    assert_eq!(got, WORK);
}
