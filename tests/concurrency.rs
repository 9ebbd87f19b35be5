//! Concurrency stress: the decode cache and parallel join driver under
//! simultaneous access from many threads. These tests verify freedom from
//! deadlock, identical results regardless of interleaving, and cache
//! invariants (capacity bound, decoder-state reuse) under contention.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tripro::fault::{self, FaultAction, Trigger};
use tripro::{Accel, Engine, ExecStats, ObjectStore, Paradigm, QueryConfig, StoreConfig};
use tripro_geom::vec3;
use tripro_mesh::testutil::sphere;

fn store(n: usize) -> Arc<ObjectStore> {
    let meshes: Vec<_> = (0..n)
        .map(|i| {
            sphere(
                vec3((i % 8) as f64 * 6.0, (i / 8) as f64 * 6.0, 0.0),
                2.0,
                3,
            )
        })
        .collect();
    Arc::new(
        ObjectStore::build(
            &meshes,
            &StoreConfig {
                build_threads: 2,
                ..Default::default()
            },
        )
        .unwrap(),
    )
}

/// The failpoint registry is process-wide: every test here decodes, so
/// each takes this gate and none sees another's armed `DECODE_LOD`.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn cache_hammering_from_many_threads() {
    let _serial = serial();
    let s = store(16);
    let stats = ExecStats::new();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let s = &s;
            let stats = &stats;
            scope.spawn(move || {
                for round in 0..40 {
                    let id = ((t * 7 + round * 3) % 16) as u32;
                    let lod = (t + round) % (s.max_lod(id) + 1);
                    let data = s.get(id, lod, stats).unwrap();
                    assert!(!data.triangles.is_empty());
                    // Trees are built lazily under contention too.
                    if round % 5 == 0 {
                        assert_eq!(data.tree().len(), data.triangles.len());
                    }
                }
            });
        }
    });
    let snap = stats.snapshot();
    assert_eq!(snap.cache_hits + snap.cache_misses, 8 * 40);
    assert!(snap.cache_hits > 0, "reuse must happen under contention");
}

#[test]
fn concurrent_decodes_agree_with_serial() {
    let _serial = serial();
    let s = store(8);
    let serial_stats = ExecStats::new();
    // Serial truth: face counts per (id, lod).
    let mut truth = std::collections::HashMap::new();
    for id in 0..8u32 {
        for lod in 0..=s.max_lod(id) {
            truth.insert(
                (id, lod),
                s.get(id, lod, &serial_stats).unwrap().triangles.len(),
            );
        }
    }
    s.cache().clear();
    let stats = ExecStats::new();
    std::thread::scope(|scope| {
        for t in 0..6 {
            let s = &s;
            let stats = &stats;
            let truth = &truth;
            scope.spawn(move || {
                for round in 0..30 {
                    let id = ((t + round * 5) % 8) as u32;
                    let lod = (t * 2 + round) % (s.max_lod(id) + 1);
                    let got = s.get(id, lod, stats).unwrap().triangles.len();
                    assert_eq!(got, truth[&(id, lod)], "({id},{lod}) under contention");
                }
            });
        }
    });
}

#[test]
fn tiny_cache_under_contention_stays_bounded() {
    let _serial = serial();
    let s = store(12);
    // Force constant eviction with a cache that fits ~2 decoded objects.
    let one = {
        let stats = ExecStats::new();
        s.get(0, 2, &stats).unwrap().bytes()
    };
    let small = tripro::DecodeCache::new(one * 2);
    let stats = ExecStats::new();
    std::thread::scope(|scope| {
        for t in 0..6 {
            let small = &small;
            let s = &s;
            let stats = &stats;
            scope.spawn(move || {
                for round in 0..30 {
                    let id = ((t + round) % 12) as u32;
                    let _ = small.get(id, 2, &s.object(id).compressed, stats).unwrap();
                }
            });
        }
    });
    assert!(
        small.used_bytes() <= one * 2,
        "capacity must hold after the storm"
    );
}

/// Cache stress: 8+ threads hammer overlapping `(object, LOD)` keys on a
/// cache small enough to evict constantly, then every invariant is
/// audited — exact hit+miss accounting, the capacity ceiling, and (under
/// `strict-invariants`) the LRU list / byte-total consistency audit.
#[test]
fn cache_stress_overlapping_keys() {
    let _serial = serial();
    const THREADS: usize = 8;
    const ROUNDS: usize = 60;
    let s = store(16);
    let (one, top) = {
        let stats = ExecStats::new();
        (
            s.get(0, 2, &stats).unwrap().bytes(),
            s.get(0, s.max_lod(0), &stats).unwrap().bytes(),
        )
    };
    // Room for the largest single LOD plus a couple of small ones — far
    // below the 16-object × several-LOD working set, so eviction churns
    // constantly, yet no single entry can exceed the budget on its own
    // (which would legitimately hold > capacity: the cache always keeps
    // one entry). That makes the ceiling assertion below exact.
    let capacity = top + one * 2;
    let cache = tripro::DecodeCache::new(capacity);
    let stats = ExecStats::new();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let s = &s;
            let stats = &stats;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Overlapping key schedule: a hot key every third round
                    // that all threads revisit (it is touched often enough
                    // to survive the two intervening evicting inserts, so
                    // reuse is guaranteed under any interleaving — even
                    // fully sequential), plus a spread of cold keys wide
                    // enough that eviction churns constantly.
                    let (id, lod) = if round % 3 == 0 {
                        (0u32, 0usize)
                    } else {
                        let id = ((t + round) % 16) as u32;
                        (id, round % (s.max_lod(id) + 1))
                    };
                    let data = cache.get(id, lod, &s.object(id).compressed, stats).unwrap();
                    assert!(!data.triangles.is_empty());
                }
            });
        }
    });
    let snap = stats.snapshot();
    assert_eq!(
        snap.cache_hits + snap.cache_misses,
        (THREADS * ROUNDS) as u64,
        "every get is exactly one hit or one miss"
    );
    assert_eq!(snap.decodes, snap.cache_misses, "each miss decodes once");
    assert!(snap.cache_hits > 0, "overlapping keys must produce reuse");
    assert!(snap.hit_rate() > 0.0 && snap.hit_rate() < 1.0);
    assert!(
        cache.used_bytes() <= capacity,
        "capacity ceiling must hold after the storm: {} > {capacity}",
        cache.used_bytes()
    );
    #[cfg(feature = "strict-invariants")]
    cache.check_consistency().unwrap();
    // The cache must still serve correctly after the churn.
    let before = stats.snapshot();
    let d = cache.get(3, 1, &s.object(3).compressed, &stats).unwrap();
    assert!(!d.triangles.is_empty());
    assert_eq!(
        stats.snapshot().cache_hits + stats.snapshot().cache_misses,
        before.cache_hits + before.cache_misses + 1
    );
}

/// A hit never waits on another object's decode: the cache lock is
/// released for the whole decode, so while a decode of object 1 is held
/// up by an injected delay, a cached object 2 is still served at once.
#[test]
fn hit_never_waits_on_another_objects_decode() {
    let _serial = serial();
    let s = store(4);
    let cache = tripro::DecodeCache::new(64 << 20);
    let stats = ExecStats::new();
    let get = |id: u32| cache.get(id, 1, &s.object(id).compressed, &stats);
    get(2).unwrap();
    fault::set(fault::DECODE_LOD, FaultAction::Delay(300), Trigger::Once);
    let waited = std::thread::scope(|scope| {
        let slow = scope.spawn(|| get(1).map(|d| d.triangles.len()));
        while fault::hits(fault::DECODE_LOD) < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        assert!(!get(2).unwrap().triangles.is_empty());
        let waited = t0.elapsed();
        assert!(slow.join().unwrap().unwrap() > 0);
        waited
    });
    let fired = fault::fired(fault::DECODE_LOD);
    fault::clear();
    assert_eq!(fired, 1, "the delayed decode ran");
    assert!(
        waited < Duration::from_millis(100),
        "hit waited {waited:?} behind another object's decode"
    );
}

#[test]
fn join_results_stable_across_thread_counts() {
    let _serial = serial();
    let t = store(12);
    let s = store(12);
    let engine = Engine::new(&t, &s);
    let mut reference = None;
    for threads in [1usize, 2, 4, 8] {
        t.cache().clear();
        s.cache().clear();
        let cfg =
            QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Aabb).with_threads(threads);
        let (pairs, _) = engine.nn_join(&cfg).unwrap();
        match &reference {
            None => reference = Some(pairs),
            Some(r) => assert_eq!(&pairs, r, "threads={threads}"),
        }
    }
}
