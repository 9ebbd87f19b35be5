//! Progressive point-containment queries.
//!
//! Paper §4.1 notes that point-in-polyhedron checks can themselves be
//! accelerated by the Filter-Progressive-Refine paradigm: because every
//! lower LOD is a subset of the full object, *"inside at a lower LOD"*
//! already proves *"inside at the highest LOD"* — only points outside all
//! lower LODs need the full-resolution parity test.

use crate::error::Result;
use crate::obs::{self, QueryOp, SpanKind};
use crate::query::{Paradigm, QueryConfig};
use crate::stats::ExecStats;
use crate::store::{ObjectId, ObjectStore};
use std::time::Instant;
use tripro_geom::{Aabb, Vec3};

/// Point-query interface over one object store.
pub struct PointQuery<'a> {
    pub store: &'a ObjectStore,
}

impl<'a> PointQuery<'a> {
    pub fn new(store: &'a ObjectStore) -> Self {
        Self { store }
    }

    /// Ids of all objects whose solid contains `p`.
    pub fn containing(
        &self,
        p: Vec3,
        cfg: &QueryConfig,
        stats: &ExecStats,
    ) -> Result<Vec<ObjectId>> {
        cfg.deadline.check()?;
        let fpr = matches!(cfg.paradigm, Paradigm::FilterProgressiveRefine);
        let _lat = obs::time(obs::query_latency_histogram(QueryOp::Contains, fpr));
        let t0 = Instant::now();
        let filter_span = obs::span(SpanKind::Filter);
        let probe = Aabb::from_point(p);
        let candidates = self.store.rtree().query_intersects(&probe);
        drop(filter_span);
        stats.add_filter(t0.elapsed());

        let mut out = Vec::new();
        for c in candidates {
            if self.contains(c, p, cfg, stats)? {
                out.push(c);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Does object `id` contain point `p`?
    pub fn contains(
        &self,
        id: ObjectId,
        p: Vec3,
        cfg: &QueryConfig,
        stats: &ExecStats,
    ) -> Result<bool> {
        if !self.store.mbb(id).contains_point(p) {
            return Ok(false);
        }
        let top = self.store.max_lod(id);
        for lod in cfg.ladder(top) {
            cfg.deadline.check()?;
            let _round = obs::span_at(SpanKind::RefineRound, id, lod as u32);
            stats.record_lod_round();
            let geom = self.store.get(id, lod, stats)?;
            stats.record_pair_evaluated(lod);
            let t1 = Instant::now();
            let inside = tripro_geom::point_in_mesh(p, &geom.triangles);
            stats.add_compute(t1.elapsed());
            if inside {
                // Subset property: inside a lower LOD ⇒ inside the object.
                stats.record_pair_pruned(lod);
                return Ok(true);
            }
            if lod == top {
                // Outside at full resolution: definitive.
                stats.record_pair_pruned(lod);
                return Ok(false);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::Accel;
    use crate::store::StoreConfig;
    use tripro_geom::vec3;
    use tripro_mesh::testutil::sphere;

    fn store() -> ObjectStore {
        let meshes = vec![
            sphere(vec3(0.0, 0.0, 0.0), 2.0, 3),
            sphere(vec3(10.0, 0.0, 0.0), 2.0, 3),
        ];
        ObjectStore::build(
            &meshes,
            &StoreConfig {
                build_threads: 1,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn containing_finds_the_right_object() {
        let s = store();
        let q = PointQuery::new(&s);
        let stats = ExecStats::new();
        for paradigm in [Paradigm::FilterRefine, Paradigm::FilterProgressiveRefine] {
            let cfg = QueryConfig::new(paradigm, Accel::Brute);
            assert_eq!(
                q.containing(vec3(0.0, 0.0, 0.0), &cfg, &stats).unwrap(),
                vec![0]
            );
            assert_eq!(
                q.containing(vec3(10.0, 0.5, 0.0), &cfg, &stats).unwrap(),
                vec![1]
            );
            assert!(q
                .containing(vec3(5.0, 0.0, 0.0), &cfg, &stats)
                .unwrap()
                .is_empty());
            assert!(q
                .containing(vec3(0.0, 0.0, 50.0), &cfg, &stats)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn deep_interior_accepts_at_low_lod() {
        let s = store();
        let q = PointQuery::new(&s);
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let stats = ExecStats::new();
        // Deep inside: some lower LOD already contains it, so FPR resolves
        // before reaching full resolution.
        assert!(q.contains(0, vec3(0.0, 0.0, 0.0), &cfg, &stats).unwrap());
        let snap = stats.snapshot();
        let top = s.max_lod(0);
        let early: u64 = snap.pairs_pruned[..top].iter().sum();
        assert_eq!(early, 1, "centre must resolve below LOD {top}: {snap:?}");
    }

    #[test]
    fn probe_walks_the_shared_ladder() {
        let s = store();
        let q = PointQuery::new(&s);
        let top = s.max_lod(0);
        assert!(top > 3, "the list below must sit under the top");
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute)
            .with_lods(vec![3, 1, 1]);
        let stats = ExecStats::new();
        // Inside the MBB's corner but outside the sphere: every rung runs.
        let p = vec3(1.9, 1.9, 1.9);
        assert!(s.mbb(0).contains_point(p));
        assert!(!q.contains(0, p, &cfg, &stats).unwrap());
        assert_eq!(cfg.ladder(top), vec![1, 3, top]);
        assert_eq!(stats.snapshot().lod_rounds, cfg.ladder(top).len() as u64);
    }

    #[test]
    fn near_surface_point_needs_high_lod() {
        let s = store();
        let q = PointQuery::new(&s);
        let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Brute);
        let fr = QueryConfig::new(Paradigm::FilterRefine, Accel::Brute);
        let stats = ExecStats::new();
        // A point just inside the sphere surface: low LODs (slimmer) exclude
        // it, so FPR walks up the ladder — and must agree with FR.
        let p = vec3(1.98, 0.0, 0.0);
        assert_eq!(
            q.contains(0, p, &cfg, &stats).unwrap(),
            q.contains(0, p, &fr, &stats).unwrap()
        );
        // Just outside: both must reject.
        let p = vec3(2.01, 0.0, 0.0);
        assert!(!q.contains(0, p, &cfg, &stats).unwrap());
        assert!(!q.contains(0, p, &fr, &stats).unwrap());
    }
}
