//! The memory-centred object store (paper §5.3): PPVP-compressed objects
//! live in memory, the global R-tree indexes their MBBs (readable straight
//! from the compressed header), a second R-tree indexes the partition
//! sub-object boxes (§5.1), and all decoding goes through the LRU decode
//! cache. Objects are grouped into fixed-size cuboids for persistence and
//! batched query execution.

use crate::cache::{DecodeCache, LodData};
use crate::error::{Error, Result};
use crate::partition::{default_skeleton_size, group_faces, sample_skeleton};
use crate::stats::ExecStats;
use crate::sync::lock;
use std::sync::Arc;
use tripro_geom::{vec3, Aabb, Vec3};
use tripro_index::RTree;
use tripro_mesh::{CompressedMesh, EncoderConfig, MeshError, TriMesh};

/// Object identifier within one store.
pub type ObjectId = u32;

/// One compressed object plus its precomputed partition metadata.
#[derive(Clone)]
pub struct StoredObject {
    pub mbb: Aabb,
    pub compressed: CompressedMesh,
    /// Skeleton points (farthest-point sampled at full resolution).
    pub skeleton: Vec<Vec3>,
    /// Boxes of the skeleton groups at full resolution — indexed in the
    /// partition R-tree for finer filtering.
    pub group_boxes: Vec<Aabb>,
    /// Full-resolution face count (for cost accounting).
    pub full_faces: usize,
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    pub encoder: EncoderConfig,
    /// Decode-cache capacity in bytes (0 disables the cache).
    pub cache_bytes: usize,
    /// Worker threads used while building (encode is embarrassingly
    /// parallel, mirroring the paper's 48-thread preprocessing).
    pub build_threads: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            encoder: EncoderConfig::default(),
            cache_bytes: 256 << 20,
            build_threads: crate::pool::device_width(),
        }
    }
}

/// A queryable dataset of compressed 3D objects.
pub struct ObjectStore {
    objects: Vec<StoredObject>,
    rtree: RTree<ObjectId>,
    partition_rtree: RTree<ObjectId>,
    cache: DecodeCache,
}

impl ObjectStore {
    /// Compress and index a set of meshes.
    pub fn build(meshes: &[TriMesh], cfg: &StoreConfig) -> Result<Self> {
        let n = meshes.len();
        let mut slots: Vec<Option<std::result::Result<StoredObject, MeshError>>> =
            (0..n).map(|_| None).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        // LOCK-RANK(80): build-time slot accumulator — a leaf lock; the
        // encode workers hold nothing else when they store a result.
        let slots_ref: std::sync::Mutex<
            &mut Vec<Option<std::result::Result<StoredObject, MeshError>>>,
        > = std::sync::Mutex::new(&mut slots);
        let threads = cfg.build_threads.max(1).min(n.max(1));
        // Encode on the persistent pool (the caller participates too).
        crate::pool::global().run_with(threads.saturating_sub(1), |_| loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= n {
                return;
            }
            let built = build_object(&meshes[i], &cfg.encoder);
            let mut guard = lock(&slots_ref);
            guard[i] = Some(built);
        });
        let mut objects = Vec::with_capacity(n);
        for (index, s) in slots.into_iter().enumerate() {
            match s {
                Some(built) => objects.push(built?),
                None => return Err(Error::BuildIncomplete { index }),
            }
        }
        Ok(Self::from_objects(objects, cfg.cache_bytes))
    }

    /// Assemble a store from prebuilt objects (used by persistence).
    pub fn from_objects(objects: Vec<StoredObject>, cache_bytes: usize) -> Self {
        let rtree = RTree::bulk_load(
            objects
                .iter()
                .enumerate()
                .map(|(i, o)| (o.mbb, i as ObjectId))
                .collect(),
        );
        let partition_rtree = RTree::bulk_load(
            objects
                .iter()
                .enumerate()
                .flat_map(|(i, o)| o.group_boxes.iter().map(move |bb| (*bb, i as ObjectId)))
                .collect(),
        );
        Self {
            objects,
            rtree,
            partition_rtree,
            cache: DecodeCache::new(cache_bytes),
        }
    }

    /// Tear the store back down into its object records (used by shard
    /// partitioning to rebuild per-shard stores without re-compressing).
    pub fn into_objects(self) -> Vec<StoredObject> {
        self.objects
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// `true` when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Object MBB (no decoding needed).
    #[inline]
    pub fn mbb(&self, id: ObjectId) -> &Aabb {
        &self.objects[id as usize].mbb
    }

    /// The stored object record.
    #[inline]
    pub fn object(&self, id: ObjectId) -> &StoredObject {
        &self.objects[id as usize]
    }

    /// Skeleton points of an object.
    #[inline]
    pub fn skeleton(&self, id: ObjectId) -> &[Vec3] {
        &self.objects[id as usize].skeleton
    }

    /// The highest LOD this object supports.
    #[inline]
    pub fn max_lod(&self, id: ObjectId) -> usize {
        self.objects[id as usize].compressed.max_lod()
    }

    /// Highest LOD over the whole store (the ladder top used by queries).
    pub fn max_lod_overall(&self) -> usize {
        self.objects
            .iter()
            .map(|o| o.compressed.max_lod())
            .max()
            .unwrap_or(0)
    }

    /// Global R-tree over object MBBs.
    pub fn rtree(&self) -> &RTree<ObjectId> {
        &self.rtree
    }

    /// R-tree over partition sub-object boxes (values are object ids and
    /// may repeat; callers dedup).
    pub fn partition_rtree(&self) -> &RTree<ObjectId> {
        &self.partition_rtree
    }

    /// Decode an object to (at most) `lod`, via the cache. Fails only when
    /// the stored payload is corrupt ([`Error::Decode`]).
    pub fn get(&self, id: ObjectId, lod: usize, stats: &ExecStats) -> Result<Arc<LodData>> {
        let lod = lod.min(self.max_lod(id));
        self.cache
            .get(id, lod, &self.objects[id as usize].compressed, stats)
    }

    /// The decode cache (for clearing / instrumentation).
    pub fn cache(&self) -> &DecodeCache {
        &self.cache
    }

    /// Total compressed payload bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.objects
            .iter()
            .map(|o| o.compressed.payload_size())
            .sum()
    }

    /// Sum of full-resolution face counts.
    pub fn total_full_faces(&self) -> usize {
        self.objects.iter().map(|o| o.full_faces).sum()
    }

    /// The default cuboid edge: a quarter of the store's largest extent.
    #[must_use]
    pub fn default_cell(&self) -> f64 {
        (self.rtree().bounds().extent().max_component() / 4.0).max(1e-9)
    }

    /// Group object ids into cuboids of side `cell` by MBB centre —
    /// the batching unit for parallel query execution (§5.3).
    pub fn cuboids(&self, cell: f64) -> Vec<Vec<ObjectId>> {
        let mut map: std::collections::HashMap<(i64, i64, i64), Vec<ObjectId>> =
            std::collections::HashMap::new();
        for (i, o) in self.objects.iter().enumerate() {
            let c = o.mbb.center();
            let key = (
                (c.x / cell).floor() as i64,
                (c.y / cell).floor() as i64,
                (c.z / cell).floor() as i64,
            );
            map.entry(key).or_default().push(i as ObjectId);
        }
        let mut tiles: Vec<_> = map.into_iter().collect();
        tiles.sort_unstable_by_key(|(k, _)| *k);
        tiles.into_iter().map(|(_, ids)| ids).collect()
    }
}

fn build_object(tm: &TriMesh, enc: &EncoderConfig) -> std::result::Result<StoredObject, MeshError> {
    let compressed = tripro_mesh::encode(tm, enc)?;
    let mbb = tm.aabb();
    // Skeleton from the full-resolution surface.
    let k = default_skeleton_size(tm.faces.len());
    let skeleton = sample_skeleton(&tm.vertices, k);
    let tris = tm.triangles();
    let groups = group_faces(&tris, &skeleton);
    let group_boxes = groups.non_empty().map(|(_, bb)| *bb).collect::<Vec<_>>();
    Ok(StoredObject {
        mbb,
        compressed,
        skeleton,
        group_boxes,
        full_faces: tm.faces.len(),
    })
}

// ---------------------------------------------------------------------------
// Persistence: one file per cuboid, objects framed with their metadata.
// ---------------------------------------------------------------------------

const FILE_MAGIC: &[u8; 4] = b"3DP3";

fn bad(m: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string())
}

/// Read a record count, refusing one whose records cannot fit in the rest
/// of the file: a corrupt count must not size an allocation.
fn read_count(r: &mut tripro_coder::ByteReader<'_>, record_bytes: usize) -> std::io::Result<usize> {
    let n = r.read_usize().map_err(|_| bad("truncated"))?;
    match n.checked_mul(record_bytes) {
        Some(bytes) if bytes <= r.remaining() => Ok(n),
        _ => Err(bad("count exceeds file")),
    }
}

impl ObjectStore {
    /// Persist to `dir`, one file per cuboid of side `cell`. Files are named
    /// by cuboid coordinate so reloading is deterministic.
    pub fn save_dir(&self, dir: &std::path::Path, cell: f64) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (ci, ids) in self.cuboids(cell).into_iter().enumerate() {
            let mut buf = Vec::new();
            buf.extend_from_slice(FILE_MAGIC);
            tripro_coder::write_u64(&mut buf, ids.len() as u64);
            for id in ids {
                let o = &self.objects[id as usize];
                let blob = o.compressed.to_bytes();
                tripro_coder::write_u64(&mut buf, blob.len() as u64);
                buf.extend_from_slice(&blob);
                tripro_coder::write_u64(&mut buf, o.skeleton.len() as u64);
                for p in &o.skeleton {
                    tripro_coder::write_f64(&mut buf, p.x);
                    tripro_coder::write_f64(&mut buf, p.y);
                    tripro_coder::write_f64(&mut buf, p.z);
                }
                tripro_coder::write_u64(&mut buf, o.group_boxes.len() as u64);
                for bb in &o.group_boxes {
                    for v in [bb.lo, bb.hi] {
                        tripro_coder::write_f64(&mut buf, v.x);
                        tripro_coder::write_f64(&mut buf, v.y);
                        tripro_coder::write_f64(&mut buf, v.z);
                    }
                }
                tripro_coder::write_u64(&mut buf, o.full_faces as u64);
            }
            std::fs::write(dir.join(format!("cuboid_{ci:06}.3dp")), &buf)?;
        }
        Ok(())
    }

    /// Load a store persisted by [`ObjectStore::save_dir`]. Object ids are
    /// reassigned in file order.
    pub fn load_dir(dir: &std::path::Path, cache_bytes: usize) -> std::io::Result<Self> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "3dp"))
            .collect();
        paths.sort();
        let mut objects = Vec::new();
        for path in paths {
            let data = std::fs::read(&path)?;
            let mut r = tripro_coder::ByteReader::new(&data);
            if r.read_exact(4).map_err(|_| bad("truncated"))? != FILE_MAGIC {
                return Err(bad("bad magic"));
            }
            let count = r.read_usize().map_err(|_| bad("truncated"))?;
            for _ in 0..count {
                let len = r.read_usize().map_err(|_| bad("truncated"))?;
                let blob = r.read_exact(len).map_err(|_| bad("truncated"))?;
                let compressed = CompressedMesh::from_bytes(blob).map_err(|_| bad("bad object"))?;
                let nsk = read_count(&mut r, 3 * 8)?;
                let mut skeleton = Vec::with_capacity(nsk);
                for _ in 0..nsk {
                    let x = r.read_f64().map_err(|_| bad("truncated"))?;
                    let y = r.read_f64().map_err(|_| bad("truncated"))?;
                    let z = r.read_f64().map_err(|_| bad("truncated"))?;
                    skeleton.push(vec3(x, y, z));
                }
                let ngb = read_count(&mut r, 6 * 8)?;
                let mut group_boxes = Vec::with_capacity(ngb);
                for _ in 0..ngb {
                    let mut c = [0.0f64; 6];
                    for v in &mut c {
                        *v = r.read_f64().map_err(|_| bad("truncated"))?;
                    }
                    group_boxes.push(Aabb::new(vec3(c[0], c[1], c[2]), vec3(c[3], c[4], c[5])));
                }
                let full_faces = r.read_usize().map_err(|_| bad("truncated"))?;
                let mbb = compressed.aabb();
                objects.push(StoredObject {
                    mbb,
                    compressed,
                    skeleton,
                    group_boxes,
                    full_faces,
                });
            }
        }
        Ok(Self::from_objects(objects, cache_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tripro_mesh::testutil::sphere;

    fn spheres(n: usize) -> Vec<TriMesh> {
        (0..n)
            .map(|i| sphere(vec3(i as f64 * 10.0, 0.0, 0.0), 2.0, 2))
            .collect()
    }

    fn cfg() -> StoreConfig {
        StoreConfig {
            build_threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn build_and_query_index() {
        let store = ObjectStore::build(&spheres(5), &cfg()).unwrap();
        assert_eq!(store.len(), 5);
        // MBB of object 2 centred at x=20.
        assert!((store.mbb(2).center() - vec3(20.0, 0.0, 0.0)).norm() < 1e-6);
        let hits = store.rtree().query_intersects(store.mbb(3));
        assert_eq!(hits, vec![3]);
        assert!(store.max_lod_overall() >= 1);
        assert!(store.compressed_bytes() > 0);
        assert_eq!(store.total_full_faces(), 5 * 128);
    }

    #[test]
    fn decode_via_cache() {
        let store = ObjectStore::build(&spheres(2), &cfg()).unwrap();
        let stats = ExecStats::new();
        let top = store.max_lod(0);
        let full = store.get(0, top, &stats).unwrap();
        assert_eq!(full.triangles.len(), 128);
        let base = store.get(0, 0, &stats).unwrap();
        assert!(base.triangles.len() < full.triangles.len());
        // Requesting beyond the max clamps (and hits the cache).
        let again = store.get(0, 99, &stats).unwrap();
        assert!(Arc::ptr_eq(&full.triangles, &again.triangles) || again.triangles.len() == 128);
        assert!(stats.snapshot().cache_hits >= 1);
    }

    #[test]
    fn skeleton_and_partition_index() {
        let store = ObjectStore::build(&spheres(3), &cfg()).unwrap();
        for id in 0..3 {
            assert!(!store.skeleton(id).is_empty());
            assert!(!store.object(id).group_boxes.is_empty());
        }
        // The partition R-tree must find object 1's groups near x=10.
        let probe = Aabb::from_point(vec3(10.0, 0.0, 2.0));
        let mut hits = store
            .partition_rtree()
            .query_intersects(&probe.inflate(0.5));
        hits.dedup();
        assert!(hits.contains(&1));
    }

    #[test]
    fn cuboid_batching() {
        let store = ObjectStore::build(&spheres(6), &cfg()).unwrap();
        let tiles = store.cuboids(25.0);
        let total: usize = tiles.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
        assert!(tiles.len() >= 2, "objects span multiple cuboids");
    }

    #[test]
    fn persistence_roundtrip() {
        let store = ObjectStore::build(&spheres(4), &cfg()).unwrap();
        let dir = std::env::temp_dir().join(format!("tripro_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store.save_dir(&dir, 25.0).unwrap();
        let loaded = ObjectStore::load_dir(&dir, 64 << 20).unwrap();
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded.compressed_bytes(), store.compressed_bytes());
        // Geometry decodes identically (volumes match object-by-object after
        // sorting, since ids may be permuted by cuboid order).
        let stats = ExecStats::new();
        let vols = |s: &ObjectStore| {
            let mut v: Vec<i64> = (0..s.len() as u32)
                .map(|id| {
                    let d = s.get(id, s.max_lod(id), &stats).unwrap();
                    tripro_geom::mesh_volume(&d.triangles) as i64
                })
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(vols(&store), vols(&loaded));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store() {
        let store = ObjectStore::build(&[], &cfg()).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.max_lod_overall(), 0);
        assert!(store.cuboids(10.0).is_empty());
    }
}
