//! LRU decode cache (paper §5.3): decoded faces for `(object, LOD)` pairs
//! are kept for reuse, because decompression is compute-intensive and one
//! source object (e.g. a vessel) is typically a candidate for hundreds of
//! target objects.
//!
//! Decoder *states* are also retained so that refining an object from LOD
//! `k` to `k+1` replays only the missing segments — the progressive decode
//! the paper's FPR paradigm depends on.
//!
//! ## One lock
//!
//! Entries, their exact byte total and the decoder states sit behind one
//! mutex. Entries form an intrusive doubly-linked LRU list over a slot
//! arena: a hit moves its slot to the head (O(1)) and clones an `Arc`;
//! eviction unlinks from the tail (O(1)). A miss takes the object's decode
//! lock and the decoder state, decodes with the cache lock released, then
//! locks once to put the state back, insert, and evict until the byte
//! budget holds.

use crate::error::{Error, Result};
use crate::fault;
use crate::obs;
use crate::obs::SpanKind;
use crate::stats::ExecStats;
use crate::sync::{lock, Mutex};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tripro_geom::Triangle;
use tripro_index::AabbTree;
use tripro_mesh::{CompressedMesh, ProgressiveMesh};

/// Decoded geometry of one object at one LOD, plus lazily built per-LOD
/// acceleration structures.
pub struct LodData {
    /// Dequantised faces.
    pub triangles: Arc<Vec<Triangle>>,
    /// Lazily built AABB-tree over the faces (accel `Aabb`).
    tree: OnceLock<Arc<AabbTree>>,
    /// Lazily built partition grouping (accel `Partition`).
    groups: OnceLock<Arc<crate::partition::GroupedFaces>>,
}

impl LodData {
    pub fn new(triangles: Vec<Triangle>) -> Self {
        Self {
            triangles: Arc::new(triangles),
            tree: OnceLock::new(),
            groups: OnceLock::new(),
        }
    }

    /// Approximate memory footprint in bytes. The acceleration structures
    /// share the triangle buffer (index-based nodes over the same `Arc`),
    /// so the faces dominate.
    pub fn bytes(&self) -> usize {
        self.triangles.len() * std::mem::size_of::<Triangle>() + 64
    }

    /// The AABB-tree over this LOD's faces, built on first use directly
    /// over the shared triangle buffer (no copy).
    pub fn tree(&self) -> &Arc<AabbTree> {
        self.tree
            .get_or_init(|| Arc::new(AabbTree::build_shared(Arc::clone(&self.triangles))))
    }

    /// Partition grouping against `skeleton`, built on first use. The
    /// skeleton is fixed per object, so the grouping is stable across calls.
    pub fn groups(&self, skeleton: &[tripro_geom::Vec3]) -> &Arc<crate::partition::GroupedFaces> {
        self.groups
            .get_or_init(|| Arc::new(crate::partition::group_faces(&self.triangles, skeleton)))
    }
}

type Key = (u32, u8);

/// Sentinel for "no slot" in the intrusive list.
const NIL: u32 = u32::MAX;

/// One cached entry, a node of the intrusive LRU list.
struct Slot {
    key: Key,
    data: Arc<LodData>,
    prev: u32,
    next: u32,
}

/// Everything behind the cache lock: hash map + intrusive LRU list over a
/// slot arena, the exact byte total, and the retained decoder states.
#[derive(Default)]
struct Inner {
    map: HashMap<Key, u32>,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Most-recently-used slot.
    head: Option<u32>,
    /// Least-recently-used slot.
    tail: Option<u32>,
    used_bytes: usize,
    /// Retained decoder states for incremental refinement.
    states: HashMap<u32, ProgressiveMesh>,
}

impl Inner {
    fn slot(&self, i: u32) -> Option<&Slot> {
        self.slots.get(i as usize).and_then(Option::as_ref)
    }

    fn slot_mut(&mut self, i: u32) -> Option<&mut Slot> {
        self.slots.get_mut(i as usize).and_then(Option::as_mut)
    }

    /// Detach slot `i` from the LRU list (O(1)); its own links go stale
    /// until `push_front` or removal.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = match self.slot(i) {
            Some(s) => (s.prev, s.next),
            None => return,
        };
        match prev {
            NIL => self.head = (next != NIL).then_some(next),
            p => {
                if let Some(s) = self.slot_mut(p) {
                    s.next = next;
                }
            }
        }
        match next {
            NIL => self.tail = (prev != NIL).then_some(prev),
            n => {
                if let Some(s) = self.slot_mut(n) {
                    s.prev = prev;
                }
            }
        }
    }

    /// Make slot `i` the most-recent entry (O(1)).
    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        if let Some(s) = self.slot_mut(i) {
            s.prev = NIL;
            s.next = old_head.unwrap_or(NIL);
        }
        if let Some(h) = old_head {
            if let Some(s) = self.slot_mut(h) {
                s.prev = i;
            }
        }
        self.head = Some(i);
        if self.tail.is_none() {
            self.tail = Some(i);
        }
    }

    /// Hit path: refresh recency and return the data.
    fn touch(&mut self, key: Key) -> Option<Arc<LodData>> {
        let i = *self.map.get(&key)?;
        self.unlink(i);
        self.push_front(i);
        self.slot(i).map(|s| Arc::clone(&s.data))
    }

    /// Insert (or replace) `key` as the most-recent entry.
    fn insert(&mut self, key: Key, data: Arc<LodData>) {
        if let Some(&old) = self.map.get(&key) {
            self.remove_slot(old);
        }
        self.used_bytes += data.bytes();
        let slot = Slot {
            key,
            data,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                (self.slots.len() - 1) as u32
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    /// Remove slot `i` entirely.
    fn remove_slot(&mut self, i: u32) {
        self.unlink(i);
        if let Some(slot) = self.slots.get_mut(i as usize).and_then(Option::take) {
            self.map.remove(&slot.key);
            self.free.push(i);
            self.used_bytes -= slot.data.bytes();
        }
    }

    /// Evict least-recent entries until `used_bytes` fits `capacity`,
    /// keeping at least one entry (so a single object larger than the
    /// whole budget still caches). Returns the number evicted.
    fn evict_over(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0;
        while self.used_bytes > capacity && self.map.len() > 1 {
            let Some(t) = self.tail else { break };
            self.remove_slot(t);
            evicted += 1;
        }
        evicted
    }
}

/// Thread-safe LRU cache of decoded LODs with progressive decoder-state
/// reuse. A `capacity_bytes` of 0 disables caching entirely (every request
/// decodes from scratch) — the paper's Table 2 baseline.
pub struct DecodeCache {
    // LOCK-RANK(60): entries, byte total and decoder states; taken after
    // a per-object decode lock (50), never held across a decode.
    inner: Mutex<Inner>,
    /// Per-object decode locks (striped by id) so two threads don't decode the
    /// same object twice; mirrors the paper's cuboid-level locks.
    // LOCK-RANK(50): per-object decode locks; held (cross-function, via
    // `get`) around lookup/decode/insert, so ranked below `inner`.
    locks: Vec<Mutex<()>>,
    capacity_bytes: usize,
}

impl DecodeCache {
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            locks: (0..64).map(|_| Mutex::new(())).collect(),
            capacity_bytes,
        }
    }

    /// `true` when caching is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// Bytes currently held.
    pub fn used_bytes(&self) -> usize {
        lock(&self.inner).used_bytes
    }

    /// Fetch `(id, lod)`, decoding from `compressed` on a miss. Decode time
    /// and hit/miss counters are recorded into `stats`. Fails only when the
    /// stored payload is corrupt (see [`Error::Decode`]).
    pub fn get(
        &self,
        id: u32,
        lod: usize,
        compressed: &CompressedMesh,
        stats: &ExecStats,
    ) -> Result<Arc<LodData>> {
        let key: Key = (id, lod as u8);
        if !self.enabled() {
            stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            obs::cache_miss_counter().fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(self.decode(id, lod, compressed, stats)?.0));
        }
        if let Some(hit) = self.lookup(key, stats) {
            return Ok(hit);
        }
        // Miss path only: the hit path above stays span-free so the
        // nearly-free case is untouched.
        let _touch = obs::span_at(SpanKind::CacheTouch, id, lod as u32);
        // Serialise decodes of the same object.
        let _guard = lock(&self.locks[id as usize % self.locks.len()]);
        if let Some(hit) = self.lookup(key, stats) {
            return Ok(hit);
        }
        stats.cache_misses.fetch_add(1, Ordering::Relaxed);
        obs::cache_miss_counter().fetch_add(1, Ordering::Relaxed);
        let (data, pm) = self.decode(id, lod, compressed, stats)?;
        let data = Arc::new(data);
        // An injected insert fault degrades the cache (the entry is
        // simply not retained) without affecting query correctness —
        // chaos schedules use this to prove results don't depend on
        // cache residency.
        let retain = fault::failpoint(fault::CACHE_INSERT).is_ok();
        let evicted = {
            let mut inner = lock(&self.inner);
            inner.states.insert(id, pm);
            if retain {
                inner.insert(key, Arc::clone(&data));
                inner.evict_over(self.capacity_bytes)
            } else {
                0
            }
        };
        obs::cache_evict_counter().fetch_add(evicted, Ordering::Relaxed);
        Ok(data)
    }

    fn lookup(&self, key: Key, stats: &ExecStats) -> Option<Arc<LodData>> {
        let hit = lock(&self.inner).touch(key)?;
        stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        obs::cache_hit_counter().fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Internal-consistency audit for the `strict-invariants` test feature:
    /// the LRU list must be a well-formed chain (prev links, tail) covering
    /// exactly the mapped slots, and the recomputed byte sum must equal
    /// `used_bytes`.
    #[cfg(feature = "strict-invariants")]
    pub fn check_consistency(&self) -> std::result::Result<(), String> {
        let inner = lock(&self.inner);
        let len = inner.map.len();
        let mut bytes = 0usize;
        let mut seen = 0usize;
        let mut cursor = inner.head;
        let mut prev = NIL;
        while let Some(i) = cursor {
            let Some(slot) = inner.slot(i) else {
                return Err(format!("list points at empty slot {i}"));
            };
            if inner.map.get(&slot.key) != Some(&i) {
                return Err(format!("slot {i} not mapped to its key"));
            }
            if slot.prev != prev {
                return Err(format!("slot {i} has a broken prev link"));
            }
            bytes += slot.data.bytes();
            seen += 1;
            if seen > len {
                return Err("LRU list longer than map (cycle?)".to_string());
            }
            prev = i;
            cursor = (slot.next != NIL).then_some(slot.next);
        }
        if seen != len {
            return Err(format!("list covers {seen} of {len} mapped entries"));
        }
        if inner.tail != ((prev != NIL).then_some(prev)) {
            return Err("tail does not terminate the list".to_string());
        }
        if bytes != inner.used_bytes {
            let used = inner.used_bytes;
            return Err(format!("used_bytes {used} but entries sum to {bytes}"));
        }
        Ok(())
    }

    /// Decode `(id, lod)`, returning the faces and the advanced decoder
    /// state. A retained state at or below the requested LOD is resumed;
    /// otherwise decoding starts from the base. The state is taken out of
    /// the cache so the decode itself runs without the cache lock.
    fn decode(
        &self,
        id: u32,
        lod: usize,
        compressed: &CompressedMesh,
        stats: &ExecStats,
    ) -> Result<(LodData, ProgressiveMesh)> {
        let _span = obs::span_at(SpanKind::Decode, id, lod as u32);
        fault::failpoint(fault::DECODE_LOD)?;
        let t0 = Instant::now();
        let state = lock(&self.inner).states.remove(&id);
        let decode_err = |source| Error::Decode { object: id, source };
        let mut pm = match state {
            Some(pm) if pm.current_lod() <= lod => pm,
            _ => compressed.decoder().map_err(decode_err)?,
        };
        pm.decode_to(lod).map_err(decode_err)?;
        let tris = pm.triangles();
        let took = t0.elapsed();
        stats.add_decode(took);
        stats.decodes.fetch_add(1, Ordering::Relaxed);
        stats.add_decoded_bytes(std::mem::size_of_val(tris.as_slice()) as u64);
        obs::decode_histogram(lod).record_duration(took);
        Ok((LodData::new(tris), pm))
    }

    /// Drop all cached data and decoder states.
    pub fn clear(&self) {
        *lock(&self.inner) = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tripro_geom::vec3;
    use tripro_mesh::{encode, testutil::sphere, EncoderConfig};

    fn compressed_sphere() -> CompressedMesh {
        let tm = sphere(vec3(0.0, 0.0, 0.0), 2.0, 3);
        encode(&tm, &EncoderConfig::default()).unwrap()
    }

    #[test]
    fn hit_after_miss() {
        let cm = compressed_sphere();
        let cache = DecodeCache::new(64 << 20);
        let stats = ExecStats::new();
        let a = cache.get(0, 1, &cm, &stats).unwrap();
        let b = cache.get(0, 1, &cm, &stats).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = stats.snapshot();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.decodes, 1);
    }

    #[test]
    fn progressive_state_reuse_decodes_incrementally() {
        let cm = compressed_sphere();
        let cache = DecodeCache::new(64 << 20);
        let stats = ExecStats::new();
        let max = cm.max_lod();
        for lod in 0..=max {
            let d = cache.get(7, lod, &cm, &stats).unwrap();
            assert!(!d.triangles.is_empty());
        }
        // Face counts at successive LODs must strictly grow.
        let c0 = cache.get(7, 0, &cm, &stats).unwrap().triangles.len();
        let cm_ = cache.get(7, max, &cm, &stats).unwrap().triangles.len();
        assert!(cm_ > c0);
    }

    #[test]
    fn disabled_cache_always_decodes() {
        let cm = compressed_sphere();
        let cache = DecodeCache::new(0);
        let stats = ExecStats::new();
        let _ = cache.get(0, 1, &cm, &stats).unwrap();
        let _ = cache.get(0, 1, &cm, &stats).unwrap();
        let s = stats.snapshot();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.decodes, 2);
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn eviction_respects_capacity() {
        let cm = compressed_sphere();
        // Tiny capacity: roughly one decoded LOD.
        let one = {
            let cache = DecodeCache::new(usize::MAX);
            let stats = ExecStats::new();
            cache.get(0, 2, &cm, &stats).unwrap().bytes()
        };
        let cache = DecodeCache::new(one + one / 2);
        let stats = ExecStats::new();
        for id in 0..6 {
            let _ = cache.get(id, 2, &cm, &stats).unwrap();
        }
        assert!(cache.used_bytes() <= one + one / 2);
        // Recently used id=5 should still hit; id=0 should have been evicted.
        let before = stats.snapshot();
        let _ = cache.get(5, 2, &cm, &stats).unwrap();
        let after = stats.snapshot();
        assert_eq!(after.cache_hits, before.cache_hits + 1);
        let _ = cache.get(0, 2, &cm, &stats).unwrap();
        assert_eq!(stats.snapshot().cache_misses, after.cache_misses + 1);
    }

    #[test]
    fn eviction_is_globally_lru_across_shards() {
        let cm = compressed_sphere();
        let one = {
            let cache = DecodeCache::new(usize::MAX);
            let stats = ExecStats::new();
            cache.get(0, 2, &cm, &stats).unwrap().bytes()
        };
        // Room for three entries. Insert four, touching id=0 in between:
        // id=1 must be the victim, not the first-inserted id=0.
        let cache = DecodeCache::new(3 * one + one / 2);
        let stats = ExecStats::new();
        for id in 0..3 {
            let _ = cache.get(id, 2, &cm, &stats).unwrap();
        }
        let _ = cache.get(0, 2, &cm, &stats).unwrap(); // refresh id=0
        let _ = cache.get(3, 2, &cm, &stats).unwrap(); // forces one eviction
        let before = stats.snapshot();
        let _ = cache.get(0, 2, &cm, &stats).unwrap();
        assert_eq!(
            stats.snapshot().cache_hits,
            before.cache_hits + 1,
            "id=0 refreshed"
        );
        let mid = stats.snapshot();
        let _ = cache.get(1, 2, &cm, &stats).unwrap();
        assert_eq!(
            stats.snapshot().cache_misses,
            mid.cache_misses + 1,
            "id=1 evicted"
        );
    }

    /// Churn the cache through misses, hits and evictions, auditing the
    /// byte accounting and list structure after every step.
    #[cfg(feature = "strict-invariants")]
    #[test]
    fn consistency_audit_survives_churn() {
        let cm = compressed_sphere();
        let one = {
            let cache = DecodeCache::new(usize::MAX);
            let stats = ExecStats::new();
            cache.get(0, 2, &cm, &stats).unwrap().bytes()
        };
        let cache = DecodeCache::new(2 * one);
        let stats = ExecStats::new();
        for round in 0..3 {
            for id in 0..8u32 {
                let lod = (id as usize + round) % (cm.max_lod() + 1);
                let _ = cache.get(id, lod, &cm, &stats).unwrap();
                cache.check_consistency().unwrap();
            }
        }
        cache.clear();
        cache.check_consistency().unwrap();
    }

    #[test]
    fn tree_is_memoized_and_zero_copy() {
        let cm = compressed_sphere();
        let cache = DecodeCache::new(64 << 20);
        let stats = ExecStats::new();
        let d = cache.get(0, 0, &cm, &stats).unwrap();
        let t1 = d.tree().clone();
        let t2 = d.tree().clone();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(t1.len(), d.triangles.len());
        // The tree references the cached buffer, not a copy.
        assert!(std::ptr::eq(t1.triangles(), d.triangles.as_slice()));
    }

    #[test]
    fn clear_empties() {
        let cm = compressed_sphere();
        let cache = DecodeCache::new(64 << 20);
        let stats = ExecStats::new();
        let _ = cache.get(0, 0, &cm, &stats).unwrap();
        assert!(cache.used_bytes() > 0);
        cache.clear();
        assert_eq!(cache.used_bytes(), 0);
    }
}
