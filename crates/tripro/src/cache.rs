//! LRU decode cache (paper §5.3): decoded faces for `(object, LOD)` pairs
//! are kept for reuse, because decompression is compute-intensive and one
//! source object (e.g. a vessel) is typically a candidate for hundreds of
//! target objects.
//!
//! Decoder *states* are also retained so that refining an object from LOD
//! `k` to `k+1` replays only the missing segments — the progressive decode
//! the paper's FPR paradigm depends on.
//!
//! ## Sharding
//!
//! The cache is split into [`SHARD_COUNT`] independently locked shards,
//! each holding its own hash map and an intrusive doubly-linked LRU list
//! (O(1) touch on hit, O(1) unlink on evict). A hit therefore contends
//! only with other accesses that hash to the same shard — the seed's
//! single global mutex serialised *every* lookup of the multi-threaded
//! join driver on the path that is supposed to be nearly free.
//!
//! Recency is a global atomic tick stamped on each touch, and byte usage
//! is tracked per shard (summing to an atomic global counter), so the
//! capacity budget stays a *global* bound: eviction walks the shard tails
//! — each tail is its shard's least-recent entry, so the globally oldest
//! entry is always one of them — and removes the oldest until the budget
//! holds. Eviction only runs on the miss path, which just paid for a
//! decode anyway.

use crate::error::{Error, Result};
use crate::fault;
use crate::obs;
use crate::obs::SpanKind;
use crate::stats::ExecStats;
use crate::sync::{lock, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// Number of independently locked cache shards (power of two).
pub const SHARD_COUNT: usize = 16;

/// Sentinel for "no slot" in the intrusive list.
const NIL: u32 = u32::MAX;

/// One cached entry, a node of its shard's intrusive LRU list.
struct Slot {
    key: Key,
    data: Arc<LodData>,
    bytes: usize,
    /// Global recency stamp (larger = more recent).
    tick: u64,
    prev: u32,
    next: u32,
}

/// One cache shard: hash map + intrusive LRU list over a slot arena.
#[derive(Default)]
struct Shard {
    map: HashMap<Key, u32>,
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    /// Most-recently-used slot.
    head: Option<u32>,
    /// Least-recently-used slot.
    tail: Option<u32>,
    used_bytes: usize,
}

impl Shard {
    fn slot(&self, i: u32) -> Option<&Slot> {
        self.slots.get(i as usize).and_then(Option::as_ref)
    }

    fn slot_mut(&mut self, i: u32) -> Option<&mut Slot> {
        self.slots.get_mut(i as usize).and_then(Option::as_mut)
    }

    /// Detach slot `i` from the LRU list (O(1)).
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
                if self.head == Some(i) {
                    self.head = Some(p);
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
        if let Some(s) = self.slot_mut(i) {
            s.prev = NIL;
            s.next = NIL;
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
    fn touch(&mut self, key: Key, tick: u64) -> Option<Arc<LodData>> {
        let i = *self.map.get(&key)?;
        self.unlink(i);
        self.push_front(i);
        let s = self.slot_mut(i)?;
        s.tick = tick;
        Some(Arc::clone(&s.data))
    }

    /// Insert (or replace) `key`; returns the net byte delta for the
    /// global counter.
    fn insert(&mut self, key: Key, data: Arc<LodData>, tick: u64) -> isize {
        let mut delta = 0isize;
        if let Some(&old) = self.map.get(&key) {
            delta -= self.remove_slot(old) as isize;
        }
        let bytes = data.bytes();
        let slot = Slot {
            key,
            data,
            bytes,
            tick,
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
        self.used_bytes += bytes;
        delta += bytes as isize;
        delta
    }

    /// Remove slot `i` entirely; returns its byte size.
    fn remove_slot(&mut self, i: u32) -> usize {
        self.unlink(i);
        let Some(slot) = self.slots.get_mut(i as usize).and_then(Option::take) else {
            return 0;
        };
        self.map.remove(&slot.key);
        self.free.push(i);
        self.used_bytes -= slot.bytes;
        slot.bytes
    }

    /// Recency stamp of the least-recent entry.
    fn tail_tick(&self) -> Option<u64> {
        self.tail.and_then(|t| self.slot(t)).map(|s| s.tick)
    }

    /// Evict the least-recent entry; returns the bytes freed.
    fn evict_tail(&mut self) -> usize {
        match self.tail {
            Some(t) => self.remove_slot(t),
            None => 0,
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = None;
        self.tail = None;
        self.used_bytes = 0;
    }
}

/// Thread-safe sharded LRU cache of decoded LODs with progressive
/// decoder-state reuse. A `capacity_bytes` of 0 disables caching entirely
/// (every request decodes from scratch) — the paper's Table 2 baseline.
pub struct DecodeCache {
    // LOCK-RANK(60): entry shards; after a per-object decode lock (50),
    // never while a decoder-state shard (70) is held.
    shards: Vec<Mutex<Shard>>,
    /// Bytes currently held, summed over all shards.
    used: AtomicUsize,
    /// Global recency clock; `fetch_add` gives every touch a unique stamp.
    clock: AtomicU64,
    /// Retained decoder states for incremental refinement, sharded by id.
    // LOCK-RANK(70): decoder-state shards; the innermost cache lock.
    states: Vec<Mutex<HashMap<u32, ProgressiveMesh>>>,
    /// Per-object decode locks (sharded) so two threads don't decode the
    /// same object twice; mirrors the paper's cuboid-level locks.
    // LOCK-RANK(50): per-object decode locks; held (cross-function, via
    // `get`) around lookup/decode/insert, so ranked below both shard tiers.
    locks: Vec<Mutex<()>>,
    capacity_bytes: usize,
}

/// Cheap deterministic shard hash (Fibonacci multiply on the object id,
/// xor-folded with the LOD) — `DefaultHasher` would dominate the hit path.
fn shard_of(key: Key) -> usize {
    let mixed = (u64::from(key.0))
        .wrapping_add(u64::from(key.1) << 32)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((mixed >> 48) as usize) & (SHARD_COUNT - 1)
}

impl DecodeCache {
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            used: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            states: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
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
        self.used.load(Ordering::Relaxed)
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
        let shard = shard_of(key);
        if self.enabled() {
            if let Some(hit) = self.lookup(key) {
                stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                obs::cache_hit_counter(shard).fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            // Miss path only: the hit path above stays span-free so the
            // nearly-free case (PR 2's de-contention story) is untouched.
            let _touch = obs::span_at(SpanKind::CacheTouch, id, lod as u32);
            // Serialise decodes of the same object.
            let _guard = lock(&self.locks[id as usize % self.locks.len()]);
            if let Some(hit) = self.lookup(key) {
                stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                obs::cache_hit_counter(shard).fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
            stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            obs::cache_miss_counter(shard).fetch_add(1, Ordering::Relaxed);
            let data = Arc::new(self.decode(id, lod, compressed, stats)?);
            self.insert(key, Arc::clone(&data));
            Ok(data)
        } else {
            stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            obs::cache_miss_counter(shard).fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(self.decode(id, lod, compressed, stats)?))
        }
    }

    fn lookup(&self, key: Key) -> Option<Arc<LodData>> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        lock(&self.shards[shard_of(key)]).touch(key, tick)
    }

    fn insert(&self, key: Key, data: Arc<LodData>) {
        // An injected insert fault degrades the cache (the entry is
        // simply not retained) without affecting query correctness —
        // chaos schedules use this to prove results don't depend on
        // cache residency.
        if fault::failpoint(fault::CACHE_INSERT).is_err() {
            return;
        }
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let delta = lock(&self.shards[shard_of(key)]).insert(key, data, tick);
        if delta >= 0 {
            self.used.fetch_add(delta as usize, Ordering::Relaxed);
        } else {
            self.used.fetch_sub(delta.unsigned_abs(), Ordering::Relaxed);
        }
        self.enforce_capacity();
    }

    /// Evict globally-least-recent entries until the byte budget holds
    /// (keeping at least one entry overall, so a single object larger than
    /// the whole budget still caches). Locks one shard at a time — shard
    /// tails are per-shard LRU minima, so the globally oldest entry is
    /// always one of the tails.
    fn enforce_capacity(&self) {
        // ORDERING: Relaxed is enough for the budget check — `used` is
        // only advisory here; the authoritative per-entry accounting sits
        // behind the shard locks, and an overshoot observed late is
        // corrected on the next pass around this loop.
        while self.used.load(Ordering::Relaxed) > self.capacity_bytes {
            let mut victim: Option<(usize, u64)> = None;
            let mut entries = 0usize;
            for (i, shard) in self.shards.iter().enumerate() {
                let guard = lock(shard);
                entries += guard.map.len();
                if let Some(t) = guard.tail_tick() {
                    if victim.map_or(true, |(_, best)| t < best) {
                        victim = Some((i, t));
                    }
                }
            }
            if entries <= 1 {
                break;
            }
            let Some((vi, _)) = victim else { break };
            let freed = lock(&self.shards[vi]).evict_tail();
            if freed == 0 {
                // The shard emptied under us (concurrent clear); rescan.
                continue;
            }
            obs::cache_evict_counter(vi).fetch_add(1, Ordering::Relaxed);
            self.used.fetch_sub(freed, Ordering::Relaxed);
        }
    }

    /// Internal-consistency audit for the `strict-invariants` test feature.
    /// Per shard: the LRU list must be a well-formed chain covering exactly
    /// the mapped slots with strictly decreasing recency stamps, and the
    /// recomputed byte sum must equal the shard counter. Globally: shard
    /// counters must sum to the atomic total and no stamp may exceed the
    /// clock. Intended for quiescent moments (between operations or after
    /// worker threads join).
    #[cfg(feature = "strict-invariants")]
    pub fn check_consistency(&self) -> std::result::Result<(), String> {
        let mut total = 0usize;
        for (si, shard) in self.shards.iter().enumerate() {
            let guard = lock(shard);
            let mut bytes = 0usize;
            let mut seen = 0usize;
            let mut cursor = guard.head;
            let mut last_tick = u64::MAX;
            let mut prev = NIL;
            while let Some(i) = cursor {
                let Some(slot) = guard.slot(i) else {
                    return Err(format!("shard {si}: list points at empty slot {i}"));
                };
                if guard.map.get(&slot.key) != Some(&i) {
                    return Err(format!("shard {si}: slot {i} not mapped to its key"));
                }
                if slot.prev != prev {
                    return Err(format!("shard {si}: slot {i} has a broken prev link"));
                }
                if slot.tick >= last_tick {
                    return Err(format!(
                        "shard {si}: recency not strictly decreasing at slot {i}"
                    ));
                }
                last_tick = slot.tick;
                bytes += slot.bytes;
                seen += 1;
                if seen > guard.map.len() {
                    return Err(format!("shard {si}: LRU list longer than map (cycle?)"));
                }
                prev = i;
                cursor = (slot.next != NIL).then_some(slot.next);
            }
            if seen != guard.map.len() {
                return Err(format!(
                    "shard {si}: list covers {seen} of {} mapped entries",
                    guard.map.len()
                ));
            }
            if guard.tail != ((prev != NIL).then_some(prev)) {
                return Err(format!("shard {si}: tail does not terminate the list"));
            }
            if bytes != guard.used_bytes {
                return Err(format!(
                    "shard {si}: byte accounting drifted: counter {} vs recomputed {bytes}",
                    guard.used_bytes
                ));
            }
            // ORDERING: Relaxed — ticks were written under this shard's
            // lock, which we hold; the clock only moves forward, so a
            // stale read can only make this check more permissive, never
            // produce a false failure.
            if last_tick != u64::MAX && last_tick > self.clock.load(Ordering::Relaxed) {
                return Err(format!("shard {si}: entry tick exceeds the clock"));
            }
            total += guard.used_bytes;
        }
        let counter = self.used.load(Ordering::Relaxed);
        if total != counter {
            return Err(format!(
                "global byte counter drifted: {counter} vs shard sum {total}"
            ));
        }
        Ok(())
    }

    /// Decode `(id, lod)`. With caching enabled, a retained decoder state
    /// at or below the requested LOD is resumed and the advanced state is
    /// retained again; otherwise decoding starts from the base.
    fn decode(
        &self,
        id: u32,
        lod: usize,
        compressed: &CompressedMesh,
        stats: &ExecStats,
    ) -> Result<LodData> {
        let _span = obs::span_at(SpanKind::Decode, id, lod as u32);
        fault::failpoint(fault::DECODE_LOD)?;
        let t0 = Instant::now();
        let state_shard = &self.states[id as usize % self.states.len()];
        // Take the state out so the decode itself runs without the map lock.
        let state = if self.enabled() {
            lock(state_shard).remove(&id)
        } else {
            None
        };
        let decode_err = |source| Error::Decode { object: id, source };
        let mut pm = match state {
            Some(pm) if pm.current_lod() <= lod => pm,
            _ => compressed.decoder().map_err(decode_err)?,
        };
        pm.decode_to(lod).map_err(decode_err)?;
        let tris = pm.triangles();
        if self.enabled() {
            lock(state_shard).insert(id, pm);
        }
        let took = t0.elapsed();
        stats.add_decode(took);
        stats.decodes.fetch_add(1, Ordering::Relaxed);
        stats.add_decoded_bytes(std::mem::size_of_val(tris.as_slice()) as u64);
        obs::decode_histogram(lod).record_duration(took);
        Ok(LodData::new(tris))
    }

    /// Drop all cached data and decoder states.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = lock(shard);
            let freed = guard.used_bytes;
            guard.clear();
            self.used.fetch_sub(freed, Ordering::Relaxed);
        }
        for states in &self.states {
            lock(states).clear();
        }
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
        // Room for three entries. Insert four across (almost surely)
        // different shards, touching id=0 in between: id=1 must be the
        // victim even though shard occupancies differ.
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
        assert!(Arc::ptr_eq(t1.shared_triangles(), &d.triangles));
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

    #[test]
    fn shard_hash_is_spread_and_stable() {
        let mut hit = [false; SHARD_COUNT];
        for id in 0..256u32 {
            for lod in 0..4u8 {
                let s = shard_of((id, lod));
                assert!(s < SHARD_COUNT);
                assert_eq!(s, shard_of((id, lod)), "deterministic");
                hit[s] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "all shards reachable");
    }
}
