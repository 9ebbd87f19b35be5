//! Cuboid → shard assignment for the horizontally sharded serve tier.
//!
//! The paper's cuboid partitioning (§5.3) doubles as the shard key: space
//! is cut into a fixed-pitch grid with an **absolute origin** (cell index
//! = `floor(coordinate / cell)`), and every grid cell is assigned to one
//! backend shard by rendezvous (highest-random-weight) hashing over a
//! versioned [`ShardMap`]. Both the coordinator and every shard derive
//! the identical assignment from `(epoch, cell, count)` alone — no cell
//! directory is ever exchanged, and routing stays a pure function.
//!
//! **Boundary-cuboid replication.** A source object whose MBB straddles
//! an ownership boundary is stored on *every* shard owning a cell its
//! MBB overlaps ([`partition_source`]). That makes per-shard join
//! results a covering set: any result object's MBB overlaps the query
//! region, hence shares a grid cell with it, hence lives on one of the
//! contacted owners. The coordinator merge deduplicates the replicas by
//! global id exactly once (see `docs/sharding.md`).

use std::sync::Arc;

use tripro::fault::mix64;
use tripro::{ObjectStore, StoredObject};
use tripro_geom::Aabb;

/// Enumerating more grid cells than this falls back to "all shards".
/// A superset of owners is always sound — extra shards only return
/// results another owner also holds, and the merge dedups — so the
/// clamp trades fan-out for bounded routing cost on huge regions.
const CELL_ENUM_MAX: u128 = 4096;

/// Versioned, deterministic cuboid → shard assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardMap {
    /// Assignment version. Bumping the epoch re-deals every cell, so a
    /// coordinator refuses to mix backends from different epochs.
    pub epoch: u64,
    /// Grid pitch (the cuboid edge). Derived from the target extent by
    /// the same rule the join driver uses, so coordinator and shards
    /// agree without sharing dataset bounds.
    pub cell: f64,
    /// Number of shards in the cluster.
    pub count: u32,
}

impl ShardMap {
    #[must_use]
    pub fn new(epoch: u64, cell: f64, count: u32) -> Self {
        Self {
            epoch,
            cell: cell.max(1e-9),
            count: count.max(1),
        }
    }

    /// The default grid pitch for a target store: its cuboid edge
    /// ([`ObjectStore::default_cell`]).
    #[must_use]
    pub fn cell_for(target: &ObjectStore) -> f64 {
        target.default_cell()
    }

    #[inline]
    fn grid(&self, x: f64) -> i64 {
        (x / self.cell).floor() as i64
    }

    /// Pack a grid coordinate triple into a cell key. 21 bits per axis;
    /// far-apart cells may alias, which only perturbs the (already
    /// pseudo-random) ownership deal and is identical on every node.
    #[inline]
    fn key_of(gx: i64, gy: i64, gz: i64) -> u64 {
        ((gx as u64 & 0x1F_FFFF) << 42) | ((gy as u64 & 0x1F_FFFF) << 21) | (gz as u64 & 0x1F_FFFF)
    }

    /// Rendezvous owner of a grid cell: the shard with the highest
    /// `mix64` weight for `(epoch, key, shard)`. Ties break to the
    /// lowest shard index; every node computes the same winner.
    #[must_use]
    pub fn owner_of(&self, key: u64) -> u32 {
        let seed = mix64(key.wrapping_add(mix64(self.epoch)));
        let mut best_w = 0u64;
        let mut best_i = 0u32;
        for i in 0..self.count {
            let w = mix64(seed ^ mix64(u64::from(i).wrapping_add(1)));
            if w > best_w {
                best_w = w;
                best_i = i;
            }
        }
        best_i
    }

    /// Owning shard of the cell containing point `p`.
    #[must_use]
    pub fn shard_of_point(&self, p: [f64; 3]) -> u32 {
        self.owner_of(Self::key_of(
            self.grid(p[0]),
            self.grid(p[1]),
            self.grid(p[2]),
        ))
    }

    /// Every shard index, ascending — the scatter set for joins and the
    /// fallback when cell enumeration would be unbounded.
    #[must_use]
    pub fn all_shards(&self) -> Vec<u32> {
        (0..self.count).collect()
    }

    /// Owners of every grid cell `b` overlaps, ascending and
    /// deduplicated. An inverted (empty) box owns nothing; a box
    /// spanning more than `CELL_ENUM_MAX` cells returns all shards.
    #[must_use]
    pub fn shards_for_box(&self, b: &Aabb) -> Vec<u32> {
        let (x0, x1) = (self.grid(b.lo.x), self.grid(b.hi.x));
        let (y0, y1) = (self.grid(b.lo.y), self.grid(b.hi.y));
        let (z0, z1) = (self.grid(b.lo.z), self.grid(b.hi.z));
        if x1 < x0 || y1 < y0 || z1 < z0 {
            return Vec::new();
        }
        let span = |a: i64, b: i64| (b as i128 - a as i128 + 1) as u128;
        let cells = span(x0, x1)
            .checked_mul(span(y0, y1))
            .and_then(|v| v.checked_mul(span(z0, z1)));
        match cells {
            Some(n) if n <= CELL_ENUM_MAX => {}
            _ => return self.all_shards(),
        }
        let mut out = Vec::new();
        for gx in x0..=x1 {
            for gy in y0..=y1 {
                for gz in z0..=z1 {
                    out.push(self.owner_of(Self::key_of(gx, gy, gz)));
                    if out.len() >= self.count as usize {
                        // Every shard already present — stop enumerating.
                        out.sort_unstable();
                        out.dedup();
                        if out.len() == self.count as usize {
                            return out;
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A shard process's identity within a cluster: the shared map plus this
/// process's index and the global (pre-partition) source object count.
/// Carried in `ServeConfig` and echoed over `ShardInfoOk`, so a
/// coordinator can refuse a backend built from a different map or
/// dataset before routing a single query to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardView {
    pub map: ShardMap,
    /// This shard's index in `0..map.count`.
    pub index: u32,
    /// Object count of the global source store the partition was cut
    /// from (a cheap dataset fingerprint).
    pub source_total: u64,
}

/// Cut the global source store down to shard `index`'s replica set:
/// every object whose MBB overlaps a grid cell owned by `index` is kept
/// (boundary-cuboid replication). Returns the local store plus the
/// local→global id map; locals are kept in ascending global-id order so
/// local tie-breaks agree bit-for-bit with a single-engine run.
#[must_use]
pub fn partition_source(
    source: ObjectStore,
    map: &ShardMap,
    index: u32,
    cache_bytes: usize,
) -> (ObjectStore, Arc<Vec<u32>>) {
    let mut ids = Vec::new();
    let mut kept: Vec<StoredObject> = Vec::new();
    for (i, o) in source.into_objects().into_iter().enumerate() {
        if map.shards_for_box(&o.mbb).contains(&index) {
            ids.push(i as u32);
            kept.push(o);
        }
    }
    (ObjectStore::from_objects(kept, cache_bytes), Arc::new(ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tripro_geom::Vec3;

    fn bx(lo: [f64; 3], hi: [f64; 3]) -> Aabb {
        Aabb {
            lo: Vec3::new(lo[0], lo[1], lo[2]),
            hi: Vec3::new(hi[0], hi[1], hi[2]),
        }
    }

    #[test]
    fn owners_are_deterministic_and_in_range() {
        let map = ShardMap::new(7, 2.0, 5);
        for k in 0..10_000u64 {
            let key = mix64(k);
            let o = map.owner_of(key);
            assert!(o < 5);
            assert_eq!(o, map.owner_of(key), "same key, same owner");
            assert_eq!(o, ShardMap::new(7, 2.0, 5).owner_of(key));
        }
    }

    #[test]
    fn epoch_re_deals_ownership() {
        let a = ShardMap::new(1, 2.0, 4);
        let b = ShardMap::new(2, 2.0, 4);
        let moved = (0..4096u64)
            .filter(|&k| a.owner_of(mix64(k)) != b.owner_of(mix64(k)))
            .count();
        assert!(moved > 0, "bumping the epoch must move some cells");
    }

    #[test]
    fn deal_is_roughly_balanced() {
        let map = ShardMap::new(3, 1.0, 4);
        let mut counts = [0usize; 4];
        for k in 0..8192u64 {
            counts[map.owner_of(mix64(k)) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 8192 / 8,
                "shard {i} got {c}/8192 cells — badly unbalanced deal"
            );
        }
    }

    #[test]
    fn shards_for_box_is_sorted_dedup_subset() {
        let map = ShardMap::new(9, 1.5, 6);
        let mut rng = 0x3D50u64;
        for _ in 0..500 {
            rng = mix64(rng);
            let cx = (rng & 0xFF) as f64 - 128.0;
            rng = mix64(rng);
            let cy = (rng & 0xFF) as f64 - 128.0;
            rng = mix64(rng);
            let cz = (rng & 0xFF) as f64 - 128.0;
            rng = mix64(rng);
            let e = ((rng & 0x1F) as f64) / 4.0;
            let b = bx([cx, cy, cz], [cx + e, cy + e, cz + e]);
            let owners = map.shards_for_box(&b);
            assert!(!owners.is_empty(), "a valid box has at least one owner");
            assert!(owners.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            assert!(owners.iter().all(|&s| s < 6));
            // The lo-corner cell's owner is always in the set.
            assert!(owners.contains(&map.shard_of_point([cx, cy, cz])));
        }
    }

    #[test]
    fn overlapping_boxes_share_an_owner() {
        // The replication-completeness core: if two boxes overlap they
        // share a point, hence a cell, hence an owner — so a query over
        // region A contacting owners(A) always reaches a shard holding
        // any object whose MBB overlaps A.
        let map = ShardMap::new(11, 2.0, 5);
        let mut rng = 77u64;
        for _ in 0..500 {
            rng = mix64(rng);
            let ax = (rng & 0x7F) as f64;
            rng = mix64(rng);
            let ay = (rng & 0x7F) as f64;
            rng = mix64(rng);
            let ae = ((rng & 0xF) as f64) + 0.5;
            let a = bx([ax, ay, 0.0], [ax + ae, ay + ae, 3.0]);
            // Overlapping partner: shift by less than the extent.
            rng = mix64(rng);
            let d = ((rng & 0x7) as f64) / 8.0 * ae;
            let b = bx([ax + d, ay + d, 1.0], [ax + d + ae, ay + d + ae, 4.0]);
            let oa = map.shards_for_box(&a);
            let ob = map.shards_for_box(&b);
            assert!(
                oa.iter().any(|s| ob.binary_search(s).is_ok()),
                "overlapping boxes {a:?} / {b:?} share no owner: {oa:?} vs {ob:?}"
            );
        }
    }

    #[test]
    fn huge_boxes_clamp_to_all_shards() {
        let map = ShardMap::new(5, 0.001, 3);
        let b = bx([-1e6, -1e6, -1e6], [1e6, 1e6, 1e6]);
        assert_eq!(map.shards_for_box(&b), vec![0, 1, 2]);
        // Inverted (empty) boxes own nothing.
        let inv = bx([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]);
        assert!(map.shards_for_box(&inv).is_empty());
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::new(0, 1.0, 1);
        assert_eq!(map.owner_of(123), 0);
        assert_eq!(map.shards_for_box(&bx([0.0; 3], [10.0; 3])), vec![0]);
    }
}
