//! R-tree over object MBBs: the *filtering* step of both the Filter-Refine
//! and Filter-Progressive-Refine paradigms (paper §4).
//!
//! The tree is STR bulk-loaded once and then only queried. It supports
//! window (intersection) queries, the within-query traversal that splits
//! results into *definite* hits and *candidates* using MINDIST/MAXDIST
//! bounds (§4.2), and the nearest-neighbour candidate collection with
//! distance ranges (§4.3, after Roussopoulos et al.).

use tripro_geom::{Aabb, DistRange};

const MAX_ENTRIES: usize = 16;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf { bb: Aabb, entries: Vec<(Aabb, T)> },
    Inner { bb: Aabb, children: Vec<Node<T>> },
}

impl<T: Clone> Node<T> {
    fn bb(&self) -> &Aabb {
        match self {
            Node::Leaf { bb, .. } | Node::Inner { bb, .. } => bb,
        }
    }

    fn recompute_bb(&mut self) {
        match self {
            Node::Leaf { bb, entries } => {
                *bb = entries.iter().fold(Aabb::EMPTY, |a, (b, _)| a.union(b));
            }
            Node::Inner { bb, children } => {
                *bb = children.iter().fold(Aabb::EMPTY, |a, c| a.union(c.bb()));
            }
        }
    }
}

/// An R-tree mapping bounding boxes to values.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
}

impl<T: Clone> Default for RTree<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> RTree<T> {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::Leaf {
                bb: Aabb::EMPTY,
                entries: Vec::new(),
            },
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bounding box of everything stored.
    pub fn bounds(&self) -> Aabb {
        *self.root.bb()
    }

    /// Bulk-load with the Sort-Tile-Recursive algorithm: packs entries into
    /// fully utilised leaves with good spatial locality. Preferred for the
    /// static datasets 3DPro queries.
    pub fn bulk_load(mut items: Vec<(Aabb, T)>) -> Self {
        let len = items.len();
        if len == 0 {
            return Self::new();
        }
        // STR: tile along x, then y, then z.
        let leaf_count = len.div_ceil(MAX_ENTRIES);
        let s = (leaf_count as f64).powf(1.0 / 3.0).ceil() as usize; // slabs per axis
        let key = |bb: &Aabb, axis: usize| bb.center()[axis];
        items.sort_by(|a, b| key(&a.0, 0).total_cmp(&key(&b.0, 0)));
        let mut leaves: Vec<Node<T>> = Vec::with_capacity(leaf_count);
        let x_slab = len.div_ceil(s);
        for xs in items.chunks_mut(x_slab.max(1)) {
            xs.sort_by(|a, b| key(&a.0, 1).total_cmp(&key(&b.0, 1)));
            let y_slab = xs.len().div_ceil(s);
            for ys in xs.chunks_mut(y_slab.max(1)) {
                ys.sort_by(|a, b| key(&a.0, 2).total_cmp(&key(&b.0, 2)));
                for zs in ys.chunks(MAX_ENTRIES) {
                    let mut leaf = Node::Leaf {
                        bb: Aabb::EMPTY,
                        entries: zs.to_vec(),
                    };
                    leaf.recompute_bb();
                    leaves.push(leaf);
                }
            }
        }
        // Pack upper levels.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            for group in level.chunks(MAX_ENTRIES) {
                let mut inner = Node::Inner {
                    bb: Aabb::EMPTY,
                    children: group.to_vec(),
                };
                inner.recompute_bb();
                next.push(inner);
            }
            level = next;
        }
        match level.pop() {
            Some(root) => Self { root, len },
            None => Self::new(),
        }
    }

    /// All values whose MBB intersects `window` (the intersection-join
    /// filter step, §4.1).
    pub fn query_intersects(&self, window: &Aabb) -> Vec<T> {
        let mut out = Vec::new();
        self.visit_intersects(window, &mut |v: &T, _bb| out.push(v.clone()));
        out
    }

    /// Visit every `(value, bb)` whose MBB intersects `window`.
    pub fn visit_intersects(&self, window: &Aabb, f: &mut impl FnMut(&T, &Aabb)) {
        let mut stack = vec![&self.root];
        while let Some(n) = stack.pop() {
            if !n.bb().intersects(window) {
                continue;
            }
            match n {
                Node::Leaf { entries, .. } => {
                    for (bb, v) in entries {
                        if bb.intersects(window) {
                            f(v, bb);
                        }
                    }
                }
                Node::Inner { children, .. } => stack.extend(children.iter()),
            }
        }
    }

    /// Within-query filter (paper §4.2): split the dataset against `target`
    /// at distance `d` into objects that are *definitely* within `d`
    /// (`MAXDIST ≤ d`, no geometry needed) and *candidates*
    /// (`MINDIST ≤ d < MAXDIST`, need refinement). Everything else is
    /// pruned by `MINDIST > d`, including whole subtrees.
    pub fn within(&self, target: &Aabb, d: f64) -> WithinResult<T> {
        let mut res = WithinResult {
            definite: Vec::new(),
            candidates: Vec::new(),
        };
        let mut stack = vec![&self.root];
        while let Some(n) = stack.pop() {
            if n.bb().min_dist(target) > d {
                continue; // whole subtree too far
            }
            if n.bb().max_dist(target) <= d {
                // Whole subtree definitely within (covers the paper's
                // r.MAXDIST ≤ d shortcut for inner nodes).
                collect_all(n, &mut res.definite);
                continue;
            }
            match n {
                Node::Leaf { entries, .. } => {
                    for (bb, v) in entries {
                        let r = bb.dist_range(target);
                        if r.min > d {
                            continue;
                        }
                        if r.max <= d {
                            res.definite.push(v.clone());
                        } else {
                            res.candidates.push(v.clone());
                        }
                    }
                }
                Node::Inner { children, .. } => stack.extend(children.iter()),
            }
        }
        res
    }

    /// Nearest-neighbour candidate collection (paper §4.3): best-first
    /// traversal by MINDIST, pruning by the running MINMAXDIST. The result
    /// contains every object whose distance range to `target` overlaps the
    /// smallest MAXDIST seen, each with its `[MINDIST, MAXDIST]` range,
    /// nearest MINDIST first.
    pub fn nn_candidates(&self, target: &Aabb) -> Vec<(T, DistRange)> {
        self.knn_candidates(target, 1)
    }

    /// k-nearest-neighbour candidate collection: keeps the pruning threshold
    /// at the k-th smallest MAXDIST so at least `k` true nearest neighbours
    /// survive filtering (§4.3's kNN note). Candidates come back in
    /// ascending MINDIST order (ties in leaf order).
    pub fn knn_candidates(&self, target: &Aabb, k: usize) -> Vec<(T, DistRange)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        if self.is_empty() || k == 0 {
            return Vec::new();
        }

        #[derive(PartialEq)]
        struct Key(f64);
        impl Eq for Key {}
        impl PartialOrd for Key {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for Key {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&o.0)
            }
        }

        // Best-first over nodes by MINDIST.
        let mut heap: BinaryHeap<(Reverse<Key>, usize)> = BinaryHeap::new();
        let mut nodes: Vec<&Node<T>> = vec![&self.root];
        heap.push((Reverse(Key(self.root.bb().min_dist(target))), 0));

        // Track the k smallest MAXDISTs seen so far (max-heap of size k).
        let mut kth: BinaryHeap<Key> = BinaryHeap::new();
        let mut found: Vec<(T, DistRange)> = Vec::new();

        while let Some((Reverse(Key(mind)), idx)) = heap.pop() {
            let threshold = if kth.len() >= k {
                kth.peek().map_or(f64::INFINITY, |t| t.0)
            } else {
                f64::INFINITY
            };
            if mind > threshold {
                break; // every remaining node is too far
            }
            match nodes[idx] {
                Node::Leaf { entries, .. } => {
                    for (bb, v) in entries {
                        let r = bb.dist_range(target);
                        let threshold = if kth.len() >= k {
                            kth.peek().map_or(f64::INFINITY, |t| t.0)
                        } else {
                            f64::INFINITY
                        };
                        if r.min > threshold {
                            continue;
                        }
                        found.push((v.clone(), r));
                        kth.push(Key(r.max));
                        if kth.len() > k {
                            kth.pop();
                        }
                    }
                }
                Node::Inner { children, .. } => {
                    for c in children {
                        let d = c.bb().min_dist(target);
                        let threshold = if kth.len() >= k {
                            kth.peek().map_or(f64::INFINITY, |t| t.0)
                        } else {
                            f64::INFINITY
                        };
                        if d <= threshold {
                            nodes.push(c);
                            heap.push((Reverse(Key(d)), nodes.len() - 1));
                        }
                    }
                }
            }
        }

        // Final prune with the settled threshold.
        let threshold = if kth.len() >= k {
            kth.peek().map_or(f64::INFINITY, |t| t.0)
        } else {
            f64::INFINITY
        };
        found.retain(|(_, r)| r.min <= threshold);
        // Nearest first, so a caller's cut-off tightens on the closest
        // candidates before it meets the far ones; the stable sort keeps
        // leaf order among ties.
        found.sort_by(|a, b| a.1.min.total_cmp(&b.1.min));
        found
    }

    /// Height of the tree (1 for a single leaf); exposed for tests.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut n = &self.root;
        while let Node::Inner { children, .. } = n {
            h += 1;
            n = &children[0];
        }
        h
    }
}

fn collect_all<T: Clone>(node: &Node<T>, out: &mut Vec<T>) {
    match node {
        Node::Leaf { entries, .. } => out.extend(entries.iter().map(|(_, v)| v.clone())),
        Node::Inner { children, .. } => {
            for c in children {
                collect_all(c, out);
            }
        }
    }
}

/// Result of the within-query filter step.
#[derive(Debug, Clone)]
pub struct WithinResult<T> {
    /// Objects guaranteed within the distance by MBB bounds alone.
    pub definite: Vec<T>,
    /// Objects needing geometric refinement.
    pub candidates: Vec<T>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tripro_geom::vec3;

    fn grid_boxes(n: usize) -> Vec<(Aabb, usize)> {
        // n³ unit boxes at integer offsets spaced 3 apart.
        let mut out = Vec::new();
        let mut id = 0;
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let lo = vec3(3.0 * x as f64, 3.0 * y as f64, 3.0 * z as f64);
                    out.push((Aabb::from_corners(lo, lo + vec3(1.0, 1.0, 1.0)), id));
                    id += 1;
                }
            }
        }
        out
    }

    #[test]
    fn bulk_load_and_query() {
        let boxes = grid_boxes(5);
        let t = RTree::bulk_load(boxes.clone());
        assert_eq!(t.len(), 125);
        // Window covering the first 2x2x2 block.
        let w = Aabb::from_corners(vec3(0.0, 0.0, 0.0), vec3(4.0, 4.0, 4.0));
        let mut hits = t.query_intersects(&w);
        hits.sort_unstable();
        let mut expected: Vec<usize> = boxes
            .iter()
            .filter(|(bb, _)| bb.intersects(&w))
            .map(|(_, id)| *id)
            .collect();
        expected.sort_unstable();
        assert_eq!(hits, expected);
        assert_eq!(hits.len(), 8);
    }

    #[test]
    fn empty_tree() {
        let t: RTree<usize> = RTree::new();
        assert!(t.is_empty());
        let w = Aabb::from_corners(vec3(0.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0));
        assert!(t.query_intersects(&w).is_empty());
        assert!(t.nn_candidates(&w).is_empty());
        let r = t.within(&w, 10.0);
        assert!(r.definite.is_empty() && r.candidates.is_empty());
    }

    #[test]
    fn within_splits_definite_and_candidates() {
        let boxes = grid_boxes(4);
        let t = RTree::bulk_load(boxes.clone());
        let target = Aabb::from_corners(vec3(0.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0));
        let d = 4.0;
        let r = t.within(&target, d);
        // Brute-force check.
        for (bb, id) in &boxes {
            let range = bb.dist_range(&target);
            if range.max <= d {
                assert!(r.definite.contains(id), "box {id} should be definite");
            } else if range.min <= d {
                assert!(r.candidates.contains(id), "box {id} should be candidate");
            } else {
                assert!(!r.definite.contains(id) && !r.candidates.contains(id));
            }
        }
    }

    #[test]
    fn nn_candidates_contain_true_nearest() {
        let boxes = grid_boxes(5);
        let t = RTree::bulk_load(boxes.clone());
        // A probe near box id for (1,1,1): center at (3.5+..).
        let target = Aabb::from_corners(vec3(3.2, 3.2, 3.2), vec3(3.8, 3.8, 3.8));
        let cands = t.nn_candidates(&target);
        assert!(!cands.is_empty());
        // Brute force: true nearest by MINDIST must be among candidates.
        let brute_nearest = boxes
            .iter()
            .min_by(|a, b| a.0.min_dist(&target).total_cmp(&b.0.min_dist(&target)))
            .unwrap()
            .1;
        assert!(
            cands.iter().any(|(id, _)| *id == brute_nearest),
            "true nearest {brute_nearest} missing from candidate set"
        );
        // All candidate ranges must overlap the minimal MAXDIST.
        let minmax = cands
            .iter()
            .map(|(_, r)| r.max)
            .fold(f64::INFINITY, f64::min);
        for (_, r) in &cands {
            assert!(r.min <= minmax);
        }
    }

    #[test]
    fn knn_keeps_at_least_k() {
        let boxes = grid_boxes(5);
        let t = RTree::bulk_load(boxes);
        let target = Aabb::from_point(vec3(7.0, 7.0, 7.0));
        for k in [1usize, 3, 8] {
            let cands = t.knn_candidates(&target, k);
            assert!(cands.len() >= k, "k={k} got {}", cands.len());
        }
    }

    #[test]
    fn knn_candidates_come_nearest_first() {
        let boxes = grid_boxes(5);
        let t = RTree::bulk_load(boxes.clone());
        let target = Aabb::from_point(vec3(4.6, 3.5, 1.9));
        let cands = t.knn_candidates(&target, 3);
        assert!(cands.len() >= 3);
        assert!(
            cands.windows(2).all(|w| w[0].1.min <= w[1].1.min),
            "MINDIST not non-decreasing"
        );
        let nearest = boxes
            .iter()
            .map(|(bb, _)| bb.min_dist(&target))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(cands[0].1.min.to_bits(), nearest.to_bits());
    }

    #[test]
    fn bulk_load_height_is_logarithmic() {
        let t = RTree::bulk_load(grid_boxes(10)); // 1000 entries
                                                  // 1000/16 = 63 leaves, /16 = 4, /16 = 1 → height 4 (leaf + 3).
        assert!(t.height() <= 4, "height {}", t.height());
    }

    #[test]
    fn bounds_cover_everything() {
        let boxes = grid_boxes(3);
        let t = RTree::bulk_load(boxes.clone());
        let b = t.bounds();
        for (bb, _) in &boxes {
            assert!(b.contains_box(bb));
        }
    }

    #[test]
    fn single_entry_tree() {
        let bb = Aabb::from_corners(vec3(0.0, 0.0, 0.0), vec3(1.0, 1.0, 1.0));
        let t = RTree::bulk_load(vec![(bb, 42usize)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.query_intersects(&bb), vec![42]);
        let nn = t.nn_candidates(&Aabb::from_point(vec3(9.0, 9.0, 9.0)));
        assert_eq!(nn.len(), 1);
        assert_eq!(nn[0].0, 42);
    }
}
