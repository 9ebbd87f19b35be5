//! AABB-tree (BVH) over the triangles of one decoded polyhedron — the
//! intra-geometry acceleration of paper §5.1: it reduces face-pair
//! evaluation from `O(N·N')` to roughly `O(N·log N')` for both intersection
//! detection and distance calculation.

use std::sync::Arc;
use tripro_geom::{tri_tri_dist2_below_boxed, tri_tri_intersect, Aabb, Triangle};

const LEAF_SIZE: usize = 4;

#[derive(Debug, Clone)]
struct BvhNode {
    bb: Aabb,
    /// Leaf: `start..end` into `order`. Inner: child indices.
    kind: NodeKind,
}

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf { start: u32, end: u32 },
    Inner { left: u32, right: u32 },
}

/// A static bounding-volume hierarchy over a triangle list.
///
/// The triangle buffer is held behind an [`Arc`] and the tree itself is
/// index-based (leaves store ranges into a permutation array), so building
/// over an already-shared buffer — the decode cache's per-LOD faces — is
/// zero-copy: see [`AabbTree::build_shared`].
#[derive(Debug, Clone)]
pub struct AabbTree {
    tris: Arc<Vec<Triangle>>,
    /// Permutation of triangle indices grouped by leaf.
    order: Vec<u32>,
    nodes: Vec<BvhNode>,
    root: u32,
}

impl AabbTree {
    /// Build by recursive median split on the longest centroid axis.
    pub fn build(tris: Vec<Triangle>) -> Self {
        Self::build_shared(Arc::new(tris))
    }

    /// Build over a shared triangle buffer without copying it. The nodes
    /// reference faces by index, so the only per-tree allocations are the
    /// permutation array and the node list.
    pub fn build_shared(tris: Arc<Vec<Triangle>>) -> Self {
        assert!(
            !tris.is_empty(),
            "cannot build an AABB-tree over zero faces"
        );
        let mut order: Vec<u32> = (0..tris.len() as u32).collect();
        let mut nodes = Vec::with_capacity(2 * tris.len() / LEAF_SIZE + 2);
        let centroids: Vec<_> = tris.iter().map(|t| t.centroid()).collect();
        let root = Self::build_rec(&tris, &centroids, &mut order, 0, tris.len(), &mut nodes);
        Self {
            tris,
            order,
            nodes,
            root,
        }
    }

    fn build_rec(
        tris: &[Triangle],
        centroids: &[tripro_geom::Vec3],
        order: &mut [u32],
        start: usize,
        end: usize,
        nodes: &mut Vec<BvhNode>,
    ) -> u32 {
        let mut bb = Aabb::EMPTY;
        for &i in &order[start..end] {
            bb = bb.union(&tris[i as usize].aabb());
        }
        if end - start <= LEAF_SIZE {
            nodes.push(BvhNode {
                bb,
                kind: NodeKind::Leaf {
                    start: start as u32,
                    end: end as u32,
                },
            });
            return (nodes.len() - 1) as u32;
        }
        // Split on the longest axis of the centroid bounds.
        let mut cb = Aabb::EMPTY;
        for &i in &order[start..end] {
            cb.expand(centroids[i as usize]);
        }
        let axis = cb.extent().dominant_axis();
        let mid = (start + end) / 2;
        order[start..end].select_nth_unstable_by(mid - start, |&a, &b| {
            centroids[a as usize][axis].total_cmp(&centroids[b as usize][axis])
        });
        let left = Self::build_rec(tris, centroids, order, start, mid, nodes);
        let right = Self::build_rec(tris, centroids, order, mid, end, nodes);
        nodes.push(BvhNode {
            bb,
            kind: NodeKind::Inner { left, right },
        });
        (nodes.len() - 1) as u32
    }

    /// Number of triangles.
    pub fn len(&self) -> usize {
        self.tris.len()
    }

    /// Never empty (construction requires ≥ 1 triangle).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Root bounding box.
    pub fn bounds(&self) -> Aabb {
        self.nodes[self.root as usize].bb
    }

    /// The stored triangles (in input order).
    pub fn triangles(&self) -> &[Triangle] {
        &self.tris
    }

    /// `true` if any triangle of `self` intersects any triangle of `other`.
    /// Counts tri–tri tests into `tests` for the paper's cost accounting.
    pub fn intersects_tree(&self, other: &AabbTree, tests: &mut u64) -> bool {
        let mut stack = vec![(self.root, other.root)];
        while let Some((a, b)) = stack.pop() {
            let na = &self.nodes[a as usize];
            let nb = &other.nodes[b as usize];
            if !na.bb.intersects(&nb.bb) {
                continue;
            }
            match (&na.kind, &nb.kind) {
                (NodeKind::Leaf { start: s1, end: e1 }, NodeKind::Leaf { start: s2, end: e2 }) => {
                    for &i in &self.order[*s1 as usize..*e1 as usize] {
                        for &j in &other.order[*s2 as usize..*e2 as usize] {
                            *tests += 1;
                            if tri_tri_intersect(&self.tris[i as usize], &other.tris[j as usize]) {
                                return true;
                            }
                        }
                    }
                }
                (NodeKind::Inner { left, right }, _) => {
                    stack.push((*left, b));
                    stack.push((*right, b));
                }
                (_, NodeKind::Inner { left, right }) => {
                    stack.push((a, *left));
                    stack.push((a, *right));
                }
            }
        }
        false
    }

    /// Minimum squared distance between the two triangle sets, by best-first
    /// branch-and-bound on node-pair MINDIST. `upper` optionally seeds the
    /// bound (pass `f64::INFINITY` for an exact minimum); the traversal also
    /// short-circuits to 0 on contact. Leaf face pairs are scored under the
    /// running best, so a pair whose boxes cannot beat it is a box test.
    pub fn min_dist2_tree(&self, other: &AabbTree, upper: f64, tests: &mut u64) -> f64 {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

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

        let mut best = upper;
        let mut heap = BinaryHeap::new();
        let d0 = self.nodes[self.root as usize]
            .bb
            .min_dist2(&other.nodes[other.root as usize].bb);
        heap.push((Reverse(Key(d0)), self.root, other.root));
        while let Some((Reverse(Key(lb)), a, b)) = heap.pop() {
            if lb >= best {
                break; // all remaining pairs are worse
            }
            let na = &self.nodes[a as usize];
            let nb = &other.nodes[b as usize];
            match (&na.kind, &nb.kind) {
                (NodeKind::Leaf { start: s1, end: e1 }, NodeKind::Leaf { start: s2, end: e2 }) => {
                    for &i in &self.order[*s1 as usize..*e1 as usize] {
                        let x = &self.tris[i as usize];
                        let x_box = x.aabb();
                        for &j in &other.order[*s2 as usize..*e2 as usize] {
                            *tests += 1;
                            let d2 =
                                tri_tri_dist2_below_boxed(x, &x_box, &other.tris[j as usize], best);
                            if d2 < best {
                                best = d2;
                                if tripro_geom::is_exactly_zero(best) {
                                    return 0.0;
                                }
                            }
                        }
                    }
                }
                (NodeKind::Inner { left, right }, _) => {
                    for &c in &[*left, *right] {
                        let d = self.nodes[c as usize].bb.min_dist2(&nb.bb);
                        if d < best {
                            heap.push((Reverse(Key(d)), c, b));
                        }
                    }
                }
                (_, NodeKind::Inner { left, right }) => {
                    for &c in &[*left, *right] {
                        let d = na.bb.min_dist2(&other.nodes[c as usize].bb);
                        if d < best {
                            heap.push((Reverse(Key(d)), a, c));
                        }
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tripro_geom::{tri_tri_dist2, vec3, Vec3};

    /// A z=constant square grid of triangles covering [0,n]×[0,n].
    fn sheet(n: usize, z: f64) -> Vec<Triangle> {
        let mut tris = Vec::new();
        for x in 0..n {
            for y in 0..n {
                let p = vec3(x as f64, y as f64, z);
                tris.push(Triangle::new(
                    p,
                    p + vec3(1.0, 0.0, 0.0),
                    p + vec3(0.0, 1.0, 0.0),
                ));
                tris.push(Triangle::new(
                    p + vec3(1.0, 0.0, 0.0),
                    p + vec3(1.0, 1.0, 0.0),
                    p + vec3(0.0, 1.0, 0.0),
                ));
            }
        }
        tris
    }

    #[test]
    fn build_and_bounds() {
        let t = AabbTree::build(sheet(8, 0.0));
        assert_eq!(t.len(), 128);
        let b = t.bounds();
        assert_eq!(b.lo, vec3(0.0, 0.0, 0.0));
        assert_eq!(b.hi, vec3(8.0, 8.0, 0.0));
    }

    #[test]
    fn parallel_sheets_distance() {
        let a = AabbTree::build(sheet(8, 0.0));
        let b = AabbTree::build(sheet(8, 3.0));
        let mut tests = 0;
        let d2 = a.min_dist2_tree(&b, f64::INFINITY, &mut tests);
        assert!((d2 - 9.0).abs() < 1e-12);
        // Branch-and-bound must evaluate far fewer than all 128*128 pairs.
        assert!(tests < 128 * 128 / 4, "tests = {tests}");
    }

    #[test]
    fn intersecting_sheets() {
        let a = AabbTree::build(sheet(8, 0.0));
        // A vertical triangle poking through the middle of the sheet.
        let poker = Triangle::new(
            vec3(4.2, 4.2, -1.0),
            vec3(4.3, 4.2, 1.0),
            vec3(4.2, 4.4, 1.0),
        );
        let b = AabbTree::build(vec![poker]);
        let mut tests = 0;
        assert!(a.intersects_tree(&b, &mut tests));
        let mut t2 = 0;
        assert_eq!(a.min_dist2_tree(&b, f64::INFINITY, &mut t2), 0.0);
    }

    #[test]
    fn disjoint_sheets_do_not_intersect() {
        let a = AabbTree::build(sheet(4, 0.0));
        let b = AabbTree::build(sheet(4, 5.0));
        let mut tests = 0;
        assert!(!a.intersects_tree(&b, &mut tests));
        assert_eq!(tests, 0, "bounding boxes alone should separate the sheets");
    }

    #[test]
    fn distance_matches_brute_force() {
        // Two small skewed sheets.
        let mut a_tris = sheet(3, 0.0);
        for t in &mut a_tris {
            *t = Triangle::new(t.a, t.b, t.c + vec3(0.0, 0.0, 0.3));
        }
        let b_tris: Vec<Triangle> = sheet(3, 2.0)
            .into_iter()
            .map(|t| {
                Triangle::new(
                    t.a + vec3(1.3, 0.7, 0.0),
                    t.b + vec3(1.3, 0.7, 0.0),
                    t.c + vec3(1.3, 0.7, 0.1),
                )
            })
            .collect();
        let brute = a_tris
            .iter()
            .flat_map(|x| b_tris.iter().map(move |y| tri_tri_dist2(x, y)))
            .fold(f64::INFINITY, f64::min);
        let ta = AabbTree::build(a_tris);
        let tb = AabbTree::build(b_tris);
        let mut tests = 0;
        let d2 = ta.min_dist2_tree(&tb, f64::INFINITY, &mut tests);
        assert!((d2 - brute).abs() < 1e-12, "bvh {d2} vs brute {brute}");
    }

    #[test]
    fn upper_bound_seed_prunes() {
        let a = AabbTree::build(sheet(8, 0.0));
        let b = AabbTree::build(sheet(8, 3.0));
        let mut t_unseeded = 0;
        let mut t_seeded = 0;
        let exact = a.min_dist2_tree(&b, f64::INFINITY, &mut t_unseeded);
        // A seed barely above the true distance still returns the truth.
        let d = a.min_dist2_tree(&b, exact + 1e-9, &mut t_seeded);
        assert!((d - exact).abs() < 1e-12);
        // A seed below the true distance returns the seed unchanged.
        let d2 = a.min_dist2_tree(&b, 1.0, &mut t_seeded);
        assert_eq!(d2, 1.0);
    }

    #[test]
    fn single_triangle_tree() {
        let tri = Triangle::new(Vec3::ZERO, vec3(1.0, 0.0, 0.0), vec3(0.0, 1.0, 0.0));
        let t = AabbTree::build(vec![tri]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic]
    fn empty_build_panics() {
        let _ = AabbTree::build(vec![]);
    }

    #[test]
    fn build_shared_is_zero_copy() {
        let buf = Arc::new(sheet(6, 0.0));
        let t = AabbTree::build_shared(Arc::clone(&buf));
        assert!(std::ptr::eq(t.triangles(), buf.as_slice()));
        // Sharing must not change any answer: compare with an owned build.
        let owned = AabbTree::build(sheet(6, 0.0));
        let other = AabbTree::build(sheet(6, 2.5));
        let (mut n1, mut n2) = (0, 0);
        let d_shared = t.min_dist2_tree(&other, f64::INFINITY, &mut n1);
        let d_owned = owned.min_dist2_tree(&other, f64::INFINITY, &mut n2);
        assert_eq!(d_shared, d_owned);
        assert_eq!(n1, n2);
    }
}
