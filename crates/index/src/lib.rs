//! # tripro-index
//!
//! Spatial indexes for 3DPro: the global R-tree over object MBBs used by the
//! filter step (paper §4), and the per-object AABB-tree (BVH) over decoded
//! faces used by the intra-geometry acceleration (§5.1).

pub mod aabbtree;
pub mod rtree;

pub use aabbtree::AabbTree;
pub use rtree::{KthSmallest, RTree, WithinResult};
