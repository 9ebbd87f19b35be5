//! # tripro-geom
//!
//! Geometry kernel for the 3DPro reproduction: floating-point vectors,
//! axis-aligned bounding boxes, triangle primitives, intersection
//! predicates, distance computations, exact integer orientation tests on
//! the quantisation grid, and point-in-polyhedron containment.
//!
//! Everything in this crate is dependency-free and deterministic; it is the
//! substrate under the mesh compressor (`tripro-mesh`), the spatial indexes
//! (`tripro-index`) and the query engine (`tripro`).

pub mod aabb;
pub mod containment;
pub mod distance;
pub mod eps;
pub mod intersect;
pub mod ivec;
pub mod tri;
pub mod vec3;

pub use aabb::{Aabb, DistRange};
pub use containment::{mesh_surface_area, mesh_volume, point_in_mesh};
pub use distance::{
    tri_tri_dist, tri_tri_dist2, tri_tri_dist2_below, tri_tri_dist2_below_boxed,
    tri_tri_dist2_disjoint,
};
pub use eps::{approx_eq, approx_zero, is_exactly, is_exactly_zero};
pub use intersect::{aabb_triangle, ray_triangle, segment_triangle, tri_tri_intersect, RayHit};
pub use ivec::{ivec3, orient3d, IVec3, Orientation, MAX_EXACT_COORD};
pub use tri::Triangle;
pub use vec3::{vec3, Vec3};
