//! # tripro
//!
//! The 3DPro system: a spatial query engine for large collections of
//! complex 3D polyhedra, built on progressive (PPVP) compression and the
//! **Filter-Progressive-Refine** paradigm (Teng et al., EDBT 2022).
//!
//! ## The idea
//!
//! 3D spatial joins are dominated by the *refinement* step: decoding
//! full-resolution geometry and evaluating millions of triangle pairs.
//! 3DPro stores every object as a PPVP-compressed LOD ladder in which each
//! level is a guaranteed **subset** of the next. Two properties follow:
//!
//! * objects intersecting at a low LOD intersect at every higher LOD;
//! * inter-object distances only shrink as LOD rises.
//!
//! The query processor exploits them to return results **early** — most
//! candidate pairs are resolved on small, cheap, low-LOD meshes, and only
//! the stubborn remainder pays for full resolution.
//!
//! ## Walkthrough
//!
//! ```no_run
//! use tripro::{Engine, ObjectStore, StoreConfig, QueryConfig, Paradigm, Accel};
//!
//! // Closed, consistently oriented triangle meshes from anywhere
//! // (tripro_mesh::io loads OBJ/OFF; tripro_synth generates test tissue).
//! let targets: Vec<tripro_mesh::TriMesh> = vec![];
//! let sources: Vec<tripro_mesh::TriMesh> = vec![];
//!
//! // Compress into multi-LOD stores with a global R-tree.
//! let t = ObjectStore::build(&targets, &StoreConfig::default()).unwrap();
//! let s = ObjectStore::build(&sources, &StoreConfig::default()).unwrap();
//!
//! // Progressive nearest-neighbour join, AABB-tree accelerated, 8 threads.
//! let engine = Engine::new(&t, &s);
//! let cfg = QueryConfig::new(Paradigm::FilterProgressiveRefine, Accel::Aabb)
//!     .with_threads(8);
//! let (pairs, stats) = engine.nn_join(&cfg).unwrap();
//! # let _ = (pairs, stats);
//! ```
//!
//! ## Module map (mirrors the paper's architecture, Fig 8)
//!
//! | module | role |
//! |---|---|
//! | [`store`] | compressed objects in memory, global + partition R-trees, cuboid batching, persistence |
//! | [`cache`] | LRU decode cache with progressive decoder-state reuse (§5.3) |
//! | [`query`] | the query processor: FR & FPR intersection / within / NN / kNN joins (§4) |
//! | [`compute`] | the geometry computer and its acceleration strategies (§5.1) |
//! | [`gpu`] | the one face-pair launch loop behind Brute, Partition and the simulated GPU columns (§5.1, §5.2) |
//! | [`pool`] | persistent worker pool shared by the launch loop, driver and store build |
//! | [`partition`] | skeleton-based object partitioning (§5.1) |
//! | [`profiler`] | LOD-list selection by pruned-fraction profiling (§4.4, §6.5) |
//! | [`point`] | progressive point-containment queries |
//! | [`deadline`] | cooperative deadline/cancel tokens polled between refinement rounds |
//! | [`fault`] | deterministic fault-injection failpoints for chaos testing |
//! | [`stats`] | filter/decode/compute breakdowns and per-LOD pair counters (§6) |
//! | [`obs`] | span tracing, latency histograms, metrics registry + Prometheus exposition |

pub mod cache;
pub mod compute;
pub mod deadline;
pub mod error;
pub mod fault;
pub mod gpu;
pub mod obs;
pub mod partition;
pub mod point;
pub mod pool;
pub mod profiler;
pub mod query;
pub mod stats;
pub mod store;
pub mod sync;

pub use cache::{DecodeCache, LodData};
pub use compute::{Accel, Computer};
pub use deadline::Deadline;
pub use error::{Error, Result};
pub use fault::{FaultAction, Trigger};
pub use obs::{CostExemplar, Histogram, MetricsRegistry, TraceConfig};
pub use point::PointQuery;
pub use pool::WorkerPool;
pub use profiler::{choose_lods, measure_r, LodActivity, LodChoice, QueryKind};
pub use query::{Engine, JoinPairs, NnPairs, Paradigm, QueryConfig};
pub use stats::{ExecStats, ServiceSnapshot, ServiceStats, StatsSnapshot};
pub use store::{ObjectId, ObjectStore, StoreConfig, StoredObject};
