//! The benchmark's whole dependency surface: this is the only file in the
//! package that names workspace crates. Everything the benchmark measures
//! is a call into one of the public items listed here, timed from outside.
//!
//! Deliberately absent (the ROADMAP's collapse items delete them):
//! `ExecMode`, `QueryConfig::with_exec`, `StatsEx`, the `*_traced` protocol
//! and client variants, and direct `BatchExecutor` entry points — kernels
//! are reached through the `Computer` facade only.

/// Engine: stores, the join engine and its configuration, the geometry
/// computer, and the counters a join returns.
pub use tripro::{
    Accel, Computer, Engine, ExecStats, LodData, ObjectStore, Paradigm, QueryConfig, StatsSnapshot,
    StoreConfig, StoredObject,
};
/// Triangle-pair primitives the kernel probes time directly.
pub use tripro_geom::{tri_tri_dist2, tri_tri_intersect};
/// Indexes: the per-object AABB-tree and the global R-tree.
pub use tripro_index::{AabbTree, RTree};
/// PPVP codec (`CompressedMesh::decoder` / `ProgressiveMesh::decode_to` are
/// reached through `StoredObject::compressed`).
pub use tripro_mesh::{encode, EncoderConfig, TriMesh};
/// Wire codec: frame header plus the four body encode/decode functions.
pub use tripro_serve::protocol::{
    decode_header, decode_request_body, decode_response_body, encode_request, encode_response,
    pages_of, HEADER_LEN, NO_DEADLINE_MS,
};
/// Serve tier: single-node server, sharded cluster, blocking client.
pub use tripro_serve::{
    partition_source, Client, Coordinator, CoordinatorConfig, QueryReply, Request, ServeConfig,
    Server, ShardMap, ShardView,
};
/// Input generation only — the program under test never sees the seed.
pub use tripro_synth::{generate, DatasetConfig, VesselConfig};
