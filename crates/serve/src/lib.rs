//! # tripro-serve
//!
//! A networked query service over the 3DPro engine: a multi-threaded TCP
//! server (std::net only — the workspace is dependency-free) speaking a
//! hand-rolled length-prefixed binary protocol ([`protocol`], specified in
//! `docs/protocol.md`).
//!
//! The paper's memory-centred design — compressed objects resident in
//! memory, per-cuboid batched execution, an LRU decode cache — is exactly
//! the substrate a long-lived service needs. This crate adds the request
//! lifecycle around it:
//!
//! * **One node skeleton** (`node`): accept, framing, inline probes,
//!   validation, panic containment, the outcome ledger and drain/shutdown
//!   are written once; the shard engine ([`server`]) and the scatter-gather
//!   coordinator ([`coordinator`]) are its two handlers.
//! * **Admission control** ([`server`]): a bounded queue plus an in-flight
//!   cap; excess requests receive an explicit `Overloaded` response instead
//!   of piling up unboundedly.
//! * **Per-cuboid batching**: concurrent point/probe requests are coalesced
//!   by the cuboid of their target object and executed on the process-wide
//!   [`tripro::pool`] worker pool, so a batch of requests touching the same
//!   spatial region shares decode-cache residency (paper §5.3).
//! * **Deadline-aware refinement**: each request's deadline travels into
//!   the engine as a [`tripro::Deadline`] token polled between LOD rounds —
//!   an expiring request stops paying for higher-LOD decode and returns a
//!   typed `DeadlineExceeded` error (P1/P2 early-out semantics).
//! * **Graceful shutdown**: the server stops admitting, drains in-flight
//!   work, answers it, and only then tears connections down.

pub mod client;
pub mod coordinator;
mod node;
pub mod protocol;
pub mod server;
pub mod shard;

pub use client::{Client, QueryReply, RetryOutcome, RetryPolicy, RetryingClient};
pub use coordinator::{Coordinator, CoordinatorConfig};
pub use protocol::{
    ErrorCode, NodeRole, Request, Response, ShardInfoPayload, TraceContext, WireError,
};
pub use server::{ServeConfig, Server};
pub use shard::{partition_source, ShardMap, ShardView};

/// Errors surfaced by the server runtime and the blocking client.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, connect, spawn...).
    Io(std::io::Error),
    /// Frame-level failure (malformed, oversized, closed...).
    Wire(WireError),
    /// The peer answered with a frame that makes no sense in this state
    /// (e.g. a result page for a health probe).
    Unexpected(&'static str),
    /// The node refused the connection itself with a typed error — at its
    /// connection limit (`Overloaded`, with a backoff hint), on a protocol
    /// version mismatch, or on unframeable input.
    Refused {
        code: ErrorCode,
        message: String,
        retry_after_ms: u32,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Wire(e) => write!(f, "wire error: {e}"),
            ServeError::Unexpected(what) => write!(f, "unexpected response: {what}"),
            ServeError::Refused { code, message, .. } => {
                write!(f, "connection refused ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            ServeError::Unexpected(_) | ServeError::Refused { .. } => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}
