//! The `tripro-serve` wire protocol: length-prefixed binary frames over a
//! byte stream (see `docs/protocol.md` for the normative description).
//!
//! Every frame is a fixed 16-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length (u32 LE, excludes the header)
//! 4       2     magic 0x3D50 ("=P")
//! 6       1     protocol version (currently 4; v1 still accepted)
//! 7       1     frame kind
//! 8       8     request id (u64 LE, echoed verbatim in responses)
//! ```
//!
//! All integers are little-endian; `f64` travels as its IEEE-754 bit
//! pattern. Payloads are capped at [`MAX_PAYLOAD`]; responses stream large
//! result sets as a sequence of [`Response::Page`] frames instead of one
//! giant frame, so the cap bounds per-frame memory on both sides.

use std::io::{Read, Write};

use tripro::obs::{HistogramSnapshot, MetricSnapshot, MetricValue, SpanSummary};

/// Frame magic ("=P" little-endian): rejects non-protocol peers early.
pub const MAGIC: u16 = 0x3D50;

/// The protocol version this build speaks. Version 2 added the
/// `Metrics`/`MetricsOk` frame pair; version 3 adds `StatsEx`/`StatsExOk`
/// (extended stats: failure counts plus the engine's cumulative time
/// breakdown); version 4 appends a `retry_after_ms` backoff hint to the
/// `Error` frame (optional-trailing on decode, so v1–v3 error frames
/// still parse). Version 5 adds the sharded-tier machinery: a node-role
/// byte on `Hello`/`HelloOk` (optional-trailing — v1–v4 frames decode to
/// the role defaults), the `ShardInfo`/`ShardInfoOk` probe, the scored
/// sub-query pair `NnEx`/`KnnEx` with `PageD` result pages, and an
/// optional-trailing `partial` flag on `Page` (emitted only when set, so
/// a complete v5 page is byte-identical to its v4 encoding). Version 6
/// adds cluster observability: an optional-trailing [`TraceContext`]
/// triple (`trace_id`, `parent_span_id`, `sampled` — 17 bytes) on every
/// query request so a coordinator can propagate its trace id to shards,
/// an optional-trailing 80-byte [`SpanSummary`] on the final `Page` /
/// `PageD` of a sampled reply carrying the shard's per-stage cost back,
/// and two probe pairs — `MetricsBin`/`MetricsBinOk` (binary metric
/// snapshots for exact federated merging) and `TraceLog`/`TraceLogOk`
/// (the node's rendered slow-trace log). Every older frame is unchanged,
/// so both ends accept the whole [`MIN_VERSION`]`..=`[`VERSION`] range.
pub const VERSION: u8 = 6;

/// Oldest protocol version this build still accepts.
pub const MIN_VERSION: u8 = 1;

/// Hard cap on payload size; larger length prefixes are a protocol error
/// (they would otherwise let a hostile peer demand unbounded allocation).
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Maximum object ids per result page; larger results span several pages.
pub const PAGE_MAX_IDS: usize = 512;

/// Sentinel for "no deadline" in request `deadline_ms` fields. `0` means
/// "already expired" (the request is admitted, then immediately sheds its
/// refinement work — useful for load-shedding tests).
pub const NO_DEADLINE_MS: u32 = u32::MAX;

// Frame kinds. Requests have the high bit clear, responses set.
const K_HELLO: u8 = 0x01;
const K_HEALTH: u8 = 0x02;
const K_STATS: u8 = 0x03;
const K_SHUTDOWN: u8 = 0x04;
const K_METRICS: u8 = 0x05; // v2+
const K_STATS_EX: u8 = 0x06; // v3+
const K_SHARD_INFO: u8 = 0x07; // v5+
const K_METRICS_BIN: u8 = 0x08; // v6+
const K_TRACE_LOG: u8 = 0x09; // v6+
const K_CONTAINS: u8 = 0x10;
const K_INTERSECT: u8 = 0x11;
const K_WITHIN: u8 = 0x12;
const K_NN: u8 = 0x13;
const K_KNN: u8 = 0x14;
const K_NN_EX: u8 = 0x15; // v5+
const K_KNN_EX: u8 = 0x16; // v5+
const K_HELLO_OK: u8 = 0x81;
const K_HEALTH_OK: u8 = 0x82;
const K_STATS_OK: u8 = 0x83;
const K_SHUTDOWN_OK: u8 = 0x84;
const K_METRICS_OK: u8 = 0x85; // v2+
const K_STATS_EX_OK: u8 = 0x86; // v3+
const K_SHARD_INFO_OK: u8 = 0x87; // v5+
const K_METRICS_BIN_OK: u8 = 0x88; // v6+
const K_TRACE_LOG_OK: u8 = 0x89; // v6+
const K_PAGE: u8 = 0x90;
const K_PAGE_D: u8 = 0x91; // v5+
const K_ERROR: u8 = 0xFF;

/// Errors produced while encoding, decoding or transporting frames.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// A structurally invalid frame (bad magic, short payload, trailing
    /// bytes, unknown kind...). The message names the violation.
    Malformed(&'static str),
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u8),
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::Oversized(n) => {
                write!(f, "oversized frame: {n} bytes (max {MAX_PAYLOAD})")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Closed
        } else {
            WireError::Io(e)
        }
    }
}

/// Response error codes (the `code` byte of an [`Response::Error`] frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission control refused the request; retry with backoff.
    Overloaded = 1,
    /// The request's deadline expired before refinement completed.
    DeadlineExceeded = 2,
    /// The request was structurally valid but semantically wrong
    /// (e.g. target id out of range).
    BadRequest = 3,
    /// Header version outside the server's supported range.
    UnsupportedVersion = 4,
    /// The engine failed internally (decode error, I/O...).
    Internal = 5,
}

impl ErrorCode {
    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            3 => ErrorCode::BadRequest,
            4 => ErrorCode::UnsupportedVersion,
            5 => ErrorCode::Internal,
            _ => return Err(WireError::Malformed("unknown error code")),
        })
    }
}

/// What kind of node sits at each end of a connection (v5+). Carried as
/// an optional-trailing byte on `Hello` (the connecting node's role) and
/// `HelloOk` (the serving node's role): a v1–v4 `Hello` decodes as
/// [`NodeRole::Client`], a v1–v4 `HelloOk` as [`NodeRole::Engine`] —
/// exactly what those peers were.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeRole {
    /// An ordinary query client.
    Client = 0,
    /// A query engine serving (a shard of) the stores directly.
    Engine = 1,
    /// A coordinator fronting a set of engine shards.
    Coordinator = 2,
}

impl NodeRole {
    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => NodeRole::Client,
            1 => NodeRole::Engine,
            2 => NodeRole::Coordinator,
            _ => return Err(WireError::Malformed("unknown node role")),
        })
    }
}

/// Shard-placement description reported by a [`Response::ShardInfoOk`]
/// frame (v5+). A plain engine reports `index 0 / count 1 / epoch 0`; a
/// coordinator validates every backend's view against its own shard map
/// at startup, so a mis-deployed cluster fails fast instead of silently
/// returning partial answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardInfoPayload {
    /// What the answering node is.
    pub role: NodeRole,
    /// Shard-map epoch this node was started with.
    pub epoch: u64,
    /// This node's shard index in `0..count`.
    pub index: u32,
    /// Total shards in the map.
    pub count: u32,
    /// Grid cell edge the shard map hashes cuboids with.
    pub cell: f64,
    /// Objects in the (always full) target store.
    pub target_objects: u64,
    /// Source objects resident on this node (the boundary-replicated
    /// subset on a shard; the full store on an unsharded engine).
    pub source_objects: u64,
    /// Objects in the full, unpartitioned source store.
    pub source_total: u64,
}

/// Distributed trace context carried on query requests (v6+). Encoded as
/// an optional-trailing 17-byte triple (`trace_id` u64, `parent_span_id`
/// u64, `sampled` u8) after the query body: a v1–v5 request ends at the
/// body, and a v6 peer that does not trace simply omits the triple, so
/// both decode to "no context". A shard that receives a sampled context
/// executes the request under the propagated `trace_id` and ships a
/// [`SpanSummary`] back on the final page of its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Cluster-wide trace id (the coordinator's request id by default).
    pub trace_id: u64,
    /// Span id of the parent on the initiating node (the coordinator
    /// encodes the shard index here so replies are attributable).
    pub parent_span_id: u64,
    /// Whether the initiator is actively sampling this request; unsampled
    /// contexts propagate the id for log correlation but ask the shard
    /// not to pay for span collection.
    pub sampled: bool,
}

/// Wire size of an encoded [`TraceContext`] (u64 + u64 + u8).
pub const TRACE_CTX_LEN: usize = 17;

/// Wire size of an encoded [`SpanSummary`] (ten u64 fields).
pub const SPAN_SUMMARY_LEN: usize = 80;

/// Counters reported by a [`Response::StatsOk`] frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsPayload {
    pub admitted: u64,
    pub shed: u64,
    pub deadline_expired: u64,
    pub completed: u64,
    pub protocol_errors: u64,
    /// Objects in the loaded target store.
    pub target_objects: u64,
    /// Objects in the loaded source store.
    pub source_objects: u64,
}

/// Extended counters reported by a [`Response::StatsExOk`] frame (v3+):
/// the v1 `StatsPayload` fields plus execution failures and the engine's
/// cumulative time breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsExPayload {
    // Service lifecycle (StatsPayload superset).
    pub admitted: u64,
    pub shed: u64,
    pub deadline_expired: u64,
    pub completed: u64,
    /// Admitted requests that failed in execution — absent from the v1
    /// frame, which could not reconcile `admitted` against outcomes.
    pub failed: u64,
    pub protocol_errors: u64,
    pub target_objects: u64,
    pub source_objects: u64,
    // Engine cumulative execution breakdown.
    pub filter_ns: u64,
    pub decode_ns: u64,
    pub compute_ns: u64,
    pub face_pair_tests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub decodes: u64,
    /// Eleven slots that carried the removed pipelined executor's stage
    /// and stall counters. Kept so the frame stays 26 `u64`s; nodes write
    /// zero (a served node never ran a whole join, so it always did).
    pub reserved: [u64; 11],
}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version negotiation: the client's supported range, inclusive, plus
    /// what the connecting node is (v5+; optional-trailing on decode).
    Hello {
        min_version: u8,
        max_version: u8,
        role: NodeRole,
    },
    /// Liveness probe; answered inline even under overload.
    Health,
    /// Service counters; answered inline even under overload.
    Stats,
    /// Ask the server to drain in-flight work and exit.
    Shutdown,
    /// Prometheus text exposition of the server's metrics registry;
    /// answered inline even under overload (v2+).
    Metrics,
    /// Extended stats (v3+): service counters plus the engine's
    /// cumulative time breakdown; answered inline even under overload.
    StatsEx,
    /// Shard-placement probe (v5+): role, shard map position, store
    /// sizes; answered inline even under overload.
    ShardInfo,
    /// Binary metric snapshot (v6+): every registered series as plain
    /// data, histograms with full bucket images so a coordinator can
    /// merge them exactly (the text exposition is lossy); answered
    /// inline even under overload.
    MetricsBin,
    /// The node's rendered slow-trace log (v6+); on a coordinator this
    /// is the stitched cluster waterfall. Answered inline even under
    /// overload.
    TraceLog,
    /// Ids of target-store objects containing the point.
    Contains { p: [f64; 3], deadline_ms: u32 },
    /// Source objects intersecting target object `target`.
    Intersect { target: u32, deadline_ms: u32 },
    /// Source objects within `d` of target object `target`.
    Within {
        target: u32,
        d: f64,
        deadline_ms: u32,
    },
    /// The nearest source object to target object `target`.
    Nn { target: u32, deadline_ms: u32 },
    /// The `k` nearest source objects, closest first.
    Knn {
        target: u32,
        k: u32,
        deadline_ms: u32,
    },
    /// Scored nearest-neighbour sub-query (v5+): like `Nn`, but the
    /// response is a [`Response::PageD`] carrying the exact distance —
    /// what a coordinator needs to merge per-shard winners exactly.
    NnEx { target: u32, deadline_ms: u32 },
    /// Scored kNN sub-query (v5+): the `k` nearest with exact distances.
    KnnEx {
        target: u32,
        k: u32,
        deadline_ms: u32,
    },
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Version negotiation result: the version the server will speak,
    /// plus what the serving node is (v5+; optional-trailing on decode —
    /// a v1–v4 peer is always a plain engine).
    HelloOk {
        version: u8,
        role: NodeRole,
    },
    HealthOk,
    StatsOk(StatsPayload),
    ShutdownOk,
    /// Prometheus text exposition (v2+). Truncated server-side at a UTF-8
    /// boundary if it would overflow [`MAX_PAYLOAD`].
    MetricsOk {
        text: String,
    },
    /// Extended stats (v3+).
    StatsExOk(StatsExPayload),
    /// Shard-placement description (v5+).
    ShardInfoOk(ShardInfoPayload),
    /// Binary metric snapshot (v6+): the node's registry as plain data.
    /// Truncated at a whole-series boundary if it would overflow
    /// [`MAX_PAYLOAD`].
    MetricsBinOk(Vec<MetricSnapshot>),
    /// Rendered slow-trace log text (v6+). Truncated server-side at a
    /// UTF-8 line boundary if it would overflow [`MAX_PAYLOAD`].
    TraceLogOk {
        text: String,
    },
    /// One page of result ids; `last` marks the final page of a request.
    /// `partial` (v5+) flags a result assembled with one or more shards
    /// missing — encoded as an optional-trailing byte emitted only when
    /// set, so a complete page is byte-identical to its v4 encoding.
    Page {
        last: bool,
        ids: Vec<u32>,
        partial: bool,
    },
    /// One page of scored results `(id, exact distance)` for the `NnEx`/
    /// `KnnEx` sub-queries (v5+), closest first.
    PageD {
        last: bool,
        partial: bool,
        items: Vec<(u32, f64)>,
    },
    /// Terminal failure for a request.
    Error {
        code: ErrorCode,
        message: String,
        /// Backoff hint (v4+): how long the client should wait before
        /// retrying, derived from live queue depth for `Overloaded`
        /// rejections. `0` means "no hint" (and is what decoding a
        /// v1–v3 error frame yields).
        retry_after_ms: u32,
    },
}

// ---------------------------------------------------------------------
// Little-endian cursor primitives
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::Malformed("length overflow"))?;
        if end > self.buf.len() {
            return Err(WireError::Malformed("payload too short"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Every payload must be fully consumed; trailing bytes are a protocol
    /// violation (they hide versioning mistakes).
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes in payload"))
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Length-prefixed string (u16 length, truncated like error messages).
fn put_str16(out: &mut Vec<u8>, s: &str) {
    let b = s.as_bytes();
    let n = b.len().min(u16::MAX as usize);
    put_u16(out, n as u16);
    out.extend_from_slice(&b[..n]);
}

fn read_str16(c: &mut Cursor<'_>) -> Result<String, WireError> {
    let n = c.u16()? as usize;
    Ok(String::from_utf8_lossy(c.take(n)?).into_owned())
}

/// Encode a [`SpanSummary`] as its fixed [`SPAN_SUMMARY_LEN`]-byte image
/// (ten u64 fields in declaration order).
fn put_summary(out: &mut Vec<u8>, s: &SpanSummary) {
    put_u64(out, s.trace_id);
    put_u64(out, s.total_ns);
    put_u64(out, s.filter_ns);
    put_u64(out, s.decode_ns);
    put_u64(out, s.compute_ns);
    put_u64(out, s.decoded_bytes);
    put_u64(out, s.cache_hits);
    put_u64(out, s.cache_misses);
    put_u64(out, s.lod_rounds);
    put_u64(out, s.resolved_pairs);
}

fn read_summary(c: &mut Cursor<'_>) -> Result<SpanSummary, WireError> {
    Ok(SpanSummary {
        trace_id: c.u64()?,
        total_ns: c.u64()?,
        filter_ns: c.u64()?,
        decode_ns: c.u64()?,
        compute_ns: c.u64()?,
        decoded_bytes: c.u64()?,
        cache_hits: c.u64()?,
        cache_misses: c.u64()?,
        lod_rounds: c.u64()?,
        resolved_pairs: c.u64()?,
    })
}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 16;

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub payload_len: u32,
    pub version: u8,
    pub kind: u8,
    pub request_id: u64,
}

/// Decode and validate a frame header. Magic and size limits are enforced
/// here; the version byte is surfaced so the caller can decide whether to
/// answer `UnsupportedVersion` (server) or bail (client).
pub fn decode_header(bytes: &[u8; HEADER_LEN]) -> Result<Header, WireError> {
    let mut c = Cursor::new(bytes);
    let payload_len = c.u32()?;
    let magic = c.u16()?;
    let version = c.u8()?;
    let kind = c.u8()?;
    let request_id = c.u64()?;
    if magic != MAGIC {
        return Err(WireError::Malformed("bad magic"));
    }
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversized(payload_len));
    }
    Ok(Header {
        payload_len,
        version,
        kind,
        request_id,
    })
}

fn encode_frame(kind: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u16(&mut out, MAGIC);
    out.push(VERSION);
    out.push(kind);
    put_u64(&mut out, request_id);
    out.extend_from_slice(payload);
    out
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Encode a request into a complete frame (header + payload).
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    encode_request_traced(request_id, req, None)
}

/// [`encode_request`] with an optional [`TraceContext`] appended to query
/// requests (v6+). Non-query requests never carry a context; passing one
/// is ignored so callers can thread an `Option` through unconditionally.
pub fn encode_request_traced(
    request_id: u64,
    req: &Request,
    trace: Option<&TraceContext>,
) -> Vec<u8> {
    let mut p = Vec::new();
    let kind = match req {
        Request::Hello {
            min_version,
            max_version,
            role,
        } => {
            p.push(*min_version);
            p.push(*max_version);
            p.push(*role as u8);
            K_HELLO
        }
        Request::Health => K_HEALTH,
        Request::Stats => K_STATS,
        Request::Shutdown => K_SHUTDOWN,
        Request::Metrics => K_METRICS,
        Request::StatsEx => K_STATS_EX,
        Request::ShardInfo => K_SHARD_INFO,
        Request::MetricsBin => K_METRICS_BIN,
        Request::TraceLog => K_TRACE_LOG,
        Request::Contains {
            p: point,
            deadline_ms,
        } => {
            put_f64(&mut p, point[0]);
            put_f64(&mut p, point[1]);
            put_f64(&mut p, point[2]);
            put_u32(&mut p, *deadline_ms);
            K_CONTAINS
        }
        Request::Intersect {
            target,
            deadline_ms,
        } => {
            put_u32(&mut p, *target);
            put_u32(&mut p, *deadline_ms);
            K_INTERSECT
        }
        Request::Within {
            target,
            d,
            deadline_ms,
        } => {
            put_u32(&mut p, *target);
            put_f64(&mut p, *d);
            put_u32(&mut p, *deadline_ms);
            K_WITHIN
        }
        Request::Nn {
            target,
            deadline_ms,
        } => {
            put_u32(&mut p, *target);
            put_u32(&mut p, *deadline_ms);
            K_NN
        }
        Request::Knn {
            target,
            k,
            deadline_ms,
        } => {
            put_u32(&mut p, *target);
            put_u32(&mut p, *k);
            put_u32(&mut p, *deadline_ms);
            K_KNN
        }
        Request::NnEx {
            target,
            deadline_ms,
        } => {
            put_u32(&mut p, *target);
            put_u32(&mut p, *deadline_ms);
            K_NN_EX
        }
        Request::KnnEx {
            target,
            k,
            deadline_ms,
        } => {
            put_u32(&mut p, *target);
            put_u32(&mut p, *k);
            put_u32(&mut p, *deadline_ms);
            K_KNN_EX
        }
    };
    // v6 appends the trace triple to query requests only; probes and
    // lifecycle frames are never traced.
    if let Some(t) = trace {
        if (K_CONTAINS..=K_KNN_EX).contains(&kind) {
            put_u64(&mut p, t.trace_id);
            put_u64(&mut p, t.parent_span_id);
            p.push(u8::from(t.sampled));
        }
    }
    encode_frame(kind, request_id, &p)
}

/// Decode a request payload given its header `kind`, discarding any v6
/// trace context (what a trace-unaware service loop uses).
pub fn decode_request_body(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
    Ok(decode_request_body_traced(kind, payload)?.0)
}

/// Decode a request payload given its header `kind`, surfacing the v6
/// [`TraceContext`] when the peer appended one. Pre-v6 frames (and v6
/// frames from non-tracing peers) yield `None`.
pub fn decode_request_body_traced(
    kind: u8,
    payload: &[u8],
) -> Result<(Request, Option<TraceContext>), WireError> {
    let mut c = Cursor::new(payload);
    let mut trace = None;
    let req = match kind {
        K_HELLO => {
            let min_version = c.u8()?;
            let max_version = c.u8()?;
            // v5 appended the connecting node's role; v1–v4 hello frames
            // end after the version range, so the field is
            // optional-trailing: absent decodes as a plain client.
            let role = if payload.len() - c.pos == 1 {
                NodeRole::from_u8(c.u8()?)?
            } else {
                NodeRole::Client
            };
            Request::Hello {
                min_version,
                max_version,
                role,
            }
        }
        K_HEALTH => Request::Health,
        K_STATS => Request::Stats,
        K_SHUTDOWN => Request::Shutdown,
        K_METRICS => Request::Metrics,
        K_STATS_EX => Request::StatsEx,
        K_SHARD_INFO => Request::ShardInfo,
        K_METRICS_BIN => Request::MetricsBin,
        K_TRACE_LOG => Request::TraceLog,
        K_CONTAINS => Request::Contains {
            p: [c.f64()?, c.f64()?, c.f64()?],
            deadline_ms: c.u32()?,
        },
        K_INTERSECT => Request::Intersect {
            target: c.u32()?,
            deadline_ms: c.u32()?,
        },
        K_WITHIN => Request::Within {
            target: c.u32()?,
            d: c.f64()?,
            deadline_ms: c.u32()?,
        },
        K_NN => Request::Nn {
            target: c.u32()?,
            deadline_ms: c.u32()?,
        },
        K_KNN => Request::Knn {
            target: c.u32()?,
            k: c.u32()?,
            deadline_ms: c.u32()?,
        },
        K_NN_EX => Request::NnEx {
            target: c.u32()?,
            deadline_ms: c.u32()?,
        },
        K_KNN_EX => Request::KnnEx {
            target: c.u32()?,
            k: c.u32()?,
            deadline_ms: c.u32()?,
        },
        _ => return Err(WireError::Malformed("unknown request kind")),
    };
    // v6 appended the trace triple to query requests; pre-v6 frames (and
    // untraced v6 ones) end at the body, so it is optional-trailing.
    if (K_CONTAINS..=K_KNN_EX).contains(&kind) && payload.len() - c.pos == TRACE_CTX_LEN {
        trace = Some(TraceContext {
            trace_id: c.u64()?,
            parent_span_id: c.u64()?,
            sampled: c.u8()? != 0,
        });
    }
    c.finish()?;
    Ok((req, trace))
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Largest metrics text that fits a `MetricsOk` payload (u32 length prefix
/// plus the bytes, under [`MAX_PAYLOAD`]).
const METRICS_TEXT_MAX: usize = MAX_PAYLOAD as usize - 4;

/// Clip metrics text to [`METRICS_TEXT_MAX`] bytes at a line boundary so a
/// truncated exposition is still a sequence of well-formed lines (the last
/// partial line is dropped, never half-sent).
fn truncate_metrics_text(text: &str) -> &[u8] {
    let bytes = text.as_bytes();
    if bytes.len() <= METRICS_TEXT_MAX {
        return bytes;
    }
    let cut = bytes[..METRICS_TEXT_MAX]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    &bytes[..cut]
}

/// Encode a response into a complete frame (header + payload).
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    encode_response_traced(request_id, resp, None)
}

/// [`encode_response`] with an optional [`SpanSummary`] appended to `Page`
/// / `PageD` frames (v6+) — the shard-side cost report a traced request's
/// final page carries home. Ignored for every other frame kind, so
/// callers can thread an `Option` through unconditionally. On `Page` the
/// `partial` flag byte is always emitted when a summary follows (the two
/// trailers are length-distinguished: remainder 1 = flag only, 81 = flag
/// + summary).
pub fn encode_response_traced(
    request_id: u64,
    resp: &Response,
    summary: Option<&SpanSummary>,
) -> Vec<u8> {
    let mut p = Vec::new();
    let kind = match resp {
        Response::HelloOk { version, role } => {
            p.push(*version);
            p.push(*role as u8);
            K_HELLO_OK
        }
        Response::HealthOk => K_HEALTH_OK,
        Response::StatsOk(s) => {
            put_u64(&mut p, s.admitted);
            put_u64(&mut p, s.shed);
            put_u64(&mut p, s.deadline_expired);
            put_u64(&mut p, s.completed);
            put_u64(&mut p, s.protocol_errors);
            put_u64(&mut p, s.target_objects);
            put_u64(&mut p, s.source_objects);
            K_STATS_OK
        }
        Response::ShutdownOk => K_SHUTDOWN_OK,
        Response::MetricsOk { text } => {
            let bytes = truncate_metrics_text(text);
            put_u32(&mut p, bytes.len() as u32);
            p.extend_from_slice(bytes);
            K_METRICS_OK
        }
        Response::StatsExOk(s) => {
            put_u64(&mut p, s.admitted);
            put_u64(&mut p, s.shed);
            put_u64(&mut p, s.deadline_expired);
            put_u64(&mut p, s.completed);
            put_u64(&mut p, s.failed);
            put_u64(&mut p, s.protocol_errors);
            put_u64(&mut p, s.target_objects);
            put_u64(&mut p, s.source_objects);
            put_u64(&mut p, s.filter_ns);
            put_u64(&mut p, s.decode_ns);
            put_u64(&mut p, s.compute_ns);
            put_u64(&mut p, s.face_pair_tests);
            put_u64(&mut p, s.cache_hits);
            put_u64(&mut p, s.cache_misses);
            put_u64(&mut p, s.decodes);
            for v in s.reserved {
                put_u64(&mut p, v);
            }
            K_STATS_EX_OK
        }
        Response::ShardInfoOk(s) => {
            p.push(s.role as u8);
            put_u64(&mut p, s.epoch);
            put_u32(&mut p, s.index);
            put_u32(&mut p, s.count);
            put_f64(&mut p, s.cell);
            put_u64(&mut p, s.target_objects);
            put_u64(&mut p, s.source_objects);
            put_u64(&mut p, s.source_total);
            K_SHARD_INFO_OK
        }
        Response::MetricsBinOk(snaps) => {
            // Series count is prefixed, so truncation (to respect
            // MAX_PAYLOAD) happens at a whole-series boundary: a clipped
            // scrape is still a well-formed, exactly-mergeable snapshot.
            let mut body = Vec::new();
            let mut n = 0u32;
            for s in snaps {
                let mut one = Vec::new();
                put_str16(&mut one, &s.name);
                put_str16(&mut one, &s.labels);
                put_str16(&mut one, &s.help);
                match &s.value {
                    MetricValue::Counter(v) => {
                        one.push(0);
                        put_u64(&mut one, *v);
                    }
                    MetricValue::Histogram(h) => {
                        one.push(1);
                        put_u64(&mut one, h.count);
                        put_u64(&mut one, h.sum);
                        put_u64(&mut one, h.min);
                        put_u64(&mut one, h.max);
                        put_u32(&mut one, h.buckets.len() as u32);
                        for (i, cnt) in &h.buckets {
                            put_u32(&mut one, *i);
                            put_u64(&mut one, *cnt);
                        }
                    }
                }
                if 4 + body.len() + one.len() > MAX_PAYLOAD as usize {
                    break;
                }
                body.extend_from_slice(&one);
                n += 1;
            }
            put_u32(&mut p, n);
            p.extend_from_slice(&body);
            K_METRICS_BIN_OK
        }
        Response::TraceLogOk { text } => {
            let bytes = truncate_metrics_text(text);
            put_u32(&mut p, bytes.len() as u32);
            p.extend_from_slice(bytes);
            K_TRACE_LOG_OK
        }
        Response::Page { last, ids, partial } => {
            p.push(u8::from(*last));
            put_u32(&mut p, ids.len() as u32);
            for id in ids {
                put_u32(&mut p, *id);
            }
            // The partial flag is emitted only when set, so the common
            // complete untraced page stays byte-identical to its v4
            // encoding — except when a summary trailer follows, where the
            // flag byte always precedes it (remainder 81, never 80) so
            // the two optional trailers stay length-distinguishable.
            if summary.is_some() {
                p.push(u8::from(*partial));
            } else if *partial {
                p.push(1);
            }
            if let Some(s) = summary {
                put_summary(&mut p, s);
            }
            K_PAGE
        }
        Response::PageD {
            last,
            partial,
            items,
        } => {
            p.push(u8::from(*last));
            p.push(u8::from(*partial));
            put_u32(&mut p, items.len() as u32);
            for (id, dist) in items {
                put_u32(&mut p, *id);
                put_f64(&mut p, *dist);
            }
            if let Some(s) = summary {
                put_summary(&mut p, s);
            }
            K_PAGE_D
        }
        Response::Error {
            code,
            message,
            retry_after_ms,
        } => {
            p.push(*code as u8);
            let msg = message.as_bytes();
            let n = msg.len().min(u16::MAX as usize);
            put_u16(&mut p, n as u16);
            p.extend_from_slice(&msg[..n]);
            put_u32(&mut p, *retry_after_ms);
            K_ERROR
        }
    };
    encode_frame(kind, request_id, &p)
}

/// Decode a response payload given its header `kind`, discarding any v6
/// span-summary trailer.
pub fn decode_response_body(kind: u8, payload: &[u8]) -> Result<Response, WireError> {
    Ok(decode_response_body_traced(kind, payload)?.0)
}

/// Decode a response payload given its header `kind`, surfacing the v6
/// [`SpanSummary`] trailer when the peer appended one to a `Page` /
/// `PageD`. Pre-v6 frames (and untraced v6 replies) yield `None`.
pub fn decode_response_body_traced(
    kind: u8,
    payload: &[u8],
) -> Result<(Response, Option<SpanSummary>), WireError> {
    let mut c = Cursor::new(payload);
    let mut summary = None;
    let resp = match kind {
        K_HELLO_OK => {
            let version = c.u8()?;
            // v5 appended the serving node's role; a v1–v4 server is
            // always a plain engine, so the field is optional-trailing.
            let role = if payload.len() - c.pos == 1 {
                NodeRole::from_u8(c.u8()?)?
            } else {
                NodeRole::Engine
            };
            Response::HelloOk { version, role }
        }
        K_HEALTH_OK => Response::HealthOk,
        K_STATS_OK => Response::StatsOk(StatsPayload {
            admitted: c.u64()?,
            shed: c.u64()?,
            deadline_expired: c.u64()?,
            completed: c.u64()?,
            protocol_errors: c.u64()?,
            target_objects: c.u64()?,
            source_objects: c.u64()?,
        }),
        K_SHUTDOWN_OK => Response::ShutdownOk,
        K_METRICS_OK => {
            let n = c.u32()? as usize;
            let bytes = c.take(n)?;
            Response::MetricsOk {
                text: String::from_utf8_lossy(bytes).into_owned(),
            }
        }
        K_STATS_EX_OK => Response::StatsExOk(StatsExPayload {
            admitted: c.u64()?,
            shed: c.u64()?,
            deadline_expired: c.u64()?,
            completed: c.u64()?,
            failed: c.u64()?,
            protocol_errors: c.u64()?,
            target_objects: c.u64()?,
            source_objects: c.u64()?,
            filter_ns: c.u64()?,
            decode_ns: c.u64()?,
            compute_ns: c.u64()?,
            face_pair_tests: c.u64()?,
            cache_hits: c.u64()?,
            cache_misses: c.u64()?,
            decodes: c.u64()?,
            reserved: {
                let mut r = [0u64; 11];
                for v in &mut r {
                    *v = c.u64()?;
                }
                r
            },
        }),
        K_SHARD_INFO_OK => Response::ShardInfoOk(ShardInfoPayload {
            role: NodeRole::from_u8(c.u8()?)?,
            epoch: c.u64()?,
            index: c.u32()?,
            count: c.u32()?,
            cell: c.f64()?,
            target_objects: c.u64()?,
            source_objects: c.u64()?,
            source_total: c.u64()?,
        }),
        K_METRICS_BIN_OK => {
            let n = c.u32()? as usize;
            let mut snaps = Vec::new();
            for _ in 0..n {
                let name = read_str16(&mut c)?;
                let labels = read_str16(&mut c)?;
                let help = read_str16(&mut c)?;
                let value = match c.u8()? {
                    0 => MetricValue::Counter(c.u64()?),
                    1 => {
                        let count = c.u64()?;
                        let sum = c.u64()?;
                        let min = c.u64()?;
                        let max = c.u64()?;
                        let nb = c.u32()? as usize;
                        let mut buckets = Vec::new();
                        for _ in 0..nb {
                            buckets.push((c.u32()?, c.u64()?));
                        }
                        MetricValue::Histogram(HistogramSnapshot {
                            count,
                            sum,
                            min,
                            max,
                            buckets,
                        })
                    }
                    _ => return Err(WireError::Malformed("unknown metric value type")),
                };
                snaps.push(MetricSnapshot {
                    name,
                    labels,
                    help,
                    value,
                });
            }
            Response::MetricsBinOk(snaps)
        }
        K_TRACE_LOG_OK => {
            let n = c.u32()? as usize;
            let bytes = c.take(n)?;
            Response::TraceLogOk {
                text: String::from_utf8_lossy(bytes).into_owned(),
            }
        }
        K_PAGE => {
            let last = c.u8()? != 0;
            let count = c.u32()? as usize;
            if count > PAGE_MAX_IDS {
                return Err(WireError::Malformed("page exceeds PAGE_MAX_IDS"));
            }
            let mut ids = Vec::with_capacity(count);
            for _ in 0..count {
                ids.push(c.u32()?);
            }
            // v5 appended a partial-result flag, emitted only when set;
            // v6 may follow it with an 80-byte span summary (the flag is
            // always present when the summary is). The three layouts are
            // length-distinguished: remainder 0 / 1 / 1+80.
            let rem = payload.len() - c.pos;
            let partial = if rem == 1 || rem == 1 + SPAN_SUMMARY_LEN {
                c.u8()? != 0
            } else {
                false
            };
            if payload.len() - c.pos == SPAN_SUMMARY_LEN {
                summary = Some(read_summary(&mut c)?);
            }
            Response::Page { last, ids, partial }
        }
        K_PAGE_D => {
            let last = c.u8()? != 0;
            let partial = c.u8()? != 0;
            let count = c.u32()? as usize;
            if count > PAGE_MAX_IDS {
                return Err(WireError::Malformed("page exceeds PAGE_MAX_IDS"));
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push((c.u32()?, c.f64()?));
            }
            // v6 span-summary trailer (optional-trailing).
            if payload.len() - c.pos == SPAN_SUMMARY_LEN {
                summary = Some(read_summary(&mut c)?);
            }
            Response::PageD {
                last,
                partial,
                items,
            }
        }
        K_ERROR => {
            let code = ErrorCode::from_u8(c.u8()?)?;
            let n = c.u16()? as usize;
            let bytes = c.take(n)?;
            let message = String::from_utf8_lossy(bytes).into_owned();
            // v4 appended a retry-after hint after the message; v1-v3
            // error frames end at the message, so the field is
            // optional-trailing: absent decodes as "no hint".
            let retry_after_ms = if payload.len() - c.pos == 4 {
                c.u32()?
            } else {
                0
            };
            Response::Error {
                code,
                message,
                retry_after_ms,
            }
        }
        _ => return Err(WireError::Malformed("unknown response kind")),
    };
    c.finish()?;
    Ok((resp, summary))
}

// ---------------------------------------------------------------------
// Blocking stream helpers (client side and tests; the server uses its own
// shutdown-aware reader)
// ---------------------------------------------------------------------

fn read_payload<R: Read>(r: &mut R, header: &Header) -> Result<Vec<u8>, WireError> {
    let mut payload = vec![0u8; header.payload_len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Read one request frame (blocking).
pub fn read_request<R: Read>(r: &mut R) -> Result<(u64, Request), WireError> {
    let mut hb = [0u8; HEADER_LEN];
    r.read_exact(&mut hb)?;
    let header = decode_header(&hb)?;
    if !(MIN_VERSION..=VERSION).contains(&header.version) {
        return Err(WireError::UnsupportedVersion(header.version));
    }
    let payload = read_payload(r, &header)?;
    Ok((
        header.request_id,
        decode_request_body(header.kind, &payload)?,
    ))
}

/// Read one response frame (blocking).
pub fn read_response<R: Read>(r: &mut R) -> Result<(u64, Response), WireError> {
    let (id, resp, _) = read_response_traced(r)?;
    Ok((id, resp))
}

/// Read one response frame (blocking), surfacing the v6 span-summary
/// trailer when the server appended one to a `Page`/`PageD`.
pub fn read_response_traced<R: Read>(
    r: &mut R,
) -> Result<(u64, Response, Option<SpanSummary>), WireError> {
    let mut hb = [0u8; HEADER_LEN];
    r.read_exact(&mut hb)?;
    let header = decode_header(&hb)?;
    if !(MIN_VERSION..=VERSION).contains(&header.version) {
        return Err(WireError::UnsupportedVersion(header.version));
    }
    let payload = read_payload(r, &header)?;
    let (resp, summary) = decode_response_body_traced(header.kind, &payload)?;
    Ok((header.request_id, resp, summary))
}

/// Write a pre-encoded frame and flush it.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), WireError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// Split result ids into wire pages (at least one page, the last flagged).
pub fn pages_of(ids: &[u32]) -> Vec<Response> {
    pages_of_flagged(ids, false)
}

/// [`pages_of`] with a partial-result flag carried on every page (v5+;
/// `false` keeps the pages byte-identical to their v4 encoding).
pub fn pages_of_flagged(ids: &[u32], partial: bool) -> Vec<Response> {
    if ids.is_empty() {
        return vec![Response::Page {
            last: true,
            ids: Vec::new(),
            partial,
        }];
    }
    let chunks: Vec<&[u32]> = ids.chunks(PAGE_MAX_IDS).collect();
    let n = chunks.len();
    chunks
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| Response::Page {
            last: i + 1 == n,
            ids: chunk.to_vec(),
            partial,
        })
        .collect()
}

/// Split scored results into `PageD` wire pages (at least one page, the
/// last flagged; v5+).
pub fn scored_pages_of(items: &[(u32, f64)], partial: bool) -> Vec<Response> {
    if items.is_empty() {
        return vec![Response::PageD {
            last: true,
            partial,
            items: Vec::new(),
        }];
    }
    let chunks: Vec<&[(u32, f64)]> = items.chunks(PAGE_MAX_IDS).collect();
    let n = chunks.len();
    chunks
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| Response::PageD {
            last: i + 1 == n,
            partial,
            items: chunk.to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let frame = encode_request(42, &req);
        let mut r = frame.as_slice();
        let (id, got) = read_request(&mut r).unwrap();
        assert_eq!(id, 42);
        assert_eq!(got, req);
        assert!(r.is_empty(), "whole frame consumed");
    }

    fn roundtrip_response(resp: Response) {
        let frame = encode_response(7, &resp);
        let mut r = frame.as_slice();
        let (id, got) = read_response(&mut r).unwrap();
        assert_eq!(id, 7);
        assert_eq!(got, resp);
        assert!(r.is_empty());
    }

    #[test]
    fn every_request_kind_roundtrips() {
        for role in [NodeRole::Client, NodeRole::Engine, NodeRole::Coordinator] {
            roundtrip_request(Request::Hello {
                min_version: 1,
                max_version: 3,
                role,
            });
        }
        roundtrip_request(Request::Health);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Metrics);
        roundtrip_request(Request::StatsEx);
        roundtrip_request(Request::ShardInfo);
        roundtrip_request(Request::Contains {
            p: [1.5, -2.25, 1e300],
            deadline_ms: 250,
        });
        roundtrip_request(Request::Intersect {
            target: 9,
            deadline_ms: NO_DEADLINE_MS,
        });
        roundtrip_request(Request::Within {
            target: 3,
            d: 0.125,
            deadline_ms: 0,
        });
        roundtrip_request(Request::Nn {
            target: u32::MAX,
            deadline_ms: 1,
        });
        roundtrip_request(Request::Knn {
            target: 0,
            k: 17,
            deadline_ms: 99,
        });
        roundtrip_request(Request::NnEx {
            target: 4,
            deadline_ms: NO_DEADLINE_MS,
        });
        roundtrip_request(Request::KnnEx {
            target: 2,
            k: 5,
            deadline_ms: 1000,
        });
        roundtrip_request(Request::MetricsBin);
        roundtrip_request(Request::TraceLog);
    }

    fn query_requests() -> Vec<Request> {
        vec![
            Request::Contains {
                p: [1.0, 2.0, 3.0],
                deadline_ms: 250,
            },
            Request::Intersect {
                target: 9,
                deadline_ms: NO_DEADLINE_MS,
            },
            Request::Within {
                target: 3,
                d: 0.125,
                deadline_ms: 0,
            },
            Request::Nn {
                target: 7,
                deadline_ms: 1,
            },
            Request::Knn {
                target: 0,
                k: 17,
                deadline_ms: 99,
            },
            Request::NnEx {
                target: 4,
                deadline_ms: NO_DEADLINE_MS,
            },
            Request::KnnEx {
                target: 2,
                k: 5,
                deadline_ms: 1000,
            },
        ]
    }

    #[test]
    fn trace_context_roundtrips_on_every_query_kind() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            parent_span_id: 2,
            sampled: true,
        };
        for req in query_requests() {
            let plain = encode_request(42, &req);
            let frame = encode_request_traced(42, &req, Some(&ctx));
            // Exactly the 17-byte triple is appended.
            assert_eq!(frame.len(), plain.len() + TRACE_CTX_LEN, "{req:?}");
            let payload = &frame[HEADER_LEN..];
            let kind = frame[7];
            let (got, trace) = decode_request_body_traced(kind, payload).unwrap();
            assert_eq!(got, req);
            assert_eq!(trace, Some(ctx));
            // The trace-unaware decoder accepts the same bytes and
            // simply discards the context.
            assert_eq!(decode_request_body(kind, payload).unwrap(), req);
        }
    }

    #[test]
    fn trace_context_is_ignored_on_non_query_requests() {
        let ctx = TraceContext {
            trace_id: 1,
            parent_span_id: 2,
            sampled: true,
        };
        for req in [
            Request::Health,
            Request::Stats,
            Request::Metrics,
            Request::MetricsBin,
            Request::TraceLog,
        ] {
            assert_eq!(
                encode_request_traced(5, &req, Some(&ctx)),
                encode_request(5, &req),
                "{req:?}"
            );
        }
    }

    #[test]
    fn v5_query_frames_decode_without_trace_context() {
        // Byte-for-byte v5 Intersect frame (no trailing triple): must
        // decode with trace None, not reject or misparse.
        let mut frame = Vec::new();
        frame.extend_from_slice(&8u32.to_le_bytes()); // payload length
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.push(5); // stamped v5
        frame.push(0x11); // K_INTERSECT
        frame.extend_from_slice(&21u64.to_le_bytes());
        frame.extend_from_slice(&9u32.to_le_bytes()); // target
        frame.extend_from_slice(&250u32.to_le_bytes()); // deadline_ms
        let (req, trace) = decode_request_body_traced(0x11, &frame[HEADER_LEN..]).unwrap();
        assert_eq!(
            req,
            Request::Intersect {
                target: 9,
                deadline_ms: 250,
            }
        );
        assert_eq!(trace, None);
        let mut r = frame.as_slice();
        assert!(read_request(&mut r).is_ok(), "v5-stamped frame accepted");

        // And the untraced v6 encoding of every query request is
        // byte-identical to its v5 payload (the header version byte is
        // the only difference) — a v5 peer parses it unchanged.
        for req in query_requests() {
            let frame = encode_request_traced(42, &req, None);
            assert_eq!(frame, encode_request(42, &req), "{req:?}");
            let (_, trace) =
                decode_request_body_traced(frame[7], &frame[HEADER_LEN..]).unwrap();
            assert_eq!(trace, None, "{req:?}");
        }
    }

    #[test]
    fn a_16_byte_trailer_is_rejected_not_misread() {
        // 16 trailing bytes is not a trace triple (17) — must be a
        // trailing-bytes protocol error, never a silent partial read.
        let mut frame = encode_request_traced(
            1,
            &Request::Nn {
                target: 7,
                deadline_ms: 1,
            },
            Some(&TraceContext {
                trace_id: 1,
                parent_span_id: 0,
                sampled: false,
            }),
        );
        frame.truncate(frame.len() - 1);
        let n = (frame.len() - HEADER_LEN) as u32;
        frame[..4].copy_from_slice(&n.to_le_bytes());
        assert!(matches!(
            decode_request_body_traced(frame[7], &frame[HEADER_LEN..]).unwrap_err(),
            WireError::Malformed("trailing bytes in payload")
        ));
    }

    #[test]
    fn every_response_kind_roundtrips() {
        for role in [NodeRole::Engine, NodeRole::Coordinator] {
            roundtrip_response(Response::HelloOk { version: 1, role });
        }
        roundtrip_response(Response::HealthOk);
        roundtrip_response(Response::StatsOk(StatsPayload {
            admitted: 1,
            shed: 2,
            deadline_expired: 3,
            completed: 4,
            protocol_errors: 5,
            target_objects: 6,
            source_objects: 7,
        }));
        roundtrip_response(Response::ShutdownOk);
        roundtrip_response(Response::MetricsOk {
            text: String::new(),
        });
        roundtrip_response(Response::MetricsOk {
            text: "# TYPE t counter\nt 1\n".to_string(),
        });
        roundtrip_response(Response::StatsExOk(StatsExPayload::default()));
        roundtrip_response(Response::StatsExOk(StatsExPayload {
            admitted: 1,
            shed: 2,
            deadline_expired: 3,
            completed: 4,
            failed: 5,
            protocol_errors: 6,
            target_objects: 7,
            source_objects: 8,
            filter_ns: 9,
            decode_ns: 10,
            compute_ns: 11,
            face_pair_tests: 12,
            cache_hits: 13,
            cache_misses: 14,
            decodes: 15,
            reserved: [16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26],
        }));
        roundtrip_response(Response::ShardInfoOk(ShardInfoPayload {
            role: NodeRole::Engine,
            epoch: 7,
            index: 1,
            count: 3,
            cell: 2.5,
            target_objects: 40,
            source_objects: 17,
            source_total: 40,
        }));
        roundtrip_response(Response::Page {
            last: false,
            ids: vec![1, 2, 3],
            partial: false,
        });
        roundtrip_response(Response::Page {
            last: true,
            ids: Vec::new(),
            partial: false,
        });
        roundtrip_response(Response::Page {
            last: true,
            ids: vec![9],
            partial: true,
        });
        roundtrip_response(Response::PageD {
            last: true,
            partial: false,
            items: vec![(3, 0.25), (7, 1.5)],
        });
        roundtrip_response(Response::PageD {
            last: true,
            partial: true,
            items: Vec::new(),
        });
        roundtrip_response(Response::MetricsBinOk(Vec::new()));
        roundtrip_response(Response::MetricsBinOk(vec![
            MetricSnapshot {
                name: "tripro_cache_hits_total".to_string(),
                labels: "shard=\"0\"".to_string(),
                help: "decode cache hits".to_string(),
                value: MetricValue::Counter(41),
            },
            MetricSnapshot {
                name: "tripro_query_seconds".to_string(),
                labels: String::new(),
                help: "query latency".to_string(),
                value: MetricValue::Histogram(HistogramSnapshot {
                    count: 3,
                    sum: 99,
                    min: 7,
                    max: 50,
                    buckets: vec![(0, 1), (17, 2)],
                }),
            },
            MetricSnapshot {
                name: "tripro_empty_hist".to_string(),
                labels: String::new(),
                help: String::new(),
                // The empty-histogram min sentinel must survive the wire.
                value: MetricValue::Histogram(HistogramSnapshot::default()),
            },
        ]));
        roundtrip_response(Response::TraceLogOk {
            text: String::new(),
        });
        roundtrip_response(Response::TraceLogOk {
            text: "trace 7 total=1.2ms\n  span filter\n".to_string(),
        });
        roundtrip_response(Response::Error {
            code: ErrorCode::Overloaded,
            message: "busy".to_string(),
            retry_after_ms: 250,
        });
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Internal,
        ] {
            roundtrip_response(Response::Error {
                code,
                message: String::new(),
                retry_after_ms: 0,
            });
        }
    }

    #[test]
    fn v3_error_frame_decodes_without_retry_hint() {
        // Hand-build a pre-v4 error payload: code + msg_len + msg, no
        // trailing retry_after_ms. Decoding must yield hint 0, not a
        // trailing-bytes or too-short error.
        let mut payload = vec![ErrorCode::Overloaded as u8];
        let msg = b"busy";
        payload.extend_from_slice(&(msg.len() as u16).to_le_bytes());
        payload.extend_from_slice(msg);
        let got = decode_response_body(K_ERROR, &payload).unwrap();
        assert_eq!(
            got,
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "busy".to_string(),
                retry_after_ms: 0,
            }
        );
    }

    #[test]
    fn pre_v5_hello_frames_decode_to_role_defaults() {
        // Byte-for-byte v1–v4 Hello request: min/max version only, no
        // role byte. Must decode as a plain client, not reject.
        for version in 1..=4u8 {
            let mut frame = Vec::new();
            frame.extend_from_slice(&2u32.to_le_bytes()); // payload length
            frame.extend_from_slice(&MAGIC.to_le_bytes());
            frame.push(version);
            frame.push(0x01); // K_HELLO
            frame.extend_from_slice(&11u64.to_le_bytes());
            frame.push(1); // min_version
            frame.push(version); // max_version
            let mut r = frame.as_slice();
            let (id, req) = read_request(&mut r).unwrap();
            assert_eq!(id, 11);
            assert_eq!(
                req,
                Request::Hello {
                    min_version: 1,
                    max_version: version,
                    role: NodeRole::Client,
                },
                "v{version} hello"
            );

            // And the matching v1–v4 HelloOk: version byte only — the
            // peer is by definition a plain engine.
            let mut resp = Vec::new();
            resp.extend_from_slice(&1u32.to_le_bytes());
            resp.extend_from_slice(&MAGIC.to_le_bytes());
            resp.push(version);
            resp.push(0x81); // K_HELLO_OK
            resp.extend_from_slice(&11u64.to_le_bytes());
            resp.push(version);
            let mut r = resp.as_slice();
            assert_eq!(
                read_response(&mut r).unwrap(),
                (
                    11,
                    Response::HelloOk {
                        version,
                        role: NodeRole::Engine,
                    }
                ),
                "v{version} hello-ok"
            );
        }
    }

    #[test]
    fn complete_page_encoding_is_byte_identical_to_v4() {
        // A non-partial v5 page must serialize exactly as v4 did (modulo
        // the header version byte): last flag, count, ids — no trailer.
        let frame = encode_response(
            3,
            &Response::Page {
                last: true,
                ids: vec![5, 9],
                partial: false,
            },
        );
        let mut expect = Vec::new();
        expect.extend_from_slice(&13u32.to_le_bytes()); // 1 + 4 + 2*4
        expect.extend_from_slice(&MAGIC.to_le_bytes());
        expect.push(VERSION);
        expect.push(0x90); // K_PAGE
        expect.extend_from_slice(&3u64.to_le_bytes());
        expect.push(1); // last
        expect.extend_from_slice(&2u32.to_le_bytes());
        expect.extend_from_slice(&5u32.to_le_bytes());
        expect.extend_from_slice(&9u32.to_le_bytes());
        assert_eq!(frame, expect);

        // And the v4-layout page (no trailer) decodes as complete.
        let payload = &expect[HEADER_LEN..];
        assert_eq!(
            decode_response_body(K_PAGE, payload).unwrap(),
            Response::Page {
                last: true,
                ids: vec![5, 9],
                partial: false,
            }
        );
    }

    fn sample_summary() -> SpanSummary {
        SpanSummary {
            trace_id: 0xAB,
            total_ns: 1_000_000,
            filter_ns: 100,
            decode_ns: 200,
            compute_ns: 300,
            decoded_bytes: 4096,
            cache_hits: 3,
            cache_misses: 1,
            lod_rounds: 2,
            resolved_pairs: 8,
        }
    }

    #[test]
    fn span_summary_roundtrips_on_both_page_kinds() {
        let s = sample_summary();
        for (resp, base_rem) in [
            (
                Response::Page {
                    last: true,
                    ids: vec![5, 9],
                    partial: false,
                },
                // Complete page: untraced remainder 0, traced 81 (the
                // partial byte is forced in).
                1 + SPAN_SUMMARY_LEN,
            ),
            (
                Response::Page {
                    last: true,
                    ids: vec![5],
                    partial: true,
                },
                1 + SPAN_SUMMARY_LEN,
            ),
            (
                Response::PageD {
                    last: true,
                    partial: false,
                    items: vec![(3, 0.25)],
                },
                SPAN_SUMMARY_LEN,
            ),
        ] {
            let plain = encode_response(7, &resp);
            let frame = encode_response_traced(7, &resp, Some(&s));
            let grew = frame.len() - plain.len();
            assert!(
                grew == base_rem || grew == base_rem - 1,
                "{resp:?}: grew {grew}"
            );
            let (got, sum) = decode_response_body_traced(frame[7], &frame[HEADER_LEN..]).unwrap();
            assert_eq!(got, resp);
            assert_eq!(sum, Some(s));
            // Trace-unaware decode of the same bytes drops the trailer.
            assert_eq!(
                decode_response_body(frame[7], &frame[HEADER_LEN..]).unwrap(),
                resp
            );
        }
    }

    #[test]
    fn summary_is_ignored_on_non_page_responses() {
        let s = sample_summary();
        for resp in [
            Response::HealthOk,
            Response::MetricsOk {
                text: "x 1\n".to_string(),
            },
            Response::TraceLogOk {
                text: String::new(),
            },
        ] {
            assert_eq!(
                encode_response_traced(7, &resp, Some(&s)),
                encode_response(7, &resp),
                "{resp:?}"
            );
        }
    }

    #[test]
    fn v5_page_frames_decode_without_summary() {
        // Byte-for-byte v5 partial page: last + count + ids + flag byte,
        // no summary trailer. Must decode partial=true, summary None.
        let mut payload = Vec::new();
        payload.push(1); // last
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&9u32.to_le_bytes());
        payload.push(1); // partial flag
        let (resp, sum) = decode_response_body_traced(K_PAGE, &payload).unwrap();
        assert_eq!(
            resp,
            Response::Page {
                last: true,
                ids: vec![9],
                partial: true,
            }
        );
        assert_eq!(sum, None);

        // Byte-for-byte v5 PageD: no trailer.
        let mut payload = Vec::new();
        payload.push(1); // last
        payload.push(0); // partial
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.extend_from_slice(&0.25f64.to_bits().to_le_bytes());
        let (resp, sum) = decode_response_body_traced(K_PAGE_D, &payload).unwrap();
        assert_eq!(
            resp,
            Response::PageD {
                last: true,
                partial: false,
                items: vec![(3, 0.25)],
            }
        );
        assert_eq!(sum, None);

        // And untraced v6 encodes stay byte-identical to v5 for both
        // kinds (header version byte aside).
        for resp in [
            Response::Page {
                last: true,
                ids: vec![5, 9],
                partial: true,
            },
            Response::PageD {
                last: false,
                partial: false,
                items: vec![(1, 2.0)],
            },
        ] {
            assert_eq!(
                encode_response_traced(3, &resp, None),
                encode_response(3, &resp),
                "{resp:?}"
            );
        }
    }

    #[test]
    fn unknown_metric_value_type_is_rejected() {
        let frame = encode_response(
            1,
            &Response::MetricsBinOk(vec![MetricSnapshot {
                name: "t".to_string(),
                labels: String::new(),
                help: String::new(),
                value: MetricValue::Counter(1),
            }]),
        );
        let mut payload = frame[HEADER_LEN..].to_vec();
        // The type byte sits after the three length-prefixed strings:
        // count(4) + (2+1) + 2 + 2.
        let type_at = 4 + 3 + 2 + 2;
        assert_eq!(payload[type_at], 0);
        payload[type_at] = 9;
        assert!(matches!(
            decode_response_body(K_METRICS_BIN_OK, &payload).unwrap_err(),
            WireError::Malformed("unknown metric value type")
        ));
    }

    #[test]
    fn oversized_metric_snapshot_truncates_at_series_boundary() {
        // Enough fat series to overflow MAX_PAYLOAD: the encoder must
        // clip to a whole-series prefix and the result must decode.
        let fat = MetricSnapshot {
            name: "n".repeat(60_000),
            labels: String::new(),
            help: String::new(),
            value: MetricValue::Counter(1),
        };
        let snaps: Vec<_> = (0..40).map(|_| fat.clone()).collect();
        let frame = encode_response(1, &Response::MetricsBinOk(snaps));
        assert!(frame.len() <= HEADER_LEN + MAX_PAYLOAD as usize);
        let (resp, _) = decode_response_body_traced(K_METRICS_BIN_OK, &frame[HEADER_LEN..]).unwrap();
        let Response::MetricsBinOk(got) = resp else {
            panic!("not MetricsBinOk")
        };
        assert!(!got.is_empty() && got.len() < 40, "clipped: {}", got.len());
    }

    #[test]
    fn unknown_role_byte_is_rejected() {
        let mut frame = encode_request(
            1,
            &Request::Hello {
                min_version: 1,
                max_version: VERSION,
                role: NodeRole::Coordinator,
            },
        );
        let n = frame.len();
        frame[n - 1] = 9; // no such role
        let mut r = frame.as_slice();
        assert!(matches!(
            read_request(&mut r).unwrap_err(),
            WireError::Malformed("unknown node role")
        ));
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let frame = encode_request(
            1,
            &Request::Within {
                target: 3,
                d: 0.5,
                deadline_ms: 7,
            },
        );
        // Every strict prefix must fail with Closed (EOF), never panic or
        // succeed.
        for cut in 0..frame.len() {
            let mut r = &frame[..cut];
            let err = read_request(&mut r).unwrap_err();
            assert!(
                matches!(err, WireError::Closed | WireError::Malformed(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_request(1, &Request::Health);
        frame[4] ^= 0xFF;
        let mut r = frame.as_slice();
        assert!(matches!(
            read_request(&mut r).unwrap_err(),
            WireError::Malformed("bad magic")
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = encode_request(1, &Request::Health);
        frame[..4].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut r = frame.as_slice();
        assert!(matches!(
            read_request(&mut r).unwrap_err(),
            WireError::Oversized(_)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        for bad in [0, VERSION + 1, u8::MAX] {
            let mut frame = encode_request(1, &Request::Health);
            frame[6] = bad;
            let mut r = frame.as_slice();
            assert!(matches!(
                read_request(&mut r).unwrap_err(),
                WireError::UnsupportedVersion(v) if v == bad
            ));
        }
    }

    #[test]
    fn v1_frames_still_decode() {
        // A v2 build must keep accepting frames stamped with every older
        // version in the supported range — wire compatibility is the whole
        // point of MIN_VERSION.
        for old in MIN_VERSION..VERSION {
            let mut frame = encode_request(
                5,
                &Request::Within {
                    target: 3,
                    d: 0.5,
                    deadline_ms: 7,
                },
            );
            frame[6] = old;
            let mut r = frame.as_slice();
            let (id, req) = read_request(&mut r).unwrap();
            assert_eq!(id, 5);
            assert!(matches!(req, Request::Within { target: 3, .. }));

            let mut resp = encode_response(5, &Response::HealthOk);
            resp[6] = old;
            let mut r = resp.as_slice();
            assert_eq!(read_response(&mut r).unwrap(), (5, Response::HealthOk));
        }
    }

    #[test]
    fn hand_built_v1_frame_decodes() {
        // Byte-for-byte v1 Stats frame (header only, empty payload), built
        // without the encoder so this test pins the v1 layout itself.
        let mut frame = Vec::new();
        frame.extend_from_slice(&0u32.to_le_bytes()); // payload length
        frame.extend_from_slice(&MAGIC.to_le_bytes());
        frame.push(1); // version 1
        frame.push(0x03); // K_STATS
        frame.extend_from_slice(&9u64.to_le_bytes());
        let mut r = frame.as_slice();
        assert_eq!(read_request(&mut r).unwrap(), (9, Request::Stats));
    }

    #[test]
    fn oversized_metrics_text_truncates_at_line_boundary() {
        let line = "tripro_x_total 1\n";
        let n = METRICS_TEXT_MAX / line.len() + 2;
        let text = line.repeat(n);
        assert!(text.len() > METRICS_TEXT_MAX);
        let frame = encode_response(1, &Response::MetricsOk { text });
        assert!(frame.len() <= HEADER_LEN + MAX_PAYLOAD as usize);
        let mut r = frame.as_slice();
        let (_, got) = read_response(&mut r).unwrap();
        let Response::MetricsOk { text } = got else {
            panic!("not MetricsOk")
        };
        assert!(text.len() <= METRICS_TEXT_MAX);
        assert!(text.ends_with('\n'), "no half-sent line");
        assert!(text.len() >= METRICS_TEXT_MAX - line.len());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut frame = encode_request(1, &Request::Health);
        frame[7] = 0x7E;
        let mut r = frame.as_slice();
        assert!(matches!(
            read_request(&mut r).unwrap_err(),
            WireError::Malformed("unknown request kind")
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        // Hand-build a Health frame with one stray payload byte.
        let mut frame = encode_request(1, &Request::Health);
        frame[..4].copy_from_slice(&1u32.to_le_bytes());
        frame.push(0xAB);
        let mut r = frame.as_slice();
        assert!(matches!(
            read_request(&mut r).unwrap_err(),
            WireError::Malformed("trailing bytes in payload")
        ));
    }

    #[test]
    fn short_payload_is_rejected() {
        // A Within frame whose payload claims fewer bytes than the body
        // needs: decoder must fail cleanly.
        let full = encode_request(
            1,
            &Request::Within {
                target: 3,
                d: 0.5,
                deadline_ms: 7,
            },
        );
        let mut frame = full.clone();
        frame[..4].copy_from_slice(&4u32.to_le_bytes());
        frame.truncate(HEADER_LEN + 4);
        let mut r = frame.as_slice();
        assert!(matches!(
            read_request(&mut r).unwrap_err(),
            WireError::Malformed("payload too short")
        ));
    }

    #[test]
    fn pages_split_and_flag_last() {
        assert_eq!(
            pages_of(&[]),
            vec![Response::Page {
                last: true,
                ids: vec![],
                partial: false,
            }]
        );
        let ids: Vec<u32> = (0..PAGE_MAX_IDS as u32 + 3).collect();
        let pages = pages_of(&ids);
        assert_eq!(pages.len(), 2);
        let mut seen = Vec::new();
        for (i, p) in pages.iter().enumerate() {
            let Response::Page { last, ids, partial } = p else {
                panic!("not a page")
            };
            assert_eq!(*last, i == 1);
            assert!(!partial);
            seen.extend_from_slice(ids);
        }
        assert_eq!(seen, ids);
    }

    #[test]
    fn error_message_truncates_at_u16() {
        let long = "x".repeat(70_000);
        let frame = encode_response(
            1,
            &Response::Error {
                code: ErrorCode::Internal,
                message: long,
                retry_after_ms: 0,
            },
        );
        let mut r = frame.as_slice();
        let (_, got) = read_response(&mut r).unwrap();
        let Response::Error { message, .. } = got else {
            panic!("not an error")
        };
        assert_eq!(message.len(), u16::MAX as usize);
    }
}
