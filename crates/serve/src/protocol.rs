//! The `tripro-serve` wire protocol: length-prefixed binary frames over a
//! byte stream (see `docs/protocol.md` for the normative description).
//!
//! Every frame is a fixed 16-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length (u32 LE, excludes the header)
//! 4       2     magic 0x3D50 ("=P")
//! 6       1     protocol version (exactly 9; every other value is refused)
//! 7       1     frame kind
//! 8       8     request id (u64 LE, echoed verbatim in responses)
//! ```
//!
//! All integers are little-endian; `f64` travels as its IEEE-754 bit
//! pattern. Payloads are capped at [`MAX_PAYLOAD`]; responses stream large
//! result sets as a sequence of [`Response::Page`] frames instead of one
//! giant frame, so the cap bounds per-frame memory on both sides.
//!
//! The codec is canonical: each frame kind has one fixed layout, flag
//! bytes must be `0` or `1`, strings must be UTF-8, and the two optional
//! bodies (a request's [`TraceContext`], a final page's [`StatsSnapshot`])
//! sit behind an explicit presence tag — so every payload a decoder
//! accepts re-encodes to the same bytes.

use std::io::{Read, Write};

use tripro::obs::{HistogramSnapshot, MetricSnapshot, MetricValue};
use tripro::stats::{StatsSnapshot, MAX_TRACKED_LOD};

/// Frame magic ("=P" little-endian): rejects non-protocol peers early.
pub const MAGIC: u16 = 0x3D50;

/// The one protocol version this build speaks. Every peer lives in this
/// tree and is built from the same source, so there is no negotiation
/// range: a header or `Hello` that does not cover exactly this version is
/// answered `UnsupportedVersion`.
pub const VERSION: u8 = 9;

/// Oldest protocol version this build accepts (the same as [`VERSION`]).
pub const MIN_VERSION: u8 = VERSION;

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
const K_SHUTDOWN: u8 = 0x04;
const K_METRICS: u8 = 0x05;
const K_SHARD_INFO: u8 = 0x07;
const K_TRACE_LOG: u8 = 0x09;
const K_CONTAINS: u8 = 0x10;
const K_INTERSECT: u8 = 0x11;
const K_WITHIN: u8 = 0x12;
const K_NN: u8 = 0x13;
const K_KNN: u8 = 0x14;
// 0x15 carried the scored NN sub-query, retired in v9 for `KnnEx` at k = 1.
const K_KNN_EX: u8 = 0x16;
const K_HELLO_OK: u8 = 0x81;
const K_HEALTH_OK: u8 = 0x82;
const K_SHUTDOWN_OK: u8 = 0x84;
const K_METRICS_OK: u8 = 0x85;
const K_SHARD_INFO_OK: u8 = 0x87;
const K_TRACE_LOG_OK: u8 = 0x89;
const K_PAGE: u8 = 0x90;
const K_PAGE_D: u8 = 0x91;
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
    /// Header version or `Hello` range that excludes [`VERSION`].
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

/// What kind of node sits at each end of a connection. Carried on `Hello`
/// (the connecting node's role) and `HelloOk` (the serving node's role).
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
/// frame. A plain engine reports `index 0 / count 1 / epoch 0`; a
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

/// Distributed trace context carried on query requests, behind a one-byte
/// presence tag after the query body. A shard that receives a sampled
/// context executes the request under the propagated `trace_id` and ships
/// its [`StatsSnapshot`] back on the final page of its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Cluster-wide trace id (the coordinator's request id by default).
    pub trace_id: u64,
    /// Whether the initiator is actively sampling this request; unsampled
    /// contexts propagate the id for log correlation but ask the shard
    /// not to pay for span collection.
    pub sampled: bool,
}

/// Wire size of an encoded [`TraceContext`] body (u64 + u8), after its
/// presence tag.
pub const TRACE_CTX_LEN: usize = 9;

/// Entries of each per-LOD array in an encoded summary.
const LODS: usize = MAX_TRACKED_LOD + 1;

/// Wire size of an encoded [`StatsSnapshot`] summary body (ten scalars,
/// then `pairs_evaluated` and `pairs_pruned` at [`MAX_TRACKED_LOD`]` + 1`
/// entries each, all u64), after its presence tag.
pub const SUMMARY_LEN: usize = 8 * (10 + 2 * LODS);

/// Client → server frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version check: the client's supported range, inclusive (it must
    /// contain [`VERSION`]), plus what the connecting node is.
    Hello {
        min_version: u8,
        max_version: u8,
        role: NodeRole,
    },
    /// Liveness probe; answered inline even under overload.
    Health,
    /// Ask the server to drain in-flight work and exit.
    Shutdown,
    /// Metric snapshot: every series as plain data, histograms with full
    /// bucket images so snapshots merge exactly. An engine answers with
    /// its own registry; a coordinator with the federated cluster view.
    /// Text exposition is rendered by the caller
    /// ([`tripro::obs::render_snapshots`]). Answered inline even under
    /// overload.
    Metrics,
    /// Shard-placement probe: role, shard map position, store sizes;
    /// answered inline even under overload.
    ShardInfo,
    /// The node's rendered slow-trace log; on a coordinator this is the
    /// stitched cluster waterfall. Answered inline even under overload.
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
    /// Scored kNN sub-query: like `Knn`, but the response is a
    /// [`Response::PageD`] carrying the `k` nearest with their exact
    /// distances — what a coordinator needs to merge per-shard winners
    /// exactly (its NN sub-query is `k = 1`).
    KnnEx {
        target: u32,
        k: u32,
        deadline_ms: u32,
    },
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Version check result: the version the server speaks, plus what the
    /// serving node is.
    HelloOk {
        version: u8,
        role: NodeRole,
    },
    HealthOk,
    ShutdownOk,
    /// Metric snapshot. Truncated at a whole-series boundary if it would
    /// overflow [`MAX_PAYLOAD`].
    MetricsOk(Vec<MetricSnapshot>),
    /// Shard-placement description.
    ShardInfoOk(ShardInfoPayload),
    /// Rendered slow-trace log text. Truncated server-side at a line
    /// boundary if it would overflow [`MAX_PAYLOAD`].
    TraceLogOk {
        text: String,
    },
    /// One page of result ids; `last` marks the final page of a request.
    /// `partial` flags a result assembled with one or more shards
    /// missing. `summary` is the per-request cost report a sampled
    /// request's final page carries home.
    Page {
        last: bool,
        ids: Vec<u32>,
        partial: bool,
        summary: Option<StatsSnapshot>,
    },
    /// One page of scored results `(id, exact distance)` for the `KnnEx`
    /// sub-query, closest first.
    PageD {
        last: bool,
        partial: bool,
        items: Vec<(u32, f64)>,
        summary: Option<StatsSnapshot>,
    },
    /// Terminal failure for a request (or, under request id 0, for the
    /// connection: see `docs/protocol.md`).
    Error {
        code: ErrorCode,
        message: String,
        /// Backoff hint: how long the client should wait before retrying,
        /// derived from live queue depth for `Overloaded` rejections.
        /// `0` means "no hint".
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

    /// `count` fixed-width records: the bytes are claimed *before*
    /// anything is allocated for them, so a lying count can never make a
    /// decoder reserve more than the payload it was handed.
    fn records(
        &mut self,
        count: usize,
        width: usize,
    ) -> Result<std::slice::ChunksExact<'a, u8>, WireError> {
        let n = count
            .checked_mul(width)
            .ok_or(WireError::Malformed("length overflow"))?;
        Ok(self.take(n)?.chunks_exact(width))
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A flag byte: exactly `0` or `1` (anything else would decode to the
    /// same value as `1` and break canonical re-encoding).
    fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte is not 0 or 1")),
        }
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(le_u32(self.take(4)?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(le_u64(self.take(8)?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self, n: usize) -> Result<String, WireError> {
        std::str::from_utf8(self.take(n)?)
            .map(str::to_owned)
            .map_err(|_| WireError::Malformed("string is not UTF-8"))
    }

    /// Every payload must be fully consumed; trailing bytes are a protocol
    /// violation.
    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes in payload"))
        }
    }
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
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

/// The longest prefix of `s` that fits `max` bytes without splitting a
/// character (a split would put invalid UTF-8 on the wire).
fn clip(s: &str, max: usize) -> &str {
    let mut n = s.len().min(max);
    while !s.is_char_boundary(n) {
        n -= 1;
    }
    &s[..n]
}

/// Length-prefixed string (u16 length, clipped to fit it).
fn put_str16(out: &mut Vec<u8>, s: &str) {
    let s = clip(s, u16::MAX as usize);
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn read_str16(c: &mut Cursor<'_>) -> Result<String, WireError> {
    let n = c.u16()? as usize;
    c.str(n)
}

/// Largest text that fits a `TraceLogOk` payload (u32 length prefix plus
/// the bytes, under [`MAX_PAYLOAD`]).
const TEXT_MAX: usize = MAX_PAYLOAD as usize - 4;

/// Length-prefixed text (u32 length), clipped to [`TEXT_MAX`] bytes at a
/// line boundary so a truncated log is still a sequence of whole lines
/// (the last partial line is dropped, never half-sent).
fn put_text32(out: &mut Vec<u8>, text: &str) {
    let mut bytes = text.as_bytes();
    if bytes.len() > TEXT_MAX {
        let cut = bytes[..TEXT_MAX]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        bytes = &bytes[..cut];
    }
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Presence tag, then the fixed [`SUMMARY_LEN`]-byte image: the ten
/// scalars in declaration order, then both per-LOD arrays, each cut or
/// zero-padded to [`LODS`] entries.
fn put_summary(out: &mut Vec<u8>, summary: Option<&StatsSnapshot>) {
    let Some(s) = summary else {
        out.push(0);
        return;
    };
    out.push(1);
    for v in [
        s.filter_ns,
        s.decode_ns,
        s.compute_ns,
        s.face_pair_tests,
        s.cache_hits,
        s.cache_misses,
        s.decodes,
        s.decoded_bytes,
        s.lod_rounds,
        s.lod_overflow,
    ] {
        put_u64(out, v);
    }
    for per_lod in [&s.pairs_evaluated, &s.pairs_pruned] {
        for i in 0..LODS {
            put_u64(out, per_lod.get(i).copied().unwrap_or(0));
        }
    }
}

fn read_summary(c: &mut Cursor<'_>) -> Result<Option<StatsSnapshot>, WireError> {
    match c.u8()? {
        0 => Ok(None),
        1 => {
            let mut s = StatsSnapshot {
                filter_ns: c.u64()?,
                decode_ns: c.u64()?,
                compute_ns: c.u64()?,
                face_pair_tests: c.u64()?,
                cache_hits: c.u64()?,
                cache_misses: c.u64()?,
                decodes: c.u64()?,
                decoded_bytes: c.u64()?,
                lod_rounds: c.u64()?,
                lod_overflow: c.u64()?,
                ..StatsSnapshot::default()
            };
            for per_lod in [&mut s.pairs_evaluated, &mut s.pairs_pruned] {
                *per_lod = (0..LODS).map(|_| c.u64()).collect::<Result<_, _>>()?;
            }
            Ok(Some(s))
        }
        _ => Err(WireError::Malformed("unknown summary tag")),
    }
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

/// Start a frame: the header with a zero length, patched by [`seal`] once
/// the payload has been appended behind it.
fn open(kind: u8, request_id: u64, payload_hint: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload_hint);
    put_u32(&mut out, 0);
    put_u16(&mut out, MAGIC);
    out.push(VERSION);
    out.push(kind);
    put_u64(&mut out, request_id);
    out
}

fn seal(mut frame: Vec<u8>) -> Vec<u8> {
    let n = (frame.len() - HEADER_LEN) as u32;
    frame[..4].copy_from_slice(&n.to_le_bytes());
    frame
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// Encode a request into a complete frame (header + payload), with no
/// trace context.
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    encode_request_traced(request_id, req, None)
}

/// [`encode_request`] with an optional [`TraceContext`] on query requests.
/// Non-query requests have no context slot; passing one is ignored so
/// callers can thread an `Option` through unconditionally.
pub fn encode_request_traced(
    request_id: u64,
    req: &Request,
    trace: Option<&TraceContext>,
) -> Vec<u8> {
    let kind = match req {
        Request::Hello { .. } => K_HELLO,
        Request::Health => K_HEALTH,
        Request::Shutdown => K_SHUTDOWN,
        Request::Metrics => K_METRICS,
        Request::ShardInfo => K_SHARD_INFO,
        Request::TraceLog => K_TRACE_LOG,
        Request::Contains { .. } => K_CONTAINS,
        Request::Intersect { .. } => K_INTERSECT,
        Request::Within { .. } => K_WITHIN,
        Request::Nn { .. } => K_NN,
        Request::Knn { .. } => K_KNN,
        Request::KnnEx { .. } => K_KNN_EX,
    };
    let mut p = open(kind, request_id, 48);
    match *req {
        Request::Hello {
            min_version,
            max_version,
            role,
        } => p.extend_from_slice(&[min_version, max_version, role as u8]),
        Request::Health
        | Request::Shutdown
        | Request::Metrics
        | Request::ShardInfo
        | Request::TraceLog => {}
        Request::Contains { p: pt, deadline_ms } => {
            for v in pt {
                put_f64(&mut p, v);
            }
            put_u32(&mut p, deadline_ms);
        }
        Request::Intersect {
            target,
            deadline_ms,
        }
        | Request::Nn {
            target,
            deadline_ms,
        } => {
            put_u32(&mut p, target);
            put_u32(&mut p, deadline_ms);
        }
        Request::Within {
            target,
            d,
            deadline_ms,
        } => {
            put_u32(&mut p, target);
            put_f64(&mut p, d);
            put_u32(&mut p, deadline_ms);
        }
        Request::Knn {
            target,
            k,
            deadline_ms,
        }
        | Request::KnnEx {
            target,
            k,
            deadline_ms,
        } => {
            put_u32(&mut p, target);
            put_u32(&mut p, k);
            put_u32(&mut p, deadline_ms);
        }
    }
    if (K_CONTAINS..=K_KNN_EX).contains(&kind) {
        match trace {
            None => p.push(0),
            Some(t) => {
                p.push(1);
                put_u64(&mut p, t.trace_id);
                p.push(u8::from(t.sampled));
            }
        }
    }
    seal(p)
}

/// Decode a request payload given its header `kind`, discarding the trace
/// context (what a trace-unaware service loop uses).
pub fn decode_request_body(kind: u8, payload: &[u8]) -> Result<Request, WireError> {
    Ok(decode_request_body_traced(kind, payload)?.0)
}

/// Decode a request payload given its header `kind`, with the
/// [`TraceContext`] the peer attached to a query request, if any.
pub fn decode_request_body_traced(
    kind: u8,
    payload: &[u8],
) -> Result<(Request, Option<TraceContext>), WireError> {
    let mut c = Cursor::new(payload);
    let req = match kind {
        K_HELLO => Request::Hello {
            min_version: c.u8()?,
            max_version: c.u8()?,
            role: NodeRole::from_u8(c.u8()?)?,
        },
        K_HEALTH => Request::Health,
        K_SHUTDOWN => Request::Shutdown,
        K_METRICS => Request::Metrics,
        K_SHARD_INFO => Request::ShardInfo,
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
        K_KNN_EX => Request::KnnEx {
            target: c.u32()?,
            k: c.u32()?,
            deadline_ms: c.u32()?,
        },
        _ => return Err(WireError::Malformed("unknown request kind")),
    };
    let trace = if (K_CONTAINS..=K_KNN_EX).contains(&kind) {
        match c.u8()? {
            0 => None,
            1 => Some(TraceContext {
                trace_id: c.u64()?,
                sampled: c.flag()?,
            }),
            _ => return Err(WireError::Malformed("unknown trace-context tag")),
        }
    } else {
        None
    };
    c.finish()?;
    Ok((req, trace))
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// One series of a `MetricsOk` body: three u16-prefixed strings, a type
/// byte, then the counter value or the histogram's sparse bucket image.
fn put_series(out: &mut Vec<u8>, s: &MetricSnapshot) {
    put_str16(out, &s.name);
    put_str16(out, &s.labels);
    put_str16(out, &s.help);
    match &s.value {
        MetricValue::Counter(v) => {
            out.push(0);
            put_u64(out, *v);
        }
        MetricValue::Histogram(h) => {
            out.push(1);
            put_u64(out, h.count);
            put_u64(out, h.sum);
            put_u64(out, h.min);
            put_u64(out, h.max);
            put_u32(out, h.buckets.len() as u32);
            for (i, cnt) in &h.buckets {
                put_u32(out, *i);
                put_u64(out, *cnt);
            }
        }
    }
}

fn read_series(c: &mut Cursor<'_>) -> Result<MetricSnapshot, WireError> {
    let name = read_str16(c)?;
    let labels = read_str16(c)?;
    let help = read_str16(c)?;
    let value = match c.u8()? {
        0 => MetricValue::Counter(c.u64()?),
        1 => {
            let (count, sum, min, max) = (c.u64()?, c.u64()?, c.u64()?, c.u64()?);
            let nb = c.u32()? as usize;
            let buckets = c
                .records(nb, 12)?
                .map(|b| (le_u32(b), le_u64(&b[4..])))
                .collect();
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
    Ok(MetricSnapshot {
        name,
        labels,
        help,
        value,
    })
}

/// Encode a response into a complete frame (header + payload).
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    match resp {
        Response::HelloOk { version, role } => {
            let mut p = open(K_HELLO_OK, request_id, 2);
            p.extend_from_slice(&[*version, *role as u8]);
            seal(p)
        }
        Response::HealthOk => seal(open(K_HEALTH_OK, request_id, 0)),
        Response::ShutdownOk => seal(open(K_SHUTDOWN_OK, request_id, 0)),
        Response::MetricsOk(snaps) => {
            // The series count is prefixed, so clipping (to respect
            // MAX_PAYLOAD) happens at a whole-series boundary: a clipped
            // scrape is still a well-formed, exactly-mergeable snapshot.
            let mut p = open(K_METRICS_OK, request_id, 4096);
            put_u32(&mut p, 0);
            let mut n = 0u32;
            for s in snaps {
                let before = p.len();
                put_series(&mut p, s);
                if p.len() - HEADER_LEN > MAX_PAYLOAD as usize {
                    p.truncate(before);
                    break;
                }
                n += 1;
            }
            p[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&n.to_le_bytes());
            seal(p)
        }
        Response::ShardInfoOk(s) => {
            let mut p = open(K_SHARD_INFO_OK, request_id, 49);
            p.push(s.role as u8);
            put_u64(&mut p, s.epoch);
            put_u32(&mut p, s.index);
            put_u32(&mut p, s.count);
            put_f64(&mut p, s.cell);
            put_u64(&mut p, s.target_objects);
            put_u64(&mut p, s.source_objects);
            put_u64(&mut p, s.source_total);
            seal(p)
        }
        Response::TraceLogOk { text } => {
            let mut p = open(K_TRACE_LOG_OK, request_id, 4 + text.len().min(TEXT_MAX));
            put_text32(&mut p, text);
            seal(p)
        }
        Response::Page {
            last,
            ids,
            partial,
            summary,
        } => {
            let mut p = open(K_PAGE, request_id, 7 + 4 * ids.len());
            p.extend_from_slice(&[u8::from(*last), u8::from(*partial)]);
            put_u32(&mut p, ids.len() as u32);
            for id in ids {
                put_u32(&mut p, *id);
            }
            put_summary(&mut p, summary.as_ref());
            seal(p)
        }
        Response::PageD {
            last,
            partial,
            items,
            summary,
        } => {
            let mut p = open(K_PAGE_D, request_id, 7 + 12 * items.len());
            p.extend_from_slice(&[u8::from(*last), u8::from(*partial)]);
            put_u32(&mut p, items.len() as u32);
            for (id, dist) in items {
                put_u32(&mut p, *id);
                put_f64(&mut p, *dist);
            }
            put_summary(&mut p, summary.as_ref());
            seal(p)
        }
        Response::Error {
            code,
            message,
            retry_after_ms,
        } => {
            let mut p = open(K_ERROR, request_id, 7 + message.len());
            p.push(*code as u8);
            put_str16(&mut p, message);
            put_u32(&mut p, *retry_after_ms);
            seal(p)
        }
    }
}

/// Decode a response payload given its header `kind`.
pub fn decode_response_body(kind: u8, payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor::new(payload);
    let resp = match kind {
        K_HELLO_OK => Response::HelloOk {
            version: c.u8()?,
            role: NodeRole::from_u8(c.u8()?)?,
        },
        K_HEALTH_OK => Response::HealthOk,
        K_SHUTDOWN_OK => Response::ShutdownOk,
        K_METRICS_OK => {
            let n = c.u32()?;
            let mut snaps = Vec::new();
            for _ in 0..n {
                snaps.push(read_series(&mut c)?);
            }
            Response::MetricsOk(snaps)
        }
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
        K_TRACE_LOG_OK => {
            let n = c.u32()? as usize;
            Response::TraceLogOk { text: c.str(n)? }
        }
        K_PAGE => {
            let last = c.flag()?;
            let partial = c.flag()?;
            let count = c.u32()? as usize;
            if count > PAGE_MAX_IDS {
                return Err(WireError::Malformed("page exceeds PAGE_MAX_IDS"));
            }
            Response::Page {
                last,
                partial,
                ids: c.records(count, 4)?.map(le_u32).collect(),
                summary: read_summary(&mut c)?,
            }
        }
        K_PAGE_D => {
            let last = c.flag()?;
            let partial = c.flag()?;
            let count = c.u32()? as usize;
            if count > PAGE_MAX_IDS {
                return Err(WireError::Malformed("page exceeds PAGE_MAX_IDS"));
            }
            Response::PageD {
                last,
                partial,
                items: c
                    .records(count, 12)?
                    .map(|b| (le_u32(b), f64::from_bits(le_u64(&b[4..]))))
                    .collect(),
                summary: read_summary(&mut c)?,
            }
        }
        K_ERROR => Response::Error {
            code: ErrorCode::from_u8(c.u8()?)?,
            message: read_str16(&mut c)?,
            retry_after_ms: c.u32()?,
        },
        _ => return Err(WireError::Malformed("unknown response kind")),
    };
    c.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Blocking stream helpers (client side; a node uses its own
// shutdown-aware reader)
// ---------------------------------------------------------------------

/// Read one response frame (blocking).
pub fn read_response<R: Read>(r: &mut R) -> Result<(u64, Response), WireError> {
    let mut hb = [0u8; HEADER_LEN];
    r.read_exact(&mut hb)?;
    let header = decode_header(&hb)?;
    if header.version != VERSION {
        return Err(WireError::UnsupportedVersion(header.version));
    }
    let mut payload = vec![0u8; header.payload_len as usize];
    r.read_exact(&mut payload)?;
    Ok((
        header.request_id,
        decode_response_body(header.kind, &payload)?,
    ))
}

/// Write a pre-encoded frame and flush it.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> Result<(), WireError> {
    w.write_all(frame)?;
    w.flush()?;
    Ok(())
}

/// At least one page, the last flagged, each of at most [`PAGE_MAX_IDS`]
/// items.
fn paged<T: Clone>(items: &[T], page: impl Fn(bool, Vec<T>) -> Response) -> Vec<Response> {
    if items.is_empty() {
        return vec![page(true, Vec::new())];
    }
    let n = items.len().div_ceil(PAGE_MAX_IDS);
    items
        .chunks(PAGE_MAX_IDS)
        .enumerate()
        .map(|(i, chunk)| page(i + 1 == n, chunk.to_vec()))
        .collect()
}

/// Split result ids into wire pages (at least one page, the last flagged).
pub fn pages_of(ids: &[u32]) -> Vec<Response> {
    pages_of_flagged(ids, false)
}

/// [`pages_of`] with a partial-result flag carried on every page.
pub fn pages_of_flagged(ids: &[u32], partial: bool) -> Vec<Response> {
    paged(ids, |last, ids| Response::Page {
        last,
        ids,
        partial,
        summary: None,
    })
}

/// Split scored results into `PageD` wire pages (at least one page, the
/// last flagged).
pub fn scored_pages_of(items: &[(u32, f64)], partial: bool) -> Vec<Response> {
    paged(items, |last, items| Response::PageD {
        last,
        partial,
        items,
        summary: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode a whole request frame the way a node does: header, version
    /// check, then the body.
    fn read_request(frame: &[u8]) -> Result<(u64, Request), WireError> {
        let hb: &[u8; HEADER_LEN] = frame
            .get(..HEADER_LEN)
            .and_then(|h| h.try_into().ok())
            .ok_or(WireError::Closed)?;
        let header = decode_header(hb)?;
        if header.version != VERSION {
            return Err(WireError::UnsupportedVersion(header.version));
        }
        let payload = frame
            .get(HEADER_LEN..HEADER_LEN + header.payload_len as usize)
            .ok_or(WireError::Closed)?;
        let req = decode_request_body(header.kind, payload)?;
        Ok((header.request_id, req))
    }

    fn roundtrip_request(req: &Request) {
        let frame = encode_request(42, req);
        let (id, got) = read_request(&frame).unwrap();
        assert_eq!(id, 42);
        assert_eq!(&got, req);
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        assert_eq!(len as usize, frame.len() - HEADER_LEN, "{req:?}");
    }

    fn roundtrip_response(resp: &Response) {
        let frame = encode_response(7, resp);
        let mut r = frame.as_slice();
        let (id, got) = read_response(&mut r).unwrap();
        assert_eq!(id, 7);
        assert_eq!(&got, resp);
        assert!(r.is_empty());
    }

    /// Bytes from hex digits; whitespace separates fields for the reader.
    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s
            .bytes()
            .filter(|b| !b.is_ascii_whitespace())
            .map(|b| (b as char).to_digit(16).unwrap() as u8)
            .collect();
        assert_eq!(digits.len() % 2, 0, "odd hex: {s}");
        digits.chunks(2).map(|d| d[0] << 4 | d[1]).collect()
    }

    /// A v9 frame built without the encoder.
    fn frame(kind: u8, id: u64, payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&[0x50, 0x3D, 9, kind]);
        f.extend_from_slice(&id.to_le_bytes());
        f.extend_from_slice(payload);
        f
    }

    /// Every request kind with its kind byte and v9 payload — for query
    /// kinds, the body in front of the trace-context tag.
    #[rustfmt::skip]
    fn golden_requests() -> Vec<(Request, u8, &'static str)> {
        let (target, k, deadline_ms) = (9, 4, 250);
        vec![
            (Request::Hello { min_version: 9, max_version: 9, role: NodeRole::Coordinator }, 0x01, "09 09 02"),
            (Request::Health, 0x02, ""),
            (Request::Shutdown, 0x04, ""),
            (Request::Metrics, 0x05, ""),
            (Request::ShardInfo, 0x07, ""),
            (Request::TraceLog, 0x09, ""),
            (Request::Contains { p: [1.0, 2.0, 3.0], deadline_ms }, 0x10,
             "000000000000f03f 0000000000000040 0000000000000840 fa000000"),
            (Request::Intersect { target, deadline_ms }, 0x11, "09000000 fa000000"),
            (Request::Within { target, d: 0.5, deadline_ms }, 0x12, "09000000 000000000000e03f fa000000"),
            (Request::Nn { target, deadline_ms }, 0x13, "09000000 fa000000"),
            (Request::Knn { target, k, deadline_ms }, 0x14, "09000000 04000000 fa000000"),
            (Request::KnnEx { target, k, deadline_ms }, 0x16, "09000000 04000000 fa000000"),
        ]
    }

    /// A summary with a distinct value in every field: the ten scalars
    /// count 1..=10 in wire order, `pairs_evaluated[i]` is `0x100 + i` and
    /// `pairs_pruned[i]` is `0x200 + i`.
    fn sample_summary() -> StatsSnapshot {
        StatsSnapshot {
            filter_ns: 1,
            decode_ns: 2,
            compute_ns: 3,
            face_pair_tests: 4,
            cache_hits: 5,
            cache_misses: 6,
            decodes: 7,
            decoded_bytes: 8,
            lod_rounds: 9,
            lod_overflow: 10,
            pairs_evaluated: (0x100..0x110).collect(),
            pairs_pruned: (0x200..0x210).collect(),
        }
    }

    /// [`sample_summary`] behind its presence tag, each u64 spelled out
    /// little-endian without the encoder.
    fn summary_hex() -> String {
        let words = (1..=10u64).chain(0x100..0x110).chain(0x200..0x210);
        let body: Vec<String> = words.map(|v| format!("{:016x}", v.swap_bytes())).collect();
        format!("01 {}", body.join(" "))
    }

    fn sample_metrics() -> Vec<MetricSnapshot> {
        let series = |name: &str, labels: &str, help: &str, value| MetricSnapshot {
            name: name.to_string(),
            labels: labels.to_string(),
            help: help.to_string(),
            value,
        };
        vec![
            series("n", "l", "", MetricValue::Counter(41)),
            series(
                "h",
                "",
                "x",
                MetricValue::Histogram(HistogramSnapshot {
                    count: 3,
                    sum: 99,
                    min: 7,
                    max: 50,
                    buckets: vec![(17, 2)],
                }),
            ),
        ]
    }

    /// Every response kind (both page kinds with and without a summary)
    /// with its kind byte and v9 payload.
    #[rustfmt::skip]
    fn golden_responses() -> Vec<(Response, u8, String)> {
        let (s, summary_hex) = (Some(sample_summary()), summary_hex());
        let info = ShardInfoPayload {
            role: NodeRole::Engine, epoch: 7, index: 1, count: 3, cell: 2.5,
            target_objects: 40, source_objects: 17, source_total: 41,
        };
        let busy = Response::Error { code: ErrorCode::Overloaded, message: "busy".into(), retry_after_ms: 250 };
        vec![
            (Response::HelloOk { version: 9, role: NodeRole::Engine }, 0x81, "09 01".into()),
            (Response::HealthOk, 0x82, String::new()),
            (Response::ShutdownOk, 0x84, String::new()),
            (Response::MetricsOk(sample_metrics()), 0x85,
             "02000000  0100 6e 0100 6c 0000 00 2900000000000000 \
              0100 68 0000 0100 78 01 0300000000000000 6300000000000000 0700000000000000 \
              3200000000000000 01000000 11000000 0200000000000000".into()),
            (Response::ShardInfoOk(info), 0x87,
             "01 0700000000000000 01000000 03000000 0000000000000440 \
              2800000000000000 1100000000000000 2900000000000000".into()),
            (Response::TraceLogOk { text: "ab\n".into() }, 0x89, "03000000 61620a".into()),
            (Response::Page { last: true, ids: vec![5, 9], partial: false, summary: None }, 0x90,
             "01 00 02000000 05000000 09000000 00".into()),
            (Response::Page { last: false, ids: vec![5], partial: true, summary: s.clone() }, 0x90,
             format!("00 01 01000000 05000000 {summary_hex}")),
            (Response::PageD { last: true, partial: false, items: vec![(3, 0.25)], summary: None }, 0x91,
             "01 00 01000000 03000000 000000000000d03f 00".into()),
            (Response::PageD { last: true, partial: true, items: vec![], summary: s }, 0x91,
             format!("01 01 00000000 {summary_hex}")),
            (busy, 0xFF, "01 0400 62757379 fa000000".into()),
        ]
    }

    /// The v9 layout of every frame kind, byte for byte, built without the
    /// encoder: a change to any field's position, width or presence fails
    /// here before it reaches a peer.
    #[test]
    fn v9_layout_of_every_kind_is_pinned() {
        let ctx = TraceContext {
            trace_id: 0x0102_0304_0506_0708,
            sampled: true,
        };
        let ctx_hex = "01 0807060504030201 01";
        for (req, kind, body) in golden_requests() {
            if kind < 0x10 {
                assert_eq!(encode_request(3, &req), frame(kind, 3, &hex(body)));
                continue;
            }
            let untraced = frame(kind, 3, &hex(&format!("{body} 00")));
            assert_eq!(encode_request(3, &req), untraced, "{req:?}");
            let traced = frame(kind, 3, &hex(&format!("{body} {ctx_hex}")));
            assert_eq!(encode_request_traced(3, &req, Some(&ctx)), traced);
            let got = decode_request_body_traced(kind, &traced[HEADER_LEN..]).unwrap();
            assert_eq!(got, (req, Some(ctx)));
        }
        for (resp, kind, body) in golden_responses() {
            let body = hex(&body);
            assert_eq!(encode_response(3, &resp), frame(kind, 3, &body), "{resp:?}");
            assert_eq!(decode_response_body(kind, &body).unwrap(), resp);
        }
    }

    #[test]
    fn every_request_kind_roundtrips() {
        for role in [NodeRole::Client, NodeRole::Engine, NodeRole::Coordinator] {
            roundtrip_request(&Request::Hello {
                min_version: 1,
                max_version: 3,
                role,
            });
        }
        for (req, _, _) in golden_requests() {
            roundtrip_request(&req);
        }
        roundtrip_request(&Request::Contains {
            p: [1.5, -2.25, 1e300],
            deadline_ms: NO_DEADLINE_MS,
        });
        roundtrip_request(&Request::Nn {
            target: u32::MAX,
            deadline_ms: 0,
        });
    }

    #[test]
    fn trace_context_roundtrips_on_every_query_kind() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            sampled: true,
        };
        let queries = golden_requests().into_iter().filter(|r| r.1 >= K_CONTAINS);
        for (req, kind, _) in queries {
            let plain = encode_request(42, &req);
            let frame = encode_request_traced(42, &req, Some(&ctx));
            // The tag byte is always there; the body follows it when set.
            assert_eq!(frame.len(), plain.len() + TRACE_CTX_LEN, "{req:?}");
            let payload = &frame[HEADER_LEN..];
            let (got, trace) = decode_request_body_traced(kind, payload).unwrap();
            assert_eq!(got, req);
            assert_eq!(trace, Some(ctx));
            // The trace-unaware decoder accepts the same bytes and
            // simply discards the context.
            assert_eq!(decode_request_body(kind, payload).unwrap(), req);
            let (_, none) = decode_request_body_traced(kind, &plain[HEADER_LEN..]).unwrap();
            assert_eq!(none, None, "{req:?}");
        }
    }

    #[test]
    fn trace_context_is_ignored_on_non_query_requests() {
        let ctx = TraceContext {
            trace_id: 1,
            sampled: true,
        };
        for req in [Request::Health, Request::Metrics, Request::TraceLog] {
            assert_eq!(
                encode_request_traced(5, &req, Some(&ctx)),
                encode_request(5, &req),
                "{req:?}"
            );
        }
    }

    #[test]
    fn a_16_byte_trailer_is_rejected_not_misread() {
        // A context body one byte short, a tag that is neither 0 nor 1, a
        // sampled byte that is neither, a body behind an "absent" tag and a
        // v7 peer's 17-byte body are all typed rejections — never a silent
        // partial read.
        let nn = Request::Nn {
            target: 7,
            deadline_ms: 1,
        };
        let ctx = TraceContext {
            trace_id: 1,
            sampled: false,
        };
        let traced = encode_request_traced(1, &nn, Some(&ctx));
        let payload = &traced[HEADER_LEN..];
        let tag_at = payload.len() - TRACE_CTX_LEN - 1;
        assert_eq!(payload[tag_at], 1);
        let reject = |p: &[u8], why: &str| match decode_request_body_traced(traced[7], p) {
            Err(WireError::Malformed(got)) => assert_eq!(got, why),
            other => panic!("expected {why:?}, got {other:?}"),
        };

        reject(&payload[..payload.len() - 1], "payload too short");
        let mut bad_tag = payload.to_vec();
        bad_tag[tag_at] = 2;
        reject(&bad_tag, "unknown trace-context tag");
        let mut bad_flag = payload.to_vec();
        *bad_flag.last_mut().unwrap() = 7;
        reject(&bad_flag, "flag byte is not 0 or 1");
        let mut absent = payload.to_vec();
        absent[tag_at] = 0;
        reject(&absent, "trailing bytes in payload");
        // v7 put a parent span id between the trace id and the sampled byte.
        let mut v7 = payload[..=tag_at].to_vec();
        v7.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]);
        reject(&v7, "flag byte is not 0 or 1");
        // And a query with no tag byte at all is short, not "untraced".
        let plain = encode_request(1, &nn);
        reject(&plain[HEADER_LEN..plain.len() - 1], "payload too short");
    }

    #[test]
    fn every_response_kind_roundtrips() {
        for (resp, _, _) in golden_responses() {
            roundtrip_response(&resp);
        }
        roundtrip_response(&Response::HelloOk {
            version: VERSION,
            role: NodeRole::Coordinator,
        });
        roundtrip_response(&Response::MetricsOk(Vec::new()));
        roundtrip_response(&Response::MetricsOk(vec![MetricSnapshot {
            name: "tripro_empty_hist".to_string(),
            labels: String::new(),
            help: String::new(),
            // The empty-histogram min sentinel must survive the wire.
            value: MetricValue::Histogram(HistogramSnapshot::default()),
        }]));
        roundtrip_response(&Response::TraceLogOk {
            text: String::new(),
        });
        roundtrip_response(&Response::Page {
            last: true,
            ids: Vec::new(),
            partial: false,
            summary: None,
        });
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BadRequest,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Internal,
        ] {
            roundtrip_response(&Response::Error {
                code,
                message: String::new(),
                retry_after_ms: 0,
            });
        }
    }

    #[test]
    fn span_summary_roundtrips_on_both_page_kinds() {
        assert_eq!(SUMMARY_LEN, 336);
        // Shorter per-LOD arrays travel zero-padded to 16 entries.
        let short = StatsSnapshot {
            pairs_evaluated: vec![3],
            pairs_pruned: Vec::new(),
            ..sample_summary()
        };
        let mut padded = short.clone();
        padded.pairs_evaluated.resize(LODS, 0);
        padded.pairs_pruned.resize(LODS, 0);
        let pages = golden_responses()
            .into_iter()
            .filter(|(_, kind, _)| [K_PAGE, K_PAGE_D].contains(kind));
        for (page, kind, _) in pages {
            let carrying = |s: Option<&StatsSnapshot>| {
                let mut p = page.clone();
                if let Response::Page { summary, .. } | Response::PageD { summary, .. } = &mut p {
                    *summary = s.cloned();
                }
                p
            };
            let (with, without) = (carrying(Some(&sample_summary())), carrying(None));
            // The tag is always there; the body follows it when set.
            assert_eq!(
                encode_response(7, &with).len(),
                encode_response(7, &without).len() + SUMMARY_LEN,
                "{with:?}"
            );
            // Every field, including all 16 entries of both per-LOD arrays.
            roundtrip_response(&with);
            let body = encode_response(7, &with)[HEADER_LEN..].to_vec();
            assert!(matches!(
                decode_response_body(kind, &body[..body.len() - 1]).unwrap_err(),
                WireError::Malformed("payload too short")
            ));
            let frame = encode_response(7, &carrying(Some(&short)));
            let got = decode_response_body(kind, &frame[HEADER_LEN..]).unwrap();
            assert_eq!(got, carrying(Some(&padded)));

            let mut bad = encode_response(7, &without)[HEADER_LEN..].to_vec();
            *bad.last_mut().unwrap() = 2;
            assert!(matches!(
                decode_response_body(kind, &bad).unwrap_err(),
                WireError::Malformed("unknown summary tag")
            ));
        }
    }

    #[test]
    fn unknown_metric_value_type_is_rejected() {
        let frame = encode_response(1, &Response::MetricsOk(sample_metrics()));
        let mut payload = frame[HEADER_LEN..].to_vec();
        // The first series' type byte sits after its three length-prefixed
        // strings: count(4) + (2+1) + (2+1) + 2.
        let type_at = 4 + 3 + 3 + 2;
        assert_eq!(payload[type_at], 0);
        payload[type_at] = 9;
        assert!(matches!(
            decode_response_body(K_METRICS_OK, &payload).unwrap_err(),
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
        let frame = encode_response(1, &Response::MetricsOk(snaps));
        assert!(frame.len() <= HEADER_LEN + MAX_PAYLOAD as usize);
        let resp = decode_response_body(K_METRICS_OK, &frame[HEADER_LEN..]).unwrap();
        let Response::MetricsOk(got) = resp else {
            panic!("not MetricsOk")
        };
        assert!(!got.is_empty() && got.len() < 40, "clipped: {}", got.len());
    }

    #[test]
    fn unknown_role_byte_is_rejected() {
        let mut frame = encode_request(1, &golden_requests()[0].0);
        let n = frame.len();
        frame[n - 1] = 9; // no such role
        assert!(matches!(
            read_request(&frame).unwrap_err(),
            WireError::Malformed("unknown node role")
        ));
    }

    #[test]
    fn truncated_frames_are_rejected() {
        // Every strict prefix must fail with Closed (EOF), never panic or
        // succeed.
        for (resp, _, _) in golden_responses() {
            let frame = encode_response(1, &resp);
            for cut in 0..frame.len() {
                let mut r = &frame[..cut];
                let err = read_response(&mut r).unwrap_err();
                assert!(
                    matches!(err, WireError::Closed | WireError::Malformed(_)),
                    "cut at {cut}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_request(1, &Request::Health);
        frame[4] ^= 0xFF;
        assert!(matches!(
            read_request(&frame).unwrap_err(),
            WireError::Malformed("bad magic")
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = encode_response(1, &Response::HealthOk);
        frame[..4].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut r = frame.as_slice();
        assert!(matches!(
            read_response(&mut r).unwrap_err(),
            WireError::Oversized(_)
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        // One version, no range: every other stamp — including each
        // retired one — is refused in both directions.
        for bad in (0..VERSION).chain([VERSION + 1, u8::MAX]) {
            let mut frame = encode_request(1, &Request::Health);
            frame[6] = bad;
            assert!(matches!(
                read_request(&frame).unwrap_err(),
                WireError::UnsupportedVersion(v) if v == bad
            ));
            let mut frame = encode_response(1, &Response::HealthOk);
            frame[6] = bad;
            let mut r = frame.as_slice();
            assert!(matches!(
                read_response(&mut r).unwrap_err(),
                WireError::UnsupportedVersion(v) if v == bad
            ));
        }
    }

    #[test]
    fn oversized_trace_log_truncates_at_line_boundary() {
        let line = "trace 0x1 total=1.2ms\n";
        let n = TEXT_MAX / line.len() + 2;
        let text = line.repeat(n);
        assert!(text.len() > TEXT_MAX);
        let frame = encode_response(1, &Response::TraceLogOk { text });
        assert!(frame.len() <= HEADER_LEN + MAX_PAYLOAD as usize);
        let mut r = frame.as_slice();
        let (_, got) = read_response(&mut r).unwrap();
        let Response::TraceLogOk { text } = got else {
            panic!("not TraceLogOk")
        };
        assert!(text.len() <= TEXT_MAX);
        assert!(text.ends_with('\n'), "no half-sent line");
        assert!(text.len() >= TEXT_MAX - line.len());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        // 0x03, 0x06 and 0x08 carried the retired stats frames.
        for kind in [0x03, 0x06, 0x08, 0x7E] {
            let mut frame = encode_request(1, &Request::Health);
            frame[7] = kind;
            assert!(matches!(
                read_request(&frame).unwrap_err(),
                WireError::Malformed("unknown request kind")
            ));
        }
    }

    #[test]
    fn retired_nn_ex_kind_is_refused() {
        // A well-formed v8 `NnEx` body under a v9 header: the kind is gone,
        // so the decoder refuses it by kind, whatever the body.
        let nn_ex = frame(0x15, 1, &hex("09000000 fa000000 00"));
        assert!(matches!(
            read_request(&nn_ex).unwrap_err(),
            WireError::Malformed("unknown request kind")
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        // Hand-build a Health frame with one stray payload byte.
        assert!(matches!(
            read_request(&frame(K_HEALTH, 1, &[0xAB])).unwrap_err(),
            WireError::Malformed("trailing bytes in payload")
        ));
    }

    #[test]
    fn short_payload_is_rejected() {
        // A Within frame whose payload stops four bytes into the body:
        // decoder must fail cleanly.
        assert!(matches!(
            read_request(&frame(K_WITHIN, 1, &hex("03000000"))).unwrap_err(),
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
                summary: None,
            }]
        );
        let ids: Vec<u32> = (0..PAGE_MAX_IDS as u32 + 3).collect();
        let pages = pages_of(&ids);
        assert_eq!(pages.len(), 2);
        let mut seen = Vec::new();
        for (i, p) in pages.iter().enumerate() {
            let Response::Page {
                last, ids, partial, ..
            } = p
            else {
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
        // A multi-byte character straddling the cap is dropped whole, so
        // the clipped message is still UTF-8 on the wire.
        let straddling = format!("{}é", "x".repeat(u16::MAX as usize - 1));
        for (long, kept) in [
            ("x".repeat(70_000), u16::MAX as usize),
            (straddling, u16::MAX as usize - 1),
        ] {
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
            assert_eq!(message.len(), kept);
        }
    }
}
