//! A blocking client for the tripro-serve wire protocol.
//!
//! One [`Client`] owns one TCP connection and issues one request at a time
//! (the protocol itself allows pipelining — request ids disambiguate — but
//! the blocking client keeps the common case simple). Query responses
//! arrive as one or more `Page` frames; [`Client::query`] reassembles them
//! into a [`QueryReply`].

//! For unreliable transports (or servers shedding load), [`RetryingClient`]
//! wraps [`Client`] with transient-error classification, capped exponential
//! backoff with seeded jitter (honouring the server's `retry_after_ms`
//! hint), reconnect-on-reset and a per-request retry budget.

use crate::protocol::{
    encode_request_traced, read_response, write_frame, ErrorCode, NodeRole, Request, Response,
    ShardInfoPayload, TraceContext, WireError, VERSION,
};
use crate::ServeError;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use tripro::fault::mix64;
use tripro::obs::{self, MetricSnapshot};
use tripro::StatsSnapshot;

/// Outcome of a query request.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// The query completed; result ids reassembled across pages, in the
    /// order the server produced them.
    Ids(Vec<u32>),
    /// The query completed but the result is known-incomplete (a
    /// coordinator answered a kNN with one or more shards missing).
    PartialIds(Vec<u32>),
    /// Scored results (`NnEx`/`KnnEx`): ids with exact distances, for
    /// cross-shard merging.
    Scored {
        items: Vec<(u32, f64)>,
        partial: bool,
    },
    /// The server answered with a protocol-level error (overload, expired
    /// deadline, bad request...).
    Error {
        code: ErrorCode,
        message: String,
        /// Server backoff hint in milliseconds (0 = no hint).
        retry_after_ms: u32,
    },
}

impl QueryReply {
    /// The result ids, if the query completed (possibly partially).
    pub fn ids(&self) -> Option<&[u32]> {
        match self {
            QueryReply::Ids(ids) | QueryReply::PartialIds(ids) => Some(ids),
            QueryReply::Scored { .. } | QueryReply::Error { .. } => None,
        }
    }

    /// The error code, if the server refused or failed the query.
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            QueryReply::Error { code, .. } => Some(*code),
            _ => None,
        }
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connect and complete version negotiation (`Hello`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ServeError> {
        Self::connect_as(addr, NodeRole::Client)
    }

    /// Connect, announcing `role` in the `Hello` (a coordinator identifies
    /// itself to its backends this way). A node that refuses the
    /// connection — over its connection limit, or speaking another
    /// protocol version — surfaces as [`ServeError::Refused`].
    pub fn connect_as<A: ToSocketAddrs>(addr: A, role: NodeRole) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut c = Client { stream, next_id: 1 };
        match c.roundtrip(&Request::Hello {
            min_version: VERSION,
            max_version: VERSION,
            role,
        })? {
            Response::HelloOk { .. } => Ok(c),
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => Err(ServeError::Refused {
                code,
                message,
                retry_after_ms,
            }),
            _ => Err(ServeError::Unexpected("non-hello reply to hello")),
        }
    }

    /// Optional socket read timeout for all subsequent requests.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn send(&mut self, req: &Request, trace: Option<&TraceContext>) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        write_frame(&mut self.stream, &encode_request_traced(id, req, trace))?;
        Ok(id)
    }

    /// Read the next response frame addressed to `id`. An `Error` under
    /// request id 0 is the node refusing the connection itself (connection
    /// limit, unframeable input): it answers whatever is in flight.
    fn recv_for(&mut self, id: u64) -> Result<Response, ServeError> {
        loop {
            match read_response(&mut self.stream)? {
                (rid, resp) if rid == id => return Ok(resp),
                (
                    0,
                    Response::Error {
                        code,
                        message,
                        retry_after_ms,
                    },
                ) => {
                    return Err(ServeError::Refused {
                        code,
                        message,
                        retry_after_ms,
                    })
                }
                // A strictly serial client only ever has one request in
                // flight; frames for other ids would be a server bug.
                _ => {}
            }
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ServeError> {
        let id = self.send(req, None)?;
        self.recv_for(id)
    }

    /// Liveness probe; answered inline even when the server is overloaded.
    pub fn health(&mut self) -> Result<(), ServeError> {
        match self.roundtrip(&Request::Health)? {
            Response::HealthOk => Ok(()),
            _ => Err(ServeError::Unexpected("non-health reply to health")),
        }
    }

    /// Shard identity of the server: map epoch/index/count, grid
    /// pitch and store sizes. A coordinator validates every backend with
    /// this before routing to it.
    pub fn shard_info(&mut self) -> Result<ShardInfoPayload, ServeError> {
        match self.roundtrip(&Request::ShardInfo)? {
            Response::ShardInfoOk(p) => Ok(p),
            _ => Err(ServeError::Unexpected("non-shard-info reply to shard-info")),
        }
    }

    /// The server's metrics as a snapshot: an engine's own registry, or a
    /// coordinator's federated cluster view. Histograms carry full bucket
    /// images, so snapshots merge exactly; render text with
    /// [`tripro::obs::render_snapshots`]. Answered inline even when the
    /// server is overloaded.
    pub fn metrics(&mut self) -> Result<Vec<MetricSnapshot>, ServeError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::MetricsOk(snaps) => Ok(snaps),
            _ => Err(ServeError::Unexpected("non-metrics reply to metrics")),
        }
    }

    /// The server's rendered slow-trace log; on a coordinator this is the
    /// stitched cluster waterfall.
    pub fn trace_log(&mut self) -> Result<String, ServeError> {
        match self.roundtrip(&Request::TraceLog)? {
            Response::TraceLogOk { text } => Ok(text),
            _ => Err(ServeError::Unexpected("non-trace reply to trace-log")),
        }
    }

    /// Ask the server to drain and exit. The server acknowledges before it
    /// begins draining.
    pub fn shutdown_server(&mut self) -> Result<(), ServeError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            _ => Err(ServeError::Unexpected("non-shutdown reply to shutdown")),
        }
    }

    /// Issue a query request and reassemble its paged response.
    ///
    /// Accepts only query kinds (`Contains`/`Intersect`/`Within`/`Nn`/
    /// `Knn`); probe kinds have dedicated methods above.
    pub fn query(&mut self, req: &Request) -> Result<QueryReply, ServeError> {
        Ok(self.query_traced(req, None)?.0)
    }

    /// [`Self::query`] with a [`TraceContext`] attached: the server
    /// executes under the propagated trace id and, when `sampled`, ships
    /// its stats snapshot back on the final page — returned with the reply.
    pub fn query_traced(
        &mut self,
        req: &Request,
        trace: Option<&TraceContext>,
    ) -> Result<(QueryReply, Option<StatsSnapshot>), ServeError> {
        match req {
            Request::Contains { .. }
            | Request::Intersect { .. }
            | Request::Within { .. }
            | Request::Nn { .. }
            | Request::Knn { .. }
            | Request::NnEx { .. }
            | Request::KnnEx { .. } => {}
            _ => return Err(ServeError::Unexpected("query() needs a query request")),
        }
        let id = self.send(req, trace)?;
        let mut out: Vec<u32> = Vec::new();
        let mut scored: Vec<(u32, f64)> = Vec::new();
        let mut any_partial = false;
        loop {
            match self.recv_for(id)? {
                Response::Page {
                    last,
                    ids,
                    partial,
                    summary,
                } => {
                    out.extend_from_slice(&ids);
                    any_partial |= partial;
                    if last {
                        let reply = if any_partial {
                            QueryReply::PartialIds(out)
                        } else {
                            QueryReply::Ids(out)
                        };
                        return Ok((reply, summary));
                    }
                }
                Response::PageD {
                    last,
                    partial,
                    items,
                    summary,
                } => {
                    scored.extend_from_slice(&items);
                    any_partial |= partial;
                    if last {
                        let reply = QueryReply::Scored {
                            items: scored,
                            partial: any_partial,
                        };
                        return Ok((reply, summary));
                    }
                }
                Response::Error {
                    code,
                    message,
                    retry_after_ms,
                } => {
                    let reply = QueryReply::Error {
                        code,
                        message,
                        retry_after_ms,
                    };
                    return Ok((reply, None));
                }
                _ => return Err(ServeError::Unexpected("non-page reply to query")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Retrying client
// ---------------------------------------------------------------------

/// Retry/backoff policy for [`RetryingClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries allowed per request beyond the first attempt (the
    /// per-request retry budget). 0 disables retrying entirely.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep (also caps the server hint).
    pub max_backoff: Duration,
    /// Jitter seed: two clients with the same seed sleep identical
    /// schedules, which keeps chaos tests deterministic.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            seed: 0x3D50,
        }
    }
}

/// What one [`RetryingClient::query`] call spent getting its answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Attempts made (1 = no retries).
    pub attempts: u32,
    /// Retries after transient failures (`attempts - 1`).
    pub retries: u32,
    /// Reconnects performed after transport-level failures.
    pub reconnects: u32,
    /// Total backoff slept across all retries.
    pub backoff: Duration,
}

/// Whether an error is worth retrying — the request may succeed on a fresh
/// attempt (overload passes, connections re-establish) — and if so the
/// server's backoff hint. Protocol-level rejections (`BadRequest`,
/// `UnsupportedVersion`), server-side failures (`Internal`) and expired
/// deadlines are terminal: retrying them repeats the same answer, only
/// later.
fn transient(e: &ServeError) -> Option<u32> {
    match e {
        ServeError::Io(_) | ServeError::Wire(WireError::Closed | WireError::Io(_)) => Some(0),
        ServeError::Refused {
            code: ErrorCode::Overloaded,
            retry_after_ms,
            ..
        } => Some(*retry_after_ms),
        _ => None,
    }
}

/// A [`Client`] wrapper that classifies failures, retries transient ones
/// with capped exponential backoff plus seeded jitter, reconnects after
/// transport resets, and honours the server's `retry_after_ms` hint.
///
/// Terminal failures (and budget exhaustion) surface exactly like the
/// plain client's: the last `QueryReply::Error` or transport error.
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    role: NodeRole,
    conn: Option<Client>,
    /// splitmix64 jitter state, advanced once per backoff.
    rng: u64,
}

impl RetryingClient {
    /// Resolve `addr` once (reconnects reuse the resolved address) and
    /// establish the initial connection.
    pub fn connect<A: ToSocketAddrs>(addr: A, policy: RetryPolicy) -> Result<Self, ServeError> {
        Self::connect_as(addr, NodeRole::Client, policy)
    }

    /// [`RetryingClient::connect`], announcing `role` on every
    /// (re)connect — the coordinator's per-backend connections use this.
    pub fn connect_as<A: ToSocketAddrs>(
        addr: A,
        role: NodeRole,
        policy: RetryPolicy,
    ) -> Result<Self, ServeError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("unresolvable address"))?;
        let rng = mix64(policy.seed ^ 0x5e7e_c0de);
        let mut c = Self {
            addr,
            policy,
            role,
            conn: None,
            rng,
        };
        // A node at its connection limit refuses with `Overloaded`: wait it
        // out under the same budget and backoff as a shed query.
        let mut outcome = RetryOutcome::default();
        loop {
            match c.ensure_conn().map(drop) {
                Err(ServeError::Refused {
                    code: ErrorCode::Overloaded,
                    retry_after_ms,
                    ..
                }) if outcome.retries < c.policy.max_retries => {
                    c.sleep_backoff(outcome.retries, retry_after_ms, &mut outcome);
                    outcome.retries += 1;
                }
                result => return result.map(|()| c),
            }
        }
    }

    fn ensure_conn(&mut self) -> Result<&mut Client, ServeError> {
        if self.conn.is_none() {
            self.conn = Some(Client::connect_as(self.addr, self.role)?);
        }
        match self.conn.as_mut() {
            Some(c) => Ok(c),
            None => Err(ServeError::Unexpected("connection vanished")),
        }
    }

    /// Backoff before retry number `retry` (0-based): exponential from
    /// `base_backoff`, floored by the server hint, capped at
    /// `max_backoff`, then jittered into `[d/2, d]` so synchronized
    /// clients do not stampede in lockstep.
    fn backoff_before_retry(&mut self, retry: u32, hint_ms: u32) -> Duration {
        let base = self.policy.base_backoff.max(Duration::from_micros(100));
        let mut d = base.saturating_mul(1u32 << retry.min(16));
        let hint = Duration::from_millis(u64::from(hint_ms));
        if hint > d {
            d = hint;
        }
        d = d.min(self.policy.max_backoff);
        self.rng = mix64(self.rng);
        let frac = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        d.mul_f64(0.5 + 0.5 * frac)
    }

    fn sleep_backoff(&mut self, retry: u32, hint_ms: u32, outcome: &mut RetryOutcome) {
        let d = self.backoff_before_retry(retry, hint_ms);
        outcome.backoff += d;
        std::thread::sleep(d);
    }

    /// Issue a query, retrying transient failures until it resolves or the
    /// retry budget is spent. Returns the final reply plus what getting it
    /// cost ([`RetryOutcome`]).
    ///
    /// * `Overloaded` replies are retried after the server's
    ///   `retry_after_ms` hint (floored into the exponential schedule).
    /// * Transport failures (reset, EOF, I/O error) drop the connection
    ///   and reconnect on the next attempt.
    /// * Everything else — including `Internal` and `DeadlineExceeded`
    ///   replies — is returned as-is, immediately.
    pub fn query(&mut self, req: &Request) -> Result<(QueryReply, RetryOutcome), ServeError> {
        let (reply, _, outcome) = self.query_traced(req, None)?;
        Ok((reply, outcome))
    }

    /// [`Self::query`] with a [`TraceContext`] propagated on every
    /// attempt, returning the final attempt's stats snapshot with the reply.
    /// All attempts carry the SAME trace id, and each one is tagged with
    /// its 0-based attempt index via a `retry_attempt` span, so a retried
    /// request renders as one waterfall in the slow log — never as
    /// disconnected fragments.
    pub fn query_traced(
        &mut self,
        req: &Request,
        trace: Option<&TraceContext>,
    ) -> Result<(QueryReply, Option<StatsSnapshot>, RetryOutcome), ServeError> {
        let mut outcome = RetryOutcome::default();
        loop {
            outcome.attempts += 1;
            let retry = outcome.retries; // 0-based index of the *next* retry
            let _attempt = trace.map(|_| {
                obs::span_at(
                    obs::SpanKind::RetryAttempt,
                    outcome.attempts - 1,
                    obs::trace::NO_LOD,
                )
            });
            let result = match self.ensure_conn() {
                Ok(conn) => conn.query_traced(req, trace),
                Err(e) => Err(e),
            };
            match result {
                Ok((
                    QueryReply::Error {
                        code: ErrorCode::Overloaded,
                        retry_after_ms,
                        ..
                    },
                    _,
                )) if retry < self.policy.max_retries => {
                    outcome.retries += 1;
                    self.sleep_backoff(retry, retry_after_ms, &mut outcome);
                }
                Ok((reply, summary)) => {
                    self.observe(&outcome);
                    return Ok((reply, summary, outcome));
                }
                Err(e) => match transient(&e) {
                    Some(hint) if retry < self.policy.max_retries => {
                        // The connection is in an unknown state (possibly a
                        // half-read frame): drop it and reconnect next
                        // attempt.
                        self.conn = None;
                        outcome.retries += 1;
                        outcome.reconnects += 1;
                        self.sleep_backoff(retry, hint, &mut outcome);
                    }
                    _ => return Err(e),
                },
            }
        }
    }

    fn observe(&self, outcome: &RetryOutcome) {
        obs::request_retries_histogram().record(u64::from(outcome.retries));
        obs::retry_backoff_histogram().record_duration(outcome.backoff);
    }

    /// Access the underlying connection for probe calls (`shard_info`,
    /// `metrics`, `shutdown_server`...), reconnecting first if needed.
    pub fn raw(&mut self) -> Result<&mut Client, ServeError> {
        self.ensure_conn()
    }
}
