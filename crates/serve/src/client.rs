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
    encode_request_traced, read_response_traced, write_frame, ErrorCode, NodeRole, Request,
    Response, ShardInfoPayload, StatsExPayload, StatsPayload, TraceContext, WireError, MIN_VERSION,
    VERSION,
};
use crate::ServeError;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use tripro::fault::mix64;
use tripro::obs;
use tripro::obs::{MetricSnapshot, SpanSummary};

/// Outcome of a query request.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryReply {
    /// The query completed; result ids reassembled across pages, in the
    /// order the server produced them.
    Ids(Vec<u32>),
    /// The query completed but the result is known-incomplete (v5+: a
    /// coordinator answered a kNN with one or more shards missing).
    PartialIds(Vec<u32>),
    /// Scored results (v5+ `NnEx`/`KnnEx`): ids with exact distances,
    /// for cross-shard merging.
    Scored {
        items: Vec<(u32, f64)>,
        partial: bool,
    },
    /// The server answered with a protocol-level error (overload, expired
    /// deadline, bad request...).
    Error {
        code: ErrorCode,
        message: String,
        /// Server backoff hint in milliseconds (v4+; 0 = no hint).
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

    /// The scored items, if the query returned distances.
    pub fn scored(&self) -> Option<&[(u32, f64)]> {
        match self {
            QueryReply::Scored { items, .. } => Some(items),
            _ => None,
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
    server_role: NodeRole,
    /// Span summary from the final page of the most recent traced query
    /// (v6+), when the server attached one.
    last_summary: Option<SpanSummary>,
}

impl Client {
    /// Connect and complete version negotiation (`Hello`).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ServeError> {
        Self::connect_as(addr, NodeRole::Client)
    }

    /// Connect, announcing `role` in the `Hello` (v5+; a coordinator
    /// identifies itself to its backends this way). Servers speaking
    /// v1–v4 simply ignore the role byte.
    pub fn connect_as<A: ToSocketAddrs>(addr: A, role: NodeRole) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut c = Client {
            stream,
            next_id: 1,
            server_role: NodeRole::Engine,
            last_summary: None,
        };
        match c.roundtrip(&Request::Hello {
            min_version: MIN_VERSION,
            max_version: VERSION,
            role,
        })? {
            Response::HelloOk { version: _, role } => {
                c.server_role = role;
                Ok(c)
            }
            Response::Error { .. } => Err(ServeError::Unexpected("server refused version")),
            _ => Err(ServeError::Unexpected("non-hello reply to hello")),
        }
    }

    /// The role the server announced in its `HelloOk` (v1–v4 servers
    /// default to [`NodeRole::Engine`]).
    pub fn server_role(&self) -> NodeRole {
        self.server_role
    }

    /// Optional socket read timeout for all subsequent requests.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn send(&mut self, req: &Request) -> Result<u64, ServeError> {
        self.send_traced(req, None)
    }

    fn send_traced(&mut self, req: &Request, trace: Option<&TraceContext>) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        write_frame(&mut self.stream, &encode_request_traced(id, req, trace))?;
        Ok(id)
    }

    /// Read the next response frame addressed to `id`, stashing any v6
    /// span-summary trailer for [`Self::last_summary`].
    fn recv_for(&mut self, id: u64) -> Result<Response, ServeError> {
        loop {
            let (rid, resp, summary) = read_response_traced(&mut self.stream)?;
            // A strictly serial client only ever has one request in
            // flight; frames for other ids would be a server bug.
            if rid == id {
                if summary.is_some() {
                    self.last_summary = summary;
                }
                return Ok(resp);
            }
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ServeError> {
        let id = self.send(req)?;
        self.recv_for(id)
    }

    /// Liveness probe; answered inline even when the server is overloaded.
    pub fn health(&mut self) -> Result<(), ServeError> {
        match self.roundtrip(&Request::Health)? {
            Response::HealthOk => Ok(()),
            _ => Err(ServeError::Unexpected("non-health reply to health")),
        }
    }

    /// Service counters.
    pub fn stats(&mut self) -> Result<StatsPayload, ServeError> {
        match self.roundtrip(&Request::Stats)? {
            Response::StatsOk(s) => Ok(s),
            _ => Err(ServeError::Unexpected("non-stats reply to stats")),
        }
    }

    /// Shard identity of the server (v5+): map epoch/index/count, grid
    /// pitch and store sizes. A coordinator validates every backend with
    /// this before routing to it.
    pub fn shard_info(&mut self) -> Result<ShardInfoPayload, ServeError> {
        match self.roundtrip(&Request::ShardInfo)? {
            Response::ShardInfoOk(p) => Ok(p),
            _ => Err(ServeError::Unexpected("non-shard-info reply to shard-info")),
        }
    }

    /// Extended stats: service counters plus the engine's cumulative time
    /// breakdown (v3+); answered inline even under overload.
    pub fn stats_ex(&mut self) -> Result<StatsExPayload, ServeError> {
        match self.roundtrip(&Request::StatsEx)? {
            Response::StatsExOk(s) => Ok(s),
            _ => Err(ServeError::Unexpected("non-stats reply to stats-ex")),
        }
    }

    /// The server's metrics registry as Prometheus text exposition;
    /// answered inline even when the server is overloaded (v2+).
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::MetricsOk { text } => Ok(text),
            _ => Err(ServeError::Unexpected("non-metrics reply to metrics")),
        }
    }

    /// The server's metrics registry as a binary snapshot (v6+):
    /// histograms carry full bucket images, so a coordinator can merge
    /// scrapes from many nodes exactly.
    pub fn metrics_bin(&mut self) -> Result<Vec<MetricSnapshot>, ServeError> {
        match self.roundtrip(&Request::MetricsBin)? {
            Response::MetricsBinOk(snaps) => Ok(snaps),
            _ => Err(ServeError::Unexpected("non-metrics reply to metrics-bin")),
        }
    }

    /// The server's rendered slow-trace log (v6+); on a coordinator this
    /// is the stitched cluster waterfall.
    pub fn trace_log(&mut self) -> Result<String, ServeError> {
        match self.roundtrip(&Request::TraceLog)? {
            Response::TraceLogOk { text } => Ok(text),
            _ => Err(ServeError::Unexpected("non-trace reply to trace-log")),
        }
    }

    /// Span summary from the final page of the most recent traced query
    /// (v6+), when the server attached one. Reset at the start of every
    /// query.
    pub fn last_summary(&self) -> Option<&SpanSummary> {
        self.last_summary.as_ref()
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
        self.query_traced(req, None)
    }

    /// [`Self::query`] with a v6 [`TraceContext`] attached: the server
    /// executes under the propagated trace id and, when `sampled`, ships
    /// a span summary back (readable via [`Self::last_summary`]).
    pub fn query_traced(
        &mut self,
        req: &Request,
        trace: Option<&TraceContext>,
    ) -> Result<QueryReply, ServeError> {
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
        self.last_summary = None;
        let id = self.send_traced(req, trace)?;
        let mut out: Vec<u32> = Vec::new();
        let mut scored: Vec<(u32, f64)> = Vec::new();
        let mut any_partial = false;
        loop {
            match self.recv_for(id)? {
                Response::Page { last, ids, partial } => {
                    out.extend_from_slice(&ids);
                    any_partial |= partial;
                    if last {
                        return Ok(if any_partial {
                            QueryReply::PartialIds(out)
                        } else {
                            QueryReply::Ids(out)
                        });
                    }
                }
                Response::PageD {
                    last,
                    partial,
                    items,
                } => {
                    scored.extend_from_slice(&items);
                    any_partial |= partial;
                    if last {
                        return Ok(QueryReply::Scored {
                            items: scored,
                            partial: any_partial,
                        });
                    }
                }
                Response::Error {
                    code,
                    message,
                    retry_after_ms,
                } => {
                    return Ok(QueryReply::Error {
                        code,
                        message,
                        retry_after_ms,
                    });
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

/// Whether an error is worth retrying: the request may succeed on a fresh
/// attempt (overload passes, connections re-establish). Protocol-level
/// rejections (`BadRequest`, `UnsupportedVersion`), server-side failures
/// (`Internal`) and expired deadlines are terminal — retrying them repeats
/// the same answer, only later.
fn is_transient_transport(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Io(_) | ServeError::Wire(WireError::Closed | WireError::Io(_))
    )
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
        c.ensure_conn()?;
        Ok(c)
    }

    /// The policy this client retries under.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
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
        self.query_traced(req, None)
    }

    /// [`Self::query`] with a v6 [`TraceContext`] propagated on every
    /// attempt. All attempts carry the SAME trace id, and each one is
    /// tagged with its 0-based attempt index via a `retry_attempt` span,
    /// so a retried request renders as one waterfall in the slow log —
    /// never as disconnected fragments.
    pub fn query_traced(
        &mut self,
        req: &Request,
        trace: Option<&TraceContext>,
    ) -> Result<(QueryReply, RetryOutcome), ServeError> {
        let mut outcome = RetryOutcome::default();
        loop {
            outcome.attempts += 1;
            let retry = outcome.retries; // 0-based index of the *next* retry
            let _attempt = trace.map(|t| {
                obs::span_for_at(
                    t.trace_id,
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
                Ok(QueryReply::Error {
                    code: ErrorCode::Overloaded,
                    retry_after_ms,
                    ..
                }) if retry < self.policy.max_retries => {
                    outcome.retries += 1;
                    self.sleep_backoff(retry, retry_after_ms, &mut outcome);
                }
                Ok(reply) => {
                    self.observe(&outcome);
                    return Ok((reply, outcome));
                }
                Err(e) if is_transient_transport(&e) && retry < self.policy.max_retries => {
                    // The connection is in an unknown state (possibly a
                    // half-read frame): drop it and reconnect next attempt.
                    self.conn = None;
                    outcome.retries += 1;
                    outcome.reconnects += 1;
                    self.sleep_backoff(retry, 0, &mut outcome);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn observe(&self, outcome: &RetryOutcome) {
        obs::request_retries_histogram().record(u64::from(outcome.retries));
        obs::retry_backoff_histogram().record_duration(outcome.backoff);
    }

    /// Access the underlying connection for probe calls (`stats`,
    /// `metrics`, `shutdown_server`...), reconnecting first if needed.
    pub fn raw(&mut self) -> Result<&mut Client, ServeError> {
        self.ensure_conn()
    }

    /// Span summary from the most recent traced query's final page, when
    /// the server attached one (v6+).
    pub fn last_summary(&self) -> Option<&SpanSummary> {
        self.conn.as_ref().and_then(Client::last_summary)
    }
}
