//! The node skeleton: everything a listening `tripro-serve` process does
//! that does not depend on what it serves.
//!
//! ```text
//! accept ──► connection thread ──► Handler::submit ──► Node::execute
//!  (bounded)   (framing, version,    (admission and      (panic containment,
//!               inline probes,        dispatch: the       page streaming,
//!               validation,           part that           outcome ledger)
//!               deadline clamp)       differs)
//! ```
//!
//! A shard engine ([`crate::server`]) and a coordinator
//! ([`crate::coordinator`]) are the two [`Handler`]s. The skeleton never
//! asks which one it is serving: every difference enters as one of the
//! trait's constants, the handler's admission state, or one of its
//! methods.
//!
//! ## Shutdown
//!
//! [`NodeHandle::shutdown`] (or a `Shutdown` frame) stops the accept loop
//! and closes admission; everything already admitted is answered, then
//! all threads are joined. Connection readers poll the shutdown flag on a
//! short read timeout, so no thread blocks past a drain.

use crate::protocol::{
    self, decode_header, decode_request_body_traced, encode_response, ErrorCode, Header, NodeRole,
    Request, Response, ShardInfoPayload, TraceContext, HEADER_LEN, NO_DEADLINE_MS, VERSION,
};
use crate::ServeError;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tripro::fault::{self, FaultAction};
use tripro::obs::{self, MetricSnapshot};
use tripro::sync::{lock, wait, Condvar, Mutex};
use tripro::{Deadline, ServiceSnapshot, ServiceStats, StatsSnapshot, TraceConfig};

/// Read-timeout granularity at which blocked connection readers poll the
/// shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// The listener settings both public configs carry.
pub(crate) struct NodeConfig {
    pub addr: String,
    pub max_connections: usize,
    pub deadline_cap: Option<Duration>,
    pub trace: TraceConfig,
}

/// What actually differs between a shard engine and a coordinator.
pub(crate) trait Handler: Send + Sync + Sized + 'static {
    /// Role announced in `HelloOk`.
    const ROLE: NodeRole;
    /// Infix of thread names (`tripro-{NAME}-accept`, `-conn`...) and
    /// prefix of the `tripro_panics_total{context}` labels for contained
    /// panics (`{NAME}_conn`, `{NAME}_request`).
    const NAME: &'static str;
    /// Admission state, guarded by the node's rank-20 lock (a queue plus
    /// an executing count for the engine's batcher, a bare executing count
    /// for the coordinator).
    type Admission: Default + Send;
    /// Requests admitted and not yet finished, for the ledger check and
    /// the drain wait.
    fn outstanding(st: &Self::Admission) -> usize;
    fn shard_info(&self) -> ShardInfoPayload;
    /// The `Metrics` answer: own registry, or the federated cluster view.
    fn metrics(&self) -> Vec<MetricSnapshot>;
    /// Backoff hint for a connection shed at the accept loop.
    fn retry_after_ms(&self, outstanding: usize) -> u32;
    /// Admit and dispatch one validated query, or shed it. Must end in
    /// exactly one of [`Node::shed`] or (after [`Node::admit`] granted)
    /// [`Node::execute`].
    fn submit(node: &Arc<Node<Self>>, query: Query);
}

/// A query operation extracted from a request frame.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Contains([f64; 3]),
    Intersect(u32),
    Within(u32, f64),
    /// The `k` nearest (NN is `k = 1`); `scored` answers with exact
    /// distances (the coordinator's sub-query, for cross-shard merging).
    Nearest {
        target: u32,
        k: u32,
        scored: bool,
    },
}

/// A framed, validated query on its way to a handler.
pub(crate) struct Query {
    pub writer: Arc<ConnWriter>,
    pub request_id: u64,
    pub op: Op,
    /// The client's ask clamped by the node's `deadline_cap`.
    pub deadline: Deadline,
    /// Propagated trace context, when the peer sent one: the request
    /// executes under its trace id and, if sampled, ships a stats summary
    /// back on the final reply page.
    pub trace: Option<TraceContext>,
}

/// The successful result of a query: plain id pages, or scored pages for
/// the `*Ex` coordinator sub-queries.
pub(crate) enum Reply {
    Ids {
        ids: Vec<u32>,
        partial: bool,
    },
    Scored {
        items: Vec<(u32, f64)>,
        partial: bool,
    },
}

/// A typed failure, answered as an `Error` frame.
pub(crate) struct Failure {
    pub code: ErrorCode,
    pub message: String,
    pub retry_after_ms: u32,
}

// ---------------------------------------------------------------------
// Outcome ledger
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Outcome {
    Admitted,
    Shed,
    Completed,
    DeadlineExpired,
    Failed,
    ProtocolError,
}

const OUTCOME_LABELS: [&str; 6] = [
    "admitted",
    "shed",
    "completed",
    "deadline_expired",
    "failed",
    "protocol_error",
];

/// Records each outcome once, into both the per-node [`ServiceStats`] and
/// the process-wide `tripro_requests_total{outcome}` counters (bound up
/// front, so the hot path pays two relaxed `fetch_add`s and no lookup).
struct Ledger {
    stats: ServiceStats,
    registry: [Arc<AtomicU64>; 6],
}

impl Ledger {
    fn new() -> Self {
        Self {
            stats: ServiceStats::new(),
            registry: OUTCOME_LABELS.map(obs::request_outcome_counter),
        }
    }

    fn record(&self, o: Outcome) {
        match o {
            Outcome::Admitted => self.stats.record_admitted(),
            Outcome::Shed => self.stats.record_shed(),
            Outcome::Completed => self.stats.record_completed(),
            Outcome::DeadlineExpired => self.stats.record_deadline_expired(),
            Outcome::Failed => self.stats.record_failed(),
            Outcome::ProtocolError => self.stats.record_protocol_error(),
        }
        self.registry[o as usize].fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Connection I/O
// ---------------------------------------------------------------------

/// Write half of a connection, shared between the connection thread (inline
/// probe replies) and whoever executes its queries. Send failures mean the
/// client went away; the request's work is simply dropped.
pub(crate) struct ConnWriter {
    // LOCK-RANK(30): per-connection write half; taken with no other lock
    // held (repliers drop the admission guard before sending).
    stream: Mutex<TcpStream>,
    /// Latched once the transport is known dead (write failure or injected
    /// disconnect); later sends become no-ops instead of repeating the
    /// syscall error frame after frame.
    dead: AtomicBool,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream: Mutex::new(stream),
            dead: AtomicBool::new(false),
        }
    }

    fn is_dead(&self) -> bool {
        // ORDERING: Relaxed — advisory fast-path flag; the stream mutex
        // serializes the writes themselves.
        self.dead.load(Ordering::Relaxed)
    }

    /// Mark the transport dead and shut both directions down so the
    /// connection thread blocked in `read` unblocks promptly.
    fn kill(&self) {
        let s = lock(&self.stream);
        self.mark_dead(&s);
    }

    fn mark_dead(&self, s: &TcpStream) {
        // ORDERING: Relaxed — see `is_dead`.
        self.dead.store(true, Ordering::Relaxed);
        let _ = s.shutdown(Shutdown::Both);
    }

    fn send(&self, frame: &[u8]) {
        if self.is_dead() {
            return;
        }
        // Write failpoint: exercises partial writes, stalls and injected
        // disconnects without needing a misbehaving client. A response
        // path must never panic (it would corrupt the admission ledger),
        // so erroring actions all degrade to dropping the connection.
        let mut cap = usize::MAX;
        match fault::hit(fault::SERVE_WRITE) {
            None => {}
            Some(FaultAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(FaultAction::Partial(n)) => cap = n.max(1),
            Some(FaultAction::Err | FaultAction::Panic | FaultAction::Disconnect) => {
                self.kill();
                return;
            }
        }
        let mut s = lock(&self.stream);
        // The guard IS the frame serializer — interleaved partial writes
        // would corrupt the wire protocol. Only this connection's repliers
        // contend here, and a stuck client stalls its own replies, nothing
        // else. A short `write` is NOT failure: loop until the frame is
        // fully flushed or the transport errors.
        let mut off = 0;
        let mut ok = true;
        while off < frame.len() {
            let end = frame.len().min(off.saturating_add(cap));
            cap = usize::MAX; // only the first chunk is truncated by Partial
            match std::io::Write::write(&mut *s, &frame[off..end]) {
                Ok(0) => {
                    ok = false;
                    break;
                }
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            // tripro_lint::allow(condvar_wait_loop): the flush must stay
            // under the same guard as the write (frame serialization).
            ok = std::io::Write::flush(&mut *s).is_ok();
        }
        if !ok {
            self.mark_dead(&s);
        }
    }

    fn send_response(&self, request_id: u64, resp: &Response) {
        self.send(&encode_response(request_id, resp));
    }

    fn send_error(&self, request_id: u64, code: ErrorCode, message: String, retry_after_ms: u32) {
        self.send_response(
            request_id,
            &Response::Error {
                code,
                message,
                retry_after_ms,
            },
        );
    }
}

/// Outcome of a shutdown-aware exact read.
enum ReadFull {
    Full,
    /// Clean stop: EOF at a frame boundary, or shutdown observed.
    Stop,
    /// Transport failure or truncation mid-frame.
    Failed,
}

/// Read exactly `buf.len()` bytes, polling `shutdown` on every read
/// timeout. `at_boundary` means EOF here is a clean close, not truncation.
fn read_full(
    shutdown: &AtomicBool,
    reader: &mut TcpStream,
    buf: &mut [u8],
    at_boundary: bool,
) -> ReadFull {
    // Read failpoint: erroring actions surface as a transport failure
    // (connection drops, protocol_error counted) — a read path must never
    // panic, so Panic degrades to Failed here too.
    match fault::hit(fault::SERVE_READ) {
        None => {}
        Some(FaultAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(_) => return ReadFull::Failed,
    }
    let mut n = 0;
    while n < buf.len() {
        // ORDERING: Acquire pairs with the Release store raising the flag
        // (see `Node::begin_shutdown`).
        if shutdown.load(Ordering::Acquire) {
            return ReadFull::Stop;
        }
        match reader.read(&mut buf[n..]) {
            Ok(0) => {
                return if n == 0 && at_boundary {
                    ReadFull::Stop
                } else {
                    ReadFull::Failed
                };
            }
            Ok(m) => n += m,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return ReadFull::Failed,
        }
    }
    ReadFull::Full
}

// ---------------------------------------------------------------------
// The node
// ---------------------------------------------------------------------

/// State shared by the accept loop, connection threads and the handler's
/// own workers.
pub(crate) struct Node<H: Handler> {
    pub handler: H,
    cfg: NodeConfig,
    ledger: Ledger,
    shutdown: AtomicBool,
    // LOCK-RANK(20): admission state (the handler's queue / executing
    // ledger); taken after `conns` (10) on shutdown paths, before
    // ConnWriter `stream` (30) and the pool lock (40) — both reached only
    // after this guard drops.
    pub admission: Mutex<H::Admission>,
    /// Wakes handler workers when work arrives (or shutdown starts).
    pub work_cv: Condvar,
    /// Wakes [`NodeHandle::wait_drained`] when the node drains.
    drain_cv: Condvar,
    /// Open connections (bounded accept) and their join handles.
    // LOCK-RANK(10): connection-handle list; outermost serve lock, held
    // only to push/take handles (joins happen after the guard drops).
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl<H: Handler> Node<H> {
    pub fn is_shutdown(&self) -> bool {
        // ORDERING: Acquire pairs with the Release store in
        // `begin_shutdown`, so a reader that observes the flag also
        // observes every write the shutting-down thread made before
        // raising it (final stats, queue state).
        self.shutdown.load(Ordering::Acquire)
    }

    fn begin_shutdown(&self) {
        // ORDERING: Release publishes everything written before shutdown
        // to the threads that observe the flag via the Acquire load in
        // `is_shutdown`.
        self.shutdown.store(true, Ordering::Release);
        // Pass through the admission lock so no waiter can sit between
        // its predicate check and its park when the wake-ups fire.
        drop(lock(&self.admission));
        self.work_cv.notify_all();
        self.drain_cv.notify_all();
    }

    /// Deadline for a request: the client's ask clamped by the node's cap.
    fn deadline_for(&self, deadline_ms: u32) -> Deadline {
        let client =
            (deadline_ms != NO_DEADLINE_MS).then(|| Duration::from_millis(u64::from(deadline_ms)));
        match (client, self.cfg.deadline_cap) {
            (Some(c), Some(cap)) => Deadline::within(c.min(cap)),
            (Some(c), None) => Deadline::within(c),
            (None, Some(cap)) => Deadline::within(cap),
            (None, None) => Deadline::none(),
        }
    }

    /// Admission gate: under the admission lock, refuse if shutting down,
    /// else let `grant` decide (and claim its slot in the state). Returns
    /// the outstanding count seen when refusing, for the backoff hint.
    ///
    /// Admission is counted before the guard drops, so the ledger
    /// invariant (`accounted ≤ admitted`) cannot be violated by a request
    /// completing before its admission is recorded.
    pub fn admit(&self, grant: impl FnOnce(&mut H::Admission) -> bool) -> Result<(), usize> {
        let mut st = lock(&self.admission);
        if !self.is_shutdown() && grant(&mut st) {
            self.ledger.record(Outcome::Admitted);
            Ok(())
        } else {
            Err(H::outstanding(&st))
        }
    }

    /// Give back admission slots (through `release`) and wake drain
    /// waiters.
    pub fn release(&self, release: impl FnOnce(&mut H::Admission)) {
        release(&mut lock(&self.admission));
        self.drain_cv.notify_all();
    }

    /// Refuse a query with `Overloaded`.
    pub fn shed(&self, q: &Query, message: &str, retry_after_ms: u32) {
        self.ledger.record(Outcome::Shed);
        q.writer.send_error(
            q.request_id,
            ErrorCode::Overloaded,
            message.to_string(),
            retry_after_ms,
        );
    }

    /// Count a protocol violation and tell the peer.
    fn refuse(&self, writer: &ConnWriter, id: u64, code: ErrorCode, message: String) {
        self.ledger.record(Outcome::ProtocolError);
        writer.send_error(id, code, message, 0);
    }

    /// Run one admitted query to its reply: open the request's root span
    /// (keyed by the propagated trace id when the peer sent one, else the
    /// wire request id), contain a panic in `run` as a typed `Internal`
    /// failure so it flows through the ordinary failure path, stream the
    /// pages — the stats summary rides the last — and account the outcome
    /// exactly once.
    pub fn execute(
        &self,
        q: &Query,
        run: impl FnOnce(u64) -> (Result<Reply, Failure>, Option<StatsSnapshot>),
    ) {
        let trace_id = q.trace.map_or(q.request_id, |t| t.trace_id);
        let _req = obs::tracer().request(trace_id);
        let (result, summary) = match catch_unwind(AssertUnwindSafe(|| run(trace_id))) {
            Ok(r) => r,
            Err(payload) => {
                let context = format!("{}_request", H::NAME);
                self.ledger.stats.record_panic();
                obs::panic_counter(&context).fetch_add(1, Ordering::Relaxed);
                let failure = Failure {
                    code: ErrorCode::Internal,
                    message: format!(
                        "internal error in {context}: {}",
                        fault::panic_message(payload.as_ref())
                    ),
                    retry_after_ms: 0,
                };
                (Err(failure), None)
            }
        };
        match result {
            Ok(reply) => {
                let mut pages = match reply {
                    Reply::Ids { ids, partial } => protocol::pages_of_flagged(&ids, partial),
                    Reply::Scored { items, partial } => protocol::scored_pages_of(&items, partial),
                };
                if let Some(
                    Response::Page { summary: slot, .. } | Response::PageD { summary: slot, .. },
                ) = pages.last_mut()
                {
                    *slot = summary;
                }
                for page in &pages {
                    q.writer.send_response(q.request_id, page);
                }
                self.ledger.record(Outcome::Completed);
            }
            // Failures must still be accounted, or admitted requests leak
            // from the ledger (admitted ≠ accounted).
            Err(f) => {
                self.ledger
                    .record(if f.code == ErrorCode::DeadlineExceeded {
                        Outcome::DeadlineExpired
                    } else {
                        Outcome::Failed
                    });
                q.writer
                    .send_error(q.request_id, f.code, f.message, f.retry_after_ms);
            }
        }
    }
}

/// A running node. Dropping the handle shuts it down gracefully.
pub(crate) struct NodeHandle<H: Handler> {
    pub node: Arc<Node<H>>,
    addr: SocketAddr,
    /// The accept loop plus whatever workers the handler spawned.
    threads: Vec<JoinHandle<()>>,
}

impl<H: Handler> NodeHandle<H> {
    /// Bind, spawn the accept loop, and return.
    pub fn start(cfg: NodeConfig, handler: H) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(
            cfg.addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::other("unresolvable bind address"))?,
        )?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // The tracer is process-wide: a node that does not ask for tracing
        // must not switch it off under another node in the same process.
        if cfg.trace.enabled {
            obs::tracer().configure(&cfg.trace);
        }
        let node = Arc::new(Node {
            handler,
            cfg,
            ledger: Ledger::new(),
            shutdown: AtomicBool::new(false),
            admission: Mutex::new(H::Admission::default()),
            work_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
        });
        let mut handle = NodeHandle {
            node,
            addr,
            threads: Vec::new(),
        };
        handle.spawn("accept", move |node| accept_loop(node, &listener))?;
        Ok(handle)
    }

    /// Spawn a node-lifetime thread (joined at shutdown). It must exit
    /// once [`Node::is_shutdown`] holds and its work has drained; `work_cv`
    /// is notified when shutdown begins.
    pub fn spawn(
        &mut self,
        what: &str,
        f: impl FnOnce(&Arc<Node<H>>) + Send + 'static,
    ) -> std::io::Result<()> {
        let node = Arc::clone(&self.node);
        self.threads.push(
            std::thread::Builder::new()
                .name(format!("tripro-{}-{what}", H::NAME))
                .spawn(move || f(&node))?,
        );
        Ok(())
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current request-lifecycle counters.
    ///
    /// Under `strict-invariants` this also checks the admission ledger at
    /// snapshot time: every admitted request must be outstanding or
    /// accounted (completed / deadline-expired / failed) — a counter that
    /// drifts from that identity means a response path forgot to record
    /// its outcome.
    pub fn stats(&self) -> ServiceSnapshot {
        #[cfg(feature = "strict-invariants")]
        {
            // Hold the admission lock so outstanding cannot decrement under
            // us; outcome counters may still tick concurrently (a request
            // can be accounted while its slot is being released), so the
            // check is a pair of inequalities rather than a strict equality.
            let st = lock(&self.node.admission);
            let snap = self.node.ledger.stats.snapshot();
            let outstanding = H::outstanding(&st) as u64;
            assert!(
                snap.accounted() <= snap.admitted,
                "accounted {} > admitted {}: an outcome was recorded twice \
                 or for an unadmitted request ({snap:?})",
                snap.accounted(),
                snap.admitted,
            );
            assert!(
                snap.admitted <= snap.accounted() + outstanding,
                "admission ledger leak: admitted {} > accounted {} + \
                 outstanding {outstanding} ({snap:?})",
                snap.admitted,
                snap.accounted(),
            );
            snap
        }
        #[cfg(not(feature = "strict-invariants"))]
        self.node.ledger.stats.snapshot()
    }

    /// Block until a shutdown is requested (e.g. by a remote `Shutdown`
    /// frame) and all admitted work has drained.
    pub fn wait_drained(&self) {
        let mut st = lock(&self.node.admission);
        while !(self.node.is_shutdown() && H::outstanding(&st) == 0) {
            st = wait(&self.node.drain_cv, st);
        }
    }

    /// Graceful shutdown: stop accepting, drain admitted work, join all
    /// threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.node.begin_shutdown();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *lock(&self.node.conns));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl<H: Handler> Drop for NodeHandle<H> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------

fn accept_loop<H: Handler>(node: &Arc<Node<H>>, listener: &TcpListener) {
    while !node.is_shutdown() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let mut conns = lock(&node.conns);
                // Reap finished connection threads so the bound tracks
                // *live* connections, not historical ones.
                conns.retain(|h| !h.is_finished());
                if conns.len() >= node.cfg.max_connections {
                    drop(conns);
                    // Request id 0: the refusal answers the connection,
                    // whatever the peer sends first (see `Client`).
                    node.ledger.record(Outcome::Shed);
                    let outstanding = H::outstanding(&lock(&node.admission));
                    ConnWriter::new(stream).send_error(
                        0,
                        ErrorCode::Overloaded,
                        "connection limit reached".to_string(),
                        node.handler.retry_after_ms(outstanding),
                    );
                    continue;
                }
                let node2 = Arc::clone(node);
                let spawned = std::thread::Builder::new()
                    .name(format!("tripro-{}-conn", H::NAME))
                    .spawn(move || {
                        // A panicking connection handler must take down its
                        // own connection only, never the process: contain
                        // it, count it, and let the thread exit (dropping
                        // the stream closes the socket).
                        if catch_unwind(AssertUnwindSafe(|| conn_loop(&node2, stream))).is_err() {
                            obs::panic_counter(&format!("{}_conn", H::NAME))
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    });
                match spawned {
                    Ok(h) => conns.push(h),
                    Err(_) => node.ledger.record(Outcome::Shed),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                // Transient accept failure (EMFILE etc.); back off briefly.
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Connection threads
// ---------------------------------------------------------------------

fn conn_loop<H: Handler>(node: &Arc<Node<H>>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;

    loop {
        let mut hb = [0u8; HEADER_LEN];
        match read_full(&node.shutdown, &mut reader, &mut hb, true) {
            ReadFull::Full => {}
            ReadFull::Stop => return,
            ReadFull::Failed => return node.ledger.record(Outcome::ProtocolError),
        }
        let header = match decode_header(&hb) {
            Ok(h) => h,
            Err(e) => {
                // Unframeable input: answer once (the id field may be
                // garbage, use 0) and drop the connection — resynchronising
                // an unframed byte stream is not possible.
                return node.refuse(&writer, 0, ErrorCode::BadRequest, e.to_string());
            }
        };
        if header.version != VERSION {
            return node.refuse(
                &writer,
                header.request_id,
                ErrorCode::UnsupportedVersion,
                format!("this node speaks protocol version {VERSION} only"),
            );
        }
        let mut payload = vec![0u8; header.payload_len as usize];
        match read_full(&node.shutdown, &mut reader, &mut payload, false) {
            ReadFull::Full => {}
            ReadFull::Stop => return,
            ReadFull::Failed => return node.ledger.record(Outcome::ProtocolError),
        }
        if !handle_frame(node, &writer, &header, &payload) {
            return;
        }
    }
}

/// Handle one framed request: answer probes inline, hand validated queries
/// to the handler. Returns `false` when the connection should close
/// (protocol error or shutdown).
fn handle_frame<H: Handler>(
    node: &Arc<Node<H>>,
    writer: &Arc<ConnWriter>,
    header: &Header,
    payload: &[u8],
) -> bool {
    let id = header.request_id;
    let (request, trace) = match decode_request_body_traced(header.kind, payload) {
        Ok(r) => r,
        Err(e) => {
            node.refuse(writer, id, ErrorCode::BadRequest, e.to_string());
            return false;
        }
    };
    // NN is kNN with k = 1; the scored kind is the coordinator's sub-query.
    let nearest = |target, k, scored| Op::Nearest { target, k, scored };
    let (op, deadline_ms) = match request {
        Request::Contains { p, deadline_ms } => (Op::Contains(p), deadline_ms),
        Request::Intersect {
            target,
            deadline_ms,
        } => (Op::Intersect(target), deadline_ms),
        Request::Within {
            target,
            d,
            deadline_ms,
        } => (Op::Within(target, d), deadline_ms),
        Request::Nn {
            target,
            deadline_ms,
        } => (nearest(target, 1, false), deadline_ms),
        Request::Knn {
            target,
            k,
            deadline_ms,
        } => (nearest(target, k, false), deadline_ms),
        Request::KnnEx {
            target,
            k,
            deadline_ms,
        } => (nearest(target, k, true), deadline_ms),
        // Everything else is a probe, answered inline even under overload.
        Request::Hello {
            min_version,
            max_version,
            role: _,
        } if !(min_version..=max_version).contains(&VERSION) => {
            node.refuse(
                writer,
                id,
                ErrorCode::UnsupportedVersion,
                format!("this node speaks protocol version {VERSION} only"),
            );
            return true;
        }
        probe => {
            let stop = matches!(probe, Request::Shutdown);
            let answer = match probe {
                // The peer's role is informational; a node answers anyone
                // whose range covers the one version it speaks.
                Request::Hello { .. } => Response::HelloOk {
                    version: VERSION,
                    role: H::ROLE,
                },
                Request::ShardInfo => Response::ShardInfoOk(node.handler.shard_info()),
                Request::Metrics => Response::MetricsOk(node.handler.metrics()),
                Request::TraceLog => Response::TraceLogOk {
                    text: obs::render_slow_log(),
                },
                Request::Shutdown => Response::ShutdownOk,
                _ => Response::HealthOk,
            };
            // A shutdown is acknowledged before the drain begins.
            writer.send_response(id, &answer);
            if stop {
                node.begin_shutdown();
            }
            return !stop;
        }
    };

    // Validate before admission so a bad id never occupies a slot.
    if let Op::Intersect(t) | Op::Within(t, _) | Op::Nearest { target: t, .. } = op {
        let n = node.handler.shard_info().target_objects;
        if u64::from(t) >= n {
            writer.send_error(
                id,
                ErrorCode::BadRequest,
                format!("target {t} out of range (store has {n})"),
                0,
            );
            return true;
        }
    }

    H::submit(
        node,
        Query {
            writer: Arc::clone(writer),
            request_id: id,
            op,
            deadline: node.deadline_for(deadline_ms),
            trace,
        },
    );
    true
}
