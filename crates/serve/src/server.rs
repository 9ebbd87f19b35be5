//! The query server: accept loop, per-connection framing threads, admission
//! control, the per-cuboid batch dispatcher, and graceful shutdown.
//!
//! ## Request lifecycle
//!
//! ```text
//! accept ──► connection thread ──► admission ──► bounded queue ──► batcher
//!             (frame parsing,       (cap hit ⇒                     (groups by
//!              inline probes)        Overloaded)                    cuboid, runs
//!                                                                   on tripro::pool)
//! ```
//!
//! Connection threads only parse frames and answer cheap probes
//! (`Hello`/`Health`/`Stats`) inline; every query op goes through admission
//! into the dispatcher's bounded queue. The batcher drains up to
//! `max_inflight` requests per round, sorts them by the cuboid of their
//! target object (point probes bucket by a grid cell of the same pitch) and
//! fans the groups out on the process-wide worker pool — so concurrent
//! requests against the same region share decode-cache residency exactly
//! like the offline join driver's cuboid batches (paper §5.3).
//!
//! ## Overload and deadlines
//!
//! Admission is a hard cap: `queued + executing < max_inflight +
//! queue_depth`, else the request is answered `Overloaded` immediately and
//! counted in [`ServiceStats::shed`]. Admitted requests carry a
//! [`Deadline`] token into the engine; expiry between LOD refinement rounds
//! surfaces as a `DeadlineExceeded` response without paying for further
//! decode.
//!
//! ## Shutdown
//!
//! [`Server::shutdown`] (or a `Shutdown` frame) stops the accept loop,
//! closes admission, lets the batcher drain everything already admitted,
//! answers it, then joins all threads. Connection readers poll the shutdown
//! flag on a short read timeout, so no thread blocks past a drain.

use crate::protocol::{
    self, decode_header, decode_request_body_traced, encode_response, encode_response_traced,
    ErrorCode, Header, NodeRole, Request, Response, ShardInfoPayload, StatsExPayload, StatsPayload,
    TraceContext, HEADER_LEN, MIN_VERSION, NO_DEADLINE_MS, VERSION,
};
use crate::shard::ShardView;
use crate::ServeError;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tripro::fault::{self, FaultAction};
use tripro::obs;
use tripro::sync::{lock, wait, Condvar, Mutex};
use tripro::{
    Accel, Deadline, Engine, Error, ExecStats, ObjectStore, Paradigm, PointQuery, QueryConfig,
    ServiceSnapshot, ServiceStats, TraceConfig,
};

/// Server configuration. `Default` is tuned for tests: loopback, ephemeral
/// port, parallelism matching the host.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Maximum requests executing concurrently (the admission semaphore).
    pub max_inflight: usize,
    /// Maximum requests waiting behind the executing set; admission refuses
    /// (`Overloaded`) beyond `max_inflight + queue_depth` outstanding.
    pub queue_depth: usize,
    /// Pool helper threads the batcher may recruit per round.
    pub batch_helpers: usize,
    /// Maximum simultaneously open client connections; excess connections
    /// are answered `Overloaded` and closed (bounded accept).
    pub max_connections: usize,
    /// Server-side cap on per-request deadlines: a client asking for more
    /// (or for no deadline) is clamped down to this budget. `None` = no cap.
    pub deadline_cap: Option<Duration>,
    /// Query paradigm for all requests (FPR unless benchmarking FR).
    pub paradigm: Paradigm,
    /// Acceleration strategy for all requests.
    pub accel: Accel,
    /// LOD ladder override (empty = every LOD).
    pub lod_list: Vec<usize>,
    /// Cuboid edge for batching; `None` derives one from the target extent
    /// (same rule as the offline join driver).
    pub cuboid_cell: Option<f64>,
    /// Artificial per-batch service time, injected while the executing slot
    /// is held. A load-testing knob: it makes overload and drain behaviour
    /// deterministic in tests and lets `tripro-load` probe admission
    /// control without a large dataset. `None` in production.
    pub inject_latency: Option<Duration>,
    /// Read-timeout granularity at which blocked connection readers poll
    /// the shutdown flag.
    pub poll_interval: Duration,
    /// Span-tracing configuration applied to the process-wide tracer at
    /// startup. Disabled by default: registry metrics (and the `Metrics`
    /// frame) work regardless; this only gates per-request span capture
    /// and the slow-query log.
    pub trace: TraceConfig,
    /// Cluster identity when this engine serves one shard of a partitioned
    /// source store (`None` = standalone single engine). Echoed over
    /// `ShardInfo` so a coordinator can validate the backend before
    /// routing to it (see `docs/sharding.md`).
    pub shard: Option<ShardView>,
    /// Local → global source id map when `shard` is set: query results
    /// are remapped to global ids before leaving the process, so every
    /// shard (and the coordinator merge) speaks one id space.
    pub source_ids: Option<Arc<Vec<u32>>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let par = std::thread::available_parallelism().map_or(4, |n| n.get());
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: par.max(1),
            queue_depth: 64,
            batch_helpers: par.max(1),
            max_connections: 256,
            deadline_cap: None,
            paradigm: Paradigm::FilterProgressiveRefine,
            accel: Accel::Aabb,
            lod_list: Vec::new(),
            cuboid_cell: None,
            inject_latency: None,
            poll_interval: Duration::from_millis(25),
            trace: TraceConfig::default(),
            shard: None,
            source_ids: None,
        }
    }
}

/// Pre-bound registry handles for the per-outcome request counters, so the
/// hot path pays one relaxed `fetch_add` instead of a registry lookup.
/// Shared with the coordinator, which keeps the same admission ledger.
pub(crate) struct Outcomes {
    pub(crate) admitted: Arc<AtomicU64>,
    pub(crate) shed: Arc<AtomicU64>,
    pub(crate) completed: Arc<AtomicU64>,
    pub(crate) deadline_expired: Arc<AtomicU64>,
    pub(crate) failed: Arc<AtomicU64>,
    pub(crate) protocol_error: Arc<AtomicU64>,
}

impl Outcomes {
    pub(crate) fn bind() -> Self {
        Self {
            admitted: obs::request_outcome_counter("admitted"),
            shed: obs::request_outcome_counter("shed"),
            completed: obs::request_outcome_counter("completed"),
            deadline_expired: obs::request_outcome_counter("deadline_expired"),
            failed: obs::request_outcome_counter("failed"),
            protocol_error: obs::request_outcome_counter("protocol_error"),
        }
    }
}

#[inline]
pub(crate) fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// A query operation extracted from a request frame.
enum Op {
    Contains([f64; 3]),
    Intersect(u32),
    Within(u32, f64),
    Nn(u32),
    Knn(u32, u32),
    /// Scored nearest-neighbour (coordinator sub-query): the local best
    /// with its exact distance, for cross-shard merging.
    NnEx(u32),
    /// Scored kNN (coordinator sub-query): local top-k with exact
    /// distances.
    KnnEx(u32, u32),
}

/// The successful result of a query op: plain id pages, or scored pages
/// for the `*Ex` coordinator sub-queries.
enum Reply {
    Ids(Vec<u32>),
    Scored(Vec<(u32, f64)>),
}

/// An admitted request parked in the dispatcher queue.
struct Pending {
    writer: Arc<ConnWriter>,
    request_id: u64,
    op: Op,
    deadline: Deadline,
    /// Batching key: cuboid index of the target object (or point bucket).
    group: u64,
    /// Propagated v6 trace context, when the peer sent one: the request
    /// executes under its trace id and, if sampled, ships a span summary
    /// back on the final reply page.
    trace: Option<TraceContext>,
}

#[derive(Default)]
struct DispatchState {
    queue: VecDeque<Pending>,
    executing: usize,
}

/// Write half of a connection, shared between the connection thread (inline
/// probe replies) and batch workers (query replies). Send failures mean the
/// client went away; the request's work is simply dropped. Shared with the
/// coordinator's connection threads.
pub(crate) struct ConnWriter {
    // LOCK-RANK(30): per-connection write half; taken with no other lock
    // held (repliers drop the dispatch guard before sending).
    stream: Mutex<TcpStream>,
    /// Latched once the transport is known dead (write failure or injected
    /// disconnect); later sends become no-ops instead of repeating the
    /// syscall error frame after frame.
    dead: AtomicBool,
}

impl ConnWriter {
    pub(crate) fn new(stream: TcpStream) -> Self {
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
        // Serve-side write failpoint: exercises partial writes, stalls and
        // injected disconnects without needing a misbehaving client. A
        // response path must never panic (it would corrupt the admission
        // ledger), so erroring actions all degrade to dropping the
        // connection.
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

    pub(crate) fn send_response(&self, request_id: u64, resp: &Response) {
        self.send(&encode_response(request_id, resp));
    }

    /// [`Self::send_response`] with a v6 span-summary trailer attached
    /// (only meaningful on the final `Page`/`PageD` of a sampled reply).
    pub(crate) fn send_response_traced(
        &self,
        request_id: u64,
        resp: &Response,
        summary: Option<&obs::SpanSummary>,
    ) {
        self.send(&encode_response_traced(request_id, resp, summary));
    }
}

/// State shared by the accept loop, connection threads and the batcher.
struct Core {
    target: Arc<ObjectStore>,
    source: Arc<ObjectStore>,
    cfg: ServeConfig,
    /// Target object id → cuboid group index (batching locality key).
    cuboid_of: Vec<u64>,
    /// Cuboid pitch used for bucketing point probes.
    cell: f64,
    stats: ServiceStats,
    exec_stats: ExecStats,
    outcomes: Outcomes,
    shutdown: AtomicBool,
    // LOCK-RANK(20): admission queue + executing ledger; taken after
    // `conns` (10) on shutdown paths, before ConnWriter `stream` (30) and
    // the pool lock (40) — both reached only after this guard drops.
    dispatch: Mutex<DispatchState>,
    /// Wakes the batcher when work arrives (or shutdown starts).
    work_cv: Condvar,
    /// Wakes `Server::wait`/shutdown when the dispatcher drains.
    drain_cv: Condvar,
    /// Open connections (bounded accept) and their join handles.
    // LOCK-RANK(10): connection-handle list; outermost serve lock, held
    // only to push/take handles (joins happen after the guard drops).
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Core {
    fn is_shutdown(&self) -> bool {
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
        // Wake the batcher (to notice the flag) and any waiters.
        let st = lock(&self.dispatch);
        drop(st);
        self.work_cv.notify_all();
        self.drain_cv.notify_all();
    }

    fn stats_payload(&self) -> StatsPayload {
        let s = self.stats.snapshot();
        StatsPayload {
            admitted: s.admitted,
            shed: s.shed,
            deadline_expired: s.deadline_expired,
            completed: s.completed,
            protocol_errors: s.protocol_errors,
            target_objects: self.target.len() as u64,
            source_objects: self.source.len() as u64,
        }
    }

    fn stats_ex_payload(&self) -> StatsExPayload {
        let s = self.stats.snapshot();
        let e = self.exec_stats.snapshot();
        StatsExPayload {
            admitted: s.admitted,
            shed: s.shed,
            deadline_expired: s.deadline_expired,
            completed: s.completed,
            failed: s.failed,
            protocol_errors: s.protocol_errors,
            target_objects: self.target.len() as u64,
            source_objects: self.source.len() as u64,
            filter_ns: e.filter_ns,
            decode_ns: e.decode_ns,
            compute_ns: e.compute_ns,
            face_pair_tests: e.face_pair_tests,
            cache_hits: e.cache_hits,
            cache_misses: e.cache_misses,
            decodes: e.decodes,
            reserved: [0; 11],
        }
    }

    /// Deadline for a request: the client's ask clamped by the server cap.
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

    /// Batching group for a query op: joins key on the target object's
    /// cuboid; point probes bucket into a grid of the same pitch (high bit
    /// set so the two key spaces never collide).
    fn group_of(&self, op: &Op) -> u64 {
        match op {
            Op::Intersect(t)
            | Op::Within(t, _)
            | Op::Nn(t)
            | Op::Knn(t, _)
            | Op::NnEx(t)
            | Op::KnnEx(t, _) => self.cuboid_of.get(*t as usize).copied().unwrap_or(0),
            Op::Contains(p) => {
                let b = self.target.rtree().bounds();
                let cell = self.cell.max(1e-9);
                let gx = ((p[0] - b.lo.x) / cell).floor() as i64 & 0xFFFF;
                let gy = ((p[1] - b.lo.y) / cell).floor() as i64 & 0xFFFF;
                let gz = ((p[2] - b.lo.z) / cell).floor() as i64 & 0xFFFF;
                (1 << 63) | ((gx as u64) << 32) | ((gy as u64) << 16) | (gz as u64)
            }
        }
    }

    /// Backoff hint for an `Overloaded` rejection, derived from the live
    /// backlog: roughly how long `outstanding` requests need to drain at
    /// the configured batch rate. Clamped to 1ms..=30s so a hint is always
    /// present and never absurd.
    fn retry_after_ms(&self, outstanding: usize) -> u32 {
        let per_round = self.cfg.inject_latency.unwrap_or(Duration::from_millis(2));
        let rounds = outstanding / self.cfg.max_inflight.max(1) + 1;
        let ms = per_round.as_millis().saturating_mul(rounds as u128);
        ms.clamp(1, 30_000) as u32
    }

    /// [`Core::retry_after_ms`] against the current queue depth, for shed
    /// sites that do not already hold the dispatch guard.
    fn retry_after_hint(&self) -> u32 {
        let outstanding = {
            let st = lock(&self.dispatch);
            st.queue.len() + st.executing
        };
        self.retry_after_ms(outstanding)
    }

    fn query_config(&self, deadline: Deadline) -> QueryConfig {
        let mut qc = QueryConfig::new(self.cfg.paradigm, self.cfg.accel)
            .with_lods(self.cfg.lod_list.clone())
            .with_deadline(deadline);
        qc.cuboid_cell = self.cfg.cuboid_cell;
        qc
    }

    /// Local source id → global id (identity when not sharded).
    #[inline]
    fn global_id(&self, local: u32) -> u32 {
        match &self.cfg.source_ids {
            Some(map) => map.get(local as usize).copied().unwrap_or(local),
            None => local,
        }
    }

    fn shard_info_payload(&self) -> ShardInfoPayload {
        let (epoch, index, count, cell, source_total) = match self.cfg.shard {
            Some(v) => (
                v.map.epoch,
                v.index,
                v.map.count,
                v.map.cell,
                v.source_total,
            ),
            None => (0, 0, 1, self.cell, self.source.len() as u64),
        };
        ShardInfoPayload {
            role: NodeRole::Engine,
            epoch,
            index,
            count,
            cell,
            target_objects: self.target.len() as u64,
            source_objects: self.source.len() as u64,
            source_total,
        }
    }
}

/// A running query server. Dropping the handle shuts it down gracefully.
pub struct Server {
    core: Arc<Core>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop and the batch dispatcher, and return.
    pub fn start(
        target: Arc<ObjectStore>,
        source: Arc<ObjectStore>,
        cfg: ServeConfig,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(
            cfg.addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::other("unresolvable bind address"))?,
        )?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        obs::tracer().configure(&cfg.trace);

        // Precompute the object → cuboid map once; it is the batching key
        // for every join request.
        let cell = cfg.cuboid_cell.unwrap_or_else(|| {
            let e = target.rtree().bounds().extent();
            (e.max_component() / 4.0).max(1e-9)
        });
        let mut cuboid_of = vec![0u64; target.len()];
        for (gi, group) in target.cuboids(cell).iter().enumerate() {
            for &id in group {
                if let Some(slot) = cuboid_of.get_mut(id as usize) {
                    *slot = gi as u64;
                }
            }
        }

        let core = Arc::new(Core {
            target,
            source,
            cfg,
            cuboid_of,
            cell,
            stats: ServiceStats::new(),
            exec_stats: ExecStats::new(),
            outcomes: Outcomes::bind(),
            shutdown: AtomicBool::new(false),
            dispatch: Mutex::new(DispatchState::default()),
            work_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
        });

        let accept = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("tripro-serve-accept".into())
                .spawn(move || accept_loop(&core, &listener))?
        };
        let batcher = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("tripro-serve-batch".into())
                .spawn(move || batch_loop(&core))?
        };

        Ok(Server {
            core,
            addr,
            accept: Some(accept),
            batcher: Some(batcher),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current request-lifecycle counters.
    ///
    /// Under `strict-invariants` this also checks the admission ledger at
    /// snapshot time: every admitted request must be queued, executing, or
    /// accounted (completed / deadline-expired / failed) — a counter that
    /// drifts from that identity means a response path forgot to record
    /// its outcome.
    pub fn stats(&self) -> ServiceSnapshot {
        #[cfg(feature = "strict-invariants")]
        {
            // Hold the dispatch lock so `executing` cannot decrement under
            // us; outcome counters may still tick concurrently (a request
            // can be accounted while its batch is draining), so the check
            // is a pair of inequalities rather than a strict equality.
            let st = lock(&self.core.dispatch);
            let snap = self.core.stats.snapshot();
            let outstanding = st.queue.len() as u64 + st.executing as u64;
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
            return snap;
        }
        #[cfg(not(feature = "strict-invariants"))]
        self.core.stats.snapshot()
    }

    /// Aggregate engine execution stats across all served requests.
    pub fn exec_stats(&self) -> tripro::StatsSnapshot {
        self.core.exec_stats.snapshot()
    }

    /// Block until a shutdown is requested (e.g. by a remote `Shutdown`
    /// frame) and all admitted work has drained.
    pub fn wait(&self) {
        let mut st = lock(&self.core.dispatch);
        while !(self.core.is_shutdown() && st.queue.is_empty() && st.executing == 0) {
            st = wait(&self.core.drain_cv, st);
        }
    }

    /// Graceful shutdown: stop accepting, drain admitted work, join all
    /// threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.core.begin_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *lock(&self.core.conns));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------
// Accept loop
// ---------------------------------------------------------------------

fn accept_loop(core: &Arc<Core>, listener: &TcpListener) {
    while !core.is_shutdown() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let mut conns = lock(&core.conns);
                // Reap finished connection threads so the bound tracks
                // *live* connections, not historical ones.
                conns.retain(|h| !h.is_finished());
                if conns.len() >= core.cfg.max_connections {
                    drop(conns);
                    core.stats.record_shed();
                    bump(&core.outcomes.shed);
                    let writer = ConnWriter::new(stream);
                    writer.send_response(
                        0,
                        &Response::Error {
                            code: ErrorCode::Overloaded,
                            message: "connection limit reached".to_string(),
                            retry_after_ms: core.retry_after_hint(),
                        },
                    );
                    continue;
                }
                let core2 = Arc::clone(core);
                let spawned = std::thread::Builder::new()
                    .name("tripro-serve-conn".into())
                    .spawn(move || {
                        // A panicking connection handler must take down its
                        // own connection only, never the process: contain
                        // it, count it, and let the thread exit (dropping
                        // the stream closes the socket).
                        if catch_unwind(AssertUnwindSafe(|| conn_loop(&core2, stream))).is_err() {
                            obs::panic_counter("serve_conn").fetch_add(1, Ordering::Relaxed);
                        }
                    });
                match spawned {
                    Ok(h) => conns.push(h),
                    Err(_) => {
                        core.stats.record_shed();
                        bump(&core.outcomes.shed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(core.cfg.poll_interval.min(Duration::from_millis(10)));
            }
            Err(_) => {
                // Transient accept failure (EMFILE etc.); back off briefly.
                std::thread::sleep(core.cfg.poll_interval);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Connection threads
// ---------------------------------------------------------------------

/// Outcome of a shutdown-aware exact read.
pub(crate) enum ReadFull {
    Full,
    /// Clean stop: EOF at a frame boundary, or shutdown observed.
    Stop,
    /// Transport failure or truncation mid-frame.
    Failed,
}

/// Read exactly `buf.len()` bytes, polling `shutdown` on every read
/// timeout. `at_boundary` means EOF here is a clean close, not truncation.
/// Shared by the server's and the coordinator's connection threads.
pub(crate) fn read_full(
    shutdown: &AtomicBool,
    reader: &mut TcpStream,
    buf: &mut [u8],
    at_boundary: bool,
) -> ReadFull {
    // Serve-side read failpoint: erroring actions surface as a transport
    // failure (connection drops, protocol_error counted) — a read path
    // must never panic, so Panic degrades to Failed here too.
    match fault::hit(fault::SERVE_READ) {
        None => {}
        Some(FaultAction::Delay(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(_) => return ReadFull::Failed,
    }
    let mut n = 0;
    while n < buf.len() {
        // ORDERING: Acquire pairs with the Release store raising the flag
        // (see `Core::begin_shutdown`).
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

fn conn_loop(core: &Arc<Core>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(core.cfg.poll_interval));
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;

    loop {
        let mut hb = [0u8; HEADER_LEN];
        match read_full(&core.shutdown, &mut reader, &mut hb, true) {
            ReadFull::Full => {}
            ReadFull::Stop => return,
            ReadFull::Failed => {
                core.stats.record_protocol_error();
                bump(&core.outcomes.protocol_error);
                return;
            }
        }
        let header = match decode_header(&hb) {
            Ok(h) => h,
            Err(e) => {
                // Unframeable input: answer once (the id field may be
                // garbage, use 0) and drop the connection — resynchronising
                // an unframed byte stream is not possible.
                core.stats.record_protocol_error();
                bump(&core.outcomes.protocol_error);
                writer.send_response(
                    0,
                    &Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                        retry_after_ms: 0,
                    },
                );
                return;
            }
        };
        if !(MIN_VERSION..=VERSION).contains(&header.version) {
            core.stats.record_protocol_error();
            bump(&core.outcomes.protocol_error);
            writer.send_response(
                header.request_id,
                &Response::Error {
                    code: ErrorCode::UnsupportedVersion,
                    message: format!("server speaks versions {MIN_VERSION}..={VERSION}"),
                    retry_after_ms: 0,
                },
            );
            return;
        }
        let mut payload = vec![0u8; header.payload_len as usize];
        match read_full(&core.shutdown, &mut reader, &mut payload, false) {
            ReadFull::Full => {}
            ReadFull::Stop => return,
            ReadFull::Failed => {
                core.stats.record_protocol_error();
                bump(&core.outcomes.protocol_error);
                return;
            }
        }
        if !handle_frame(core, &writer, &header, &payload) {
            return;
        }
    }
}

/// Handle one framed request; returns `false` when the connection should
/// close (protocol error or shutdown).
fn handle_frame(
    core: &Arc<Core>,
    writer: &Arc<ConnWriter>,
    header: &Header,
    payload: &[u8],
) -> bool {
    let (request, trace) = match decode_request_body_traced(header.kind, payload) {
        Ok(r) => r,
        Err(e) => {
            core.stats.record_protocol_error();
            bump(&core.outcomes.protocol_error);
            writer.send_response(
                header.request_id,
                &Response::Error {
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                    retry_after_ms: 0,
                },
            );
            return false;
        }
    };
    let id = header.request_id;
    let (op, deadline_ms) = match request {
        Request::Hello {
            min_version,
            max_version,
            role: _,
        } => {
            // Speak the newest version both sides understand. The peer's
            // role is informational; the engine answers anyone.
            let spoken = (MIN_VERSION..=VERSION)
                .rev()
                .find(|v| (min_version..=max_version).contains(v));
            match spoken {
                Some(version) => {
                    writer.send_response(
                        id,
                        &Response::HelloOk {
                            version,
                            role: NodeRole::Engine,
                        },
                    );
                }
                None => {
                    core.stats.record_protocol_error();
                    bump(&core.outcomes.protocol_error);
                    writer.send_response(
                        id,
                        &Response::Error {
                            code: ErrorCode::UnsupportedVersion,
                            message: format!("server speaks versions {MIN_VERSION}..={VERSION}"),
                            retry_after_ms: 0,
                        },
                    );
                }
            }
            return true;
        }
        Request::Health => {
            writer.send_response(id, &Response::HealthOk);
            return true;
        }
        Request::Stats => {
            writer.send_response(id, &Response::StatsOk(core.stats_payload()));
            return true;
        }
        Request::ShardInfo => {
            writer.send_response(id, &Response::ShardInfoOk(core.shard_info_payload()));
            return true;
        }
        Request::Metrics => {
            writer.send_response(
                id,
                &Response::MetricsOk {
                    text: obs::render_global(),
                },
            );
            return true;
        }
        Request::StatsEx => {
            writer.send_response(id, &Response::StatsExOk(core.stats_ex_payload()));
            return true;
        }
        Request::MetricsBin => {
            writer.send_response(
                id,
                &Response::MetricsBinOk(obs::snapshot_registry(obs::registry())),
            );
            return true;
        }
        Request::TraceLog => {
            writer.send_response(
                id,
                &Response::TraceLogOk {
                    text: obs::render_slow_log(),
                },
            );
            return true;
        }
        Request::Shutdown => {
            writer.send_response(id, &Response::ShutdownOk);
            core.begin_shutdown();
            return false;
        }
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
        } => (Op::Nn(target), deadline_ms),
        Request::Knn {
            target,
            k,
            deadline_ms,
        } => (Op::Knn(target, k), deadline_ms),
        Request::NnEx {
            target,
            deadline_ms,
        } => (Op::NnEx(target), deadline_ms),
        Request::KnnEx {
            target,
            k,
            deadline_ms,
        } => (Op::KnnEx(target, k), deadline_ms),
    };

    // Validate before admission so a bad id never occupies a slot.
    if let Op::Intersect(t)
    | Op::Within(t, _)
    | Op::Nn(t)
    | Op::Knn(t, _)
    | Op::NnEx(t)
    | Op::KnnEx(t, _) = op
    {
        if t as usize >= core.target.len() {
            writer.send_response(
                id,
                &Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("target {t} out of range (store has {})", core.target.len()),
                    retry_after_ms: 0,
                },
            );
            return true;
        }
    }

    let group = core.group_of(&op);
    let pending = Pending {
        writer: Arc::clone(writer),
        request_id: id,
        op,
        deadline: core.deadline_for(deadline_ms),
        group,
        trace,
    };

    // Admission control: bounded outstanding work, shed beyond.
    let (admitted, outstanding) = {
        let mut st = lock(&core.dispatch);
        let outstanding = st.queue.len() + st.executing;
        if core.is_shutdown() || outstanding >= core.cfg.max_inflight + core.cfg.queue_depth {
            (false, outstanding)
        } else {
            // Count admission before the request becomes claimable, so the
            // ledger invariant (`accounted ≤ admitted`) cannot be violated
            // by a request completing before its admission is recorded.
            core.stats.record_admitted();
            bump(&core.outcomes.admitted);
            st.queue.push_back(pending);
            (true, outstanding)
        }
    };
    if admitted {
        core.work_cv.notify_all();
    } else {
        core.stats.record_shed();
        bump(&core.outcomes.shed);
        writer.send_response(
            id,
            &Response::Error {
                code: ErrorCode::Overloaded,
                message: "admission queue full".to_string(),
                retry_after_ms: core.retry_after_ms(outstanding),
            },
        );
    }
    true
}

// ---------------------------------------------------------------------
// Batch dispatcher
// ---------------------------------------------------------------------

fn batch_loop(core: &Arc<Core>) {
    loop {
        let batch = {
            let mut st = lock(&core.dispatch);
            while st.queue.is_empty() && !core.is_shutdown() {
                st = wait(&core.work_cv, st);
            }
            if st.queue.is_empty() {
                // Shutdown with a drained queue: notify waiters and exit.
                drop(st);
                core.drain_cv.notify_all();
                return;
            }
            let n = st.queue.len().min(core.cfg.max_inflight.max(1));
            let batch: Vec<Pending> = st.queue.drain(..n).collect();
            st.executing += batch.len();
            batch
        };

        // Load-testing knob: hold the executing slots for a fixed service
        // time so overload behaviour is observable at small scale.
        if let Some(hold) = core.cfg.inject_latency {
            std::thread::sleep(hold);
        }

        let n = batch.len();
        execute_batch(core, batch);

        let mut st = lock(&core.dispatch);
        st.executing = st.executing.saturating_sub(n);
        drop(st);
        core.drain_cv.notify_all();
    }
}

/// Execute one admitted batch: group by cuboid, fan groups out on the
/// process-wide pool, one group per worker claim (decode-cache locality).
fn execute_batch(core: &Arc<Core>, mut batch: Vec<Pending>) {
    batch.sort_by_key(|p| p.group);
    let mut groups: Vec<Vec<Pending>> = Vec::new();
    for p in batch {
        match groups.last_mut() {
            Some(g) if g.first().is_some_and(|f| f.group == p.group) => g.push(p),
            _ => groups.push(vec![p]),
        }
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let helpers = core.cfg.batch_helpers.min(groups.len()).saturating_sub(1);
    tripro::pool::global().run_with(helpers, |_| {
        // `serve_one` contains engine panics itself; this is the backstop
        // for anything that escapes it on the *caller* participant, which
        // would otherwise unwind into (and kill) the batch loop. Pool
        // helpers are already contained by the pool's worker loop.
        let contained = catch_unwind(AssertUnwindSafe(|| loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(group) = groups.get(i) else { return };
            for p in group {
                serve_one(core, p);
            }
        }));
        if contained.is_err() {
            obs::panic_counter("serve_batch").fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Execute a single admitted request and stream its response.
fn serve_one(core: &Core, p: &Pending) {
    // Root span for the whole request, keyed by the propagated v6 trace
    // id when the peer sent one (a coordinator's cluster-wide id), else
    // the wire request id. The engine's filter/refine/decode spans nest
    // under it; if the request exceeds the slow threshold the full tree
    // lands in the slow log.
    let trace_id = p.trace.map_or(p.request_id, |t| t.trace_id);
    let _req = obs::tracer().request(trace_id);
    let started = Instant::now();
    // Per-request cost attribution: a sampled trace executes against a
    // private stats block so its span summary reports this request's work
    // alone; the block is merged back into the cumulative counters after
    // execution, leaving StatsEx totals unchanged. Unsampled requests
    // write straight to the shared block exactly as before v6.
    let sampled = p.trace.is_some_and(|t| t.sampled) && obs::enabled();
    let local_stats = sampled.then(ExecStats::new);
    let stats = local_stats.as_ref().unwrap_or(&core.exec_stats);
    let qc = core.query_config(p.deadline.clone());
    let engine = Engine::new(&core.target, &core.source);
    // Panic containment: a panicking query (engine bug or injected via the
    // `serve.exec` failpoint) converts to a typed `Error::Internal` so it
    // flows through the ordinary failure path — accounted in the ledger,
    // answered over the wire, and the server keeps serving.
    let exec = catch_unwind(AssertUnwindSafe(|| -> Result<Reply, Error> {
        fault::failpoint(fault::SERVE_EXEC)?;
        match p.op {
            Op::Contains(pt) => PointQuery::new(&core.target)
                .containing(tripro_geom::vec3(pt[0], pt[1], pt[2]), &qc, stats)
                .map(Reply::Ids),
            Op::Intersect(t) => engine.intersect_one(t, &qc, stats).map(Reply::Ids),
            Op::Within(t, d) => engine.within_one(t, d, &qc, stats).map(Reply::Ids),
            Op::Nn(t) => engine
                .nn_one(t, &qc, stats)
                .map(|nn| Reply::Ids(nn.into_iter().collect())),
            Op::Knn(t, k) => engine.knn_one(t, k as usize, &qc, stats).map(Reply::Ids),
            Op::NnEx(t) => {
                let mut out = Vec::new();
                if let Some(c) = engine.nn_one(t, &qc, stats)? {
                    out.push((c, engine.pair_distance(t, c, &qc, stats)?));
                }
                Ok(Reply::Scored(out))
            }
            Op::KnnEx(t, k) => {
                let ids = engine.knn_one(t, k as usize, &qc, stats)?;
                let mut out = Vec::with_capacity(ids.len());
                for c in ids {
                    out.push((c, engine.pair_distance(t, c, &qc, stats)?));
                }
                Ok(Reply::Scored(out))
            }
        }
    }));
    let result: Result<Reply, Error> = match exec {
        Ok(r) => r,
        Err(payload) => {
            core.stats.record_panic();
            obs::panic_counter("serve_request").fetch_add(1, Ordering::Relaxed);
            Err(Error::Internal {
                context: "serve.request",
                message: fault::panic_message(payload.as_ref()),
            })
        }
    };
    let summary = local_stats.map(|local| {
        let snap = local.snapshot();
        core.exec_stats.merge_from(&snap);
        obs::SpanSummary::from_stats(trace_id, started.elapsed().as_nanos() as u64, &snap)
    });
    match result {
        Ok(reply) => {
            // Contains results are target ids (full store everywhere); all
            // other ops return source ids, remapped to the global id space
            // when this engine serves a shard partition.
            let pages = match reply {
                Reply::Ids(mut ids) => {
                    if !matches!(p.op, Op::Contains(_)) {
                        for id in &mut ids {
                            *id = core.global_id(*id);
                        }
                    }
                    protocol::pages_of(&ids)
                }
                Reply::Scored(mut items) => {
                    for (id, _) in &mut items {
                        *id = core.global_id(*id);
                    }
                    protocol::scored_pages_of(&items, false)
                }
            };
            let n = pages.len();
            for (i, page) in pages.iter().enumerate() {
                // The span summary rides the final page only.
                let s = if i + 1 == n { summary.as_ref() } else { None };
                p.writer.send_response_traced(p.request_id, page, s);
            }
            core.stats.record_completed();
            bump(&core.outcomes.completed);
        }
        Err(Error::DeadlineExceeded) => {
            core.stats.record_deadline_expired();
            bump(&core.outcomes.deadline_expired);
            p.writer.send_response(
                p.request_id,
                &Response::Error {
                    code: ErrorCode::DeadlineExceeded,
                    message: "deadline expired during refinement".to_string(),
                    retry_after_ms: 0,
                },
            );
        }
        Err(e) => {
            // Internal failures must still be accounted, or admitted
            // requests leak from the ledger (admitted ≠ accounted).
            core.stats.record_failed();
            bump(&core.outcomes.failed);
            p.writer.send_response(
                p.request_id,
                &Response::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                    retry_after_ms: 0,
                },
            );
        }
    }
}
